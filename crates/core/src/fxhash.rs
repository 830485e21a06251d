//! A fast, dependency-free hasher for the crate's internal interning maps.
//!
//! The interning maps ([`AtomTable`](crate::AtomTable)'s name index, the
//! normalizer's id-keyed sets) hash millions of tiny keys — node ids, short
//! names — on the replay and recovery hot paths, where the standard
//! library's DoS-resistant SipHash spends more time keying than hashing.
//! This is the classic Fx word-at-a-time multiply-mix (as used by rustc's
//! interners): 3–5× faster on such keys.
//!
//! [`ExprArena`](crate::ExprArena) keeps no map at all: its intern table
//! stores bare ids and is keyed by a per-node structural hash built from
//! one or two rounds of the same mix.
//!
//! **Not** collision-resistant against adversarial keys: use it only for
//! maps whose keys the crate itself constructs (interned nodes, atom
//! names), never for attacker-chosen keys where flooding is a concern.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx mix (the golden-ratio-derived constant rustc
/// uses); one rotate-xor-multiply round per word of input.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word-mix hasher. See the module docs for when (not) to use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// One Fx round: folds `word` into `hash`. The multiply leaves the result's
/// **top** bits the best mixed.
#[inline]
pub(crate) fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = mix(self.hash, word);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Zero-pad the tail and fold the length in so "ab" and "ab\0"
            // keep distinct streams (collisions only cost probes, but
            // they're trivial to avoid here).
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.add(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as usize as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — plug into `HashMap::with_hasher` or use
/// the [`FxHashMap`] alias.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by crate-internal (non-adversarial) keys.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_ne!(hash_of(&42u32), hash_of(&43u32));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefghi"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn map_round_trips_node_like_keys() {
        let mut m: FxHashMap<(u8, u32, u32), u32> = FxHashMap::default();
        for i in 0..10_000u32 {
            m.insert((1, i, i + 1), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(&(1, i, i + 1)), Some(&i));
        }
    }
}
