//! Concrete-evaluation plumbing: the named structure catalogue on the
//! wire, deterministic fingerprint valuations, and value rendering.
//!
//! The protocol cannot ship a `Valuation` (clients don't know the
//! engine's `Atom` numbering, and the service may renumber across
//! recovery), so concrete queries name a structure and the service
//! derives every atom's value from a **name fingerprint** — the same
//! FNV-1a scheme the differential harness uses (`workload/tests/
//! differential.rs`): the same tuple/transaction name maps to the same
//! value in *any* engine. That is exactly what lets the concurrency soak
//! test replay a response's acknowledged prefix in a fresh
//! single-threaded engine and demand byte-identical rows.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use uprov_core::{Atom, EvalBaseline, ExprArena, UpdateStructure, Valuation};
use uprov_engine::{Engine, ReplayState};
use uprov_structures::{Bool, Clearance, Trust, Witnesses, Worlds};

/// The five verified catalogue structures, as named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StructureId {
    /// [`uprov_structures::Bool`] — does the tuple exist?
    Bool,
    /// [`uprov_structures::Worlds`] — 64 possible worlds in a `u64`.
    Worlds,
    /// [`uprov_structures::Clearance`] — `u16` compartment masks.
    Clearance,
    /// [`uprov_structures::Trust`] — `u32` vouching-source masks.
    Trust,
    /// [`uprov_structures::Witnesses`] — `BTreeSet<u32>` witness ids.
    Witnesses,
}

impl StructureId {
    /// Every wire-visible structure, in wire-name order.
    pub const ALL: [StructureId; 5] = [
        StructureId::Bool,
        StructureId::Worlds,
        StructureId::Clearance,
        StructureId::Trust,
        StructureId::Witnesses,
    ];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            StructureId::Bool => "bool",
            StructureId::Worlds => "worlds",
            StructureId::Clearance => "clearance",
            StructureId::Trust => "trust",
            StructureId::Witnesses => "witnesses",
        }
    }

    /// Per-structure fingerprint salt, so the same name takes independent
    /// values under different structures.
    fn salt(self) -> u64 {
        match self {
            StructureId::Bool => 0xB001,
            StructureId::Worlds => 0x0301_21D5,
            StructureId::Clearance => 0xC1EA_4444,
            StructureId::Trust => 0x7121_5757,
            StructureId::Witnesses => 0x3177_7E55,
        }
    }
}

impl fmt::Display for StructureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structure name that is not in the catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStructure {
    /// The offending name.
    pub name: String,
}

impl fmt::Display for UnknownStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown structure `{}` (expected one of bool, worlds, clearance, trust, witnesses)",
            self.name
        )
    }
}

impl std::error::Error for UnknownStructure {}

impl FromStr for StructureId {
    type Err = UnknownStructure;

    fn from_str(s: &str) -> Result<Self, UnknownStructure> {
        StructureId::ALL
            .into_iter()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| UnknownStructure { name: s.to_owned() })
    }
}

/// Deterministic 64-bit FNV-1a fingerprint of a name — engine-independent,
/// mirroring the differential harness, so service answers and oracle
/// answers are comparable by construction.
pub fn name_mask(name: &str, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x100_0000_01b3);
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn witness_set(mask: u64) -> BTreeSet<u32> {
    (0..16).filter(|k| mask >> k & 1 == 1).collect()
}

/// The fingerprint valuation over every base-tuple and transaction atom of
/// `state`: atom named `n` takes `mk(name_mask(n, salt))`, anything else
/// (unreachable in practice) takes `top`.
fn fingerprint_valuation<S, F>(
    state: &ReplayState,
    salt: u64,
    top: S::Value,
    mk: F,
) -> Valuation<S::Value>
where
    S: UpdateStructure,
    F: Fn(u64) -> S::Value,
{
    let mut val = Valuation::constant(top);
    for (name, atom) in state.base_atoms() {
        val.set(atom, mk(name_mask(name, salt)));
    }
    for (name, atom) in state.txn_atoms() {
        val.set(atom, mk(name_mask(name, salt)));
    }
    val
}

/// A computation generic over the catalogue structure: [`with_structure`]
/// hands it the structure named by a [`StructureId`], that structure's
/// fingerprint valuation of a state, and its renderer.
trait PerStructure {
    type Out;
    fn run<S>(self, s: S, val: Valuation<S::Value>, render: fn(&S::Value) -> String) -> Self::Out
    where
        S: UpdateStructure + Send + 'static;
}

/// The one place the catalogue is spelled out: salt, valuation and
/// canonical rendering per structure.
fn with_structure<P: PerStructure>(id: StructureId, state: &ReplayState, p: P) -> P::Out {
    let salt = id.salt();
    match id {
        // Mostly-present databases make deletion propagation visible
        // under Bool: 7 of 8 fingerprints are truthy.
        StructureId::Bool => p.run(
            Bool,
            fingerprint_valuation::<Bool, _>(state, salt, true, |m| m & 7 != 0),
            |v| v.to_string(),
        ),
        StructureId::Worlds => p.run(
            Worlds,
            fingerprint_valuation::<Worlds, _>(state, salt, u64::MAX, |m| m),
            |v| format!("{v:#018x}"),
        ),
        StructureId::Clearance => p.run(
            Clearance,
            fingerprint_valuation::<Clearance, _>(state, salt, u16::MAX, |m| m as u16),
            |v| format!("{v:#06x}"),
        ),
        StructureId::Trust => p.run(
            Trust,
            fingerprint_valuation::<Trust, _>(state, salt, u32::MAX, |m| m as u32),
            |v| format!("{v:#010x}"),
        ),
        StructureId::Witnesses => p.run(
            Witnesses,
            fingerprint_valuation::<Witnesses, _>(state, salt, witness_set(u64::MAX), witness_set),
            |v| {
                let ids: Vec<String> = v.iter().map(|w| w.to_string()).collect();
                format!("{{{}}}", ids.join(","))
            },
        ),
    }
}

/// Evaluates every tuple of `state` under `id`'s fingerprint valuation —
/// with `zeroed`'s atom mapped to `0` first if given (the concrete abort /
/// deletion-propagation what-if). Rows come back in sorted tuple order
/// with values rendered in each structure's canonical textual form.
///
/// Always a **full** evaluation of the database, never a cone over a
/// cached baseline: it is the reference the service's [`Rows`] answers
/// are checked against. The thread count is ignored: evaluation is serial.
pub fn eval_rows(
    engine: &Engine,
    state: &ReplayState,
    id: StructureId,
    zeroed: Option<Atom>,
    _threads: usize,
) -> Vec<(String, String)> {
    let cone = with_structure(
        id,
        state,
        Fresh {
            engine,
            state,
            zeroed,
        },
    );
    let names = state.tuple_names().map(str::to_owned);
    names.zip(cone.rendered()).collect()
}

/// One structure's answers over one state, ready to serve: the whole
/// database evaluated once under the fingerprint valuation and rendered,
/// after which each what-if re-renders only the rows the zeroed atom's
/// cone changes ([`uprov_core::EvalBaseline`]).
///
/// Valid while the state's tuple roots stay where they were; the service
/// keys it by append `seq`.
pub struct Rows {
    rows: Vec<(String, String)>,
    cone: Box<dyn Cone>,
}

/// A baseline with its structure and renderer, type-erased so [`Rows`]
/// can hold any catalogue structure.
trait Cone: Send + Sync {
    /// Every root's baseline value, rendered.
    fn rendered(&self) -> Vec<String>;
    /// `(root index, rendered value)` of the roots that change when
    /// `atom` is `0`.
    fn changed(&self, arena: &ExprArena, atom: Atom) -> Vec<(usize, String)>;
    /// The same state under the structure `id`, sharing this schedule.
    fn revalue(&self, arena: &ExprArena, state: &ReplayState, id: StructureId) -> Box<dyn Cone>;
}

/// A fresh baseline of `state` under the fingerprint valuation, with
/// `zeroed`'s atom mapped to `0` first if given.
struct Fresh<'a> {
    engine: &'a Engine,
    state: &'a ReplayState,
    zeroed: Option<Atom>,
}

impl PerStructure for Fresh<'_> {
    type Out = Box<dyn Cone>;
    fn run<S>(self, s: S, val: Valuation<S::Value>, render: fn(&S::Value) -> String) -> Self::Out
    where
        S: UpdateStructure + Send + 'static,
    {
        let val = match self.zeroed {
            Some(atom) => val.with(atom, s.zero()),
            None => val,
        };
        let baseline = self.engine.what_if(self.state, &s, &val).baseline;
        Box::new(Typed {
            structure: s,
            baseline,
            render,
        })
    }
}

struct Typed<S: UpdateStructure> {
    structure: S,
    baseline: EvalBaseline<S::Value>,
    render: fn(&S::Value) -> String,
}

impl<S: UpdateStructure + Send + 'static> Cone for Typed<S> {
    fn rendered(&self) -> Vec<String> {
        self.baseline.roots().map(self.render).collect()
    }

    fn changed(&self, arena: &ExprArena, atom: Atom) -> Vec<(usize, String)> {
        let zero = self.structure.zero();
        let changed = self.baseline.with_atom(arena, &self.structure, atom, zero);
        changed
            .into_iter()
            .map(|(i, v)| (i, (self.render)(&v)))
            .collect()
    }

    fn revalue(&self, arena: &ExprArena, state: &ReplayState, id: StructureId) -> Box<dyn Cone> {
        struct Revalue<'a, V> {
            arena: &'a ExprArena,
            like: &'a EvalBaseline<V>,
        }
        impl<V: Clone + PartialEq> PerStructure for Revalue<'_, V> {
            type Out = Box<dyn Cone>;
            fn run<T>(
                self,
                s: T,
                val: Valuation<T::Value>,
                render: fn(&T::Value) -> String,
            ) -> Self::Out
            where
                T: UpdateStructure + Send + 'static,
            {
                let baseline = self.like.revalue(self.arena, &s, &val);
                Box::new(Typed {
                    structure: s,
                    baseline,
                    render,
                })
            }
        }
        let like = &self.baseline;
        with_structure(id, state, Revalue { arena, like })
    }
}

impl Rows {
    /// Evaluates and renders `state` under `id`. With `sibling` (another
    /// structure's [`Rows`] over the same state), reuses its evaluation
    /// schedule and parent table instead of building new ones.
    pub fn new(
        engine: &Engine,
        state: &ReplayState,
        id: StructureId,
        sibling: Option<&Rows>,
    ) -> Rows {
        let cone = match sibling {
            Some(rows) => rows.cone.revalue(engine.arena(), state, id),
            None => with_structure(
                id,
                state,
                Fresh {
                    engine,
                    state,
                    zeroed: None,
                },
            ),
        };
        let rows = state
            .tuple_names()
            .map(str::to_owned)
            .zip(cone.rendered())
            .collect();
        Rows { rows, cone }
    }

    /// The rows [`eval_rows`] answers for `zeroed` on the same state: the
    /// rendered baseline, with the rows the zeroed atom's cone changes
    /// re-rendered. `engine` must be the one [`Rows::new`] evaluated.
    pub fn rows(&self, engine: &Engine, zeroed: Option<Atom>) -> Vec<(String, String)> {
        let mut rows = self.rows.clone();
        if let Some(atom) = zeroed {
            for (i, text) in self.cone.changed(engine.arena(), atom) {
                rows[i].1 = text;
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_ids_round_trip() {
        for id in StructureId::ALL {
            assert_eq!(id.as_str().parse::<StructureId>(), Ok(id));
        }
        assert!("boolean".parse::<StructureId>().is_err());
    }

    #[test]
    fn cached_rows_match_full_evaluation() {
        let mut engine = Engine::new();
        let log = "base x\nbase y\nbegin t\ninsert x\nmodify z <- y\ncommit\n"
            .parse()
            .unwrap();
        let state = engine.replay(&log).unwrap();
        let t = state.txn_atom("t").unwrap();
        let y = state.base_atom("y").unwrap();
        let mut first: Option<Rows> = None;
        for id in StructureId::ALL {
            let cached = Rows::new(&engine, &state, id, first.as_ref());
            for z in [None, Some(t), Some(y), None] {
                let full = eval_rows(&engine, &state, id, z, 1);
                assert_eq!(cached.rows(&engine, z), full, "{id}: cached rows diverged");
            }
            first.get_or_insert(cached);
        }
    }

    #[test]
    fn fingerprints_are_engine_independent() {
        // Two engines replaying different logs that share names: shared
        // names get identical values despite different atom numbering.
        let mut e1 = Engine::new();
        let s1 = e1
            .replay(
                &"base a\nbase b\nbegin t\ninsert b\ncommit\n"
                    .parse()
                    .unwrap(),
            )
            .unwrap();
        let mut e2 = Engine::new();
        let s2 = e2
            .replay(&"base b\nbegin t\ninsert b\ncommit\n".parse().unwrap())
            .unwrap();
        for id in StructureId::ALL {
            let r1 = eval_rows(&e1, &s1, id, None, 1);
            let r2 = eval_rows(&e2, &s2, id, None, 1);
            let b1 = r1.iter().find(|(n, _)| n == "b").unwrap();
            let b2 = r2.iter().find(|(n, _)| n == "b").unwrap();
            assert_eq!(b1.1, b2.1, "{id}: value of b must not depend on the engine");
        }
    }
}
