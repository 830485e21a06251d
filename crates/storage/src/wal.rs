//! The append-only binary WAL: format, record framing, and the prefix
//! scan that recovery is built on.
//!
//! # On-disk layout
//!
//! ```text
//! "UPWAL002"                                     8-byte magic, written once
//! ┌──────────────┬──────────────┬──────────────┐
//! │ len: u32 LE  │ crc: u32 LE  │ payload      │  repeated per record
//! └──────────────┴──────────────┴──────────────┘
//! 00 00 00 …                                     zero fill, any length
//! payload = seq varint, then the UpdateLog: one front-coded name table,
//!           then a body of varint indices (codec::put_update_log)
//! ```
//!
//! `crc` is the CRC-32 of the payload; `seq` is the record's position in
//! the engine's all-time append sequence, which makes replay **idempotent**
//! across checkpoints: a snapshot taken at sequence `s` skips any WAL
//! record with `seq < s` (the crash-between-snapshot-and-WAL-reset window
//! leaves exactly such records behind), and a duplicated record is skipped
//! the same way. The zero fill is space the backend preallocated and a
//! crash left behind ([`FileStorage`](crate::FileStorage) appends into
//! it); `len` is never 0, so no record starts with four zero bytes.
//!
//! # The scan contract
//!
//! [`scan`] walks records from the front. It ends **clean** where the
//! bytes left are all zeros (none at all, or the fill): an all-zero image
//! is an empty WAL. Otherwise it stops at the **first** anomaly: a header
//! that doesn't fit, a length past end-of-file, a CRC mismatch, a payload
//! that doesn't decode — a zero run followed by any non-zero byte is one.
//! Everything before the stop is the *valid prefix* — exactly the appends
//! whose fsync barrier completed — and everything from an anomaly on is a
//! torn tail to truncate. This is why a mid-record crash (or a bit flip
//! anywhere in a record) costs at most the suffix of un-synced appends,
//! never a panic and never silently corrupt state. A file whose 8-byte
//! magic itself is damaged is *not* a torn tail (the magic is written and
//! synced before any record): that is [`BadMagic`], surfaced as a hard
//! [`RecoveryError`](crate::RecoveryError) — except the boot-crash case of
//! a strict prefix of the magic, zero-filled or not, which is treated as
//! a torn creation and truncated to empty. A WAL of an older record
//! format is refused the same way, naming its version: there is one
//! decoder and no migration.
//!
//! A record has exactly one spelling, the one [`encode_record`] writes:
//! the scan re-encodes each record it decodes and stops at the first
//! whose bytes differ. A long varint, a name table out of order and a
//! byte after the log are each a payload that does not decode.

// No-panic zone: the scan is total over whatever a crash left on disk.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::codec::{put_u32, put_update_log, put_var64, take_update_log, Reader};
use crate::crc::crc32;
use std::fmt;
use uprov_engine::UpdateLog;

/// The WAL file magic, written (and synced) when the first record is.
pub const WAL_MAGIC: [u8; 8] = *b"UPWAL002";

/// The magic of record format 1, which is refused by name.
const WAL_MAGIC_V1: [u8; 8] = *b"UPWAL001";

/// One decoded WAL record: an update-log delta plus its position in the
/// engine's all-time append sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// All-time append sequence number (0-based).
    pub seq: u64,
    /// The appended delta.
    pub delta: UpdateLog,
}

/// Encodes one record (header + checksummed payload). The caller appends
/// the result to the WAL blob — after the magic, which
/// [`DurableEngine`](crate::DurableEngine) writes on first use.
pub fn encode_record(seq: u64, delta: &UpdateLog) -> Vec<u8> {
    let mut payload = Vec::new();
    put_var64(&mut payload, seq);
    put_update_log(&mut payload, delta);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// A non-empty WAL whose magic is not [`WAL_MAGIC`]: the file is not a
/// torn tail but something else entirely, so recovery refuses it loudly
/// instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BadMagic {
    /// Not a WAL: a wrong file, or media corruption of the synced header.
    Foreign,
    /// A WAL whose records are in format `n`, which this build does not
    /// read (it reads only the format [`WAL_MAGIC`] names).
    UnsupportedVersion(u32),
}

impl fmt::Display for BadMagic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadMagic::Foreign => write!(f, "WAL header magic mismatch (not a UPWAL002 file)"),
            BadMagic::UnsupportedVersion(v) => {
                write!(f, "unsupported WAL record format version {v}")
            }
        }
    }
}

impl std::error::Error for BadMagic {}

/// Why a [`scan`] stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The records end at a record boundary, followed by nothing or by
    /// zero fill only — nothing torn.
    Clean,
    /// Fewer than 8 header bytes remained at `offset` (a crash mid-header,
    /// or mid-magic: a strict prefix of the magic, zero-filled or not).
    TornHeader {
        /// Offset of the torn record (or 0 for a torn magic).
        offset: u64,
    },
    /// The header's length field points past end-of-file: the payload
    /// append never completed.
    TornPayload {
        /// Offset of the torn record.
        offset: u64,
    },
    /// The payload is fully present but its CRC-32 does not match — a torn
    /// overwrite or a flipped bit.
    ChecksumMismatch {
        /// Offset of the corrupt record.
        offset: u64,
    },
    /// The CRC matched but the payload is not the one spelling of a
    /// record — only reachable via CRC collision on garbage, handled
    /// anyway.
    Undecodable {
        /// Offset of the undecodable record.
        offset: u64,
    },
}

impl WalTail {
    /// True if the scan ended at a record boundary with nothing to drop.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }
}

/// The result of scanning a WAL image: the valid record prefix, how many
/// bytes of it are good, and why the scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic included). Recovery
    /// truncates the blob to this length when it holds more: zero fill
    /// silently, a torn tail with a report.
    pub valid_len: u64,
    /// Why the scan stopped.
    pub tail: WalTail,
}

/// Scans a WAL image, returning its valid record prefix (see the module
/// docs for the exact stop-and-truncate contract). Total: arbitrary bytes
/// produce either a [`WalScan`] or [`BadMagic`], never a panic.
pub fn scan(bytes: &[u8]) -> Result<WalScan, BadMagic> {
    // Zero bytes past the last non-zero one are preallocated space a
    // crash left behind, not data: the log ends where they begin.
    let written = bytes
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1);
    if written < WAL_MAGIC.len() {
        // Crash while writing the magic itself: a prefix of the magic is a
        // torn creation (truncate to empty); anything else is not ours.
        let head = bytes.get(..written).unwrap_or_default();
        if !WAL_MAGIC.starts_with(head) {
            return Err(BadMagic::Foreign);
        }
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            tail: if written == 0 {
                WalTail::Clean
            } else {
                WalTail::TornHeader { offset: 0 }
            },
        });
    }
    if bytes.starts_with(&WAL_MAGIC_V1) {
        return Err(BadMagic::UnsupportedVersion(1));
    }
    if !bytes.starts_with(&WAL_MAGIC) {
        return Err(BadMagic::Foreign);
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        // Every record has a non-zero length field, so none starts in a
        // run of zeros that reaches the end.
        if pos >= written {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Clean,
            });
        }
        // A torn tail is a *value*, not an error: the valid prefix scanned
        // so far is the whole point.
        macro_rules! finish {
            ($tail:expr) => {
                return Ok(WalScan {
                    records,
                    valid_len: pos as u64,
                    tail: $tail,
                })
            };
        }
        let (Some(len), Some(stored_crc)) = (read_u32_at(bytes, pos), read_u32_at(bytes, pos + 4))
        else {
            finish!(WalTail::TornHeader { offset: pos as u64 });
        };
        let len = len as usize;
        let Some(record) = (pos + 8)
            .checked_add(len)
            .and_then(|end| bytes.get(pos..end))
        else {
            finish!(WalTail::TornPayload { offset: pos as u64 });
        };
        let payload = record.get(8..).unwrap_or_default();
        if crc32(payload) != stored_crc {
            finish!(WalTail::ChecksumMismatch { offset: pos as u64 });
        }
        let mut r = Reader::new(payload);
        let decoded = r
            .take_var64("record sequence")
            .and_then(|seq| take_update_log(&mut r).map(|delta| WalRecord { seq, delta }));
        match decoded {
            Ok(rec) if encode_record(rec.seq, &rec.delta) == record => records.push(rec),
            _ => finish!(WalTail::Undecodable { offset: pos as u64 }),
        }
        pos += 8 + len;
    }
}

/// Reads the little-endian `u32` at `pos`, or `None` when fewer than four
/// bytes remain — the total form of the record-header reads in [`scan`].
fn read_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_with(deltas: &[&str]) -> (Vec<u8>, Vec<UpdateLog>) {
        let logs: Vec<UpdateLog> = deltas.iter().map(|s| s.parse().expect("valid")).collect();
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, log) in logs.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64, log));
        }
        (bytes, logs)
    }

    #[test]
    fn scan_round_trips_a_clean_wal() {
        let (bytes, logs) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\nmodify a <- b\ncommit\n",
        ]);
        let scan = scan(&bytes).expect("good magic");
        assert!(scan.tail.is_clean());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].seq, 0);
        assert_eq!(scan.records[1].seq, 1);
        assert_eq!(scan.records[1].delta, logs[1]);
    }

    #[test]
    fn empty_and_magic_only_are_clean() {
        let scan0 = scan(&[]).expect("empty is fine");
        assert!(scan0.tail.is_clean() && scan0.records.is_empty());
        let scan1 = scan(&WAL_MAGIC).expect("magic only");
        assert!(scan1.tail.is_clean() && scan1.records.is_empty());
        assert_eq!(scan1.valid_len, 8);
    }

    #[test]
    fn every_truncation_point_yields_the_record_prefix() {
        let (bytes, _) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\ndelete b\ncommit\n",
            "begin t3\ninsert c\ncommit\n",
        ]);
        let full = scan(&bytes).expect("clean");
        // Record boundaries: offsets where a prefix ends cleanly.
        let mut boundaries = vec![8u64];
        for rec in &full.records {
            let enc = encode_record(rec.seq, &rec.delta);
            boundaries.push(boundaries.last().unwrap() + enc.len() as u64);
        }
        for cut in 0..bytes.len() {
            let scan = scan(&bytes[..cut]).expect("any prefix of a valid WAL scans");
            // Cuts inside the magic have no boundary at or below them.
            let expect_records = boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(scan.records.len(), expect_records, "cut at {cut}");
            assert_eq!(
                scan.records,
                full.records[..expect_records],
                "cut at {cut}: surviving prefix must match"
            );
            let at_boundary = boundaries.contains(&(cut as u64)) || cut == 0;
            assert_eq!(scan.tail.is_clean(), at_boundary, "cut at {cut}");
            assert!(scan.valid_len <= cut as u64);
        }
    }

    #[test]
    fn bit_flips_stop_the_scan_at_the_corrupt_record() {
        let (bytes, _) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\ndelete b\ncommit\n",
        ]);
        let rec0_len =
            encode_record(0, &"base a\nbegin t1\ninsert b\ncommit\n".parse().unwrap()).len() as u64;
        // Flip one bit in every byte of the second record's region.
        for at in (8 + rec0_len as usize)..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let scan = scan(&bad).expect("magic intact");
            assert_eq!(scan.records.len(), 1, "flip at {at}: first record survives");
            assert!(!scan.tail.is_clean(), "flip at {at} must be detected");
            assert!(scan.valid_len <= 8 + rec0_len, "flip at {at}");
        }
    }

    /// A three-record WAL and the byte offset where each record prefix
    /// ends (magic only, then after each record).
    fn wal_and_boundaries() -> (Vec<u8>, WalScan, Vec<usize>) {
        let (bytes, _) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\ndelete b\ncommit\n",
            "begin t3\ninsert c\ncommit\n",
        ]);
        let full = scan(&bytes).expect("clean");
        let mut boundaries = vec![WAL_MAGIC.len()];
        for rec in &full.records {
            let last = boundaries[boundaries.len() - 1];
            boundaries.push(last + encode_record(rec.seq, &rec.delta).len());
        }
        (bytes, full, boundaries)
    }

    #[test]
    fn every_record_prefix_followed_by_zeros_scans_clean() {
        let (bytes, full, boundaries) = wal_and_boundaries();
        for (kept, &end) in boundaries.iter().enumerate() {
            for fill in [0, 1, 7, 8, 9, 4096] {
                let mut image = bytes[..end].to_vec();
                image.resize(end + fill, 0);
                let got = scan(&image).expect("good magic");
                let ctx = format!("{kept} records + {fill} zero bytes");
                assert_eq!(got.tail, WalTail::Clean, "{ctx}");
                assert_eq!(got.valid_len, end as u64, "{ctx}");
                assert_eq!(got.records, full.records[..kept], "{ctx}");
            }
        }
    }

    #[test]
    fn an_all_zero_image_is_an_empty_clean_wal() {
        for len in (0..=20).chain([64, 4096, 65_536]) {
            let got = scan(&vec![0; len]).expect("zeros are not a bad magic");
            assert_eq!(got.tail, WalTail::Clean, "{len} zero bytes");
            assert_eq!(got.valid_len, 0, "{len} zero bytes");
            assert!(got.records.is_empty(), "{len} zero bytes");
        }
    }

    #[test]
    fn a_zero_run_then_a_non_zero_byte_is_torn_at_the_boundary() {
        let (bytes, full, boundaries) = wal_and_boundaries();
        for (kept, &end) in boundaries.iter().enumerate() {
            for at in 0..40 {
                let mut image = bytes[..end].to_vec();
                image.resize(end + 40, 0);
                image[end + at] = 0x5A;
                let got = scan(&image).expect("good magic");
                let ctx = format!("{kept} records, non-zero byte {at} into the fill");
                assert!(!got.tail.is_clean(), "{ctx}");
                assert_eq!(got.valid_len, end as u64, "{ctx}");
                assert_eq!(got.records, full.records[..kept], "{ctx}");
            }
        }
    }

    #[test]
    fn zero_fill_keeps_the_magic_verdicts() {
        for fill in [0, 1, 8, 4096] {
            let padded = |head: &[u8]| {
                let mut image = head.to_vec();
                image.resize(head.len() + fill, 0);
                scan(&image)
            };
            assert_eq!(padded(b"NOTAWAL!"), Err(BadMagic::Foreign), "fill {fill}");
            assert_eq!(padded(b"XY").err(), Some(BadMagic::Foreign), "fill {fill}");
            let torn = padded(&WAL_MAGIC[..5]).expect("torn creation");
            assert_eq!(torn.tail, WalTail::TornHeader { offset: 0 }, "fill {fill}");
            assert_eq!(torn.valid_len, 0, "fill {fill}");
        }
    }

    #[test]
    fn bad_magic_is_a_hard_error_and_short_magic_prefix_is_torn() {
        assert_eq!(scan(b"NOTAWAL!"), Err(BadMagic::Foreign));
        assert_eq!(
            scan(b"garbage that is long enough").err(),
            Some(BadMagic::Foreign)
        );
        assert_eq!(scan(b"XY").err(), Some(BadMagic::Foreign));
        // A strict prefix of the magic = crash during creation.
        let scan_torn = scan(&WAL_MAGIC[..5]).expect("torn creation");
        assert_eq!(scan_torn.tail, WalTail::TornHeader { offset: 0 });
        assert_eq!(scan_torn.valid_len, 0);
    }
    #[test]
    fn a_version_1_wal_is_refused_by_name_not_torn() {
        // Magic only, a record, zero fill: the version decides first.
        for tail in [&[][..], &[5, 0, 0, 0, 1, 2, 3, 4, 9], &[0; 8]] {
            let image = [&b"UPWAL001"[..], tail].concat();
            assert_eq!(scan(&image), Err(BadMagic::UnsupportedVersion(1)));
        }
        let err = scan(b"UPWAL001").unwrap_err().to_string();
        assert!(err.contains("version 1"), "{err}");
        assert_eq!(scan(b"UPWAL0x1"), Err(BadMagic::Foreign));
        // `UPWAL00` is a prefix of every version's magic: a torn creation.
        let torn = scan(b"UPWAL00").expect("torn creation");
        assert_eq!(torn.tail, WalTail::TornHeader { offset: 0 });
    }

    /// `payload` as one framed record after the magic.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut image = WAL_MAGIC.to_vec();
        put_u32(&mut image, payload.len() as u32);
        put_u32(&mut image, crc32(payload));
        image.extend_from_slice(payload);
        image
    }

    #[test]
    fn a_payload_of_another_spelling_is_an_undecodable_tail() {
        let log: UpdateLog = "base a\nbegin t\ninsert b\ncommit\n".parse().unwrap();
        let good = encode_record(7, &log);
        let payload = &good[8..];
        assert_eq!(framed(payload), [&WAL_MAGIC[..], &good].concat());
        let undecodable = |payload: &[u8]| scan(&framed(payload)).map(|s| s.tail);
        let torn = Ok(WalTail::Undecodable { offset: 8 });
        assert_eq!(
            undecodable(&[payload, &[0]].concat()),
            torn,
            "trailing byte"
        );
        assert_eq!(
            undecodable(&[&[0x87, 0x00], &payload[1..]].concat()),
            torn,
            "long seq"
        );
        // Table a, b, t: `t` out of range once the count says two names.
        assert_eq!(payload[1], 3, "name count");
        let mut short = payload.to_vec();
        short[1] = 2;
        assert_eq!(undecodable(&short), torn, "short table");
    }
}
