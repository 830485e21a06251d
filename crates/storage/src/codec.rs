//! Binary encoding primitives shared by the snapshot and WAL formats:
//! little-endian fixed-width integers (both frame headers), minimal
//! LEB128 varints (both payloads), front-coded names ([`put_name`]), and
//! the binary [`UpdateLog`] encoding carried by WAL records
//! ([`put_update_log`]: one name table per record, then indices).
//!
//! Decoding is **total**: every reader returns a typed [`DecodeError`]
//! with the byte offset it failed at — never a panic — because recovery
//! must survive arbitrary bytes (a CRC collision is astronomically
//! unlikely, but "astronomically unlikely" is not an excuse to `unwrap`
//! in a crash path).

// No-panic zone: decoding is total over corrupt disk bytes.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::fmt;

use uprov_engine::{Op, Txn, UpdateLog};

/// A structural decode failure: the bytes do not spell a well-formed
/// value. Reported with the offset of the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset (within the buffer being decoded) where the failure
    /// was detected.
    pub offset: usize,
    /// What was being decoded when the bytes ran out or made no sense.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode failed at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as minimal unsigned LEB128: seven bits per byte, lowest
/// group first, the high bit set on every byte but the last — one byte
/// below 128, at most five for a `u32`.
pub fn put_var(buf: &mut Vec<u8>, v: u32) {
    put_var64(buf, u64::from(v));
}

/// [`put_var`] for a `u64` (at most ten bytes).
pub fn put_var64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// A bounds-checked, offset-tracking reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte is consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, what: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            what,
        }
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let out = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| self.err(what))?;
        self.pos += n;
        Ok(out)
    }

    /// Reads one raw byte.
    pub fn take_byte(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        let b = self
            .buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err(what))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let bytes: [u8; 4] = self.take(4, what)?.try_into().map_err(|_| self.err(what))?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let bytes: [u8; 8] = self.take(8, what)?.try_into().map_err(|_| self.err(what))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads an LEB128 `u32` (see [`put_var`]). A sixth byte or a value
    /// above `u32::MAX` is a [`DecodeError`] at the varint's first byte; a
    /// redundant trailing zero group reads as its value. Each format
    /// re-encodes what it decodes and compares, so only `put_var`'s minimal
    /// spelling survives there.
    #[inline]
    pub fn take_var(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u32::from(b))
            }
            _ => {
                let v = self.take_leb(5, u64::from(u32::MAX), what)?;
                Ok(v as u32)
            }
        }
    }

    /// Reads an LEB128 `u64` (see [`put_var64`]), held to the same rules
    /// as [`Reader::take_var`] at ten bytes.
    pub fn take_var64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        self.take_leb(10, u64::MAX, what)
    }

    /// The LEB128 loop behind both varint readers: at most `max_len`
    /// bytes and a value of at most `max`.
    fn take_leb(
        &mut self,
        max_len: usize,
        max: u64,
        what: &'static str,
    ) -> Result<u64, DecodeError> {
        let start = self.pos;
        let fail = |what| DecodeError {
            offset: start,
            what,
        };
        let mut v = 0u64;
        for i in 0..max_len {
            let b = self.take_byte(what)?;
            let group = u64::from(b & 0x7f);
            let shift = 7 * i as u32;
            if (group << shift) >> shift != group {
                return Err(fail("varint out of range"));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                if v > max {
                    return Err(fail("varint out of range"));
                }
                return Ok(v);
            }
        }
        Err(fail("varint too long"))
    }
}

/// Front-codes `name` against the name before it: the length of their
/// longest common byte prefix, then the rest of `name`, length first. Both
/// formats write every name this way: the snapshot's atom table and tuple
/// rows, and each WAL record's name table.
pub fn put_name(buf: &mut Vec<u8>, prev: &str, name: &str) {
    let shared = prev
        .bytes()
        .zip(name.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    let suffix = name.as_bytes().get(shared..).unwrap_or_default();
    put_var(buf, shared as u32);
    put_var(buf, suffix.len() as u32);
    buf.extend_from_slice(suffix);
}

/// Op tag byte: `insert`.
const OP_INSERT: u8 = 0;
/// Op tag byte: `delete`.
const OP_DELETE: u8 = 1;
/// Op tag byte: `modify`.
const OP_MODIFY: u8 = 2;

/// Encodes an [`UpdateLog`] into `buf` — the payload format of one WAL
/// record, every integer a minimal varint:
///
/// ```text
/// names   count, then every distinct name of the log (base, tuple and
///         transaction alike) in strictly ascending byte order, each
///         front-coded against the one before (put_name)
/// base    count, then each base name's table index, in declaration order
/// txns    count, then per transaction its name index and op count, and
///         per op a tag byte (0 insert, 1 delete, 2 modify) and the
///         target index; a modify adds its source count and source indices
/// ```
///
/// Each name is spelled once however often the log names it.
pub fn put_update_log(buf: &mut Vec<u8>, log: &UpdateLog) {
    // Every name occurrence with its position, sorted by name: the table
    // is the distinct names in that order, and an occurrence's index is
    // its name's rank.
    let mut names = Vec::new();
    for_each_field(log, |field| {
        if let Field::Name(name) = field {
            names.push((name, names.len()));
        }
    });
    names.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut ixs = vec![0u32; names.len()];
    let mut table: Vec<&str> = Vec::new();
    for (name, at) in names {
        if table.last() != Some(&name) {
            table.push(name);
        }
        if let Some(ix) = ixs.get_mut(at) {
            *ix = table.len() as u32 - 1;
        }
    }
    put_var(buf, table.len() as u32);
    let mut prev = "";
    for name in table {
        put_name(buf, prev, name);
        prev = name;
    }
    let mut ixs = ixs.into_iter();
    for_each_field(log, |field| match field {
        Field::Count(n) => put_var(buf, n as u32),
        Field::Tag(tag) => buf.push(tag),
        Field::Name(_) => put_var(buf, ixs.next().unwrap_or_default()),
    });
}

/// One field of a log's body, as [`for_each_field`] visits it.
enum Field<'a> {
    Count(usize),
    Tag(u8),
    Name(&'a str),
}

/// Calls `f` on every field of `log`'s body in the order
/// [`put_update_log`] writes them, a name where its index goes.
fn for_each_field<'a>(log: &'a UpdateLog, mut f: impl FnMut(Field<'a>)) {
    f(Field::Count(log.base.len()));
    for b in &log.base {
        f(Field::Name(b));
    }
    f(Field::Count(log.txns.len()));
    for txn in &log.txns {
        f(Field::Name(&txn.name));
        f(Field::Count(txn.ops.len()));
        for op in &txn.ops {
            match op {
                Op::Insert { tuple } => {
                    f(Field::Tag(OP_INSERT));
                    f(Field::Name(tuple));
                }
                Op::Delete { tuple } => {
                    f(Field::Tag(OP_DELETE));
                    f(Field::Name(tuple));
                }
                Op::Modify { target, sources } => {
                    f(Field::Tag(OP_MODIFY));
                    f(Field::Name(target));
                    f(Field::Count(sources.len()));
                    for s in sources {
                        f(Field::Name(s));
                    }
                }
            }
        }
    }
}

/// Reads one name [`put_name`] front-coded against `name`, the bytes of
/// the name before it, and leaves the new name's bytes there. Any shared
/// length up to the name before reads; a format that re-encodes what it
/// decodes keeps only the longest, `put_name`'s.
pub fn take_name<'n>(
    r: &mut Reader<'_>,
    name: &'n mut Vec<u8>,
    what: &'static str,
) -> Result<&'n str, DecodeError> {
    let at = r.pos();
    let shared = r.take_var(what)? as usize;
    let len = r.take_var(what)? as usize;
    let suffix = r.take(len, what)?;
    let fail = |what| DecodeError { offset: at, what };
    if shared > name.len() {
        return Err(fail("name shares more than the name before it"));
    }
    name.truncate(shared);
    name.extend_from_slice(suffix);
    std::str::from_utf8(name).map_err(|_| fail("name is not UTF-8"))
}

/// Reads one table index and returns the name it refers to.
fn take_indexed(
    r: &mut Reader<'_>,
    names: &[String],
    what: &'static str,
) -> Result<String, DecodeError> {
    let at = r.pos();
    let ix = r.take_var(what)? as usize;
    names.get(ix).cloned().ok_or(DecodeError {
        offset: at,
        what: "name index out of range",
    })
}

/// Decodes one [`UpdateLog`] (see [`put_update_log`]): an index past the
/// table, an unknown op tag, a name that is not UTF-8 or bytes that run
/// out are a [`DecodeError`]. Any name table reads, in any order and with
/// any front coding; the WAL scan re-encodes each record it decodes and
/// compares, so only the spelling `put_update_log` writes is a record.
pub fn take_update_log(r: &mut Reader<'_>) -> Result<UpdateLog, DecodeError> {
    let n = r.take_var("name count")? as usize;
    // Each name takes at least two bytes: no allocation past the input.
    let mut table: Vec<String> = Vec::with_capacity(n.min(r.remaining() / 2));
    let mut buf = Vec::new();
    for _ in 0..n {
        table.push(take_name(r, &mut buf, "name")?.to_owned());
    }
    let mut log = UpdateLog::default();
    let nbase = r.take_var("base tuple count")?;
    for _ in 0..nbase {
        log.base.push(take_indexed(r, &table, "base tuple name")?);
    }
    let ntxns = r.take_var("transaction count")?;
    for _ in 0..ntxns {
        let name = take_indexed(r, &table, "transaction name")?;
        let nops = r.take_var("op count")?;
        let mut ops = Vec::with_capacity((nops as usize).min(r.remaining() / 2));
        for _ in 0..nops {
            let tag = r.take_byte("op tag")?;
            ops.push(match tag {
                OP_INSERT => Op::Insert {
                    tuple: take_indexed(r, &table, "insert tuple")?,
                },
                OP_DELETE => Op::Delete {
                    tuple: take_indexed(r, &table, "delete tuple")?,
                },
                OP_MODIFY => {
                    let target = take_indexed(r, &table, "modify target")?;
                    let nsrc = r.take_var("modify source count")?;
                    let mut sources = Vec::with_capacity((nsrc as usize).min(r.remaining()));
                    for _ in 0..nsrc {
                        sources.push(take_indexed(r, &table, "modify source")?);
                    }
                    Op::Modify { target, sources }
                }
                _ => {
                    return Err(DecodeError {
                        offset: r.pos() - 1,
                        what: "unknown op tag",
                    })
                }
            });
        }
        log.txns.push(Txn { name, ops });
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalTail;

    #[test]
    fn update_log_round_trips_binary() {
        let log: UpdateLog = "base a b\nbegin t1\ninsert c\nmodify a <- b c\ndelete b\ncommit\n"
            .parse()
            .expect("valid log");
        let mut buf = Vec::new();
        put_update_log(&mut buf, &log);
        let mut r = Reader::new(&buf);
        let back = take_update_log(&mut r).expect("decodes");
        assert!(r.is_at_end());
        assert_eq!(back, log);
    }

    #[test]
    fn truncated_bytes_report_an_offset_not_a_panic() {
        let log: UpdateLog = "base a\nbegin t\ninsert b\ncommit\n".parse().unwrap();
        let mut buf = Vec::new();
        put_update_log(&mut buf, &log);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let got = take_update_log(&mut r);
            assert!(got.is_err(), "prefix of {cut} bytes must not decode");
            assert!(got.unwrap_err().offset <= cut);
        }
    }

    const VAR_EDGES: [u32; 7] = [0, 127, 128, 16_383, 16_384, 1 << 21, u32::MAX];

    #[test]
    fn varints_round_trip_at_every_width_edge() {
        for (v, len) in VAR_EDGES.into_iter().zip([1, 1, 2, 2, 3, 4, 5]) {
            let mut buf = Vec::new();
            put_var(&mut buf, v);
            assert_eq!(buf.len(), len, "{v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.take_var("v"), Ok(v));
            assert!(r.is_at_end(), "{v}");
        }
        for v in [0, 127, 128, u64::from(u32::MAX) + 1, u64::MAX] {
            let mut buf = Vec::new();
            put_var64(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.take_var64("v"), Ok(v));
            assert!(r.is_at_end(), "{v}");
        }
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        let cases: [(&[u8], &str); 3] = [
            (&[0xff, 0xff, 0xff, 0xff, 0x1f], "varint out of range"),
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00], "varint too long"),
            (&[0xff, 0xff, 0xff, 0xff, 0x8f, 0x00], "varint too long"),
        ];
        for (bytes, what) in cases {
            let mut at_two = vec![7, 7];
            at_two.extend_from_slice(bytes);
            let mut r = Reader::new(&at_two);
            r.take(2, "lead").unwrap();
            let err = r.take_var("v").unwrap_err();
            assert_eq!((err.offset, err.what), (2, what), "{bytes:x?}");
        }
        // Ten bytes carry 70 bits; a u64 keeps the lowest 64.
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert_eq!(
            Reader::new(&over).take_var64("v").unwrap_err().what,
            "varint out of range"
        );
        // A redundant zero group reads as its value, but no record is
        // spelled with one: as a record's seq it is an undecodable tail.
        for (long, v) in [(&[0x80, 0x00][..], 0), (&[0xff, 0x80, 0x00], 127)] {
            assert_eq!(Reader::new(long).take_var("v"), Ok(v));
            assert_eq!(Reader::new(long).take_var64("v"), Ok(u64::from(v)));
            let mut payload = long.to_vec();
            put_update_log(&mut payload, &UpdateLog::default());
            assert_eq!(scanned(&payload), UNDECODABLE, "{long:x?}");
        }
    }

    const UNDECODABLE: WalTail = WalTail::Undecodable { offset: 8 };

    /// How [`crate::wal::scan`] ends on a WAL of the one record `payload`.
    fn scanned(payload: &[u8]) -> WalTail {
        let mut image = crate::wal::WAL_MAGIC.to_vec();
        put_u32(&mut image, payload.len() as u32);
        put_u32(&mut image, crate::crc::crc32(payload));
        image.extend_from_slice(payload);
        crate::wal::scan(&image).expect("good magic").tail
    }

    #[test]
    fn truncated_varints_report_an_offset_not_a_panic() {
        for v in VAR_EDGES {
            let mut buf = Vec::new();
            put_var(&mut buf, v);
            put_var(&mut buf, 300);
            for cut in 0..buf.len() {
                let mut r = Reader::new(&buf[..cut]);
                let got = r.take_var("v").and_then(|_| r.take_var("w"));
                let err = got.expect_err("a proper prefix must not decode");
                assert!(err.offset <= cut, "{v} cut at {cut}: {err}");
            }
        }
    }

    /// A log's bytes spelled by hand: the name table as `(shared, suffix)`
    /// pairs, then the body, whose numbers are all below 128 (one byte).
    fn spelled(names: &[(u8, &[u8])], body: &[u8]) -> Vec<u8> {
        let mut buf = vec![names.len() as u8];
        for &(shared, suffix) in names {
            buf.extend([shared, suffix.len() as u8]);
            buf.extend_from_slice(suffix);
        }
        buf.extend_from_slice(body);
        buf
    }

    /// `base ab ac`, then `t` inserting `b` and modifying `ab` from `ac`
    /// and `b`. Table: ab, ac, b, t.
    const LOG: &str = "base ab ac\nbegin t\ninsert b\nmodify ab <- ac b\ncommit\n";
    const TABLE: [(u8, &[u8]); 4] = [(0, b"ab"), (1, b"c"), (0, b"b"), (0, b"t")];
    const BODY: [u8; 13] = [2, 0, 1, 1, 3, 2, 0, 2, 2, 0, 2, 1, 2];

    fn rejected(bytes: &[u8]) -> &'static str {
        let got = take_update_log(&mut Reader::new(bytes));
        got.expect_err("the bytes spell no log").what
    }

    /// How the WAL scan ends on a record at seq 0 whose log is `bytes`.
    fn scanned_log(bytes: &[u8]) -> WalTail {
        scanned(&[&[0], bytes].concat())
    }

    #[test]
    fn a_log_has_one_spelling_and_every_other_is_rejected() {
        let log: UpdateLog = LOG.parse().unwrap();
        let mut buf = Vec::new();
        put_update_log(&mut buf, &log);
        assert_eq!(spelled(&TABLE, &BODY), buf, "the one spelling");
        assert_eq!(scanned_log(&buf), WalTail::Clean);
        // Names out of order or twice, a shorter shared prefix, a name no
        // index refers to and a long varint each read as some log, but
        // not as the bytes its encoder writes.
        let mut table = TABLE;
        table.swap(2, 3);
        assert_eq!(scanned_log(&spelled(&table, &BODY)), UNDECODABLE);
        let dup = [(0, &b"ab"[..]), (2, b""), (1, b"c"), (0, b"b"), (0, b"t")];
        assert_eq!(scanned_log(&spelled(&dup, &BODY)), UNDECODABLE);
        table = TABLE;
        table[1] = (0, b"ac");
        assert_eq!(scanned_log(&spelled(&table, &BODY)), UNDECODABLE);
        table[1] = (3, b"");
        assert_eq!(
            rejected(&spelled(&table, &BODY)),
            "name shares more than the name before it"
        );
        table[1] = (1, &[0xff]);
        assert_eq!(rejected(&spelled(&table, &BODY)), "name is not UTF-8");
        let extra = [(0, &b"ab"[..]), (1, b"c"), (0, b"b"), (0, b"t"), (0, b"z")];
        assert_eq!(scanned_log(&spelled(&extra, &BODY)), UNDECODABLE);
        let mut body = BODY;
        body[9] = 4;
        assert_eq!(rejected(&spelled(&TABLE, &body)), "name index out of range");
        let mut long = spelled(&TABLE, &BODY[..1]);
        long.extend([0x80, 0x00]);
        long.extend_from_slice(&BODY[2..]);
        assert_eq!(scanned_log(&long), UNDECODABLE);
    }

    #[test]
    fn unknown_op_tag_is_rejected() {
        let mut buf = spelled(&TABLE, &BODY);
        // The insert's tag is body byte 6; the table takes 14 bytes.
        let tag_at = 14 + 6;
        assert_eq!(buf[tag_at], OP_INSERT);
        buf[tag_at] = 3;
        let got = take_update_log(&mut Reader::new(&buf)).unwrap_err();
        assert_eq!((got.offset, got.what), (tag_at, "unknown op tag"));
    }

    #[test]
    fn each_name_is_spelled_once_per_log() {
        let log: UpdateLog = "begin t1\ninsert someverylongname\ncommit\n\
                              begin t2\ndelete someverylongname\ncommit\n"
            .parse()
            .unwrap();
        let mut buf = Vec::new();
        put_update_log(&mut buf, &log);
        let hits = buf.windows(16).filter(|w| w == b"someverylongname").count();
        assert_eq!(hits, 1);
        assert_eq!(take_update_log(&mut Reader::new(&buf)), Ok(log));
    }
}
