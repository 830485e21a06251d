//! Binary encoding primitives shared by the snapshot and WAL formats:
//! little-endian fixed-width integers, length-prefixed UTF-8 strings, and
//! the binary [`UpdateLog`] encoding carried by WAL records.
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

/// Appends a `u32` length prefix followed by the string's UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
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

    /// Reads a length-prefixed UTF-8 string (see [`put_str`]).
    pub fn take_str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.take_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError {
            offset: self.pos - len,
            what,
        })
    }
}

/// Op tag byte: `insert`.
const OP_INSERT: u8 = 0;
/// Op tag byte: `delete`.
const OP_DELETE: u8 = 1;
/// Op tag byte: `modify`.
const OP_MODIFY: u8 = 2;

/// Encodes an [`UpdateLog`] into `buf` — the payload format of one WAL
/// record. Layout: base-tuple list, then per transaction its name and
/// tagged op list, everything length-prefixed.
pub fn put_update_log(buf: &mut Vec<u8>, log: &UpdateLog) {
    put_u32(buf, log.base.len() as u32);
    for b in &log.base {
        put_str(buf, b);
    }
    put_u32(buf, log.txns.len() as u32);
    for txn in &log.txns {
        put_str(buf, &txn.name);
        put_u32(buf, txn.ops.len() as u32);
        for op in &txn.ops {
            match op {
                Op::Insert { tuple } => {
                    buf.push(OP_INSERT);
                    put_str(buf, tuple);
                }
                Op::Delete { tuple } => {
                    buf.push(OP_DELETE);
                    put_str(buf, tuple);
                }
                Op::Modify { target, sources } => {
                    buf.push(OP_MODIFY);
                    put_str(buf, target);
                    put_u32(buf, sources.len() as u32);
                    for s in sources {
                        put_str(buf, s);
                    }
                }
            }
        }
    }
}

/// Decodes one [`UpdateLog`] (see [`put_update_log`]).
pub fn take_update_log(r: &mut Reader<'_>) -> Result<UpdateLog, DecodeError> {
    let mut log = UpdateLog::default();
    let nbase = r.take_u32("base tuple count")?;
    for _ in 0..nbase {
        log.base.push(r.take_str("base tuple name")?);
    }
    let ntxns = r.take_u32("transaction count")?;
    for _ in 0..ntxns {
        let name = r.take_str("transaction name")?;
        let nops = r.take_u32("op count")?;
        let mut ops = Vec::with_capacity(nops.min(1 << 16) as usize);
        for _ in 0..nops {
            let tag = r.take_byte("op tag")?;
            ops.push(match tag {
                OP_INSERT => Op::Insert {
                    tuple: r.take_str("insert tuple")?,
                },
                OP_DELETE => Op::Delete {
                    tuple: r.take_str("delete tuple")?,
                },
                OP_MODIFY => {
                    let target = r.take_str("modify target")?;
                    let nsrc = r.take_u32("modify source count")?;
                    let mut sources = Vec::with_capacity(nsrc.min(1 << 16) as usize);
                    for _ in 0..nsrc {
                        sources.push(r.take_str("modify source")?);
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

    #[test]
    fn unknown_op_tag_is_rejected() {
        let log: UpdateLog = "begin t\ninsert b\ncommit\n".parse().unwrap();
        let mut buf = Vec::new();
        put_update_log(&mut buf, &log);
        // The op tag is the byte right after base count (4), txn count (4),
        // name ("t": 4 + 1) and op count (4).
        let tag_at = 4 + 4 + 5 + 4;
        assert_eq!(buf[tag_at], 0, "insert tag");
        buf[tag_at] = 9;
        let got = take_update_log(&mut Reader::new(&buf)).unwrap_err();
        assert_eq!(got.what, "unknown op tag");
        assert_eq!(got.offset, tag_at);
    }
}
