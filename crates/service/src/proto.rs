//! The line-oriented JSON protocol: one request per line in, one response
//! per line out.
//!
//! The codec is hand-rolled (the container is offline; no serde) and
//! hardened the same way the engine's `log.rs` parser is: parsing is total
//! over arbitrary input — malformed bytes yield a typed [`ProtoError`],
//! **never** a panic — and printing is a fixed point, `parse(print(x))`
//! reprints byte-identically (property-tested over every variant in
//! `tests/proto.rs`).
//!
//! The JSON dialect is deliberately small: objects with string keys,
//! strings, unsigned integers, booleans and arrays — exactly what the
//! message shapes below need. Anything else (floats, `null`, nesting the
//! shapes don't use) is a typed error, not an extension point.
//!
//! # Requests
//!
//! ```text
//! {"op":"append","log":"base x\n..."}        durable append (writer)
//! {"op":"abort","txn":"t1","structure":"bool"}     concrete abort view
//! {"op":"delete","tuple":"x","structure":"worlds"} deletion propagation
//! {"op":"eval","structure":"trust"}          whole-database evaluation
//! {"op":"abort_symbolic","txn":"t1"}         symbolic abort view (writer)
//! {"op":"equiv","log":"..."}                 equivalence vs. a candidate log
//! {"op":"snapshot"}                          checkpoint (writer)
//! {"op":"stats"}                             service counters
//! {"op":"set_budget","entries":4096}         cache budget, until the client goes
//! {"op":"shutdown"}                          drain and stop
//! ```
//!
//! # Responses
//!
//! Every success carries `seq` — the number of appends visible in the
//! state that answered it; the soak oracle replays exactly that prefix.
//! Errors carry a machine-readable `err` kind plus a human message.

// No-panic zone: the parser is total over whatever a client sends.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::fmt;
use std::str::FromStr;

use crate::values::StructureId;

/// A malformed protocol line. Total and typed, like the update-log parser:
/// lexical damage reports where, shape damage reports what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line is not (our dialect of) JSON: byte offset + what went
    /// wrong there.
    Json {
        /// Byte offset of the offending character.
        at: usize,
        /// What the lexer expected or found.
        message: String,
    },
    /// The line is well-formed JSON but not a known message shape.
    Shape {
        /// Which key or value violated the shape.
        message: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json { at, message } => write!(f, "json error at byte {at}: {message}"),
            ProtoError::Shape { message } => write!(f, "bad message shape: {message}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn shape(message: impl Into<String>) -> ProtoError {
    ProtoError::Shape {
        message: message.into(),
    }
}

/// A client request. See the [module docs](self) for the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Durable append of a textual update log.
    Append {
        /// The log, in the `UpdateLog` line format.
        log: String,
    },
    /// Concrete abort query under a named structure.
    AbortEval {
        /// Transaction to abort.
        txn: String,
        /// Structure to evaluate under.
        structure: StructureId,
    },
    /// Concrete deletion-propagation query under a named structure.
    DeleteBaseEval {
        /// Base tuple to delete.
        tuple: String,
        /// Structure to evaluate under.
        structure: StructureId,
    },
    /// Whole-database evaluation under a named structure.
    EvalAll {
        /// Structure to evaluate under.
        structure: StructureId,
    },
    /// Symbolic abort query (normal forms over surviving annotations).
    AbortSymbolic {
        /// Transaction to abort.
        txn: String,
    },
    /// Equivalence of the resident state against a candidate log.
    Equiv {
        /// The candidate log, replayed fresh and compared.
        log: String,
    },
    /// Checkpoint: snapshot + WAL reset.
    Snapshot,
    /// Service counters.
    Stats,
    /// Set this client's normal-form/substitution cache budget.
    SetBudget {
        /// Max cached entries while serving this client; `None` lifts the
        /// cap.
        entries: Option<u64>,
    },
    /// Drain in-flight requests and stop the service.
    Shutdown,
}

/// One row of a concrete evaluation: tuple name and rendered value.
pub type Row = (String, String);

/// One row of a symbolic view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicRow {
    /// Tuple name.
    pub name: String,
    /// Rendered normal-form provenance over the surviving annotations.
    pub provenance: String,
    /// The normalizer saturated on this tuple (the rendered form is
    /// rewrite-equivalent but not canonical).
    pub saturated: bool,
}

/// Machine-readable error category on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse.
    Parse,
    /// The appended log was rejected by validation.
    Replay,
    /// A query named an unknown transaction or tuple.
    Query,
    /// Too many requests were in flight — retry later.
    Overloaded,
    /// The service is draining; no new requests.
    ShuttingDown,
    /// The storage backend failed.
    Io,
    /// The request line exceeded the transport's size cap
    /// ([`crate::net::MAX_LINE_BYTES`]); it was discarded unread.
    TooLarge,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Replay => "replay",
            ErrorKind::Query => "query",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Io => "io",
            ErrorKind::TooLarge => "too_large",
        }
    }

    fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "replay" => ErrorKind::Replay,
            "query" => ErrorKind::Query,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "io" => ErrorKind::Io,
            "too_large" => ErrorKind::TooLarge,
            _ => return None,
        })
    }
}

/// A service response. Every success variant carries the append sequence
/// number its answer reflects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The append committed durably.
    Appended {
        /// Appends visible after this one (its 1-based position).
        seq: u64,
        /// Updates applied from the log.
        applied: u64,
    },
    /// Concrete evaluation rows, in sorted tuple order.
    Rows {
        /// Appends visible in the answering state.
        seq: u64,
        /// `(tuple, rendered value)` rows.
        rows: Vec<Row>,
    },
    /// Symbolic view rows, in sorted tuple order.
    Symbolic {
        /// Appends visible in the answering state.
        seq: u64,
        /// Per-tuple normal forms.
        rows: Vec<SymbolicRow>,
    },
    /// Equivalence verdict.
    Equiv {
        /// Appends visible in the answering state.
        seq: u64,
        /// No tuple differs and none is undecided.
        equivalent: bool,
        /// Tuples with provably different normal forms.
        differing: Vec<String>,
        /// Tuples the normalizer saturated on.
        undecided: Vec<String>,
    },
    /// Checkpoint completed.
    Snapshotted {
        /// Appends covered by the snapshot.
        seq: u64,
    },
    /// Service counters.
    Stats {
        /// Appends visible.
        seq: u64,
        /// Tuples with recorded provenance.
        tuples: u64,
        /// Interned arena nodes.
        nodes: u64,
        /// Live cache entries (NF + substitution).
        cached: u64,
        /// Lock acquisitions so far: one per read, one per write batch.
        batches: u64,
        /// Writes that rode a coalesced batch of ≥ 2.
        coalesced: u64,
    },
    /// Budget applied.
    BudgetSet {
        /// Appends visible.
        seq: u64,
    },
    /// Shutdown acknowledged; the service is draining.
    Bye {
        /// Appends visible at shutdown.
        seq: u64,
    },
    /// The request failed; nothing changed.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable cause.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// The tiny JSON dialect.

#[derive(Debug, Clone, PartialEq, Eq)]
enum Json {
    Str(String),
    Int(u64),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ProtoError {
        ProtoError::Json {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), ProtoError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", want as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ProtoError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of line")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ProtoError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, ProtoError> {
        // Digits accumulate directly (checked): no slice back over the
        // input, no intermediate string — the parse stays total.
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer out of range"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(self.err("only unsigned integers are supported"));
        }
        Ok(Json::Int(value))
    }

    /// One pass over the string: every unescaped run is copied once, as
    /// a slice of the `&str` the lexer was built from (so it needs no
    /// UTF-8 check of its own), and only escapes go character by
    /// character.
    fn string(&mut self) -> Result<String, ProtoError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Both ends of the run sit next to an ASCII byte (or the end
            // of the input), so they are char boundaries of `src`.
            let run = self
                .src
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid utf-8"))?;
            out.push_str(run);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, ProtoError> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("unknown escape")),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// `\uXXXX`, with `pos` just past the `u`. A high surrogate must be
    /// followed by an escaped low surrogate, and the pair is one scalar
    /// (how JSON spells a character outside the BMP); a lone or reversed
    /// surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, ProtoError> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(self.err("high surrogate without a low surrogate"));
                }
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.err("high surrogate without a low surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("low surrogate without a high surrogate")),
            scalar => scalar,
        };
        char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))
    }

    fn hex4(&mut self) -> Result<u32, ProtoError> {
        let digits = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..4))
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &digit in digits {
            let value = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, ProtoError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ProtoError> {
        self.expect_byte(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn parse_json(line: &str) -> Result<Json, ProtoError> {
    let mut lx = Lexer::new(line);
    let value = lx.value()?;
    lx.skip_ws();
    if lx.pos != lx.bytes.len() {
        return Err(lx.err("trailing garbage after message"));
    }
    Ok(value)
}

/// Appends `s` as a JSON string. Bytes that need no escape are copied in
/// runs; every escaped byte is ASCII, so each run is cut on char
/// boundaries.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
    {
        out.push_str(rest.get(..at).unwrap_or_default());
        match rest.as_bytes().get(at).copied().unwrap_or_default() {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            control => out.push_str(&format!("\\u{control:04x}")),
        }
        rest = rest.get(at + 1..).unwrap_or_default();
    }
    out.push_str(rest);
    out.push('"');
}

fn write_str_list(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, item);
    }
    out.push(']');
}

/// `{"ok":"<kind>","seq":<seq>` — the head every success shares.
fn write_ok(out: &mut String, kind: &str, seq: u64) {
    out.push_str("{\"ok\":\"");
    out.push_str(kind);
    out.push('"');
    write_int_field(out, "seq", seq);
}

/// `,"<key>":<n>`
fn write_int_field(out: &mut String, key: &str, n: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&n.to_string());
}

// ---------------------------------------------------------------------------
// Shape extraction helpers.

struct Fields(Vec<(String, Json)>);

impl Fields {
    fn take(&mut self, key: &str) -> Option<Json> {
        let ix = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(ix).1)
    }

    fn string(&mut self, key: &str) -> Result<String, ProtoError> {
        match self.take(key) {
            Some(Json::Str(s)) => Ok(s),
            Some(_) => Err(shape(format!("`{key}` must be a string"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn int(&mut self, key: &str) -> Result<u64, ProtoError> {
        match self.take(key) {
            Some(Json::Int(n)) => Ok(n),
            Some(_) => Err(shape(format!("`{key}` must be an unsigned integer"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn boolean(&mut self, key: &str) -> Result<bool, ProtoError> {
        match self.take(key) {
            Some(Json::Bool(b)) => Ok(b),
            Some(_) => Err(shape(format!("`{key}` must be a boolean"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn structure(&mut self) -> Result<StructureId, ProtoError> {
        let name = self.string("structure")?;
        StructureId::from_str(&name).map_err(|e| shape(format!("`structure`: {e}")))
    }

    fn str_list(&mut self, key: &str) -> Result<Vec<String>, ProtoError> {
        match self.take(key) {
            Some(Json::Arr(items)) => items
                .into_iter()
                .map(|item| match item {
                    Json::Str(s) => Ok(s),
                    _ => Err(shape(format!("`{key}` must hold strings"))),
                })
                .collect(),
            Some(_) => Err(shape(format!("`{key}` must be an array"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        match self.0.first() {
            None => Ok(()),
            Some((k, _)) => Err(shape(format!("unknown key `{k}`"))),
        }
    }
}

fn as_object(value: Json) -> Result<Fields, ProtoError> {
    match value {
        Json::Obj(fields) => Ok(Fields(fields)),
        _ => Err(shape("message must be a JSON object")),
    }
}

// ---------------------------------------------------------------------------
// Request codec.

impl Request {
    fn write_json(&self, out: &mut String) {
        let (op, text, structure) = match self {
            Request::Append { log } => ("append", Some(("log", log)), None),
            Request::AbortEval { txn, structure } => ("abort", Some(("txn", txn)), Some(structure)),
            Request::DeleteBaseEval { tuple, structure } => {
                ("delete", Some(("tuple", tuple)), Some(structure))
            }
            Request::EvalAll { structure } => ("eval", None, Some(structure)),
            Request::AbortSymbolic { txn } => ("abort_symbolic", Some(("txn", txn)), None),
            Request::Equiv { log } => ("equiv", Some(("log", log)), None),
            Request::Snapshot => ("snapshot", None, None),
            Request::Stats => ("stats", None, None),
            Request::SetBudget { .. } => ("set_budget", None, None),
            Request::Shutdown => ("shutdown", None, None),
        };
        out.push_str("{\"op\":\"");
        out.push_str(op);
        out.push('"');
        if let Some((key, text)) = text {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            write_escaped(out, text);
        }
        if let Some(structure) = structure {
            out.push_str(",\"structure\":\"");
            out.push_str(&structure.to_string());
            out.push('"');
        }
        if let Request::SetBudget { entries: Some(n) } = self {
            write_int_field(out, "entries", *n);
        }
        out.push('}');
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out);
        f.write_str(&out)
    }
}

impl FromStr for Request {
    type Err = ProtoError;

    fn from_str(line: &str) -> Result<Self, ProtoError> {
        let mut fields = as_object(parse_json(line)?)?;
        let op = fields.string("op")?;
        let req = match op.as_str() {
            "append" => Request::Append {
                log: fields.string("log")?,
            },
            "abort" => Request::AbortEval {
                txn: fields.string("txn")?,
                structure: fields.structure()?,
            },
            "delete" => Request::DeleteBaseEval {
                tuple: fields.string("tuple")?,
                structure: fields.structure()?,
            },
            "eval" => Request::EvalAll {
                structure: fields.structure()?,
            },
            "abort_symbolic" => Request::AbortSymbolic {
                txn: fields.string("txn")?,
            },
            "equiv" => Request::Equiv {
                log: fields.string("log")?,
            },
            "snapshot" => Request::Snapshot,
            "stats" => Request::Stats,
            "set_budget" => Request::SetBudget {
                entries: match fields.take("entries") {
                    None => None,
                    Some(Json::Int(n)) => Some(n),
                    Some(_) => {
                        return Err(shape("`entries` must be an unsigned integer"));
                    }
                },
            },
            "shutdown" => Request::Shutdown,
            other => return Err(shape(format!("unknown op `{other}`"))),
        };
        fields.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response codec.

impl Response {
    /// Appends this response's wire form (no trailing newline) to `out`
    /// — the one printer: [`fmt::Display`], [`crate::Client::serve_line`]
    /// and the session loop all end up here.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Response::Appended { seq, applied } => {
                write_ok(out, "appended", *seq);
                write_int_field(out, "applied", *applied);
            }
            Response::Rows { seq, rows } => {
                write_ok(out, "rows", *seq);
                out.push_str(",\"rows\":[");
                for (i, (name, value)) in rows.iter().enumerate() {
                    out.push_str(if i > 0 { ",[" } else { "[" });
                    write_escaped(out, name);
                    out.push(',');
                    write_escaped(out, value);
                    out.push(']');
                }
                out.push(']');
            }
            Response::Symbolic { seq, rows } => {
                write_ok(out, "symbolic", *seq);
                out.push_str(",\"rows\":[");
                for (i, row) in rows.iter().enumerate() {
                    out.push_str(if i > 0 { ",[" } else { "[" });
                    write_escaped(out, &row.name);
                    out.push(',');
                    write_escaped(out, &row.provenance);
                    out.push_str(if row.saturated { ",true]" } else { ",false]" });
                }
                out.push(']');
            }
            Response::Equiv {
                seq,
                equivalent,
                differing,
                undecided,
            } => {
                write_ok(out, "equiv", *seq);
                out.push_str(if *equivalent {
                    ",\"equivalent\":true,\"differing\":"
                } else {
                    ",\"equivalent\":false,\"differing\":"
                });
                write_str_list(out, differing);
                out.push_str(",\"undecided\":");
                write_str_list(out, undecided);
            }
            Response::Snapshotted { seq } => write_ok(out, "snapshotted", *seq),
            Response::Stats {
                seq,
                tuples,
                nodes,
                cached,
                batches,
                coalesced,
            } => {
                write_ok(out, "stats", *seq);
                write_int_field(out, "tuples", *tuples);
                write_int_field(out, "nodes", *nodes);
                write_int_field(out, "cached", *cached);
                write_int_field(out, "batches", *batches);
                write_int_field(out, "coalesced", *coalesced);
            }
            Response::BudgetSet { seq } => write_ok(out, "budget_set", *seq),
            Response::Bye { seq } => write_ok(out, "bye", *seq),
            Response::Error { kind, message } => {
                out.push_str("{\"err\":\"");
                out.push_str(kind.as_str());
                out.push_str("\",\"message\":");
                write_escaped(out, message);
            }
        }
        out.push('}');
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out);
        f.write_str(&out)
    }
}

impl FromStr for Response {
    type Err = ProtoError;

    fn from_str(line: &str) -> Result<Self, ProtoError> {
        let mut fields = as_object(parse_json(line)?)?;
        if let Some(kind) = fields.take("err") {
            let Json::Str(kind) = kind else {
                return Err(shape("`err` must be a string"));
            };
            let kind = ErrorKind::parse(&kind)
                .ok_or_else(|| shape(format!("unknown error kind `{kind}`")))?;
            let message = fields.string("message")?;
            fields.finish()?;
            return Ok(Response::Error { kind, message });
        }
        let ok = fields.string("ok")?;
        let resp = match ok.as_str() {
            "appended" => Response::Appended {
                seq: fields.int("seq")?,
                applied: fields.int("applied")?,
            },
            "rows" => {
                let seq = fields.int("seq")?;
                let rows = match fields.take("rows") {
                    Some(Json::Arr(items)) => items
                        .into_iter()
                        .map(|item| match item {
                            Json::Arr(pair) => match <[Json; 2]>::try_from(pair) {
                                Ok([Json::Str(name), Json::Str(value)]) => Ok((name, value)),
                                _ => Err(shape("each row must be [name, value]")),
                            },
                            _ => Err(shape("each row must be an array")),
                        })
                        .collect::<Result<Vec<Row>, ProtoError>>()?,
                    _ => return Err(shape("`rows` must be an array")),
                };
                Response::Rows { seq, rows }
            }
            "symbolic" => {
                let seq = fields.int("seq")?;
                let rows = match fields.take("rows") {
                    Some(Json::Arr(items)) => items
                        .into_iter()
                        .map(|item| match item {
                            Json::Arr(triple) => match <[Json; 3]>::try_from(triple) {
                                Ok(
                                    [Json::Str(name), Json::Str(provenance), Json::Bool(saturated)],
                                ) => Ok(SymbolicRow {
                                    name,
                                    provenance,
                                    saturated,
                                }),
                                _ => Err(shape("each row must be [name, provenance, saturated]")),
                            },
                            _ => Err(shape("each row must be an array")),
                        })
                        .collect::<Result<Vec<SymbolicRow>, ProtoError>>()?,
                    _ => return Err(shape("`rows` must be an array")),
                };
                Response::Symbolic { seq, rows }
            }
            "equiv" => Response::Equiv {
                seq: fields.int("seq")?,
                equivalent: fields.boolean("equivalent")?,
                differing: fields.str_list("differing")?,
                undecided: fields.str_list("undecided")?,
            },
            "snapshotted" => Response::Snapshotted {
                seq: fields.int("seq")?,
            },
            "stats" => Response::Stats {
                seq: fields.int("seq")?,
                tuples: fields.int("tuples")?,
                nodes: fields.int("nodes")?,
                cached: fields.int("cached")?,
                batches: fields.int("batches")?,
                coalesced: fields.int("coalesced")?,
            },
            "budget_set" => Response::BudgetSet {
                seq: fields.int("seq")?,
            },
            "bye" => Response::Bye {
                seq: fields.int("seq")?,
            },
            other => return Err(shape(format!("unknown ok kind `{other}`"))),
        };
        fields.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_escapes() {
        let req = Request::Append {
            log: "base x\nbegin \"t\"\ncommit\n".to_owned(),
        };
        let printed = req.to_string();
        let reparsed: Request = printed.parse().expect("own output parses");
        assert_eq!(reparsed, req);
        assert_eq!(reparsed.to_string(), printed, "printing is a fixed point");
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for line in [
            "",
            "{",
            "nonsense",
            "{\"op\":\"abort\"}",
            "{\"op\":\"abort\",\"txn\":\"t\",\"structure\":\"no-such\"}",
            "{\"op\":\"append\",\"log\":\"x\",\"extra\":1}",
            "{\"op\":\"eval\",\"structure\":3}",
            "{\"ok\":\"rows\",\"seq\":-1,\"rows\":[]}",
        ] {
            assert!(line.parse::<Request>().is_err(), "accepted: {line:?}");
        }
    }
}
