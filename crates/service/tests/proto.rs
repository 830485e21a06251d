//! Protocol round-trip suite: printing is a fixed point, parsing is
//! total.
//!
//! Mirrors the PR 6 `log.rs` hardening for the service's wire format:
//! every [`Request`]/[`Response`] variant survives print → parse →
//! reprint byte-identically (including adversarial payload strings), and
//! arbitrary malformed input — truncations, bit flips, wrong shapes,
//! seeded garbage — yields a typed [`ProtoError`], never a panic and
//! never a bogus accept of a mutated-but-different message.

use std::str::FromStr;
use std::time::{Duration, Instant};

use benchkit::TestRng;
use uprov_service::proto::{ErrorKind, ProtoError, Request, Response, SymbolicRow};
use uprov_service::values::StructureId;

/// Payload strings chosen to stress the escaper: quotes, backslashes,
/// newlines (every update log has them), tabs, control bytes, non-ASCII.
fn nasty_strings() -> Vec<String> {
    vec![
        String::new(),
        "plain".to_owned(),
        "base x\nbegin t\ninsert x\ncommit\n".to_owned(),
        "quote\" backslash\\ slash/ tab\t cr\r nl\n".to_owned(),
        "control \u{1} \u{1f} high \u{7f}".to_owned(),
        "unicode: αβγ 提供 🦀".to_owned(),
        "{\"op\":\"append\"}".to_owned(), // JSON-in-JSON
    ]
}

fn request_zoo() -> Vec<Request> {
    let mut zoo = Vec::new();
    for s in nasty_strings() {
        zoo.push(Request::Append { log: s.clone() });
        zoo.push(Request::Equiv { log: s.clone() });
        zoo.push(Request::AbortSymbolic { txn: s });
    }
    for structure in StructureId::ALL {
        zoo.push(Request::EvalAll { structure });
        zoo.push(Request::AbortEval {
            txn: "txn0".to_owned(),
            structure,
        });
        zoo.push(Request::DeleteBaseEval {
            tuple: "r0_k1".to_owned(),
            structure,
        });
    }
    zoo.push(Request::Snapshot);
    zoo.push(Request::Stats);
    zoo.push(Request::SetBudget { entries: None });
    zoo.push(Request::SetBudget { entries: Some(0) });
    zoo.push(Request::SetBudget {
        entries: Some(u64::MAX),
    });
    zoo.push(Request::Shutdown);
    zoo
}

fn response_zoo() -> Vec<Response> {
    let mut zoo = vec![
        Response::Appended { seq: 0, applied: 0 },
        Response::Appended {
            seq: u64::MAX,
            applied: 17,
        },
        Response::Rows {
            seq: 3,
            rows: vec![],
        },
        Response::Snapshotted { seq: 9 },
        Response::Stats {
            seq: 1,
            tuples: 2,
            nodes: 3,
            cached: 4,
            batches: 5,
            coalesced: 6,
        },
        Response::BudgetSet { seq: 12 },
        Response::Bye { seq: 13 },
        Response::Equiv {
            seq: 7,
            equivalent: true,
            differing: vec![],
            undecided: vec![],
        },
    ];
    for s in nasty_strings() {
        zoo.push(Response::Rows {
            seq: 5,
            rows: vec![(s.clone(), "true".to_owned()), ("y".to_owned(), s.clone())],
        });
        zoo.push(Response::Symbolic {
            seq: 6,
            rows: vec![
                SymbolicRow {
                    name: s.clone(),
                    provenance: "x +I t".to_owned(),
                    saturated: false,
                },
                SymbolicRow {
                    name: "y".to_owned(),
                    provenance: s.clone(),
                    saturated: true,
                },
            ],
        });
        zoo.push(Response::Equiv {
            seq: 8,
            equivalent: false,
            differing: vec![s.clone(), "x".to_owned()],
            undecided: vec![s.clone()],
        });
    }
    for kind in [
        ErrorKind::Parse,
        ErrorKind::Replay,
        ErrorKind::Query,
        ErrorKind::Overloaded,
        ErrorKind::ShuttingDown,
        ErrorKind::Io,
        ErrorKind::TooLarge,
    ] {
        for s in nasty_strings() {
            zoo.push(Response::Error { kind, message: s });
        }
    }
    zoo
}

/// print → parse → reprint reaches a fixed point in one step, for every
/// variant and every adversarial payload.
#[test]
fn every_request_reaches_a_print_fixed_point() {
    for req in request_zoo() {
        let printed = req.to_string();
        let reparsed =
            Request::from_str(&printed).unwrap_or_else(|e| panic!("{printed:?} rejected: {e}"));
        assert_eq!(reparsed, req, "value round-trip: {printed}");
        assert_eq!(reparsed.to_string(), printed, "print fixed point");
    }
}

#[test]
fn every_response_reaches_a_print_fixed_point() {
    for resp in response_zoo() {
        let printed = resp.to_string();
        let reparsed =
            Response::from_str(&printed).unwrap_or_else(|e| panic!("{printed:?} rejected: {e}"));
        assert_eq!(reparsed, resp, "value round-trip: {printed}");
        assert_eq!(reparsed.to_string(), printed, "print fixed point");
    }
}

/// Responses never parse as requests and vice versa (the codecs share the
/// JSON layer but not the shapes) — a transposed line is a typed error,
/// not a confused accept.
#[test]
fn requests_and_responses_do_not_cross_parse() {
    for req in request_zoo() {
        assert!(
            req.to_string().parse::<Response>().is_err(),
            "response parser accepted a request: {req}"
        );
    }
    for resp in response_zoo() {
        assert!(
            resp.to_string().parse::<Request>().is_err(),
            "request parser accepted a response: {resp}"
        );
    }
}

/// Hand-picked malformed lines: each must fail with a typed error whose
/// message is non-empty (it goes to the client verbatim).
#[test]
fn malformed_lines_yield_typed_errors() {
    let cases: &[&str] = &[
        "",
        " ",
        "null",
        "-1",
        "1.5",
        "1e3",
        "\"just a string\"",
        "[]",
        "{}",
        "{\"op\":\"append\"}",                             // missing log
        "{\"op\":\"append\",\"log\":3}",                   // wrong type
        "{\"op\":\"append\",\"log\":\"x\"",                // unterminated object
        "{\"op\":\"append\",\"log\":\"x\"} extra",         // trailing garbage
        "{\"op\":\"append\",\"log\":\"x\",\"log\":\"y\"}", // duplicate key
        "{\"op\":\"nope\"}",                               // unknown op
        "{\"op\":\"eval\",\"structure\":\"boolean\"}",     // unknown structure
        "{\"op\":\"set_budget\",\"entries\":-3}",          // negative int
        "{\"op\":\"set_budget\",\"entries\":99999999999999999999999}", // overflow
        "{\"op\":\"abort\",\"txn\":\"t\\q\",\"structure\":\"bool\"}", // bad escape
        "{\"op\":\"abort\",\"txn\":\"t\\u12\",\"structure\":\"bool\"}", // short \u
        "{\"op\":\"abort\",\"txn\":\"t\\ud800\",\"structure\":\"bool\"}", // surrogate
        "{\"op\":\"stats\",}",                             // trailing comma
        "{\"op\" \"stats\"}",                              // missing colon
        "{op:\"stats\"}",                                  // unquoted key
    ];
    for line in cases {
        let err = line
            .parse::<Request>()
            .expect_err(&format!("accepted: {line:?}"));
        assert!(
            !err.to_string().is_empty(),
            "error message must be client-presentable"
        );
    }
    // Response-side shapes fail too.
    for line in [
        "{\"ok\":\"rows\",\"seq\":1,\"rows\":[[\"x\"]]}", // short row
        "{\"ok\":\"rows\",\"seq\":1,\"rows\":[[\"x\",\"y\",\"z\"]]}", // long row
        "{\"ok\":\"symbolic\",\"seq\":1,\"rows\":[[\"x\",\"e\",\"no\"]]}", // bool as string
        "{\"err\":\"nope\",\"message\":\"m\"}",           // unknown kind
        "{\"ok\":\"stats\",\"seq\":1}",                   // missing counters
    ] {
        assert!(line.parse::<Response>().is_err(), "accepted: {line:?}");
    }
}

/// Seeded fuzz: random mutations of valid lines (truncate, flip, insert)
/// either parse to *some* value whose reprint is again a fixed point, or
/// fail with a typed error. Never a panic; mutated accepts must be
/// well-formed, not echoes of luck.
#[test]
fn mutated_lines_never_panic_and_accepts_are_canonical() {
    let mut rng = TestRng::new(0x9707_0C01);
    let zoo = request_zoo();
    for round in 0..2000 {
        let base = zoo[rng.below(zoo.len())].to_string();
        let mut bytes = base.clone().into_bytes();
        match rng.below(3) {
            0 => {
                // Truncate somewhere.
                let at = rng.below(bytes.len() + 1);
                bytes.truncate(at);
            }
            1 => {
                // Flip a byte.
                if !bytes.is_empty() {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            _ => {
                // Insert a random byte.
                let at = rng.below(bytes.len() + 1);
                bytes.insert(at, rng.below(256) as u8);
            }
        }
        // Invalid UTF-8 can't even reach the parser through &str; skip.
        let Ok(line) = String::from_utf8(bytes) else {
            continue;
        };
        match line.parse::<Request>() {
            Ok(req) => {
                let printed = req.to_string();
                let again: Request = printed
                    .parse()
                    .unwrap_or_else(|e| panic!("round {round}: own print rejected: {e}"));
                assert_eq!(again, req, "round {round}: accept must be canonical");
            }
            Err(ProtoError::Json { .. } | ProtoError::Shape { .. }) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The string codec, character by character. The lexer copies unescaped
// runs whole and the printer does the same in the other direction, so the
// interesting inputs put escapes, multi-byte scalars and run boundaries
// right next to each other.

/// What a string may be made of: plain ASCII, everything the printer
/// escapes, and scalars of every UTF-8 width.
const ALPHABET: &[char] = &[
    'a',
    'u',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\t',
    '\r',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '提',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn random_text(rng: &mut TestRng, max_len: usize) -> String {
    (0..rng.below(max_len + 1))
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

fn symbolic_txn(line: &str) -> Result<String, ProtoError> {
    match line.parse::<Request>()? {
        Request::AbortSymbolic { txn } => Ok(txn),
        other => panic!("{line:?} parsed as {other}"),
    }
}

fn wire(escaped_txn: &str) -> String {
    format!("{{\"op\":\"abort_symbolic\",\"txn\":\"{escaped_txn}\"}}")
}

/// Random strings over [`ALPHABET`] survive print → parse, the reprint is
/// a fixed point, and the printed line is plain enough to frame: no raw
/// control byte (so no raw newline) ever reaches the wire.
#[test]
fn random_strings_round_trip_through_printer_and_lexer() {
    let mut rng = TestRng::new(0x5712_0001);
    for _ in 0..3000 {
        let text = random_text(&mut rng, 24);
        let printed = Request::AbortSymbolic { txn: text.clone() }.to_string();
        assert!(
            printed.bytes().all(|b| b >= 0x20),
            "raw control byte on the wire: {printed:?}"
        );
        assert_eq!(symbolic_txn(&printed).as_deref(), Ok(text.as_str()));

        let resp = Response::Rows {
            seq: 1,
            rows: vec![(text.clone(), random_text(&mut rng, 24))],
        };
        let printed = resp.to_string();
        let reparsed: Response = printed.parse().expect("own output parses");
        assert_eq!(reparsed, resp);
        assert_eq!(reparsed.to_string(), printed, "print fixed point");
    }
}

/// Every spelling JSON allows for a character parses to that character:
/// raw, short escape, `\uXXXX` in either hex case, and a surrogate pair
/// for scalars outside the BMP — in any mix, so escapes land on both
/// sides of every run boundary.
#[test]
fn every_escape_spelling_parses_to_the_same_text() {
    let mut rng = TestRng::new(0x5712_0002);
    for _ in 0..3000 {
        let text = random_text(&mut rng, 16);
        let mut escaped = String::new();
        for ch in text.chars() {
            let code = ch as u32;
            let short = match ch {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                '\r' => Some("\\r"),
                _ => None,
            };
            let must_escape = code < 0x20 || ch == '"' || ch == '\\';
            match rng.below(4) {
                0 if !must_escape => escaped.push(ch),
                1 if short.is_some() => escaped.push_str(short.expect("checked")),
                2 if code <= 0xffff => escaped.push_str(&format!("\\u{code:04X}")),
                _ if code <= 0xffff => escaped.push_str(&format!("\\u{code:04x}")),
                _ => {
                    let v = code - 0x1_0000;
                    let (high, low) = (0xd800 + (v >> 10), 0xdc00 + (v & 0x3ff));
                    escaped.push_str(&format!("\\u{high:04x}\\u{low:04X}"));
                }
            }
        }
        let line = wire(&escaped);
        assert_eq!(
            symbolic_txn(&line).as_deref(),
            Ok(text.as_str()),
            "line: {line}"
        );
    }
}

/// U+1F600 as Python's `json.dumps` spells it.
#[test]
fn surrogate_pairs_combine_and_lone_surrogates_are_typed_errors() {
    assert_eq!(symbolic_txn(&wire("\\ud83d\\ude00")).as_deref(), Ok("😀"));
    assert_eq!(
        symbolic_txn(&wire("a\\uD83D\\uDE00b")).as_deref(),
        Ok("a😀b")
    );
    for bad in [
        "\\ud83d",        // lone high
        "\\ude00",        // lone low
        "\\ude00\\ud83d", // reversed
        "\\ud83d\\ud83d", // high, high
        "\\ud83dx",       // high, then a plain character
        "\\ud83d\\n",     // high, then another escape
        "\\ud83d\\u0041", // high, then a BMP escape
        "\\ud83d\\ude0",  // truncated low
        "\\u+123",        // sign is not a hex digit
        "\\u00g0",        // nor is g
    ] {
        let line = wire(bad);
        assert!(
            matches!(symbolic_txn(&line), Err(ProtoError::Json { .. })),
            "accepted: {line}"
        );
    }
}

/// Control characters never travel raw: the lexer rejects every one of
/// them inside a string, and accepts each in its escaped spelling.
#[test]
fn control_characters_must_be_escaped() {
    for code in 0u32..0x20 {
        let ch = char::from_u32(code).expect("ascii");
        assert!(
            matches!(
                symbolic_txn(&wire(&format!("a{ch}b"))),
                Err(ProtoError::Json { .. })
            ),
            "raw U+{code:04X} accepted"
        );
        let text = format!("a{ch}b");
        assert_eq!(
            symbolic_txn(&wire(&format!("a\\u{code:04x}b"))).as_deref(),
            Ok(text.as_str())
        );
        let printed = Request::AbortSymbolic { txn: text.clone() }.to_string();
        assert_eq!(symbolic_txn(&printed).as_deref(), Ok(text.as_str()));
    }
}

/// Fastest of a few runs: the guards below compare two sizes of the same
/// work, and the minimum is the reading least disturbed by the host.
fn fastest<T>(mut f: impl FnMut() -> T) -> Duration {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed()
        })
        .min()
        .expect("five runs")
}

/// Parsing is linear in the line: ten times the bytes cost about ten
/// times as long, for requests and for replies. (Re-validating the rest
/// of the input per character made this 100× — a 250 KB `append` took a
/// second to parse.) The text mixes escapes and multi-byte scalars so
/// both the run path and the escape path are on the clock.
#[test]
fn parse_time_grows_linearly_with_line_length() {
    let text = |bytes: usize| "r0_k1 é \"q\"\n".repeat(bytes / 14);
    let request = |bytes| Request::Append { log: text(bytes) }.to_string();
    let response = |bytes| {
        Response::Symbolic {
            seq: 1,
            rows: vec![SymbolicRow {
                name: "x".to_owned(),
                provenance: text(bytes),
                saturated: false,
            }],
        }
        .to_string()
    };
    let (small, large) = (request(100_000), request(1_000_000));
    let small_time = fastest(|| small.parse::<Request>().expect("parses"));
    let large_time = fastest(|| large.parse::<Request>().expect("parses"));
    assert!(
        large_time < small_time * 20,
        "request: 100 KB in {small_time:?}, 1 MB in {large_time:?}"
    );
    let (small, large) = (response(100_000), response(1_000_000));
    let small_time = fastest(|| small.parse::<Response>().expect("parses"));
    let large_time = fastest(|| large.parse::<Response>().expect("parses"));
    assert!(
        large_time < small_time * 20,
        "response: 100 KB in {small_time:?}, 1 MB in {large_time:?}"
    );
}
