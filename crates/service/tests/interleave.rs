//! Deterministic interleaving tests for group commit, backpressure and
//! the shutdown path.
//!
//! The service's pause gate ([`ServiceConfig::paused`]) makes batching
//! reproducible: clients queue their writes while the leader is parked at
//! the gate, so when [`Service::resume`] opens it the leader's batch is
//! exactly the queued set. On top of that:
//!
//! - seeded request scripts pin **coalesced answers bit-identical to
//!   one-at-a-time answers** (same requests, `coalesce_max = 1`,
//!   sequential issue) — symbolic renders excepted, which are compared
//!   semantically (see `common`),
//! - a storage failure inside a coalesced commit fails every append of
//!   the batch and nothing else: state, `seq` and reads are untouched,
//! - a batch's malformed or rejected writes answer typed errors, and the
//!   writes around them what a one-at-a-time run answers,
//! - concrete reads served from the per-`seq` baseline cache answer
//!   what a replica's full evaluation says, across appends, failed
//!   appends and concurrent cache misses,
//! - a write is served on its caller's thread, with no hand-off,
//! - appenders racing an unpaused service commit dense seqs, at most one
//!   fsync per batch, in a state equal to a sequential replay,
//! - a service at its admission bound answers typed `overloaded`
//!   immediately, for reads and writes alike,
//! - a symbolic reply past the transport's line cap answers typed
//!   `too_large`, and the next request is served,
//! - shutdown **drains** — everything admitted before it is answered,
//!   nothing is dropped — and late requests get typed `shutting_down`.

mod common;
#[path = "../../storage/tests/common/mod.rs"]
mod flaky;

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use benchkit::TestRng;
use uprov_service::proto::{ErrorKind, Request, Response};
use uprov_service::service::{Client, Service, ServiceConfig};
use uprov_service::values::{self, StructureId};
use uprov_storage::{DurableEngine, MemStorage, Storage};
use uprov_workload::{equivalent_variant, Variant, Workload, WorkloadConfig};

fn start(config: ServiceConfig) -> Service<MemStorage> {
    let (db, _) = DurableEngine::open(MemStorage::new()).expect("open mem engine");
    Service::start(db, config)
}

/// A seeded query script over a replayed workload: aborts, deletions,
/// whole-database evals, symbolic views, and equivalence probes (both
/// axiom-rewritten variants — must be equivalent — and the full log —
/// trivially equivalent to itself).
fn query_script(w: &Workload, rng: &mut TestRng, len: usize) -> Vec<Request> {
    let structures = StructureId::ALL;
    (0..len)
        .map(|_| match rng.below(6) {
            0 => Request::AbortEval {
                txn: w.txn_names[rng.below(w.txn_names.len())].clone(),
                structure: structures[rng.below(structures.len())],
            },
            1 => Request::DeleteBaseEval {
                tuple: w.log.base[rng.below(w.log.base.len())].clone(),
                structure: structures[rng.below(structures.len())],
            },
            2 => Request::EvalAll {
                structure: structures[rng.below(structures.len())],
            },
            3 => Request::AbortSymbolic {
                txn: w.txn_names[rng.below(w.txn_names.len())].clone(),
            },
            4 => {
                let variant = [
                    Variant::PermuteModifySources,
                    Variant::DeadSelfModify,
                    Variant::ModifyFromDeleted,
                ][rng.below(3)];
                Request::Equiv {
                    log: equivalent_variant(&w.log, variant, rng).to_string(),
                }
            }
            _ => Request::Equiv {
                log: w.log.to_string(),
            },
        })
        .collect()
}

/// Fires `requests` concurrently at a paused service (all parked at the
/// gate before it opens, so the writes among them coalesce into batches),
/// returning the responses in request order.
fn run_coalesced<S>(service: &Service<S>, requests: &[Request]) -> Vec<Response>
where
    S: Storage + Send + Sync + 'static,
{
    let barrier = Arc::new(Barrier::new(requests.len() + 1));
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                let client = service.client();
                let barrier = Arc::clone(&barrier);
                let req = req.clone();
                scope.spawn(move || {
                    barrier.wait();
                    client.request(req)
                })
            })
            .collect();
        barrier.wait();
        // Let every thread reach the gate before opening it, so the
        // batch composition is the full script.
        std::thread::sleep(Duration::from_millis(300));
        service.resume();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    responses
}

/// The tentpole determinism property: a burst of queries drained as
/// coalesced batches answers **bit-identically** to the same queries
/// issued one at a time against an uncoalesced service with the same
/// appended prefix — across seeds, structures and all request kinds.
///
/// One carve-out: the burst's threads enqueue in whatever order the
/// scheduler wakes them, `abort_symbolic` and `equiv` intern arena nodes
/// in that arrival order, and the rendered normal form orders `+M`
/// summands by `NodeId`. So the *text* of a symbolic row depends on
/// arrival order; its names, flags and meaning do not, and those are
/// what is pinned for `Response::Symbolic`.
#[test]
fn coalesced_batches_answer_bit_identically_to_one_at_a_time() {
    for seed in [3, 17] {
        let mut rng = TestRng::new(seed);
        let w = Workload::generate(WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        });
        let requests = query_script(&w, &mut rng, 24);
        let append = Request::Append {
            log: w.log.to_string(),
        };

        // Service A: coalescing on, queries fired concurrently at a
        // paused service.
        let service_a = start(ServiceConfig {
            coalesce_max: 16,
            queue_depth: 64,
            paused: false, // pause only after the append below
        });
        assert!(matches!(
            service_a.client().request(append.clone()),
            Response::Appended { seq: 1, .. }
        ));
        let service_a = {
            // Re-start paused over the same storage to pin batching:
            // drain, recover, and hold the gate closed.
            let db = service_a.shutdown_into().1.expect("sole owner");
            Service::start(
                db,
                ServiceConfig {
                    coalesce_max: 16,
                    queue_depth: 64,
                    paused: true,
                },
            )
        };
        let got = run_coalesced(&service_a, &requests);
        let stats_a = service_a.shutdown();
        assert!(
            stats_a.coalesced > 0,
            "seed {seed}: paused burst must actually coalesce (got {stats_a:?})"
        );

        // Service B: no coalescing possible, sequential issue.
        let service_b = start(ServiceConfig {
            coalesce_max: 1,
            queue_depth: 64,
            paused: false,
        });
        let client_b = service_b.client();
        assert!(matches!(
            client_b.request(append),
            Response::Appended { seq: 1, .. }
        ));
        let want: Vec<Response> = requests
            .iter()
            .map(|r| client_b.request(r.clone()))
            .collect();
        service_b.shutdown();

        for (ix, (got, want)) in got.iter().zip(&want).enumerate() {
            let context = format!(
                "seed {seed}: request #{ix} ({}) diverged under coalescing",
                requests[ix]
            );
            match (got, want) {
                (
                    Response::Symbolic { seq, rows },
                    Response::Symbolic {
                        seq: want_seq,
                        rows: want_rows,
                    },
                ) => {
                    assert_eq!(seq, want_seq, "{context}");
                    common::assert_symbolic_rows_agree(rows, want_rows, &context);
                }
                _ => assert_eq!(got, want, "{context}"),
            }
        }
    }
}

/// A burst of appends queued against a paused service group-commits as
/// one write batch (one fsync barrier), and the resulting state is
/// exactly the sequential application in response-seq order. The logs
/// use disjoint name spaces so the burst's (nondeterministic) arrival
/// order cannot change validity — what's pinned here is the commit
/// semantics, not queue order.
#[test]
fn append_burst_group_commits_and_matches_sequential_order() {
    let logs: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "begin b{i}\ninsert x{i}\nmodify y{i} <- x{i}\ncommit\n\
                 begin c{i}\ndelete x{i}\ncommit\n"
            )
        })
        .collect();
    let service = start(ServiceConfig {
        coalesce_max: 32,
        queue_depth: 64,
        paused: true,
    });
    let requests: Vec<Request> = logs
        .iter()
        .map(|log| Request::Append { log: log.clone() })
        .collect();
    let responses = run_coalesced(&service, &requests);

    // Every log accepted; seqs are a dense permutation of 1..=n.
    let mut seqs = Vec::new();
    for (resp, req) in responses.iter().zip(&requests) {
        match resp {
            Response::Appended { seq, applied } => {
                assert_eq!(*applied, 3, "each log has three updates");
                seqs.push(*seq);
            }
            other => panic!("append {req} answered {other}"),
        }
    }
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (1..=logs.len() as u64).collect::<Vec<_>>(),
        "seqs must be a dense permutation"
    );

    // One write batch: the whole burst rode one coalesced batch, and
    // the sync count shows a single group-commit barrier.
    let (stats, db) = service.shutdown_into();
    assert!(
        stats.coalesced >= logs.len() as u64,
        "paused burst of {} appends must coalesce (got {stats:?})",
        logs.len()
    );
    let db = db.expect("sole owner after shutdown");
    assert_eq!(
        db.storage().syncs(),
        1,
        "a coalesced append burst commits behind one fsync barrier"
    );

    let by_seq: Vec<(u64, &str)> = seqs
        .iter()
        .copied()
        .zip(logs.iter().map(String::as_str))
        .collect();
    assert_is_replay_in_seq_order(&db, by_seq);
}

/// State equals sequential application of `by_seq`'s logs in seq order:
/// same tuple set, same rendered provenance per tuple.
fn assert_is_replay_in_seq_order<S: Storage>(db: &DurableEngine<S>, mut by_seq: Vec<(u64, &str)>) {
    let mut engine = uprov_engine::Engine::new();
    by_seq.sort_unstable_by_key(|(s, _)| *s);
    let mut oracle_state = engine
        .replay(&by_seq[0].1.parse().expect("valid log"))
        .expect("first log replays");
    for (_, log) in &by_seq[1..] {
        engine
            .append(&mut oracle_state, &log.parse().expect("valid log"))
            .expect("log appends");
    }
    let service_state = db.state();
    let mut names: Vec<&str> = service_state.tuple_names().collect();
    let mut oracle_names: Vec<&str> = oracle_state.tuple_names().collect();
    names.sort_unstable();
    oracle_names.sort_unstable();
    assert_eq!(names, oracle_names, "tuple sets diverged");
    for name in names {
        assert_eq!(
            db.engine().render(service_state.provenance(name)),
            engine.render(oracle_state.provenance(name)),
            "provenance of `{name}` diverged from sequential application"
        );
    }
}

/// The backend fails inside a group commit: every append of the batch
/// answers a typed `io` error, the visible state stays at the last
/// durable `seq` (same `stats`, same concrete `eval` reply — no tuple, no
/// arena node leaked), readers keep serving, and the same appends retried
/// take the next contiguous sequence numbers.
#[test]
fn storage_failure_in_a_group_commit_fails_the_whole_batch_and_nothing_else() {
    let eval = Request::EvalAll {
        structure: StructureId::ALL[0],
    };
    // (seq, tuples, nodes): the parts of `stats` a failed batch must not move.
    let visible = |resp: Response| match resp {
        Response::Stats {
            seq, tuples, nodes, ..
        } => (seq, tuples, nodes),
        other => panic!("expected stats, got {other}"),
    };

    let storage = flaky::FlakyStorage::default();
    let fail = storage.trigger();
    let (db, _) = DurableEngine::open(storage).expect("open flaky engine");
    let config = ServiceConfig {
        coalesce_max: 32,
        queue_depth: 64,
        paused: false,
    };
    let service = Service::start(db, config.clone());
    let client = service.client();
    let first = client.request(Request::Append {
        log: "base a b\nbegin t0\nmodify a <- b\ncommit\n".to_owned(),
    });
    assert!(
        matches!(first, Response::Appended { seq: 1, .. }),
        "got {first}"
    );
    let rows_before = client.request(eval.clone());
    let visible_before = visible(client.request(Request::Stats));
    drop(client);
    let (_, db) = service.shutdown_into();

    // Restart paused over the same storage, so the three appends below
    // ride one write batch — and that batch's WAL write fails.
    let service = Service::start(
        db.expect("sole owner after shutdown"),
        ServiceConfig {
            paused: true,
            ..config
        },
    );
    let appends: Vec<Request> = (0..3)
        .map(|i| Request::Append {
            log: format!("begin f{i}\ninsert x{i}\nmodify a <- x{i}\ncommit\n"),
        })
        .collect();
    fail.store(true, Ordering::SeqCst);
    for resp in run_coalesced(&service, &appends) {
        match resp {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Io),
            other => panic!("append in a failed batch answered {other}"),
        }
    }

    let client = service.client();
    assert_eq!(client.request(eval.clone()), rows_before);
    assert_eq!(visible(client.request(Request::Stats)), visible_before);

    // The failure was transient: the retries commit, one after another.
    for (req, want_seq) in appends.iter().zip(2u64..) {
        match client.request(req.clone()) {
            Response::Appended { seq, applied } => {
                assert_eq!((seq, applied), (want_seq, 2));
            }
            other => panic!("retried append answered {other}"),
        }
    }
    assert_ne!(client.request(eval), rows_before, "retries are visible");
    drop(client);
    service.shutdown();
}

/// Every error arm of the write path inside coalesced batches: an
/// `abort_symbolic` of an unknown transaction answers a typed `query`
/// error, an `equiv` whose log does not parse a `parse` error, and an
/// `equiv` whose log the engine rejects a `replay` error. The appends and
/// the valid `abort_symbolic` among them answer what a one-at-a-time run
/// in the same queue order answers, the final `seq` and state are that
/// run's, and no run of appends syncs twice.
#[test]
fn write_errors_in_a_batch_answer_typed_and_leave_the_rest_one_at_a_time() {
    let base = Request::Append {
        log: "base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n".to_owned(),
    };
    let appends = 8;
    let mut script: Vec<Request> = (0..appends)
        .map(|i| Request::Append {
            log: format!("begin u{i}\ninsert x{i}\nmodify y{i} <- x{i}\ncommit\n"),
        })
        .collect();
    script.extend([
        Request::AbortSymbolic { txn: "t1".into() },
        Request::AbortSymbolic { txn: "nope".into() },
        Request::Equiv {
            log: "frobnicate a\n".into(),
        },
        // `a` is a tuple: naming a transaction after it is a kind clash.
        Request::Equiv {
            log: "begin a\ninsert z\ncommit\n".into(),
        },
    ]);
    let config = ServiceConfig {
        coalesce_max: 16,
        queue_depth: 64,
        paused: false,
    };

    let service = start(config.clone());
    assert!(matches!(
        service.client().request(base.clone()),
        Response::Appended { seq: 1, .. }
    ));
    let db = service.shutdown_into().1.expect("sole owner");
    let syncs_before = db.storage().syncs();
    let service = Service::start(
        db,
        ServiceConfig {
            paused: true,
            ..config.clone()
        },
    );
    let got = run_coalesced(&service, &script);
    let (stats, db) = service.shutdown_into();
    let db = db.expect("sole owner after shutdown");
    assert!(stats.coalesced > 0, "the burst must coalesce: {stats:?}");
    // Each non-append, and each batch boundary, can end a run of appends.
    let runs = appends.min(script.len() - appends + stats.batches as usize) as u64;
    let syncs = db.storage().syncs() - syncs_before;
    assert!(syncs <= runs, "{syncs} syncs for at most {runs} runs");
    for (ix, kind) in [
        (appends + 1, ErrorKind::Query),
        (appends + 2, ErrorKind::Parse),
        (appends + 3, ErrorKind::Replay),
    ] {
        match &got[ix] {
            Response::Error { kind: got_kind, .. } => assert_eq!(*got_kind, kind),
            other => panic!("request #{ix} ({}) answered {other}", script[ix]),
        }
    }

    // The queue order the answers show: appends by `seq`, the symbolic
    // abort after the appends its `seq` counts. The errors change nothing,
    // so they may go anywhere.
    let mut order: Vec<usize> = (0..script.len()).collect();
    order.sort_by_key(|&ix| match &got[ix] {
        Response::Appended { seq, .. } => (*seq, 0),
        Response::Symbolic { seq, .. } => (*seq, 1),
        _ => (0, 0),
    });
    let one_at_a_time = start(ServiceConfig {
        coalesce_max: 1,
        ..config
    });
    let client = one_at_a_time.client();
    client.request(base);
    let mut want: Vec<Option<Response>> = vec![None; script.len()];
    for ix in order {
        want[ix] = Some(client.request(script[ix].clone()));
    }
    drop(client);
    let want_db = one_at_a_time.shutdown_into().1.expect("sole owner");

    for (ix, (got, want)) in got.iter().zip(want).enumerate() {
        let context = format!("request #{ix} ({})", script[ix]);
        match (got, want.expect("every request answered")) {
            (
                Response::Symbolic { seq, rows },
                Response::Symbolic {
                    seq: want_seq,
                    rows: want_rows,
                },
            ) => {
                assert_eq!(*seq, want_seq, "{context}");
                common::assert_symbolic_rows_agree(rows, &want_rows, &context);
            }
            (got, want) => assert_eq!(*got, want, "{context}"),
        }
    }
    assert_eq!(db.seq(), 1 + appends as u64);
    assert_eq!(db.seq(), want_db.seq());
    assert_eq!(db.state().to_snapshot(), want_db.state().to_snapshot());
}

/// A sweep of concrete reads: whole-database, abort and delete, over two
/// structures.
fn what_if_requests(txn: &str, base: &str) -> Vec<Request> {
    let mut reqs = Vec::new();
    for structure in [StructureId::Bool, StructureId::Worlds] {
        reqs.push(Request::EvalAll { structure });
        reqs.push(Request::AbortEval {
            txn: txn.to_owned(),
            structure,
        });
        reqs.push(Request::DeleteBaseEval {
            tuple: base.to_owned(),
            structure,
        });
    }
    reqs
}

/// What a fresh single-threaded replica of the first `seq` appends says
/// to `reqs`: the full evaluation (`values::eval_rows`), printed.
fn replica_lines(logs: &[&str], reqs: &[Request]) -> Vec<String> {
    let mut engine = uprov_engine::Engine::new();
    let mut state = uprov_engine::ReplayState::default();
    for log in logs {
        engine
            .append(&mut state, &log.parse().expect("valid log"))
            .expect("log appends");
    }
    reqs.iter()
        .map(|req| {
            let (structure, zeroed) = match req {
                Request::EvalAll { structure } => (*structure, None),
                Request::AbortEval { txn, structure } => (*structure, state.txn_atom(txn)),
                Request::DeleteBaseEval { tuple, structure } => {
                    (*structure, state.base_atom(tuple))
                }
                other => panic!("not a concrete read: {other}"),
            };
            let rows = values::eval_rows(&engine, &state, structure, zeroed, 1);
            Response::Rows {
                seq: logs.len() as u64,
                rows,
            }
            .to_string()
        })
        .collect()
}

/// The service answers every concrete read from a per-structure baseline
/// cached at the append `seq` it was built at. Read (the cache is built
/// at `seq` 1), append, read again: the second read answers `seq` 2, byte
/// for byte what a replica's full evaluation says there. An append whose
/// storage write fails moves neither `seq` nor the cache: the next reads
/// are byte-identical to the ones before it.
#[test]
fn what_if_reads_follow_the_append_seq_and_survive_a_failed_append() {
    let logs = [
        "base a b c\nbegin t0\nmodify a <- b\ninsert d\ncommit\nbegin t1\ndelete c\ncommit\n",
        "begin t2\nmodify c <- a d\ndelete b\ncommit\n",
    ];
    let reqs = what_if_requests("t0", "b");
    let storage = flaky::FlakyStorage::default();
    let fail = storage.trigger();
    let (db, _) = DurableEngine::open(storage).expect("open flaky engine");
    let service = Service::start(db, ServiceConfig::default());
    let client = service.client();
    let read_all = || -> Vec<String> {
        reqs.iter()
            .map(|r| client.request(r.clone()).to_string())
            .collect()
    };
    let append = |log: &str| {
        client.request(Request::Append {
            log: log.to_owned(),
        })
    };

    assert!(matches!(append(logs[0]), Response::Appended { seq: 1, .. }));
    let at_1 = read_all();
    assert_eq!(at_1, replica_lines(&logs[..1], &reqs), "reads at seq 1");
    assert_eq!(read_all(), at_1, "cached reads at seq 1");

    assert!(matches!(append(logs[1]), Response::Appended { seq: 2, .. }));
    let at_2 = read_all();
    assert_eq!(at_2, replica_lines(&logs, &reqs), "reads after the append");
    assert_ne!(at_2, at_1, "the append changed some answer");

    fail.store(true, Ordering::SeqCst);
    match append("begin t3\ninsert e\nmodify a <- e\ncommit\n") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Io),
        other => panic!("append over failing storage answered {other}"),
    }
    assert_eq!(read_all(), at_2, "a failed append moved the reads");
    match client.request(Request::Stats) {
        Response::Stats { seq, .. } => assert_eq!(seq, 2),
        other => panic!("expected stats, got {other}"),
    }
    drop(client);
    service.shutdown();
}

/// Two reads that both find no cached baseline build one each and
/// answer identically — to each other and to the full evaluation.
#[test]
fn readers_that_both_miss_the_cache_answer_identically() {
    let log = "base a b c\nbegin t0\nmodify a <- b\ninsert d\ncommit\nbegin t1\ndelete c\ncommit\n";
    let config = ServiceConfig {
        coalesce_max: 1,
        queue_depth: 64,
        paused: false,
    };
    let service = start(config.clone());
    assert!(matches!(
        service.client().request(Request::Append {
            log: log.to_owned()
        }),
        Response::Appended { seq: 1, .. }
    ));
    let mut db = service.shutdown_into().1.expect("sole owner");
    for req in what_if_requests("t0", "b") {
        // A fresh service per pair: an empty cache, and both copies of
        // the request waiting at the gate.
        let service = Service::start(
            db,
            ServiceConfig {
                paused: true,
                ..config.clone()
            },
        );
        let answers = run_coalesced(&service, &[req.clone(), req.clone()]);
        let want = &replica_lines(&[log], &[req])[0];
        assert_eq!(&answers[0].to_string(), want);
        assert_eq!(&answers[1].to_string(), want);
        db = service.shutdown_into().1.expect("sole owner");
    }
}

/// A symbolic reply is printed within one byte budget for all its rows,
/// the transport's line cap: past it, the request answers typed
/// `too_large` naming the tuple that crossed it, and the next request is
/// served. Here the first row alone would print ≈ 5 × 10¹¹ symbols (a
/// counted normal form prints its expanded spine); printed whole, such a
/// reply exhausted memory.
#[test]
fn an_oversized_symbolic_reply_answers_too_large_and_the_service_goes_on() {
    let w = Workload::generate(WorkloadConfig::bench_shaped(21, 500, 2_000));
    let service = start(ServiceConfig::default());
    let client = service.client();
    let log = w.log.to_string();
    assert!(matches!(
        client.request(Request::Append { log }),
        Response::Appended { seq: 1, .. }
    ));
    let txn = w.txn_names[0].clone();
    match client.request(Request::AbortSymbolic { txn: txn.clone() }) {
        Response::Error {
            kind: ErrorKind::TooLarge,
            message,
        } => assert!(message.ends_with("at tuple `r0_k0`"), "{message}"),
        Response::Symbolic { rows, .. } => panic!("{} rows answered", rows.len()),
        other => panic!("expected too_large, got {other}"),
    }
    let stats = client.serve_line(r#"{"op":"stats"}"#);
    assert!(
        stats.starts_with(r#"{"ok":"stats","seq":1"#),
        "got: {stats}"
    );
    let abort = client.request(Request::AbortEval {
        txn,
        structure: StructureId::Bool,
    });
    assert!(matches!(abort, Response::Rows { seq: 1, .. }));
    drop(client);
    service.shutdown();
}

/// A service at its admission bound rejects immediately with a typed
/// `overloaded` error — no blocking, no panic — and the admitted requests
/// still answer.
#[test]
fn full_queue_answers_typed_overloaded() {
    let service = start(ServiceConfig {
        coalesce_max: 4,
        queue_depth: 2,
        paused: true,
    });
    let barrier = Arc::new(Barrier::new(3));
    std::thread::scope(|scope| {
        let fillers: Vec<_> = (0..2)
            .map(|_| {
                let client = service.client();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    client.request(Request::Stats)
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(Duration::from_millis(300));
        // The fillers now hold both admissions (depth 2); the next request
        // must bounce synchronously even though the service is paused.
        let bounced = service.client().request(Request::Stats);
        match bounced {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Overloaded),
            other => panic!("expected overloaded, got {other}"),
        }
        service.resume();
        for filler in fillers {
            let resp = filler.join().expect("no panic");
            assert!(
                matches!(resp, Response::Stats { .. }),
                "queued request must still answer: {resp}"
            );
        }
    });
    service.shutdown();
}

/// Shutdown drains: every request admitted before shutdown is answered
/// with a real response; requests arriving after it get a typed
/// `shutting_down` error; nothing hangs and nothing is dropped.
#[test]
fn shutdown_drains_enqueued_requests_and_rejects_late_ones() {
    let service = start(ServiceConfig {
        coalesce_max: 8,
        queue_depth: 64,
        paused: true,
    });
    let late_client = service.client();
    let answered = Arc::new(AtomicU64::new(0));
    let n = 12;
    let barrier = Arc::new(Barrier::new(n + 1));
    std::thread::scope(|scope| {
        for i in 0..n {
            let client = service.client();
            let barrier = Arc::clone(&barrier);
            let answered = Arc::clone(&answered);
            scope.spawn(move || {
                let req = if i % 2 == 0 {
                    Request::Stats
                } else {
                    Request::EvalAll {
                        structure: StructureId::ALL[i % StructureId::ALL.len()],
                    }
                };
                barrier.wait();
                let resp = client.request(req);
                match resp {
                    Response::Stats { .. } | Response::Rows { .. } => {
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("enqueued request was not drained: {other}"),
                }
            });
        }
        barrier.wait();
        // All n requests park at the closed gate...
        std::thread::sleep(Duration::from_millis(500));
        // ...then shutdown must see every one of them answered.
        let service = service;
        service.shutdown();
    });
    assert_eq!(
        answered.load(Ordering::SeqCst),
        n as u64,
        "drain lost requests"
    );

    // The service is gone: the surviving handle answers shutting_down.
    match late_client.request(Request::Stats) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
        other => panic!("expected shutting_down, got {other}"),
    }
}

fn set_budget(client: &Client<MemStorage>, entries: u64) {
    let resp = client.request(Request::SetBudget {
        entries: Some(entries),
    });
    assert!(matches!(resp, Response::BudgetSet { .. }), "{resp}");
}

/// A client's cache budget ends with the client: once a tight budget's
/// owner goes away, the next write batch applies the tightest budget of
/// the clients still connected.
#[test]
fn a_departed_clients_budget_stops_counting() {
    let service = start(ServiceConfig::default());
    let (a, b) = (service.client(), service.client());
    set_budget(&a, 1);
    set_budget(&b, 1000);
    drop(a);
    assert!(matches!(
        b.request(Request::Snapshot),
        Response::Snapshotted { .. }
    ));
    drop(b);
    let db = service.shutdown_into().1.expect("sole owner");
    assert_eq!(db.engine().cache_budget(), Some(1000));
}

/// A reconnect loop that sets a budget per connection leaves nothing
/// behind: with every such client gone, the next write lifts the cap.
#[test]
fn budgets_of_many_departed_clients_leave_no_cap() {
    let service = start(ServiceConfig::default());
    for n in 0..100 {
        set_budget(&service.client(), 10 + n);
    }
    let writer = service.client();
    assert!(matches!(
        writer.request(Request::Append {
            log: "base x\n".to_owned()
        }),
        Response::Appended { seq: 1, .. }
    ));
    drop(writer);
    let db = service.shutdown_into().1.expect("sole owner");
    assert_eq!(db.engine().cache_budget(), None);
}

/// A [`MemStorage`] that records the thread each `sync` ran on.
#[derive(Default)]
struct SyncThreads {
    inner: MemStorage,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl Storage for SyncThreads {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(blob)
    }
    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(blob, bytes)
    }
    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(blob, bytes)
    }
    fn sync(&mut self, blob: &str) -> io::Result<()> {
        self.threads
            .lock()
            .expect("recorder poisoned")
            .push(std::thread::current().id());
        self.inner.sync(blob)
    }
    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(blob, len)
    }
    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}

/// A [`MemStorage`] whose `sync` panics once armed: an engine bug in the
/// middle of a group commit.
#[derive(Default)]
struct PanickingSync {
    inner: MemStorage,
    armed: Arc<AtomicBool>,
}

impl Storage for PanickingSync {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(blob)
    }
    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(blob, bytes)
    }
    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(blob, bytes)
    }
    fn sync(&mut self, blob: &str) -> io::Result<()> {
        assert!(!self.armed.load(Ordering::SeqCst), "injected panic in sync");
        self.inner.sync(blob)
    }
    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(blob, len)
    }
    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}

/// A leader that panics mid-batch does not strand its followers: the
/// leader's own caller unwinds, the other writes of the batch answer a
/// typed `shutting_down`, and so do later reads and writes — nobody
/// hangs, and nobody else panics.
#[test]
fn a_leader_that_panics_leaves_no_follower_waiting() {
    let storage = PanickingSync::default();
    let armed = Arc::clone(&storage.armed);
    let (db, _) = DurableEngine::open(storage).expect("open engine");
    let service = Service::start(
        db,
        ServiceConfig {
            paused: true,
            ..ServiceConfig::default()
        },
    );
    armed.store(true, Ordering::SeqCst);
    let outcomes: Vec<std::thread::Result<Response>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let client = service.client();
                scope.spawn(move || {
                    client.request(Request::Append {
                        log: format!("begin p{i}\ninsert x{i}\ncommit\n"),
                    })
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        service.resume();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let panicked = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(panicked, 1, "exactly the leader's caller unwinds");
    for resp in outcomes.into_iter().flatten() {
        match resp {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
            other => panic!("a follower of the panicked batch answered {other}"),
        }
    }
    let client = service.client();
    for req in [
        Request::Stats,
        Request::Append {
            log: "begin late\ninsert z\ncommit\n".to_owned(),
        },
    ] {
        match client.request(req) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
            other => panic!("a request after the panic answered {other}"),
        }
    }
    drop(client);
    service.shutdown();
}

/// A write has no hand-off: a client thread's append is made durable on
/// that same thread.
#[test]
fn an_append_syncs_on_its_callers_thread() {
    let storage = SyncThreads::default();
    let threads = Arc::clone(&storage.threads);
    let (db, _) = DurableEngine::open(storage).expect("open recording engine");
    let service = Service::start(db, ServiceConfig::default());
    let client = service.client();
    let caller = std::thread::spawn(move || {
        threads.lock().expect("recorder poisoned").clear();
        let resp = client.request(Request::Append {
            log: "base x\nbegin t\ninsert y\ncommit\n".to_owned(),
        });
        assert!(matches!(resp, Response::Appended { seq: 1, .. }), "{resp}");
        let synced_on = threads.lock().expect("recorder poisoned").clone();
        (std::thread::current().id(), synced_on)
    });
    let (caller, synced_on) = caller.join().expect("caller thread");
    assert_eq!(synced_on, [caller], "the append must sync on its caller");
    service.shutdown();
}

/// Appends against a paused service at `queue_depth: 2`: two wait at the
/// gate and a third bounces `overloaded`; after `resume` the two commit
/// as one batch behind one fsync.
#[test]
fn appends_at_the_admission_bound_bounce_and_the_admitted_commit_together() {
    let service = start(ServiceConfig {
        queue_depth: 2,
        coalesce_max: 16,
        paused: true,
    });
    let append = |i: usize| Request::Append {
        log: format!("begin w{i}\ninsert x{i}\ncommit\n"),
    };
    std::thread::scope(|scope| {
        let waiting: Vec<_> = (0..2)
            .map(|i| {
                let client = service.client();
                let req = append(i);
                scope.spawn(move || client.request(req))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        match service.client().request(append(2)) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Overloaded),
            other => panic!("expected overloaded, got {other}"),
        }
        service.resume();
        let mut seqs: Vec<u64> = waiting
            .into_iter()
            .map(|h| match h.join().expect("no panic") {
                Response::Appended { seq, applied: 1 } => seq,
                other => panic!("admitted append answered {other}"),
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [1, 2]);
    });
    let (stats, db) = service.shutdown_into();
    assert_eq!(stats.coalesced, 2, "both appends rode one batch: {stats:?}");
    let db = db.expect("sole owner after shutdown");
    assert_eq!(db.storage().syncs(), 1, "one fsync behind both appends");
}

/// Appends parked at the closed gate each answer `Appended` on shutdown,
/// and an append after it answers `shutting_down`.
#[test]
fn shutdown_commits_appends_waiting_at_the_gate() {
    let service = start(ServiceConfig {
        queue_depth: 64,
        coalesce_max: 2,
        paused: true,
    });
    let late_client = service.client();
    let n = 5;
    std::thread::scope(|scope| {
        let waiting: Vec<_> = (0..n)
            .map(|i| {
                let client = service.client();
                scope.spawn(move || {
                    client.request(Request::Append {
                        log: format!("begin s{i}\ninsert x{i}\ncommit\n"),
                    })
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        let service = service;
        service.shutdown();
        let mut seqs: Vec<u64> = waiting
            .into_iter()
            .map(|h| match h.join().expect("no panic") {
                Response::Appended { seq, .. } => seq,
                other => panic!("append waiting at the gate answered {other}"),
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=n as u64).collect::<Vec<_>>());
    });
    match late_client.request(Request::Append {
        log: "begin late\ninsert z\ncommit\n".to_owned(),
    }) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
        other => panic!("expected shutting_down, got {other}"),
    }
}

/// Leader/follower under contention: `UPROV_SOAK_CLIENTS` appenders
/// (default 4) race an unpaused service with 25 appends each, on
/// disjoint names. The acknowledged seqs are exactly 1..=25N, the state
/// is the sequential replay in seq order, and no batch synced twice:
/// `syncs ≤ batches`.
#[test]
fn contending_appenders_commit_dense_seqs_and_one_sync_per_batch_at_most() {
    let appenders: usize = std::env::var("UPROV_SOAK_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let per_appender = 25;
    let service = start(ServiceConfig::default());
    let acked: Vec<(u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..appenders)
            .map(|a| {
                let client = service.client();
                scope.spawn(move || {
                    (0..per_appender)
                        .map(|j| {
                            let log = format!(
                                "begin t{a}_{j}\ninsert x{a}_{j}\nmodify y{a} <- x{a}_{j}\ncommit\n"
                            );
                            match client.request(Request::Append { log: log.clone() }) {
                                Response::Appended { seq, applied: 2 } => (seq, log),
                                other => panic!("append {a}/{j} answered {other}"),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panic"))
            .collect()
    });
    let mut seqs: Vec<u64> = acked.iter().map(|(seq, _)| *seq).collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (1..=(appenders * per_appender) as u64).collect::<Vec<_>>(),
        "acknowledged seqs must be dense"
    );
    let (stats, db) = service.shutdown_into();
    let db = db.expect("sole owner after shutdown");
    assert!(
        db.storage().syncs() <= stats.batches,
        "{} syncs over {stats:?}",
        db.storage().syncs()
    );
    assert_is_replay_in_seq_order(
        &db,
        acked
            .iter()
            .map(|(seq, log)| (*seq, log.as_str()))
            .collect(),
    );
}
