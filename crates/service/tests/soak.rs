//! Concurrency soak: many clients, one writer, one resident engine.
//!
//! ≥8 seeded clients fire mixed abort/equiv/delete/eval/symbolic/stats
//! queries at one resident [`Service`] while a writer thread appends the
//! workload's schedule slices. **Every** response is cross-checked
//! against a single-threaded oracle replaying exactly the prefix the
//! response acknowledges (its `seq`): each client owns a private
//! [`Engine`] it advances slice by slice as acknowledged seqs come in.
//! Because the oracle only ever applies *whole* slices, any response
//! computed against a partially applied append cannot match it — the
//! "no torn reads" guarantee falls out of the comparison itself.
//!
//! Structures rotate through the full five-element catalogue, so every
//! client exercises every algebra. `UPROV_SOAK_CLIENTS` /
//! `UPROV_SOAK_REQUESTS` scale the battery up for the CI soak matrix.

mod common;

use std::sync::Arc;
use std::thread;

use benchkit::TestRng;
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_service::proto::{ErrorKind, Request, Response, SymbolicRow};
use uprov_service::service::{Service, ServiceConfig};
use uprov_service::values::{self, StructureId};
use uprov_storage::{DurableEngine, MemStorage};
use uprov_workload::{equivalent_variant, Variant, Workload, WorkloadConfig};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A client's private single-threaded replica: the full slice list is
/// shared (read-only), and the replica advances to whatever prefix the
/// latest response acknowledged. `applied` counts whole slices — the
/// service's `seq` is exactly "appends accepted", and only the writer
/// thread appends, in slice order, so seq `s` *means* `slices[..s]`.
struct Oracle {
    engine: Engine,
    state: ReplayState,
    applied: usize,
    slices: Arc<Vec<UpdateLog>>,
}

impl Oracle {
    fn new(slices: Arc<Vec<UpdateLog>>) -> Oracle {
        let mut engine = Engine::new();
        let state = engine.replay(&slices[0]).expect("slice 0 replays");
        Oracle {
            engine,
            state,
            applied: 1,
            slices,
        }
    }

    /// Advance to the acknowledged prefix. Seqs witnessed by one client
    /// are monotone (the resident state only moves forward), so this
    /// only ever appends.
    fn advance(&mut self, seq: u64) {
        let seq = usize::try_from(seq).expect("seq fits usize");
        assert!(
            seq >= self.applied && seq <= self.slices.len(),
            "service acknowledged seq {seq}, oracle at {} of {}",
            self.applied,
            self.slices.len()
        );
        for slice in &self.slices[self.applied..seq] {
            self.engine
                .append(&mut self.state, slice)
                .expect("schedule slice appends cleanly");
        }
        self.applied = seq;
    }
}

/// The service answered `unknown …` without a seq; names are only ever
/// *added* by the schedule, so unknown at the service's (later) seq
/// implies unknown at the oracle's current prefix too.
fn assert_unknown(oracle: &Oracle, req: &Request, message: &str) {
    let known = match req {
        Request::AbortEval { txn, .. } | Request::AbortSymbolic { txn } => {
            oracle.state.txn_atom(txn).is_some()
        }
        Request::DeleteBaseEval { tuple, .. } => oracle.state.base_atom(tuple).is_some(),
        other => panic!("query error for non-name request {other}: {message}"),
    };
    assert!(!known, "{req} answered `{message}` but the name is live");
}

fn expect_symbolic(oracle: &mut Oracle, txn: &str) -> Vec<SymbolicRow> {
    let view = oracle
        .engine
        .abort_symbolic(&oracle.state, txn)
        .expect("oracle resolved the txn");
    view.into_iter()
        .map(|t| SymbolicRow {
            name: t.name,
            provenance: oracle.engine.render(t.provenance),
            saturated: t.saturated,
        })
        .collect()
}

/// One client's request stream: seeded, independent, name choices
/// sprinkled with bogus names so the typed `query` error path stays hot.
fn pick<'a>(rng: &mut TestRng, names: &'a [String], bogus: &'a str) -> &'a str {
    if rng.chance(12) {
        bogus
    } else {
        &names[rng.below(names.len())]
    }
}

fn client_request(rng: &mut TestRng, w: &Workload, round: usize) -> Request {
    let structure = StructureId::ALL[round % StructureId::ALL.len()];
    match rng.below(12) {
        0..=2 => Request::AbortEval {
            txn: pick(rng, &w.txn_names, "soak_no_such_txn").to_owned(),
            structure,
        },
        3..=4 => Request::DeleteBaseEval {
            tuple: pick(rng, &w.tuple_names, "soak_no_such_tuple").to_owned(),
            structure,
        },
        5 => Request::EvalAll { structure },
        6..=7 => Request::AbortSymbolic {
            txn: pick(rng, &w.txn_names, "soak_no_such_txn").to_owned(),
        },
        8 => Request::Equiv {
            log: w.log.to_string(),
        },
        9..=10 => {
            let variant = match rng.below(3) {
                0 => Variant::PermuteModifySources,
                1 => Variant::DeadSelfModify,
                _ => Variant::ModifyFromDeleted,
            };
            Request::Equiv {
                log: equivalent_variant(&w.log, variant, rng).to_string(),
            }
        }
        _ => Request::Stats,
    }
}

/// Check one response against the oracle advanced to the response's seq.
fn check(oracle: &mut Oracle, req: &Request, resp: &Response) {
    match resp {
        Response::Rows { seq, rows } => {
            oracle.advance(*seq);
            let (structure, zeroed) = match req {
                Request::AbortEval { txn, structure } => (
                    *structure,
                    Some(oracle.state.txn_atom(txn).expect("live txn")),
                ),
                Request::DeleteBaseEval { tuple, structure } => (
                    *structure,
                    Some(oracle.state.base_atom(tuple).expect("live tuple")),
                ),
                Request::EvalAll { structure } => (*structure, None),
                other => panic!("rows for non-eval request {other}"),
            };
            let expect = values::eval_rows(&oracle.engine, &oracle.state, structure, zeroed, 1);
            assert_eq!(
                rows, &expect,
                "{req} at seq {seq}: rows diverge from oracle"
            );
        }
        Response::Symbolic { seq, rows } => {
            oracle.advance(*seq);
            let Request::AbortSymbolic { txn } = req else {
                panic!("symbolic rows for {req}");
            };
            let expect = expect_symbolic(oracle, txn);
            common::assert_symbolic_rows_agree(rows, &expect, &format!("{req} at seq {seq}"));
        }
        Response::Equiv {
            seq,
            equivalent,
            differing,
            undecided,
        } => {
            oracle.advance(*seq);
            let Request::Equiv { log } = req else {
                panic!("equiv verdict for {req}");
            };
            let candidate = oracle
                .engine
                .replay(&log.parse().expect("candidate log parses"))
                .expect("candidate log replays");
            let verdict = oracle.engine.equivalent(&oracle.state, &candidate);
            assert_eq!(
                (*equivalent, differing, undecided),
                (
                    verdict.is_equivalent(),
                    &verdict.differing,
                    &verdict.undecided
                ),
                "{req} at seq {seq}: equivalence verdict diverges"
            );
        }
        Response::Stats { seq, tuples, .. } => {
            oracle.advance(*seq);
            assert_eq!(
                *tuples,
                oracle.state.tuples().count() as u64,
                "stats at seq {seq}: tuple count diverges"
            );
        }
        Response::Error { kind, message } => {
            assert_eq!(
                *kind,
                ErrorKind::Query,
                "{req} answered unexpected error: {message}"
            );
            assert_unknown(oracle, req, message);
        }
        other => panic!("{req} answered {other}"),
    }
}

#[test]
fn soak_many_clients_one_writer_match_single_threaded_oracle() {
    let clients = env_or("UPROV_SOAK_CLIENTS", 8).max(2);
    let requests = env_or("UPROV_SOAK_REQUESTS", 30).max(5);

    let w = Workload::generate(WorkloadConfig {
        seed: 0x50AC_0001,
        tables: 3,
        keys_per_table: 4,
        txns: 12,
        ops_per_txn: 5,
        ..WorkloadConfig::default()
    });
    let mut rng = TestRng::new(0x50AC_0002);
    let slices = Arc::new(w.schedule(&mut rng));
    assert!(slices.len() >= 2, "schedule must have a burst to append");

    let (db, _) = DurableEngine::open(MemStorage::new()).expect("open");
    let service = Service::start(db, ServiceConfig::default());

    // Slice 0 (the base declarations plus any merged head txns) goes in
    // before anyone races: every oracle starts from the same seq-1 state.
    let base_client = service.client();
    match base_client.request(Request::Append {
        log: slices[0].to_string(),
    }) {
        Response::Appended { seq: 1, .. } => {}
        other => panic!("base slice answered {other}"),
    }

    thread::scope(|scope| {
        // The writer: appends the remaining slices in order through its
        // own client, like any other tenant of the queue.
        let writer_slices = Arc::clone(&slices);
        let writer_client = service.client();
        scope.spawn(move || {
            for (i, slice) in writer_slices.iter().enumerate().skip(1) {
                match writer_client.request(Request::Append {
                    log: slice.to_string(),
                }) {
                    Response::Appended { seq, .. } => {
                        assert_eq!(seq, i as u64 + 1, "writer appends in slice order");
                    }
                    other => panic!("slice {i} answered {other}"),
                }
            }
        });

        for c in 0..clients {
            let client = service.client();
            let slices = Arc::clone(&slices);
            let w = &w;
            scope.spawn(move || {
                let mut rng = TestRng::new(0x50AC_1000 + c as u64);
                let mut oracle = Oracle::new(slices);
                for round in 0..requests {
                    let req = client_request(&mut rng, w, round);
                    let resp = client.request(req.clone());
                    check(&mut oracle, &req, &resp);
                }
            });
        }
    });

    // Drain, reclaim the engine, and pin the final state against a
    // fresh oracle that replays the whole schedule in one sitting.
    // (Clients hold the service's shared state; the scoped ones are gone,
    // the base client must go too before the engine can be reclaimed.)
    drop(base_client);
    let (stats, db) = service.shutdown_into();
    assert!(
        stats.batches > 0,
        "the soak must have exercised the workers"
    );
    let db = db.expect("sole owner after shutdown");
    assert_eq!(db.seq(), slices.len() as u64, "every slice accepted");

    let mut oracle = Oracle::new(Arc::clone(&slices));
    oracle.advance(slices.len() as u64);
    let mut names: Vec<&str> = db.state().tuple_names().collect();
    let mut oracle_names: Vec<&str> = oracle.state.tuple_names().collect();
    names.sort_unstable();
    oracle_names.sort_unstable();
    assert_eq!(names, oracle_names, "final tuple sets diverged");
    for name in names {
        assert_eq!(
            db.engine().render(db.state().provenance(name)),
            oracle.engine.render(oracle.state.provenance(name)),
            "final provenance of `{name}` diverged"
        );
    }
}
