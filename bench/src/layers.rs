//! Per-layer attribution for the `--trace 1` run.
//!
//! Nothing inside the program is instrumented. A traced request is a
//! span tree recorded from out here: `proto.parse`, `service.request`
//! and `proto.print` on the real service (plus the storage probe's
//! `backend.*` intervals, which happen inside `service.request`), and —
//! caused by the same request id — a *shadow* tree timed on the
//! bench-private replica by calling the public functions the service
//! composes. After the script, [`probe_state`] and [`probe_appends`]
//! time the remaining layers' public entry points on the final state.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::time::Instant;

use uprov_core::{
    eval_many_in, eval_roots_in, nf_roots_in, par_eval_many_in, par_eval_roots_in, DenseMemo,
    MemoPool, NfMemo, NodeId, UpdateStructure, Valuation, WorkerPool,
};
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_service::proto::{ErrorKind, Request, Response};
use uprov_service::service::Client;
use uprov_service::values::{self, StructureId};
use uprov_storage::{snapshot, wal, DurableEngine, MemStorage, Storage, WAL_BLOB};
use uprov_structures::{Bool, Clearance, Trust, Witnesses, Worlds};

use crate::harness::{InProcess, Server};
use crate::oracle::Replica;
use crate::report::Report;
use crate::stats::{decile_growth, median};
use crate::storage_probe::CountingStorage;
use crate::trace::Tracer;
use crate::Ctx;

/// Runs `$body` with `$s` bound to the catalogue structure `$id` names
/// and `$top` to its "present" value.
macro_rules! with_structure {
    ($id:expr, |$s:ident, $top:ident| $body:expr) => {
        match $id {
            StructureId::Bool => {
                let ($s, $top) = (&Bool, true);
                $body
            }
            StructureId::Worlds => {
                let ($s, $top) = (&Worlds, u64::MAX);
                $body
            }
            StructureId::Clearance => {
                let ($s, $top) = (&Clearance, u16::MAX);
                $body
            }
            StructureId::Trust => {
                let ($s, $top) = (&Trust, u32::MAX);
                $body
            }
            StructureId::Witnesses => {
                let ($s, $top) = (&Witnesses, (0..16).collect::<BTreeSet<u32>>());
                $body
            }
        }
    };
}

/// Tuples whose normal forms [`probe_state`] measures individually.
const SIZED_TUPLES: usize = 64;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the traced client counts beside the spans.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    bytes_in: u64,
    overloaded: u64,
    appends: u64,
    appended_updates: u64,
    wal_bytes: u64,
    newly_dirty: u64,
    append_nodes: u64,
    symbolic_nodes: u64,
    symbolic_rows: u64,
    snapshot_bytes: u64,
    /// Every log the replica applied, for [`probe_appends`].
    appended: Vec<UpdateLog>,
    /// Real `service.request` time of each append, in script order.
    append_ns: Vec<u64>,
    /// `service.request − shadow`, one entry per request.
    overhead_ns: Vec<i64>,
}

/// The traced client: one request at a time, each a span tree plus its
/// shadow on the replica, which is kept in lock-step with the service.
pub struct Traced<S: Storage + Send + Sync + 'static> {
    /// The span store.
    pub tracer: Tracer,
    /// The lock-step replica the shadow trees are timed on.
    pub replica: Replica,
    client: Client<CountingStorage<S>>,
    tally: Tally,
}

impl<S: Storage + Send + Sync + 'static> Traced<S> {
    /// A traced client on the clock starting at `epoch` (the storage
    /// probe's epoch, so its intervals can be adopted).
    pub fn new(client: Client<CountingStorage<S>>, epoch: Instant) -> Traced<S> {
        Traced {
            tracer: Tracer::new(epoch),
            replica: Replica::default(),
            client,
            tally: Tally::default(),
        }
    }

    /// Applies to the replica a log the service was preloaded with
    /// outside the traced script.
    pub fn preload(&mut self, log: &UpdateLog) {
        self.replica.append(log);
        self.tally.appended.push(log.clone());
    }

    /// Serves `line` like `Client::serve_line`, recording the span tree,
    /// then times the shadow tree on the replica.
    pub fn request(&mut self, line: &str) -> String {
        let req = self.tally.requests;
        self.tally.requests += 1;
        self.tally.bytes_in += line.len() as u64 + 1;
        let t = &mut self.tracer;
        let root = t.begin("request", None, req);
        let parsed = t.time("proto.parse", root, || Request::from_str(line));
        let parsed = parsed.expect("the benchmark sends well-formed requests");
        let served = t.begin("service.request", Some(root), req);
        let resp = self.client.request(parsed.clone());
        t.end(served);
        let reply = t.time("proto.print", root, || resp.to_string());
        t.end(root);
        if let Response::Error { kind, .. } = &resp {
            self.tally.overloaded += u64::from(*kind == ErrorKind::Overloaded);
            return reply; // nothing happened that a shadow could mirror
        }
        let shadow = self.tracer.begin("shadow", None, req);
        self.shadow(shadow, &parsed);
        self.tracer.end(shadow);
        let spans = self.tracer.spans();
        let (served, shadow) = (spans[served].duration_ns(), spans[shadow].duration_ns());
        self.tally.overhead_ns.push(served as i64 - shadow as i64);
        if matches!(parsed, Request::Append { .. }) {
            self.tally.append_ns.push(served);
        }
        self.probe(req, &parsed);
        reply
    }

    fn shadow(&mut self, parent: usize, req: &Request) {
        let (t, r, tally) = (&mut self.tracer, &mut self.replica, &mut self.tally);
        match req {
            Request::Append { log } => {
                let log = t.time("log.parse", parent, || UpdateLog::from_str(log));
                let log = log.expect("the service accepted this log");
                t.time("engine.validate_append", parent, || {
                    r.engine.validate_append(&r.state, &log).map(drop)
                })
                .expect("the service accepted this log");
                let record = t.time("wal.encode_record", parent, || {
                    wal::encode_record(r.seq, &log)
                });
                let (dirty, nodes) = (r.state.dirty_count(), r.engine.arena().len());
                t.time("engine.append", parent, || r.append(&log));
                tally.appends += 1;
                tally.appended_updates += log.update_count() as u64;
                tally.wal_bytes += record.len() as u64;
                tally.newly_dirty += (r.state.dirty_count() - dirty) as u64;
                tally.append_nodes += (r.engine.arena().len() - nodes) as u64;
                tally.appended.push(log);
            }
            Request::AbortEval { .. }
            | Request::DeleteBaseEval { .. }
            | Request::EvalAll { .. } => {
                let (id, zeroed) = r.resolve(req).expect("the service knew the name");
                t.time("values.eval_rows", parent, || {
                    values::eval_rows(&r.engine, &r.state, id, zeroed, 1)
                });
            }
            Request::AbortSymbolic { txn } => {
                let nodes = r.engine.arena().len();
                let view = t.time("engine.abort_symbolic", parent, || {
                    r.engine.abort_symbolic(&r.state, txn)
                });
                let view = view.expect("known transaction");
                tally.symbolic_nodes += (r.engine.arena().len() - nodes) as u64;
                tally.symbolic_rows += view.len() as u64;
                t.time("engine.render", parent, || {
                    view.iter()
                        .for_each(|row| drop(r.engine.render(row.provenance)))
                });
            }
            Request::Equiv { log } => {
                let log = t.time("log.parse", parent, || UpdateLog::from_str(log));
                let log = log.expect("the service accepted this log");
                let candidate = t.time("engine.replay", parent, || r.engine.replay(&log));
                let candidate = candidate.expect("the service replayed this log");
                t.time("engine.equivalent", parent, || {
                    drop(r.engine.equivalent(&r.state, &candidate))
                });
            }
            Request::Snapshot => {
                let bytes = t.time("snapshot.encode", parent, || {
                    snapshot::encode(&r.engine, &r.state, r.seq)
                });
                tally.snapshot_bytes = bytes.len() as u64;
            }
            Request::Stats | Request::SetBudget { .. } | Request::Shutdown => {}
        }
    }

    /// For a concrete query, times the engine call `eval_rows` is built
    /// on, alone (the rest of `eval_rows` is valuation set-up and
    /// rendering). The service does not run it twice, so it is a root of
    /// its own, outside the shadow.
    fn probe(&mut self, req_id: u64, req: &Request) {
        let (t, r) = (&mut self.tracer, &mut self.replica);
        let structure = match req {
            Request::AbortEval { structure, .. }
            | Request::DeleteBaseEval { structure, .. }
            | Request::EvalAll { structure } => *structure,
            _ => return,
        };
        let root = t.begin("probe", None, req_id);
        with_structure!(structure, |s, top| match req {
            Request::AbortEval { txn, .. } => {
                t.time("engine.abort_eval", root, || {
                    r.engine.abort_eval(&r.state, txn, s, top).map(drop)
                })
                .expect("known transaction")
            }
            Request::DeleteBaseEval { tuple, .. } => {
                t.time("engine.delete_base_eval", root, || {
                    r.engine.delete_base_eval(&r.state, tuple, s, top).map(drop)
                })
                .expect("known tuple")
            }
            _ => t.time("engine.eval_tuples", root, || {
                drop(r.engine.eval_tuples(&r.state, s, &Valuation::constant(top)))
            }),
        });
        t.end(root);
    }

    /// Ends the traced run: stops the service, adopts the storage
    /// probe's intervals, turns spans and counters into the per-layer
    /// metrics, probes the final state, and writes the span file.
    pub fn finish(
        mut self,
        report: &mut Report,
        ctx: &Ctx,
        workload: &str,
        server: InProcess<S>,
        wall_ns: u64,
    ) {
        drop(self.client);
        let counts = server.counts.clone();
        let pm = server.finish();
        let tally = &self.tally;
        let requests = tally.requests as f64;
        let t = &mut self.tracer;
        {
            let c = counts.lock().expect("probe poisoned");
            t.adopt(&c.events, "service.request");
            report.set("backend.sync_us", us(median(&c.sync_ns)));
            report.set(
                "backend.syncs_per_append",
                ratio(c.syncs as f64, tally.appends as f64),
            );
            report.set(
                "backend.bytes_per_sync",
                ratio(c.append_bytes as f64, c.syncs as f64),
            );
            report.set("backend.write_atomic_ms", ms(median(&c.atomic_ns)));
        }
        let med = |name: &str| median(&t.durations(name));
        let sum = |name: &str| t.durations(name).iter().sum::<u64>() as f64;
        let updates = tally.appended_updates as f64;

        report.set("proto.parse_us", us(med("proto.parse")));
        report.set("proto.print_us", us(med("proto.print")));
        report.set(
            "proto.bytes_in_per_req",
            ratio(tally.bytes_in as f64, requests),
        );
        report.set("service.request_us", us(med("service.request")));
        let mut overhead = tally.overhead_ns.clone();
        overhead.sort_unstable();
        report.set(
            "service.overhead_us",
            overhead
                .get(overhead.len() / 2)
                .map_or(0.0, |&ns| us(ns as f64)),
        );
        report.set(
            "service.batches_per_req",
            ratio(pm.batches as f64, requests),
        );
        report.set(
            "service.coalesced_frac",
            ratio(pm.coalesced as f64, requests),
        );
        report.set("service.overloaded", tally.overloaded as f64);

        let eval_rows = med("values.eval_rows");
        let engine_eval = [
            "engine.abort_eval",
            "engine.delete_base_eval",
            "engine.eval_tuples",
        ]
        .iter()
        .flat_map(|name| t.durations(name))
        .collect::<Vec<_>>();
        report.set("values.eval_rows_us", us(eval_rows));
        if eval_rows > 0.0 {
            report.set("values.render_frac", 1.0 - median(&engine_eval) / eval_rows);
        }
        report.set("engine.abort_eval_us", us(med("engine.abort_eval")));
        report.set(
            "engine.delete_base_eval_us",
            us(med("engine.delete_base_eval")),
        );
        report.set("engine.eval_tuples_us", us(med("engine.eval_tuples")));

        report.set(
            "log.parse_us_per_update",
            us(ratio(sum("log.parse"), updates)),
        );
        report.set(
            "engine.validate_us_per_update",
            us(ratio(sum("engine.validate_append"), updates)),
        );
        report.set(
            "engine.append_us_per_update",
            us(ratio(sum("engine.append"), updates)),
        );
        report.set(
            "wal.encode_us_per_record",
            us(ratio(sum("wal.encode_record"), tally.appends as f64)),
        );
        report.set(
            "wal.bytes_per_update",
            ratio(tally.wal_bytes as f64, updates),
        );
        report.set(
            "engine.dirty_per_append",
            ratio(tally.newly_dirty as f64, tally.appends as f64),
        );
        report.set(
            "arena.nodes_per_update",
            ratio(tally.append_nodes as f64, updates),
        );

        let symbolic = t.durations("engine.abort_symbolic");
        report.set("engine.abort_symbolic_ms", ms(median(&symbolic)));
        report.set("engine.abort_symbolic_growth", decile_growth(&symbolic));
        report.set(
            "arena.nodes_per_symbolic",
            ratio(tally.symbolic_nodes as f64, symbolic.len() as f64),
        );
        report.set(
            "engine.render_us_per_row",
            us(ratio(sum("engine.render"), tally.symbolic_rows as f64)),
        );
        report.set("engine.equivalent_ms", ms(med("engine.equivalent")));
        if tally.snapshot_bytes > 0 {
            report.set(
                "snapshot.bytes_per_update",
                tally.snapshot_bytes as f64 / self.replica.state.update_count() as f64,
            );
        }

        report.set("durable.append_growth", decile_growth(&tally.append_ns));

        report.set(
            "engine.cached_entries_end",
            self.replica.engine.cached_entries() as f64,
        );
        let cache = self.replica.engine.nf_cache();
        report.set(
            "nf.cache_hit_frac",
            ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        );
        report.check(
            "the recovered service is where the lock-step replica is",
            pm.recovered_seq == self.replica.seq && pm.eval_lines == self.replica.eval_lines(),
        );
        report.set("durable.recover_ms", pm.recover_s * 1e3);
        probe_state(report, &mut self.replica.engine, &mut self.replica.state);
        probe_appends(report, &tally.appended);
        finish_trace(report, ctx, workload, &self.tracer, "request", wall_ns);
    }
}

/// Times the public entry points of `core` and `storage` on a final
/// state: from-scratch normalisation, the evaluators serial and
/// parallel, the snapshot codec, and `Witnesses` rendering.
pub fn probe_state(report: &mut Report, engine: &mut Engine, state: &mut ReplayState) {
    let updates = state.update_count().max(1) as f64;
    // Certify whatever is still dirty (everything, for a service
    // replica, which never certifies; nothing after `replay_batch`).
    let dirty = state.dirty_count();
    let t0 = Instant::now();
    let certification = engine.certify(state);
    if dirty > 0 {
        report.set(
            "engine.certify_us_per_update",
            us(t0.elapsed().as_nanos() as f64) / updates,
        );
    }
    report.set("nf.saturated", certification.saturated.len() as f64);

    let raw: Vec<NodeId> = state.tuples().map(|(_, id)| id).collect();
    // `(raw root, certified normal form)` of every certified tuple.
    let certified: Vec<(NodeId, NodeId)> = state
        .tuples()
        .filter_map(|(name, raw)| Some((raw, state.certified_nf(name)?)))
        .collect();
    let mut scratch = engine.arena().clone();
    let t0 = Instant::now();
    nf_roots_in(&mut scratch, &raw, &mut NfMemo::new());
    report.set("nf.scratch_ms", ms(t0.elapsed().as_nanos() as f64));
    drop(scratch);

    // `analyze` walks the whole arena below its root, so size up a
    // fixed-size sample of the tuples, not all of them. The tree a normal
    // form stands for is exponentially larger than its DAG (and saturates
    // `u128`), so the ratio is reported as its decimal logarithm.
    let arena = engine.arena();
    let stride = certified.len().div_ceil(SIZED_TUPLES).max(1);
    let sized: Vec<_> = (0..certified.len())
        .step_by(stride)
        .map(|i| (certified[i].0, arena.analyze(certified[i].1)))
        .collect();
    let tree: f64 = sized.iter().map(|(_, s)| s.logical_size as f64).sum();
    let dag: f64 = sized.iter().map(|(_, s)| s.dag_size as f64).sum();
    report.set("nf.tree_to_dag_log10", ratio(tree, dag).max(1.0).log10());

    // Evaluation cost per reachable node, and what two threads buy.
    let nodes = arena.topo_order_roots(&raw).len().max(1) as f64;
    let best_of = |f: &mut dyn FnMut()| {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as u64
            })
            .min()
            .expect("five runs") as f64
    };
    let serial_bool = best_of(&mut || {
        drop(eval_roots_in(
            arena,
            &raw,
            &Bool,
            &Valuation::constant(true),
            &mut DenseMemo::new(),
        ))
    });
    report.set("eval.ns_per_node_bool", serial_bool / nodes);
    let all_worlds = Valuation::constant(u64::MAX);
    let serial_worlds = best_of(&mut || {
        drop(eval_roots_in(
            arena,
            &raw,
            &Worlds,
            &all_worlds,
            &mut DenseMemo::new(),
        ))
    });
    report.set("eval.ns_per_node_worlds", serial_worlds / nodes);
    let pool = MemoPool::new();
    let par_worlds = best_of(&mut || {
        drop(par_eval_roots_in(
            arena,
            &raw,
            &Worlds,
            &all_worlds,
            &pool,
            2,
        ))
    });
    report.set(
        "parallel.roots_speedup_t2",
        ratio(serial_worlds, par_worlds),
    );
    // One root (the largest normal form sized above), 64 single-abort
    // valuations.
    if let Some(&(big, _)) = sized.iter().max_by_key(|(_, s)| s.dag_size) {
        let aborts: Vec<Valuation<u64>> = state
            .txn_atoms()
            .take(64)
            .map(|(_, atom)| all_worlds.clone().with(atom, Worlds.zero()))
            .collect();
        let serial = best_of(&mut || {
            drop(eval_many_in(
                arena,
                big,
                &Worlds,
                &aborts,
                &mut DenseMemo::new(),
            ))
        });
        let par = best_of(&mut || drop(par_eval_many_in(arena, big, &Worlds, &aborts, &pool, 2)));
        report.set("parallel.many_speedup_t2", ratio(serial, par));
    }
    report.set("pool.dispatches", WorkerPool::global().dispatches() as f64);

    let t0 = Instant::now();
    let rows = values::eval_rows(engine, state, StructureId::Witnesses, None, 1);
    report.set(
        "values.eval_rows_witnesses_us",
        us(t0.elapsed().as_nanos() as f64),
    );
    drop(rows);

    let t0 = Instant::now();
    let bytes = snapshot::encode(engine, state, 0);
    report.set("snapshot.encode_ms", ms(t0.elapsed().as_nanos() as f64));
    report.set("snapshot.bytes_per_update", bytes.len() as f64 / updates);
    let t0 = Instant::now();
    let decoded = snapshot::decode(&bytes);
    report.set("snapshot.decode_ms", ms(t0.elapsed().as_nanos() as f64));
    report.check("the final state's snapshot decodes", decoded.is_ok());
}

/// Replays `appended` through a `DurableEngine` over `MemStorage`,
/// timing the durable write path with the device taken out, then the
/// WAL scan, a cold reopen from that WAL, and the checkpoint.
pub fn probe_appends(report: &mut Report, appended: &[UpdateLog]) {
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("empty storage opens");
    let mut each = Vec::new();
    for log in appended {
        let t0 = Instant::now();
        db.append(log).expect("the service accepted this log");
        each.push(t0.elapsed().as_nanos() as u64);
    }
    report.set("durable.append_us", us(median(&each)));
    let wal_bytes = db.storage().blob(WAL_BLOB).unwrap_or_default().to_vec();
    let t0 = Instant::now();
    let scan = wal::scan(&wal_bytes);
    report.set("wal.scan_ms", ms(t0.elapsed().as_nanos() as f64));
    report.check(
        "the WAL scans back to every appended record",
        scan.is_ok_and(|s| s.records.len() == appended.len()),
    );
    let t0 = Instant::now();
    let reopened = DurableEngine::open(db.storage().clone());
    report.set("durable.open_ms", ms(t0.elapsed().as_nanos() as f64));
    report.check(
        "a cold reopen replays every record",
        reopened.is_ok_and(|(_, r)| r.wal_records_applied == appended.len()),
    );
    let t0 = Instant::now();
    db.snapshot().expect("memory never fails");
    report.set("durable.snapshot_ms", ms(t0.elapsed().as_nanos() as f64));
}

/// Writes the span file, prints where the time went (self time per
/// span name — the rows of each tree sum to its root span), and records
/// what tracing added on top of the requests themselves.
pub fn finish_trace(
    report: &mut Report,
    ctx: &Ctx,
    workload: &str,
    tracer: &Tracer,
    root_name: &str,
    wall_ns: u64,
) {
    let path = ctx.out.join(format!("trace-{workload}.jsonl"));
    tracer.write_jsonl(&path).expect("span file is writable");
    let spans = tracer.spans();
    let self_times = tracer.self_times();
    let mut by_name: Vec<(&str, u64, u64, u64)> = Vec::new(); // name, count, total, self
    for (span, self_ns) in spans.iter().zip(&self_times) {
        match by_name.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += self_ns;
            }
            None => by_name.push((span.name, 1, span.duration_ns(), *self_ns)),
        }
    }
    println!(
        "  {:<26} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, self_ns) in &by_name {
        println!(
            "  {name:<26} {count:>8} {:>14.3} {:>14.3}",
            ms(*total as f64),
            ms(*self_ns as f64)
        );
    }
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    report.check(
        "self times sum to the root spans",
        self_times.iter().sum::<u64>() == roots,
    );
    let requests: u64 = tracer.durations(root_name).iter().sum();
    report.set(
        "trace_overhead_frac",
        ratio(wall_ns.saturating_sub(requests) as f64, requests as f64),
    );
    println!("  {} spans -> {}", spans.len(), path.display());
}
