//! `replay_batch`: the paper's own experiment. Library only, one thread,
//! no service: parse an update log, replay it, certify every normal
//! form, evaluate the database and serialise the result — provenance and
//! normal forms as a by-product of update evaluation.

use std::time::{Duration, Instant};

use uprov_core::{check_nf_preserves_eval_in, DenseMemo, NfMemo, NodeId, Valuation};
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_service::values::{self, StructureId};
use uprov_storage::{snapshot, DurableEngine, MemStorage, SNAPSHOT_BLOB};
use uprov_structures::Worlds;
use uprov_workload::Workload;

use crate::harness::peak_rss_mb;
use crate::inputs::config;
use crate::layers;
use crate::oracle::prov_nodes_per_update;
use crate::report::Report;
use crate::stats::{median_f64, Laps};
use crate::trace::Tracer;
use crate::Ctx;

/// What one pass of the pipeline leaves behind.
struct Pipelined {
    engine: Engine,
    state: ReplayState,
    saturated: usize,
    rows: Vec<(String, String)>,
    snapshot: Vec<u8>,
}

/// Runs `f`, as a span under `root` when the run is traced.
fn stage<T>(
    spans: &mut Option<(&mut Tracer, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some((tracer, root)) => tracer.time(name, *root, f),
        None => f(),
    }
}

/// One repetition, on a fresh [`Engine`]; each step a span if `spans`
/// names the tracer and the repetition's root span.
fn pipeline(text: &str, mut spans: Option<(&mut Tracer, usize)>) -> Pipelined {
    let spans = &mut spans;
    let log = stage(spans, "log.parse", || text.parse::<UpdateLog>());
    let log = log.expect("generated log parses");
    let mut engine = Engine::new();
    let state = stage(spans, "engine.replay", || engine.replay(&log));
    let mut state = state.expect("generated log replays");
    let certification = stage(spans, "engine.certify", || engine.certify(&mut state));
    let rows = stage(spans, "values.eval_rows", || {
        values::eval_rows(&engine, &state, StructureId::Worlds, None, 1)
    });
    let snapshot = stage(spans, "snapshot.encode", || {
        snapshot::encode(&engine, &state, 0)
    });
    Pipelined {
        engine,
        state,
        saturated: certification.saturated.len(),
        rows,
        snapshot,
    }
}

fn generate(ctx: &Ctx) -> String {
    let cfg = config(ctx.seed, ctx.scale.of(2000), ctx.scale.of(20_000), 30, 3);
    Workload::generate(cfg).log.to_string()
}

/// Loads the snapshot back the way a restart would, three times, and
/// checks the recovered database evaluates to the same rows.
fn recover(report: &mut Report, last: &Pipelined) -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut storage = MemStorage::new();
        storage.set_blob(SNAPSHOT_BLOB, last.snapshot.clone());
        let t0 = Instant::now();
        let (db, recovery) = DurableEngine::open(storage).expect("own snapshot decodes");
        times.push(t0.elapsed().as_secs_f64());
        let rows = values::eval_rows(db.engine(), db.state(), StructureId::Worlds, None, 1);
        report.check(
            "snapshot round trip preserves every row and certified normal form",
            recovery.snapshot_loaded
                && rows == last.rows
                && db.state().update_count() == last.state.update_count()
                && db.state().certified_count() == last.state.certified_count(),
        );
    }
    median_f64(&times)
}

/// Normal forms must evaluate like the raw provenance they stand for.
fn check_nf_preserves_eval(report: &mut Report, last: &Pipelined) {
    let roots: Vec<NodeId> = last.state.tuples().map(|(_, id)| id).collect();
    let mut top = Valuation::constant(u64::MAX);
    for (name, atom) in last.state.base_atoms().chain(last.state.txn_atoms()) {
        top.set(atom, values::name_mask(name, 0x0301_21D5));
    }
    let aborted = last
        .state
        .txn_atoms()
        .step_by(97)
        .fold(top.clone(), |v, (_, atom)| v.with(atom, 0));
    let mut arena = last.engine.arena().clone();
    let checked = check_nf_preserves_eval_in(
        &mut arena,
        &roots,
        &Worlds,
        &[top, aborted],
        &mut NfMemo::new(),
        &mut DenseMemo::new(),
    );
    report.check(
        "normal forms preserve evaluation (oracle::check_nf_preserves_eval_in)",
        checked == Ok(2 * roots.len()),
    );
}

/// The untraced run.
pub fn run(ctx: &Ctx, report: &mut Report) {
    // Set-up: generate and print the log, and one warm-up repetition.
    let text = ctx.set_up(report, || {
        let text = generate(ctx);
        drop(pipeline(&text, None));
        text
    });

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut reps = Vec::new();
    let mut last = None;
    while Instant::now() < deadline {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(pipeline(&text, None));
        reps.push(t0.elapsed().as_nanos() as u64);
    }
    report.set("peak_rss_mb", peak_rss_mb(None));
    let last = last.expect("at least one repetition");
    let updates = last.state.update_count();

    // Each repetition is a lap of its own: `updates` operations, one
    // latency.
    report.attempted += reps.len() as u64;
    report.detail("repetition", &reps);
    let mut laps = Laps::default();
    for rep in &reps {
        laps.push(updates, *rep as f64 / 1e9, std::slice::from_ref(rep));
    }
    report.laps(&laps);
    let updates = updates as f64;
    println!(
        "  updates={updates} tuples={} arena_nodes={}",
        last.rows.len(),
        last.engine.arena().len()
    );
    println!("  recovered in {:.4} s", recover(report, &last));
    report.set(
        "stored_bytes_per_update",
        last.snapshot.len() as f64 / updates,
    );
    report.set(
        "prov_nodes_per_update",
        prov_nodes_per_update(&last.engine, &last.state),
    );

    report.check("no tuple saturated the normaliser", last.saturated == 0);
    report.check(
        "every tuple has a certified normal form",
        last.state.certified_count() == last.rows.len(),
    );
    check_nf_preserves_eval(report, &last);
}

/// The traced run: the same repetitions, each stage a span, then the
/// layer probes on the last repetition's state.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let t0 = Instant::now();
    let text = generate(ctx);
    report.set("workload.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(pipeline(&text, None));

    let mut tracer = Tracer::new(Instant::now());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let mut last = None;
    let mut req = 0;
    while Instant::now() < deadline {
        drop(last.take());
        let root = tracer.begin("repetition", None, req);
        last = Some(pipeline(&text, Some((&mut tracer, root))));
        tracer.end(root);
        req += 1;
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut last = last.expect("at least one repetition");
    let updates = last.state.update_count() as f64;
    report.attempted += req;

    let per_update = |name: &str| {
        let d = tracer.durations(name);
        d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3 / updates
    };
    report.set("log.parse_us_per_update", per_update("log.parse"));
    report.set("engine.replay_us_per_update", per_update("engine.replay"));
    report.set("engine.certify_us_per_update", per_update("engine.certify"));
    report.set(
        "values.eval_rows_us",
        crate::stats::median(&tracer.durations("values.eval_rows")) / 1e3,
    );
    report.check("no tuple saturated the normaliser", last.saturated == 0);
    let recover_s = recover(report, &last);
    report.set("durable.recover_ms", recover_s * 1e3);
    layers::probe_state(report, &mut last.engine, &mut last.state);
    layers::probe_appends(report, std::slice::from_ref(&text.parse().expect("parses")));
    layers::finish_trace(report, ctx, "replay_batch", &tracer, "repetition", wall_ns);
}
