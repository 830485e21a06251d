//! `append_durable`: a client appends two-transaction slices to a
//! file-backed service (real `fsync`), checkpointing every so often;
//! then the process "crashes" and the storage is reopened. Writes only
//! — parse, validate, WAL, fsync, checkpoint stalls, recovery.
//! Evaluation and normal forms do nothing here.
//!
//! One client, because with two the service's group commit is bistable:
//! the clients either fall into step (every batch holds both appends,
//! one fsync per pair) or alternate (every batch holds one), the second
//! at half the throughput of the first, and which of the two a run gets
//! changes with the host (README, observation 8). One client always
//! gets a batch and an fsync per append.
//!
//! The database grows as the script runs, so the script — not the clock
//! — is fixed, and two commits under comparison do exactly the same
//! work. One pass of the script over a fresh directory is a lap; laps
//! repeat until `--seconds` have passed, and the run reports the fast
//! decile over them ([`crate::stats::fast_decile`]).

use std::time::Instant;

use uprov_engine::UpdateLog;
use uprov_storage::FileStorage;
use uprov_workload::Workload;

use crate::harness::{self, InProcess, Sample, Server, TempDir, Transport};
use crate::inputs::{append_line, config, slices, split_preload};
use crate::layers::Traced;
use crate::oracle::{check_recovery, is_ok, Replica};
use crate::report::Report;
use crate::stats::{fast_decile, Better, Laps};
use crate::storage_probe::CountingStorage;
use crate::Ctx;

/// Appends in the script: under two seconds of this sandbox's time when
/// the benchmark was defined, so a run has a dozen laps to choose from.
const APPENDS: usize = 2000;

/// Laps run however short `--seconds` is.
const MIN_LAPS: usize = 3;

/// Transactions per appended slice.
const SLICE_TXNS: usize = 2;

/// A `snapshot` request follows every this many appends.
const SNAPSHOT_EVERY: usize = 1000;

const SNAPSHOT_LINE: &str = "{\"op\":\"snapshot\"}";

/// The script: a base-only preload, then transaction-only slices.
struct Inputs {
    preload: UpdateLog,
    slices: Vec<UpdateLog>,
    lines: Vec<String>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let appends = ctx.scale.of(APPENDS);
    let cfg = config(ctx.seed, ctx.scale.of(500), appends * SLICE_TXNS, 30, 3);
    let log = Workload::generate(cfg).log;
    let (preload, tail) = split_preload(&log, 0);
    let slices = slices(tail, SLICE_TXNS);
    let lines = slices.iter().map(append_line).collect();
    Inputs {
        preload,
        slices,
        lines,
    }
}

fn start(ctx: &Ctx, inputs: &Inputs, epoch: Option<Instant>) -> (InProcess<FileStorage>, TempDir) {
    let dir = TempDir::create(&ctx.out, "append").expect("scratch directory");
    let files = FileStorage::open(dir.path()).expect("scratch directory opens");
    let storage = match epoch {
        Some(epoch) => CountingStorage::traced(files, epoch),
        None => CountingStorage::new(files),
    };
    let server = InProcess::start(storage);
    let reply = server.connect().call(&append_line(&inputs.preload));
    assert!(is_ok(&reply, "appended"), "preload answered {reply}");
    (server, dir)
}

/// Sends the script in order; returns the appends' and the
/// checkpoints' samples.
fn client<T: Transport>(conn: &mut T, lines: &[String]) -> (Vec<Sample>, Vec<Sample>) {
    let mut appends = Vec::new();
    let mut snapshots = Vec::new();
    for (ix, line) in lines.iter().enumerate() {
        appends.push(harness::call(conn, ix as u32, line, "appended").0);
        if (ix + 1) % SNAPSHOT_EVERY == 0 {
            snapshots.push(harness::call(conn, 0, SNAPSHOT_LINE, "snapshotted").0);
        }
    }
    (appends, snapshots)
}

/// Acknowledged `seq`s must be exactly the positions after the preload;
/// returns the slices in acknowledged order.
fn acked_order<'a>(
    report: &mut Report,
    inputs: &'a Inputs,
    appends: &mut [Sample],
) -> Vec<&'a UpdateLog> {
    appends.sort_by_key(|s| s.seq);
    let contiguous = appends
        .iter()
        .enumerate()
        .all(|(i, s)| s.seq == i as u64 + 2);
    report.check(
        "acknowledged seqs are exactly 2..=N+1, each once",
        contiguous && appends.len() == inputs.slices.len(),
    );
    appends
        .iter()
        .filter(|s| s.seq != 0)
        .map(|s| &inputs.slices[s.req as usize])
        .collect()
}

/// One pass of the script over a fresh directory.
struct Lap {
    inputs: Inputs,
    // Declared before the directory, so the service stops first.
    server: InProcess<FileStorage>,
    _dir: TempDir,
    set_up_s: f64,
    wall_s: f64,
    appends: Vec<Sample>,
    snapshots: Vec<Sample>,
}

fn lap(ctx: &Ctx) -> Lap {
    let t0 = Instant::now();
    let inputs = inputs(ctx);
    let (server, dir) = start(ctx, &inputs, None);
    let set_up_s = t0.elapsed().as_secs_f64();

    let started = Instant::now();
    let (appends, snapshots) = client(&mut server.connect(), &inputs.lines);
    Lap {
        inputs,
        server,
        _dir: dir,
        set_up_s,
        wall_s: started.elapsed().as_secs_f64(),
        appends,
        snapshots,
    }
}

/// The untraced run.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let begun = Instant::now();
    let mut setups = Vec::new();
    let mut laps = Laps::default();
    let mut last: Option<Lap> = None;
    while laps.len() < MIN_LAPS || begun.elapsed().as_secs_f64() < ctx.seconds {
        // Stops the previous lap's service and removes its directory.
        drop(last.take());
        let lap = lap(ctx);
        setups.push(lap.set_up_s);
        let latencies: Vec<u64> = lap.appends.iter().map(|s| s.ns).collect();
        let replies = lap.appends.len() + lap.snapshots.len();
        laps.push(replies, lap.wall_s, &latencies);
        report.attempted += replies as u64;
        let failed = lap.appends.iter().chain(&lap.snapshots);
        report.failed += failed.filter(|s| s.seq == 0).count() as u64;
        last = Some(lap);
    }
    report.set("setup_s", fast_decile(&setups, Better::Lower));
    report.laps(&laps);

    // The last lap's service is the one that crashes and recovers.
    let Lap {
        inputs,
        server,
        _dir,
        wall_s,
        mut appends,
        snapshots,
        ..
    } = last.expect("MIN_LAPS > 0");
    report.set("peak_rss_mb", server.peak_rss_mb());
    let counts = server.counts.clone();
    let pm = server.finish();

    // Arrival order is lost by the sort below; summarise first.
    let latencies: Vec<u64> = appends.iter().map(|s| s.ns).collect();
    let checkpoints: Vec<u64> = snapshots.iter().map(|s| s.ns).collect();
    report.detail("append (last lap)", &latencies);
    report.detail("snapshot (last lap)", &checkpoints);

    let order = acked_order(report, &inputs, &mut appends);
    let mut replica = Replica::default();
    replica.append(&inputs.preload);
    order.iter().for_each(|log| replica.append(log));
    {
        let c = counts.lock().expect("probe poisoned");
        println!(
            "  updates={} updates_per_s={:.0} syncs={} wal_appends={} checkpoints={}",
            replica.state.update_count(),
            replica.state.update_count() as f64 / wall_s,
            c.syncs,
            c.appends,
            c.atomic_writes / 2,
        );
    }
    check_recovery(report, &mut replica, &pm);
}

/// The traced run: the same script from one client.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let t0 = Instant::now();
    let inputs = inputs(ctx);
    report.set("workload.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    let epoch = Instant::now();
    let (server, _dir) = start(ctx, &inputs, Some(epoch));
    let mut traced = Traced::new(server.connect(), epoch);
    traced.preload(&inputs.preload);

    let started = Instant::now();
    for (sent, line) in inputs.lines.iter().enumerate() {
        let reply = traced.request(line);
        report.attempted += 1;
        report.failed += u64::from(!is_ok(&reply, "appended"));
        if (sent + 1) % SNAPSHOT_EVERY == 0 {
            let reply = traced.request(SNAPSHOT_LINE);
            report.attempted += 1;
            report.failed += u64::from(!is_ok(&reply, "snapshotted"));
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    traced.finish(report, ctx, "append_durable", server, wall_ns);
}
