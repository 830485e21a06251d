//! `read_concrete` and `read_concrete_tcp`: two closed-loop clients ask
//! concrete what-if questions (70 % `abort`, 20 % `delete`, 10 % `eval`)
//! of a static preloaded database. The two workloads are the same
//! requests against the same data; the second goes through the real
//! `uprov-service --listen` child over loopback, so the difference
//! between them is the transport and the process boundary.

use std::time::{Duration, Instant};

use benchkit::TestRng;
use uprov_service::proto::Request;
use uprov_storage::MemStorage;
use uprov_workload::Workload;

use crate::harness::{self, InProcess, OverTcp, Sample, Server, Transport};
use crate::inputs::{append_line, concrete_pool, config};
use crate::layers::Traced;
use crate::oracle::{check_recovery, is_ok, verify_concrete, Replica};
use crate::report::Report;
use crate::stats::Laps;
use crate::storage_probe::CountingStorage;
use crate::Ctx;

/// Closed-loop clients.
const CLIENTS: u64 = 2;

/// Distinct-ish queries the clients draw from: large enough that the
/// traffic is not a handful of repeated questions, small enough that
/// the replica can answer every one of them after the run.
const POOL: usize = 1024;

/// Requests sent before the timed phase, so that lazily built state
/// (worker pool, memo buffers) exists.
const WARM_UP: usize = 8;

/// Laps the timed phase is cut into, each the same number of
/// consecutive replies; `ops_per_s` and `p50_ms` are the fast decile
/// over them ([`crate::stats::fast_decile`]).
const LAPS: usize = 30;

/// Fewer laps than [`LAPS`] rather than laps of fewer replies than
/// this: the time between a handful of replies says nothing of a rate.
const MIN_LAP_REPLIES: usize = 20;

/// The preloaded database and the questions asked of it.
struct Inputs {
    workload: Workload,
    pool: Vec<Request>,
    lines: Vec<String>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let cfg = config(ctx.seed, ctx.scale.of(500), ctx.scale.of(2000), 30, 3);
    let workload = Workload::generate(cfg);
    let pool = concrete_pool(&workload, ctx.scale.of(POOL), &mut TestRng::new(ctx.seed));
    let lines = pool.iter().map(Request::to_string).collect();
    Inputs {
        workload,
        pool,
        lines,
    }
}

/// Appends the whole log as one request and warms the service up.
fn preload<T: Transport>(conn: &mut T, inputs: &Inputs) {
    let reply = conn.call(&append_line(&inputs.workload.log));
    assert!(is_ok(&reply, "appended"), "preload answered {reply}");
    for line in inputs.lines.iter().take(WARM_UP) {
        let reply = conn.call(line);
        assert!(is_ok(&reply, "rows"), "warm-up answered {reply}");
    }
}

/// The timed phase and everything after it, over any [`Server`].
fn measure<V: Server>(ctx: &Ctx, report: &mut Report, server: V, inputs: &Inputs) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut conn = server.connect();
                let mut rng = TestRng::new(ctx.seed * CLIENTS + c + 1);
                s.spawn(move || {
                    harness::concrete_client(&mut conn, &inputs.lines, &mut rng, || {
                        Instant::now() >= deadline
                    })
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    report.set("peak_rss_mb", server.peak_rss_mb());
    let pm = server.finish();

    let latencies: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    report.detail("abort+delete+eval", &latencies);
    samples.sort_by_key(|s| s.done);
    assert!(
        !samples.is_empty(),
        "no request completed in the timed phase"
    );
    let per_lap = (samples.len() / LAPS)
        .max(MIN_LAP_REPLIES)
        .min(samples.len());
    let mut laps = Laps::default();
    let mut from = started;
    for lap in samples.chunks_exact(per_lap) {
        let until = lap.last().expect("chunks are not empty").done;
        let latencies: Vec<u64> = lap.iter().map(|s| s.ns).collect();
        laps.push(lap.len(), (until - from).as_secs_f64(), &latencies);
        from = until;
    }
    report.laps(&laps);
    let mut replica = Replica::default();
    replica.append(&inputs.workload.log);
    let (attempted, wrong) = verify_concrete(&mut replica, &[], &inputs.pool, &mut samples);
    report.attempted += attempted;
    report.failed += wrong;
    if wrong > 0 {
        println!("CHECK FAILED: {wrong} of {attempted} replies differ from the oracle");
    }
    check_recovery(report, &mut replica, &pm);
}

/// `read_concrete`, untraced: in-process `serve_line` over `MemStorage`.
pub fn run_in_process(ctx: &Ctx, report: &mut Report) {
    let (server, inputs) = ctx.set_up(report, || {
        let inputs = inputs(ctx);
        let server = InProcess::start(CountingStorage::new(MemStorage::new()));
        preload(&mut server.connect(), &inputs);
        (server, inputs)
    });
    measure(ctx, report, server, &inputs);
}

/// `read_concrete_tcp`, untraced: the child process over loopback.
pub fn run_over_tcp(ctx: &Ctx, report: &mut Report) {
    let (server, inputs) = ctx.set_up(report, || {
        let inputs = inputs(ctx);
        let server = OverTcp::start(&ctx.service_bin, &ctx.out);
        preload(&mut server.connect(), &inputs);
        (server, inputs)
    });
    measure(ctx, report, server, &inputs);
}

/// Either workload, traced: one client, each request a span tree on an
/// in-process service plus its shadow on the replica. With `tcp`, every
/// request is also sent to the child, which is what `net.*` compares.
pub fn trace(ctx: &Ctx, report: &mut Report, tcp: bool) {
    let t0 = Instant::now();
    let inputs = inputs(ctx);
    report.set("workload.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    let epoch = Instant::now();
    let server = InProcess::start(CountingStorage::traced(MemStorage::new(), epoch));
    preload(&mut server.connect(), &inputs);
    let child = tcp.then(|| {
        let child = OverTcp::start(&ctx.service_bin, &ctx.out);
        preload(&mut child.connect(), &inputs);
        child
    });
    let mut conn = child.as_ref().map(Server::connect);
    let mut traced = Traced::new(server.connect(), epoch);
    traced.preload(&inputs.workload.log);

    let mut rng = TestRng::new(ctx.seed * CLIENTS + 1);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let mut round_trips = Vec::new();
    while Instant::now() < deadline {
        let line = &inputs.lines[rng.below(inputs.lines.len())];
        let reply = traced.request(line);
        report.attempted += 1;
        report.failed += u64::from(!is_ok(&reply, "rows"));
        if let Some(conn) = conn.as_mut() {
            let t0 = Instant::now();
            let over_tcp = conn.call(line);
            round_trips.push(t0.elapsed().as_nanos() as u64);
            report.check(
                "the child answers like the in-process service",
                over_tcp == reply,
            );
        }
    }
    // Time spent talking to the child is not tracing overhead.
    let wall_ns = started.elapsed().as_nanos() as u64 - round_trips.iter().sum::<u64>();
    if let (Some(conn), Some(child)) = (conn, child) {
        let in_process = crate::stats::median(&traced.tracer.durations("request"));
        let over_tcp = crate::stats::median(&round_trips);
        report.set("net.rtt_overhead_ms", (over_tcp - in_process) / 1e6);
        report.set(
            "net.bytes_out_per_resp",
            conn.bytes_in as f64 / round_trips.len() as f64,
        );
        drop(conn);
        drop(child.finish());
    }
    let name = if tcp {
        "read_concrete_tcp"
    } else {
        "read_concrete"
    };
    traced.finish(report, ctx, name, server, wall_ns);
}
