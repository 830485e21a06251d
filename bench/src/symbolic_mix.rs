//! `symbolic_mix`: reads beside writes. Client A runs a fixed script on
//! the single writer — append, append, symbolic abort of an acknowledged
//! transaction, and every tenth round an equivalence query against an
//! axiom-rewritten variant of everything acknowledged so far. Client B
//! asks concrete `abort` questions in a closed loop until A is done:
//! the same code as `read_concrete`, but waiting behind A's
//! write-locked operations.
//!
//! Incremental normal forms, rewriting, substitution and rendering
//! dominate. The state grows, so A's script is fixed ([`ROUNDS`]) and
//! `--seconds` is ignored.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use benchkit::TestRng;
use uprov_engine::UpdateLog;
use uprov_service::proto::Request;
use uprov_service::values::StructureId;
use uprov_storage::MemStorage;
use uprov_workload::{equivalent_variant, Variant, Workload};

use crate::harness::{self, InProcess, Sample, Server, Transport};
use crate::inputs::{append_line, config, slices, split_preload};
use crate::layers::Traced;
use crate::oracle::{check_recovery, is_ok, verify_concrete, Replica};
use crate::report::Report;
use crate::stats::Laps;
use crate::storage_probe::CountingStorage;
use crate::Ctx;

/// Rounds of A's script: ≈ 15 s of this sandbox's time when the
/// benchmark was defined. `abort_symbolic` slows down as the script
/// goes on (README, observation 3), so twice the rounds take several
/// times as long.
const ROUNDS: usize = 240;

/// Transactions preloaded before the script starts.
const PRELOAD_TXNS: usize = 200;

/// An `equiv` follows every this many rounds.
const EQUIV_EVERY: usize = 10;

/// Distinct `abort` questions client B draws from.
const B_POOL: usize = 16;

const VARIANTS: [Variant; 3] = [
    Variant::PermuteModifySources,
    Variant::DeadSelfModify,
    Variant::ModifyFromDeleted,
];

/// What A sends, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Append,
    Symbolic,
    Equiv,
}

impl Kind {
    fn ok(self) -> &'static str {
        match self {
            Kind::Append => "appended",
            Kind::Symbolic => "symbolic",
            Kind::Equiv => "equiv",
        }
    }
}

struct Inputs {
    preload: UpdateLog,
    /// One-transaction slices, two per round.
    slices: Vec<UpdateLog>,
    /// A's script.
    script: Vec<(Kind, String)>,
    /// B's questions.
    pool: Vec<Request>,
    pool_lines: Vec<String>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let rounds = ctx.scale.of(ROUNDS);
    let preload_txns = ctx.scale.of(PRELOAD_TXNS);
    let cfg = config(
        ctx.seed,
        ctx.scale.of(200),
        preload_txns + 2 * rounds,
        10,
        2,
    );
    let w = Workload::generate(cfg);
    let (preload, tail) = split_preload(&w.log, preload_txns);
    let slices = slices(tail, 1);
    let mut rng = TestRng::new(ctx.seed);
    let mut script = Vec::new();
    for round in 0..rounds {
        for slice in &slices[2 * round..2 * round + 2] {
            script.push((Kind::Append, append_line(slice)));
        }
        let acked = preload_txns + 2 * (round + 1);
        let txn = w.txn_names[rng.below(acked)].clone();
        script.push((Kind::Symbolic, Request::AbortSymbolic { txn }.to_string()));
        if (round + 1) % EQUIV_EVERY == 0 {
            let prefix = UpdateLog {
                base: w.log.base.clone(),
                txns: w.log.txns[..acked].to_vec(),
            };
            let variant = VARIANTS[(round / EQUIV_EVERY) % VARIANTS.len()];
            let log = equivalent_variant(&prefix, variant, &mut rng).to_string();
            script.push((Kind::Equiv, Request::Equiv { log }.to_string()));
        }
    }
    let pool: Vec<Request> = (0..B_POOL)
        .map(|_| Request::AbortEval {
            txn: w.txn_names[rng.below(preload_txns)].clone(),
            structure: StructureId::Worlds,
        })
        .collect();
    let pool_lines = pool.iter().map(Request::to_string).collect();
    Inputs {
        preload,
        slices,
        script,
        pool,
        pool_lines,
    }
}

fn start(inputs: &Inputs, epoch: Option<Instant>) -> InProcess<MemStorage> {
    let storage = match epoch {
        Some(epoch) => CountingStorage::traced(MemStorage::new(), epoch),
        None => CountingStorage::new(MemStorage::new()),
    };
    let server = InProcess::start(storage);
    let reply = server.connect().call(&append_line(&inputs.preload));
    assert!(is_ok(&reply, "appended"), "preload answered {reply}");
    server
}

/// What a reply must say beyond being the right kind of success: no
/// saturated row, and `equivalent:true`. Read off the text — a
/// symbolic reply is ~180 KB, and `Response::from_str` is quadratic in
/// the length of a string (see README, observation 6). A saturated row
/// prints as `…",true]`; generated names and the provenance notation
/// contain neither commas nor brackets, so nothing else can.
fn verdict_holds(kind: Kind, reply: &str) -> bool {
    is_ok(reply, kind.ok())
        && match kind {
            Kind::Append => true,
            Kind::Symbolic => !reply.contains(",true]"),
            Kind::Equiv => reply.contains("\"equivalent\":true"),
        }
}

/// The untraced run.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let (inputs, server) = ctx.set_up(report, || {
        let inputs = inputs(ctx);
        let server = start(&inputs, None);
        (inputs, server)
    });

    let a_done = AtomicBool::new(false);
    let started = Instant::now();
    let (a, mut b): (Vec<(Kind, Sample, bool)>, Vec<Sample>) = std::thread::scope(|s| {
        let mut conn_a = server.connect();
        let mut conn_b = server.connect();
        let (inputs, a_done) = (&inputs, &a_done);
        let a = s.spawn(move || {
            let out = inputs
                .script
                .iter()
                .map(|(kind, line)| {
                    let (sample, reply) = harness::call(&mut conn_a, 0, line, kind.ok());
                    (*kind, sample, verdict_holds(*kind, &reply))
                })
                .collect();
            a_done.store(true, Ordering::SeqCst);
            out
        });
        let b = s.spawn(move || {
            let mut rng = TestRng::new(ctx.seed + 1);
            harness::concrete_client(&mut conn_b, &inputs.pool_lines, &mut rng, || {
                a_done.load(Ordering::SeqCst)
            })
        });
        (a.join().expect("client A"), b.join().expect("client B"))
    });
    let wall = started.elapsed().as_secs_f64();
    report.set("peak_rss_mb", server.peak_rss_mb());
    let pm = server.finish();

    let latencies = |kind: Kind| -> Vec<u64> {
        let of_kind = a.iter().filter(|(k, ..)| *k == kind);
        of_kind.map(|(_, sample, _)| sample.ns).collect()
    };
    // The symbolic operations' own percentiles spread 17-32 % run to run
    // here (200 samples of a latency that climbs twentyfold within the
    // script). The bounded latency is the other half of the workload:
    // B's reads beside them.
    report.detail("append", &latencies(Kind::Append));
    report.detail("abort_symbolic", &latencies(Kind::Symbolic));
    report.detail("equiv", &latencies(Kind::Equiv));
    let b_latencies: Vec<u64> = b.iter().map(|s| s.ns).collect();
    report.detail("abort (client B)", &b_latencies);
    let a_failed = a.iter().filter(|(.., holds)| !holds).count() as u64;
    // The preload was seq 1; A is the only appender.
    let acked = a.iter().filter(|(k, ..)| *k == Kind::Append);
    let in_order = acked
        .zip(2..)
        .all(|((_, sample, _), seq)| sample.seq == seq);
    report.check("A's appends were acknowledged in script order", in_order);
    report.check(
        "every equiv verdict is true and no symbolic row saturated",
        a_failed == 0,
    );

    let mut replica = Replica::default();
    replica.append(&inputs.preload);
    let appends: Vec<&UpdateLog> = inputs.slices.iter().collect();
    let (b_attempted, b_wrong) = verify_concrete(&mut replica, &appends, &inputs.pool, &mut b);
    if b_wrong > 0 {
        println!("CHECK FAILED: {b_wrong} of {b_attempted} of B's replies differ from the oracle");
    }
    report.attempted += a.len() as u64 + b_attempted;
    report.failed += a_failed + b_wrong;
    // Both clients' replies: when the writer slows down B fits fewer
    // reads in, so a symbolic regression costs throughput twice. (A's
    // pace alone spread 12-34 % run to run here and cannot hold a bound.)
    println!(
        "  client A: {:.1} script replies per second",
        a.len() as f64 / wall
    );
    // The state grows and the script runs once: a single lap, so these
    // two are plain whole-run readings. They cannot hold a bound on a
    // shared host, which is why this workload is not one of the driver's.
    let mut laps = Laps::default();
    laps.push(a.len() + b.len(), wall, &b_latencies);
    report.laps(&laps);
    check_recovery(report, &mut replica, &pm);
}

/// The traced run: A's script from one client, with one of B's
/// questions after each round so the concrete path is traced too.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let t0 = Instant::now();
    let inputs = inputs(ctx);
    report.set("workload.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    let epoch = Instant::now();
    let server = start(&inputs, Some(epoch));
    let mut traced = Traced::new(server.connect(), epoch);
    traced.preload(&inputs.preload);

    let mut rng = TestRng::new(ctx.seed + 1);
    let started = Instant::now();
    for (kind, line) in &inputs.script {
        let reply = traced.request(line);
        report.attempted += 1;
        report.failed += u64::from(!verdict_holds(*kind, &reply));
        if *kind == Kind::Symbolic {
            let line = &inputs.pool_lines[rng.below(inputs.pool_lines.len())];
            let reply = traced.request(line);
            report.attempted += 1;
            report.failed += u64::from(!is_ok(&reply, "rows"));
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    traced.finish(report, ctx, "symbolic_mix", server, wall_ns);
}
