//! `uprov-bench`: one run of one named workload.
//!
//! ```text
//! uprov-bench --workload NAME --seed N --seconds S --trace 0|1
//!             --service-bin PATH --out DIR [--smoke]
//! ```
//!
//! `bench/run.sh` builds this binary and the `uprov-service` binary and
//! supplies the last two flags. Everything printed is informational
//! except the last line of standard output, which is the result object
//! `BENCHMARK.json` describes. See `bench/README.md`.

mod append_durable;
mod harness;
mod inputs;
mod layers;
mod oracle;
mod reads;
mod replay_batch;
mod report;
mod stats;
mod storage_probe;
mod symbolic_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Scale;
use report::Report;

/// The workload names: the four `BENCHMARK.json` lists, in its order,
/// then the unbounded one (`suite.py`'s `EXTRA`).
const WORKLOADS: [&str; 5] = [
    "replay_batch",
    "read_concrete",
    "read_concrete_tcp",
    "append_durable",
    "symbolic_mix",
];

/// How often a workload that does not repeat its set-up anyway sets
/// up; `setup_s` is the fast decile, which of three is the fastest.
const SETUPS: usize = 3;

/// What a run was asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase: of the clock (static workloads) or of
    /// repeating the script (`append_durable`); `symbolic_mix`, whose
    /// script runs once, ignores it.
    pub seconds: f64,
    /// `1`, or `10` under `--smoke`.
    pub scale: Scale,
    /// Where span files and scratch directories go.
    pub out: PathBuf,
    /// The release `uprov-service` binary.
    pub service_bin: PathBuf,
}

impl Ctx {
    /// Runs `build` [`SETUPS`] times, keeps the last result and records
    /// the fast decile of the durations as `setup_s`. Earlier results
    /// are dropped before the next build starts, so at most one is alive.
    pub fn set_up<T>(&self, report: &mut Report, mut build: impl FnMut() -> T) -> T {
        let mut times = Vec::new();
        let mut built = None;
        for _ in 0..SETUPS {
            drop(built.take());
            let t0 = Instant::now();
            built = Some(build());
            times.push(t0.elapsed().as_secs_f64());
        }
        report.set("setup_s", stats::fast_decile(&times, stats::Better::Lower));
        built.expect("SETUPS > 0")
    }
}

fn usage() -> String {
    format!(
        "usage: uprov-bench --workload <{}> --seed N --seconds S --trace 0|1 \
         --service-bin PATH --out DIR [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, bool, Ctx), String> {
    let mut workload = None;
    let mut traced = false;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut scale = Scale(1);
    let mut out = None;
    let mut service_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale(10);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => traced = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => out = Some(PathBuf::from(value)),
            "--service-bin" => service_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let ctx = Ctx {
        seed,
        seconds,
        scale,
        out: out.ok_or("--out is required")?,
        service_bin: service_bin.ok_or("--service-bin is required")?,
    };
    Ok((workload, traced, ctx))
}

fn main() -> ExitCode {
    let (workload, traced, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("cannot create {}: {e}", ctx.out.display());
        return ExitCode::from(2);
    }
    println!(
        "# {workload} seed={} seconds={} trace={} scale=1/{} cores={}",
        ctx.seed,
        ctx.seconds,
        u8::from(traced),
        ctx.scale.0,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut report = Report::default();
    match (workload.as_str(), traced) {
        ("replay_batch", false) => replay_batch::run(&ctx, &mut report),
        ("replay_batch", true) => replay_batch::trace(&ctx, &mut report),
        ("read_concrete", false) => reads::run_in_process(&ctx, &mut report),
        ("read_concrete", true) => reads::trace(&ctx, &mut report, false),
        ("read_concrete_tcp", false) => reads::run_over_tcp(&ctx, &mut report),
        ("read_concrete_tcp", true) => reads::trace(&ctx, &mut report, true),
        ("append_durable", false) => append_durable::run(&ctx, &mut report),
        ("append_durable", true) => append_durable::trace(&ctx, &mut report),
        ("symbolic_mix", false) => symbolic_mix::run(&ctx, &mut report),
        ("symbolic_mix", true) => symbolic_mix::trace(&ctx, &mut report),
        _ => unreachable!("workload names were validated"),
    }
    println!(
        "# sandbox caveat: reads are served from the OS page cache and fsync is cheap here, \
         so latencies are this sandbox's, not a device's; byte and flush counts are the portable part"
    );
    println!("{}", report.result_line(traced));
    ExitCode::SUCCESS
}
