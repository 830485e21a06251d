//! Minimal, dependency-free criterion-style benchmark harness.
//!
//! The build environment for this repository is fully offline, so the real
//! `criterion` crate cannot be added as a dependency. This crate reproduces
//! the slice of criterion we need — calibrated iteration counts, warmup,
//! multi-sample timing with mean/median/min statistics, named comparisons
//! and relative guards — with zero dependencies, so `cargo bench` works as
//! usual via `[[bench]] harness = false` targets. Swapping a bench file to
//! real criterion later only changes the bench file, not the
//! measurements' meaning (per-iteration wall-clock ns).
//!
//! The report is the stderr log; what these suites *enforce* are their
//! guards ([`Harness::guard_ratio`], [`Harness::guard_speedup`],
//! [`Harness::guard_metric_ratio`]), which make [`Harness::finish`] exit
//! non-zero. Committed, comparable performance numbers live in the repo
//! benchmark (`bench/`, `BENCHMARK.json`), not here.

use std::time::Instant;

pub mod testrng;

pub use std::hint::black_box;
pub use testrng::TestRng;

/// Statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `arena/eval/pingpong500`.
    pub name: String,
    /// Iterations per timed sample (calibrated so one sample ≈ 5 ms).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: u32,
    /// Mean ns/iteration across samples.
    pub mean_ns: f64,
    /// Median ns/iteration across samples (the headline number).
    pub median_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
}

/// A named scalar measurement that is not a timing: node counts, byte
/// sizes, cache hit rates. Recorded alongside the timed benches so
/// size/space claims are guarded with the same machinery as speed claims.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `nf/pingpong10k/counted_nodes`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label for the report, e.g. `nodes` or `bytes`.
    pub unit: String,
}

/// A named speedup derived from two benchmark medians.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Comparison name, e.g. `eval_many_vs_eval_loop/64vals`.
    pub name: String,
    /// `slow.median_ns / fast.median_ns` — how many times faster.
    /// Effectively-zero medians are clamped to 1 ns first (see
    /// [`Comparison::clamped`]), so the ratio is always finite.
    pub speedup: f64,
    /// True if either median was effectively zero (below
    /// [`ZERO_MEDIAN_CLAMP_NS`]) and got clamped to 1 ns before the
    /// division. An effectively-zero median means the bench measured
    /// nothing (the timed body rounded to no elapsed time at all), so the
    /// ratio is a floor artifact, not a measurement — guards still apply,
    /// but read the underlying medians before trusting the number.
    /// Genuine sub-nanosecond medians (real elapsed time over a calibrated
    /// multi-million-iteration sample) are NOT clamped.
    pub clamped: bool,
}

/// Collects benchmark results and comparisons for one suite.
pub struct Harness {
    results: Vec<BenchResult>,
    comparisons: Vec<Comparison>,
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

const TARGET_SAMPLE_NS: u128 = 5_000_000;
const WARMUP_SAMPLES: u32 = 2;
const MEASURED_SAMPLES: u32 = 12;

/// Medians below this are treated as "measured nothing" by
/// [`Harness::compare`] and clamped to 1 ns. The calibrated protocol caps
/// iterations at 10 M per ≥1 ms sample, so any *real* measurement is
/// ≥ 1e5 femtoseconds/iter — orders of magnitude above this threshold —
/// while a zero-elapsed sample divides out to exactly 0.0. Genuine
/// sub-nanosecond medians are therefore never distorted.
pub const ZERO_MEDIAN_CLAMP_NS: f64 = 1e-3;

/// Smoke mode (`BENCHKIT_SMOKE=1`): one short sample per bench, no warmup —
/// an "it runs" signal for CI, where timing numbers on shared runners are
/// noise anyway. `force_full` opts a bench out of smoke mode (see
/// [`Harness::bench_full`]). Returns `(target_sample_ns, warmup, measured)`.
fn run_config(force_full: bool) -> (u128, u32, u32) {
    if !force_full && std::env::var_os("BENCHKIT_SMOKE").is_some() {
        (200_000, 0, 1)
    } else {
        (TARGET_SAMPLE_NS, WARMUP_SAMPLES, MEASURED_SAMPLES)
    }
}

impl Harness {
    /// Creates a harness for the named suite.
    pub fn new(suite: &str) -> Self {
        eprintln!("benchkit suite: {suite}");
        Harness {
            results: Vec::new(),
            comparisons: Vec::new(),
            metrics: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Records (and prints) a scalar [`Metric`] — a size, count or rate
    /// measured outside the timing loop. Metrics can be guarded with
    /// [`Harness::guard_metric_ratio`].
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        eprintln!("  {name:<40} metric  {value:>12.0} {unit}");
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// The metric recorded under `name`, if any.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records the comparison `name` = `metric(big) / metric(small)` and
    /// flags a **violation** if the ratio falls *below* `min_ratio` — the
    /// metric-shaped analogue of [`Harness::guard_speedup`], for claims
    /// like "the condensed normal form is at least 10× smaller than the
    /// expanded one". Panics if either metric name is unknown. Violations
    /// make [`Harness::finish`] exit non-zero. Returns the measured ratio.
    pub fn guard_metric_ratio(
        &mut self,
        name: &str,
        big: &str,
        small: &str,
        min_ratio: f64,
    ) -> f64 {
        let big_v = self
            .metric_value(big)
            .unwrap_or_else(|| panic!("no metric {big}"));
        let small_v = self
            .metric_value(small)
            .unwrap_or_else(|| panic!("no metric {small}"));
        // Metrics are counts/sizes, so a sub-1 denominator means "measured
        // nothing"; clamp it to 1 to keep the ratio finite and guardable.
        let ratio = big_v / small_v.max(1.0);
        eprintln!("  {name:<40} ratio   {ratio:>10.2}x  ({big} / {small})");
        self.comparisons.push(Comparison {
            name: name.to_owned(),
            speedup: ratio,
            clamped: false,
        });
        if ratio < min_ratio {
            let msg = format!("{name}: ratio {ratio:.2}x is below the {min_ratio:.2}x floor");
            eprintln!("  GUARD VIOLATION: {msg}");
            self.violations.push(msg);
        }
        ratio
    }

    /// Runs one benchmark: calibrates an iteration count so a sample takes
    /// roughly 5 ms, warms up, then times `MEASURED_SAMPLES` samples (one short sample in smoke mode).
    /// Wrap inputs/outputs in [`black_box`] inside `f` to keep the optimizer
    /// honest.
    pub fn bench(&mut self, name: &str, f: impl FnMut()) -> &BenchResult {
        self.bench_inner(name, f, false)
    }

    /// Like [`bench`](Harness::bench), but always uses full sampling —
    /// `BENCHKIT_SMOKE` is ignored. Use for benches that feed
    /// [`guard_ratio`](Harness::guard_ratio): a guard over two single-sample
    /// smoke timings on a shared CI runner would flake on scheduler noise,
    /// so guarded measurements keep the calibrated multi-sample protocol
    /// even in smoke mode.
    pub fn bench_full(&mut self, name: &str, f: impl FnMut()) -> &BenchResult {
        self.bench_inner(name, f, true)
    }

    fn bench_inner(&mut self, name: &str, mut f: impl FnMut(), force_full: bool) -> &BenchResult {
        let (target_sample_ns, warmup, measured) = run_config(force_full);
        // Discard one cold call outright (lazy allocation, cache/page
        // faults), then calibrate by doubling the batch until one probe runs
        // ≥ 1 ms — the estimate always comes from warmed, measurably long
        // runs. Calibrating off the cold call would undersize every timed
        // sample (badly so when the cold call alone exceeds the probe floor).
        f();
        let probe_floor_ns = 1_000_000.min(target_sample_ns);
        let mut probe_iters: u64 = 1;
        let per_iter_ns = loop {
            let t0 = Instant::now();
            for _ in 0..probe_iters {
                f();
            }
            let elapsed = t0.elapsed().as_nanos().max(1);
            if elapsed >= probe_floor_ns || probe_iters >= 10_000_000 {
                break (elapsed / probe_iters as u128).max(1);
            }
            probe_iters *= 2;
        };
        let iters = ((target_sample_ns / per_iter_ns).max(1) as u64).min(10_000_000);
        for _ in 0..warmup {
            Self::sample(&mut f, iters);
        }
        let mut per_iter: Vec<f64> = (0..measured).map(|_| Self::sample(&mut f, iters)).collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let min = per_iter[0];
        eprintln!(
            "  {name:<40} median {:>12} /iter  (x{iters})",
            fmt_ns(median)
        );
        self.results.push(BenchResult {
            name: name.to_owned(),
            iters_per_sample: iters,
            samples: measured,
            mean_ns: mean,
            median_ns: median,
            min_ns: min,
        });
        self.results.last().expect("just pushed")
    }

    fn sample(f: &mut impl FnMut(), iters: u64) -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    }

    /// The result recorded under `name`, if any.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Records (and prints) how many times faster `fast` is than `slow`,
    /// by median. Panics if either name is unknown.
    ///
    /// Effectively-zero medians (below [`ZERO_MEDIAN_CLAMP_NS`] — a timed
    /// body whose samples rounded to no elapsed time at all) are clamped
    /// to 1 ns before dividing: they would otherwise yield an `inf`/NaN
    /// ratio and a nonsense guard verdict. Genuine sub-nanosecond medians
    /// are left untouched, so real ratios between tiny benches stay
    /// correct. The clamp is recorded on the [`Comparison`] (and printed)
    /// so a clamped ratio is never mistaken for a measured one.
    pub fn compare(&mut self, name: &str, slow: &str, fast: &str) -> f64 {
        let slow_raw = self
            .result(slow)
            .unwrap_or_else(|| panic!("no bench {slow}"))
            .median_ns;
        let fast_raw = self
            .result(fast)
            .unwrap_or_else(|| panic!("no bench {fast}"))
            .median_ns;
        let clamp = |ns: f64| if ns < ZERO_MEDIAN_CLAMP_NS { 1.0 } else { ns };
        let clamped = slow_raw < ZERO_MEDIAN_CLAMP_NS || fast_raw < ZERO_MEDIAN_CLAMP_NS;
        let speedup = clamp(slow_raw) / clamp(fast_raw);
        let note = if clamped {
            "  [median clamped to 1ns]"
        } else {
            ""
        };
        eprintln!("  {name:<40} speedup {speedup:>10.2}x  ({slow} -> {fast}){note}");
        self.comparisons.push(Comparison {
            name: name.to_owned(),
            speedup,
            clamped,
        });
        speedup
    }

    /// Records the comparison `name` = `median(big) / median(small)` and
    /// flags a **violation** if the ratio exceeds `max_ratio` — the simple
    /// scaling guard for complexity regressions (e.g. a bench at 4× the
    /// input size must stay well under the 16× a quadratic algorithm would
    /// cost). Violations make [`Harness::finish`] exit non-zero, failing
    /// CI. Returns the measured ratio.
    ///
    /// Pick `max_ratio` with smoke-mode noise in mind: single-sample
    /// timings on shared CI runners jitter, so guard against the
    /// complexity-class blowup, not a few percent.
    pub fn guard_ratio(&mut self, name: &str, big: &str, small: &str, max_ratio: f64) -> f64 {
        let ratio = self.compare(name, big, small);
        if ratio > max_ratio {
            let msg =
                format!("{name}: ratio {ratio:.2}x exceeds the {max_ratio:.2}x scaling guard");
            eprintln!("  GUARD VIOLATION: {msg}");
            self.violations.push(msg);
        }
        ratio
    }

    /// Records the comparison `name` = `median(slow) / median(fast)` and
    /// flags a **violation** if the speedup falls *below* `min_speedup` —
    /// the floor-shaped dual of [`Harness::guard_ratio`], for claims like
    /// "the incremental path is at least 10× faster than from-scratch".
    /// Violations make [`Harness::finish`] exit non-zero. Returns the
    /// measured speedup.
    ///
    /// As with `guard_ratio`, pick `min_speedup` with CI noise in mind:
    /// guard the order-of-magnitude claim, not a few percent.
    pub fn guard_speedup(&mut self, name: &str, slow: &str, fast: &str, min_speedup: f64) -> f64 {
        let speedup = self.compare(name, slow, fast);
        if speedup < min_speedup {
            let msg = format!("{name}: speedup {speedup:.2}x is below the {min_speedup:.2}x floor");
            eprintln!("  GUARD VIOLATION: {msg}");
            self.violations.push(msg);
        }
        speedup
    }

    /// Guard violations recorded so far (see [`Harness::guard_ratio`]).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Terminates the process with a non-zero exit code if any guard
    /// violation was recorded, so a complexity regression fails
    /// `cargo bench` — and CI. Call at the end of the bench `main`.
    pub fn finish(&self) {
        if !self.violations.is_empty() {
            eprintln!("benchkit: {} guard violation(s):", self.violations.len());
            for v in &self.violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_stats() {
        let mut h = Harness::new("selftest");
        let mut x = 0u64;
        h.bench("noop-ish", || {
            x = black_box(x.wrapping_add(1));
        });
        let r = h.result("noop-ish").expect("recorded");
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn compare_computes_ratio() {
        let mut h = Harness::new("selftest");
        h.results.push(BenchResult {
            name: "slow".into(),
            iters_per_sample: 1,
            samples: 1,
            mean_ns: 100.0,
            median_ns: 100.0,
            min_ns: 100.0,
        });
        h.results.push(BenchResult {
            name: "fast".into(),
            iters_per_sample: 1,
            samples: 1,
            mean_ns: 25.0,
            median_ns: 25.0,
            min_ns: 25.0,
        });
        let speedup = h.compare("ratio", "slow", "fast");
        assert!((speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    fn guard_ratio_records_violations_only_above_max() {
        let mut h = Harness::new("selftest");
        for (name, ns) in [("n100", 100.0), ("n400", 450.0)] {
            h.results.push(BenchResult {
                name: name.into(),
                iters_per_sample: 1,
                samples: 1,
                mean_ns: ns,
                median_ns: ns,
                min_ns: ns,
            });
        }
        // 4.5x at 4x size: fine under a 9x guard, a violation under 2x.
        let r = h.guard_ratio("scaling/ok", "n400", "n100", 9.0);
        assert!((r - 4.5).abs() < 1e-9);
        assert!(h.violations().is_empty());
        h.guard_ratio("scaling/bad", "n400", "n100", 2.0);
        assert_eq!(h.violations().len(), 1);
        assert!(h.violations()[0].contains("scaling/bad"));
    }

    #[test]
    fn guard_speedup_records_violations_only_below_floor() {
        let mut h = Harness::new("selftest");
        for (name, ns) in [("scratch", 1_200.0), ("incremental", 100.0)] {
            h.results.push(BenchResult {
                name: name.into(),
                iters_per_sample: 1,
                samples: 1,
                mean_ns: ns,
                median_ns: ns,
                min_ns: ns,
            });
        }
        // 12x speedup: fine above a 10x floor, a violation above a 20x one.
        let s = h.guard_speedup("speedup/ok", "scratch", "incremental", 10.0);
        assert!((s - 12.0).abs() < 1e-9);
        assert!(h.violations().is_empty());
        h.guard_speedup("speedup/bad", "scratch", "incremental", 20.0);
        assert_eq!(h.violations().len(), 1);
        assert!(h.violations()[0].contains("below the 20.00x floor"));
    }

    #[test]
    fn zero_median_is_clamped_to_a_finite_guardable_ratio() {
        // Regression: a sub-nanosecond fast median (tiny cached bench body
        // rounded to 0 ns) used to yield an `inf` speedup — every floor
        // guard vacuously passed and every ceiling guard vacuously failed.
        let mut h = Harness::new("selftest");
        for (name, ns) in [("slow", 100.0), ("fast0", 0.0), ("slow0", 0.0)] {
            h.results.push(BenchResult {
                name: name.into(),
                iters_per_sample: 1,
                samples: 1,
                mean_ns: ns,
                median_ns: ns,
                min_ns: ns,
            });
        }
        let s = h.compare("clamped/slow_vs_fast0", "slow", "fast0");
        assert!(s.is_finite(), "clamped ratio must be finite, got {s}");
        assert!((s - 100.0).abs() < 1e-9, "100ns / clamp(0 -> 1ns) = 100x");
        let both = h.compare("clamped/both_zero", "slow0", "fast0");
        assert!((both - 1.0).abs() < 1e-9, "0/0 clamps to 1x, not NaN");
        assert!(h.comparisons.iter().all(|c| c.clamped));
        // Genuine sub-nanosecond medians (real measurements from huge
        // calibrated iteration counts) are NOT flattened: the ratio stays
        // exact and unclamped.
        for (name, ns) in [("subns_slow", 0.8), ("subns_fast", 0.2)] {
            h.results.push(BenchResult {
                name: name.into(),
                iters_per_sample: 10_000_000,
                samples: 12,
                mean_ns: ns,
                median_ns: ns,
                min_ns: ns,
            });
        }
        let real = h.compare("subns/real_ratio", "subns_slow", "subns_fast");
        assert!((real - 4.0).abs() < 1e-9, "sub-ns ratio must stay 4x");
        assert!(!h.comparisons.last().expect("pushed").clamped);
        // An honest comparison stays unclamped.
        let honest = h.compare("honest", "slow", "slow");
        assert!((honest - 1.0).abs() < 1e-9);
        assert!(!h.comparisons.last().expect("pushed").clamped);
        // Guards over clamped ratios reach sane verdicts instead of the
        // inf/NaN ones: 100x passes a 2x floor, 1x fails it.
        h.guard_speedup("guard/ok", "slow", "fast0", 2.0);
        assert!(h.violations().is_empty());
        h.guard_speedup("guard/bad", "slow0", "fast0", 2.0);
        assert_eq!(h.violations().len(), 1);
    }

    #[test]
    fn metric_guard_records_violations_only_below_floor() {
        let mut h = Harness::new("selftest");
        h.metric("nodes/expanded", 5_002.0, "nodes");
        h.metric("nodes/counted", 3.0, "nodes");
        assert_eq!(h.metric_value("nodes/counted"), Some(3.0));
        // ~1667x compression: fine above a 10x floor…
        let r = h.guard_metric_ratio("nf_size/ok", "nodes/expanded", "nodes/counted", 10.0);
        assert!((r - 5_002.0 / 3.0).abs() < 1e-9);
        assert!(h.violations().is_empty());
        // …a violation above a 10_000x one.
        h.guard_metric_ratio("nf_size/bad", "nodes/expanded", "nodes/counted", 10_000.0);
        assert_eq!(h.violations().len(), 1);
        assert!(h.violations()[0].contains("nf_size/bad"));
        // A zero denominator yields a finite (huge) ratio, not inf/NaN.
        h.metric("nodes/zero", 0.0, "nodes");
        let z = h.guard_metric_ratio("nf_size/zero", "nodes/expanded", "nodes/zero", 10.0);
        assert!(z.is_finite());
    }
}
