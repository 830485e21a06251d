//! The metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root names the same metrics with
//! their direction and bound; `suite.py` refuses a run whose result line
//! disagrees with it. A per-layer metric a workload never records prints
//! as `0`: the layer did no work there, which is the "stays flat"
//! prediction made visible.

use std::collections::BTreeMap;

use crate::stats::{fast_decile, Better, Laps, Summary};

/// `(name, unit)` of every end-to-end metric, printed by every workload
/// with `--trace 0`. `README.md` defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_per_update", "B"),
    ("prov_nodes_per_update", "nodes"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // service.net
    ("net.rtt_overhead_ms", "ms"),
    ("net.bytes_out_per_resp", "B"),
    // service.proto
    ("proto.parse_us", "us"),
    ("proto.print_us", "us"),
    ("proto.bytes_in_per_req", "B"),
    // service.service
    ("service.request_us", "us"),
    ("service.overhead_us", "us"),
    ("service.batches_per_req", "ratio"),
    ("service.coalesced_frac", "ratio"),
    ("service.overloaded", "count"),
    // service.values
    ("values.eval_rows_us", "us"),
    ("values.render_frac", "ratio"),
    ("values.eval_rows_witnesses_us", "us"),
    // engine.log
    ("log.parse_us_per_update", "us"),
    // engine
    ("engine.replay_us_per_update", "us"),
    ("engine.validate_us_per_update", "us"),
    ("engine.append_us_per_update", "us"),
    ("engine.certify_us_per_update", "us"),
    ("engine.abort_eval_us", "us"),
    ("engine.delete_base_eval_us", "us"),
    ("engine.eval_tuples_us", "us"),
    ("engine.abort_symbolic_ms", "ms"),
    ("engine.abort_symbolic_growth", "ratio"),
    ("engine.equivalent_ms", "ms"),
    ("engine.render_us_per_row", "us"),
    ("engine.cached_entries_end", "count"),
    ("engine.dirty_per_append", "count"),
    // core.arena
    ("arena.nodes_per_update", "nodes"),
    ("arena.nodes_per_symbolic", "nodes"),
    // core.nf
    ("nf.scratch_ms", "ms"),
    ("nf.cache_hit_frac", "ratio"),
    ("nf.saturated", "count"),
    ("nf.tree_to_dag_log10", "log10"),
    // core.structure
    ("eval.ns_per_node_bool", "ns"),
    ("eval.ns_per_node_worlds", "ns"),
    // core.parallel + core.pool
    ("parallel.roots_speedup_t2", "ratio"),
    ("parallel.many_speedup_t2", "ratio"),
    ("pool.dispatches", "count"),
    // storage.wal
    ("wal.encode_us_per_record", "us"),
    ("wal.bytes_per_update", "B"),
    ("wal.scan_ms", "ms"),
    // storage.snapshot
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes_per_update", "B"),
    // storage.durable
    ("durable.append_us", "us"),
    ("durable.append_growth", "ratio"),
    ("durable.snapshot_ms", "ms"),
    ("durable.open_ms", "ms"),
    ("durable.recover_ms", "ms"),
    // storage.backend
    ("backend.sync_us", "us"),
    ("backend.syncs_per_append", "ratio"),
    ("backend.bytes_per_sync", "B"),
    ("backend.write_atomic_ms", "ms"),
    // workload + the tracer itself
    ("workload.generate_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations issued in the timed phase plus correctness checks run.
    pub attempted: u64,
    /// Operations that errored or answered wrongly, plus failed checks.
    pub failed: u64,
}

impl Report {
    /// Records a metric (last write wins) and prints it with its unit.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a registered metric"))
            .1;
        println!("{name:<34} {value:>16.4} {unit}");
        self.values.insert(name, value);
    }

    /// Prints one informational timing line (milliseconds, with the
    /// sample count) for a class of operation; nothing is recorded.
    pub fn detail(&self, label: &str, ns: &[u64]) {
        if let Some(s) = Summary::of(ns) {
            println!(
                "  {label:<22} n={:<7} p50={:.3} ms  p90={:.3} ms  p99={:.3} ms",
                s.n,
                s.p50 / 1e6,
                s.p90 / 1e6,
                s.p99 / 1e6
            );
        }
    }

    /// Records the two bounded time metrics from the run's laps: the
    /// fast decile of the per-lap throughput and of the per-lap median
    /// latency of the primary operation, and prints the whole range next
    /// to them. (Higher percentiles stay informational: they could not
    /// hold a bound on this box, see README, "Steadiness".)
    pub fn laps(&mut self, laps: &Laps) {
        let span = |v: &[f64], scale: f64| {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            format!(
                "min={:.4} median={:.4} max={:.4}",
                lo / scale,
                crate::stats::median_f64(v) / scale,
                hi / scale
            )
        };
        println!(
            "  laps={} ops_per_s: {}  p50_ms: {}",
            laps.len(),
            span(&laps.ops_per_s, 1.0),
            span(&laps.p50_ns, 1e6)
        );
        self.set("ops_per_s", fast_decile(&laps.ops_per_s, Better::Higher));
        self.set("p50_ms", fast_decile(&laps.p50_ns, Better::Lower) / 1e6);
    }

    /// Counts one correctness check; a failed one is printed and makes
    /// the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// True while nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: the last line of standard output.
    pub fn result_line(&self, traced: bool) -> String {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = registry
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric `{name}` was never measured"),
                };
                assert!(value.is_finite(), "`{name}` is not a finite number");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}
