//! Seeded generator of realistic multi-table transaction workloads.
//!
//! The property suites in `uprov-core` and `uprov-engine` fuzz the algebra
//! with *structurally* random inputs — uniform operator soup. Real update
//! logs look different: a fixed key universe partitioned into tables, a
//! skewed popularity distribution with a small hot set every transaction
//! fights over, modification pipelines that read a handful of keys and
//! write one, and occasional compensating (rollback-shaped) transactions.
//! This crate generates exactly that shape, deterministically from a seed,
//! as ordinary [`UpdateLog`] values the engine (and the storage layer's
//! durable wrapper) can replay.
//!
//! Everything is a pure function of [`WorkloadConfig`]: same config (seed
//! included), same bytes. Test failures therefore reproduce from the
//! one-line `Display` form of the config, which the differential harness
//! in `tests/` prints on every assertion.
//!
//! The companion [`Workload::schedule`] splits the generated log into a
//! random sequence of append slices (base declarations first, then
//! transaction chunks) whose concatenation replays to the identical
//! database — the input shape for differential tests of incremental
//! maintenance against from-scratch replay.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

use std::fmt;

use benchkit::TestRng;
use uprov_engine::{Op, Txn, UpdateLog};

/// Knobs for [`Workload::generate`]. A workload is a pure function of this
/// struct — the `Display` form is the repro line for any failure found
/// downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// RNG seed; every other knob equal, different seeds give independent
    /// workloads and the same seed gives identical bytes.
    pub seed: u64,
    /// Number of tables (distinct `r{t}_…` name families).
    pub tables: usize,
    /// Keys per table; the key universe is `tables × keys_per_table`.
    pub keys_per_table: usize,
    /// Number of transactions in the log.
    pub txns: usize,
    /// Target operations per ordinary transaction (compensating
    /// transactions pair each insert with a delete, so theirs may differ
    /// by one).
    pub ops_per_txn: usize,
    /// Zipf-ish key-popularity skew: a key index is the minimum of
    /// `1 + skew` uniform draws, so `0` is uniform and larger values
    /// concentrate traffic on low-index keys.
    pub skew: u32,
    /// Size of the per-table *hot set* (the first `hot_keys` keys).
    pub hot_keys: usize,
    /// Probability (percent) that any key pick is redirected to the hot
    /// set — contention on top of the base skew.
    pub hot_bias_pct: u8,
    /// Probability (percent) that a transaction is a compensating
    /// rollback pipeline: inserts followed by deletes of the same tuples
    /// in reverse order.
    pub abort_rate_pct: u8,
    /// Maximum number of source tuples a `modify` reads (≥ 1).
    pub modify_width: usize,
}

impl Default for WorkloadConfig {
    /// A small but non-degenerate smoke configuration: 3 tables × 16 keys,
    /// 12 skewed transactions with a hot set and some rollbacks.
    fn default() -> Self {
        WorkloadConfig {
            seed: 1,
            tables: 3,
            keys_per_table: 16,
            txns: 12,
            ops_per_txn: 5,
            skew: 2,
            hot_keys: 3,
            hot_bias_pct: 30,
            abort_rate_pct: 15,
            modify_width: 3,
        }
    }
}

impl fmt::Display for WorkloadConfig {
    /// One line, shell-pasteable into a failure report:
    /// `seed=7 tables=3 keys=16 txns=12 ops=5 skew=2 hot=3@30% abort=15% width=3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} tables={} keys={} txns={} ops={} skew={} hot={}@{}% abort={}% width={}",
            self.seed,
            self.tables,
            self.keys_per_table,
            self.txns,
            self.ops_per_txn,
            self.skew,
            self.hot_keys,
            self.hot_bias_pct,
            self.abort_rate_pct,
            self.modify_width
        )
    }
}

impl WorkloadConfig {
    /// The repo benchmark's shape at a given size: 4 tables, 5 ops per
    /// transaction, skew 2, 8 hot keys per table drawing 30 % of picks,
    /// 15 % compensating transactions, modifies of up to 3 sources.
    pub fn bench_shaped(seed: u64, keys_per_table: usize, txns: usize) -> Self {
        WorkloadConfig {
            seed,
            tables: 4,
            keys_per_table,
            txns,
            ops_per_txn: 5,
            skew: 2,
            hot_keys: 8,
            hot_bias_pct: 30,
            abort_rate_pct: 15,
            modify_width: 3,
        }
    }

    /// Draws a randomized-but-sane configuration from `rng`, keeping
    /// `seed` as given. The differential harness uses this to sweep the
    /// knob space; ranges are chosen so every feature (hot set, skew,
    /// rollbacks, wide modifies, multiple tables) is regularly exercised
    /// without blowing up test time.
    pub fn sample(seed: u64, rng: &mut TestRng) -> Self {
        let tables = 1 + rng.below(4);
        let keys_per_table = 4 + rng.below(29);
        WorkloadConfig {
            seed,
            tables,
            keys_per_table,
            txns: 2 + rng.below(24),
            ops_per_txn: 1 + rng.below(8),
            skew: rng.below(4) as u32,
            hot_keys: rng.below(4.min(keys_per_table) + 1),
            hot_bias_pct: [0, 20, 50, 80][rng.below(4)],
            abort_rate_pct: [0, 10, 25, 50][rng.below(4)],
            modify_width: 1 + rng.below(4),
        }
    }
}

/// A generated workload: the log plus name indexes the harness queries by.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The configuration that produced this workload (repro line).
    pub config: WorkloadConfig,
    /// The full transaction log (base declarations up front).
    pub log: UpdateLog,
    /// Every transaction name, in log order.
    pub txn_names: Vec<String>,
    /// Every tuple name in the key universe, whether or not the log
    /// touches it (useful for negative queries).
    pub tuple_names: Vec<String>,
}

/// The canonical name of key `key` of table `table`: token-safe (no
/// whitespace, no `#`) and collision-free by construction.
pub fn tuple_name(table: usize, key: usize) -> String {
    format!("r{table}_k{key}")
}

/// The canonical name of the `i`-th transaction. The distinct prefix keeps
/// transaction atoms from ever clashing with tuple atoms.
pub fn txn_name(i: usize) -> String {
    format!("txn{i}")
}

impl Workload {
    /// Generates the workload determined by `config`.
    ///
    /// Shape:
    /// * every table key is a candidate tuple; about 60% are declared
    ///   `base` (pre-populated), the rest only exist if some transaction
    ///   inserts them;
    /// * ordinary transactions draw [`WorkloadConfig::ops_per_txn`] ops
    ///   with a 40/25/35 insert/delete/modify mix; keys follow the
    ///   skew + hot-set distribution; `modify` reads up to
    ///   [`WorkloadConfig::modify_width`] sources, mostly from the
    ///   target's own table with occasional cross-table reads;
    /// * with probability [`WorkloadConfig::abort_rate_pct`] a
    ///   transaction is instead a compensating pipeline — inserts
    ///   followed by deletes of the same tuples in reverse order, the
    ///   rollback idiom.
    pub fn generate(config: WorkloadConfig) -> Workload {
        let cfg = &config;
        let mut rng = TestRng::new(cfg.seed ^ 0xC0FF_EE00_D15E_A5E5);
        let mut log = UpdateLog::default();

        let mut tuple_names = Vec::with_capacity(cfg.tables * cfg.keys_per_table);
        for t in 0..cfg.tables {
            for k in 0..cfg.keys_per_table {
                let name = tuple_name(t, k);
                if rng.chance(60) {
                    log.base.push(name.clone());
                }
                tuple_names.push(name);
            }
        }

        let mut txn_names = Vec::with_capacity(cfg.txns);
        for i in 0..cfg.txns {
            let name = txn_name(i);
            txn_names.push(name.clone());
            let mut txn = Txn {
                name,
                ops: Vec::new(),
            };
            if rng.chance(cfg.abort_rate_pct) {
                // Compensating pipeline: insert k tuples, then delete them
                // in reverse — the generated stand-in for a rolled-back
                // transaction in a log format with no abort record.
                let k = (cfg.ops_per_txn / 2).max(1);
                let inserted: Vec<String> = (0..k).map(|_| pick_tuple(&mut rng, cfg)).collect();
                for t in &inserted {
                    txn.ops.push(Op::Insert { tuple: t.clone() });
                }
                for t in inserted.iter().rev() {
                    txn.ops.push(Op::Delete { tuple: t.clone() });
                }
            } else {
                for _ in 0..cfg.ops_per_txn {
                    txn.ops.push(random_op(&mut rng, cfg));
                }
            }
            log.txns.push(txn);
        }

        Workload {
            config,
            log,
            txn_names,
            tuple_names,
        }
    }

    /// Splits the log into a random append schedule: a non-empty sequence
    /// of slices whose concatenation is exactly [`Workload::log`]. The
    /// first slice carries all `base` declarations (appending a base late
    /// is an engine error by design), subsequent slices are transaction
    /// chunks of random size. Replaying the slices through
    /// `Engine::append` must land in the same state as one-shot
    /// [`Workload::log`] replay — the harness's incremental-vs-scratch
    /// oracle.
    pub fn schedule(&self, rng: &mut TestRng) -> Vec<UpdateLog> {
        let mut slices = vec![UpdateLog {
            base: self.log.base.clone(),
            txns: Vec::new(),
        }];
        let mut remaining = self.log.txns.as_slice();
        let max_chunk = (remaining.len() / 2).max(1);
        while !remaining.is_empty() {
            let take = (1 + rng.below(max_chunk)).min(remaining.len());
            let (chunk, rest) = remaining.split_at(take);
            // Sometimes grow the previous slice instead of starting a new
            // one, so base+txns and txns-only slices both occur.
            if slices.len() == 1 && rng.coin() {
                slices[0].txns.extend(chunk.iter().cloned());
            } else {
                slices.push(UpdateLog {
                    base: Vec::new(),
                    txns: chunk.to_vec(),
                });
            }
            remaining = rest;
        }
        slices
    }
}

/// One axiom-derived rewriting family for [`equivalent_variant`]: each
/// produces a log whose replayed database is `UP[X]`-equivalent to the
/// input's — same per-tuple normal forms, different update text. These are
/// the positive cases for the engine's `equivalent` oracle: transitivity
/// over independently generated variants is a real property, not a
/// tautology, because each family perturbs the log through a *different*
/// Figure 3 axiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Shuffle every multi-source `modify`'s source list. Σ-terms intern
    /// as sorted AC sums and source consumption is per-tuple, so source
    /// order is erased before rewriting even starts.
    PermuteModifySources,
    /// Inject a dead self-modify `modify X <- X` immediately before an
    /// existing `insert X` / `delete X` in the same transaction. The
    /// following insert (axiom 9, `(a +M (b ·M p)) +I p = a +I p`) or
    /// delete (axiom 2, `(a +M (b ·M p)) − p = a − p`) absorbs the
    /// modification, and a self-source is never consumed.
    DeadSelfModify,
    /// Inject `modify D <- D` immediately after a `delete D` in the same
    /// transaction. The increment is dead on arrival — axiom 5 gives
    /// `(d − p) ·M p = 0`, firing inside the `+M` block the modify
    /// creates — and a self-source is never consumed. The target must be
    /// `D` itself: aiming the dead modify at a tuple with *zero*
    /// provenance would intern `0 +M dot` as the bare dot — no `+M`
    /// block for the axiom 5 rule to fire in — which is not equivalent
    /// in the free algebra.
    ModifyFromDeleted,
}

/// Rewrites `log` through one [`Variant`] family, gating each opportunity
/// on `rng` so repeated calls with independent streams produce distinct
/// (but all mutually equivalent) logs. The result replays to a database
/// the engine's `equivalent` oracle must accept against the original.
pub fn equivalent_variant(log: &UpdateLog, variant: Variant, rng: &mut TestRng) -> UpdateLog {
    let mut out = log.clone();
    for txn in &mut out.txns {
        match variant {
            Variant::PermuteModifySources => {
                for op in &mut txn.ops {
                    if let Op::Modify { sources, .. } = op {
                        // Fisher-Yates over the source list.
                        for i in (1..sources.len()).rev() {
                            sources.swap(i, rng.below(i + 1));
                        }
                    }
                }
            }
            Variant::DeadSelfModify => {
                let mut rebuilt = Vec::with_capacity(txn.ops.len());
                for op in txn.ops.drain(..) {
                    let anchor = match &op {
                        Op::Insert { tuple } | Op::Delete { tuple } => Some(tuple.clone()),
                        Op::Modify { .. } => None,
                    };
                    if let Some(tuple) = anchor {
                        if rng.chance(60) {
                            rebuilt.push(Op::Modify {
                                target: tuple.clone(),
                                sources: vec![tuple],
                            });
                        }
                    }
                    rebuilt.push(op);
                }
                txn.ops = rebuilt;
            }
            Variant::ModifyFromDeleted => {
                let mut rebuilt = Vec::with_capacity(txn.ops.len());
                for op in txn.ops.drain(..) {
                    let deleted = match &op {
                        Op::Delete { tuple } => Some(tuple.clone()),
                        _ => None,
                    };
                    rebuilt.push(op);
                    if let Some(d) = deleted {
                        if rng.chance(60) {
                            rebuilt.push(Op::Modify {
                                target: d.clone(),
                                sources: vec![d],
                            });
                        }
                    }
                }
                txn.ops = rebuilt;
            }
        }
    }
    out
}

/// Environment knobs shared by the fuzzing test binaries, so the CI matrix
/// and local runs scale the same way.
pub mod knobs {
    /// Cases per base seed: `UPROV_FUZZ_CASES`, falling back to `default`
    /// (the tier-1 smoke size). The CI `fuzz-matrix` job raises this.
    pub fn fuzz_cases(default: usize) -> usize {
        std::env::var("UPROV_FUZZ_CASES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    }

    /// Base seeds: `UPROV_FUZZ_SEEDS` as a comma-separated list (mirrors
    /// `UPROV_FAULT_SEEDS` from the fault-recovery matrix), default `[1]`.
    pub fn fuzz_seeds() -> Vec<u64> {
        std::env::var("UPROV_FUZZ_SEEDS")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .collect::<Vec<u64>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1])
    }
}

/// One key draw under the config's popularity model.
fn pick_tuple(rng: &mut TestRng, cfg: &WorkloadConfig) -> String {
    let table = rng.below(cfg.tables);
    pick_key_in(rng, cfg, table)
}

/// One key draw constrained to `table`.
fn pick_key_in(rng: &mut TestRng, cfg: &WorkloadConfig, table: usize) -> String {
    let hot = cfg.hot_keys.min(cfg.keys_per_table);
    let key = if hot > 0 && rng.chance(cfg.hot_bias_pct) {
        rng.below(hot)
    } else {
        rng.below_skewed(cfg.keys_per_table, cfg.skew)
    };
    tuple_name(table, key)
}

/// One op with the 40/25/35 insert/delete/modify mix.
fn random_op(rng: &mut TestRng, cfg: &WorkloadConfig) -> Op {
    match rng.below(100) {
        0..=39 => Op::Insert {
            tuple: pick_tuple(rng, cfg),
        },
        40..=64 => Op::Delete {
            tuple: pick_tuple(rng, cfg),
        },
        _ => {
            let table = rng.below(cfg.tables);
            let target = pick_key_in(rng, cfg, table);
            let sources = (0..1 + rng.below(cfg.modify_width.max(1)))
                .map(|_| {
                    // Mostly same-table reads, occasionally a join-style
                    // cross-table source.
                    let src_table = if rng.chance(80) {
                        table
                    } else {
                        rng.below(cfg.tables)
                    };
                    pick_key_in(rng, cfg, src_table)
                })
                .collect();
            Op::Modify { target, sources }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_config_same_bytes() {
        let cfg = WorkloadConfig::default();
        let a = Workload::generate(cfg.clone());
        let b = Workload::generate(cfg);
        assert_eq!(a.log, b.log);
        assert_eq!(a.log.to_string(), b.log.to_string());
        let c = Workload::generate(WorkloadConfig {
            seed: 2,
            ..WorkloadConfig::default()
        });
        assert_ne!(a.log, c.log, "different seeds must diverge");
    }

    #[test]
    fn generated_logs_reparse_to_themselves() {
        for seed in 1..=20 {
            let mut rng = TestRng::new(seed * 31);
            let cfg = WorkloadConfig::sample(seed, &mut rng);
            let w = Workload::generate(cfg.clone());
            let printed = w.log.to_string();
            let reparsed: UpdateLog = printed
                .parse()
                .unwrap_or_else(|e| panic!("{cfg}: generated log must parse: {e}"));
            assert_eq!(reparsed, w.log, "{cfg}");
        }
    }

    #[test]
    fn names_are_token_safe_and_kinds_disjoint() {
        let w = Workload::generate(WorkloadConfig {
            txns: 40,
            ..WorkloadConfig::default()
        });
        for n in w.tuple_names.iter().chain(&w.txn_names) {
            assert!(!n.is_empty());
            assert!(!n.contains(char::is_whitespace) && !n.contains('#'), "{n}");
        }
        assert!(w.txn_names.iter().all(|n| n.starts_with("txn")));
        assert!(w.tuple_names.iter().all(|n| n.starts_with('r')));
    }

    #[test]
    fn compensating_txns_cancel_their_own_inserts() {
        let w = Workload::generate(WorkloadConfig {
            abort_rate_pct: 100,
            ..WorkloadConfig::default()
        });
        for txn in &w.log.txns {
            let n = txn.ops.len();
            assert!(n >= 2 && n % 2 == 0, "insert/delete pairs, got {n}");
            for (i, op) in txn.ops.iter().enumerate() {
                let mirror = &txn.ops[n - 1 - i];
                match (op, mirror) {
                    (Op::Insert { tuple: a }, Op::Delete { tuple: b }) => assert_eq!(a, b),
                    (Op::Delete { tuple: a }, Op::Insert { tuple: b }) => assert_eq!(a, b),
                    other => panic!("non-mirrored pair {other:?}"),
                }
            }
        }
    }

    #[test]
    fn schedules_concatenate_back_to_the_log() {
        for seed in 1..=30 {
            let mut rng = TestRng::new(seed);
            let cfg = WorkloadConfig::sample(seed, &mut rng);
            let w = Workload::generate(cfg.clone());
            let slices = w.schedule(&mut rng);
            assert!(!slices.is_empty());
            let mut glued = UpdateLog::default();
            for (i, s) in slices.iter().enumerate() {
                assert!(i == 0 || s.base.is_empty(), "{cfg}: late base in slice {i}");
                glued.base.extend(s.base.iter().cloned());
                glued.txns.extend(s.txns.iter().cloned());
            }
            assert_eq!(glued, w.log, "{cfg}");
        }
    }

    #[test]
    fn hot_bias_concentrates_traffic() {
        let cfg = WorkloadConfig {
            tables: 1,
            keys_per_table: 64,
            txns: 60,
            ops_per_txn: 6,
            skew: 0,
            hot_keys: 2,
            hot_bias_pct: 90,
            abort_rate_pct: 0,
            ..WorkloadConfig::default()
        };
        let hot_names = [tuple_name(0, 0), tuple_name(0, 1)];
        let w = Workload::generate(cfg.clone());
        let (mut hot, mut total) = (0usize, 0usize);
        for txn in &w.log.txns {
            for op in &txn.ops {
                let touched: Vec<&String> = match op {
                    Op::Insert { tuple } | Op::Delete { tuple } => vec![tuple],
                    Op::Modify { target, sources } => {
                        std::iter::once(target).chain(sources).collect()
                    }
                };
                for t in touched {
                    total += 1;
                    if hot_names.contains(t) {
                        hot += 1;
                    }
                }
            }
        }
        assert!(
            hot * 2 > total,
            "{cfg}: 90% bias to 2/64 keys should dominate: {hot}/{total}"
        );
    }

    #[test]
    fn config_display_is_one_line() {
        let line = WorkloadConfig::default().to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("seed=1 "), "{line}");
    }
}
