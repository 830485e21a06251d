//! Engine-layer benchmarks: log parsing, replay throughput, abort-query
//! latency, log equivalence, the long-block normalization scaling guard —
//! and the incremental append-then-query workloads.
//!
//! Run with `cargo bench -p uprov-engine`: the report goes to stderr and a
//! violated guard makes the binary exit non-zero.
//!
//! The `nf/acspine*` series re-measures PR 2's `arena/equiv/acspine200`
//! workload (normalize an unsorted 200-increment `+M` spine and its
//! reversal) at 100/200/400 increments: spine canonicalization used to
//! re-decompose the maximal block at every spine node — O(block²) — and is
//! now block-once, O(block log block). The [`benchkit`] ratio guard fails
//! the bench (and CI) if the 100→400 scaling drifts back toward the 16×
//! of a quadratic.
//!
//! The `engine/append_then_*` pairs measure the PR 4 incremental NF cache:
//! append one transaction to a warm 10 000-update state, then re-run the
//! NF-backed queries. The `_incremental` side goes through the cache (only
//! provenance the cache has never certified re-normalizes); the `_scratch`
//! side is the from-scratch baseline (`equivalent_uncached` /
//! `abort_symbolic_uncached`, which re-normalize the whole database). Two
//! [`benchkit`] `guard_speedup` floors fail CI if the incremental path
//! drops below 10× over from-scratch.

use benchkit::{black_box, Harness};
use uprov_core::{equiv_in, ExprArena, NfMemo, NodeId};
use uprov_engine::{Engine, UpdateLog};
use uprov_structures::{Bool, Worlds};

/// A synthetic log shaped like real replay traffic: `txns` transactions,
/// each inserting a fresh tuple, rewriting it (and the running aggregate)
/// into an accumulator tuple, and periodically deleting stale tuples —
/// 4 updates per transaction.
fn synthetic_log(txns: usize) -> String {
    let mut s = String::from("base acc seed\n");
    for i in 0..txns {
        s.push_str(&format!(
            "begin t{i}\ninsert r{i}\nmodify acc <- r{i} seed\ninsert s{i}\ndelete s{i}\ncommit\n"
        ));
    }
    s
}

/// The PR 2 acspine workload, parameterized by block
/// length: a `+M` spine of `n` `·M` increments folded forward and in
/// reverse; `equiv` must canonicalize both into one sorted spine.
fn acspine(n: usize) -> (ExprArena, NodeId, NodeId) {
    let mut t = uprov_core::AtomTable::new();
    let mut ar = ExprArena::new();
    let head = ar.atom(t.fresh_tuple());
    let incs: Vec<NodeId> = (0..n)
        .map(|_| {
            let x = ar.atom(t.fresh_tuple());
            let q = ar.atom(t.fresh_txn());
            ar.dot_m(x, q)
        })
        .collect();
    let fwd = incs.iter().fold(head, |acc, &m| ar.plus_m(acc, m));
    let rev = incs.iter().rev().fold(head, |acc, &m| ar.plus_m(acc, m));
    (ar, fwd, rev)
}

fn main() {
    let mut h = Harness::new("uprov-engine/replay");

    // --- Parse + replay throughput: 2 500 txns × 4 updates = 10 000. ---
    let text = synthetic_log(2_500);
    h.bench("engine/parse/10k", || {
        black_box(
            black_box(text.as_str())
                .parse::<UpdateLog>()
                .expect("valid"),
        );
    });
    let log: UpdateLog = text.parse().expect("valid");
    h.bench("engine/replay/10k", || {
        let mut engine = Engine::new();
        black_box(engine.replay(black_box(&log)).expect("replays"));
    });

    // --- Query latency against one warm replayed state. ---
    let mut engine = Engine::new();
    let state = engine.replay(&log).expect("replays");
    assert_eq!(state.update_count(), 10_000);
    h.bench("engine/abort_eval/10k", || {
        black_box(
            engine
                .abort_eval(black_box(&state), "t1250", &Bool, true)
                .expect("known txn"),
        );
    });
    h.bench("engine/abort_eval_worlds/10k", || {
        black_box(
            engine
                .abort_eval(black_box(&state), "t1250", &Worlds, u64::MAX)
                .expect("known txn"),
        );
    });
    h.bench("engine/delete_base_eval/10k", || {
        black_box(
            engine
                .delete_base_eval(black_box(&state), "seed", &Bool, true)
                .expect("known tuple"),
        );
    });

    // --- Log equivalence: 2 000 commuting inserts into one hub tuple,
    //     replayed forward and reversed — the hub's 2 000-increment +I
    //     spine must re-sort under AC (the log-shaped acspine workload). ---
    // `hub` is a base tuple so the spine head (the hub atom) is shared by
    // both orders — only the increments permute, which is exactly what the
    // AC spine form identifies.
    let hub_txns: Vec<String> = (0..2_000)
        .map(|i| format!("begin h{i}\ninsert hub\ncommit\n"))
        .collect();
    let fwd_log: UpdateLog = format!("base hub\n{}", hub_txns.concat())
        .parse()
        .expect("valid");
    let rev_log: UpdateLog = format!(
        "base hub\n{}",
        hub_txns.iter().rev().cloned().collect::<String>()
    )
    .parse()
    .expect("valid");
    let hub_fwd = engine.replay(&fwd_log).expect("replays");
    let hub_rev = engine.replay(&rev_log).expect("replays");
    h.bench("engine/equiv/2k_reordered", || {
        assert!(engine
            .equivalent(black_box(&hub_fwd), black_box(&hub_rev))
            .is_equivalent());
    });

    // --- Long-block normalization scaling (the PR 3 bugfix guard).
    //     bench_full: the guard compares these medians, so they keep full
    //     sampling even under BENCHKIT_SMOKE (single cold samples on shared
    //     CI runners would make the ratio flaky). ---
    for n in [100usize, 200, 400] {
        let (mut ar, fwd, rev) = acspine(n);
        let mut pool = NfMemo::new();
        h.bench_full(&format!("nf/acspine{n}"), || {
            assert!(equiv_in(black_box(&mut ar), fwd, rev, &mut pool));
        });
    }
    // Near-linear scaling: 4x the block must cost ~4-5x, not the 16x of
    // the old per-spine-node decomposition. 9x leaves room for noise
    // while still failing on a quadratic regression.
    h.guard_ratio(
        "nf_acspine_scaling/400_vs_100",
        "nf/acspine400",
        "nf/acspine100",
        9.0,
    );

    // --- Incremental re-normalization: append one transaction to a warm
    //     10k-update state, then re-run the NF-backed queries. The cache
    //     makes repeated queries O(delta); the `_scratch` baselines
    //     re-normalize the whole database (including the accumulator's
    //     10k-increment spine) on every call.
    //     bench_full: both guards compare medians, so full sampling even
    //     under BENCHKIT_SMOKE (see the acspine note above). ---
    let mut inc_engine = Engine::new();
    let mut inc_state = inc_engine.replay(&log).expect("replays");
    let pre_append = inc_state.clone();
    let cert = inc_engine.certify(&mut inc_state);
    assert_eq!(cert.certified, inc_state.tuple_names().count());
    let delta: UpdateLog = "begin tdelta\ninsert rdelta\ndelete r42\ncommit\n"
        .parse()
        .expect("valid");
    inc_engine.append(&mut inc_state, &delta).expect("appends");
    assert_eq!(inc_state.dirty_count(), 2, "one txn touches two tuples");
    h.bench_full("engine/append_then_equiv/10k_incremental", || {
        assert!(!inc_engine
            .equivalent(black_box(&pre_append), black_box(&inc_state))
            .is_equivalent());
    });
    h.bench_full("engine/append_then_equiv/10k_scratch", || {
        assert!(!inc_engine
            .equivalent_uncached(black_box(&pre_append), black_box(&inc_state))
            .is_equivalent());
    });
    h.guard_speedup(
        "append_then_equiv/incremental_vs_scratch",
        "engine/append_then_equiv/10k_scratch",
        "engine/append_then_equiv/10k_incremental",
        10.0,
    );
    h.bench_full("engine/append_then_abort/10k_incremental", || {
        black_box(
            inc_engine
                .abort_symbolic(black_box(&inc_state), "t1250")
                .expect("known txn"),
        );
    });
    h.bench_full("engine/append_then_abort/10k_scratch", || {
        black_box(
            inc_engine
                .abort_symbolic_uncached(black_box(&inc_state), "t1250")
                .expect("known txn"),
        );
    });
    h.guard_speedup(
        "append_then_abort/incremental_vs_scratch",
        "engine/append_then_abort/10k_scratch",
        "engine/append_then_abort/10k_incremental",
        10.0,
    );

    // --- Condensed normal forms (the counted-block representation): one
    //     transaction alternating `insert a` / `insert b` 10 000 times.
    //     Expanded, each tuple's NF is a 5 000-increment +I spine; counted,
    //     it is a single block node with one entry of multiplicity 5 000 —
    //     O(distinct atoms), not O(updates). The metric guard fails CI if
    //     the condensed form drops below 10x smaller than the expanded one
    //     (it should sit around three orders of magnitude). ---
    let mut pp_text = String::from("begin p0\n");
    for i in 0..10_000 {
        pp_text.push_str(if i % 2 == 0 {
            "insert a\n"
        } else {
            "insert b\n"
        });
    }
    pp_text.push_str("commit\n");
    let pp_log: UpdateLog = pp_text.parse().expect("valid");
    let mut pp_engine = Engine::new();
    let mut pp_state = pp_engine.replay(&pp_log).expect("replays");
    assert_eq!(pp_state.update_count(), 10_000);
    h.bench_full("engine/replay/pingpong10k", || {
        let mut e = Engine::new();
        black_box(e.replay(black_box(&pp_log)).expect("replays"));
    });
    let cert = pp_engine.certify(&mut pp_state);
    assert_eq!(cert.certified, 2, "two tuples, both normalized");
    let nf_a = pp_state.certified_nf("a").expect("certified");
    let nf_b = pp_state.certified_nf("b").expect("certified");
    let counted_nodes = pp_engine.arena().dag_size(nf_a) + pp_engine.arena().dag_size(nf_b);
    let mut expand_arena = pp_engine.arena().clone();
    let exp_a = expand_arena.expand_counted(nf_a);
    let exp_b = expand_arena.expand_counted(nf_b);
    let expanded_nodes = expand_arena.dag_size(exp_a) + expand_arena.dag_size(exp_b);
    h.metric(
        "nf/pingpong10k/counted_nodes",
        counted_nodes as f64,
        "nodes",
    );
    h.metric(
        "nf/pingpong10k/expanded_nodes",
        expanded_nodes as f64,
        "nodes",
    );
    h.guard_metric_ratio(
        "nf_condensed/pingpong10k",
        "nf/pingpong10k/expanded_nodes",
        "nf/pingpong10k/counted_nodes",
        10.0,
    );

    h.finish();
}
