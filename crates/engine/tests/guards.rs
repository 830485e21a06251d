//! The engine's efficiency guards: relative claims of the paper's
//! representation (§5) that a regression must not quietly undo. The
//! condensed-NF guard is a node count and runs in every build; the three
//! timing guards are ignored in debug builds, where timing ratios are
//! noise — CI runs `cargo test --release -p uprov-engine --test guards`.
//! Each timed side is the best of [`SAMPLES`] interleaved samples, so a
//! burst of host load slows both sides alike.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use uprov_core::{equiv_in, AtomTable, ExprArena, NfMemo, NodeId};
use uprov_engine::{Engine, UpdateLog};

const SAMPLES: usize = 11;
const SAMPLE_TIME: Duration = Duration::from_millis(50);

/// The tests in this file run one at a time: `cargo test` runs tests on
/// parallel threads, and a timing sample must not share the CPU with one.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-of-[`SAMPLES`] ns per call of `a` and of `b`, sampled alternately
/// after a warm-up call each; a sample runs its body for [`SAMPLE_TIME`].
fn best_of_interleaved(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    fn sample(f: &mut impl FnMut()) -> f64 {
        let (start, mut calls) = (Instant::now(), 0u32);
        while calls == 0 || start.elapsed() < SAMPLE_TIME {
            f();
            calls += 1;
        }
        start.elapsed().as_nanos() as f64 / f64::from(calls)
    }
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        best_a = best_a.min(sample(&mut a));
        best_b = best_b.min(sample(&mut b));
    }
    (best_a, best_b)
}

/// A `+M` spine of `n` `·M` increments, folded forward and in reverse.
fn acspine(n: usize) -> (ExprArena, NodeId, NodeId) {
    let mut t = AtomTable::new();
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

/// 2 500 transactions, 10 000 updates over ≈ 5 000 tuples: each inserts
/// a fresh `r{i}`, folds it and `seed` into the accumulator `acc`, and
/// inserts then deletes a fresh `s{i}`.
fn accumulator_log() -> String {
    let mut text = String::from("base acc seed\n");
    text.extend((0..2_500).map(|i| {
        format!(
            "begin t{i}\ninsert r{i}\nmodify acc <- r{i} seed\ninsert s{i}\ndelete s{i}\ncommit\n"
        )
    }));
    text
}

#[test]
fn condensed_nf_is_at_least_10x_smaller_than_its_expansion() {
    let _serial = serial();
    // One transaction alternating `insert a` / `insert b` 10 000 times.
    // Expanded, each tuple's normal form is a 5 000-increment `+I` spine;
    // condensed, it is one counted block with a single entry of
    // multiplicity 5 000 — O(distinct atoms), not O(updates).
    let mut text = String::from("begin p0\n");
    for i in 0..10_000 {
        text.push_str(if i % 2 == 0 {
            "insert a\n"
        } else {
            "insert b\n"
        });
    }
    text.push_str("commit\n");
    let mut engine = Engine::new();
    let mut state = engine
        .replay(&text.parse().expect("valid"))
        .expect("replays");
    assert_eq!(state.update_count(), 10_000);
    let cert = engine.certify(&mut state);
    assert_eq!(cert.certified, 2, "two tuples, both normalized");

    let nfs = ["a", "b"].map(|t| state.certified_nf(t).expect("certified"));
    let counted: usize = nfs.iter().map(|&n| engine.arena().dag_size(n)).sum();
    let mut expanded_arena = engine.arena().clone();
    let expanded: usize = nfs
        .iter()
        .map(|&n| {
            let e = expanded_arena.expand_counted(n);
            expanded_arena.dag_size(e)
        })
        .sum();
    let ratio = expanded as f64 / counted.max(1) as f64;
    eprintln!("condensed NF: {expanded} expanded / {counted} counted nodes = {ratio:.0}x");
    assert!(
        ratio >= 10.0,
        "condensed NF only {ratio:.2}x smaller (floor 10x)"
    );
}

#[test]
fn reordered_2k_insert_logs_are_equivalent() {
    let _serial = serial();
    // 2 000 commuting inserts into one base tuple, forward and reversed:
    // the hub's 2 000-increment `+I` spine must re-sort under AC. `hub` is
    // a base tuple so both orders share the spine head.
    let txns: Vec<String> = (0..2_000)
        .map(|i| format!("begin h{i}\ninsert hub\ncommit\n"))
        .collect();
    let fwd: UpdateLog = format!("base hub\n{}", txns.concat())
        .parse()
        .expect("valid");
    let rev: UpdateLog = format!(
        "base hub\n{}",
        txns.iter().rev().cloned().collect::<String>()
    )
    .parse()
    .expect("valid");
    let mut engine = Engine::new();
    let fwd = engine.replay(&fwd).expect("replays");
    let rev = engine.replay(&rev).expect("replays");
    assert!(engine.equivalent(&fwd, &rev).is_equivalent());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing guard: release only")]
fn acspine_equiv_scales_near_linearly() {
    let _serial = serial();
    // Spine canonicalization is block-once, O(block log block): 4x the
    // block must cost ~4x, not the 16x of re-decomposing the block at every
    // spine node. 9x leaves room for noise and still fails a quadratic.
    let (mut small, s_fwd, s_rev) = acspine(100);
    let (mut big, b_fwd, b_rev) = acspine(400);
    let (mut small_memo, mut big_memo) = (NfMemo::new(), NfMemo::new());
    let (t100, t400) = best_of_interleaved(
        || {
            assert!(equiv_in(
                black_box(&mut small),
                s_fwd,
                s_rev,
                &mut small_memo
            ))
        },
        || assert!(equiv_in(black_box(&mut big), b_fwd, b_rev, &mut big_memo)),
    );
    let ratio = t400 / t100;
    eprintln!("acspine: 400 {t400:.0} ns / 100 {t100:.0} ns = {ratio:.2}x");
    assert!(
        ratio <= 9.0,
        "acspine 400 vs 100 is {ratio:.2}x (ceiling 9x)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing guard: release only")]
fn append_then_query_is_at_least_10x_faster_than_scratch() {
    let _serial = serial();
    // Append one transaction to a certified 10 000-update state and re-run
    // the NF-backed queries: incrementally, and from scratch (the whole
    // database, the accumulator's 2 500-increment spine included).
    let mut engine = Engine::new();
    let mut state = engine
        .replay(&accumulator_log().parse().expect("valid"))
        .expect("replays");
    assert_eq!(state.update_count(), 10_000);
    let pre_append = state.clone();
    let cert = engine.certify(&mut state);
    assert_eq!(cert.certified, state.tuple_names().count());
    let delta: UpdateLog = "begin tdelta\ninsert rdelta\ndelete r42\ncommit\n"
        .parse()
        .expect("valid");
    engine.append(&mut state, &delta).expect("appends");
    assert_eq!(state.dirty_count(), 2, "one txn touches two tuples");

    // Both sides of each comparison need the engine mutably.
    let engine = RefCell::new(engine);
    let (equiv_scratch, equiv_incremental) = best_of_interleaved(
        || {
            assert!(!engine
                .borrow_mut()
                .equivalent_uncached(&pre_append, &state)
                .is_equivalent())
        },
        || {
            assert!(!engine
                .borrow_mut()
                .equivalent(&pre_append, &state)
                .is_equivalent())
        },
    );
    let (abort_scratch, abort_incremental) = best_of_interleaved(
        || {
            black_box(engine.borrow_mut().abort_symbolic_uncached(&state, "t1250")).expect("known");
        },
        || {
            black_box(engine.borrow_mut().abort_symbolic(&state, "t1250")).expect("known");
        },
    );
    let equiv = equiv_scratch / equiv_incremental;
    let abort = abort_scratch / abort_incremental;
    eprintln!("append-then-query speedup: equivalence {equiv:.1}x, symbolic abort {abort:.1}x");
    assert!(
        equiv >= 10.0,
        "append-then-equiv only {equiv:.2}x (floor 10x)"
    );
    assert!(
        abort >= 10.0,
        "append-then-abort only {abort:.2}x (floor 10x)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing guard: release only")]
fn replay_is_at_most_3_5x_the_parse_of_its_log() {
    let _serial = serial();
    // Replay interns each update's provenance and resolves each tuple name
    // it touches once, through one hash probe. On a two-core x86-64 host
    // that is ≈ 2.0–2.3x the parse of the same text; four string-keyed
    // B-tree walks per update read ≈ 5.2x.
    let text = accumulator_log();
    let log: UpdateLog = text.parse().expect("valid");
    let (parse, replay) = best_of_interleaved(
        || {
            black_box(black_box(text.as_str()).parse::<UpdateLog>()).expect("valid");
        },
        || {
            black_box(Engine::new().replay(black_box(&log))).expect("replays");
        },
    );
    let ratio = replay / parse;
    eprintln!("replay vs parse: {replay:.0} ns / {parse:.0} ns = {ratio:.2}x");
    assert!(
        ratio <= 3.5,
        "replay is {ratio:.2}x the parse of its log (ceiling 3.5x)"
    );
}
