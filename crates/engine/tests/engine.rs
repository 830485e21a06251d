//! Integration tests for the transaction-log replay engine: parse/print
//! round-trips, hand-computed abort and deletion-propagation queries under
//! `Bool` and `Worlds`, log-equivalence properties (commuting transactions,
//! order-sensitive counterexamples), and the depth-100k replay smoke test.

use benchkit::TestRng;
use uprov_core::{eval_arena, ExprArena, Valuation};
use uprov_engine::{Engine, Op, ReplayError, UpdateLog};
use uprov_structures::{Bool, Worlds};

const EXAMPLE: &str = "\
base x
begin t1
insert y
modify z <- x y
commit
begin t2
delete y
commit
";

fn alive<'a, V: PartialEq>(rows: &[(&'a str, V)], zero: V) -> Vec<&'a str> {
    rows.iter()
        .filter(|(_, v)| *v != zero)
        .map(|(n, _)| *n)
        .collect()
}

#[test]
fn parse_print_round_trips_programmatic_logs() {
    let mut rng = TestRng::new(42);
    for case in 0..50 {
        let mut log = UpdateLog::default();
        for b in 0..rng.below(3) {
            log.base.push(format!("b{b}"));
        }
        for t in 0..1 + rng.below(5) {
            let mut ops = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let tuple = format!("r{}", rng.below(6));
                ops.push(match rng.below(3) {
                    0 => Op::Insert { tuple },
                    1 => Op::Delete { tuple },
                    _ => Op::Modify {
                        target: tuple,
                        sources: (0..1 + rng.below(3)).map(|i| format!("s{i}")).collect(),
                    },
                });
            }
            log.txns.push(uprov_engine::Txn {
                name: format!("t{t}"),
                ops,
            });
        }
        let printed = log.to_string();
        let reparsed: UpdateLog = printed
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(reparsed, log, "case {case}: round trip diverged");
    }
}

#[test]
fn replay_builds_the_hand_computed_provenance() {
    let log: UpdateLog = EXAMPLE.parse().expect("valid");
    let mut engine = Engine::new();
    let state = engine.replay(&log).expect("replays");
    assert_eq!(state.update_count(), 3);
    // y: inserted by t1, then consumed as a modify source by t1 itself,
    // then deleted by t2 → (t1 − t1) − t2.
    assert_eq!(engine.render(state.provenance("y")), "(t1 - t1) - t2");
    // z: modified from {x, y-as-of-then} by t1 → (x + t1) .M t1.
    assert_eq!(engine.render(state.provenance("z")), "(x + t1) .M t1");
    // x: consumed as a modify source → x − t1.
    assert_eq!(engine.render(state.provenance("x")), "x - t1");
    // Untouched tuples are absent.
    assert_eq!(state.provenance("nope"), ExprArena::ZERO);
}

#[test]
fn abort_queries_match_hand_computation_under_bool() {
    let log: UpdateLog = EXAMPLE.parse().expect("valid");
    let mut engine = Engine::new();
    let state = engine.replay(&log).expect("replays");

    // Nothing aborted: y was deleted by t2; x was consumed; z lives.
    let p_atom = state.txn_atom("t1").expect("t1 replayed");
    let _ = p_atom;
    let full = engine.eval_tuples(&state, &Bool, &Valuation::constant(true));
    assert_eq!(alive(&full, false), ["z"]);

    // t1 aborts: its insert and modify never happened — x is restored,
    // y and z gone.
    let after_t1 = engine.abort_eval(&state, "t1", &Bool, true).expect("t1");
    assert_eq!(alive(&after_t1, false), ["x"]);

    // t2 aborts: y's deletion never happened — but y was already consumed
    // by t1's modify (y − t1), so only z is present either way.
    let after_t2 = engine.abort_eval(&state, "t2", &Bool, true).expect("t2");
    assert_eq!(alive(&after_t2, false), ["z"]);

    // Unknown names are reported, not guessed.
    assert!(engine.abort_eval(&state, "t99", &Bool, true).is_err());
    assert!(engine.delete_base_eval(&state, "y", &Bool, true).is_err());
}

#[test]
fn abort_symbolic_substitutes_and_normalizes() {
    let log: UpdateLog = EXAMPLE.parse().expect("valid");
    let mut engine = Engine::new();
    let state = engine.replay(&log).expect("replays");
    let view = engine.abort_symbolic(&state, "t1").expect("t1");
    for t in &view {
        assert!(!t.saturated, "{}: normalization saturated", t.name);
        match t.name.as_str() {
            // x's consumption vanishes with t1: back to the bare atom.
            "x" => assert_eq!(engine.render(t.provenance), "x"),
            // y and z were created by t1: certainly absent, in every
            // Update-Structure.
            "y" | "z" => assert_eq!(t.provenance, ExprArena::ZERO, "{}", t.name),
            other => panic!("unexpected tuple {other}"),
        }
    }
    // The symbolic view must agree with concrete evaluation: evaluating
    // the substituted provenance under all-true equals the abort query.
    let concrete = engine.abort_eval(&state, "t1", &Bool, true).expect("t1");
    for (t, (name, v)) in view.iter().zip(&concrete) {
        assert_eq!(t.name, *name);
        assert_eq!(
            eval_arena(
                engine.arena(),
                t.provenance,
                &Bool,
                &Valuation::constant(true)
            ),
            *v,
            "{name}: symbolic and concrete abort disagree"
        );
    }
}

#[test]
fn abort_and_deletion_match_hand_computation_under_worlds() {
    // Worlds evaluates 64 what-if scenarios at once; an abort query under
    // Worlds with per-atom masks must agree bitwise with Bool per world.
    let log: UpdateLog = EXAMPLE.parse().expect("valid");
    let mut engine = Engine::new();
    let state = engine.replay(&log).expect("replays");
    let after = engine
        .abort_eval(&state, "t2", &Worlds, u64::MAX)
        .expect("t2");
    let bool_after = engine.abort_eval(&state, "t2", &Bool, true).expect("t2");
    for ((n1, w), (n2, b)) in after.iter().zip(&bool_after) {
        assert_eq!(n1, n2);
        assert_eq!(*w != 0, *b, "{n1}: Worlds disagrees with Bool");
        assert!(
            *w == 0 || *w == u64::MAX,
            "{n1}: uniform inputs, uniform worlds"
        );
    }

    // Deletion propagation: removing base tuple x kills z (its only
    // ·M source chain) but leaves y (inserted, not derived from x).
    let after_del = engine
        .delete_base_eval(&state, "x", &Bool, true)
        .expect("x");
    let with_t2_alive: Vec<&str> = alive(&after_del, false);
    // y was deleted by t2 regardless; z survives because y's annotation
    // still feeds the Σ.
    assert_eq!(with_t2_alive, ["z"]);
}

#[test]
fn commuting_transactions_leave_equivalent_logs() {
    // Transactions inserting into / modifying the same tuple commute: the
    // +I/+M spine is a multiset (AC extension, axiom 1). Any permutation
    // of the middle transactions yields an equivalent log.
    let mut rng = TestRng::new(7);
    for case in 0..20 {
        let n = 3 + rng.below(5);
        let mut txns: Vec<String> = (0..n)
            .map(|i| format!("begin t{i}\ninsert hub\nmodify hub <- src{i}\ncommit\n"))
            .collect();
        let base = "base hub src0 src1 src2 src3 src4 src5 src6 src7\n";
        let original: UpdateLog = format!("{base}{}", txns.concat()).parse().expect("valid");
        // Fisher–Yates on the transaction order.
        for i in (1..txns.len()).rev() {
            let j = rng.below(i + 1);
            txns.swap(i, j);
        }
        let permuted: UpdateLog = format!("{base}{}", txns.concat()).parse().expect("valid");
        let mut engine = Engine::new();
        let s1 = engine.replay(&original).expect("replays");
        let s2 = engine.replay(&permuted).expect("replays");
        let verdict = engine.equivalent(&s1, &s2);
        assert!(
            verdict.is_equivalent(),
            "case {case}: differing {:?}, undecided {:?}",
            verdict.differing,
            verdict.undecided
        );
    }
}

#[test]
fn order_sensitive_logs_are_not_equivalent() {
    // insert-then-delete ≠ delete-then-insert: the surviving tuple set
    // differs, and the engine must say which tuple witnesses it.
    let l1: UpdateLog = "base x\nbegin t1\ninsert x\ncommit\nbegin t2\ndelete x\ncommit\n"
        .parse()
        .expect("valid");
    let l2: UpdateLog = "base x\nbegin t2\ndelete x\ncommit\nbegin t1\ninsert x\ncommit\n"
        .parse()
        .expect("valid");
    let mut engine = Engine::new();
    let s1 = engine.replay(&l1).expect("replays");
    let s2 = engine.replay(&l2).expect("replays");
    let verdict = engine.equivalent(&s1, &s2);
    assert!(!verdict.is_equivalent());
    assert_eq!(verdict.differing, ["x"]);
    assert!(verdict.undecided.is_empty());
    // And equivalence is reflexive across separate replays of one log.
    let s1_again = engine.replay(&l1).expect("replays");
    assert!(engine.equivalent(&s1, &s1_again).is_equivalent());
}

#[test]
fn axiom_7_equivalence_across_syntactically_different_logs() {
    // "insert then delete by the same txn" ≡ "modify-in then delete by the
    // same txn": both leave prov(x) = x − t (axioms 7 and 2).
    let l1: UpdateLog = "base x\nbegin t\ninsert x\ndelete x\ncommit\n"
        .parse()
        .expect("valid");
    let l2: UpdateLog = "base x s\nbegin t\nmodify x <- s\ndelete x\ncommit\n"
        .parse()
        .expect("valid");
    let mut engine = Engine::new();
    let s1 = engine.replay(&l1).expect("replays");
    let s2 = engine.replay(&l2).expect("replays");
    let verdict = engine.equivalent(&s1, &s2);
    // x agrees; s exists only in l2 (consumed: s − t vs absent in l1), so
    // it is the expected witness of inequivalence between the full logs.
    assert_eq!(verdict.differing, ["s"]);
    // Tuple-level: x alone is equivalent across the two logs even though
    // the expressions differ syntactically (axioms 7 vs 2).
    let mut ar = engine.arena().clone();
    assert_ne!(s1.provenance("x"), s2.provenance("x"));
    assert!(uprov_core::equiv(
        &mut ar,
        s1.provenance("x"),
        s2.provenance("x")
    ));
}

#[test]
fn one_sided_tuples_agree_with_the_uncached_baseline() {
    // Audit of `Engine::equivalent`'s merge-join fast path. A tuple present
    // in only one state is skipped when its raw provenance id is `ZERO`
    // (absent ≡ recorded-as-absent); any other one-sided tuple takes the
    // slow path and is decided by normal forms against `ZERO`. These three
    // regressions pin the fast path to the `equivalent_uncached` baseline
    // so it can never silently diverge:
    let mut engine = Engine::new();

    // (a) one-sided raw-zero: `ghost` is deleted without ever existing, so
    // its recorded provenance is the interned `0` itself (zero axiom at
    // intern time) — the fast path skips it, and that is equivalent.
    let with_ghost: UpdateLog = "base x\nbegin t\ninsert x\ndelete ghost\ncommit\n"
        .parse()
        .expect("valid");
    let without: UpdateLog = "base x\nbegin t\ninsert x\ncommit\n"
        .parse()
        .expect("valid");
    let s1 = engine.replay(&with_ghost).expect("replays");
    let s2 = engine.replay(&without).expect("replays");
    assert_eq!(s1.provenance("ghost"), ExprArena::ZERO, "raw zero recorded");
    let cached = engine.equivalent(&s1, &s2);
    let uncached = engine.equivalent_uncached(&s1, &s2);
    assert!(cached.is_equivalent(), "raw-zero one-sided tuple is absent");
    assert_eq!(cached, uncached, "fast path diverged from baseline");

    // (b) one-sided insert-then-delete: prov(y) = t − t, which is NOT raw
    // zero and — deliberately — not identified with 0 by Figure 3 either
    // (no axiom forces a − a = 0; e.g. a structure may remember tombstones).
    // The slow path must report it as a witness, and the cached and
    // uncached verdicts must match exactly. The core property test
    // `prop_nf_never_maps_a_nonzero_id_to_zero` is the system-wide tripwire
    // that raw-zero really is the *only* normalizes-to-zero case, which is
    // what makes skipping raw zeros (and only them) sound.
    let ins_del: UpdateLog = "base x\nbegin t\ninsert x\ninsert y\ndelete y\ncommit\n"
        .parse()
        .expect("valid");
    let s3 = engine.replay(&ins_del).expect("replays");
    assert_eq!(engine.render(s3.provenance("y")), "t - t");
    let cached = engine.equivalent(&s3, &s2);
    let uncached = engine.equivalent_uncached(&s3, &s2);
    assert_eq!(cached, uncached, "fast path diverged from baseline");
    assert_eq!(cached.differing, ["y"], "t − t is a witness, not absent");

    // (c) one-sided genuinely differing: a live insert on one side only.
    let extra: UpdateLog = "base x\nbegin t\ninsert x\ninsert z\ncommit\n"
        .parse()
        .expect("valid");
    let s4 = engine.replay(&extra).expect("replays");
    let cached = engine.equivalent(&s4, &s2);
    let uncached = engine.equivalent_uncached(&s4, &s2);
    assert_eq!(cached, uncached, "fast path diverged from baseline");
    assert_eq!(cached.differing, ["z"]);

    // Symmetry: the one-sided tuple may sit on either side of the join.
    for (a, b) in [(&s1, &s2), (&s3, &s2), (&s4, &s2)] {
        let fwd = engine.equivalent(a, b);
        let rev = engine.equivalent(b, a);
        assert_eq!(fwd.differing, rev.differing, "merge-join is symmetric");
        let fwd_unc = engine.equivalent_uncached(a, b);
        let rev_unc = engine.equivalent_uncached(b, a);
        assert_eq!(fwd.differing, fwd_unc.differing);
        assert_eq!(rev.differing, rev_unc.differing);
    }
}

#[test]
fn name_kind_clash_is_rejected() {
    let log: UpdateLog = "base t\nbegin t\ninsert y\ncommit\n"
        .parse()
        .expect("valid");
    let mut engine = Engine::new();
    let err = engine.replay(&log).expect_err("clash must be rejected");
    assert_eq!(err, ReplayError::NameKindClash { name: "t".into() });
}

#[test]
fn depth_100k_replay_smoke() {
    // 100 000 updates on two tuples: the ping-pong of Proposition 5.1 as a
    // log. Provenance depth grows linearly; replay, evaluation, abort and
    // normalization must all stay iterative (no stack overflow) and fast.
    let rounds = 100_000; // one modify per transaction
    let mut text = String::from("base a b\n");
    for i in 0..rounds {
        let (src, tgt) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
        text.push_str(&format!("begin t{i}\nmodify {tgt} <- {src}\ncommit\n"));
    }
    let log: UpdateLog = text.parse().expect("valid");
    assert_eq!(log.update_count(), rounds);
    let mut engine = Engine::new();
    let state = engine.replay(&log).expect("replays");
    assert_eq!(state.update_count(), rounds);
    let full = engine.eval_tuples(&state, &Bool, &Valuation::constant(true));
    // The final modify (`modify a <- b`) consumed b; only a survives.
    assert_eq!(alive(&full, false), ["a"]);
    // Abort the last transaction: still answerable, still deep.
    let after = engine
        .abort_eval(&state, &format!("t{}", rounds - 1), &Bool, true)
        .expect("known txn");
    assert_eq!(after.len(), 2);
    // Symbolic abort normalizes the depth-50k chain without recursion.
    let view = engine.abort_symbolic(&state, "t0").expect("t0");
    assert!(view.iter().all(|t| !t.saturated));
}
