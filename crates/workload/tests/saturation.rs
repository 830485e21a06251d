//! Regression: an exhausted normal-form budget must degrade to "don't
//! know", never to a definite wrong answer.
//!
//! `try_equiv_in` is three-valued: `Some(true)`/`Some(false)` are
//! *certificates* (ids proved equal / normal forms proved distinct) and
//! `None` means the memo's budget (`NfMemo::with_max_rounds`) ran out
//! first. The trap this guards against: under budget 0 the "normal
//! forms" are the untouched inputs,
//! so two equivalent-but-unnormalized roots have distinct ids — a naive
//! implementation would report `Some(false)` and turn saturation into a
//! wrong answer. On generated workloads we pair every reducible
//! provenance root with its true normal form (distinct id, provably
//! equivalent) and pin the starved verdict to `None` across small
//! budgets.

use benchkit::TestRng;
use uprov_core::{nf_in, try_equiv_in, NfMemo};
use uprov_engine::Engine;
use uprov_workload::{knobs, Workload, WorkloadConfig};

#[test]
fn exhausted_budget_never_reports_a_definite_answer() {
    let per_seed = knobs::fuzz_cases(6);
    let mut reducible = 0usize;
    for seed in knobs::fuzz_seeds() {
        for i in 0..per_seed {
            let case_seed = seed.wrapping_mul(7_368_787).wrapping_add(i as u64);
            let mut rng = TestRng::new(case_seed);
            let cfg = WorkloadConfig::sample(case_seed, &mut rng);
            let w = Workload::generate(cfg.clone());

            let mut engine = Engine::new();
            let state = engine
                .replay(&w.log)
                .unwrap_or_else(|e| panic!("{cfg}: {e}"));

            // Normalize in a private copy of the engine's arena (the
            // engine owns its arena mutably); tuple ids stay valid in it.
            let mut ar = engine.arena().clone();
            for (name, r) in state.tuples() {
                let mut memo = NfMemo::new();
                let full = nf_in(&mut ar, r, &mut memo);
                assert!(!full.saturated, "{cfg}: {name}: workload nf saturated");
                if full.id == r {
                    continue; // already normal; equal ids decide instantly
                }
                reducible += 1;

                // Budget 0: nothing runs, both sides stay unnormalized
                // and distinct — the only sound verdict is "don't know".
                let mut starved = NfMemo::with_max_rounds(0);
                let verdict = try_equiv_in(&mut ar, r, full.id, &mut starved);
                assert_eq!(
                    verdict, None,
                    "{cfg}: {name}: budget 0 must stay undecided, not fabricate a verdict"
                );

                // Tiny budgets: either still undecided or the true answer
                // (the pair IS equivalent); `Some(false)` is forbidden.
                for budget in 1..=3u32 {
                    let mut m = NfMemo::with_max_rounds(budget);
                    let v = try_equiv_in(&mut ar, r, full.id, &mut m);
                    assert_ne!(
                        v,
                        Some(false),
                        "{cfg}: {name}: budget {budget} denied a true equivalence"
                    );
                }

                // Sanity: the full budget proves it.
                assert_eq!(
                    try_equiv_in(&mut ar, r, full.id, &mut memo),
                    Some(true),
                    "{cfg}: {name}: full budget must certify nf(r) ≡ r"
                );
            }
        }
    }
    // The sweep is vacuous if no generated root ever reduces; the op mix
    // makes that impossible in practice — enforce it so a generator
    // regression can't silently hollow the test out.
    assert!(
        reducible >= 10,
        "expected ≥ 10 reducible roots across the sweep, saw {reducible}"
    );
}
