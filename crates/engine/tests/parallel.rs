//! Bit-identity of the engine's cone-based what-if answers.
//!
//! [`Engine::what_if`] evaluates the database once; its plain rows must be
//! exactly what [`Engine::eval_tuples`] returns, and zeroing any
//! transaction or base-tuple atom must give exactly what the full
//! re-evaluations `abort_eval` / `delete_base_eval` give — same values,
//! same tuple order. Randomized over log shapes via the repo-standard
//! seeded harness (see `uprov-core/tests/prop.rs` for the
//! offline-proptest rationale).

use benchkit::TestRng;
use uprov_core::Valuation;
use uprov_engine::{Engine, UpdateLog};
use uprov_structures::{Bool, Worlds};

/// A random update log over a small tuple universe: inserts, deletes and
/// multi-source modifies, so per-tuple provenance mixes spines, `·M`
/// queries and `Σ` sources — the shapes the evaluators must agree on.
fn random_log(rng: &mut TestRng, txns: usize, tuples: usize) -> UpdateLog {
    let mut s = String::new();
    for j in 0..tuples / 2 {
        s.push_str(&format!("base b{j}\n"));
    }
    let tuple = |rng: &mut TestRng, tuples: usize| {
        let j = rng.below(tuples);
        if j < tuples / 2 {
            format!("b{j}")
        } else {
            format!("x{j}")
        }
    };
    for i in 0..txns {
        s.push_str(&format!("begin t{i}\n"));
        for _ in 0..1 + rng.below(4) {
            match rng.below(3) {
                0 => s.push_str(&format!("insert {}\n", tuple(rng, tuples))),
                1 => s.push_str(&format!("delete {}\n", tuple(rng, tuples))),
                _ => {
                    let target = tuple(rng, tuples);
                    let n_src = 1 + rng.below(3);
                    let srcs: Vec<String> = (0..n_src).map(|_| tuple(rng, tuples)).collect();
                    s.push_str(&format!("modify {target} <- {}\n", srcs.join(" ")));
                }
            }
        }
        s.push_str("commit\n");
    }
    s.parse().expect("generated log is valid")
}

#[test]
fn prop_what_if_rows_match_the_serial_queries() {
    for seed in 0..40 {
        let mut rng = TestRng::new(seed * 62_989 + 11);
        let mut engine = Engine::new();
        let (n_txns, n_tuples) = (3 + rng.below(12), 2 + rng.below(7));
        let log = random_log(&mut rng, n_txns, n_tuples);
        let state = engine.replay(&log).expect("replays");

        let all = Valuation::constant(true);
        let wall = Valuation::constant(u64::MAX);
        let what_if = engine.what_if(&state, &Bool, &all);
        let wwhat_if = engine.what_if(&state, &Worlds, &wall);
        assert_eq!(
            what_if.rows(),
            engine.eval_tuples(&state, &Bool, &all),
            "seed {seed}: Bool baseline"
        );
        assert_eq!(
            wwhat_if.rows(),
            engine.eval_tuples(&state, &Worlds, &wall),
            "seed {seed}: Worlds baseline"
        );
        for (txn, atom) in state.txn_atoms() {
            assert_eq!(
                what_if.zeroed(atom),
                engine.abort_eval(&state, txn, &Bool, true).expect("known"),
                "seed {seed}: Bool abort({txn})"
            );
            assert_eq!(
                wwhat_if.zeroed(atom),
                engine
                    .abort_eval(&state, txn, &Worlds, u64::MAX)
                    .expect("known"),
                "seed {seed}: Worlds abort({txn})"
            );
        }
        for (base, atom) in state.base_atoms() {
            assert_eq!(
                what_if.zeroed(atom),
                engine
                    .delete_base_eval(&state, base, &Bool, true)
                    .expect("known"),
                "seed {seed}: Bool delete({base})"
            );
            assert_eq!(
                wwhat_if.zeroed(atom),
                engine
                    .delete_base_eval(&state, base, &Worlds, u64::MAX)
                    .expect("known"),
                "seed {seed}: Worlds delete({base})"
            );
        }
    }
}
