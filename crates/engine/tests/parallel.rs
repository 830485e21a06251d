//! Bit-identity of the engine's sharded concrete evaluation.
//!
//! [`Engine::eval_tuples_batch`] is the one sharded entry point: row `i`
//! of its answer must be exactly what the serial [`Engine::eval_tuples`]
//! returns for valuation `i` — same values, same tuple order — for every
//! thread count, and the named what-if queries (`abort_eval`,
//! `delete_base_eval`) must equal the row of the valuation they stand
//! for. Randomized over log shapes via the repo-standard seeded harness
//! (see `uprov-core/tests/prop.rs` for the offline-proptest rationale).

use benchkit::TestRng;
use uprov_core::{Atom, MemoPool, Valuation};
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

/// One valuation per entry: everything `present`, the entry's atom (if
/// any) zeroed.
fn what_ifs<V: Clone>(zeroed: &[Option<Atom>], present: V, zero: V) -> Vec<Valuation<V>> {
    zeroed
        .iter()
        .map(|z| {
            let val = Valuation::constant(present.clone());
            match z {
                Some(a) => val.with(*a, zero.clone()),
                None => val,
            }
        })
        .collect()
}

/// `0` (available parallelism), the serial fallback, genuine sharding,
/// and more workers than this machine has cores or most batches have
/// valuations.
const THREADS: [usize; 5] = [0, 1, 2, 3, 8];

#[test]
fn prop_eval_tuples_batch_rows_match_the_serial_queries() {
    let pool: MemoPool<bool> = MemoPool::new();
    let wpool: MemoPool<u64> = MemoPool::new();
    for seed in 0..40 {
        let mut rng = TestRng::new(seed * 62_989 + 11);
        let mut engine = Engine::new();
        let (n_txns, n_tuples) = (3 + rng.below(12), 2 + rng.below(7));
        let log = random_log(&mut rng, n_txns, n_tuples);
        let state = engine.replay(&log).expect("replays");

        // The batch: the plain database, then each transaction aborted,
        // then each base tuple deleted.
        let txns: Vec<(&str, Atom)> = state.txn_atoms().collect();
        let bases: Vec<(&str, Atom)> = state.base_atoms().collect();
        let zeroed: Vec<Option<Atom>> = std::iter::once(None)
            .chain(txns.iter().chain(&bases).map(|&(_, a)| Some(a)))
            .collect();
        let vals = what_ifs(&zeroed, true, false);
        let wvals = what_ifs(&zeroed, u64::MAX, 0);

        let serial: Vec<_> = vals
            .iter()
            .map(|v| engine.eval_tuples(&state, &Bool, v))
            .collect();
        let wserial: Vec<_> = wvals
            .iter()
            .map(|v| engine.eval_tuples(&state, &Worlds, v))
            .collect();
        for (i, &(txn, _)) in txns.iter().enumerate() {
            let row = 1 + i;
            assert_eq!(
                engine.abort_eval(&state, txn, &Bool, true).expect("known"),
                serial[row],
                "seed {seed}: abort_eval({txn}) is not row {row}"
            );
        }
        for (i, &(base, _)) in bases.iter().enumerate() {
            let row = 1 + txns.len() + i;
            assert_eq!(
                engine
                    .delete_base_eval(&state, base, &Worlds, u64::MAX)
                    .expect("known"),
                wserial[row],
                "seed {seed}: delete_base_eval({base}) is not row {row}"
            );
        }

        for threads in THREADS {
            assert_eq!(
                engine.eval_tuples_batch(&state, &Bool, &vals, &pool, threads),
                serial,
                "seed {seed}: Bool diverged at {threads} threads"
            );
            assert_eq!(
                engine.eval_tuples_batch(&state, &Worlds, &wvals, &wpool, threads),
                wserial,
                "seed {seed}: Worlds diverged at {threads} threads"
            );
        }
    }
    assert!(pool.pooled() >= 1, "worker memos parked for the next call");
}
