//! The cone oracle: what-if rows the service serves from a cached
//! baseline (`values::Rows`, which re-evaluates only the zeroed atom's
//! upward cone) against full re-evaluation of the whole database — both
//! the service's own `values::eval_rows` and the engine's `eval_tuples`
//! under the same fingerprint valuation with the atom zeroed (what
//! `abort_eval` / `delete_base_eval` compute under a constant one).

use std::collections::BTreeSet;

use uprov_core::{AtomTable, EvalBaseline, ExprArena, UpdateStructure, Valuation};
use uprov_engine::{Engine, ReplayState};
use uprov_service::values::{eval_rows, name_mask, Rows, StructureId};
use uprov_structures::{Bool, Clearance, Trust, Witnesses, Worlds};
use uprov_workload::{Workload, WorkloadConfig};

/// The repo benchmark's workload shape at a size a debug test can sweep
/// exhaustively.
fn bench_shaped(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        tables: 4,
        keys_per_table: 100,
        txns: 400,
        ops_per_txn: 5,
        skew: 2,
        hot_keys: 8,
        hot_bias_pct: 30,
        abort_rate_pct: 15,
        modify_width: 3,
    }
}

fn witness_set(mask: u64) -> BTreeSet<u32> {
    (0..16).filter(|k| mask >> k & 1 == 1).collect()
}

/// The service's fingerprint valuation, rebuilt from the wire-stable
/// per-structure salts: every named atom takes `mk(name_mask(name, salt))`.
fn fingerprint<S: UpdateStructure>(
    state: &ReplayState,
    salt: u64,
    top: S::Value,
    mk: impl Fn(u64) -> S::Value,
) -> Valuation<S::Value> {
    let mut val = Valuation::constant(top);
    for (name, atom) in state.base_atoms().chain(state.txn_atoms()) {
        val.set(atom, mk(name_mask(name, salt)));
    }
    val
}

/// Atoms the main sweep zeroes: every one in release builds (the CI fuzz
/// matrix), every eighth in debug ones, where two full evaluations per
/// atom under five structures would take a minute and a half (`Witnesses`
/// alone 60 s). The offset rotates with the seed, so the three seeds
/// cover different atoms.
const STRIDE: usize = if cfg!(debug_assertions) { 8 } else { 1 };

/// One catalogue structure as the service evaluates it.
struct Catalogued<S: UpdateStructure> {
    id: StructureId,
    s: S,
    val: Valuation<S::Value>,
    render: fn(&S::Value) -> String,
}

/// Transaction and base atoms of `state` zeroed in turn under `id`: the
/// cached rows, `eval_rows` and the engine's full evaluation agree.
fn sweep<S: UpdateStructure>(
    engine: &Engine,
    state: &ReplayState,
    Catalogued { id, s, val, render }: Catalogued<S>,
    seed: u64,
) -> usize {
    let context = format!("seed {seed}");
    let cached = Rows::new(engine, state, id, None);
    let mut changed_rows = 0;
    let baseline = cached.rows(engine, None);
    assert_eq!(
        baseline,
        eval_rows(engine, state, id, None, 1),
        "{context} {id}"
    );
    let atoms = state.txn_atoms().chain(state.base_atoms());
    for (name, atom) in atoms.skip(seed as usize % STRIDE).step_by(STRIDE) {
        let rows = cached.rows(engine, Some(atom));
        let full = eval_rows(engine, state, id, Some(atom), 1);
        assert_eq!(
            rows, full,
            "{context} {id}: `{name}` zeroed, cone vs eval_rows"
        );
        let by_engine: Vec<(String, String)> = engine
            .eval_tuples(state, &s, &val.clone().with(atom, s.zero()))
            .into_iter()
            .map(|(n, v)| (n.to_owned(), render(&v)))
            .collect();
        assert_eq!(
            rows, by_engine,
            "{context} {id}: `{name}` zeroed, cone vs engine"
        );
        changed_rows += rows.iter().zip(&baseline).filter(|(a, b)| a != b).count();
    }
    changed_rows
}

#[test]
fn cone_rows_match_full_evaluation_under_every_structure() {
    for seed in 1..=3 {
        let cfg = bench_shaped(seed);
        let w = Workload::generate(cfg.clone());
        let mut engine = Engine::new();
        let state = engine
            .replay(&w.log)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));
        let mut changed = 0;
        changed += sweep(
            &engine,
            &state,
            Catalogued {
                id: StructureId::Bool,
                s: Bool,
                val: fingerprint::<Bool>(&state, 0xB001, true, |m| m & 7 != 0),
                render: |v| v.to_string(),
            },
            seed,
        );
        changed += sweep(
            &engine,
            &state,
            Catalogued {
                id: StructureId::Worlds,
                s: Worlds,
                val: fingerprint::<Worlds>(&state, 0x0301_21D5, u64::MAX, |m| m),
                render: |v| format!("{v:#018x}"),
            },
            seed,
        );
        changed += sweep(
            &engine,
            &state,
            Catalogued {
                id: StructureId::Clearance,
                s: Clearance,
                val: fingerprint::<Clearance>(&state, 0xC1EA_4444, u16::MAX, |m| m as u16),
                render: |v| format!("{v:#06x}"),
            },
            seed,
        );
        changed += sweep(
            &engine,
            &state,
            Catalogued {
                id: StructureId::Trust,
                s: Trust,
                val: fingerprint::<Trust>(&state, 0x7121_5757, u32::MAX, |m| m as u32),
                render: |v| format!("{v:#010x}"),
            },
            seed,
        );
        changed += sweep(
            &engine,
            &state,
            Catalogued {
                id: StructureId::Witnesses,
                s: Witnesses,
                val: fingerprint::<Witnesses>(
                    &state,
                    0x3177_7E55,
                    witness_set(u64::MAX),
                    witness_set,
                ),
                render: |v| {
                    let ids: Vec<String> = v.iter().map(|w| w.to_string()).collect();
                    format!("{{{}}}", ids.join(","))
                },
            },
            seed,
        );
        assert!(changed > 0, "{cfg}: no what-if changed any row");
    }
}

/// A name whose Bool fingerprint is already `false` (`m & 7 == 0`):
/// zeroing its atom is no change at all.
#[test]
fn zeroing_an_atom_that_is_already_zero_changes_nothing() {
    let w = Workload::generate(bench_shaped(1));
    let mut engine = Engine::new();
    let state = engine.replay(&w.log).expect("generated log replays");
    let (name, atom) = state
        .txn_atoms()
        .chain(state.base_atoms())
        .find(|(name, _)| name_mask(name, 0xB001) & 7 == 0)
        .expect("one name in eight fingerprints to false");
    let cached = Rows::new(&engine, &state, StructureId::Bool, None);
    let rows = cached.rows(&engine, Some(atom));
    assert_eq!(
        rows,
        cached.rows(&engine, None),
        "`{name}` was already false"
    );
    assert_eq!(
        rows,
        eval_rows(&engine, &state, StructureId::Bool, Some(atom), 1)
    );
}

/// An atom of another state in the same engine occurs under none of this
/// state's tuples.
#[test]
fn zeroing_an_atom_outside_the_schedule_changes_nothing() {
    let mut engine = Engine::new();
    let state = engine
        .replay(&"base x\nbegin t\nmodify y <- x\ncommit\n".parse().unwrap())
        .unwrap();
    let other = engine
        .replay(&"begin u\ninsert z\ncommit\n".parse().unwrap())
        .unwrap();
    let u = other.txn_atom("u").unwrap();
    for id in StructureId::ALL {
        let cached = Rows::new(&engine, &state, id, None);
        assert_eq!(cached.rows(&engine, Some(u)), cached.rows(&engine, None));
        assert_eq!(
            cached.rows(&engine, Some(u)),
            eval_rows(&engine, &state, id, Some(u), 1)
        );
    }
}

/// Two tuples inserted by one transaction into nothing both have
/// provenance `t`, one node: zeroing `t` must change both rows.
#[test]
fn tuples_sharing_one_root_both_change() {
    let mut engine = Engine::new();
    let state = engine
        .replay(&"begin t\ninsert x\ninsert y\ncommit\n".parse().unwrap())
        .unwrap();
    assert_eq!(state.provenance("x"), state.provenance("y"));
    let t = state.txn_atom("t").unwrap();
    let what_if = engine.what_if(&state, &Bool, &Valuation::constant(true));
    assert_eq!(what_if.zeroed(t), [("x", false), ("y", false)]);
    for id in StructureId::ALL {
        let cached = Rows::new(&engine, &state, id, None);
        assert_eq!(
            cached.rows(&engine, Some(t)),
            eval_rows(&engine, &state, id, Some(t), 1),
            "{id}"
        );
    }
}

/// `x +I p` under Bool with `x` true: `p` turns false, the insert's value
/// does not move, and the walk stops there.
#[test]
fn an_unchanged_value_cuts_the_cone_off() {
    let mut engine = Engine::new();
    let state = engine
        .replay(&"base x\nbegin p\ninsert x\ncommit\n".parse().unwrap())
        .unwrap();
    let p = state.txn_atom("p").unwrap();
    let what_if = engine.what_if(&state, &Bool, &Valuation::constant(true));
    assert!(what_if
        .baseline
        .with_atom(engine.arena(), &Bool, p, false)
        .is_empty());
    assert_eq!(what_if.zeroed(p), what_if.rows());
    assert_eq!(what_if.rows(), [("x", true)]);
}

/// A 100 000-deep chain `((x − p) − p) − …` zeroed at its bottom: every
/// node changes, and neither the schedule, the parent table nor the walk
/// recurses.
#[test]
fn a_deep_chain_zeroed_at_its_bottom() {
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let (x, p) = (t.fresh_tuple(), t.fresh_txn());
    let (xa, pa) = (ar.atom(x), ar.atom(p));
    let top = (0..100_000).fold(xa, |e, _| ar.minus(e, pa));
    let val = Valuation::constant(true).with(p, false);
    let base = EvalBaseline::new(&ar, &[top], &Bool, &val);
    assert_eq!(base.roots().collect::<Vec<_>>(), [&true]);
    assert_eq!(base.with_atom(&ar, &Bool, x, false), [(0, false)]);
    assert!(base.with_atom(&ar, &Bool, p, false).is_empty());
}
