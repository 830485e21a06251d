//! The cross-crate differential fuzzing harness.
//!
//! Every test sweeps the same generated case list (seeded workloads from
//! [`uprov_workload::WorkloadConfig::sample`]) and checks one *agreement
//! oracle* between independent execution paths that must produce
//! identical answers:
//!
//! 1. incremental append (random schedule) == one-shot from-scratch replay;
//! 2. cached queries == their `*_uncached` baselines, and log-state
//!    equivalence is reflexive (under reprint) and symmetric;
//! 3. cone re-evaluation from a baseline (`Engine::what_if`) == full
//!    evaluation, for every catalogue structure;
//! 4. cache-valve budgets change memory use, never answers;
//! 5. checkpoint → crash → recover through `uprov-storage` preserves
//!    every query answer;
//! 6. axiom-derived equivalent log variants form one equivalence class —
//!    `equivalent` is symmetric, transitive, and agrees with its
//!    uncached baseline across independently generated variants;
//! 7. a seeded mid-append crash (`FaultStorage`) leaves a disk whose
//!    recovery answers exactly like a from-scratch replay of the
//!    acknowledged prefix;
//! 8. a symbolic abort over certified roots (normal forms) evaluates like
//!    one over the replayed roots, on bench-shaped logs (a census, not
//!    the fuzzed case list).
//!
//! Scaling knobs (see `uprov_workload::knobs`): `UPROV_FUZZ_CASES` (cases
//! per seed; default keeps tier-1 fast) and `UPROV_FUZZ_SEEDS`
//! (comma-separated base seeds; the CI `fuzz-matrix` job fans these out).
//! Every assertion message carries the one-line workload config — paste it
//! back into a `WorkloadConfig` to reproduce a failure exactly.

use std::collections::BTreeSet;

use benchkit::TestRng;
use uprov_core::{eval_roots_in, DenseMemo, NodeId, UpdateStructure, Valuation};
use uprov_engine::{Engine, ReplayState, SymbolicTuple, UpdateLog};
use uprov_storage::{DurableEngine, FaultMode, FaultStorage, MemStorage, Storage, WAL_BLOB};
use uprov_structures::{Bool, Clearance, Trust, Witnesses, Worlds};
use uprov_workload::{equivalent_variant, knobs, Variant, Workload, WorkloadConfig};

/// The generated case list every oracle sweeps: `UPROV_FUZZ_CASES` cases
/// for each seed in `UPROV_FUZZ_SEEDS`.
fn cases() -> Vec<Workload> {
    let per_seed = knobs::fuzz_cases(6);
    let mut out = Vec::new();
    for seed in knobs::fuzz_seeds() {
        for i in 0..per_seed {
            let case_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = TestRng::new(case_seed);
            out.push(Workload::generate(WorkloadConfig::sample(
                case_seed, &mut rng,
            )));
        }
    }
    out
}

/// Per-case RNG for schedule/sampling decisions, decorrelated from the
/// generator's own stream.
fn case_rng(cfg: &WorkloadConfig) -> TestRng {
    TestRng::new(cfg.seed ^ 0xD1FF_E12E_57A7_E000)
}

/// A deterministic 64-bit fingerprint of a name (FNV-1a), the seed for
/// per-atom valuation values: the same name maps to the same value in
/// *any* engine, which is what lets us compare answers across engines
/// whose `Atom` numbering differs (e.g. pre- and post-recovery).
fn name_mask(name: &str, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x100_0000_01b3);
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Builds a valuation assigning `mk(fingerprint(name))` to every base
/// tuple atom and transaction atom of `state`.
fn valuation_for<S, F>(
    w: &Workload,
    state: &ReplayState,
    salt: u64,
    top: S::Value,
    mk: F,
) -> Valuation<S::Value>
where
    S: UpdateStructure,
    F: Fn(u64) -> S::Value,
{
    let mut val = Valuation::constant(top);
    for name in &w.log.base {
        if let Some(atom) = state.base_atom(name) {
            val.set(atom, mk(name_mask(name, salt)));
        }
    }
    for name in &w.txn_names {
        if let Some(atom) = state.txn_atom(name) {
            val.set(atom, mk(name_mask(name, salt)));
        }
    }
    val
}

fn witness_set(mask: u64) -> BTreeSet<u32> {
    (0..16).filter(|k| mask >> k & 1 == 1).collect()
}

/// Owned `(name, value)` rows of a full-database evaluation — the
/// engine-independent form used to compare answers across engines.
fn eval_map<S: UpdateStructure>(
    engine: &Engine,
    state: &ReplayState,
    s: &S,
    val: &Valuation<S::Value>,
) -> Vec<(String, S::Value)> {
    engine
        .eval_tuples(state, s, val)
        .into_iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect()
}

/// Owned comparison rows for a symbolic query answer.
fn sym_rows(engine: &Engine, rows: &[SymbolicTuple]) -> Vec<(String, String, bool)> {
    rows.iter()
        .map(|t| (t.name.to_string(), engine.render(t.provenance), t.saturated))
        .collect()
}

// ---------------------------------------------------------------------
// Oracle 1: incremental maintenance == from-scratch replay.
// ---------------------------------------------------------------------

#[test]
fn incremental_append_matches_from_scratch_replay() {
    for w in cases() {
        let cfg = &w.config;
        let mut rng = case_rng(cfg);
        let mut engine = Engine::new();
        let scratch = engine
            .replay(&w.log)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));

        let slices = w.schedule(&mut rng);
        let mut inc = engine
            .replay(&slices[0])
            .unwrap_or_else(|e| panic!("{cfg}: slice 0: {e}"));
        for (i, slice) in slices.iter().enumerate().skip(1) {
            engine
                .append(&mut inc, slice)
                .unwrap_or_else(|e| panic!("{cfg}: slice {i}: {e}"));
        }

        assert_eq!(
            inc.update_count(),
            scratch.update_count(),
            "{cfg}: update counts"
        );
        // Hash-consing makes structural identity visible as id identity:
        // the appended path must intern the very same provenance nodes.
        let a: Vec<_> = scratch.tuples().collect();
        let b: Vec<_> = inc.tuples().collect();
        assert_eq!(
            a,
            b,
            "{cfg}: tuple provenance ids (schedule {} slices)",
            slices.len()
        );

        let eq = engine.equivalent(&scratch, &inc);
        assert!(eq.is_equivalent(), "{cfg}: semantic equivalence: {eq:?}");
    }
}

// ---------------------------------------------------------------------
// Oracle 2: cached queries == uncached baselines; equivalence is
// reflexive (under reprint) and symmetric.
// ---------------------------------------------------------------------

#[test]
fn cached_queries_match_uncached_baselines() {
    for w in cases() {
        let cfg = &w.config;
        let mut engine = Engine::new();
        let state = engine
            .replay(&w.log)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));

        for txn in &w.txn_names {
            let cached = engine
                .abort_symbolic(&state, txn)
                .unwrap_or_else(|e| panic!("{cfg}: {e}"));
            let baseline = engine
                .abort_symbolic_uncached(&state, txn)
                .unwrap_or_else(|e| panic!("{cfg}: {e}"));
            assert_eq!(
                sym_rows(&engine, &cached),
                sym_rows(&engine, &baseline),
                "{cfg}: abort({txn}) cached vs uncached"
            );
        }

        // Reflexivity, straight and under print→parse→replay.
        assert!(engine.equivalent(&state, &state).is_equivalent(), "{cfg}");
        let reprinted: UpdateLog = w
            .log
            .to_string()
            .parse()
            .unwrap_or_else(|e| panic!("{cfg}: reprint must parse: {e}"));
        let re_state = engine
            .replay(&reprinted)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));
        let fwd = engine.equivalent(&state, &re_state);
        let bwd = engine.equivalent(&re_state, &state);
        assert!(fwd.is_equivalent(), "{cfg}: reprint forward: {fwd:?}");
        assert!(bwd.is_equivalent(), "{cfg}: reprint backward: {bwd:?}");
        let unc = engine.equivalent_uncached(&state, &re_state);
        assert!(unc.is_equivalent(), "{cfg}: uncached equivalence: {unc:?}");
    }
}

// ---------------------------------------------------------------------
// Oracle 3: what-if cones == full evaluation, for every catalogue structure.
// ---------------------------------------------------------------------

#[test]
fn what_if_matches_full_evaluation_for_every_structure() {
    /// One baseline per structure under the seeded valuation: its plain
    /// rows, one random transaction zeroed (the abort what-if) and one
    /// random base tuple zeroed (deletion propagation) must each equal
    /// the full re-evaluation under that valuation.
    fn check<S, F>(w: &Workload, engine: &Engine, state: &ReplayState, s: &S, top: S::Value, mk: F)
    where
        S: UpdateStructure,
        F: Fn(u64) -> S::Value,
    {
        let cfg = &w.config;
        let name = std::any::type_name::<S>();
        let mut rng = case_rng(cfg);
        let val = valuation_for::<S, _>(w, state, 0x51, top, mk);
        let what_if = engine.what_if(state, s, &val);
        assert_eq!(
            what_if.rows(),
            engine.eval_tuples(state, s, &val),
            "{cfg}: {name} baseline"
        );
        let mut atoms = Vec::new();
        if !w.txn_names.is_empty() {
            let txn = &w.txn_names[rng.below(w.txn_names.len())];
            atoms.push(state.txn_atom(txn).expect("generated txn is replayed"));
        }
        if !w.log.base.is_empty() {
            let tuple = &w.log.base[rng.below(w.log.base.len())];
            atoms.push(state.base_atom(tuple).expect("declared base tuple"));
        }
        for atom in atoms {
            assert_eq!(
                what_if.zeroed(atom),
                engine.eval_tuples(state, s, &val.clone().with(atom, s.zero())),
                "{cfg}: {name} with {atom:?} zeroed"
            );
        }
    }

    for w in cases() {
        let cfg = &w.config;
        let mut engine = Engine::new();
        let state = engine
            .replay(&w.log)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));

        check(&w, &engine, &state, &Bool, true, |m| m >> 7 & 1 == 1);
        check(&w, &engine, &state, &Worlds, u64::MAX, |m| m);
        check(&w, &engine, &state, &Clearance, u16::MAX, |m| m as u16);
        check(&w, &engine, &state, &Trust, u32::MAX, |m| m as u32);
        check(
            &w,
            &engine,
            &state,
            &Witnesses,
            witness_set(u64::MAX),
            witness_set,
        );
    }
}

// ---------------------------------------------------------------------
// Oracle 4: cache-valve budgets never change answers.
// ---------------------------------------------------------------------

#[test]
fn cache_valve_budget_never_changes_answers() {
    for w in cases() {
        let cfg = &w.config;
        let mut engine = Engine::new();
        let state = engine
            .replay(&w.log)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));

        // Unbudgeted reference pass: NF is a pure function of the root id
        // in an append-only arena, so these rows must never change.
        let reference: Vec<_> = w
            .txn_names
            .iter()
            .map(|txn| {
                let rows = engine.abort_symbolic(&state, txn).unwrap();
                sym_rows(&engine, &rows)
            })
            .collect();
        let val = valuation_for::<Bool, _>(&w, &state, 0xB0, true, |m| m >> 3 & 1 == 1);
        let ref_eval = eval_map(&engine, &state, &Bool, &val);

        for budget in [Some(64usize), Some(8), Some(1), None] {
            engine.set_cache_budget(budget);
            // Two passes per budget: the first evicts aggressively, the
            // second re-queries through a cold (or thrashing) cache.
            for pass in 0..2 {
                for (ix, txn) in w.txn_names.iter().enumerate() {
                    let rows = engine.abort_symbolic(&state, txn).unwrap();
                    assert_eq!(
                        sym_rows(&engine, &rows),
                        reference[ix],
                        "{cfg}: abort({txn}) budget={budget:?} pass={pass}"
                    );
                }
                assert_eq!(
                    eval_map(&engine, &state, &Bool, &val),
                    ref_eval,
                    "{cfg}: eval budget={budget:?} pass={pass}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Oracle 5: checkpoint → crash → recover preserves every answer.
// ---------------------------------------------------------------------

#[test]
fn checkpoint_recovery_round_trip_preserves_answers() {
    fn compare<S, F>(
        w: &Workload,
        fresh: (&mut Engine, &ReplayState),
        recovered: (&mut Engine, &ReplayState),
        s: &S,
        top: S::Value,
        mk: F,
    ) where
        S: UpdateStructure,
        F: Fn(u64) -> S::Value + Copy,
    {
        let cfg = &w.config;
        // Valuations are built per engine (atom numbering differs) but
        // from the same name fingerprints, so answers are comparable.
        let val_f = valuation_for::<S, _>(w, fresh.1, 0xCA, top.clone(), mk);
        let val_r = valuation_for::<S, _>(w, recovered.1, 0xCA, top, mk);
        assert_eq!(
            eval_map(fresh.0, fresh.1, s, &val_f),
            eval_map(recovered.0, recovered.1, s, &val_r),
            "{cfg}: recovered answers under {}",
            std::any::type_name::<S>()
        );
    }

    for w in cases() {
        let cfg = &w.config;
        let mut rng = case_rng(cfg);
        let slices = w.schedule(&mut rng);
        let snap_after = rng.below(slices.len());

        let (mut db, _) = DurableEngine::open(MemStorage::new()).unwrap();
        for (i, slice) in slices.iter().enumerate() {
            db.append(slice)
                .unwrap_or_else(|e| panic!("{cfg}: slice {i}: {e}"));
            if i == snap_after {
                db.snapshot()
                    .unwrap_or_else(|e| panic!("{cfg}: snapshot: {e}"));
            }
        }
        // Simulated shutdown + restart: whatever landed after the snapshot
        // is replayed from the WAL on open.
        let disk = db.into_storage();
        let (mut db, report) = DurableEngine::open(disk)
            .unwrap_or_else(|e| panic!("{cfg}: recovery (snap after slice {snap_after}): {e}"));
        assert!(report.snapshot_loaded, "{cfg}: snapshot must be found");

        let mut fresh = Engine::new();
        let fresh_state = fresh
            .replay(&w.log)
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));

        {
            let (eng, state) = db.query();
            let mut names_fresh: Vec<&str> = fresh_state.tuple_names().collect();
            let mut names_rec: Vec<&str> = state.tuple_names().collect();
            names_fresh.sort_unstable();
            names_rec.sort_unstable();
            assert_eq!(names_fresh, names_rec, "{cfg}: tuple name sets");

            compare(
                &w,
                (&mut fresh, &fresh_state),
                (eng, state),
                &Bool,
                true,
                |m| m >> 5 & 1 == 1,
            );
            compare(
                &w,
                (&mut fresh, &fresh_state),
                (eng, state),
                &Worlds,
                u64::MAX,
                |m| m,
            );
            compare(
                &w,
                (&mut fresh, &fresh_state),
                (eng, state),
                &Clearance,
                u16::MAX,
                |m| m as u16,
            );
            compare(
                &w,
                (&mut fresh, &fresh_state),
                (eng, state),
                &Trust,
                u32::MAX,
                |m| m as u32,
            );
            compare(
                &w,
                (&mut fresh, &fresh_state),
                (eng, state),
                &Witnesses,
                witness_set(u64::MAX),
                witness_set,
            );

            // Symbolic answers rendered to text are engine-independent too.
            for txn in w.txn_names.iter().take(3) {
                let a = fresh.abort_symbolic(&fresh_state, txn).unwrap();
                let b = eng.abort_symbolic(state, txn).unwrap();
                assert_eq!(
                    sym_rows(&fresh, &a),
                    sym_rows(eng, &b),
                    "{cfg}: recovered abort({txn})"
                );
            }
        }
        drop(db);
    }
}

// ---------------------------------------------------------------------
// Oracle 6: axiom-derived equivalent variants form one equivalence class.
// ---------------------------------------------------------------------

#[test]
fn equivalent_variants_are_transitively_equivalent() {
    let mut any_textual_change = false;
    for w in cases() {
        let cfg = &w.config;
        let mut rng = TestRng::new(cfg.seed ^ 0xEA51_0000_C1A5_5E5E);
        // Three independently generated members of the class: a source
        // reorder, a dead-self-modify compensation, and a compensation
        // chain stacking modify-from-deleted on top of the reorder.
        let va = equivalent_variant(&w.log, Variant::PermuteModifySources, &mut rng);
        let vb = equivalent_variant(&w.log, Variant::DeadSelfModify, &mut rng);
        let vc = equivalent_variant(&va, Variant::ModifyFromDeleted, &mut rng);
        any_textual_change |= [&va, &vb, &vc]
            .iter()
            .any(|v| v.to_string() != w.log.to_string());

        let mut engine = Engine::new();
        let states: Vec<ReplayState> = [&w.log, &va, &vb, &vc]
            .iter()
            .map(|log| {
                engine
                    .replay(log)
                    .unwrap_or_else(|e| panic!("{cfg}: variant replays: {e}"))
            })
            .collect();

        // Every pair in both directions: cached verdict is "equivalent"
        // and agrees with the uncached baseline. In particular the chain
        // s0~s1, s1~s2, s2~s3 closes transitively (s0~s2, s0~s3, s1~s3).
        for i in 0..states.len() {
            for j in 0..states.len() {
                if i == j {
                    continue;
                }
                let eq = engine.equivalent(&states[i], &states[j]);
                assert!(eq.is_equivalent(), "{cfg}: variants {i} vs {j}: {eq:?}");
                let unc = engine.equivalent_uncached(&states[i], &states[j]);
                assert!(
                    unc.is_equivalent(),
                    "{cfg}: variants {i} vs {j} uncached: {unc:?}"
                );
            }
        }
    }
    assert!(
        any_textual_change,
        "variant sweep never changed a log — the oracle is vacuous"
    );
}

// ---------------------------------------------------------------------
// Oracle 7: seeded mid-append crash == from-scratch replay of the
// acknowledged prefix.
// ---------------------------------------------------------------------

#[test]
fn crashed_workload_recovers_to_the_acknowledged_prefix() {
    for w in cases() {
        let cfg = &w.config;
        let mut rng = TestRng::new(cfg.seed ^ 0xFA01_7000_00C0_FFEE);
        let slices = w.schedule(&mut rng);

        // Clean dry run to learn the final WAL length, so the seeded
        // crash offset always lands somewhere that matters.
        let (mut dry, _) = DurableEngine::open(MemStorage::new()).unwrap();
        for s in &slices {
            dry.append(s).unwrap_or_else(|e| panic!("{cfg}: dry: {e}"));
        }
        let wal_len = dry.storage().len(WAL_BLOB).unwrap().unwrap_or(0);

        // Crash during the append that crosses a random WAL offset
        // (offset == wal_len means no crash at all — the degenerate case
        // stays in the sweep on purpose).
        let offset = rng.below(wal_len as usize + 1) as u64;
        let fault = FaultStorage::new(
            MemStorage::new(),
            FaultMode::CrashAt {
                blob: WAL_BLOB.into(),
                offset,
            },
        );
        let (mut db, _) = DurableEngine::open(fault).unwrap();
        let snap_after = rng.below(slices.len());
        let mut acked = UpdateLog::default();
        for (i, slice) in slices.iter().enumerate() {
            match db.append(slice) {
                Ok(_) => {
                    acked.base.extend(slice.base.iter().cloned());
                    acked.txns.extend(slice.txns.iter().cloned());
                }
                // The injected crash: everything from this append on is
                // lost. (A checkpoint truncates the WAL, so runs whose
                // offset lands in truncated territory never crash — the
                // degenerate full-recovery case stays in the sweep.)
                Err(_) => break,
            }
            if i == snap_after {
                // A checkpoint mid-run exercises snapshot + WAL-tail
                // recovery jointly; it cannot fail before the crash.
                db.snapshot()
                    .unwrap_or_else(|e| panic!("{cfg}: snapshot: {e}"));
            }
        }

        // "The machine rebooted": recover from the surviving bytes.
        let disk = db.into_storage().into_inner();
        let (mut rec, _report) = DurableEngine::open(disk)
            .unwrap_or_else(|e| panic!("{cfg}: recovery at offset {offset}/{wal_len}: {e}"));

        let mut fresh = Engine::new();
        let fresh_state = fresh
            .replay(&acked)
            .unwrap_or_else(|e| panic!("{cfg}: prefix replays: {e}"));

        let (eng, state) = rec.query();
        assert_eq!(
            fresh_state.update_count(),
            state.update_count(),
            "{cfg}: offset {offset}/{wal_len}: update counts"
        );
        let mut names_fresh: Vec<&str> = fresh_state.tuple_names().collect();
        let mut names_rec: Vec<&str> = state.tuple_names().collect();
        names_fresh.sort_unstable();
        names_rec.sort_unstable();
        assert_eq!(
            names_fresh, names_rec,
            "{cfg}: offset {offset}: tuple names"
        );

        let val_f = valuation_for::<Worlds, _>(&w, &fresh_state, 0xF4, u64::MAX, |m| m);
        let val_r = valuation_for::<Worlds, _>(&w, state, 0xF4, u64::MAX, |m| m);
        assert_eq!(
            eval_map(&fresh, &fresh_state, &Worlds, &val_f),
            eval_map(eng, state, &Worlds, &val_r),
            "{cfg}: offset {offset}/{wal_len}: recovered answers"
        );
    }
}

/// A symbolic census: aborting every 50th transaction of a bench-shaped
/// log, a state whose tuples are certified (each root its normal form)
/// and an uncertified replay of the same log, in one engine, must answer
/// alike. Equal ids are the same expression; every other row must
/// evaluate alike under 64 seeded `Worlds` valuations. Those rows are
/// equivalent normal forms that substitution and re-normalization spelled
/// two ways (a canonicity gap, not a wrong answer): counted and printed,
/// not failed.
#[test]
fn certified_and_replayed_aborts_agree_on_every_row() {
    for seed in 1..=3 {
        let w = Workload::generate(WorkloadConfig::bench_shaped(seed, 256, 2_000));
        let cfg = &w.config;
        let mut engine = Engine::new();
        let mut by_nf = engine.replay(&w.log).expect("replays");
        assert!(engine.certify(&mut by_nf).saturated.is_empty(), "{cfg}");
        let by_replay = engine.replay(&w.log).expect("replays");
        let vals: Vec<Valuation<u64>> = (0..64)
            .map(|salt| valuation_for::<Worlds, _>(&w, &by_nf, salt, u64::MAX, |m| m))
            .collect();
        let (mut rows, mut differ) = (0, 0);
        for txn in w.txn_names.iter().step_by(50) {
            let a = engine.abort_symbolic(&by_nf, txn).expect("known txn");
            let b = engine.abort_symbolic(&by_replay, txn).expect("known txn");
            assert_eq!(a.len(), b.len(), "{cfg}: abort {txn}");
            let (mut xs, mut ys): (Vec<NodeId>, Vec<NodeId>) = (Vec::new(), Vec::new());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name, "{cfg}: abort {txn}");
                assert!(!x.saturated && !y.saturated, "{cfg}: abort {txn}");
                if x.provenance != y.provenance {
                    xs.push(x.provenance);
                    ys.push(y.provenance);
                }
            }
            rows += a.len();
            differ += xs.len();
            let mut memo = DenseMemo::new();
            for val in &vals {
                assert_eq!(
                    eval_roots_in(engine.arena(), &xs, &Worlds, val, &mut memo),
                    eval_roots_in(engine.arena(), &ys, &Worlds, val, &mut memo),
                    "{cfg}: abort {txn}"
                );
            }
        }
        eprintln!("symbolic census, seed {seed}: {differ} of {rows} rows differ by normal form");
    }
}
