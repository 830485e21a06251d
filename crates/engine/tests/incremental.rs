//! Integration tests for the incremental-maintenance layer: `append`
//! semantics (equals one-shot replay, atomic on error), the dirty-set /
//! certify lifecycle, and — the core property — that every incremental
//! NF-backed query agrees with its from-scratch baseline across random
//! append interleavings, with evaluation preserved under `Bool` and
//! `Worlds`.

use std::collections::BTreeMap;

use uprov_core::{
    eval_roots_in, nf_roots_in, DenseMemo, NfMemo, NodeId, UpdateStructure, Valuation,
};
use uprov_engine::{Engine, ReplayError, ReplayState, UpdateLog};
use uprov_structures::{Bool, Worlds};

// The repo-standard seeded xorshift64* harness (`benchkit::testrng`).
use benchkit::TestRng as Rng;

/// A random transaction block over a small tuple universe, `txn_ix` naming
/// the transaction — log-append-shaped traffic for the interleaving tests.
fn random_txn(rng: &mut Rng, txn_ix: usize) -> String {
    let mut s = format!("begin t{txn_ix}\n");
    for _ in 0..1 + rng.below(3) {
        let tuple = format!("r{}", rng.below(6));
        match rng.below(3) {
            0 => s.push_str(&format!("insert {tuple}\n")),
            1 => s.push_str(&format!("delete {tuple}\n")),
            _ => {
                let src = format!("r{}", rng.below(6));
                s.push_str(&format!("modify {tuple} <- {src}\n"));
            }
        }
    }
    s.push_str("commit\n");
    s
}

#[test]
fn append_matches_one_shot_replay() {
    // Replaying a log in random-sized slices through `append` must land on
    // exactly the state of a one-shot replay: same tuples, same provenance
    // ids (one shared arena ⇒ id equality is structural), same counters.
    for seed in 0..30u64 {
        let mut rng = Rng::new(seed * 9_176_867 + 1);
        let n_txns = 2 + rng.below(8);
        let txns: Vec<String> = (0..n_txns).map(|i| random_txn(&mut rng, i)).collect();
        let full_text = format!("base r0 r1\n{}", txns.concat());
        let mut engine = Engine::new();
        let whole = engine
            .replay(&full_text.parse::<UpdateLog>().expect("valid"))
            .expect("replays");

        let mut stepped = engine
            .replay(&"base r0 r1\n".parse::<UpdateLog>().expect("valid"))
            .expect("replays");
        let mut i = 0;
        while i < txns.len() {
            let take = 1 + rng.below(txns.len() - i);
            let slice: UpdateLog = txns[i..i + take].concat().parse().expect("valid");
            engine.append(&mut stepped, &slice).expect("appends");
            i += take;
        }
        assert_eq!(stepped.update_count(), whole.update_count(), "seed {seed}");
        let a: Vec<_> = whole.tuples().collect();
        let b: Vec<_> = stepped.tuples().collect();
        assert_eq!(a, b, "seed {seed}: stepped append diverged from replay");
        for name in whole.tuple_names() {
            assert_eq!(whole.base_atom(name), stepped.base_atom(name));
        }
    }
}

#[test]
fn dirty_certify_lifecycle() {
    let mut engine = Engine::new();
    let mut state = engine
        .replay(
            &"base x\nbegin t1\ninsert y\ncommit\n"
                .parse::<UpdateLog>()
                .unwrap(),
        )
        .unwrap();
    // Fresh replay: every touched tuple is dirty, nothing certified.
    assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), ["x", "y"]);
    assert_eq!(state.certified_count(), 0);

    let cert = engine.certify(&mut state);
    assert_eq!(cert.certified, 2);
    assert!(cert.saturated.is_empty());
    assert_eq!(state.dirty_count(), 0);
    assert_eq!(state.certified_nf("x"), Some(state.provenance("x")));

    // Append touches only y: x keeps its certified entry.
    let delta: UpdateLog = "begin t2\ndelete y\ncommit\n".parse().unwrap();
    assert_eq!(engine.append(&mut state, &delta).unwrap(), 1);
    assert!(state.is_dirty("y") && !state.is_dirty("x"));
    assert_eq!(state.certified_nf("y"), None, "invalidated by the touch");
    assert!(state.certified_nf("x").is_some(), "untouched survives");

    // Re-certify: only y re-normalizes (the cache absorbs everything the
    // engine has certified before), and the map is total again.
    let cert = engine.certify(&mut state);
    assert_eq!(cert.certified, 1);
    assert_eq!(state.certified_count(), 2);
    // A second certify is a no-op.
    assert_eq!(engine.certify(&mut state).certified, 0);
}

/// Asserts that every tuple of `state` is certified with its root as its
/// normal form, and that normalizing the roots again moves none of them.
fn assert_roots_are_normal_forms(engine: &Engine, state: &ReplayState, at: &str) {
    assert_eq!(state.dirty_count(), 0, "{at}");
    for (name, root) in state.tuples() {
        assert_eq!(state.certified_nf(name), Some(root), "{at}: {name}");
    }
    let roots: Vec<NodeId> = state.tuples().map(|(_, root)| root).collect();
    let mut arena = engine.arena().clone();
    let outcomes = nf_roots_in(&mut arena, &roots, &mut NfMemo::new());
    for ((name, root), out) in state.tuples().zip(outcomes) {
        assert!(!out.saturated, "{at}: {name}");
        assert_eq!(out.id, root, "{at}: {name} is not a fixpoint");
    }
}

#[test]
fn certify_makes_each_root_its_normal_form() {
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed * 7_919 + 3);
        let txns: String = (0..12).map(|i| random_txn(&mut rng, i)).collect();
        let log: UpdateLog = format!("base r0 r1\n{txns}").parse().expect("valid");
        let mut engine = Engine::new();
        let mut state = engine.replay(&log).expect("replays");
        let names: Vec<String> = state.tuple_names().map(str::to_owned).collect();
        let replayed: Vec<NodeId> = state.tuples().map(|(_, root)| root).collect();
        assert!(engine.certify(&mut state).saturated.is_empty());
        assert_roots_are_normal_forms(&engine, &state, &format!("seed {seed}"));
        // The normal form evaluates like the expression it replaced.
        let mut val = Valuation::constant(u64::MAX);
        for (_, atom) in state.base_atoms().chain(state.txn_atoms()) {
            val.set(atom, rng.next_u64());
        }
        let roots: Vec<NodeId> = state.tuples().map(|(_, root)| root).collect();
        let eval = |roots: &[NodeId]| {
            eval_roots_in(engine.arena(), roots, &Worlds, &val, &mut DenseMemo::new())
        };
        assert_eq!(eval(&roots), eval(&replayed), "seed {seed}");
        // An append extends the normal form of what it touches; certify
        // makes that extension a normal form in turn.
        let delta: UpdateLog = random_txn(&mut rng, 12).parse().expect("valid");
        engine.append(&mut state, &delta).expect("appends");
        for name in &names {
            if state.is_dirty(name) {
                assert_ne!(state.certified_nf(name), Some(state.provenance(name)));
            }
        }
        assert!(engine.certify(&mut state).saturated.is_empty());
        assert_roots_are_normal_forms(&engine, &state, &format!("seed {seed}, appended"));
    }
}

#[test]
fn append_is_atomic_on_error() {
    let mut engine = Engine::new();
    let mut state = engine
        .replay(
            &"base x\nbegin t\ninsert y\ncommit\n"
                .parse::<UpdateLog>()
                .unwrap(),
        )
        .unwrap();
    engine.certify(&mut state);
    let snapshot_tuples: Vec<_> = state.tuples().map(|(n, id)| (n.to_owned(), id)).collect();
    let snapshot_updates = state.update_count();

    // Late base re-declaration: rejected before any mutation, even though
    // the offending line is *after* applicable ops in the same log.
    let late: UpdateLog = "base x\nbegin u\ninsert z\ncommit\n".parse().unwrap();
    assert_eq!(
        engine.append(&mut state, &late),
        Err(ReplayError::LateBase { name: "x".into() })
    );
    // Name-kind clash, ditto ("t" is a transaction, used here as a tuple).
    let clash: UpdateLog = "begin u\ninsert w\ninsert t\ncommit\n".parse().unwrap();
    assert_eq!(
        engine.append(&mut state, &clash),
        Err(ReplayError::NameKindClash { name: "t".into() })
    );

    let now: Vec<_> = state.tuples().map(|(n, id)| (n.to_owned(), id)).collect();
    assert_eq!(now, snapshot_tuples, "failed appends must not mutate");
    assert_eq!(state.update_count(), snapshot_updates);
    assert_eq!(state.dirty_count(), 0, "nothing was touched");
}

#[test]
fn rejected_append_does_not_pin_atom_kinds() {
    // Regression: validation must not intern — a name seen only in a
    // *rejected* log must stay free, so a later valid log can use it
    // under either kind.
    let mut engine = Engine::new();
    let mut state = engine
        .replay(&"base x\n".parse::<UpdateLog>().unwrap())
        .unwrap();
    // `newname` appears (as a tuple) before the LateBase line that
    // rejects the whole log.
    let bad: UpdateLog = "base newname x\n".parse().unwrap();
    assert_eq!(
        engine.append(&mut state, &bad),
        Err(ReplayError::LateBase { name: "x".into() })
    );
    // `newname` must still be usable as a *transaction* name.
    let ok: UpdateLog = "begin newname\ninsert y\ncommit\n".parse().unwrap();
    assert_eq!(engine.append(&mut state, &ok), Ok(1));
}

#[test]
fn append_rejects_clashes_internal_to_one_log() {
    // A fresh name used as both txn and tuple *within the appended log*
    // must be caught by validation (the atom table alone cannot see it),
    // not panic in the apply pass.
    let mut engine = Engine::new();
    let mut state = engine.replay(&UpdateLog::default()).unwrap();
    let clash: UpdateLog = "begin foo\ninsert foo\ncommit\n".parse().unwrap();
    assert_eq!(
        engine.append(&mut state, &clash),
        Err(ReplayError::NameKindClash { name: "foo".into() })
    );
    assert_eq!(state.update_count(), 0);
}

#[test]
fn clear_nf_cache_is_a_full_memory_valve() {
    let mut engine = Engine::new();
    let state = engine
        .replay(
            &"base x\nbegin t\ninsert y\ncommit\n"
                .parse::<UpdateLog>()
                .unwrap(),
        )
        .unwrap();
    let first = engine.abort_symbolic(&state, "t").unwrap();
    assert!(!engine.nf_cache().is_empty());
    // A zero budget drops every entry older than the current epoch, which
    // is all of them between queries.
    engine.set_cache_budget(Some(0));
    assert!(engine.nf_cache().is_empty());
    assert_eq!(engine.cached_entries(), 0);
    // Queries still work (and re-warm) after the valve.
    engine.set_cache_budget(None);
    let again = engine.abort_symbolic(&state, "t").unwrap();
    assert_eq!(first, again);
    assert!(!engine.nf_cache().is_empty());
}

#[test]
fn append_continues_a_reused_transaction_name() {
    // Re-using a transaction name across appends continues the same
    // transaction (same annotation atom), matching the textual semantics.
    let mut engine = Engine::new();
    let mut split = engine
        .replay(&"begin t\ninsert x\ncommit\n".parse::<UpdateLog>().unwrap())
        .unwrap();
    engine
        .append(
            &mut split,
            &"begin t\ndelete x\ncommit\n".parse::<UpdateLog>().unwrap(),
        )
        .unwrap();
    let joined = engine
        .replay(
            &"begin t\ninsert x\ndelete x\ncommit\n"
                .parse::<UpdateLog>()
                .unwrap(),
        )
        .unwrap();
    assert_eq!(split.provenance("x"), joined.provenance("x"));
    assert_eq!(split.txn_atom("t"), joined.txn_atom("t"));
}

#[test]
fn incremental_queries_agree_with_uncached_across_appends() {
    // The headline property: after every random append, each incremental
    // NF-backed query (equivalence, symbolic abort) must agree exactly —
    // id for id, verdict for verdict — with its from-scratch baseline, and
    // the normalized provenance must evaluate identically to the raw
    // provenance under both catalogue structures.
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed * 7_368_787 + 5);
        let mut engine = Engine::new();
        let base: UpdateLog = "base r0 r1 r2\n".parse().unwrap();
        let mut state = engine.replay(&base).unwrap();
        let mut reference = engine.replay(&base).unwrap();
        let mut txn_names: Vec<String> = Vec::new();
        for step in 0..8 {
            let txn_ix = (seed as usize) * 100 + step;
            let delta: UpdateLog = random_txn(&mut rng, txn_ix).parse().expect("valid");
            txn_names.push(delta.txns[0].name.clone());
            engine.append(&mut state, &delta).expect("appends");
            if rng.below(3) == 0 {
                engine.certify(&mut state);
            }
            // `reference` lags one step behind every other append, so the
            // two states genuinely differ on some tuples.
            if step % 2 == 0 {
                engine.append(&mut reference, &delta).expect("appends");
            }

            let fast = engine.equivalent(&state, &reference);
            let slow = engine.equivalent_uncached(&state, &reference);
            assert_eq!(fast, slow, "seed {seed} step {step}: equivalence diverged");

            let txn = &txn_names[rng.below(txn_names.len())];
            let fast = engine.abort_symbolic(&state, txn).expect("known txn");
            let slow = engine
                .abort_symbolic_uncached(&state, txn)
                .expect("known txn");
            assert_eq!(fast, slow, "seed {seed} step {step}: abort diverged");

            // nf preserves evaluation: the symbolic view under "everything
            // else present" must equal the concrete abort query, under
            // both catalogue structures.
            assert_symbolic_matches_eval(&mut engine, &state, txn, &Bool, true, seed, step);
            assert_symbolic_matches_eval(&mut engine, &state, txn, &Worlds, u64::MAX, seed, step);
        }
    }
}

/// Asserts `abort_symbolic`'s normalized provenance evaluates to exactly
/// the concrete `abort_eval` answer under `structure` — i.e. incremental
/// normalization (cache cuts and all) preserved evaluation.
fn assert_symbolic_matches_eval<S: UpdateStructure>(
    engine: &mut Engine,
    state: &uprov_engine::ReplayState,
    txn: &str,
    structure: &S,
    present: S::Value,
    seed: u64,
    step: usize,
) {
    let view = engine.abort_symbolic(state, txn).expect("known txn");
    let concrete = engine
        .abort_eval(state, txn, structure, present.clone())
        .expect("known txn");
    let val = Valuation::constant(present);
    for (sym, (name, want)) in view.iter().zip(&concrete) {
        assert_eq!(&*sym.name, *name);
        assert!(!sym.saturated, "seed {seed} step {step}: {name} saturated");
        assert_eq!(
            eval_roots_in(
                engine.arena(),
                &[sym.provenance],
                structure,
                &val,
                &mut DenseMemo::new()
            )[0],
            *want,
            "seed {seed} step {step}: {name}: symbolic != concrete abort"
        );
    }
}

#[test]
fn delete_base_symbolic_agrees_with_eval_and_uncached_equiv() {
    let mut engine = Engine::new();
    let log: UpdateLog = "\
base x w
begin t1
insert y
modify z <- x y
commit
begin t2
delete y
commit
"
    .parse()
    .unwrap();
    let state = engine.replay(&log).unwrap();
    let view = engine
        .delete_base_symbolic(&state, "x")
        .expect("base tuple");
    let concrete = engine
        .delete_base_eval(&state, "x", &Bool, true)
        .expect("base tuple");
    let val = Valuation::constant(true);
    for (sym, (name, want)) in view.iter().zip(&concrete) {
        assert_eq!(&*sym.name, *name);
        assert!(!sym.saturated);
        assert_eq!(
            eval_roots_in(
                engine.arena(),
                &[sym.provenance],
                &Bool,
                &val,
                &mut DenseMemo::new()
            )[0],
            *want,
            "{name}: symbolic deletion propagation diverged from eval"
        );
    }
    // w never depended on x: its provenance is untouched by the
    // substitution (exact same id ⇒ O(1) cache hit on later queries).
    let w = view.iter().find(|t| &*t.name == "w").unwrap();
    assert_eq!(w.provenance, state.provenance("w"));
    // Unknown base tuples are reported, not guessed ("y" is not base).
    assert!(engine.delete_base_symbolic(&state, "y").is_err());
}

/// What the reference model keeps per tuple; a tuple not certified is
/// dirty, and a certified tuple's root is its normal form.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ModelTuple {
    root: NodeId,
    certified: bool,
}

/// A tuple name for the reference-model test: one of the byte-order edge
/// cases (`"B" < "a"`, `"a" < "a0" < "ab"`) or a short random string over
/// the same alphabet, so new names land before, between and after the
/// names already tracked. No `t`: transactions are `t<n>`.
fn model_name(rng: &mut Rng) -> String {
    const EDGE: [&str; 5] = ["B", "a", "a0", "ab", "b"];
    const ALPHABET: &[u8] = b"0BZab~";
    if rng.below(3) == 0 {
        return EDGE[rng.below(EDGE.len())].to_owned();
    }
    (0..1 + rng.below(3))
        .map(|_| char::from(ALPHABET[rng.below(ALPHABET.len())]))
        .collect()
}

/// Asserts every bookkeeping reader of `state` against the model.
fn assert_matches_model(state: &ReplayState, model: &BTreeMap<String, ModelTuple>, at: &str) {
    let names: Vec<&str> = model.keys().map(String::as_str).collect();
    assert_eq!(state.tuple_names().collect::<Vec<_>>(), names, "{at}");
    assert_eq!(state.tuple_names().len(), model.len(), "{at}");
    let tuples: Vec<(&str, NodeId)> = model.iter().map(|(n, t)| (n.as_str(), t.root)).collect();
    assert_eq!(state.tuples().collect::<Vec<_>>(), tuples, "{at}");
    assert_eq!(state.tuples().len(), model.len(), "{at}");
    let dirty: Vec<&str> = model
        .iter()
        .filter(|(_, t)| !t.certified)
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), dirty, "{at}");
    assert_eq!(state.dirty_count(), dirty.len(), "{at}");
    assert_eq!(state.certified_count(), model.len() - dirty.len(), "{at}");
    assert_eq!(
        state.certified_count() + state.dirty_count(),
        state.tuples().len(),
        "{at}"
    );
    for (name, t) in model {
        assert_eq!(state.is_dirty(name), !t.certified, "{at}: {name}");
        let nf = t.certified.then_some(t.root);
        assert_eq!(state.certified_nf(name), nf, "{at}: {name}");
        assert_eq!(state.provenance(name), t.root, "{at}: {name}");
        assert_ne!(
            state.is_dirty(name),
            state.certified_nf(name).is_some(),
            "{at}: {name} is exactly one of dirty or certified"
        );
    }
    for absent in ["", "A", "a00", "zz"] {
        if !model.contains_key(absent) {
            assert!(!state.is_dirty(absent), "{at}: {absent}");
            assert_eq!(state.certified_nf(absent), None, "{at}: {absent}");
        }
    }
    let snap = state.to_snapshot();
    let rows: Vec<(String, NodeId, bool)> = model
        .iter()
        .map(|(n, t)| (n.clone(), t.root, t.certified))
        .collect();
    assert_eq!(snap.tuples, rows, "{at}");
    assert_eq!(
        ReplayState::from_snapshot(snap.clone()).to_snapshot(),
        snap,
        "{at}: snapshot round trip"
    );
}

#[test]
fn tuple_bookkeeping_matches_a_sorted_map_model() {
    // Random append schedules interleaved with certify (and with restores
    // from the state's own snapshot), checked after every step against a
    // `BTreeMap` model of the bookkeeping: which tuples exist in which
    // order, their roots, the dirty set and the certified normal forms.
    // A touched tuple's root must be equivalent to a one-shot replay of
    // everything appended so far, in the same engine (an append extends a
    // certified tuple's normal form, not the replayed expression); certify
    // then sets the model's root to the normal form.
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed * 6_364_136_223 + 11);
        let mut engine = Engine::new();
        let mut state = ReplayState::default();
        let mut model: BTreeMap<String, ModelTuple> = BTreeMap::new();
        // Everything appended so far; `base` lines must lead a log.
        let (mut bases, mut txns) = (String::new(), String::new());
        for step in 0..14 {
            let at = format!("seed {seed} step {step}");
            let (mut base, mut delta) = (String::new(), String::new());
            let mut touched: Vec<String> = Vec::new();
            if rng.below(3) == 0 {
                let name = model_name(&mut rng);
                if !model.contains_key(&name) {
                    base = format!("base {name}\n");
                    touched.push(name);
                }
            }
            for t in 0..rng.below(3) {
                delta.push_str(&format!("begin t{step}x{t}\n"));
                for _ in 0..1 + rng.below(4) {
                    let target = model_name(&mut rng);
                    match rng.below(3) {
                        0 => delta.push_str(&format!("insert {target}\n")),
                        1 => delta.push_str(&format!("delete {target}\n")),
                        _ => {
                            let sources: Vec<String> = (0..1 + rng.below(3))
                                .map(|_| model_name(&mut rng))
                                .collect();
                            delta.push_str(&format!("modify {target} <- {}\n", sources.join(" ")));
                            touched.extend(sources);
                        }
                    }
                    touched.push(target);
                }
                delta.push_str("commit\n");
            }
            let log: UpdateLog = format!("{base}{delta}").parse().expect("valid");
            engine.append(&mut state, &log).expect("appends");
            bases.push_str(&base);
            txns.push_str(&delta);
            let whole: UpdateLog = format!("{bases}{txns}").parse().expect("valid");
            let whole = engine.replay(&whole).expect("replays");
            assert!(engine.equivalent(&state, &whole).is_equivalent(), "{at}");
            for name in touched {
                let root = state.provenance(&name);
                let certified = false;
                model.insert(name, ModelTuple { root, certified });
            }
            assert_matches_model(&state, &model, &at);

            if rng.below(3) == 0 {
                let cert = engine.certify(&mut state);
                assert!(cert.saturated.is_empty(), "{at}");
                let was_dirty = model.values().filter(|t| !t.certified).count();
                assert_eq!(cert.certified, was_dirty, "{at}");
                for (name, t) in model.iter_mut().filter(|(_, t)| !t.certified) {
                    t.root = state.certified_nf(name).expect("certified");
                    t.certified = true;
                }
                assert_matches_model(&state, &model, &format!("{at} certified"));
            }
            if rng.below(4) == 0 {
                // Later appends must merge into a restored table's order.
                state = ReplayState::from_snapshot(state.to_snapshot());
                assert_matches_model(&state, &model, &format!("{at} restored"));
            }
        }
    }
}

#[test]
fn repeated_queries_become_pure_cache_hits() {
    let mut engine = Engine::new();
    let mut text = String::from("base hub\n");
    for i in 0..50 {
        text.push_str(&format!("begin t{i}\ninsert hub\ninsert r{i}\ncommit\n"));
    }
    let state = engine.replay(&text.parse::<UpdateLog>().unwrap()).unwrap();
    let first = engine.abort_symbolic(&state, "t25").expect("known txn");
    let miss_after_first = engine.nf_cache().misses();
    assert!(miss_after_first > 0, "first query had to normalize");
    let second = engine.abort_symbolic(&state, "t25").expect("known txn");
    assert_eq!(first, second);
    assert_eq!(
        engine.nf_cache().misses(),
        miss_after_first,
        "repeated query must be all hits"
    );
    assert!(engine.nf_cache().hits() >= state.tuple_names().count() as u64);
}
