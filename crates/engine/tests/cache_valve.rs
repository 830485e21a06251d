//! Regression tests for the epoch-based cache-budget valve
//! (`Engine::set_cache_budget`).
//!
//! ROADMAP open item (PR 4): the engine's `NfCache` + substitution cache
//! grow monotonically with distinct queried roots — correct (entries are
//! pure facts about ids) but unbounded, which a long-lived
//! million-query deployment cannot afford. The valve must (a) keep the
//! combined entry count under the budget across an unbounded stream of
//! *distinct* queries, and (b) never change any answer: eviction only ever
//! costs recomputation.

use uprov_engine::{Engine, UpdateLog};

/// Drives one engine through `iterations` append-then-query cycles where
/// **every** query is distinct (a fresh transaction is appended and then
/// aborted symbolically), so both caches are fed new `(atom, root)` /
/// `root` keys on every single iteration — the million-query-loop shape,
/// scaled down to stay fast in debug builds (the growth mechanism is
/// per-iteration, so boundedness at 1.5k iterations is boundedness at 1M).
fn churn(engine: &mut Engine, iterations: usize, budget: Option<usize>) -> usize {
    engine.set_cache_budget(budget);
    let base: UpdateLog = "base x0\nbase x1\nbase x2\nbase x3\n".parse().unwrap();
    let mut state = engine.replay(&base).unwrap();
    let mut peak = 0;
    for i in 0..iterations {
        let delta: UpdateLog = format!("begin t{i}\ninsert x{}\ncommit\n", i % 4)
            .parse()
            .unwrap();
        engine.append(&mut state, &delta).unwrap();
        engine.certify(&mut state);
        let txn = format!("t{i}");
        let view = engine.abort_symbolic(&state, &txn).unwrap();
        assert_eq!(view.len(), 4);
        assert!(view.iter().all(|t| !t.saturated));
        peak = peak.max(engine.cached_entries());
        if let Some(budget) = budget {
            assert!(
                engine.cached_entries() <= budget,
                "iteration {i}: {} cached entries exceed the {budget} budget",
                engine.cached_entries()
            );
        }
        // Periodically cross-check the incremental answer against the
        // from-scratch baseline: eviction must never change results.
        if i % 127 == 0 {
            let uncached = engine.abort_symbolic_uncached(&state, &txn).unwrap();
            let cached = engine.abort_symbolic(&state, &txn).unwrap();
            assert_eq!(cached, uncached, "iteration {i}: eviction changed answers");
        }
    }
    peak
}

#[test]
fn unbounded_engine_grows_without_limit() {
    // The control: without a budget the caches really do grow with every
    // distinct query — the test has teeth only because this baseline blows
    // straight past the budget the valve enforces below.
    let mut engine = Engine::new();
    let peak = churn(&mut engine, 300, None);
    assert!(
        peak > 600,
        "expected unbounded growth past 600 entries, peaked at {peak}"
    );
}

#[test]
fn budget_bounds_caches_across_a_distinct_query_churn() {
    let mut engine = Engine::new();
    let peak = churn(&mut engine, 1_500, Some(256));
    assert!(peak <= 256, "budget violated: peak {peak}");
    // The engine still answers correctly after heavy eviction churn (the
    // per-iteration cross-checks inside churn() already verified answers
    // along the way).
    assert!(engine.cached_entries() <= 256);
}

#[test]
fn tiny_budget_keeps_the_current_querys_working_set() {
    // A budget smaller than one query's insertions cannot be met without
    // dropping the entries the query just produced; the valve keeps them
    // (documented overshoot) rather than thrashing, and answers stay
    // correct.
    let mut engine = Engine::new();
    let log: UpdateLog = "base a\nbase b\nbegin t1\ninsert a\ninsert b\ncommit\n"
        .parse()
        .unwrap();
    let state = engine.replay(&log).unwrap();
    engine.set_cache_budget(Some(1));
    let view = engine.abort_symbolic(&state, "t1").unwrap();
    let uncached = engine.abort_symbolic_uncached(&state, "t1").unwrap();
    assert_eq!(view, uncached);
    assert!(
        engine.cached_entries() >= 1,
        "current epoch survives a too-small budget"
    );
    // The *next* enforcement point can evict last query's epoch.
    let view2 = engine.abort_symbolic(&state, "t1").unwrap();
    assert_eq!(view2, uncached);
}

#[test]
fn setting_a_budget_enforces_immediately_and_none_disables() {
    let mut engine = Engine::new();
    let log: UpdateLog = "base a\nbegin t1\ninsert a\ncommit\nbegin t2\ninsert a\ncommit\n"
        .parse()
        .unwrap();
    let mut state = engine.replay(&log).unwrap();
    engine.certify(&mut state);
    engine.abort_symbolic(&state, "t1").unwrap();
    engine.abort_symbolic(&state, "t2").unwrap();
    let grown = engine.cached_entries();
    assert!(grown > 0);
    // Lowering the budget evicts old epochs on the spot.
    engine.set_cache_budget(Some(0));
    assert_eq!(
        engine.cached_entries(),
        0,
        "all epochs are old at this point"
    );
    assert_eq!(engine.cache_budget(), Some(0));
    // Disabling lets the caches grow again.
    engine.set_cache_budget(None);
    engine.abort_symbolic(&state, "t1").unwrap();
    assert!(engine.cached_entries() > 0);
}

#[test]
fn hot_working_set_outlives_budget_pressure() {
    // PR 6: the valve is hit-aware. NF-cache entries the workload keeps
    // touching are re-tagged to the current epoch on every hit
    // (`NfCache::lookup_refresh`), so eviction drops cold
    // one-shot entries first and a hot working set stays resident across
    // unbounded churn — LRU-ish semantics at epoch granularity.
    //
    // The hot query is an equivalence check between two states whose `a`
    // roots are *distinct ids with equal normal forms* (`b c` vs `c b`
    // sources — sum interning preserves order), so every run must resolve
    // both roots through the engine's NF cache: a root-level hit if the
    // entry survived, a recorded miss if churn evicted it. Reverting
    // `lookup_refresh` to the non-refreshing `lookup` makes this test
    // fail at the first post-eviction iteration.
    let mut engine = Engine::new();
    engine.set_cache_budget(Some(96));
    let hot_a = engine
        .replay(
            &"base b c\nbegin p\nmodify a <- b c\ncommit\n"
                .parse()
                .unwrap(),
        )
        .unwrap();
    let hot_b = engine
        .replay(
            &"base b c\nbegin p\nmodify a <- c b\ncommit\n"
                .parse()
                .unwrap(),
        )
        .unwrap();
    assert_ne!(
        hot_a.provenance("a"),
        hot_b.provenance("a"),
        "distinct ids, or the query would skip normalization entirely"
    );
    // Warm: the first equivalence run pays the misses and caches the NFs.
    assert!(engine.equivalent(&hot_a, &hot_b).is_equivalent());

    // Cold churn: every iteration appends a fresh transaction to a
    // *separate* state and queries it — all-new roots, maximal pressure.
    let cold_log: UpdateLog = "base c0 c1 c2 c3\n".parse().unwrap();
    let mut cold = engine.replay(&cold_log).unwrap();
    let mut peak = 0;
    for i in 0..400 {
        let delta: UpdateLog = format!("begin ct{i}\ninsert c{}\ncommit\n", i % 4)
            .parse()
            .unwrap();
        engine.append(&mut cold, &delta).unwrap();
        engine.certify(&mut cold);
        engine.abort_symbolic(&cold, &format!("ct{i}")).unwrap();
        let entries = engine.cached_entries();
        assert!(entries <= 96, "iteration {i}: valve broke ({entries})");
        peak = peak.max(entries);

        // The hot query must stay all-hits: its entries were refreshed on
        // the previous touch, so churn evictions never reach them.
        let misses_before = engine.nf_cache().misses();
        assert!(engine.equivalent(&hot_a, &hot_b).is_equivalent());
        assert_eq!(
            engine.nf_cache().misses(),
            misses_before,
            "iteration {i}: a hot root fell out of the cache under churn"
        );
    }
    assert!(
        peak >= 90,
        "the churn never pressured the budget (peak {peak})"
    );
}

#[test]
fn eviction_follows_age_across_both_caches() {
    // One clock tags both caches, so eviction is oldest-first across them:
    // a newer substitution image never goes while an older normal form
    // stays. The old normal forms come from a certify; the newer epoch
    // holds an abort's normal forms *and* its substitution images on
    // disjoint names. A budget of exactly the abort's entries keeps that
    // whole epoch and drops the certify's.
    let mut engine = Engine::new();
    let old_log: UpdateLog = "base a0 a1 a2 a3\nbegin t\ninsert a0\ncommit\n"
        .parse()
        .unwrap();
    let mut old = engine.replay(&old_log).unwrap();
    engine.certify(&mut old);
    let new_log: UpdateLog = "base b0 b1\nbegin u\ninsert b0\ninsert b1\ncommit\n"
        .parse()
        .unwrap();
    let new = engine.replay(&new_log).unwrap();
    let before = engine.cached_entries();
    let view = engine.abort_symbolic(&new, "u").unwrap();
    assert_eq!(view, engine.abort_symbolic_uncached(&new, "u").unwrap());
    let budget = engine.cached_entries() - before;
    assert!(budget > 0 && before > 0);
    engine.set_cache_budget(Some(budget));
    assert_eq!(
        engine.cached_entries(),
        budget,
        "the abort's epoch fits the budget and stays whole"
    );
}
