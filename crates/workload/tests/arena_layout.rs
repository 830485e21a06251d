//! What the flat arena costs on a generated workload, what certifying adds
//! to it, what a cached what-if baseline costs beside it, what a
//! checkpoint of it costs on disk, and that the snapshot frame around it
//! kept its bytes.

use uprov_core::{reduce, NodeId, Valuation};
use uprov_engine::{Engine, ReplayState};
use uprov_storage::crc::crc32;
use uprov_storage::{snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use uprov_structures::Worlds;
use uprov_workload::{Workload, WorkloadConfig};

fn replayed_and_certified(cfg: WorkloadConfig) -> (Engine, ReplayState) {
    let w = Workload::generate(cfg.clone());
    let mut engine = Engine::new();
    let mut state = engine
        .replay(&w.log)
        .unwrap_or_else(|e| panic!("{cfg}: {e}"));
    let cert = engine.certify(&mut state);
    assert!(cert.saturated.is_empty(), "{cfg}: {:?}", cert.saturated);
    (engine, state)
}

/// The repo benchmark's `replay_batch` shape, scaled to 2 000 transactions.
fn bench_like(seed: u64, txns: usize) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        tables: 4,
        keys_per_table: 256,
        txns,
        ops_per_txn: 5,
        skew: 2,
        hot_keys: 8,
        hot_bias_pct: 30,
        abort_rate_pct: 15,
        modify_width: 3,
    }
}

/// An absolute budget (ROADMAP aim 1): one stored copy of each node is a
/// 16-byte record, an 8-byte hash, a 4-byte table slot at load ≤ 3/4 and
/// its share of the slabs — 39 B per node here, where an owning hash map
/// beside the node vector cost ≈ 90.
///
/// `heap_bytes` counts capacity and every vector involved doubles, so the
/// live figure saw-tooths (≈ 33 B just before a doubling, ≈ 60 B just
/// after); this workload's 58 616 nodes sit 10 % under the next one. If a
/// change to the rewrite rules moves the node count across it, re-pick
/// `txns` rather than the budget: the trimmed copy (`clone` allocates
/// exactly) is the phase-free half of the check.
#[test]
fn arena_stays_within_its_per_node_heap_budget() {
    let (engine, _) = replayed_and_certified(bench_like(1, 2_000));
    let arena = engine.arena();
    assert!(arena.len() > 10_000, "only {} nodes", arena.len());
    let live = arena.heap_bytes() / arena.len();
    assert!(live <= 48, "{live} B per node in the live arena");
    let trimmed = arena.clone().heap_bytes() / arena.len();
    assert!(trimmed <= 40, "{trimmed} B per node in a trimmed copy");
}

/// What the service keeps per structure to answer what-if reads: a
/// `Worlds` baseline over every tuple, parent table included, in bytes per
/// schedule node. Measured here: 21 962 nodes, 19.6 B each before the
/// first what-if, 31.2 B after it — a 4 B schedule entry, the 8 B value, a
/// 4 B slot in the dense position index (sized by the largest root, ≈ 1.1
/// slots per node here), a 4 B parent-table offset and 4 B per child edge
/// (≈ 2 per node), plus ≈ 1 B of atom and root tables. The limit leaves
/// 5 B for the schedule and atom vectors, which grow by doubling; a
/// second copy of anything per node breaks it.
#[test]
fn what_if_baseline_stays_within_its_per_node_heap_budget() {
    let (engine, state) = replayed_and_certified(bench_like(1, 2_000));
    let roots: Vec<NodeId> = state.tuples().map(|(_, id)| id).collect();
    let nodes = engine.arena().topo_order_roots(&roots).len();
    assert!(nodes > 10_000, "only {nodes} nodes");
    let what_if = engine.what_if(&state, &Worlds, &Valuation::constant(u64::MAX));
    let one_shot = what_if.baseline.heap_bytes() / nodes;
    let (_, t) = state.txn_atoms().next().expect("a transaction");
    what_if.zeroed(t); // builds the parent table
    let served = what_if.baseline.heap_bytes() / nodes;
    assert!(one_shot <= 24, "{one_shot} B per node before any what-if");
    assert!(served <= 36, "{served} B per node with the parent table");
}

/// An absolute budget in counts (ROADMAP aim 1): the nodes certifying
/// interns beyond what replay built, against the nodes the normal forms
/// consist of. Visiting each node once leaves only transient reducts
/// (≈ 1.2×); sweeping the whole DAG in rounds re-interned every ancestor of
/// whatever moved and sat at ≈ 2.2×.
#[test]
fn certify_interns_little_beyond_the_normal_forms() {
    for seed in 1..=3 {
        let cfg = WorkloadConfig {
            keys_per_table: 200,
            ..bench_like(seed, 2_000)
        };
        let w = Workload::generate(cfg.clone());
        let mut engine = Engine::new();
        let mut state = engine.replay(&w.log).expect("generated log replays");
        let replayed = engine.arena().len();
        let cert = engine.certify(&mut state);
        assert!(cert.saturated.is_empty(), "{cfg}: {:?}", cert.saturated);
        let nfs: Vec<NodeId> = state
            .tuple_names()
            .filter_map(|name| state.certified_nf(name))
            .collect();
        let interned = engine.arena().len() - replayed;
        let reachable = engine.arena().topo_order_roots(&nfs).len();
        assert!(
            interned * 10 <= reachable * 14,
            "{cfg}: certify interned {interned} nodes for {reachable} normal-form nodes"
        );
        // The confirming sweep the normalizer does not run: reducing at
        // every node under every normal form (one Σ over them all, itself
        // left alone) moves nothing.
        let mut arena = engine.arena().clone();
        let all = arena.sum(nfs);
        let swept = arena.rewrite_pass(all, &mut |ar, n| if n == all { n } else { reduce(ar, n) });
        assert_eq!(swept, all, "{cfg}: a certified normal form still reduces");
    }
}

/// `snapshot::encode` writes header and payload into one buffer and patches
/// the length and checksum afterwards; the blob must be what framing a
/// finished payload produced.
#[test]
fn snapshot_frame_is_magic_version_length_crc_payload() {
    for cfg in [
        WorkloadConfig::default(),
        bench_like(2, 40),
        bench_like(3, 400),
    ] {
        let (engine, state) = replayed_and_certified(cfg.clone());
        let blob = snapshot::encode(&engine, &state, 9);
        let payload = &blob[24..];
        let mut framed = Vec::new();
        framed.extend_from_slice(&SNAPSHOT_MAGIC);
        framed.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        assert!(blob == framed, "{cfg}: frame bytes moved");
        let back = snapshot::decode(&blob).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        assert_eq!(back.wal_seq, 9, "{cfg}");
        assert!(
            snapshot::encode(&back.engine, &back.state, 9) == blob,
            "{cfg}: re-encoding the recovered engine moved bytes"
        );
    }
}

/// An absolute budget in counts (ROADMAP aim 1): the bytes a checkpoint
/// stores per update applied. Varint integers and children stored as
/// back-distances put these workloads at 23.6–23.9 B per update; four-byte
/// ids and integers cost 51.9–52.5.
#[test]
fn snapshot_stays_within_its_per_update_byte_budget() {
    for seed in 1..=3 {
        let (engine, state) = replayed_and_certified(bench_like(seed, 2_000));
        let bytes = snapshot::encode(&engine, &state, 0).len();
        let updates = state.update_count();
        assert!(updates > 5_000, "seed {seed}: only {updates} updates");
        assert!(
            bytes <= 30 * updates,
            "seed {seed}: {bytes} B for {updates} updates ({:.1} B each)",
            bytes as f64 / updates as f64
        );
    }
}
