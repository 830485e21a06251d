//! Storage-layer benchmarks: cold boot (parse + replay + certify the full
//! textual log) versus durable recovery (snapshot load + WAL-tail replay +
//! certify) on a 10 000-update workload.
//!
//! Run with `cargo bench -p uprov-storage`; the report goes to stderr.
//!
//! The [`benchkit`] `guard_speedup` floor fails the bench (and CI) if
//! recovery drops below 4× over the textual cold boot — the point of
//! checkpointing: a snapshot is a linear bulk rebuild of the
//! already-reduced arena, so restart cost tracks the *tail length*, not
//! the history length. (The floor was 5× before condensed normal forms
//! sped up the cold boot's certify step — the baseline improved, so the
//! tuned ratio shrank.) Two recovery points are measured to make that
//! scaling visible instead of baking it into one tuned number:
//!
//! * `recover_10k` — a recent checkpoint, 25 single-transaction WAL
//!   records behind (the natural per-append granularity). Guarded ≥ 4×.
//! * `recover_10k_stale_tail` — a stale checkpoint, 100 transactions
//!   behind in 10 batch records. Unguarded: it exists to show the
//!   tail-proportional term (replay + incremental certify of the tail)
//!   growing while the snapshot-load term stays fixed.

use benchkit::{black_box, Harness};
use uprov_engine::{Engine, UpdateLog};
use uprov_storage::{DurableEngine, MemStorage, Storage};

/// One transaction block of the synthetic replay-shaped workload (same
/// shape as the engine bench's `synthetic_log`): insert a fresh tuple,
/// fold it into the accumulator, insert + delete a scratch tuple —
/// 4 updates per transaction.
fn txn_block(i: usize) -> String {
    format!("begin t{i}\ninsert r{i}\nmodify acc <- r{i} seed\ninsert s{i}\ndelete s{i}\ncommit\n")
}

/// Builds the checkpointed disk image: the first `TXNS - tail_txns`
/// transactions certified + snapshotted, the last `tail_txns` appended as
/// `tail_records` WAL records on top.
fn checkpointed_disk(tail_txns: usize, tail_records: usize) -> MemStorage {
    let mut head = String::from("base acc seed\n");
    for i in 0..TXNS - tail_txns {
        head.push_str(&txn_block(i));
    }
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh open");
    db.append(&head.parse().expect("head parses"))
        .expect("head applies");
    db.certify();
    db.snapshot().expect("checkpoint");
    let per_record = tail_txns / tail_records;
    for chunk in 0..tail_records {
        let mut delta = String::new();
        for i in
            (TXNS - tail_txns + chunk * per_record)..(TXNS - tail_txns + (chunk + 1) * per_record)
        {
            delta.push_str(&txn_block(i));
        }
        db.append(&delta.parse().expect("delta parses"))
            .expect("delta applies");
    }
    assert_eq!(db.state().update_count(), 4 * TXNS);
    db.into_storage()
}

// 2 500 transactions × 4 updates = the 10k-update log.
const TXNS: usize = 2500;

fn main() {
    let mut h = Harness::new("storage");

    let mut full_text = String::from("base acc seed\n");
    for i in 0..TXNS {
        full_text.push_str(&txn_block(i));
    }
    let full_log: UpdateLog = full_text.parse().expect("valid synthetic log");
    assert_eq!(full_log.update_count(), 4 * TXNS);

    // Baseline: boot from the textual log alone.
    h.bench_full("storage/cold_boot_10k", || {
        let log: UpdateLog = black_box(&full_text).parse().expect("parses");
        let mut engine = Engine::new();
        let mut state = engine.replay(&log).expect("replays");
        engine.certify(&mut state);
        black_box(state.certified_count());
    });

    // Durable path, recent checkpoint: snapshot load + 25 single-txn
    // records of tail replay + incremental certify.
    let fresh = checkpointed_disk(25, 25);
    h.bench_full("storage/recover_10k", || {
        let (mut db, report) = DurableEngine::open(black_box(fresh.clone())).expect("recovers");
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records_applied, 25);
        db.certify();
        black_box(db.seq());
    });

    // Durable path, stale checkpoint: 4% of the log (100 transactions in
    // 10 batch records) replays from the WAL. Unguarded — see module docs.
    let stale = checkpointed_disk(100, 10);
    h.bench_full("storage/recover_10k_stale_tail", || {
        let (mut db, report) = DurableEngine::open(black_box(stale.clone())).expect("recovers");
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records_applied, 10);
        db.certify();
        black_box(db.seq());
    });

    h.guard_speedup(
        "storage/recover_vs_cold_boot",
        "storage/cold_boot_10k",
        "storage/recover_10k",
        4.0,
    );

    // --- Snapshot size metrics: how many bytes a checkpoint costs on
    //     disk. The synthetic 10k log is the throughput workload above;
    //     the ping-pong log (one transaction alternating two inserts
    //     10 000 times) is the condensed-NF showcase — its certified
    //     normal forms are single counted-block nodes, so the certified
    //     overlay adds a fixed few dozen bytes to the dump instead of a
    //     second copy of the history. ---
    h.metric(
        "storage/snapshot_bytes/10k_synthetic",
        fresh
            .len(uprov_storage::SNAPSHOT_BLOB)
            .expect("mem storage")
            .expect("checkpointed") as f64,
        "bytes",
    );
    let mut pp_text = String::from("begin p0\n");
    for i in 0..10_000 {
        pp_text.push_str(if i % 2 == 0 {
            "insert a\n"
        } else {
            "insert b\n"
        });
    }
    pp_text.push_str("commit\n");
    let pp_log: UpdateLog = pp_text.parse().expect("valid");
    let snapshot_bytes = |certify: bool| {
        let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh open");
        db.append(&pp_log).expect("applies");
        if certify {
            db.certify();
        }
        db.snapshot().expect("checkpoint");
        let storage = db.into_storage();
        storage
            .len(uprov_storage::SNAPSHOT_BLOB)
            .expect("mem storage")
            .expect("checkpointed") as f64
    };
    let raw = snapshot_bytes(false);
    let certified = snapshot_bytes(true);
    h.metric("storage/snapshot_bytes/pingpong10k_raw", raw, "bytes");
    h.metric(
        "storage/snapshot_bytes/pingpong10k_certified",
        certified,
        "bytes",
    );

    h.finish();
}
