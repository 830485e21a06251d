//! The storage layer's efficiency guard: recovering from a checkpoint plus
//! a short WAL tail must stay much cheaper than booting cold from the
//! textual log, because restart cost tracks the tail, not the history. The
//! recovery reports are checked in every build; the timing guard is
//! ignored in debug builds — CI runs it with `--release`.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use uprov_engine::{Engine, UpdateLog};
use uprov_storage::{DurableEngine, MemStorage};

/// 2 500 transactions × 4 updates = the 10k-update log.
const TXNS: usize = 2_500;
const SAMPLES: usize = 11;
const SAMPLE_TIME: Duration = Duration::from_millis(50);

/// The tests in this file run one at a time: `cargo test` runs tests on
/// parallel threads, and a timing sample must not share the CPU with one.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-of-[`SAMPLES`] ns per call of `a` and of `b`, sampled alternately
/// after a warm-up call each; a sample runs its body for [`SAMPLE_TIME`].
fn best_of_interleaved(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    fn sample(f: &mut impl FnMut()) -> f64 {
        let (start, mut calls) = (Instant::now(), 0u32);
        while calls == 0 || start.elapsed() < SAMPLE_TIME {
            f();
            calls += 1;
        }
        start.elapsed().as_nanos() as f64 / f64::from(calls)
    }
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        best_a = best_a.min(sample(&mut a));
        best_b = best_b.min(sample(&mut b));
    }
    (best_a, best_b)
}

/// One transaction of the replay-shaped log: 4 updates, one accumulator.
fn txn_block(i: usize) -> String {
    format!("begin t{i}\ninsert r{i}\nmodify acc <- r{i} seed\ninsert s{i}\ndelete s{i}\ncommit\n")
}

/// The 10k-update log as a certified snapshot plus its last `tail_txns`
/// transactions appended as `tail_records` WAL records.
fn checkpointed_disk(tail_txns: usize, tail_records: usize) -> MemStorage {
    let head_txns = TXNS - tail_txns;
    let mut head = String::from("base acc seed\n");
    head.extend((0..head_txns).map(txn_block));
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh open");
    db.append(&head.parse().expect("head parses"))
        .expect("head applies");
    db.certify();
    db.snapshot().expect("checkpoint");
    let per_record = tail_txns / tail_records;
    for chunk in 0..tail_records {
        let start = head_txns + chunk * per_record;
        let delta: String = (start..start + per_record).map(txn_block).collect();
        db.append(&delta.parse().expect("delta parses"))
            .expect("delta applies");
    }
    assert_eq!(db.state().update_count(), 4 * TXNS);
    db.into_storage()
}

#[test]
fn checkpointed_disks_recover_from_snapshot_plus_tail() {
    let _serial = serial();
    // A recent checkpoint, 25 single-transaction records behind, and a
    // stale one, 100 transactions behind in 10 batch records.
    for (tail_txns, tail_records) in [(25, 25), (100, 10)] {
        let disk = checkpointed_disk(tail_txns, tail_records);
        let (mut db, report) = DurableEngine::open(disk).expect("recovers");
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records_applied, tail_records);
        db.certify();
        assert_eq!(db.state().dirty_count(), 0);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing guard: release only")]
fn recovery_is_at_least_4x_faster_than_a_cold_boot() {
    let _serial = serial();
    let mut text = String::from("base acc seed\n");
    text.extend((0..TXNS).map(txn_block));
    let log: UpdateLog = text.parse().expect("valid");
    assert_eq!(log.update_count(), 4 * TXNS);
    let disk = checkpointed_disk(25, 25);
    let (cold, recover) = best_of_interleaved(
        || {
            let log: UpdateLog = black_box(&text).parse().expect("parses");
            let mut engine = Engine::new();
            let mut state = engine.replay(&log).expect("replays");
            engine.certify(&mut state);
            black_box(state.certified_count());
        },
        || {
            let (mut db, report) = DurableEngine::open(black_box(disk.clone())).expect("recovers");
            assert!(report.snapshot_loaded);
            assert_eq!(report.wal_records_applied, 25);
            db.certify();
            black_box(db.seq());
        },
    );
    let speedup = cold / recover;
    eprintln!("recovery: cold boot {cold:.0} ns / recover {recover:.0} ns = {speedup:.2}x");
    assert!(
        speedup >= 4.0,
        "recovery only {speedup:.2}x faster than a cold boot (floor 4x)"
    );
}
