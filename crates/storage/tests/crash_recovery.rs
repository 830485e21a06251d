//! The crash-recovery property test: kill the engine at **any** WAL byte
//! offset — mid-record short write, exact-boundary truncation, or a
//! silent bit flip — and recovery must rebuild *exactly* the state of a
//! run that only ever saw the surviving record prefix. Exactly means
//! bit-identical: the recovered engine's snapshot encoding (atom table,
//! arena ids, tuple roots, certified NFs, dirty set) equals the reference
//! run's, and symbolic abort answers match id-for-id.
//!
//! The harness is the repo-standard seeded xorshift generator (`proptest`
//! is unavailable offline; the seed is printed on failure). Per seed it
//! generates a random scenario — base tuples, pre-snapshot deltas, a
//! certify + checkpoint, then post-snapshot deltas — computes every WAL
//! record's byte span, and drives [`FaultStorage`] at every record
//! boundary, every boundary ±1, and a batch of random interior offsets.
//!
//! Seed matrix: `UPROV_FAULT_SEEDS="1,2,.."` overrides the built-in list
//! (CI runs an explicit matrix; see `.github/workflows/ci.yml`).

use benchkit::TestRng;
use uprov_engine::UpdateLog;
use uprov_storage::{
    snapshot, wal, DurableEngine, FaultMode, FaultStorage, MemStorage, WAL_BLOB, WAL_MAGIC,
};

/// One randomized run shape: what gets appended before the checkpoint,
/// and which deltas ride the WAL tail afterwards.
struct Scenario {
    /// Appended first (declares every base tuple).
    base: UpdateLog,
    /// Appended, then certified, then snapshotted.
    pre: Vec<UpdateLog>,
    /// Appended after the checkpoint — the records at risk.
    post: Vec<UpdateLog>,
}

/// Tuple names are `x*`, transaction names `t*`: disjoint prefixes, so a
/// random log can never trip `NameKindClash`, and base tuples are declared
/// exactly once up front, so never `LateBase` — every generated log is
/// valid by construction and [`DurableEngine::append`] must accept it.
fn random_scenario(rng: &mut TestRng) -> Scenario {
    let tuples = 3 + rng.below(5);
    let mut txn = 0usize;
    let mut random_delta = |rng: &mut TestRng, max_txns: usize| -> UpdateLog {
        let ntxns = 1 + rng.below(max_txns);
        let mut s = String::new();
        for _ in 0..ntxns {
            s.push_str(&format!("begin t{txn}\n"));
            txn += 1;
            for _ in 0..1 + rng.below(4) {
                let target = rng.below(tuples);
                match rng.below(3) {
                    0 => s.push_str(&format!("insert x{target}\n")),
                    1 => s.push_str(&format!("delete x{target}\n")),
                    _ => {
                        let mut srcs = String::new();
                        for _ in 0..1 + rng.below(2) {
                            srcs.push_str(&format!(" x{}", rng.below(tuples)));
                        }
                        s.push_str(&format!("modify x{target} <-{srcs}\n"));
                    }
                }
            }
            s.push_str("commit\n");
        }
        s.parse().expect("generated log is valid text")
    };
    let mut base_text = String::from("base");
    for j in 0..1 + rng.below(tuples) {
        base_text.push_str(&format!(" x{j}"));
    }
    base_text.push('\n');
    let mut base: UpdateLog = base_text.parse().expect("valid base");
    let opening = random_delta(rng, 2);
    base.txns = opening.txns;
    let pre = (0..rng.below(3)).map(|_| random_delta(rng, 2)).collect();
    let post = (0..1 + rng.below(5))
        .map(|_| random_delta(rng, 2))
        .collect();
    Scenario { base, pre, post }
}

/// Runs the pre-fault phase on clean storage: base + pre-deltas, certify,
/// checkpoint. Returns "the disk" right after the checkpoint — the faults
/// are armed only on top of this (an offset in the post-snapshot WAL
/// would otherwise fire during the pre-phase, whose WAL grows past it
/// long before the reset).
fn drive_to_checkpoint(scenario: &Scenario) -> MemStorage {
    let (mut db, report) =
        DurableEngine::open(MemStorage::new()).expect("driver opens clean storage");
    assert_eq!(report.wal_records_applied, 0);
    db.append(&scenario.base).expect("base accepted");
    for delta in &scenario.pre {
        db.append(delta).expect("pre-delta accepted");
    }
    db.certify();
    db.snapshot().expect("checkpoint succeeds pre-fault");
    db.into_storage()
}

/// Appends the first `count` post-snapshot deltas on top of a checkpoint
/// disk, stopping early if the fault kills an append (the engine object
/// dies with the process either way — only the storage comes back).
fn drive_post<S: uprov_storage::Storage>(scenario: &Scenario, storage: S, count: usize) -> S {
    let (mut db, report) = DurableEngine::open(storage).expect("checkpoint disk is clean");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 0);
    for delta in &scenario.post[..count] {
        if db.append(delta).is_err() {
            break;
        }
    }
    db.into_storage()
}

/// The reference: a fault-free run over the same checkpoint with only the
/// first `surviving` post-snapshot deltas. NodeId determinism makes this
/// comparable bit-for-bit: both runs restart from the identical snapshot
/// and intern the identical operation sequence (the driver never
/// certifies after the snapshot), so every id lands identically.
fn reference(
    scenario: &Scenario,
    checkpoint: &MemStorage,
    surviving: usize,
) -> DurableEngine<MemStorage> {
    let disk = drive_post(scenario, checkpoint.clone(), surviving);
    let (db, report) = DurableEngine::open(disk).expect("fault-free reference");
    assert_eq!(report.wal_records_applied, surviving);
    db
}

/// Asserts the recovered engine is *exactly* the reference: identical
/// snapshot encodings (atoms, arena, roots, NFs, dirty set — id-for-id)
/// and identical symbolic abort answers.
fn assert_exact(
    mut recovered: DurableEngine<MemStorage>,
    reference: &mut DurableEngine<MemStorage>,
    ctx: &str,
) {
    assert_eq!(
        snapshot::encode(recovered.engine(), recovered.state(), 0),
        snapshot::encode(reference.engine(), reference.state(), 0),
        "{ctx}: recovered state must be bit-identical to the reference"
    );
    assert_eq!(recovered.seq(), reference.seq(), "{ctx}: append sequence");
    // After repair, even the disks agree byte-for-byte.
    assert_eq!(
        recovered.storage().blob(WAL_BLOB),
        reference.storage().blob(WAL_BLOB),
        "{ctx}: repaired WAL equals the fault-free WAL"
    );
    // Query equivalence on a transaction both runs share (one from the
    // opening block, which always survives).
    let (engine, state) = recovered.query();
    let txn = state
        .to_snapshot()
        .txn_atoms
        .first()
        .map(|(name, _)| name.clone())
        .expect("opening block has a transaction");
    let got = engine.abort_symbolic(state, &txn).expect("known txn");
    let (ref_engine, ref_state) = reference.query();
    let want = ref_engine
        .abort_symbolic(ref_state, &txn)
        .expect("known txn");
    assert_eq!(got, want, "{ctx}: abort answers must match id-for-id");
}

/// Byte spans of the post-snapshot records in the WAL (magic at 0..8).
fn record_spans(scenario: &Scenario, first_seq: u64) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    let mut pos = WAL_MAGIC.len() as u64;
    for (i, delta) in scenario.post.iter().enumerate() {
        let len = wal::encode_record(first_seq + i as u64, delta).len() as u64;
        spans.push((pos, pos + len));
        pos += len;
    }
    spans
}

/// How many post-snapshot records fully survive a cut at `offset`.
fn surviving_at(spans: &[(u64, u64)], offset: u64) -> usize {
    spans.iter().take_while(|&&(_, end)| end <= offset).count()
}

fn fault_offsets(rng: &mut TestRng, spans: &[(u64, u64)]) -> Vec<u64> {
    let lo = WAL_MAGIC.len() as u64;
    let hi = spans.last().expect("at least one post record").1;
    let mut offsets = vec![lo, hi];
    for &(start, end) in spans {
        offsets.extend([start, start + 1, end - 1, end]);
    }
    for _ in 0..8 {
        offsets.push(lo + rng.next_u64() % (hi - lo));
    }
    offsets.retain(|&o| o >= lo && o <= hi);
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

fn seeds() -> Vec<u64> {
    match std::env::var("UPROV_FAULT_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("UPROV_FAULT_SEEDS: u64 list"))
            .collect(),
        Err(_) => (1..=6).collect(),
    }
}

#[test]
fn crash_at_any_offset_recovers_the_surviving_prefix_exactly() {
    for seed in seeds() {
        let mut rng = TestRng::new(seed);
        let scenario = random_scenario(&mut rng);
        let checkpoint = drive_to_checkpoint(&scenario);
        let first_seq = 1 + scenario.pre.len() as u64;
        let spans = record_spans(&scenario, first_seq);
        for offset in fault_offsets(&mut rng, &spans) {
            let fault = FaultMode::CrashAt {
                blob: WAL_BLOB.into(),
                offset,
            };
            let faulted = drive_post(
                &scenario,
                FaultStorage::new(checkpoint.clone(), fault),
                scenario.post.len(),
            );
            let disk = faulted.into_inner();
            let surviving = surviving_at(&spans, offset);
            let ctx = format!("seed {seed}, crash at {offset}");
            let (recovered, report) =
                DurableEngine::open(disk).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(report.wal_records_applied, surviving, "{ctx}");
            assert_eq!(report.wal_records_skipped, 0, "{ctx}");
            // A cut at a record boundary (including the bare magic) is a
            // clean truncation; anywhere else tears a record and must be
            // reported with the exact repair bounds.
            let at_boundary =
                offset == WAL_MAGIC.len() as u64 || spans.iter().any(|&(_, end)| end == offset);
            if at_boundary {
                assert_eq!(report.truncated, None, "{ctx}: boundary cut is clean");
            } else {
                let trunc = report
                    .truncated
                    .unwrap_or_else(|| panic!("{ctx}: tear must be reported"));
                assert_eq!(trunc.from, offset, "{ctx}: short write stops at the cut");
                assert_eq!(trunc.to, spans[surviving].0, "{ctx}: torn record dropped");
            }
            assert_exact(
                recovered,
                &mut reference(&scenario, &checkpoint, surviving),
                &ctx,
            );
        }
    }
}

#[test]
fn a_bit_flip_at_any_offset_loses_at_most_the_suffix_from_the_flipped_record() {
    for seed in seeds() {
        let mut rng = TestRng::new(seed ^ 0xB17_F11B);
        let scenario = random_scenario(&mut rng);
        let checkpoint = drive_to_checkpoint(&scenario);
        let first_seq = 1 + scenario.pre.len() as u64;
        let spans = record_spans(&scenario, first_seq);
        let end = spans.last().expect("post records").1;
        for offset in fault_offsets(&mut rng, &spans) {
            if offset >= end {
                continue; // the victim byte never exists
            }
            let mask = 1u8 << rng.below(8);
            let fault = FaultMode::BitFlip {
                blob: WAL_BLOB.into(),
                offset,
                mask,
            };
            // Bit flips are silent: the driver always completes, stacking
            // later records on top of the damage.
            let faulted = drive_post(
                &scenario,
                FaultStorage::new(checkpoint.clone(), fault),
                scenario.post.len(),
            );
            let disk = faulted.into_inner();
            // The flipped record and everything after it is lost: the scan
            // stops at the first anomaly.
            let flipped = spans
                .iter()
                .position(|&(start, end)| offset >= start && offset < end)
                .expect("offset lands in a record");
            let ctx = format!("seed {seed}, flip at {offset} mask {mask:#04x}");
            let (recovered, report) =
                DurableEngine::open(disk).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(report.wal_records_applied, flipped, "{ctx}");
            let trunc = report
                .truncated
                .unwrap_or_else(|| panic!("{ctx}: corruption must be reported"));
            assert_eq!(
                trunc.to, spans[flipped].0,
                "{ctx}: cut at the flipped record"
            );
            assert_eq!(trunc.from, end, "{ctx}: the whole tail was on disk");
            assert_exact(
                recovered,
                &mut reference(&scenario, &checkpoint, flipped),
                &ctx,
            );
        }
    }
}

#[test]
fn a_flip_inside_the_synced_magic_is_refused_loudly() {
    let mut rng = TestRng::new(42);
    let scenario = random_scenario(&mut rng);
    let checkpoint = drive_to_checkpoint(&scenario);
    let mut disk = drive_post(&scenario, checkpoint, scenario.post.len());
    let mut bytes = disk.blob(WAL_BLOB).expect("wal exists").to_vec();
    bytes[3] ^= 0x20;
    disk.set_blob(WAL_BLOB, bytes);
    let err = DurableEngine::open(disk).expect_err("bad magic is not a torn tail");
    assert!(
        matches!(err, uprov_storage::RecoveryError::WalHeader(_)),
        "got {err:?}"
    );
}
