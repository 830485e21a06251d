//! Batch ≡ sequential: [`DurableEngine::append_many`] validates a whole
//! batch before it writes or applies anything, so what a later log "sees"
//! of an earlier one is an overlay, not applied state. This suite pins
//! that the overlay is exact — `append_many(batch)` on one engine and
//! `append` log by log on a twin agree on every verdict and leave
//! identical engines and identical WAL bytes.
//!
//! Logs draw tuple *and* transaction names from one six-name universe, so
//! kind clashes, late `base` lines, re-used transaction names and a
//! rejected log in the middle of a batch all occur (asserted at the end:
//! the sweep is not vacuous).

use benchkit::TestRng;
use uprov_engine::{Op, ReplayError, Txn, UpdateLog};
use uprov_storage::{DurableEngine, DurableError, MemStorage, WAL_BLOB};

const NAMES: [&str; 6] = ["n0", "n1", "n2", "n3", "n4", "n5"];

/// Tuples lean on the low names and transactions on the high ones, with
/// `n3` shared and the occasional pick from anywhere: most logs are
/// valid, a steady minority clash.
fn pick(rng: &mut TestRng, usual: &[&str]) -> String {
    let from = if rng.chance(85) { usual } else { &NAMES };
    from[rng.below(from.len())].to_owned()
}

fn random_log(rng: &mut TestRng) -> UpdateLog {
    let tuple = |rng: &mut TestRng| pick(rng, &NAMES[..4]);
    let mut log = UpdateLog::default();
    if rng.chance(35) {
        for _ in 0..1 + rng.below(2) {
            log.base.push(tuple(rng));
        }
    }
    for _ in 0..rng.below(3) {
        let ops = (0..1 + rng.below(3))
            .map(|_| match rng.below(3) {
                0 => Op::Insert { tuple: tuple(rng) },
                1 => Op::Delete { tuple: tuple(rng) },
                _ => Op::Modify {
                    target: tuple(rng),
                    sources: (0..1 + rng.below(2)).map(|_| tuple(rng)).collect(),
                },
            })
            .collect();
        log.txns.push(Txn {
            name: pick(rng, &NAMES[3..]),
            ops,
        });
    }
    log
}

#[derive(Default)]
struct Seen {
    clashes: usize,
    late_bases: usize,
    reused_txns: usize,
    rejected_mid_batch: usize,
    accepted: usize,
}

#[test]
fn append_many_agrees_with_one_at_a_time_appends() {
    let mut seen = Seen::default();
    for seed in 1..=200u64 {
        let mut rng = TestRng::new(seed);
        let (mut batched, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
        let (mut single, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
        // Several batches per pair, so later batches meet committed state
        // as well as the overlay.
        for round in 0..4 {
            let batch: Vec<UpdateLog> = (0..1 + rng.below(8))
                .map(|_| random_log(&mut rng))
                .collect();
            let context = format!("seed {seed} round {round}: {batch:?}");

            for log in &batch {
                seen.reused_txns += log
                    .txns
                    .iter()
                    .filter(|t| single.state().txn_atom(&t.name).is_some())
                    .count();
            }
            let want: Vec<Result<usize, ReplayError>> = batch
                .iter()
                .map(|log| match single.append(log) {
                    Ok(applied) => Ok(applied),
                    Err(DurableError::Replay(e)) => Err(e),
                    Err(DurableError::Io(e)) => panic!("MemStorage failed: {e}"),
                })
                .collect();
            let got = batched.append_many(&batch).expect("MemStorage is healthy");
            assert_eq!(got, want, "verdicts diverge — {context}");

            assert_eq!(batched.seq(), single.seq(), "{context}");
            assert_eq!(
                batched.state().to_snapshot(),
                single.state().to_snapshot(),
                "{context}"
            );
            assert_eq!(
                batched.storage().blob(WAL_BLOB),
                single.storage().blob(WAL_BLOB),
                "WAL bytes diverge — {context}"
            );
            assert_eq!(
                batched.engine().atoms().len(),
                single.engine().atoms().len(),
                "{context}"
            );
            assert_eq!(
                batched.engine().arena().len(),
                single.engine().arena().len(),
                "{context}"
            );

            for (i, verdict) in want.iter().enumerate() {
                match verdict {
                    Ok(_) => seen.accepted += 1,
                    Err(ReplayError::NameKindClash { .. }) => seen.clashes += 1,
                    Err(ReplayError::LateBase { .. }) => seen.late_bases += 1,
                }
                let accepted = |vs: &[Result<usize, ReplayError>]| vs.iter().any(Result::is_ok);
                if verdict.is_err() && accepted(&want[..i]) && accepted(&want[i + 1..]) {
                    seen.rejected_mid_batch += 1;
                }
            }
        }
        // The twins recover to the same thing as well.
        let want = single.state().to_snapshot();
        let (recovered, _) = DurableEngine::open(batched.into_storage()).expect("recovers");
        assert_eq!(recovered.state().to_snapshot(), want, "seed {seed}");
    }
    assert!(
        seen.accepted > 500,
        "too few accepted logs: {}",
        seen.accepted
    );
    assert!(seen.clashes > 50, "too few kind clashes: {}", seen.clashes);
    assert!(
        seen.late_bases > 50,
        "too few late bases: {}",
        seen.late_bases
    );
    assert!(
        seen.reused_txns > 50,
        "too few re-used txn names: {}",
        seen.reused_txns
    );
    assert!(
        seen.rejected_mid_batch > 50,
        "too few rejections between accepted logs: {}",
        seen.rejected_mid_batch
    );
}
