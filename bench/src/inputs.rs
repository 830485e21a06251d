//! Inputs: everything the program under test sees is generated here,
//! from `--seed`, by `uprov_workload::Workload::generate`. The same seed
//! gives the same bytes.

use benchkit::TestRng;
use uprov_engine::UpdateLog;
use uprov_service::proto::Request;
use uprov_service::values::StructureId;
use uprov_workload::{Workload, WorkloadConfig};

/// Structures the concrete queries rotate over. `witnesses` is ~7×
/// slower than the rest and would turn every tail into "the Witnesses
/// query"; it is measured per-layer instead.
pub const QUERY_STRUCTURES: [StructureId; 4] = [
    StructureId::Bool,
    StructureId::Worlds,
    StructureId::Clearance,
    StructureId::Trust,
];

/// How much of the full size to run: `1` normally, `10` for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    /// `n` divided by the scale, at least one.
    pub fn of(self, n: usize) -> usize {
        (n / self.0).max(1)
    }
}

/// The shared key universe: 4 tables, 5 ops per transaction, skew 2, a
/// hot set of 8 keys per table, 15 % compensating transactions.
pub fn config(
    seed: u64,
    keys_per_table: usize,
    txns: usize,
    hot_bias_pct: u8,
    modify_width: usize,
) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        tables: 4,
        keys_per_table,
        txns,
        ops_per_txn: 5,
        skew: 2,
        hot_keys: 8,
        hot_bias_pct,
        abort_rate_pct: 15,
        modify_width,
    }
}

/// The protocol line of an `append` of `log`.
pub fn append_line(log: &UpdateLog) -> String {
    Request::Append {
        log: log.to_string(),
    }
    .to_string()
}

/// `log`'s base declarations and first `txns` transactions as one log,
/// and the remaining transactions.
pub fn split_preload(log: &UpdateLog, txns: usize) -> (UpdateLog, &[uprov_engine::Txn]) {
    let (head, tail) = log.txns.split_at(txns.min(log.txns.len()));
    (
        UpdateLog {
            base: log.base.clone(),
            txns: head.to_vec(),
        },
        tail,
    )
}

/// Consecutive transaction-only slices of `width` transactions each.
pub fn slices(txns: &[uprov_engine::Txn], width: usize) -> Vec<UpdateLog> {
    txns.chunks(width)
        .map(|chunk| UpdateLog {
            base: Vec::new(),
            txns: chunk.to_vec(),
        })
        .collect()
}

/// A pool of distinct concrete what-if queries over a preloaded
/// workload, in the mix 70 % `abort` / 20 % `delete` / 10 % `eval`,
/// structures rotating over [`QUERY_STRUCTURES`]. Clients draw from the
/// pool uniformly, so the mix of the traffic is the mix of the pool.
pub fn concrete_pool(w: &Workload, size: usize, rng: &mut TestRng) -> Vec<Request> {
    (0..size)
        .map(|i| {
            // `i / 10` de-phases the rotation from the op mix, so each op
            // kind meets all four structures.
            let structure = QUERY_STRUCTURES[(i + i / 10) % QUERY_STRUCTURES.len()];
            match i % 10 {
                0 => Request::EvalAll { structure },
                1 | 2 => Request::DeleteBaseEval {
                    tuple: w.log.base[rng.below(w.log.base.len())].clone(),
                    structure,
                },
                _ => Request::AbortEval {
                    txn: w.txn_names[rng.below(w.txn_names.len())].clone(),
                    structure,
                },
            }
        })
        .collect()
}
