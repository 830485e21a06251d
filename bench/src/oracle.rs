//! The bench-private replica: a single-threaded [`Engine`] fed the same
//! appends the service acknowledged, in acknowledged order. Every
//! answer the service gave is compared with what the replica says
//! *after* the timed phase, so the oracle costs the measurement nothing.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use uprov_core::{Atom, NodeId};
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_service::proto::{Request, Response};
use uprov_service::values::{self, StructureId};

use crate::harness::{PostMortem, Sample};
use crate::report::Report;

/// Digest of a reply line. Clients keep 8 bytes per reply instead of
/// the ~46 KB line; the replica's expected line goes through the same
/// function, so equal digests are a byte-for-byte comparison up to hash
/// collisions.
pub fn digest(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

/// The unsigned integer field `key` of a reply line, if it has one.
pub fn reply_u64(reply: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = reply.find(&pattern)? + pattern.len();
    let digits = reply[at..].bytes().take_while(u8::is_ascii_digit).count();
    reply[at..at + digits].parse().ok()
}

/// The `seq` field of a reply line, if it has one.
pub fn reply_seq(reply: &str) -> Option<u64> {
    reply_u64(reply, "seq")
}

/// True if `reply` is a success of the given kind (`rows`, `appended`…).
pub fn is_ok(reply: &str, kind: &str) -> bool {
    reply
        .strip_prefix("{\"ok\":\"")
        .and_then(|rest| rest.strip_prefix(kind))
        .is_some_and(|rest| rest.starts_with('"'))
}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct Replica {
    /// The replica's engine.
    pub engine: Engine,
    /// The replica's state.
    pub state: ReplayState,
    /// Appends applied so far — the service's `seq` for the same prefix.
    pub seq: u64,
}

impl Replica {
    /// Applies one acknowledged append.
    pub fn append(&mut self, log: &UpdateLog) {
        self.engine
            .append(&mut self.state, log)
            .expect("the service accepted this append");
        self.seq += 1;
    }

    /// The structure and zeroed atom of the concrete query `req`, or
    /// `None` if `req` is not a concrete query about a known name.
    pub fn resolve(&self, req: &Request) -> Option<(StructureId, Option<Atom>)> {
        Some(match req {
            Request::EvalAll { structure } => (*structure, None),
            Request::AbortEval { txn, structure } => (*structure, Some(self.state.txn_atom(txn)?)),
            Request::DeleteBaseEval { tuple, structure } => {
                (*structure, Some(self.state.base_atom(tuple)?))
            }
            _ => return None,
        })
    }

    /// The line the service must answer to the concrete query `req` in
    /// this state (`None` as for [`Replica::resolve`]).
    pub fn expected(&self, req: &Request) -> Option<String> {
        let (id, zeroed) = self.resolve(req)?;
        let rows = values::eval_rows(&self.engine, &self.state, id, zeroed, 1);
        Some(
            Response::Rows {
                seq: self.seq,
                rows,
            }
            .to_string(),
        )
    }

    /// Whole-database evaluation lines under all five structures — what
    /// a recovered service must answer to the five `eval` requests.
    pub fn eval_lines(&self) -> Vec<String> {
        StructureId::ALL
            .iter()
            .map(|&structure| {
                self.expected(&Request::EvalAll { structure })
                    .expect("eval names nothing")
            })
            .collect()
    }

    /// [`prov_nodes_per_update`] of the replica, certifying it first (a
    /// service replica never certified anything).
    pub fn prov_nodes_per_update(&mut self) -> f64 {
        self.engine.certify(&mut self.state);
        prov_nodes_per_update(&self.engine, &self.state)
    }
}

/// The certified normal-form root of every clean tuple of `state`.
pub fn certified_roots(state: &ReplayState) -> Vec<NodeId> {
    state
        .tuple_names()
        .filter_map(|name| state.certified_nf(name))
        .collect()
}

/// The paper's provenance-size measure: DAG nodes reachable from all
/// certified normal forms, per update. An exact count.
pub fn prov_nodes_per_update(engine: &Engine, state: &ReplayState) -> f64 {
    let nodes = engine
        .arena()
        .topo_order_roots(&certified_roots(state))
        .len();
    nodes as f64 / state.update_count().max(1) as f64
}

/// Compares every concrete sample with the replica's answer at the
/// prefix the sample's reply named. `appends` are the acknowledged
/// appends not yet in the replica, in `seq` order; the replica is left
/// with all of them applied. Returns `(samples, wrong or failed)`.
pub fn verify_concrete(
    replica: &mut Replica,
    appends: &[&UpdateLog],
    pool: &[Request],
    samples: &mut [Sample],
) -> (u64, u64) {
    samples.sort_by_key(|s| s.seq);
    let first = replica.seq;
    let mut wrong = 0;
    let mut expected: HashMap<u32, u64> = HashMap::new();
    for s in samples.iter() {
        if s.seq > first + appends.len() as u64 {
            wrong += 1; // names a prefix nobody acknowledged
            continue;
        }
        while replica.seq < s.seq {
            replica.append(appends[(replica.seq - first) as usize]);
            expected.clear();
        }
        // `seq == 0` marks a failed request; a stale seq cannot match.
        let want = *expected.entry(s.req).or_insert_with(|| {
            replica
                .expected(&pool[s.req as usize])
                .map_or(0, |line| digest(&line))
        });
        if s.seq != replica.seq || s.digest != want {
            wrong += 1;
        }
    }
    for log in &appends[(replica.seq - first) as usize..] {
        replica.append(log);
    }
    (samples.len() as u64, wrong)
}

/// The end of every service workload: the recovered service must hold
/// every acknowledged append and evaluate, under all five structures,
/// to what the fully advanced `replica` says. Records the two
/// end-to-end metrics that come out of the post-mortem.
pub fn check_recovery(report: &mut Report, replica: &mut Replica, pm: &PostMortem) {
    println!(
        "  recovered seq={} in {:.4} s, stored={} B batches={} coalesced={}",
        pm.recovered_seq, pm.recover_s, pm.stored_bytes, pm.batches, pm.coalesced
    );
    report.check(
        "recovered seq covers every acknowledged append",
        pm.recovered_seq >= replica.seq,
    );
    report.check(
        "recovered state evaluates like the oracle under all five structures",
        pm.recovered_seq == replica.seq && pm.eval_lines == replica.eval_lines(),
    );
    let updates = replica.state.update_count().max(1) as f64;
    report.set("stored_bytes_per_update", pm.stored_bytes as f64 / updates);
    report.set("prov_nodes_per_update", replica.prov_nodes_per_update());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_are_read_without_a_full_parse() {
        let rows = "{\"ok\":\"rows\",\"seq\":17,\"rows\":[[\"x\",\"true\"]]}";
        assert_eq!(reply_seq(rows), Some(17));
        assert!(is_ok(rows, "rows"));
        assert!(!is_ok(rows, "row"));
        assert!(!is_ok(rows, "appended"));
        let err = "{\"err\":\"overloaded\",\"message\":\"request queue is full\"}";
        assert_eq!(reply_seq(err), None);
        assert!(!is_ok(err, "rows"));
    }

    #[test]
    fn replica_answers_like_the_readme_service() {
        let mut r = Replica::default();
        r.append(
            &"base x\nbegin t\ninsert x\nmodify y <- x\ncommit\n"
                .parse()
                .unwrap(),
        );
        let line = r
            .expected(&Request::AbortEval {
                txn: "t".into(),
                structure: StructureId::Bool,
            })
            .unwrap();
        assert_eq!(
            line,
            "{\"ok\":\"rows\",\"seq\":1,\"rows\":[[\"x\",\"true\"],[\"y\",\"false\"]]}"
        );
        assert_eq!(r.eval_lines().len(), 5);
        assert!(r
            .expected(&Request::AbortEval {
                txn: "nope".into(),
                structure: StructureId::Bool
            })
            .is_none());
        assert!(r.prov_nodes_per_update() > 0.0);
    }
}
