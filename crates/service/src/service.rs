//! The resident service: one shared [`DurableEngine`], every request
//! served on the thread of the client that made it.
//!
//! # Concurrency regime
//!
//! The engine sits in an [`RwLock`]. A concrete read
//! (`abort`/`delete`/`eval`/`stats`) takes the read lock on its caller's
//! thread — the concrete evaluation entry points take `&Engine`, so any
//! number run at once. Everything that mutates (appends, symbolic views,
//! equivalence, snapshots, budgets) is a write, served in batches under
//! the write lock by one leader at a time (see *Group commit*), so
//! "durable before visible" needs no further protocol: [`DurableEngine`]
//! touches nothing in memory until the batch's fsync has returned, and
//! the write lock keeps every reader out while it then applies the
//! batch. No response can reflect a partially applied append — the soak
//! test pins this from the outside.
//!
//! # Read cache
//!
//! Concrete reads are answered from one [`Rows`] per structure — the
//! database evaluated once under that structure, after which each abort
//! or deletion re-evaluates only the zeroed atom's cone — valid at the
//! append `seq` it was built at (see `Inner::rows`).
//!
//! # Group commit
//!
//! A write joins one FIFO queue, then waits until its answer is posted
//! or nobody leads; then its caller leads: it takes up to `coalesce_max`
//! writes off the queue — its own and whatever arrived meanwhile —
//! serves them under **one** write-lock acquisition, posts the answers
//! and steps down. A lone writer commits on its own thread; writes that
//! arrive during a batch's fsync form the next batch. Within a batch,
//! runs of same-shaped requests collapse into the engine's batch entry
//! points — symbolic aborts share one normalization batch
//! ([`Engine::abort_symbolic_batch`]), appends commit behind one fsync
//! ([`DurableEngine::append_many`]), equivalence bursts normalize in one
//! sweep ([`Engine::equivalent_many`]) — with answers bit-identical to
//! one-at-a-time ones (pinned by the interleaving tests). A leader that
//! unwinds still steps down, and the writes it took answer a typed
//! error. Reads do not coalesce: each is one read-lock acquisition.
//!
//! # Backpressure, shutdown and the pause gate
//!
//! [`ServiceConfig::queue_depth`] bounds the requests admitted but not
//! yet answered; past it a request answers [`ErrorKind::Overloaded`] at
//! once. [`Service::shutdown`] stops admitting (later requests get
//! [`ErrorKind::ShuttingDown`]), opens the gate and waits until every
//! admitted request has its answer — nothing is dropped. A service
//! started [`ServiceConfig::paused`] parks readers and write leaders at
//! the gate until [`Service::resume`]; tests use it to pin which writes
//! coalesce into one batch.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use uprov_engine::{Engine, ReplayState, SymbolicTuple, UpdateLog};
use uprov_storage::{DurableEngine, DurableError, Storage};

use crate::proto::{ErrorKind, Request, Response, SymbolicRow};
use crate::values::{eval_rows, Rows, StructureId};

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests admitted but not yet answered, reads and writes
    /// together; past it a request answers [`ErrorKind::Overloaded`].
    pub queue_depth: usize,
    /// Max writes one leader serves in a single coalesced batch.
    pub coalesce_max: usize,
    /// Start with the gate closed; release with [`Service::resume`].
    pub paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 64,
            coalesce_max: 16,
            paused: false,
        }
    }
}

/// Counters reported by [`Service::shutdown`] and the `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Lock acquisitions: one per read, one per write batch.
    pub batches: u64,
    /// Writes that rode a batch of two or more.
    pub coalesced: u64,
}

struct Job {
    client: u64,
    req: Request,
}

/// What requests coordinate on, under one lock. A write is known by its
/// ticket from the moment it is queued until its caller collects the
/// answer. Only whole updates happen under the lock, so a poisoned one
/// is recovered rather than propagated.
#[derive(Default)]
struct Traffic {
    /// `false` while paused.
    running: bool,
    /// Requests admitted and not yet answered.
    admitted: usize,
    /// Writes no leader has taken yet, oldest first.
    pending: VecDeque<(u64, Job)>,
    /// Answers posted by leaders and not yet collected.
    answers: HashMap<u64, Response>,
    next_ticket: u64,
    /// Some caller is serving a write batch.
    leading: bool,
}

struct Inner<S: Storage> {
    db: RwLock<DurableEngine<S>>,
    accepting: AtomicBool,
    traffic: Mutex<Traffic>,
    /// Signalled when the gate opens, a leader steps down, or the last
    /// admitted request is answered.
    changed: Condvar,
    config: ServiceConfig,
    /// Per-client requested cache budgets; the tightest one is applied to
    /// the shared engine's cache valve, so no client can exceed its own
    /// cap by riding another client's slack.
    budgets: Mutex<Budgets>,
    /// What-if reads answered from per-structure baselines: see
    /// [`Inner::rows`].
    reads: Mutex<ReadCache>,
    batches: AtomicU64,
    coalesced: AtomicU64,
    next_client: AtomicU64,
}

/// The live clients' cache budgets, keyed by client id. A client's entry
/// goes with the client: dropping it marks the map `stale`, and the next
/// write batch re-applies the minimum (budgets only bite on the write
/// path, so that is soon enough).
#[derive(Default)]
struct Budgets {
    per_client: BTreeMap<u64, usize>,
    stale: bool,
}

impl Budgets {
    /// Applies the tightest live budget to `engine` (none if no client
    /// set one).
    fn apply(&mut self, engine: &mut Engine) {
        engine.set_cache_budget(self.per_client.values().min().copied());
        self.stale = false;
    }
}

/// One admitted request; dropping it, answered or unwound, frees its
/// place under [`ServiceConfig::queue_depth`].
struct Admitted<'a, S: Storage>(&'a Inner<S>);

impl<S: Storage> Drop for Admitted<'_, S> {
    fn drop(&mut self) {
        let mut traffic = self.0.traffic();
        traffic.admitted -= 1;
        if traffic.admitted == 0 {
            self.0.changed.notify_all();
        }
    }
}

/// Leadership for one batch. Dropping it posts the batch's answers and
/// steps down — also when the batch unwinds, which leaves the writes it
/// took without answers: they get a typed error instead.
struct Leader<'a, S: Storage> {
    inner: &'a Inner<S>,
    taken: Vec<u64>,
    answers: Vec<Response>,
}

impl<S: Storage> Drop for Leader<'_, S> {
    fn drop(&mut self) {
        let unwound = std::iter::repeat_with(|| error(ErrorKind::ShuttingDown, "batch panicked"));
        let answers = std::mem::take(&mut self.answers).into_iter().chain(unwound);
        let mut traffic = self.inner.traffic();
        traffic.answers.extend(self.taken.drain(..).zip(answers));
        traffic.leading = false;
        self.inner.changed.notify_all();
    }
}

impl<S: Storage> Inner<S> {
    fn client(inner: &Arc<Self>) -> Client<S> {
        let id = inner.next_client.fetch_add(1, Ordering::Relaxed);
        Client {
            inner: Arc::clone(inner),
            id,
        }
    }

    fn traffic(&self) -> MutexGuard<'_, Traffic> {
        self.traffic.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, traffic: MutexGuard<'a, Traffic>) -> MutexGuard<'a, Traffic> {
        self.changed
            .wait(traffic)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_running(&self) -> MutexGuard<'_, Traffic> {
        let mut traffic = self.traffic();
        while !traffic.running {
            traffic = self.wait(traffic);
        }
        traffic
    }

    /// Admits one request, or answers why not. `accepting` is read under
    /// the lock [`Inner::stop`] flips it under, so no request slips in
    /// behind the drain.
    fn admit(&self) -> Result<Admitted<'_, S>, Response> {
        let mut traffic = self.traffic();
        if !self.accepting.load(Ordering::SeqCst) {
            return Err(error(ErrorKind::ShuttingDown, "service is draining"));
        }
        if traffic.admitted >= self.config.queue_depth {
            return Err(error(ErrorKind::Overloaded, "too many requests in flight"));
        }
        traffic.admitted += 1;
        Ok(Admitted(self))
    }

    /// Queues a write, then leads a batch whenever nobody else does until
    /// the write's answer is posted.
    fn write(&self, client: u64, req: Request) -> Response {
        let mut traffic = self.traffic();
        let ticket = traffic.next_ticket;
        traffic.next_ticket += 1;
        traffic.pending.push_back((ticket, Job { client, req }));
        loop {
            if let Some(answer) = traffic.answers.remove(&ticket) {
                return answer;
            }
            if traffic.leading {
                traffic = self.wait(traffic);
                continue;
            }
            traffic.leading = true;
            drop(traffic);
            self.lead();
            traffic = self.traffic();
        }
    }

    /// Serves one batch: past the gate, up to `coalesce_max` writes off
    /// the front of the queue.
    fn lead(&self) {
        let (taken, jobs): (Vec<u64>, Vec<Job>) = {
            let mut traffic = self.wait_running();
            let n = traffic.pending.len().min(self.config.coalesce_max);
            traffic.pending.drain(..n).unzip()
        };
        let mut leader = Leader {
            inner: self,
            taken,
            answers: Vec::new(),
        };
        if !jobs.is_empty() {
            self.note_batch(jobs.len());
            leader.answers = serve_write_batch(self, jobs);
        }
    }

    fn resume(&self) {
        self.traffic().running = true;
        self.changed.notify_all();
    }

    /// Stops admitting, opens the gate, and waits until every admitted
    /// request is answered; the callers of pending writes lead their
    /// batches themselves. Idempotent.
    fn stop(&self) {
        let mut traffic = self.traffic();
        self.accepting.store(false, Ordering::SeqCst);
        traffic.running = true;
        self.changed.notify_all();
        while traffic.admitted > 0 {
            traffic = self.wait(traffic);
        }
    }

    fn note_batch(&self, len: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if len >= 2 {
            self.coalesced.fetch_add(len as u64, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// `id`'s [`Rows`] for the state at append `seq`, which the caller
    /// read under the engine's read lock — or `None` for the first read
    /// of `id` at `seq`, which a full evaluation ([`eval_rows`]) answers
    /// for less than a build costs.
    ///
    /// A build is a full evaluation plus rendering every row, and after
    /// it each read costs only its cone; it pays off from the second read
    /// of one structure at one `seq`. Whether that second read comes
    /// depends on the traffic: a static database reads every `seq` many
    /// times, but a reader racing a writer may see each `seq` once.
    ///
    /// Only appends move the state's tuple roots, and the arena only
    /// grows, so an entry built at `seq` answers every read at `seq`; the
    /// first read at a newer `seq` drops it. Builds happen outside the
    /// cache lock: two readers that miss at once both build, and both
    /// answers are the same. Every update under the lock leaves the cache
    /// whole, so a poisoned lock is recovered rather than propagated.
    fn rows(
        &self,
        engine: &Engine,
        state: &ReplayState,
        seq: u64,
        id: StructureId,
    ) -> Option<Arc<Rows>> {
        let sibling = {
            let mut cache = self.reads.lock().unwrap_or_else(PoisonError::into_inner);
            if cache.seq != seq {
                *cache = ReadCache {
                    seq,
                    entries: BTreeMap::new(),
                };
            }
            match cache.entries.get(&id) {
                Some(Some(hit)) => return Some(Arc::clone(hit)),
                Some(None) => {}
                None => {
                    cache.entries.insert(id, None);
                    return None;
                }
            }
            cache.entries.values().flatten().next().cloned()
        };
        let built = Arc::new(Rows::new(engine, state, id, sibling.as_deref()));
        let mut cache = self.reads.lock().unwrap_or_else(PoisonError::into_inner);
        // `seq` cannot have moved: the caller still holds the read lock.
        Some(Arc::clone(
            cache.entries.entry(id).or_default().get_or_insert(built),
        ))
    }
}

/// What the read path knows about the state at `seq`, per structure:
/// `None` once one read was answered by a full evaluation, the [`Rows`]
/// once the second read built them.
#[derive(Default)]
struct ReadCache {
    seq: u64,
    entries: BTreeMap<StructureId, Option<Arc<Rows>>>,
}

pub(crate) fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

/// Every answer after a panic inside the engine poisoned its lock.
fn poisoned() -> Response {
    error(ErrorKind::ShuttingDown, "the engine panicked; cannot serve")
}

fn durable_error(e: &DurableError) -> Response {
    match e {
        DurableError::Io(io) => error(ErrorKind::Io, io.to_string()),
        DurableError::Replay(r) => error(ErrorKind::Replay, r.to_string()),
    }
}

/// Writes serialize; concrete reads share the read lock.
fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::Append { .. }
            | Request::AbortSymbolic { .. }
            | Request::Equiv { .. }
            | Request::Snapshot
            | Request::SetBudget { .. }
            | Request::Shutdown
    )
}

/// A client handle: cheap to clone, one per connection/thread. Each
/// request is served on the thread that calls [`Client::request`].
pub struct Client<S: Storage> {
    inner: Arc<Inner<S>>,
    id: u64,
}

impl<S: Storage> Clone for Client<S> {
    fn clone(&self) -> Self {
        Inner::client(&self.inner)
    }
}

impl<S: Storage> Drop for Client<S> {
    /// Withdraws this client's cache budget, if it set one.
    fn drop(&mut self) {
        let mut budgets = self
            .inner
            .budgets
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if budgets.per_client.remove(&self.id).is_some() {
            budgets.stale = true;
        }
    }
}

impl<S: Storage> Client<S> {
    /// True until shutdown begins: connection loops watch it to stop.
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::SeqCst)
    }

    /// Serves a request on this thread and returns the response: a read
    /// under the shared lock, a write as the leader of its batch or as a
    /// follower of the leader that serves it.
    ///
    /// Never blocks on a full service: overload and shutdown come back as
    /// typed [`Response::Error`]s. A panic inside the engine — a bug —
    /// unwinds the thread that was serving it, so a leader's caller
    /// panics; the writes of its batch and every later request answer a
    /// typed [`ErrorKind::ShuttingDown`] instead.
    pub fn request(&self, req: Request) -> Response {
        let _admitted = match self.inner.admit() {
            Ok(admitted) => admitted,
            Err(resp) => return resp,
        };
        if is_write(&req) {
            self.inner.write(self.id, req)
        } else {
            drop(self.inner.wait_running());
            serve_read(&self.inner, &req)
        }
    }

    /// Parses and executes one protocol line. Malformed input becomes an
    /// [`ErrorKind::Parse`] response.
    pub fn respond(&self, line: &str) -> Response {
        match line.parse::<Request>() {
            Ok(req) => self.request(req),
            Err(e) => error(ErrorKind::Parse, e.to_string()),
        }
    }

    /// Serves one protocol line: parse, execute, print. The session loop
    /// ([`crate::net::serve_session`]) does the same into a reused buffer.
    pub fn serve_line(&self, line: &str) -> String {
        let mut reply = String::new();
        self.respond(line).write_json(&mut reply);
        reply
    }
}

/// The resident service. See the [module docs](self) for the regime.
pub struct Service<S: Storage> {
    inner: Arc<Inner<S>>,
}

impl<S: Storage> Service<S> {
    /// Wraps an opened engine. No thread is started: every request runs
    /// on its client's thread.
    pub fn start(db: DurableEngine<S>, config: ServiceConfig) -> Service<S> {
        assert!(config.coalesce_max >= 1, "coalesce_max must be >= 1");
        Service {
            inner: Arc::new(Inner {
                db: RwLock::new(db),
                accepting: AtomicBool::new(true),
                traffic: Mutex::new(Traffic {
                    running: !config.paused,
                    ..Traffic::default()
                }),
                changed: Condvar::new(),
                config,
                budgets: Mutex::new(Budgets::default()),
                reads: Mutex::new(ReadCache::default()),
                batches: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                next_client: AtomicU64::new(0),
            }),
        }
    }

    /// A new client handle.
    pub fn client(&self) -> Client<S> {
        Inner::client(&self.inner)
    }

    /// Opens the pause gate ([`ServiceConfig::paused`]). Idempotent.
    pub fn resume(&self) {
        self.inner.resume();
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// admitted, and report the coalescing counters.
    pub fn shutdown(self) -> ServiceStats {
        self.inner.stop();
        self.inner.stats()
    }

    /// [`Service::shutdown`] that also hands back the engine, when this
    /// handle is the sole owner (every [`Client`] dropped). Tests use it
    /// to inspect the drained state and storage — e.g. counting fsync
    /// barriers behind a coalesced append burst — or to restart the
    /// service over the same storage.
    pub fn shutdown_into(self) -> (ServiceStats, Option<DurableEngine<S>>) {
        self.inner.stop();
        let stats = self.inner.stats();
        let inner = Arc::clone(&self.inner);
        // Dropping the handle stops an already stopped service, a no-op;
        // with every Client gone too, the clone is the final owner.
        drop(self);
        let db = Arc::try_unwrap(inner)
            .ok()
            .map(|inner| inner.db.into_inner().expect("engine lock poisoned"));
        (stats, db)
    }
}

impl<S: Storage> Drop for Service<S> {
    fn drop(&mut self) {
        self.inner.stop();
    }
}

// ---------------------------------------------------------------------------
// Read path: one read-lock acquisition per request.

fn serve_read<S: Storage>(inner: &Inner<S>, req: &Request) -> Response {
    let Ok(db) = inner.db.read() else {
        return poisoned();
    };
    inner.note_batch(1);
    let seq = db.seq();
    let engine = db.engine();
    let state = db.state();
    let (id, zeroed) = match req {
        Request::EvalAll { structure } => (*structure, None),
        Request::AbortEval { txn, structure } => match state.txn_atom(txn) {
            Some(atom) => (*structure, Some(atom)),
            None => {
                return error(ErrorKind::Query, format!("unknown transaction `{txn}`"));
            }
        },
        Request::DeleteBaseEval { tuple, structure } => match state.base_atom(tuple) {
            Some(atom) => (*structure, Some(atom)),
            None => {
                return error(ErrorKind::Query, format!("unknown base tuple `{tuple}`"));
            }
        },
        Request::Stats => {
            let s = inner.stats();
            return Response::Stats {
                seq,
                tuples: state.tuples().len() as u64,
                nodes: engine.arena().len() as u64,
                cached: engine.cached_entries() as u64,
                batches: s.batches,
                coalesced: s.coalesced,
            };
        }
        // Routing sent a write here; answer honestly instead of panicking.
        other => {
            return error(
                ErrorKind::Query,
                format!("request routed to the read path is not a read: {other}"),
            );
        }
    };
    let rows = match inner.rows(engine, state, seq, id) {
        Some(cached) => cached.rows(engine, zeroed),
        None => eval_rows(engine, state, id, zeroed, 1),
    };
    Response::Rows { seq, rows }
}

// ---------------------------------------------------------------------------
// Write path: one write-lock acquisition; consecutive same-kind runs
// collapse into the engine's batch entry points.

fn serve_write_batch<S: Storage>(inner: &Inner<S>, jobs: Vec<Job>) -> Vec<Response> {
    let Ok(mut db) = inner.db.write() else {
        return jobs.iter().map(|_| poisoned()).collect();
    };
    {
        let mut budgets = inner.budgets.lock().expect("budgets poisoned");
        if budgets.stale {
            budgets.apply(db.query().0);
        }
    }
    let mut responses: Vec<Option<Response>> = (0..jobs.len()).map(|_| None).collect();
    let mut i = 0;
    while i < jobs.len() {
        let run_end = run_end(&jobs, i);
        match &jobs[i].req {
            Request::Append { .. } => {
                serve_appends(&mut db, &jobs[i..run_end], &mut responses[i..run_end])
            }
            Request::AbortSymbolic { .. } => {
                serve_symbolic(&mut db, &jobs[i..run_end], &mut responses[i..run_end])
            }
            Request::Equiv { .. } => {
                serve_equiv(&mut db, &jobs[i..run_end], &mut responses[i..run_end])
            }
            Request::Snapshot => {
                let resp = match db.snapshot() {
                    Ok(()) => Response::Snapshotted { seq: db.seq() },
                    Err(e) => durable_error(&e),
                };
                responses[i] = Some(resp);
            }
            Request::SetBudget { entries } => {
                {
                    let mut budgets = inner.budgets.lock().expect("budgets poisoned");
                    match entries {
                        Some(n) => budgets.per_client.insert(jobs[i].client, *n as usize),
                        None => budgets.per_client.remove(&jobs[i].client),
                    };
                    budgets.apply(db.query().0);
                }
                responses[i] = Some(Response::BudgetSet { seq: db.seq() });
            }
            Request::Shutdown => {
                inner.accepting.store(false, Ordering::SeqCst);
                responses[i] = Some(Response::Bye { seq: db.seq() });
            }
            other => {
                responses[i] = Some(error(
                    ErrorKind::Query,
                    format!("request routed to the write path is not a write: {other}"),
                ));
            }
        }
        i = run_end;
    }
    drop(db);
    responses
        .into_iter()
        .map(|resp| resp.expect("every write job answered"))
        .collect()
}

/// End of the maximal run of batchable same-kind requests starting at `i`.
/// Only the three kinds with batch entry points form runs; everything
/// else is a run of one.
fn run_end(jobs: &[Job], i: usize) -> usize {
    fn kind(req: &Request) -> Option<u8> {
        match req {
            Request::Append { .. } => Some(0),
            Request::AbortSymbolic { .. } => Some(1),
            Request::Equiv { .. } => Some(2),
            _ => None,
        }
    }
    let Some(k) = kind(&jobs[i].req) else {
        return i + 1;
    };
    let mut end = i + 1;
    while end < jobs.len() && kind(&jobs[end].req) == Some(k) {
        end += 1;
    }
    end
}

/// A run of appends: parse each, group-commit the well-formed ones
/// behind one fsync, answer per-log verdicts. Each accepted log's `seq`
/// is its own 1-based position — the prefix an oracle must replay to
/// reproduce the response.
fn serve_appends<S: Storage>(
    db: &mut DurableEngine<S>,
    jobs: &[Job],
    responses: &mut [Option<Response>],
) {
    let mut logs: Vec<UpdateLog> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for (ix, job) in jobs.iter().enumerate() {
        let Request::Append { log } = &job.req else {
            unreachable!("run_end grouped a non-append into an append run");
        };
        match log.parse::<UpdateLog>() {
            Ok(parsed) => {
                logs.push(parsed);
                owners.push(ix);
            }
            Err(e) => responses[ix] = Some(error(ErrorKind::Parse, e.to_string())),
        }
    }
    if logs.is_empty() {
        return;
    }
    match db.append_many(&logs) {
        Ok(verdicts) => {
            let mut seq = db.seq() - verdicts.iter().filter(|v| v.is_ok()).count() as u64;
            for (ix, verdict) in owners.into_iter().zip(verdicts) {
                responses[ix] = Some(match verdict {
                    Ok(applied) => {
                        seq += 1;
                        Response::Appended {
                            seq,
                            applied: applied as u64,
                        }
                    }
                    Err(e) => error(ErrorKind::Replay, e.to_string()),
                });
            }
        }
        Err(e) => {
            // Storage failure: batch-atomic — nothing was applied, `seq`
            // and the state readers see are where they were.
            let resp = durable_error(&e);
            for ix in owners {
                responses[ix] = Some(resp.clone());
            }
        }
    }
}

fn render_symbolic(engine: &Engine, view: Vec<SymbolicTuple>) -> Vec<SymbolicRow> {
    view.into_iter()
        .map(|t| SymbolicRow {
            name: t.name,
            provenance: engine.render(t.provenance),
            saturated: t.saturated,
        })
        .collect()
}

/// A run of symbolic aborts: unknown transactions answer per-request,
/// the rest share one incremental normalization batch.
fn serve_symbolic<S: Storage>(
    db: &mut DurableEngine<S>,
    jobs: &[Job],
    responses: &mut [Option<Response>],
) {
    let seq = db.seq();
    let (engine, state) = db.query();
    let mut txns: Vec<&str> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for (ix, job) in jobs.iter().enumerate() {
        let Request::AbortSymbolic { txn } = &job.req else {
            unreachable!("run_end grouped a non-abort into a symbolic run");
        };
        if state.txn_atom(txn).is_some() {
            txns.push(txn);
            owners.push(ix);
        } else {
            responses[ix] = Some(error(
                ErrorKind::Query,
                format!("unknown transaction `{txn}`"),
            ));
        }
    }
    if txns.is_empty() {
        return;
    }
    let views = engine
        .abort_symbolic_batch(state, &txns)
        .expect("names resolved under the same lock");
    for (ix, view) in owners.into_iter().zip(views) {
        responses[ix] = Some(Response::Symbolic {
            seq,
            rows: render_symbolic(engine, view),
        });
    }
}

/// A run of equivalence queries: parse + replay each candidate log in
/// the shared arena, then one [`Engine::equivalent_many`] sweep.
fn serve_equiv<S: Storage>(
    db: &mut DurableEngine<S>,
    jobs: &[Job],
    responses: &mut [Option<Response>],
) {
    let seq = db.seq();
    let (engine, state) = db.query();
    let mut candidates: Vec<ReplayState> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for (ix, job) in jobs.iter().enumerate() {
        let Request::Equiv { log } = &job.req else {
            unreachable!("run_end grouped a non-equiv into an equiv run");
        };
        match log.parse::<UpdateLog>() {
            Ok(parsed) => match engine.replay(&parsed) {
                Ok(candidate) => {
                    candidates.push(candidate);
                    owners.push(ix);
                }
                Err(e) => responses[ix] = Some(error(ErrorKind::Replay, e.to_string())),
            },
            Err(e) => responses[ix] = Some(error(ErrorKind::Parse, e.to_string())),
        }
    }
    if candidates.is_empty() {
        return;
    }
    let refs: Vec<&ReplayState> = candidates.iter().collect();
    let verdicts = engine.equivalent_many(state, &refs);
    for (ix, verdict) in owners.into_iter().zip(verdicts) {
        responses[ix] = Some(Response::Equiv {
            seq,
            equivalent: verdict.is_equivalent(),
            differing: verdict.differing,
            undecided: verdict.undecided,
        });
    }
}
