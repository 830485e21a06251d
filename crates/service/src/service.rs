//! The resident service: one shared [`DurableEngine`] behind a reader
//! pool and a single serialized writer.
//!
//! # Concurrency regime
//!
//! The engine sits in an [`RwLock`]. Read-mostly concrete queries
//! (`abort`/`delete`/`eval`/`stats`) go to a pool of reader threads that
//! share the read lock — the concrete evaluation entry points take
//! `&Engine`, so any number run at once. Everything that mutates
//! (appends, symbolic views, equivalence, snapshots, budgets) serializes
//! through **one** writer thread holding the write lock, so "durable
//! before visible" needs no further protocol: [`DurableEngine`] touches
//! nothing in memory until the batch's fsync has returned, and the write
//! lock keeps every reader out while it then applies the batch. No
//! response can reflect a partially applied append — the soak test pins
//! this from the outside.
//!
//! # Read cache
//!
//! Concrete reads are answered from one [`Rows`] per structure — the
//! database evaluated once under that structure, after which each abort
//! or deletion re-evaluates only the zeroed atom's cone — valid at the
//! append `seq` it was built at (see `Inner::rows`).
//!
//! # Coalescing
//!
//! Each worker drains its queue opportunistically: one blocking `recv`,
//! then up to `coalesce_max - 1` more by `try_recv`. A drained batch is
//! served under **one** lock acquisition with **one** sequence number,
//! and bursts of same-shaped requests collapse into the engine's batch
//! entry points — concurrent symbolic aborts share one normalization
//! batch ([`Engine::abort_symbolic_batch`]), consecutive appends commit
//! behind one fsync ([`DurableEngine::append_many`]), equivalence bursts
//! normalize in one sweep ([`Engine::equivalent_many`]). Batched answers
//! are bit-identical to one-at-a-time answers (pinned by the
//! interleaving tests).
//!
//! # Backpressure and shutdown
//!
//! Queues are bounded; a full queue rejects immediately with a typed
//! [`ErrorKind::Overloaded`] response instead of blocking the client.
//! [`Service::shutdown`] flips `accepting` off (new requests get
//! [`ErrorKind::ShuttingDown`]), then pushes one stop sentinel per worker
//! through each FIFO queue — everything enqueued before the sentinel is
//! served, nothing is dropped — and joins the threads.
//!
//! # Determinism hooks
//!
//! A service started with [`ServiceConfig::paused`] keeps its workers
//! parked on a gate while clients enqueue; [`Service::resume`] releases
//! them. Tests use this to pin exactly which requests coalesce into one
//! batch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;

use uprov_core::Atom;
use uprov_engine::{Engine, ReplayState, SymbolicTuple, UpdateLog};
use uprov_storage::{DurableEngine, DurableError, Storage};

use crate::proto::{ErrorKind, Request, Response, SymbolicRow};
use crate::values::{eval_rows, Rows, StructureId};

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Reader threads sharing the read lock. Must be ≥ 1.
    pub readers: usize,
    /// Capacity of each bounded request queue; a full queue answers
    /// [`ErrorKind::Overloaded`].
    pub queue_depth: usize,
    /// Max requests one worker drains into a single coalesced batch.
    pub coalesce_max: usize,
    /// Start with the workers parked; release with [`Service::resume`].
    pub paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            readers: 2,
            queue_depth: 64,
            coalesce_max: 16,
            paused: false,
        }
    }
}

/// Counters reported by [`Service::shutdown`] and the `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Coalesced batches executed (each = one lock acquisition).
    pub batches: u64,
    /// Requests that rode a batch of two or more.
    pub coalesced: u64,
}

struct Job {
    client: u64,
    req: Request,
    reply: SyncSender<Response>,
}

enum WorkerMsg {
    Work(Box<Job>),
    Stop,
}

struct Inner<S: Storage> {
    db: RwLock<DurableEngine<S>>,
    accepting: AtomicBool,
    /// `false` while paused; workers wait here before each drain.
    running: Mutex<bool>,
    gate: Condvar,
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

/// The live clients' cache budgets, keyed by [`Client::id`]. A client's
/// entry goes with the client: dropping it marks the map `stale`, and the
/// writer re-applies the minimum before its next write batch (budgets only
/// bite on the write path, so that is soon enough).
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

impl<S: Storage> Inner<S> {
    fn wait_running(&self) {
        let mut running = self.running.lock().expect("gate poisoned");
        while !*running {
            running = self.gate.wait(running).expect("gate poisoned");
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
    /// read under the engine's read lock, to answer `reads` more concrete
    /// reads there — or `None` while they would be the only read of `id`
    /// at `seq`, which a full evaluation ([`eval_rows`]) answers for less
    /// than a build costs.
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
        reads: usize,
    ) -> Option<Arc<Rows>> {
        let sibling = {
            let mut cache = self.reads.lock().unwrap_or_else(PoisonError::into_inner);
            if cache.seq != seq {
                *cache = ReadCache {
                    seq,
                    entries: BTreeMap::new(),
                };
            }
            match cache.entries.entry(id).or_insert(Entry::Read(0)) {
                Entry::Built(hit) => return Some(Arc::clone(hit)),
                Entry::Read(n) if *n + reads < 2 => {
                    *n += reads;
                    return None;
                }
                Entry::Read(_) => {}
            }
            cache.entries.values().find_map(|e| match e {
                Entry::Built(r) => Some(Arc::clone(r)),
                Entry::Read(_) => None,
            })
        };
        let built = Arc::new(Rows::new(engine, state, id, sibling.as_deref()));
        let mut cache = self.reads.lock().unwrap_or_else(PoisonError::into_inner);
        // `seq` cannot have moved: the caller still holds the read lock.
        match cache.entries.entry(id).or_insert(Entry::Read(0)) {
            Entry::Built(hit) => Some(Arc::clone(hit)),
            slot => {
                *slot = Entry::Built(Arc::clone(&built));
                Some(built)
            }
        }
    }
}

/// What the read path knows about the state at `seq`, per structure.
#[derive(Default)]
struct ReadCache {
    seq: u64,
    entries: BTreeMap<StructureId, Entry>,
}

enum Entry {
    /// This many reads were answered by a full evaluation.
    Read(usize),
    /// Built by the second read.
    Built(Arc<Rows>),
}

pub(crate) fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
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

/// A client handle: cheap to clone, one per connection/thread. All
/// requests block until their response arrives (or the service drains
/// away, which answers [`ErrorKind::ShuttingDown`]).
pub struct Client<S: Storage> {
    inner: Arc<Inner<S>>,
    read_tx: SyncSender<WorkerMsg>,
    write_tx: SyncSender<WorkerMsg>,
    id: u64,
}

impl<S: Storage> Clone for Client<S> {
    fn clone(&self) -> Self {
        Client {
            inner: Arc::clone(&self.inner),
            read_tx: self.read_tx.clone(),
            write_tx: self.write_tx.clone(),
            id: self.inner.next_client.fetch_add(1, Ordering::Relaxed),
        }
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
    /// This client's id (budget-map key).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True until shutdown begins — [`Service::is_accepting`] through a
    /// client handle, so connection loops that only hold clients (the
    /// accept loop's sessions) can watch the gate too.
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::SeqCst)
    }

    /// Submits a request and blocks for the response.
    ///
    /// Never panics and never blocks on a full queue: overload and
    /// shutdown come back as typed [`Response::Error`]s.
    pub fn request(&self, req: Request) -> Response {
        if !self.inner.accepting.load(Ordering::SeqCst) {
            return error(ErrorKind::ShuttingDown, "service is draining");
        }
        let (reply, rx) = sync_channel(1);
        let queue = if is_write(&req) {
            &self.write_tx
        } else {
            &self.read_tx
        };
        let job = WorkerMsg::Work(Box::new(Job {
            client: self.id,
            req,
            reply,
        }));
        match queue.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                return error(ErrorKind::Overloaded, "request queue is full, retry later");
            }
            Err(TrySendError::Disconnected(_)) => {
                return error(ErrorKind::ShuttingDown, "service is gone");
            }
        }
        rx.recv()
            .unwrap_or_else(|_| error(ErrorKind::ShuttingDown, "request dropped during drain"))
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
pub struct Service<S: Storage + Send + Sync + 'static> {
    inner: Arc<Inner<S>>,
    read_tx: SyncSender<WorkerMsg>,
    write_tx: SyncSender<WorkerMsg>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Storage + Send + Sync + 'static> Service<S> {
    /// Spawns the reader pool and the writer over an opened engine.
    pub fn start(db: DurableEngine<S>, config: ServiceConfig) -> Service<S> {
        assert!(config.readers >= 1, "a service needs at least one reader");
        assert!(config.coalesce_max >= 1, "coalesce_max must be >= 1");
        let inner = Arc::new(Inner {
            db: RwLock::new(db),
            accepting: AtomicBool::new(true),
            running: Mutex::new(!config.paused),
            gate: Condvar::new(),
            budgets: Mutex::new(Budgets::default()),
            reads: Mutex::new(ReadCache::default()),
            batches: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
        });
        let (read_tx, read_rx) = sync_channel(config.queue_depth);
        let (write_tx, write_rx) = sync_channel(config.queue_depth);
        let read_rx = Arc::new(Mutex::new(read_rx));
        let mut workers = Vec::with_capacity(config.readers + 1);
        for i in 0..config.readers {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&read_rx);
            let max = config.coalesce_max;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("uprov-read-{i}"))
                    .spawn(move || reader_loop(&inner, &rx, max))
                    .expect("spawn reader"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            let max = config.coalesce_max;
            workers.push(
                std::thread::Builder::new()
                    .name("uprov-write".to_owned())
                    .spawn(move || writer_loop(&inner, &write_rx, max))
                    .expect("spawn writer"),
            );
        }
        Service {
            inner,
            read_tx,
            write_tx,
            workers,
        }
    }

    /// A new client handle.
    pub fn client(&self) -> Client<S> {
        Client {
            inner: Arc::clone(&self.inner),
            read_tx: self.read_tx.clone(),
            write_tx: self.write_tx.clone(),
            id: self.inner.next_client.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Opens the pause gate ([`ServiceConfig::paused`]). Idempotent.
    pub fn resume(&self) {
        let mut running = self.inner.running.lock().expect("gate poisoned");
        *running = true;
        self.inner.gate.notify_all();
    }

    /// True until shutdown begins.
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// queued (FIFO order guarantees nothing jumps the sentinel), join
    /// the workers, and report the coalescing counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain_and_join();
        self.inner.stats()
    }

    /// [`Service::shutdown`] that also hands back the engine, when this
    /// handle is the sole owner (every [`Client`] dropped). Tests use it
    /// to inspect the drained state and storage — e.g. counting fsync
    /// barriers behind a coalesced append burst — or to restart the
    /// service over the same storage.
    pub fn shutdown_into(mut self) -> (ServiceStats, Option<DurableEngine<S>>) {
        self.drain_and_join();
        let stats = self.inner.stats();
        let inner = Arc::clone(&self.inner);
        // Drop the handle (drain_and_join already ran, so this is just
        // field cleanup); with every Client gone too, the clone below is
        // the final owner.
        drop(self);
        let db = Arc::try_unwrap(inner)
            .ok()
            .map(|inner| inner.db.into_inner().expect("engine lock poisoned"));
        (stats, db)
    }

    fn drain_and_join(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.inner.accepting.store(false, Ordering::SeqCst);
        self.resume(); // a paused service must still drain
        let readers = self.workers.len() - 1;
        for _ in 0..readers {
            // Blocking send: the queue is draining, so capacity frees up.
            let _ = self.read_tx.send(WorkerMsg::Stop);
        }
        let _ = self.write_tx.send(WorkerMsg::Stop);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: Storage + Send + Sync + 'static> Drop for Service<S> {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

// ---------------------------------------------------------------------------
// Worker loops.

/// Drains one batch: a blocking `recv`, then opportunistic `try_recv` up
/// to `max` total. Returns the jobs plus whether a stop sentinel was hit
/// (each sentinel terminates exactly one worker — the one that drains it).
fn drain(rx: &Receiver<WorkerMsg>, max: usize) -> (Vec<Job>, bool) {
    let mut jobs = Vec::new();
    match rx.recv() {
        Ok(WorkerMsg::Work(job)) => jobs.push(*job),
        Ok(WorkerMsg::Stop) | Err(_) => return (jobs, true),
    }
    while jobs.len() < max {
        match rx.try_recv() {
            Ok(WorkerMsg::Work(job)) => jobs.push(*job),
            Ok(WorkerMsg::Stop) => return (jobs, true),
            Err(_) => break,
        }
    }
    (jobs, false)
}

fn reader_loop<S: Storage>(inner: &Inner<S>, rx: &Mutex<Receiver<WorkerMsg>>, max: usize) {
    loop {
        inner.wait_running();
        // Readers share one queue: the lock is held for the whole drain,
        // so a batch is a contiguous run of the queue.
        let (jobs, stop) = drain(&rx.lock().expect("queue poisoned"), max);
        if !jobs.is_empty() {
            inner.note_batch(jobs.len());
            serve_read_batch(inner, jobs);
        }
        if stop {
            return;
        }
    }
}

fn writer_loop<S: Storage>(inner: &Inner<S>, rx: &Receiver<WorkerMsg>, max: usize) {
    loop {
        inner.wait_running();
        let (jobs, stop) = drain(rx, max);
        if !jobs.is_empty() {
            inner.note_batch(jobs.len());
            serve_write_batch(inner, jobs);
        }
        if stop {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Read path: one read-lock acquisition, one seq, per-structure grouping.

fn serve_read_batch<S: Storage>(inner: &Inner<S>, jobs: Vec<Job>) {
    let db = inner.db.read().expect("engine lock poisoned");
    let seq = db.seq();
    let engine = db.engine();
    let state = db.state();
    let mut responses: Vec<Option<Response>> = (0..jobs.len()).map(|_| None).collect();
    // Concrete queries group by structure: every entry of a group is
    // answered from that structure's cached baseline.
    let mut groups: BTreeMap<StructureId, Vec<(usize, Option<Atom>)>> = BTreeMap::new();
    for (ix, job) in jobs.iter().enumerate() {
        match &job.req {
            Request::EvalAll { structure } => {
                groups.entry(*structure).or_default().push((ix, None));
            }
            Request::AbortEval { txn, structure } => match state.txn_atom(txn) {
                Some(atom) => groups.entry(*structure).or_default().push((ix, Some(atom))),
                None => {
                    responses[ix] = Some(error(
                        ErrorKind::Query,
                        format!("unknown transaction `{txn}`"),
                    ));
                }
            },
            Request::DeleteBaseEval { tuple, structure } => match state.base_atom(tuple) {
                Some(atom) => groups.entry(*structure).or_default().push((ix, Some(atom))),
                None => {
                    responses[ix] = Some(error(
                        ErrorKind::Query,
                        format!("unknown base tuple `{tuple}`"),
                    ));
                }
            },
            Request::Stats => {
                let s = inner.stats();
                responses[ix] = Some(Response::Stats {
                    seq,
                    tuples: state.tuples().len() as u64,
                    nodes: engine.arena().len() as u64,
                    cached: engine.cached_entries() as u64,
                    batches: s.batches,
                    coalesced: s.coalesced,
                });
            }
            // Routing sent a write here; answer honestly instead of
            // panicking a worker.
            other => {
                responses[ix] = Some(error(
                    ErrorKind::Query,
                    format!("request routed to reader is not a read: {other}"),
                ));
            }
        }
    }
    for (id, members) in groups {
        let cached = inner.rows(engine, state, seq, id, members.len());
        for (ix, zeroed) in members {
            let rows = match &cached {
                Some(cached) => cached.rows(engine, zeroed),
                None => eval_rows(engine, state, id, zeroed, 1),
            };
            responses[ix] = Some(Response::Rows { seq, rows });
        }
    }
    drop(db);
    for (job, resp) in jobs.into_iter().zip(responses) {
        let resp = resp.expect("every read job answered");
        let _ = job.reply.send(resp);
    }
}

// ---------------------------------------------------------------------------
// Write path: one write-lock acquisition; consecutive same-kind runs
// collapse into the engine's batch entry points.

fn serve_write_batch<S: Storage>(inner: &Inner<S>, jobs: Vec<Job>) {
    let mut db = inner.db.write().expect("engine lock poisoned");
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
                    format!("request routed to writer is not a write: {other}"),
                ));
            }
        }
        i = run_end;
    }
    drop(db);
    for (job, resp) in jobs.into_iter().zip(responses) {
        let resp = resp.expect("every write job answered");
        let _ = job.reply.send(resp);
    }
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
