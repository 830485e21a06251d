//! Driving the service: transports (in-process `serve_line`, loopback
//! TCP), closed-loop clients, the `uprov-service` child process, and
//! the stop → crash → recover sequence every service workload ends with.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use benchkit::TestRng;
use uprov_service::service::{Client, Service, ServiceConfig};
use uprov_service::values::StructureId;
use uprov_storage::{DurableEngine, Storage};

use crate::oracle::{digest, is_ok, reply_seq, reply_u64};
use crate::stats::median_f64;
use crate::storage_probe::{CountingStorage, Counts};

/// How often the stop → recover sequence reopens the storage; the
/// median is reported.
const RECOVERIES: usize = 3;

/// Hard limit on waiting for the child process to come up or go away.
const CHILD_TIMEOUT: Duration = Duration::from_secs(20);

/// One protocol round trip: a request line in, a reply line out.
pub trait Transport {
    /// Sends `line`, blocks for the reply.
    fn call(&mut self, line: &str) -> String;
}

impl<S: Storage> Transport for Client<S> {
    fn call(&mut self, line: &str) -> String {
        self.serve_line(line)
    }
}

/// What a client keeps of one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the request in the workload's script or pool.
    pub req: u32,
    /// Round-trip time.
    pub ns: u64,
    /// When the reply arrived.
    pub done: Instant,
    /// The reply's `seq`, `0` if the reply was not the expected success.
    pub seq: u64,
    /// Digest of the reply line.
    pub digest: u64,
}

/// Sends `line` and records the round trip; `kind` is the success the
/// request must be answered with. The full reply is handed back too.
pub fn call<T: Transport>(t: &mut T, req: u32, line: &str, kind: &str) -> (Sample, String) {
    let start = Instant::now();
    let reply = t.call(line);
    let done = Instant::now();
    let ns = (done - start).as_nanos() as u64;
    let seq = if is_ok(&reply, kind) {
        reply_seq(&reply).unwrap_or(0)
    } else {
        0
    };
    let sample = Sample {
        req,
        ns,
        done,
        seq,
        digest: digest(&reply),
    };
    (sample, reply)
}

/// A closed-loop reader: draws concrete queries uniformly from `lines`
/// and waits for each reply, until `stop` says so.
pub fn concrete_client<T: Transport>(
    t: &mut T,
    lines: &[String],
    rng: &mut TestRng,
    stop: impl Fn() -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    while !stop() {
        let req = rng.below(lines.len());
        samples.push(call(t, req as u32, &lines[req], "rows").0);
    }
    samples
}

/// `VmHWM` (peak resident set) of process `pid`, or of this process, in
/// megabytes.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc status");
    kb / 1024.0
}

/// A scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `out/tmp-<pid>-<label>` afresh.
    pub fn create(out: &Path, label: &str) -> io::Result<TempDir> {
        let dir = out.join(format!("tmp-{}-{label}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the stop → crash → recover sequence found.
#[derive(Debug)]
pub struct PostMortem {
    /// Median time from opening the crashed storage to the first
    /// answered `stats`.
    pub recover_s: f64,
    /// Snapshot + WAL bytes held when the service stopped.
    pub stored_bytes: u64,
    /// `seq` the recovered service reports.
    pub recovered_seq: u64,
    /// The recovered service's answers to `eval` under all five
    /// structures.
    pub eval_lines: Vec<String>,
    /// The stopped service's `batches` counter.
    pub batches: u64,
    /// The stopped service's `coalesced` counter.
    pub coalesced: u64,
}

/// Asks `t` for `stats` and the five whole-database evaluations.
fn interrogate<T: Transport>(t: &mut T) -> (u64, Vec<String>) {
    let stats = t.call("{\"op\":\"stats\"}");
    let seq = reply_seq(&stats).expect("stats reply carries seq");
    let lines = StructureId::ALL
        .iter()
        .map(|id| t.call(&format!("{{\"op\":\"eval\",\"structure\":\"{id}\"}}")))
        .collect();
    (seq, lines)
}

/// A running service a workload can connect clients to.
pub trait Server {
    /// The connection type.
    type Conn: Transport + Send;

    /// A new client connection.
    fn connect(&self) -> Self::Conn;

    /// Peak resident set of the serving process, in megabytes.
    fn peak_rss_mb(&self) -> f64;

    /// Stops the service, simulates the crash, and recovers
    /// [`RECOVERIES`] times. Every connection must have been dropped.
    fn finish(self) -> PostMortem;
}

/// Starts the service exactly as shipped over an opened storage.
fn start<S: Storage + Send + Sync + 'static>(storage: S) -> Service<S> {
    let (db, _report) = DurableEngine::open(storage).expect("storage opens");
    Service::start(db, ServiceConfig::default())
}

/// The service in this process, over a [`CountingStorage`].
pub struct InProcess<S: Storage + Send + Sync + 'static> {
    service: Service<CountingStorage<S>>,
    /// The storage probe's counters.
    pub counts: Arc<Mutex<Counts>>,
}

impl<S: Storage + Send + Sync + 'static> InProcess<S> {
    /// Starts the service over the (empty) probed `storage`.
    pub fn start(storage: CountingStorage<S>) -> InProcess<S> {
        let counts = storage.counts();
        InProcess {
            service: start(storage),
            counts,
        }
    }
}

impl<S: Storage + Send + Sync + 'static> Server for InProcess<S> {
    type Conn = Client<CountingStorage<S>>;

    fn connect(&self) -> Self::Conn {
        self.service.client()
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(None)
    }

    /// Drains the service, discards every unsynced byte (the simulated
    /// crash), then reopens the bare storage, timing open → first
    /// answered `stats`.
    fn finish(self) -> PostMortem {
        let (stats, db) = self.service.shutdown_into();
        let db = db.expect("every client handle was dropped");
        let stored_bytes = self.counts.lock().expect("probe poisoned").stored_bytes();
        let (mut storage, discarded) = db.into_storage().crash().expect("crash truncation");
        if discarded > 0 {
            println!("  crash discarded {discarded} unsynced bytes");
        }
        let mut times = Vec::new();
        let mut found = None;
        for _ in 0..RECOVERIES {
            let t0 = Instant::now();
            let service = start(storage);
            let mut client = service.client();
            let _ = client.call("{\"op\":\"stats\"}");
            times.push(t0.elapsed().as_secs_f64());
            found = Some(interrogate(&mut client));
            drop(client);
            let (_, db) = service.shutdown_into();
            storage = db.expect("sole owner").into_storage();
        }
        let (recovered_seq, eval_lines) = found.expect("RECOVERIES > 0");
        PostMortem {
            recover_s: median_f64(&times),
            stored_bytes,
            recovered_seq,
            eval_lines,
            batches: stats.batches,
            coalesced: stats.coalesced,
        }
    }
}

// ---------------------------------------------------------------------------
// Loopback TCP and the child process.

/// One client connection to the child.
#[derive(Debug)]
pub struct TcpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reply bytes received, newline included.
    pub bytes_in: u64,
}

impl TcpConn {
    fn connect(addr: SocketAddr) -> io::Result<TcpConn> {
        let writer = TcpStream::connect(addr)?;
        // Client side only: the server's sockets stay as shipped.
        writer.set_nodelay(true)?;
        Ok(TcpConn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            bytes_in: 0,
        })
    }
}

impl Transport for TcpConn {
    fn call(&mut self, line: &str) -> String {
        // One write per request, so the request never waits on Nagle.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .expect("child accepts requests");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("child replies");
        assert!(n > 0, "child closed the connection mid-request");
        self.bytes_in += n as u64;
        reply.truncate(reply.trim_end().len());
        reply
    }
}

/// The real `uprov-service --listen` child over a directory.
#[derive(Debug)]
pub struct ServiceChild {
    proc: std::process::Child,
    addr: SocketAddr,
}

impl ServiceChild {
    /// Spawns the binary on a free loopback port over `dir` and waits
    /// until it answers `stats`.
    pub fn spawn(bin: &Path, dir: &Path) -> ServiceChild {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free loopback port");
        let proc = Command::new(bin)
            .arg("--listen")
            .arg(addr.to_string())
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
        let mut child = ServiceChild { proc, addr };
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            if let Ok(mut conn) = TcpConn::connect(addr) {
                let _ = conn.call("{\"op\":\"stats\"}");
                return child;
            }
            if Instant::now() > deadline || child.proc.try_wait().is_ok_and(|s| s.is_some()) {
                child.kill();
                panic!("uprov-service did not come up on {addr}");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A new connection.
    pub fn connect(&self) -> TcpConn {
        TcpConn::connect(self.addr).expect("child is listening")
    }

    /// The child's peak resident set, in megabytes.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.proc.id()))
    }

    fn kill(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }

    /// Asks the child to shut down and waits for it to exit; kills it
    /// after [`CHILD_TIMEOUT`]. The binary joins its open sessions, so
    /// every other connection must already be closed.
    pub fn shutdown(mut self) {
        {
            let mut conn = self.connect();
            let bye = conn.call("{\"op\":\"shutdown\"}");
            assert!(is_ok(&bye, "bye"), "shutdown answered {bye}");
        }
        let deadline = Instant::now() + CHILD_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.proc.try_wait() {
                assert!(status.success(), "uprov-service exited with {status}");
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.kill();
        panic!("uprov-service ignored shutdown for {CHILD_TIMEOUT:?}");
    }
}

impl Drop for ServiceChild {
    fn drop(&mut self) {
        // Reached with a live child only when a check panicked.
        self.kill();
    }
}

/// The `uprov-service` child over loopback TCP, persisting to a scratch
/// directory so that what it stored can be read from disk.
#[derive(Debug)]
pub struct OverTcp {
    child: ServiceChild,
    bin: PathBuf,
    dir: TempDir,
}

impl OverTcp {
    /// Spawns `bin` over a fresh scratch directory under `out`.
    pub fn start(bin: &Path, out: &Path) -> OverTcp {
        let dir = TempDir::create(out, "tcp").expect("scratch directory");
        OverTcp {
            child: ServiceChild::spawn(bin, dir.path()),
            bin: bin.to_owned(),
            dir,
        }
    }
}

impl Server for OverTcp {
    type Conn = TcpConn;

    fn connect(&self) -> TcpConn {
        self.child.connect()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.child.peak_rss_mb()
    }

    /// Shuts the child down, then restarts it over the same directory,
    /// timing spawn → first answered `stats`. A clean shutdown leaves
    /// nothing unsynced (every acknowledged append was fsynced), so
    /// there is nothing to discard.
    fn finish(self) -> PostMortem {
        let stats = self.child.connect().call("{\"op\":\"stats\"}");
        self.child.shutdown();
        let stored_bytes = std::fs::read_dir(self.dir.path())
            .expect("child directory")
            .map(|e| e.and_then(|e| e.metadata()).expect("blob metadata").len())
            .sum();
        let mut times = Vec::new();
        let mut found = None;
        for _ in 0..RECOVERIES {
            let t0 = Instant::now();
            let child = ServiceChild::spawn(&self.bin, self.dir.path());
            times.push(t0.elapsed().as_secs_f64());
            let mut conn = child.connect();
            found = Some(interrogate(&mut conn));
            drop(conn);
            child.shutdown();
        }
        let (recovered_seq, eval_lines) = found.expect("RECOVERIES > 0");
        PostMortem {
            recover_s: median_f64(&times),
            stored_bytes,
            recovered_seq,
            eval_lines,
            batches: reply_u64(&stats, "batches").expect("stats counter"),
            coalesced: reply_u64(&stats, "coalesced").expect("stats counter"),
        }
    }
}
