//! The transport, driven over real loopback sockets: the shutdown-aware
//! accept loop and the session loop (`net::serve_session`) exactly as the
//! binary wires them.
//!
//! - a client's shutdown request interrupts the accept loop promptly,
//!   **without** a further connection ever arriving (the old
//!   `listener.incoming()` loop only re-checked the gate on the next
//!   connection, so an idle listener hung the process);
//! - accepted sockets have `TCP_NODELAY`, and a reply costs what it costs
//!   to compute, not a delayed-ACK timeout;
//! - whatever a peer sends — half a line, too long a line, bytes that are
//!   not UTF-8 — is answered with a typed error or dropped, never a
//!   panic, and other sessions do not notice;
//! - finished session threads are joined as new connections arrive, so a
//!   reconnect loop does not pile them up until shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uprov_service::net::{serve_connections, Sessions, MAX_LINE_BYTES, POLL_INTERVAL};
use uprov_service::proto::{ErrorKind, Response};
use uprov_service::service::{Service, ServiceConfig};
use uprov_storage::{DurableEngine, MemStorage};

/// A service behind [`serve_connections`], exactly as `main.rs` runs it.
/// The accept thread returns what `nodelay()` reported for every stream
/// it accepted.
fn listen() -> (Service<MemStorage>, SocketAddr, JoinHandle<Vec<bool>>) {
    listen_then(|nodelay, sessions| {
        // A peer that resets its socket is an `Err`; a panic is not.
        assert_eq!(sessions.panicked, 0, "session thread never panics");
        nodelay
    })
}

/// [`listen`], with the accept thread returning what `finish` makes of
/// the accepted streams' `nodelay()` and the session report.
fn listen_then<T: Send + 'static>(
    finish: fn(Vec<bool>, Sessions) -> T,
) -> (Service<MemStorage>, SocketAddr, JoinHandle<T>) {
    let (db, _) = DurableEngine::open(MemStorage::new()).expect("open mem engine");
    let service = Service::start(db, ServiceConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let client = service.client();
    let accept_thread = std::thread::spawn(move || {
        let mut nodelay = Vec::new();
        let sessions = serve_connections(&listener, &client, |stream| {
            nodelay.push(stream.nodelay().expect("query TCP_NODELAY"));
        })
        .expect("accept loop");
        finish(nodelay, sessions)
    });
    (service, addr, accept_thread)
}

/// One client connection: send a line, read a line.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Conn { writer, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "server closed the connection");
        assert!(reply.ends_with('\n'), "reply is one whole line: {reply:?}");
        reply.pop();
        reply
    }

    fn call(&mut self, line: &str) -> String {
        self.send(format!("{line}\n").as_bytes());
        self.recv()
    }
}

fn error_kind(reply: &str) -> ErrorKind {
    match reply.parse::<Response>() {
        Ok(Response::Error { kind, .. }) => kind,
        other => panic!("expected a typed error, got {other:?} from {reply}"),
    }
}

const STATS: &str = r#"{"op":"stats"}"#;

/// One client connects, asks for shutdown, and the accept loop exits on
/// its own — no second connection nudges it awake. Bounded by a generous
/// deadline so a regression shows up as a test failure, not a hang.
#[test]
fn shutdown_request_interrupts_an_idle_accept_loop() {
    let (service, addr, accept_thread) = listen();

    // One session: append something, then request shutdown.
    let mut conn = Conn::open(addr);
    let reply = conn.call(r#"{"op":"append","log":"base x\nbegin t\ninsert x\ncommit\n"}"#);
    assert!(reply.starts_with("{\"ok\":\"appended\""), "got: {reply}");
    let reply = conn.call(r#"{"op":"shutdown"}"#);
    assert!(reply.starts_with("{\"ok\":\"bye\""), "got: {reply}");
    drop(conn);

    // The accept loop must now exit by itself. Poll the join with a
    // deadline far above the loop's poll interval but far below "hangs
    // until the next connection" (which here would be forever).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !accept_thread.is_finished() {
        assert!(
            Instant::now() < deadline,
            "accept loop did not notice shutdown within 10s of an idle listener \
             (poll interval is {POLL_INTERVAL:?})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    accept_thread.join().expect("accept thread");
    service.shutdown();
}

/// The latency regression this transport had: the reply body and its
/// newline went out as two writes on a Nagle socket, so every reply
/// waited out the client's 40 ms delayed ACK (200 round trips: 8.8 s).
#[test]
fn large_replies_round_trip_without_a_nagle_stall() {
    let (service, addr, accept_thread) = listen();
    let mut conn = Conn::open(addr);

    // 400 base tuples with ~100-byte names: cheap to evaluate, > 40 KB
    // to print.
    let log: String = (0..400)
        .map(|i| format!("base t{i}_{}\\n", "x".repeat(100)))
        .collect();
    let reply = conn.call(&format!(r#"{{"op":"append","log":"{log}"}}"#));
    assert!(reply.starts_with("{\"ok\":\"appended\""), "got: {reply}");

    let eval = r#"{"op":"eval","structure":"bool"}"#;
    let started = Instant::now();
    for _ in 0..200 {
        let reply = conn.call(eval);
        assert!(reply.starts_with("{\"ok\":\"rows\""), "got: {reply:.80}");
        assert!(reply.len() >= 40_000, "reply is only {} bytes", reply.len());
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 round trips of a 40 KB reply took {elapsed:?}"
    );

    drop(conn);
    service.shutdown();
    let nodelay = accept_thread.join().expect("accept thread");
    assert_eq!(nodelay, [true], "accepted sockets must have TCP_NODELAY");
}

/// Hostile and broken peers next to a well-behaved one.
#[test]
fn hostile_input_is_answered_or_dropped_and_other_sessions_keep_serving() {
    let (service, addr, accept_thread) = listen();
    let mut bystander = Conn::open(addr);
    let before = bystander.call(STATS);
    assert!(before.starts_with("{\"ok\":\"stats\""), "got: {before}");

    // Half a request, then the peer vanishes: the fragment is served
    // like a line (here: a typed parse error nobody reads).
    let mut half = Conn::open(addr);
    half.send(br#"{"op":"app"#);
    drop(half);

    // A line over the cap is skipped and answered with a typed error;
    // the next request on the same session is served.
    let mut big = Conn::open(addr);
    let chunk = vec![b'a'; 1 << 20];
    for _ in 0..=(MAX_LINE_BYTES >> 20) {
        big.send(&chunk);
    }
    big.send(b"\n");
    assert_eq!(error_kind(&big.recv()), ErrorKind::TooLarge);
    let reply = big.call(STATS);
    assert!(reply.starts_with("{\"ok\":\"stats\""), "got: {reply}");

    // An over-cap line that never ends: its `too_large` goes nowhere.
    let mut endless = Conn::open(addr);
    for _ in 0..=(MAX_LINE_BYTES >> 20) {
        endless.send(&chunk);
    }
    drop(endless);

    // Bytes that are not UTF-8, garbage, blank and CRLF lines: typed
    // errors for the first two, silence for blanks, and CRLF is served.
    let mut odd = Conn::open(addr);
    odd.send(b"\xff\xfe{\"op\":\"stats\"}\n");
    assert_eq!(error_kind(&odd.recv()), ErrorKind::Parse);
    assert_eq!(error_kind(&odd.call("][")), ErrorKind::Parse);
    odd.send(b"\r\n   \n\n{\"op\":\"stats\"}\r\n");
    let reply = odd.recv();
    assert!(reply.starts_with("{\"ok\":\"stats\""), "got: {reply}");

    // None of it disturbed the session that was there all along.
    let after = bystander.call(STATS);
    assert!(after.starts_with("{\"ok\":\"stats\""), "got: {after}");

    drop((bystander, big, odd));
    service.shutdown();
    accept_thread.join().expect("no session panicked");
}

/// A client that reconnects in a loop does not grow the session set:
/// each accept joins the sessions that have finished, so after 200
/// connect–request–close cycles at most a handful of session threads
/// were ever held at once (holding every handle until shutdown would
/// make it 200).
#[test]
fn finished_sessions_are_joined_as_new_connections_arrive() {
    let (service, addr, accept_thread) = listen_then(|_, sessions| sessions);
    for _ in 0..200 {
        let mut conn = Conn::open(addr);
        let reply = conn.call(STATS);
        assert!(reply.starts_with("{\"ok\":\"stats\""), "got: {reply}");
    }
    service.shutdown();
    let sessions = accept_thread.join().expect("accept thread");
    assert_eq!(sessions.panicked, 0);
    assert!(
        sessions.peak_live <= 4,
        "{} session threads held at once",
        sessions.peak_live
    );
}
