//! The `uprov-service` binary: the resident provenance service behind a
//! line-oriented JSON protocol.
//!
//! ```text
//! uprov-service [--dir PATH] [--listen ADDR] [--readers N]
//! ```
//!
//! With `--listen 127.0.0.1:7117` the service accepts TCP connections,
//! one protocol session per connection (thread per connection, all
//! multiplexed onto the one resident engine). Without it, the service
//! speaks the protocol on stdin/stdout — one request per line, one
//! response per line — which is how the offline examples and scripts
//! drive it. Both are the same loop, [`net::serve_session`]:
//!
//! ```text
//! $ printf '%s\n' \
//!     '{"op":"append","log":"base x\nbegin t\ninsert x\ncommit\n"}' \
//!     '{"op":"abort","txn":"t","structure":"bool"}' \
//!     '{"op":"shutdown"}' | uprov-service
//! {"ok":"appended","seq":1,"applied":1}
//! {"ok":"rows","seq":1,"rows":[["x","true"]]}
//! {"ok":"bye","seq":1}
//! ```
//!
//! `--dir PATH` persists through [`FileStorage`] (snapshot + WAL in
//! `PATH`, recovered on restart); the default is a process-lifetime
//! [`MemStorage`].

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

use std::net::TcpListener;
use std::process::ExitCode;

use uprov_service::net;
use uprov_service::service::{Service, ServiceConfig};
use uprov_storage::{DurableEngine, FileStorage, MemStorage, Storage};

struct Args {
    dir: Option<String>,
    listen: Option<String>,
    readers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: None,
        listen: None,
        readers: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--dir" => args.dir = Some(value("--dir")?),
            "--listen" => args.listen = Some(value("--listen")?),
            "--readers" => {
                args.readers = Some(
                    value("--readers")?
                        .parse()
                        .map_err(|e| format!("--readers: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: uprov-service [--dir PATH] [--listen ADDR] [--readers N]".to_owned(),
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = ServiceConfig::default();
    if let Some(n) = args.readers {
        config.readers = n.max(1);
    }
    match &args.dir {
        Some(dir) => {
            let storage = match FileStorage::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open `{dir}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            open_and_run(storage, config, args.listen.as_deref())
        }
        None => open_and_run(MemStorage::new(), config, args.listen.as_deref()),
    }
}

fn open_and_run<S: Storage + Send + Sync + 'static>(
    storage: S,
    config: ServiceConfig,
    listen: Option<&str>,
) -> ExitCode {
    let (db, report) = match DurableEngine::open(storage) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.wal_records_applied > 0 || report.truncated.is_some() {
        eprintln!(
            "recovered: {} WAL record(s) replayed{}",
            report.wal_records_applied,
            if report.truncated.is_some() {
                ", torn tail truncated"
            } else {
                ""
            }
        );
    }
    let service = Service::start(db, config);
    match listen {
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot listen on `{addr}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("listening on {addr}");
            let mut sessions = Vec::new();
            // Shutdown-aware accept loop: a client's shutdown request
            // interrupts it within one poll interval even if no further
            // connection ever arrives (see `uprov_service::net`).
            let accepted = net::accept_loop(
                &listener,
                || service.is_accepting(),
                |stream| {
                    let client = service.client();
                    // An error here is a peer that went away mid-session:
                    // routine, and nobody is left to tell.
                    sessions.push(std::thread::spawn(move || {
                        let _ = net::serve_session(&stream, &stream, &client);
                    }));
                },
            );
            if let Err(e) = accepted {
                eprintln!("accept loop failed: {e}");
            }
            for session in sessions {
                let _ = session.join();
            }
        }
        None => {
            let served = net::serve_session(
                std::io::stdin().lock(),
                std::io::stdout().lock(),
                &service.client(),
            );
            if let Err(e) = served {
                eprintln!("stdin session failed: {e}");
            }
        }
    }
    service.shutdown();
    ExitCode::SUCCESS
}
