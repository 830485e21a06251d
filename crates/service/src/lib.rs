//! Resident provenance service over the `UP[X]` engine.
//!
//! Everything below this crate is a library you call; this crate is the
//! *process you talk to*: one long-lived [`uprov_storage::DurableEngine`]
//! shared by many concurrent clients, multiplexed by a reader pool and a
//! single durable writer, speaking a line-oriented JSON protocol over
//! stdin or TCP (the `uprov-service` binary).
//!
//! The three layers:
//!
//! - [`proto`] — the wire format: [`proto::Request`]/[`proto::Response`]
//!   with a total, panic-free parser and fixed-point printing.
//! - [`values`] — named structures and deterministic fingerprint
//!   valuations, so concrete answers are reproducible by any engine that
//!   replays the same appended prefix (the soak oracle does exactly
//!   that).
//! - [`service`] — the resident [`service::Service`]: concurrency
//!   regime, request coalescing, backpressure, graceful shutdown. See
//!   its module docs for the full state machine.
//!
//! # Example: a resident service, in-process
//!
//! (Mirrored in the README. The binary speaks the same [`proto`] lines
//! over stdin/TCP.)
//!
//! ```
//! use uprov_service::proto::{Request, Response};
//! use uprov_service::service::{Service, ServiceConfig};
//! use uprov_service::values::StructureId;
//! use uprov_storage::{DurableEngine, MemStorage};
//!
//! let (db, _report) = DurableEngine::open(MemStorage::new()).unwrap();
//! let service = Service::start(db, ServiceConfig::default());
//! let client = service.client();
//!
//! // Appends serialize through the writer and are durable before visible.
//! let resp = client.request(Request::Append {
//!     log: "base x\nbegin t\ninsert x\nmodify y <- x\ncommit\n".into(),
//! });
//! assert_eq!(resp, Response::Appended { seq: 1, applied: 2 });
//!
//! // Concrete reads run on the reader pool; `seq` names the prefix the
//! // answer reflects.
//! let Response::Rows { seq, rows } = client.request(Request::AbortEval {
//!     txn: "t".into(),
//!     structure: StructureId::Bool,
//! }) else { panic!("expected rows") };
//! assert_eq!(seq, 1);
//! // Aborting t kills y (derived through t) but leaves base tuple x.
//! assert_eq!(rows.iter().find(|(n, _)| n == "y").unwrap().1, "false");
//! assert_eq!(rows.iter().find(|(n, _)| n == "x").unwrap().1, "true");
//!
//! // The same conversation works as protocol lines (stdin/TCP framing).
//! let line = client.serve_line("{\"op\":\"stats\"}");
//! assert!(line.starts_with("{\"ok\":\"stats\""), "got: {line}");
//!
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod net;
pub mod proto;
pub mod service;
pub mod values;

pub use proto::{ErrorKind, ProtoError, Request, Response, SymbolicRow};
pub use service::{Client, Service, ServiceConfig, ServiceStats};
pub use values::{name_mask, StructureId, UnknownStructure};
