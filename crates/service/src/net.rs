//! The transport: a shutdown-aware TCP accept loop and the one session
//! loop every connection (and the stdin/stdout conversation) runs.
//!
//! # Accepting
//!
//! A blocking `listener.incoming()` loop only notices that the service
//! stopped accepting when the *next* connection arrives — a shutdown
//! request over an idle listener would hang the process until some
//! unrelated client happened to connect. [`accept_loop`] fixes that by
//! switching the listener to nonblocking mode and polling the accept
//! gate between `accept` attempts: shutdown is noticed within one
//! [`POLL_INTERVAL`] regardless of connection traffic.
//!
//! # Sessions
//!
//! [`serve_session`] frames the byte stream into `\n`-terminated request
//! lines and answers each with exactly one `\n`-terminated reply line,
//! in order. The bytes come from outside the process, so the loop is
//! total over them: a line longer than [`MAX_LINE_BYTES`] is answered
//! with a typed `too_large` error (what lies past the cap is skipped,
//! never buffered), bytes that are not UTF-8 with a typed `parse` error,
//! and in both cases the session keeps serving from the next line.
//!
//! Each reply is rendered, newline included, into one buffer and handed
//! to the socket in **one** write, and every accepted socket has
//! `TCP_NODELAY` set. Either alone is not enough: two writes per reply
//! on a Nagle socket park the second one (the newline) until the peer
//! ACKs the first, and a request/reply peer delays that ACK by 40 ms —
//! which is what a reply used to cost. One write fixes that case;
//! `TCP_NODELAY` keeps it fixed when a reply is larger than the socket
//! buffer and the kernel splits the write itself.

// No-panic zone: the session loop frames whatever bytes a peer sends.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use uprov_storage::Storage;

use crate::proto::ErrorKind;
use crate::service::{error, Client};

/// How long the accept loop sleeps when no connection is pending. The
/// bound on shutdown latency for an idle listener (per iteration), and
/// the polling cost ceiling: ~40 wakeups per second.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest request line a session accepts, terminator excluded. It
/// bounds what one connection can make the process buffer; the largest
/// legitimate line is an `append`/`equiv` carrying a whole update log.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Read buffer per session: an ordinary request arrives in one `read`.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// Accepts connections on `listener`, handing each to `serve`, until
/// `accepting` returns `false`.
///
/// The listener is switched to nonblocking mode (the only setup that can
/// fail); from then on the loop alternates `accept` with a
/// [`POLL_INTERVAL`] sleep whenever no connection is pending, re-checking
/// `accepting` every iteration — so a shutdown interrupts the loop
/// promptly instead of waiting for the next connection. Accepted streams
/// are switched back to blocking mode and get `TCP_NODELAY` (see the
/// [module docs](self)) before `serve` sees them; transient accept errors
/// are skipped, exactly like the `incoming()` loop this replaces.
pub fn accept_loop<F, G>(listener: &TcpListener, accepting: F, mut serve: G) -> io::Result<()>
where
    F: Fn() -> bool,
    G: FnMut(TcpStream),
{
    listener.set_nonblocking(true)?;
    while accepting() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                // Sessions use plain blocking reads; undo the listener's
                // nonblocking mode, which accepted sockets inherit on
                // some platforms. A stream we cannot configure is dropped
                // like any other transient accept failure.
                let configured = stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_nodelay(true));
                if configured.is_ok() {
                    serve(stream);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient (per-connection) failure: ECONNABORTED and
            // friends. Back off briefly and keep listening.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    Ok(())
}

/// Serves one protocol conversation: request lines from `reader`, one
/// reply line each to `writer`, until the input ends, the service stops
/// accepting (the reply to a `shutdown` is still delivered), or the peer
/// goes away — the only case that returns an error.
///
/// Blank lines are skipped without a reply and a `\r` before the `\n` is
/// ignored, so CRLF clients work. An unterminated last line is served
/// like a terminated one. The line buffer and the reply buffer live as
/// long as the session and are reused for every request; see the
/// [module docs](self) for the size cap and the one-write rule.
pub fn serve_session<S: Storage>(
    reader: impl Read,
    mut writer: impl Write,
    client: &Client<S>,
) -> io::Result<()> {
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, reader);
    let mut line = Vec::new();
    let mut reply = String::new();
    while client.is_accepting() {
        let response = match read_frame(&mut reader, &mut line)? {
            Frame::Eof => break,
            Frame::TooLarge => error(
                ErrorKind::TooLarge,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ),
            Frame::Line => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => client.respond(text),
                Err(e) => error(ErrorKind::Parse, format!("request line is not utf-8: {e}")),
            },
        };
        reply.clear();
        response.write_json(&mut reply);
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
    }
    Ok(())
}

/// What [`read_frame`] found before the next `\n` (or the end of input).
enum Frame {
    /// A line, now in the buffer, terminator excluded.
    Line,
    /// More than [`MAX_LINE_BYTES`]; skipped, the buffer is empty.
    TooLarge,
    /// The input ended.
    Eof,
}

/// Reads up to and including the next `\n` and leaves the bytes before
/// it in `line`. At most [`MAX_LINE_BYTES`] and a terminator are ever
/// buffered; the rest of a longer line is skipped without being kept,
/// so a hostile peer costs the cap and nothing more.
fn read_frame(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Frame> {
    line.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    reader.by_ref().take(limit).read_until(b'\n', line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        Ok(Frame::Line)
    } else if line.len() > MAX_LINE_BYTES {
        line.clear();
        reader.skip_until(b'\n')?;
        Ok(Frame::TooLarge)
    } else if line.is_empty() {
        Ok(Frame::Eof)
    } else {
        // A peer that hung up mid-line: serve what it did send.
        Ok(Frame::Line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn accepted_streams_are_blocking_and_served() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepting = Arc::new(AtomicBool::new(true));
        let served = {
            let accepting = Arc::clone(&accepting);
            std::thread::spawn(move || {
                let mut served = 0u32;
                accept_loop(
                    &listener,
                    || accepting.load(Ordering::SeqCst),
                    |stream| {
                        served += 1;
                        drop(stream);
                    },
                )
                .expect("accept loop");
                served
            })
        };
        let conn = TcpStream::connect(addr).expect("connect");
        drop(conn);
        // Give the loop a poll cycle to pick the connection up, then stop.
        std::thread::sleep(POLL_INTERVAL * 4);
        accepting.store(false, Ordering::SeqCst);
        let served = served.join().expect("loop thread");
        assert_eq!(served, 1);
    }
}
