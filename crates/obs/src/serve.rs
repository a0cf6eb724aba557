//! A minimal `/metrics` wire: a thread-per-connection `std::net`
//! listener answering `GET /metrics` (Prometheus text exposition over
//! a live [`peek`](crate::peek) snapshot) and `GET /health`.
//!
//! This is deliberately not a web framework — it speaks just enough
//! HTTP/1.1 for `curl`, Prometheus scrapers, and the CI smoke: one
//! request per connection, `Connection: close`, `Content-Length`
//! always set. The accept loop runs on one background thread and hands
//! each connection to a short-lived handler thread; scrapes read the
//! registry non-destructively, so serving metrics never steals records
//! from the end-of-run drain.
//!
//! Shutdown is cooperative: [`MetricsServer::shutdown`] (also run on
//! drop) raises a flag and pokes the listener with a loopback connect
//! so the blocking `accept` wakes and the thread joins — no process
//! global, no signal handling.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::expo::prometheus_text;
use crate::registry;

/// How long a handler waits on a slow client before dropping the
/// connection (read and write both).
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request head a handler reads; a longer one is answered
/// `431` instead of being parsed.
const MAX_HEAD_BYTES: usize = 8192;

/// A running metrics listener; see the module docs. Dropping the
/// server shuts it down and joins the accept thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 picks a free
    /// port) and starts serving `GET /metrics` and `GET /health`.
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("ron-obs-serve".to_string())
            .spawn(move || accept_loop(&listener, &stop_flag))?;
        Ok(MetricsServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the blocked accept with a loopback
    /// connect, and joins the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        // ordering: SeqCst -- shutdown flag on a cold path; the
        // strongest ordering keeps the self-connect wakeup below
        // trivially correct and costs nothing here.
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop re-checks the flag once per connection; this
        // throwaway connect is that connection.
        drop(TcpStream::connect(self.addr));
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a [`MetricsServer`] on `RON_METRICS_ADDR` when the variable
/// is set; `None` (and no listener) otherwise. A bad address panics —
/// an explicitly requested wire that silently fails to bind would be
/// worse.
#[must_use]
pub fn serve_from_env() -> Option<MetricsServer> {
    let addr = std::env::var("RON_METRICS_ADDR").ok()?;
    Some(MetricsServer::bind(&addr).unwrap_or_else(|e| panic!("RON_METRICS_ADDR={addr}: {e}")))
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshake);
            // only the stop flag ends the loop.
            // ordering: SeqCst -- pairs with the store in stop(); one
            // load per accepted connection, not a hot path.
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        // ordering: SeqCst -- pairs with the store in stop().
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Handler threads are detached: each serves one request with
        // bounded IO timeouts and exits.
        let _ = std::thread::Builder::new()
            .name("ron-obs-conn".to_string())
            .spawn(move || handle(stream));
    }
}

fn handle(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(head) = read_request_head(&mut stream) else {
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    // A scrape config's `params` arrive as a query string; the path
    // alone picks the answer.
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    let (status, content_type, body): (&str, &str, String) = if !head.ends_with("\r\n\r\n") {
        (
            "431 Request Header Fields Too Large",
            "text/plain",
            "request head too large\n".to_string(),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                prometheus_text(&registry::peek()),
            ),
            "/health" => ("200 OK", "text/plain", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

/// Reads the request head through the blank line ending the headers
/// (leaving them unread would turn the close into an RST), giving up at
/// [`MAX_HEAD_BYTES`]: a returned head that does not end in the blank
/// line was cut there. `None` on a client that disconnects or stalls
/// first.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") && buf.len() < MAX_HEAD_BYTES {
        match stream.read(&mut byte) {
            Ok(1) => buf.push(byte[0]),
            _ => return None,
        }
    }
    Some(String::from_utf8_lossy(&buf).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Sends `request` on a fresh connection and returns everything the
    /// server answers before closing.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        // The server may answer and close before an oversized request is
        // fully written, and its close over the unread rest resets the
        // connection after the answer: neither is this helper's failure.
        let _ = conn.write_all(request);
        let mut reply = Vec::new();
        let _ = conn.read_to_end(&mut reply);
        String::from_utf8_lossy(&reply).into_owned()
    }

    #[test]
    fn bad_requests_get_an_error_status() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let oversized = format!(
            "GET /health HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
            "x".repeat(9 * 1024)
        );
        let cases: [(&[u8], &str); 4] = [
            (b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n", "405"),
            (b"\x16\x03\x01 not http at all\r\n\r\n", "405"),
            (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", "404"),
            (oversized.as_bytes(), "431"),
        ];
        for (request, status) in cases {
            let reply = exchange(server.addr(), request);
            assert!(
                reply.starts_with(&format!("HTTP/1.1 {status} ")),
                "expected {status} for {:?}, got {reply:?}",
                String::from_utf8_lossy(&request[..request.len().min(40)])
            );
        }
    }

    #[test]
    fn silent_client_delays_neither_other_requests_nor_shutdown() {
        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let began = Instant::now();
        // Connects and never sends a byte; held open across the test.
        let silent = TcpStream::connect(server.addr()).unwrap();
        let health = exchange(server.addr(), b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        server.shutdown();
        assert!(
            began.elapsed() < IO_TIMEOUT,
            "health + shutdown took {:?} beside a silent client",
            began.elapsed()
        );
        drop(silent);
    }
}
