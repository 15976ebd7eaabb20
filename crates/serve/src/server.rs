//! The HTTP server: a blocking accept loop, one handler thread per
//! connection, all classification funneled through the [`Batcher`].

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use structmine_engine::{format_prediction_line, Engine};
use structmine_store::obs;

use crate::batcher::{BatchQueue, Batcher, BatcherConfig};
use crate::http::{self, HttpError, Request};

/// Server knobs: where to listen plus the batching configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` lets the OS pick (tests, benches).
    pub port: u16,
    /// Micro-batching knobs.
    pub batch: BatcherConfig,
    /// Socket read *and* write deadline in milliseconds
    /// (`--socket-timeout-ms`); `0` disables. A client that stalls
    /// mid-request or stops reading its response loses its connection at
    /// the deadline instead of pinning a handler thread — a slow client
    /// can never wedge the batcher or a graceful shutdown.
    pub socket_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 7878,
            batch: BatcherConfig::default(),
            socket_timeout_ms: 10_000,
        }
    }
}

/// A running server. [`Server::stop`] (also called on drop) stops
/// accepting, drains in-flight connections, then flushes the batcher.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    batcher: Option<Batcher>,
}

impl Server {
    /// Bind `127.0.0.1:port` and start serving `engine`.
    pub fn start(engine: Arc<Engine>, cfg: ServeConfig) -> std::io::Result<Server> {
        // Advertise the engine's tier so every `/healthz` body names it.
        structmine_store::health::set_precision_tier(engine.precision().name());
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let batcher = Batcher::start(Arc::clone(&engine), cfg.batch)?;
        let queue = batcher.queue();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let timeout = socket_timeout(cfg.socket_timeout_ms);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, queue, engine, flag, timeout))?;
        Ok(Server {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            batcher: Some(batcher),
        })
    }

    /// The bound address (relevant with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// flush the final micro-batch. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            // Wake the blocked `accept` with one self-connect; the loop
            // sees the flag and drops this connection. It always lands:
            // the listener is on loopback, and if its backlog is full then
            // `accept` has connections to return and is awake already.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        if let Some(b) = self.batcher.take() {
            b.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Resolve the configured deadline: `0` means no timeout at all (`None` —
/// `set_read_timeout(Some(ZERO))` is an error, not "disabled").
fn socket_timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

fn accept_loop(
    listener: TcpListener,
    queue: BatchQueue,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    timeout: Option<Duration>,
) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // `Server::stop` sets the flag before its wake-up connect, so the
        // connection that woke us is dropped here unanswered.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // Both deadlines up front: a client that stalls sending its
                // request *or* stops reading its response is disconnected,
                // so handler threads (and shutdown's join) stay bounded.
                let _ = stream.set_read_timeout(timeout);
                let _ = stream.set_write_timeout(timeout);
                let q = queue.clone();
                let e = Arc::clone(&engine);
                match std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, q, e))
                {
                    Ok(h) => {
                        handlers.push(h);
                        // Reap finished handlers so the vec stays bounded
                        // under load.
                        handlers.retain(|h| !h.is_finished());
                    }
                    Err(e) => {
                        // Thread exhaustion is load, not corruption: the
                        // connection is closed (client retries) and the
                        // server keeps accepting.
                        obs::counter_add("serve.spawn_failures", 1);
                        obs::log_warn(&format!(
                            "[serve] spawn connection thread failed ({e}); dropping connection"
                        ));
                    }
                }
            }
            Err(e) => {
                obs::log_warn(&format!("[serve] accept error: {e}"));
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // Refuse new connections from here on, then drain: every accepted
    // connection gets its response before the batcher (whose queue this
    // thread's `queue` clone keeps open) closes.
    drop(listener);
    for h in handlers {
        let _ = h.join();
    }
}

/// True when an IO error is a socket deadline expiring (the two kinds the
/// platform may report for a timed-out read/write).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(mut stream: TcpStream, queue: BatchQueue, engine: Arc<Engine>) {
    let _span = obs::span("serve/request");
    obs::counter_add("serve.requests", 1);
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(e)) => {
            // A stalled client hit the socket deadline (or hung up); there
            // is nobody left to answer, only the counter to bump.
            if is_timeout(&e) {
                obs::counter_add("serve.timeouts", 1);
            }
            return;
        }
        Err(e @ HttpError::BadRequest(_)) => {
            respond_text(&mut stream, 400, "Bad Request", &format!("{e}\n"));
            return;
        }
        Err(e @ HttpError::TooLarge(_)) => {
            respond_text(&mut stream, 413, "Payload Too Large", &format!("{e}\n"));
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // Render the process health registry (DESIGN §12): degraded
            // subsystems still answer 200 with a body naming each step;
            // an unusable process fails the probe with 503.
            let (status, body) = structmine_store::health::health_body();
            let reason = if status == 200 {
                "OK"
            } else {
                "Service Unavailable"
            };
            respond_text(&mut stream, status, reason, &body);
        }
        ("GET", "/stats") => {
            let report = obs::report("structmine-serve");
            match serde_json::to_string(&report) {
                Ok(mut json) => {
                    json.push('\n');
                    send_response(&mut stream, 200, "OK", "application/json", json.as_bytes());
                }
                Err(e) => respond_text(
                    &mut stream,
                    500,
                    "Internal Server Error",
                    &format!("serialize report: {e}\n"),
                ),
            }
        }
        ("POST", "/classify") => classify_route(&mut stream, &queue, &request),
        ("POST", "/ingest") => ingest_route(&mut stream, &engine, &request),
        _ => respond_text(
            &mut stream,
            404,
            "Not Found",
            "routes: GET /healthz, GET /stats, POST /classify, POST /ingest\n",
        ),
    }
}

/// `POST /classify`: body is one document per line; the response body is
/// one `label<TAB>confidence<TAB>doc` line per input document —
/// byte-identical to `structmine classify` on the same documents.
fn classify_route(stream: &mut TcpStream, queue: &BatchQueue, request: &Request) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            respond_text(stream, 400, "Bad Request", "body must be UTF-8 text\n");
            return;
        }
    };
    let lines: Vec<String> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.to_string())
        .collect();
    if lines.is_empty() {
        respond_text(stream, 400, "Bad Request", "no input documents\n");
        return;
    }
    let rx = match queue.submit(lines.clone()) {
        Some(rx) => rx,
        None => {
            respond_text(
                stream,
                503,
                "Service Unavailable",
                "admission queue full; retry later\n",
            );
            return;
        }
    };
    match rx.recv() {
        Ok(Ok(preds)) => {
            let mut out = String::new();
            for (pred, line) in preds.iter().zip(&lines) {
                out.push_str(&format_prediction_line(pred, line));
                out.push('\n');
            }
            send_response(stream, 200, "OK", "text/plain", out.as_bytes());
        }
        Ok(Err(msg)) => respond_text(stream, 400, "Bad Request", &format!("{msg}\n")),
        Err(_) => {
            // The reply channel disconnected with the request still
            // outstanding: the batcher thread is gone while the server is
            // accepting, so classification can never be answered again —
            // mark the process unusable and /healthz starts failing.
            structmine_store::health::set_unusable("batcher exited before replying");
            respond_text(
                stream,
                500,
                "Internal Server Error",
                "batcher exited before replying\n",
            );
        }
    }
}

/// `POST /ingest`: body is one document per line; the batch is appended to
/// the engine's corpus as its next generation and classified. The response
/// is a `generation<TAB>g` receipt line followed by one prediction line per
/// document — `tail -n +2` of the body byte-matches `POST /classify` (and
/// the CLI) on the same documents, because the serving rule is frozen at
/// generation 0.
///
/// Ingestion bypasses the micro-batcher on purpose: deltas are stateful and
/// strictly ordered (generation N+1 follows N), while the batcher exists to
/// coalesce stateless per-document work. The engine serializes concurrent
/// ingests internally.
fn ingest_route(stream: &mut TcpStream, engine: &Engine, request: &Request) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            respond_text(stream, 400, "Bad Request", "body must be UTF-8 text\n");
            return;
        }
    };
    let lines: Vec<String> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.to_string())
        .collect();
    if lines.is_empty() {
        respond_text(stream, 400, "Bad Request", "no input documents\n");
        return;
    }
    match engine.ingest(&lines) {
        Ok(ingested) => {
            obs::counter_add("serve.ingests", 1);
            let mut out = format!("generation\t{}\n", ingested.generation);
            for (pred, line) in ingested.predictions.iter().zip(&lines) {
                out.push_str(&format_prediction_line(pred, line));
                out.push('\n');
            }
            send_response(stream, 200, "OK", "text/plain", out.as_bytes());
        }
        Err(e) => respond_text(stream, 400, "Bad Request", &format!("{e}\n")),
    }
}

fn respond_text(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    send_response(stream, status, reason, "text/plain", body.as_bytes());
    let _ = stream.flush();
}

/// Write a response, counting a write-side socket deadline under the same
/// `serve.timeouts` counter as a read-side one: a client that stops
/// reading its response is the same slowloris shape as one that stops
/// sending its request.
fn send_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) {
    if let Err(e) = http::write_response(stream, status, reason, content_type, body) {
        if is_timeout(&e) {
            obs::counter_add("serve.timeouts", 1);
        }
    }
}
