//! `dds serve` — a multi-tenant verification daemon.
//!
//! A long-running HTTP/1.1 service (hand-rolled over [`std::net`]; the
//! workspace builds offline, so no framework) that accepts `.dds` spec
//! text as JSON and answers with the same versioned JSON report documents
//! `dds verify --json` prints — byte-identical up to wall-clock timings,
//! because both go through [`crate::api`] and [`crate::render::json`].
//!
//! ## Wire protocol
//!
//! * `POST /verify` — body `{"spec": "<.dds text>", "label"?: "name",
//!   "options"?: {"threads": N, "chunk_size": N, "max_configs": N,
//!   "certify": bool}}`. Responds `200` with a `kind: "verify"` report
//!   document, or a `kind: "error"` document: `400` (malformed request),
//!   `422` (spec error, with the diagnostic line), `413` (oversize),
//!   `405` (known path, wrong method, with an `Allow` header), `504`
//!   (verification timeout), `503` (overloaded or draining).
//! * `GET /health` — liveness: `{"kind": "health", "status": "ok"}`.
//! * `GET /stats` — counters: requests, connections, verifications,
//!   engine runs, cache hits/misses and hit rate, in-flight and peak
//!   in-flight requests, plus the merged [`EngineStats`] of every run.
//! * `POST /shutdown` — graceful drain: stop accepting, finish queued and
//!   in-flight work, then exit.
//!
//! ## Persistent connections
//!
//! Connections are HTTP/1.1 keep-alive by default: each one loops
//! `read head → dispatch → respond` until the client sends
//! `Connection: close` (or speaks HTTP/1.0 without `keep-alive`), goes
//! idle past [`ServeOptions::idle_timeout_ms`], or exhausts the
//! per-connection request cap ([`ServeOptions::max_conn_requests`], a
//! fairness valve — the pool is thread-per-*active*-connection, so one
//! immortal socket must not pin a worker forever). Pipelining works:
//! the reader consumes exactly `Content-Length` body bytes per request,
//! so the next head parses cleanly out of the residual buffer and
//! responses come back in request order. Framing errors (a malformed
//! `Content-Length`, an oversized head, a mid-body disconnect) answer a
//! structured `400` where a response is still possible and always close
//! that connection — resynchronization is never guessed at. Such a close
//! lingers: the write side shuts down first and the unread rest of the
//! request is drained within a small time and byte budget, so the kernel
//! does not answer the client's pending bytes with a reset that could
//! destroy the error response.
//!
//! ## Architecture
//!
//! One non-blocking accept loop feeds a bounded queue consumed by a fixed
//! pool of worker threads (connections beyond the backlog are answered
//! `503` immediately — the daemon degrades by shedding load, not by
//! queueing unboundedly). Each verification runs under a per-request
//! timeout; a timed-out run is abandoned to finish in the background (the
//! engine's `max_configs` budget bounds it) and its result still fills
//! the cache. Workers are panic-isolated: a panicking request answers
//! `500` and the worker lives on.
//!
//! ## The content-hash result cache
//!
//! Results are cached by [`crate::api::fingerprint`] — a content hash of
//! the *parsed* spec and the outcome-relevant options, so equal specs
//! hit regardless of label, whitespace or comment differences, and
//! `threads`/`chunk_size` never split the cache (the engine is
//! bit-deterministic across worker counts). Each entry is a
//! [`OnceLock`]: concurrent requests for the same fingerprint elect
//! exactly one engine run and everyone else blocks on (or replays) its
//! bytes — the single-flight property `crates/cli/tests/serve.rs` pins.
//!
//! With [`ServeOptions::cache_file`] the filled entries survive
//! restarts: the `(fingerprint → response bytes)` map is serialized on
//! drain and reloaded on start (the AST-keyed fingerprint is already
//! stable across processes), behind a version/schema header — a stale or
//! corrupt file is discarded wholesale, never partially trusted.

use crate::api::{RunError, VerifyRequest};
use crate::json::{self, Value};
use crate::render;
use crate::runner::RunOptions;
use dds_core::EngineStats;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (`dds serve` flags lower into this).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads — the bound on concurrent connections being served.
    pub workers: usize,
    /// Per-request verification timeout in milliseconds.
    pub timeout_ms: u64,
    /// Maximum request body size in bytes.
    pub max_request_bytes: usize,
    /// Result-cache capacity in entries (FIFO eviction).
    pub cache_capacity: usize,
    /// Close a keep-alive connection after this long with no new request
    /// head (milliseconds).
    pub idle_timeout_ms: u64,
    /// Close a keep-alive connection after serving this many requests —
    /// the fairness valve that keeps one immortal socket from pinning a
    /// worker forever.
    pub max_conn_requests: usize,
    /// Persist the result cache here on drain and reload it on start
    /// (`None` = in-memory only). A file with a different format/schema
    /// version is discarded, not trusted.
    pub cache_file: Option<String>,
    /// Default engine tuning; `options` in a request overrides per field.
    pub run: RunOptions,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 8,
            timeout_ms: 30_000,
            max_request_bytes: 1 << 20,
            cache_capacity: 4096,
            idle_timeout_ms: 5_000,
            max_conn_requests: 1_000,
            cache_file: None,
            run: RunOptions::default(),
        }
    }
}

/// Deterministic service counters (`GET /stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// HTTP requests handled (any endpoint, any status — including shed
    /// `503`s and framing-error `400`s, so `rejected` can never exceed
    /// this).
    pub requests: u64,
    /// TCP connections accepted and handled (shed connections included).
    /// Keep-alive reuse shows up as `requests ≫ connections`.
    pub connections: u64,
    /// `/verify` requests whose body parsed and spec lowered.
    pub verifications: u64,
    /// Verifications that actually ran the engine (cache misses).
    pub engine_runs: u64,
    /// Verifications answered from the cache (filled entry or a wait on an
    /// in-flight identical request).
    pub cache_hits: u64,
    /// Requests rejected with a spec diagnostic (`422`).
    pub spec_errors: u64,
    /// Verifications abandoned at the timeout (`504`).
    pub timeouts: u64,
    /// Requests shed with `400`/`404`/`405`/`413`/`500`/`503`.
    pub rejected: u64,
    /// Merged [`EngineStats`] over every engine run.
    pub engine: EngineStats,
}

impl ServerStats {
    /// Cache hits over all cache probes (`0.0` before any verification).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.engine_runs;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

type CachedBody = Arc<String>;

struct Cache {
    map: HashMap<u128, Arc<OnceLock<CachedBody>>>,
    order: VecDeque<u128>,
    capacity: usize,
}

impl Cache {
    fn entry(&mut self, key: u128) -> Arc<OnceLock<CachedBody>> {
        if let Some(cell) = self.map.get(&key) {
            return Arc::clone(cell);
        }
        while self.map.len() >= self.capacity.max(1) {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        let cell = Arc::new(OnceLock::new());
        self.map.insert(key, Arc::clone(&cell));
        self.order.push_back(key);
        cell
    }
}

/// The persisted-cache header: format name, format version, and the JSON
/// schema version of the cached response bodies. Any mismatch discards
/// the whole file — replaying bytes under a schema the reader does not
/// write would silently serve stale shapes.
fn cache_file_header() -> String {
    format!("dds-serve-cache 1 schema={}\n", render::SCHEMA_VERSION)
}

/// Serializes the filled cache entries (insertion order preserved) as
/// `header`, then per entry `"<fingerprint hex> <byte len>\n<bytes>\n`.
/// Written to `<path>.tmp` and renamed, so a crash mid-write leaves the
/// previous file intact.
fn save_cache(path: &str, cache: &Cache) -> io::Result<usize> {
    let mut out: Vec<u8> = cache_file_header().into_bytes();
    let mut saved = 0usize;
    for key in &cache.order {
        let Some(body) = cache.map.get(key).and_then(|cell| cell.get()) else {
            continue;
        };
        out.extend_from_slice(format!("{key:032x} {}\n", body.len()).as_bytes());
        out.extend_from_slice(body.as_bytes());
        out.push(b'\n');
        saved += 1;
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)?;
    Ok(saved)
}

/// Loads a persisted cache file into `cache` (up to its capacity).
/// All-or-nothing: a missing file, a wrong header, or any parse error
/// returns `None` without touching the cache — a stale file is
/// discarded, not trusted.
fn load_cache(path: &str, cache: &mut Cache) -> Option<usize> {
    let bytes = std::fs::read(path).ok()?;
    let header = cache_file_header();
    let rest = bytes.strip_prefix(header.as_bytes())?;
    let mut rest = rest;
    let mut loaded: Vec<(u128, String)> = Vec::new();
    while !rest.is_empty() {
        let line_end = rest.iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&rest[..line_end]).ok()?;
        let (fp_hex, len) = line.split_once(' ')?;
        let fp = u128::from_str_radix(fp_hex, 16).ok()?;
        let len: usize = len.parse().ok()?;
        rest = &rest[line_end + 1..];
        if rest.len() < len + 1 || rest[len] != b'\n' {
            return None;
        }
        let body = std::str::from_utf8(&rest[..len]).ok()?.to_owned();
        rest = &rest[len + 1..];
        loaded.push((fp, body));
    }
    let n = loaded.len();
    for (fp, body) in loaded {
        if cache.map.len() >= cache.capacity.max(1) {
            break;
        }
        if cache.map.contains_key(&fp) {
            continue;
        }
        let cell = Arc::new(OnceLock::new());
        let _ = cell.set(Arc::new(body));
        cache.map.insert(fp, cell);
        cache.order.push_back(fp);
    }
    Some(n)
}

struct Shared {
    opts: ServeOptions,
    stats: Mutex<ServerStats>,
    cache: Mutex<Cache>,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
    queued: AtomicUsize,
    draining: AtomicBool,
    // Background (timed-out but still running) verifications; drained on
    // shutdown so their cache fills complete before the process exits.
    // The Condvar is signalled by BackgroundGuard on every decrement, so
    // `Server::wait` blocks instead of burning CPU in a sleep-poll.
    background: Mutex<u64>,
    background_done: Condvar,
}

/// A running daemon: bound address plus the handles needed to drain it.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

// Shared contains no TcpStream; Debug is required by workspace lints.
impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("draining", &self.draining.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and spawns the accept loop and worker pool.
    /// With [`ServeOptions::cache_file`] set, a valid persisted cache is
    /// reloaded before the first request is accepted.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = opts.workers.max(1);
        let mut cache = Cache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: opts.cache_capacity,
        };
        if let Some(path) = &opts.cache_file {
            let _ = load_cache(path, &mut cache);
        }
        let shared = Arc::new(Shared {
            cache: Mutex::new(cache),
            opts,
            stats: Mutex::new(ServerStats::default()),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            background: Mutex::new(0),
            background_done: Condvar::new(),
        });

        // Bounded backlog: beyond it the accept loop sheds load with 503.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(workers * 4 + 16);
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("dds-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("dds-serve-accept".to_owned())
            .spawn(move || accept_loop(listener, tx, &accept_shared))?;

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().unwrap()
    }

    /// The number of filled result-cache entries (persisted-cache loads
    /// included).
    pub fn cache_entries(&self) -> usize {
        let cache = self.shared.cache.lock().unwrap();
        cache
            .map
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// The high-water mark of concurrent in-flight verifications — the
    /// load harness's proof that the worker pool overlaps work.
    pub fn peak_in_flight(&self) -> usize {
        self.shared.peak_in_flight.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain (same effect as `POST /shutdown`): the
    /// accept loop stops, queued and in-flight work finishes.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until the daemon has drained and every thread has exited,
    /// then persists the result cache if a cache file is configured.
    /// Returns the final counters.
    pub fn wait(mut self) -> ServerStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Wait for abandoned (timed-out) verifications so their engine
        // threads do not outlive the process's interest in them — and so
        // their cache fills make it into the persisted cache below.
        let mut background = self.shared.background.lock().unwrap();
        while *background > 0 {
            background = self.shared.background_done.wait(background).unwrap();
        }
        drop(background);
        if let Some(path) = &self.shared.opts.cache_file {
            let _ = save_cache(path, &self.shared.cache.lock().unwrap());
        }
        self.stats()
    }

    /// Convenience: `begin_shutdown` + `wait`.
    pub fn shutdown(self) -> ServerStats {
        self.begin_shutdown();
        self.wait()
    }
}

fn accept_loop(listener: TcpListener, tx: mpsc::SyncSender<TcpStream>, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.queued.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream))
                    | Err(TrySendError::Disconnected(mut stream)) => {
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        // The shed 503 is still a connection that served
                        // one request: count all three, so `rejected`
                        // can never exceed `requests`.
                        let mut stats = shared.stats.lock().unwrap();
                        stats.connections += 1;
                        stats.requests += 1;
                        stats.rejected += 1;
                        drop(stats);
                        let body = render::error_json(
                            "overloaded",
                            "worker queue is full; retry later",
                            None,
                        );
                        let _ =
                            write_response(&mut stream, 503, "Service Unavailable", &body, false);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping the sender lets workers drain the queue and exit.
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        // Hold the lock only to receive; processing happens outside it.
        let stream = match rx.lock().unwrap().recv() {
            Ok(s) => s,
            Err(_) => return, // accept loop gone and queue drained
        };
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        let mut stream = stream;
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(&mut stream, shared)));
        if outcome.is_err() {
            let mut stats = shared.stats.lock().unwrap();
            stats.requests += 1;
            stats.rejected += 1;
            drop(stats);
            let body = render::error_json("internal-error", "request handler panicked", None);
            let _ = write_response(&mut stream, 500, "Internal Server Error", &body, false);
        }
    }
}

/// Read-poll granularity: connection reads time out at this interval so
/// the loop can notice draining and account idle time without dedicating
/// an OS timer per socket.
const POLL_MS: u64 = 100;
/// Budget for a *started* head or body that stops making progress
/// (distinct from the idle timeout, which only applies between requests).
const STALL_BUDGET_MS: u64 = 30_000;
/// Request heads larger than this are rejected outright.
const MAX_HEAD: usize = 16 * 1024;
/// Time and byte budgets for draining a rejected request's unread input
/// before closing its connection (see [`reject_and_close`]).
const LINGER_MS: u64 = 1_000;
const LINGER_BYTES: usize = 256 * 1024;

/// A parsed request head: method, path, declared body length, and
/// whether the client asked to keep the connection open.
struct RequestHead {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// One non-blocking-ish read step against the connection's poll timeout.
enum ReadStep {
    /// Bytes were appended to the buffer.
    Data,
    /// The peer closed its write side.
    Eof,
    /// The poll interval elapsed with nothing to read.
    Tick,
}

fn read_step(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<ReadStep> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Ok(ReadStep::Eof),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(ReadStep::Data)
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(ReadStep::Tick)
        }
        Err(e) => Err(e),
    }
}

/// What reading the next request head produced.
enum HeadOutcome {
    /// A complete head; its bytes (and the body's, as they arrive) have
    /// been drained from the residual buffer.
    Head(RequestHead),
    /// The peer closed (or the daemon is draining) at a clean request
    /// boundary — not an error.
    Closed,
    /// No new request arrived within the idle timeout.
    Idle,
}

/// Reads one request head out of `buf` + the stream. `buf` carries the
/// residual bytes of pipelined requests between calls; on success the
/// head's bytes are consumed and `buf` starts at the body.
fn read_head(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Shared,
) -> io::Result<HeadOutcome> {
    let mut waited_ms = 0u64;
    loop {
        if let Some(split) = find_crlf2(buf) {
            let head = parse_head(&buf[..split])?;
            buf.drain(..split + 4);
            return Ok(HeadOutcome::Head(head));
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if buf.is_empty() && shared.draining.load(Ordering::SeqCst) {
            return Ok(HeadOutcome::Closed);
        }
        match read_step(stream, buf)? {
            ReadStep::Data => waited_ms = 0,
            ReadStep::Eof => {
                return if buf.is_empty() {
                    Ok(HeadOutcome::Closed)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-head",
                    ))
                };
            }
            ReadStep::Tick => {
                waited_ms += POLL_MS;
                if buf.is_empty() {
                    if waited_ms >= shared.opts.idle_timeout_ms {
                        return Ok(HeadOutcome::Idle);
                    }
                } else if waited_ms >= STALL_BUDGET_MS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out reading request head",
                    ));
                }
            }
        }
    }
}

fn parse_head(head_bytes: &[u8]) -> io::Result<RequestHead> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let head =
        std::str::from_utf8(head_bytes).map_err(|_| bad("non-UTF-8 request head".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // An unparseable length means the request framing is
                // unknowable; a structured 400 (and a close) beats
                // silently verifying an empty body.
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("malformed Content-Length `{}`", value.trim())))?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(bad(
                    "Transfer-Encoding is not supported; send Content-Length".to_owned(),
                ));
            }
        }
    }
    let has_token = |token: &str| connection.split(',').any(|t| t.trim() == token);
    let keep_alive = if version.eq_ignore_ascii_case("HTTP/1.0") {
        has_token("keep-alive")
    } else {
        !has_token("close")
    };
    Ok(RequestHead {
        method,
        path,
        content_length,
        keep_alive,
    })
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_allow(stream, status, reason, None, body, keep_alive)
}

fn write_response_allow(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    allow: Option<&str>,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let allow_header = match allow {
        Some(methods) => format!("Allow: {methods}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{allow_header}Connection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Answers a request whose input was not (fully) read with an error
/// response, then closes the connection gracefully ("lingering close"):
/// shut down the write side so the client sees the response end, and read
/// and discard whatever the client is still sending until it closes or the
/// [`LINGER_MS`] / [`LINGER_BYTES`] budget runs out. Closing with unread
/// bytes in the socket would make the kernel send a reset, which can
/// destroy the response before the client reads it.
fn reject_and_close(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    if write_response(stream, status, reason, body, false).is_err()
        || stream.shutdown(Shutdown::Write).is_err()
    {
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(LINGER_MS);
    let mut sink = Vec::new();
    let mut drained = 0usize;
    while drained < LINGER_BYTES && Instant::now() < deadline {
        sink.clear();
        match read_step(stream, &mut sink) {
            Ok(ReadStep::Data) => drained += sink.len(),
            Ok(ReadStep::Tick) => {}
            Ok(ReadStep::Eof) | Err(_) => return,
        }
    }
}

/// Serves one connection: a keep-alive loop of
/// `read head → dispatch → respond`, with pipelined requests answered in
/// order out of the residual buffer.
fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets are polled at POLL_MS so idle/drain checks run
    // without a dedicated timer; writes stay blocking.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let _ = stream.set_nodelay(true);
    shared.stats.lock().unwrap().connections += 1;

    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut served = 0usize;
    loop {
        let head = match read_head(stream, &mut buf, shared) {
            Ok(HeadOutcome::Head(h)) => h,
            Ok(HeadOutcome::Closed) | Ok(HeadOutcome::Idle) => return,
            Err(e) => {
                // A framing error is still a (rejected) request, so the
                // counters keep their `rejected <= requests` invariant.
                let mut stats = shared.stats.lock().unwrap();
                stats.requests += 1;
                stats.rejected += 1;
                drop(stats);
                let body = render::error_json("bad-request", &e.to_string(), None);
                reject_and_close(stream, 400, "Bad Request", &body);
                return;
            }
        };
        served += 1;
        shared.stats.lock().unwrap().requests += 1;
        // The cap and a drain both finish the current request, answer it
        // with `Connection: close`, and stop the loop.
        let keep_alive = head.keep_alive
            && served < shared.opts.max_conn_requests
            && !shared.draining.load(Ordering::SeqCst);
        if !dispatch(stream, shared, &head, &mut buf, keep_alive) {
            return;
        }
    }
}

/// Routes one request. Returns whether the connection is still usable
/// (the response promised keep-alive and the body was fully consumed).
fn dispatch(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    head: &RequestHead,
    buf: &mut Vec<u8>,
    keep_alive: bool,
) -> bool {
    // /verify consumes its own body; every other endpoint must still
    // drain exactly content_length bytes so a pipelined next head parses
    // cleanly from the residual buffer.
    if !(head.method == "POST" && head.path == "/verify") && head.content_length > 0 {
        if head.content_length > shared.opts.max_request_bytes {
            shared.stats.lock().unwrap().rejected += 1;
            let body = render::error_json(
                "oversize",
                &format!(
                    "request body is {} bytes; the limit is {}",
                    head.content_length, shared.opts.max_request_bytes
                ),
                None,
            );
            reject_and_close(stream, 413, "Payload Too Large", &body);
            return false;
        }
        if consume_exact(stream, buf, head.content_length).is_err() {
            shared.stats.lock().unwrap().rejected += 1;
            return false;
        }
    }

    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/health") => {
            let status = if shared.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            };
            let body = format!(
                "{{\n\"schema_version\": {},\n\"kind\": \"health\",\n\"status\": \"{status}\",\n\"workers\": {},\n\"in_flight\": {}\n}}\n",
                render::SCHEMA_VERSION,
                shared.opts.workers,
                shared.in_flight.load(Ordering::SeqCst),
            );
            write_response(stream, 200, "OK", &body, keep_alive).is_ok() && keep_alive
        }
        ("GET", "/stats") => {
            let body = stats_json(shared);
            write_response(stream, 200, "OK", &body, keep_alive).is_ok() && keep_alive
        }
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            let body = format!(
                "{{\n\"schema_version\": {},\n\"kind\": \"health\",\n\"status\": \"draining\"\n}}\n",
                render::SCHEMA_VERSION
            );
            let _ = write_response(stream, 200, "OK", &body, false);
            false
        }
        ("POST", "/verify") => handle_verify(stream, shared, head, buf, keep_alive),
        // A known path with the wrong method is 405 with an Allow
        // header, not a 404 that suggests the route does not exist.
        (_, "/health") | (_, "/stats") => {
            method_not_allowed(stream, shared, head, "GET", keep_alive)
        }
        (_, "/verify") | (_, "/shutdown") => {
            method_not_allowed(stream, shared, head, "POST", keep_alive)
        }
        (_, path) => {
            shared.stats.lock().unwrap().rejected += 1;
            let body = render::error_json("not-found", &format!("no such endpoint: {path}"), None);
            write_response(stream, 404, "Not Found", &body, keep_alive).is_ok() && keep_alive
        }
    }
}

fn method_not_allowed(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    head: &RequestHead,
    allow: &str,
    keep_alive: bool,
) -> bool {
    shared.stats.lock().unwrap().rejected += 1;
    let body = render::error_json(
        "method-not-allowed",
        &format!(
            "{} does not allow {}; allowed: {allow}",
            head.path, head.method
        ),
        None,
    );
    write_response_allow(
        stream,
        405,
        "Method Not Allowed",
        Some(allow),
        &body,
        keep_alive,
    )
    .is_ok()
        && keep_alive
}

/// Consumes exactly `n` body bytes from the residual buffer plus the
/// stream, leaving any pipelined surplus in `buf`.
fn consume_exact(stream: &mut TcpStream, buf: &mut Vec<u8>, n: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut waited_ms = 0u64;
    while out.len() < n {
        if !buf.is_empty() {
            let take = (n - out.len()).min(buf.len());
            out.extend_from_slice(&buf[..take]);
            buf.drain(..take);
            continue;
        }
        match read_step(stream, buf)? {
            ReadStep::Data => waited_ms = 0,
            ReadStep::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            ReadStep::Tick => {
                waited_ms += POLL_MS;
                if waited_ms >= STALL_BUDGET_MS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out reading request body",
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// Reads the `/verify` body. On error: status, reason, document, and
/// whether the connection can stay open (framing intact).
fn read_body(
    stream: &mut TcpStream,
    head: &RequestHead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> Result<String, (u16, &'static str, String, bool)> {
    if head.content_length > limit {
        // Refusing to read the body means the framing is lost: close.
        return Err((
            413,
            "Payload Too Large",
            render::error_json(
                "oversize",
                &format!(
                    "request body is {} bytes; the limit is {limit}",
                    head.content_length
                ),
                None,
            ),
            false,
        ));
    }
    let body = consume_exact(stream, buf, head.content_length).map_err(|e| {
        (
            400,
            "Bad Request",
            render::error_json("bad-request", &e.to_string(), None),
            false,
        )
    })?;
    // The body was fully consumed, so the connection can keep going even
    // though this request is rejected.
    String::from_utf8(body).map_err(|_| {
        (
            400,
            "Bad Request",
            render::error_json("bad-request", "request body is not UTF-8", None),
            true,
        )
    })
}

/// Applies a request's `options` object on top of the server defaults.
fn request_options(defaults: RunOptions, options: Option<&Value>) -> RunOptions {
    let mut run = defaults;
    if let Some(o) = options {
        if let Some(n) = o.get("threads").and_then(Value::as_u64) {
            run.threads = n as usize;
        }
        if let Some(n) = o.get("chunk_size").and_then(Value::as_u64) {
            run.chunk_size = n as usize;
        }
        if let Some(n) = o.get("max_configs").and_then(Value::as_u64) {
            run.max_configs = n as usize;
        }
        if let Some(b) = o.get("certify").and_then(Value::as_bool) {
            run.concretize = b;
        }
    }
    run
}

/// Serves one `POST /verify`. Returns whether the connection is still
/// usable afterwards.
fn handle_verify(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    head: &RequestHead,
    buf: &mut Vec<u8>,
    keep_alive: bool,
) -> bool {
    let body = match read_body(stream, head, buf, shared.opts.max_request_bytes) {
        Ok(b) => b,
        Err((status, reason, doc, usable)) => {
            shared.stats.lock().unwrap().rejected += 1;
            if !usable {
                reject_and_close(stream, status, reason, &doc);
                return false;
            }
            return write_response(stream, status, reason, &doc, keep_alive).is_ok() && keep_alive;
        }
    };
    let parsed = match json::parse(&body) {
        Ok(v) => v,
        Err(e) => {
            shared.stats.lock().unwrap().rejected += 1;
            let doc = render::error_json("bad-request", &e.to_string(), None);
            return write_response(stream, 400, "Bad Request", &doc, keep_alive).is_ok()
                && keep_alive;
        }
    };
    let Some(spec) = parsed.get("spec").and_then(Value::as_str) else {
        shared.stats.lock().unwrap().rejected += 1;
        let doc = render::error_json("bad-request", "missing string field `spec`", None);
        return write_response(stream, 400, "Bad Request", &doc, keep_alive).is_ok() && keep_alive;
    };
    let label = parsed
        .get("label")
        .and_then(Value::as_str)
        .unwrap_or("<request>")
        .to_owned();
    let run = request_options(shared.opts.run, parsed.get("options"));
    let request = VerifyRequest::new(spec).label(label).options(run);

    // Parse + lower up front: spec errors answer immediately, and the
    // fingerprint comes from the parsed AST.
    let loaded = match request.load() {
        Ok(l) => l,
        Err(RunError::Spec { error, .. }) => {
            let mut stats = shared.stats.lock().unwrap();
            stats.verifications += 1;
            stats.spec_errors += 1;
            drop(stats);
            let doc = render::error_json("spec-error", &error.msg, error.line);
            return write_response(stream, 422, "Unprocessable Entity", &doc, keep_alive).is_ok()
                && keep_alive;
        }
        Err(RunError::Io { message, .. }) => {
            shared.stats.lock().unwrap().rejected += 1;
            let doc = render::error_json("internal-error", &message, None);
            return write_response(stream, 500, "Internal Server Error", &doc, keep_alive).is_ok()
                && keep_alive;
        }
    };
    shared.stats.lock().unwrap().verifications += 1;

    let in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    shared.peak_in_flight.fetch_max(in_flight, Ordering::SeqCst);
    let result = verify_cached(shared, request, loaded);
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);

    match result {
        Ok(bytes) => write_response(stream, 200, "OK", &bytes, keep_alive).is_ok() && keep_alive,
        Err(timeout_ms) => {
            shared.stats.lock().unwrap().timeouts += 1;
            let doc = render::error_json(
                "timeout",
                &format!("verification exceeded {timeout_ms} ms and was abandoned"),
                None,
            );
            write_response(stream, 504, "Gateway Timeout", &doc, keep_alive).is_ok() && keep_alive
        }
    }
}

/// The single-flight cached verification. Returns the response body, or
/// `Err(timeout_ms)` when the run outlived the per-request budget.
fn verify_cached(
    shared: &Arc<Shared>,
    request: VerifyRequest,
    loaded: crate::api::Loaded,
) -> Result<CachedBody, u64> {
    let key = loaded.fingerprint;
    let cell = shared.cache.lock().unwrap().entry(key);

    // Fast path: a finished identical run replays instantly.
    if let Some(bytes) = cell.get() {
        shared.stats.lock().unwrap().cache_hits += 1;
        return Ok(Arc::clone(bytes));
    }

    // Cold (or follow an in-flight identical run) under a timeout. The
    // runner thread is abandoned on timeout — it still fills the cache.
    // The guard keeps the `background` count honest even if the engine
    // panics mid-run (otherwise `Server::wait` would block forever), and
    // its Condvar signal is what wakes the drain.
    struct BackgroundGuard(Arc<Shared>);
    impl Drop for BackgroundGuard {
        fn drop(&mut self) {
            let mut n = self.0.background.lock().unwrap();
            *n -= 1;
            self.0.background_done.notify_all();
        }
    }
    let (tx, rx) = mpsc::channel::<(CachedBody, bool)>();
    let runner_shared = Arc::clone(shared);
    *shared.background.lock().unwrap() += 1;
    let guard = BackgroundGuard(Arc::clone(shared));
    let spawned = std::thread::Builder::new()
        .name("dds-serve-verify".to_owned())
        .spawn(move || {
            let _guard = guard;
            let mut ran = false;
            let bytes = cell.get_or_init(|| {
                ran = true;
                let verified = request.run_loaded(&loaded);
                let mut stats = runner_shared.stats.lock().unwrap();
                stats.engine_runs += 1;
                for p in &verified.report.properties {
                    if let Some(s) = &p.stats {
                        stats.engine.merge(s);
                    }
                }
                Arc::new(render::json(&[verified.report]))
            });
            let bytes = Arc::clone(bytes);
            let _ = tx.send((bytes, ran));
        });
    if spawned.is_err() {
        return Err(0);
    }

    match rx.recv_timeout(Duration::from_millis(shared.opts.timeout_ms)) {
        Ok((bytes, ran)) => {
            if !ran {
                shared.stats.lock().unwrap().cache_hits += 1;
            }
            Ok(bytes)
        }
        Err(RecvTimeoutError::Timeout) => Err(shared.opts.timeout_ms),
        Err(RecvTimeoutError::Disconnected) => Err(shared.opts.timeout_ms),
    }
}

fn stats_json(shared: &Arc<Shared>) -> String {
    let s = *shared.stats.lock().unwrap();
    let cache_entries = shared.cache.lock().unwrap().map.len();
    // The worker count the engine actually uses for this daemon's default
    // options (`--threads auto` resolves to the hardware thread count).
    let engine_threads = shared.opts.run.engine_options().resolved_threads();
    let e = s.engine;
    format!(
        "{{\n\
         \"schema_version\": {},\n\
         \"kind\": \"stats\",\n\
         \"engine_threads\": {engine_threads},\n\
         \"requests\": {},\n\
         \"connections\": {},\n\
         \"verifications\": {},\n\
         \"engine_runs\": {},\n\
         \"cache_hits\": {},\n\
         \"cache_hit_rate\": {:.4},\n\
         \"cache_entries\": {cache_entries},\n\
         \"spec_errors\": {},\n\
         \"timeouts\": {},\n\
         \"rejected\": {},\n\
         \"in_flight\": {},\n\
         \"peak_in_flight\": {},\n\
         \"engine\": {{\"configs_explored\": {}, \"unique_configs\": {}, \"transitions_computed\": {}, \"transition_cache_hits\": {}, \"dedup_hits\": {}, \"dedup_probes\": {}, \"search_ns\": {}, \"certify_ns\": {}}}\n\
         }}\n",
        render::SCHEMA_VERSION,
        s.requests,
        s.connections,
        s.verifications,
        s.engine_runs,
        s.cache_hits,
        s.cache_hit_rate(),
        s.spec_errors,
        s.timeouts,
        s.rejected,
        shared.in_flight.load(Ordering::SeqCst),
        shared.peak_in_flight.load(Ordering::SeqCst),
        e.configs_explored,
        e.unique_configs,
        e.transitions_computed,
        e.transition_cache_hits,
        e.dedup_hits,
        e.dedup_probes,
        e.search_ns,
        e.certify_ns,
    )
}

/// A minimal blocking HTTP client for the daemon — shared by the load
/// harness, the serve tests and the CI smoke job so nobody re-implements
/// the wire format. The free functions open one connection per request
/// (`Connection: close`); [`client::Conn`] is the persistent keep-alive client
/// with pipelining support.
pub mod client {
    use super::*;

    /// One HTTP response: status code and body.
    #[derive(Clone, Debug)]
    pub struct Response {
        /// HTTP status code.
        pub status: u16,
        /// Response body (always a JSON document from this daemon).
        pub body: String,
        /// Whether the server announced `Connection: close` — the next
        /// request on the same [`Conn`] needs a reconnect.
        pub closed: bool,
    }

    /// Renders the `POST /verify` request body for a spec text plus
    /// optional label and options JSON object.
    pub fn verify_body(spec: &str, label: Option<&str>, options: Option<&str>) -> String {
        let mut body = format!("{{\"spec\":\"{}\"", json::escape(spec));
        if let Some(l) = label {
            body.push_str(&format!(",\"label\":\"{}\"", json::escape(l)));
        }
        if let Some(o) = options {
            body.push_str(&format!(",\"options\":{o}"));
        }
        body.push('}');
        body
    }

    /// A persistent keep-alive connection to the daemon.
    ///
    /// [`request`](Conn::request) is the sequential form;
    /// [`send`](Conn::send) + [`recv`](Conn::recv) pipeline several
    /// requests before reading the (in-order) responses. Responses are
    /// framed by their `Content-Length`, with any read-ahead surplus kept
    /// in an internal buffer for the next response.
    #[derive(Debug)]
    pub struct Conn {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl Conn {
        /// Connects to the daemon.
        pub fn connect(addr: &SocketAddr) -> io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Conn {
                stream,
                buf: Vec::new(),
            })
        }

        /// Writes one request without reading the response — the
        /// pipelining half. The `Connection` header is omitted, which in
        /// HTTP/1.1 means keep-alive (exercising the daemon's default
        /// path).
        pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
            let head = format!(
                "{method} {path} HTTP/1.1\r\nHost: dds\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body.as_bytes())?;
            self.stream.flush()
        }

        /// Reads one response (in request order under pipelining).
        pub fn recv(&mut self) -> io::Result<Response> {
            let split = loop {
                if let Some(i) = find_crlf2(&self.buf) {
                    break i;
                }
                let mut chunk = [0u8; 4096];
                let n = self.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ));
                }
                self.buf.extend_from_slice(&chunk[..n]);
            };
            let head = std::str::from_utf8(&self.buf[..split])
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing status"))?;
            let mut content_length: Option<usize> = None;
            let mut closed = false;
            for line in head.split("\r\n").skip(1) {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().ok();
                    } else if name.trim().eq_ignore_ascii_case("connection") {
                        closed = value.trim().eq_ignore_ascii_case("close");
                    }
                }
            }
            let content_length = content_length.ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "missing Content-Length")
            })?;
            self.buf.drain(..split + 4);
            while self.buf.len() < content_length {
                let mut chunk = [0u8; 4096];
                let n = self.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-body",
                    ));
                }
                self.buf.extend_from_slice(&chunk[..n]);
            }
            let body_bytes: Vec<u8> = self.buf.drain(..content_length).collect();
            let body = String::from_utf8(body_bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
            Ok(Response {
                status,
                body,
                closed,
            })
        }

        /// One sequential request-response round trip on this connection.
        pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
            self.send(method, path, body)?;
            self.recv()
        }

        /// `POST /verify` on this connection.
        pub fn verify(
            &mut self,
            spec: &str,
            label: Option<&str>,
            options: Option<&str>,
        ) -> io::Result<Response> {
            let body = verify_body(spec, label, options);
            self.request("POST", "/verify", &body)
        }
    }

    fn request(addr: &SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: dds\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        // The server may answer (413, 400) and close before consuming the
        // whole body; a write error here still has a response to read.
        if stream.write_all(body.as_bytes()).is_ok() {
            let _ = stream.flush();
        }
        let mut raw = Vec::new();
        if let Err(e) = stream.read_to_end(&mut raw) {
            if raw.is_empty() {
                return Err(e);
            }
        }
        let raw = String::from_utf8(raw)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
        let (head, response_body) = raw
            .split_once("\r\n\r\n")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing status"))?;
        Ok(Response {
            status,
            body: response_body.to_owned(),
            closed: true,
        })
    }

    /// `POST /verify` with a spec text and optional options JSON object
    /// (e.g. `Some("{\"threads\":4}")`), on a one-shot connection.
    pub fn verify(
        addr: &SocketAddr,
        spec: &str,
        label: Option<&str>,
        options: Option<&str>,
    ) -> io::Result<Response> {
        request(addr, "POST", "/verify", &verify_body(spec, label, options))
    }

    /// `GET /health`.
    pub fn health(addr: &SocketAddr) -> io::Result<Response> {
        request(addr, "GET", "/health", "")
    }

    /// `GET /stats`.
    pub fn stats(addr: &SocketAddr) -> io::Result<Response> {
        request(addr, "GET", "/stats", "")
    }

    /// `POST /shutdown`.
    pub fn shutdown(addr: &SocketAddr) -> io::Result<Response> {
        request(addr, "POST", "/shutdown", "")
    }

    /// Raw request escape hatch (malformed-input tests).
    pub fn raw(addr: &SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
        request(addr, method, path, body)
    }
}
