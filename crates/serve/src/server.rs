//! The server runtime: listener, bounded accept queue, worker pool,
//! graceful shutdown.
//!
//! ```text
//!   TcpListener ──accept──► acceptor thread
//!        │  queue full? ──► 503 + close   (backpressure, never unbounded)
//!        ▼
//!   Mutex<VecDeque<TcpStream>> + Condvar
//!        ▼ pop
//!   worker 0 … worker N-1        (ServeConfig::threads)
//!        each: parse request → router::respond → write, keep-alive loop,
//!        body buffers checked out of a ScratchPool (allocation-light
//!        steady state); block decode inside ArchiveStore uses its own
//!        pooled ArchiveScratch
//! ```
//!
//! Shutdown ([`ArchiveServer::shutdown`], also run on drop) is graceful:
//! the acceptor stops taking connections immediately, workers finish the
//! request they are serving, drain any connections still queued (each
//! answered with `Connection: close`), and every thread is joined before
//! the call returns. An idle keep-alive connection delays shutdown by at
//! most [`ServeConfig::read_timeout`].

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cfc_core::archive::{ArchiveSource, ArchiveStore};
use cfc_sz::ScratchPool;

use crate::http::{read_request, write_response, RequestError, ResponseHead};
use crate::router;

/// Server sizing and limits.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads serving requests.
    pub threads: usize,
    /// Accepted connections allowed to wait for a worker before new ones
    /// are answered `503` (accept-queue backpressure).
    pub max_pending: usize,
    /// Read timeout per request; also bounds how long an idle keep-alive
    /// connection can hold a worker (and delay shutdown).
    pub read_timeout: Duration,
    /// Requests served over one connection before it is closed.
    pub max_requests_per_connection: usize,
}

impl Default for ServeConfig {
    /// One worker per available core, 128 pending connections, 5 s read
    /// timeout, 10 000 requests per connection.
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_pending: 128,
            read_timeout: Duration::from_secs(5),
            max_requests_per_connection: 10_000,
        }
    }
}

impl ServeConfig {
    /// Default configuration at an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ServeConfig {
            threads: threads.max(1),
            ..Self::default()
        }
    }
}

/// Monotonic per-endpoint request counters (independent atomics — each
/// counter is exact; cross-counter consistency is not needed here, unlike
/// the cache stats, which use a locked snapshot).
#[derive(Debug, Default)]
pub struct EndpointCounters {
    connections: AtomicU64,
    rejected_saturated: AtomicU64,
    fields: AtomicU64,
    region: AtomicU64,
    block: AtomicU64,
    stats: AtomicU64,
    healthz: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
}

macro_rules! bump {
    ($($fn_name:ident => $field:ident),* $(,)?) => {
        $(pub(crate) fn $fn_name(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        })*
    };
}

impl EndpointCounters {
    bump!(
        bump_connection => connections,
        bump_rejected => rejected_saturated,
        bump_fields => fields,
        bump_region => region,
        bump_block => block,
        bump_stats => stats,
        bump_healthz => healthz,
        bump_error => errors,
        bump_panic => panics,
    );

    pub(crate) fn snapshot(&self) -> ServerStats {
        ServerStats {
            uptime: Duration::ZERO,
            connections: self.connections.load(Ordering::Relaxed),
            rejected_saturated: self.rejected_saturated.load(Ordering::Relaxed),
            fields: self.fields.load(Ordering::Relaxed),
            region: self.region.load(Ordering::Relaxed),
            block: self.block.load(Ordering::Relaxed),
            stats: self.stats.load(Ordering::Relaxed),
            healthz: self.healthz.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time server counters, from [`ArchiveServer::stats`] (also
/// served as JSON by `GET /stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Time since the server was bound.
    pub uptime: Duration,
    /// Connections accepted (including later-rejected ones).
    pub connections: u64,
    /// Connections answered `503` because the accept queue was full.
    pub rejected_saturated: u64,
    /// `GET /fields` requests.
    pub fields: u64,
    /// `GET /field/{name}/region` requests.
    pub region: u64,
    /// `GET /field/{name}/block/{idx}` requests.
    pub block: u64,
    /// `GET /stats` requests.
    pub stats: u64,
    /// `GET /healthz` requests.
    pub healthz: u64,
    /// Responses with a 4xx/5xx status (any endpoint).
    pub errors: u64,
    /// Requests whose handler panicked; each was answered `500` and its
    /// worker survived to serve the next connection.
    pub panics: u64,
}

impl ServerStats {
    /// Total requests routed to an endpoint.
    pub fn requests(&self) -> u64 {
        self.fields + self.region + self.block + self.stats + self.healthz
    }
}

struct Shared<R> {
    store: ArchiveStore<R>,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
    counters: EndpointCounters,
    started: Instant,
    /// Pooled response-body buffers: workers check one out per
    /// connection, so steady-state serving reuses its assembly buffers.
    bodies: ScratchPool<Vec<u8>>,
}

/// A running archive server: a listener plus worker pool serving one
/// [`ArchiveStore`] over HTTP/1.1. See the [crate docs](crate) for the
/// wire protocol.
///
/// Bind with [`ArchiveServer::bind`]; the server runs on background
/// threads until [`ArchiveServer::shutdown`] (or drop). The actual bound
/// address — useful with port `0` — is [`ArchiveServer::local_addr`].
pub struct ArchiveServer<R> {
    shared: Arc<Shared<R>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<R: ArchiveSource + 'static> ArchiveServer<R> {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the acceptor and worker threads serving `store`.
    pub fn bind(
        store: ArchiveStore<R>,
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: EndpointCounters::default(),
            started: Instant::now(),
            bodies: ScratchPool::new(cfg.threads.max(1)),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cfc-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let mut workers = Vec::with_capacity(cfg.threads.max(1));
        for i in 0..cfg.threads.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cfc-serve-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(ArchiveServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store being served (e.g. for cache statistics).
    pub fn store(&self) -> &ArchiveStore<R> {
        &self.shared.store
    }

    /// Server counters plus uptime.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            uptime: self.shared.started.elapsed(),
            ..self.shared.counters.snapshot()
        }
    }

    /// Stop accepting, drain queued and in-flight requests, join every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop();
    }
}

impl<R> ArchiveServer<R> {
    /// What [`ArchiveServer::shutdown`] and drop both run.
    fn stop(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            self.shared.ready.notify_all();
            // unblock the acceptor's blocking accept() with a throwaway
            // connection to ourselves
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<R> Drop for ArchiveServer<R> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<R>(shared: &Shared<R>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late client) — drop it
        }
        shared.counters.bump_connection();
        let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= shared.cfg.max_pending {
            drop(q);
            shared.counters.bump_rejected();
            saturated_503(stream);
        } else {
            q.push_back(stream);
            drop(q);
            shared.ready.notify_one();
        }
    }
}

/// Best-effort `503` on a connection the queue has no room for: bounded
/// write timeout so a slow peer cannot stall the acceptor.
fn saturated_503(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_response(
        &mut stream,
        ResponseHead::json(503),
        b"{\"status\": 503, \"error\": \"server saturated, retry later\"}\n",
        false,
    );
}

fn worker_loop<R: ArchiveSource + 'static>(shared: &Shared<R>) {
    loop {
        let conn = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        match conn {
            None => return, // shutdown and the queue is drained
            Some(stream) => serve_connection(shared, stream),
        }
    }
}

fn serve_connection<R: ArchiveSource + 'static>(shared: &Shared<R>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut body = shared.bodies.get();
    for served in 1..=shared.cfg.max_requests_per_connection {
        let req = match read_request(&mut reader) {
            Ok(r) => r,
            Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
            Err(e) => {
                // protocol violation: answer once, then drop the link
                let status = match e {
                    RequestError::TooLarge(_) => 431,
                    RequestError::BodyUnsupported => 413,
                    _ => 400,
                };
                shared.counters.bump_error();
                body.clear();
                body.extend_from_slice(
                    format!(
                        "{{\"status\": {status}, \"error\": \"{}\"}}\n",
                        cfc_core::archive::json_escape(&e.to_string())
                    )
                    .as_bytes(),
                );
                let _ = write_response(&mut writer, ResponseHead::json(status), &body, false);
                return;
            }
        };
        // finish this request even mid-shutdown (graceful drain), but
        // advertise and perform the close
        let keep = req.keep_alive
            && served < shared.cfg.max_requests_per_connection
            && !shared.shutdown.load(Ordering::SeqCst);
        body.clear();
        // a panic anywhere in dispatch or decode must not take the worker
        // down: answer 500, count it, and close this connection (its
        // half-assembled body is untrustworthy) — the worker itself
        // survives to serve the next one
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router::respond(
                &shared.store,
                &shared.counters,
                shared.started.elapsed().as_secs_f64(),
                &req,
                &mut body,
            )
        }));
        let (head, keep) = match dispatched {
            Ok(head) => (head, keep),
            Err(_) => {
                shared.counters.bump_panic();
                shared.counters.bump_error();
                body.clear();
                body.extend_from_slice(
                    b"{\"status\": 500, \"error\": \"internal panic while serving request\"}\n",
                );
                (ResponseHead::json(500), false)
            }
        };
        if write_response(&mut writer, head, &body, keep).is_err() || !keep {
            return;
        }
    }
}
