//! `cfc-serve`: a multi-threaded HTTP/1.1 front-end over
//! [`ArchiveStore`](cfc_core::archive::ArchiveStore) — the first
//! subsystem above the store layer, turning the warm in-process read path
//! into a wire protocol.
//!
//! Built on nothing but `std::net`: a hand-rolled, size-limited request
//! parser ([`http`]), a typed region-query grammar ([`query`]), a bounded
//! worker pool with accept-queue backpressure and graceful shutdown
//! ([`server`]), and a matching minimal client ([`client`]) for tests and
//! benchmarks.
//!
//! ## Endpoints
//!
//! | Route | Response |
//! |---|---|
//! | `GET /fields` | JSON manifest: archive name, container version, and per-field name/role/anchors/error-bound/shape/block geometry/compressed size |
//! | `GET /field/{name}/region?start=0,0&shape=4,64` | binary frame of the decoded axis-aligned region |
//! | `GET /field/{name}/region?…&mode=salvage&fill=0` | same, but damaged blocks are filled instead of failing the request; damage is reported in the frame header and an `X-Cfc-Damage` response header |
//! | `GET /field/{name}/block/{idx}` | binary frame of one independently decodable block |
//! | `GET /stats` | JSON: uptime, per-endpoint request counters (including caught handler `panics`), connection/backpressure counters, and a consistent [`StoreStats`](cfc_core::archive::StoreStats) snapshot with hit rate, transient-read `retries`, and `salvaged_blocks` |
//! | `GET /healthz` | `{"status": "ok"}` liveness probe |
//!
//! ## Binary frame format
//!
//! Region and block responses carry `Content-Type: application/x-cfc-frame`:
//!
//! ```text
//! [u32 LE header_len][header_len bytes of JSON][raw little-endian f32 samples]
//! ```
//!
//! The JSON header describes the payload (`field`, `shape`, `elements`,
//! `dtype`, byte `order`), so one response is self-contained.
//!
//! ## Status mapping
//!
//! Typed errors map to statuses by kind: unknown fields and
//! out-of-range block indices are `404`; structurally valid but
//! unsatisfiable regions (out of bounds, wrong rank for the field) are
//! `422`; malformed request syntax (bad query grammar, bad HTTP) is
//! `400`; oversized requests are `431`/`413`; a full accept queue is
//! `503`; corrupt archives surface as `500`. Every error body is JSON:
//! `{"status": N, "error": "..."}`.
//!
//! ## Fault tolerance
//!
//! A handler panic (a bug, or hostile input finding one) is caught per
//! request: the client gets a `500`, the `panics` counter in `/stats`
//! ticks, and the worker thread survives to serve the next connection.
//! Corrupt archive payloads never take the server down either — strict
//! decodes answer `500` naming the damaged block, and `mode=salvage`
//! keeps serving the healthy remainder (see
//! [`DecodePolicy`](cfc_core::archive::DecodePolicy)).
//!
//! ## Example
//!
//! ```no_run
//! use cfc_core::archive::{ArchiveStore, StoreConfig};
//! use cfc_serve::{ArchiveServer, HttpClient, ServeConfig};
//!
//! let file = std::fs::File::open("snapshot.cfar").unwrap();
//! let store = ArchiveStore::open(file, StoreConfig::default()).unwrap();
//! let mut server =
//!     ArchiveServer::bind(store, "127.0.0.1:8017", ServeConfig::default()).unwrap();
//!
//! let mut client = HttpClient::connect(server.local_addr()).unwrap();
//! let resp = client.get("/field/RH/region?start=0,0&shape=16,512").unwrap();
//! let window = resp.payload_f32().unwrap();
//! println!("{} samples", window.len());
//! server.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod query;
mod router;
pub mod server;

pub use client::{ClientResponse, HttpClient};
pub use query::{region_request_from_query, RegionQueryError};
pub use server::{ArchiveServer, ServeConfig, ServerStats};
