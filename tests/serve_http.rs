//! End-to-end HTTP tests for `cfc-serve`: a real `ArchiveServer` on an
//! ephemeral port, hammered over real sockets.
//!
//! * region and block bytes fetched over HTTP must be **bit-identical**
//!   to direct `ArchiveStore::decode_region` / `decode_block` output,
//!   from 8 concurrent client threads on keep-alive connections — and, on
//!   a temporal series, to the reader's read at every `epoch=`;
//! * the error surface is typed: `404` for unknown fields and
//!   out-of-range blocks, `422` for unsatisfiable regions, `400` for
//!   malformed queries, `405` for non-GET methods;
//! * `/fields` and `/stats` expose the manifest and consistent counters;
//! * shutdown is clean: every server thread joins, the port stops
//!   accepting, and a server dropped mid-traffic does not hang.

mod common;

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveStore, FaultInjectingReader, FaultPlan, ReadRequest,
    StoreConfig,
};
use cross_field_compression::core::TrainConfig;
use cross_field_compression::sz::CfcError;
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

use cfc_serve::{ArchiveServer, HttpClient, ServeConfig};

const ROWS: usize = 96;
const COLS: usize = 64;
const CHUNK_ROWS: usize = 16;

/// Coupled three-field snapshot (T, P anchors; RH a cross-field target)
/// so the serving path exercises anchor-block decodes too.
fn snapshot() -> Dataset {
    let shape = Shape::d2(ROWS, COLS);
    let t = Field::from_fn(shape, |i| {
        ((i[0] as f32) * 0.13).sin() * 11.0 + ((i[1] as f32) * 0.05).cos() * 7.0 + 284.0
    });
    let p = Field::from_fn(shape, |i| {
        1011.0 - (i[0] as f32) * 0.4 + ((i[1] as f32) * 0.06).sin() * 3.0
    });
    let rh = t.zip_map(&p, |tv, pv| {
        0.5 * (tv - 284.0) + 0.05 * (pv - 1011.0) + 50.0
    });
    let mut ds = Dataset::new("SERVE-TEST", shape);
    ds.push("T", t);
    ds.push("P", p);
    ds.push("RH", rh);
    ds
}

/// Encode once per process (the write side trains a CFNN — the expensive
/// part); every test serves its own store over the shared bytes.
fn archive_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let bytes = ArchiveBuilder::relative(1e-3)
                .train_config(TrainConfig::fast())
                .cross_field("RH", &["T", "P"])
                .always_cross_field()
                .chunk_elements(CHUNK_ROWS * COLS)
                .build()
                .write(&snapshot())
                .expect("write test archive");
            common::assert_has_target(&bytes);
            bytes
        })
        .clone()
}

fn store() -> ArchiveStore<Cursor<Vec<u8>>> {
    ArchiveStore::open(Cursor::new(archive_bytes()), StoreConfig::default()).expect("parse")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::with_threads(4)
    }
}

#[test]
fn concurrent_clients_get_byte_identical_regions() {
    let reference = Arc::new(store());
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for ti in 0..8usize {
            let reference = Arc::clone(&reference);
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for it in 0..12usize {
                    let name = ["T", "P", "RH"][(ti + it) % 3];
                    let r0 = (ti * 7 + it * 11) % (ROWS - 20);
                    let c0 = (ti * 5 + it * 3) % (COLS - 16);
                    let (h, w) = (20, 16);
                    let resp = client
                        .get(&format!(
                            "/field/{name}/region?start={r0},{c0}&shape={h},{w}"
                        ))
                        .expect("region request");
                    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
                    let (header, payload) = resp.frame().expect("frame body");
                    assert!(
                        header.contains(&format!("\"field\": \"{name}\"")),
                        "{header}"
                    );
                    assert!(
                        header.contains(&format!("\"shape\": [{h}, {w}]")),
                        "{header}"
                    );
                    let want = reference
                        .decode_region(name, &Region::d2(r0, r0 + h, c0, c0 + w))
                        .expect("direct decode");
                    let want_bytes: Vec<u8> = want
                        .as_slice()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect();
                    assert_eq!(payload, want_bytes, "thread {ti} iter {it}: {name}");
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.region, 8 * 12);
    assert_eq!(stats.connections, 8);
    assert_eq!(stats.errors, 0);
}

#[test]
fn block_endpoint_matches_direct_decode() {
    let reference = store();
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let n_blocks = reference.reader().field_info("RH").unwrap().n_blocks;
    assert!(n_blocks > 1, "test archive must be chunked");
    for idx in 0..n_blocks {
        let resp = client
            .get(&format!("/field/RH/block/{idx}"))
            .expect("block request");
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let got = resp.payload_f32().expect("frame payload");
        let want = reference.decode_block("RH", idx).expect("direct decode");
        assert_eq!(got.len(), want.len());
        assert!(
            got.iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "block {idx} bytes differ"
        );
    }
}

/// The samples of a frame response, bit for bit against `want`.
fn assert_frame_bits(resp: &cfc_serve::ClientResponse, want: &Field, what: &str) {
    assert_eq!(resp.status, 200, "{what}: {}", resp.body_str());
    let got = resp.payload_f32().expect("frame payload");
    assert_eq!(got.len(), want.len(), "{what}: length");
    assert!(
        got.iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: bytes differ"
    );
}

/// `epoch=` over HTTP on a fresh v3 series — 5 epochs at keyframe
/// interval 2, so three keyframe groups and delta tails of one link: the
/// manifest reports the reader's epoch geometry, every epoch's region and
/// block responses are the reader's own reads, and the first epoch past
/// the end is a `404` in the reader's words.
#[test]
fn epochs_over_http_match_the_reader() {
    const EPOCHS: usize = 5;
    let shape = Shape::d2(48, 32);
    let series: Vec<Dataset> = (0..EPOCHS)
        .map(|e| {
            let drift = e as f32 * 0.3;
            let t = Field::from_fn(shape, |i| {
                ((i[0] as f32) * 0.13 + drift).sin() * 11.0 + (i[1] as f32) * 0.2 + 284.0
            });
            let rh = t.map(|v| 0.5 * (v - 284.0) + 50.0);
            let mut ds = Dataset::new("SERVE-SERIES", shape);
            ds.push("T", t);
            ds.push("RH", rh);
            ds
        })
        .collect();
    let bytes = ArchiveBuilder::relative(1e-3)
        .train_config(TrainConfig::fast())
        .cross_field("RH", &["T"])
        .always_cross_field()
        .chunk_elements(8 * 32)
        .keyframe_interval(2)
        .build()
        .write_epochs(&series)
        .expect("write series");
    common::assert_has_target(&bytes);
    let reader = ArchiveReader::new(&bytes).expect("open");
    let store =
        ArchiveStore::open(Cursor::new(bytes.clone()), StoreConfig::default()).expect("parse");
    let server = ArchiveServer::bind(store, "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let served = server.store().reader();
    assert_eq!(served.n_epochs(), EPOCHS);
    let manifest = client.get("/fields").expect("fields").body_str();
    for pair in [
        format!("\"epochs\": {}", served.n_epochs()),
        format!("\"keyframe_interval\": {}", served.keyframe_interval()),
    ] {
        assert!(manifest.contains(&pair), "missing {pair} in {manifest}");
    }

    let region = Region::d2(5, 29, 3, 27);
    for epoch in 0..EPOCHS {
        for field in ["T", "RH"] {
            let at = format!("{field}@e{epoch}");
            let want = reader
                .read(&ReadRequest::new(field).at(epoch).region(&region))
                .expect("reader region")
                .data;
            let resp = client
                .get(&format!(
                    "/field/{field}/region?start=5,3&shape=24,24&epoch={epoch}"
                ))
                .expect("region request");
            assert_frame_bits(&resp, &want, &format!("{at} region"));
            let n_blocks = reader.field_info(field).expect("field").n_blocks;
            for idx in 0..n_blocks {
                let want = reader.decode_block_at(field, idx, epoch).expect("block");
                let resp = client
                    .get(&format!("/field/{field}/block/{idx}?epoch={epoch}"))
                    .expect("block request");
                assert_frame_bits(&resp, &want, &format!("{at} block {idx}"));
            }
        }
    }

    let Err(CfcError::InvalidInput(message)) = reader.read(&ReadRequest::new("T").at(EPOCHS))
    else {
        panic!("an epoch past the end must be InvalidInput");
    };
    for target in [
        format!("/field/T/region?start=0,0&shape=8,32&epoch={EPOCHS}"),
        format!("/field/T/block/0?epoch={EPOCHS}"),
    ] {
        let resp = client.get(&target).expect("request");
        assert_eq!(resp.status, 404, "{target}: {}", resp.body_str());
        assert!(
            resp.body_str().contains(&message),
            "{target}: {}",
            resp.body_str()
        );
    }
}

#[test]
fn typed_error_statuses() {
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    // unknown field → 404 (region, block, and the field prefix itself)
    for target in [
        "/field/NOPE/region?start=0,0&shape=4,4",
        "/field/NOPE/block/0",
    ] {
        let resp = client.get(target).expect("request");
        assert_eq!(resp.status, 404, "{target}: {}", resp.body_str());
        assert!(resp.body_str().contains("no field"), "{}", resp.body_str());
    }
    // out-of-range block index → 404
    let resp = client.get("/field/RH/block/9999").expect("request");
    assert_eq!(resp.status, 404);
    // region out of bounds / wrong rank for the field → 422
    for target in [
        "/field/RH/region?start=90,0&shape=20,64",
        "/field/RH/region?start=0,0,0&shape=4,4,4",
    ] {
        let resp = client.get(target).expect("request");
        assert_eq!(resp.status, 422, "{target}: {}", resp.body_str());
    }
    // malformed query grammar → 400
    for target in [
        "/field/RH/region?start=a,b&shape=4,4",
        "/field/RH/region?start=0,0",
        "/field/RH/region?start=0,0&shape=4,0",
        "/field/RH/block/notanumber",
    ] {
        let resp = client.get(target).expect("request");
        assert_eq!(resp.status, 400, "{target}: {}", resp.body_str());
    }
    // unknown route → 404, wrong method → 405
    assert_eq!(client.get("/no/such/route").expect("request").status, 404);
    {
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(b"POST /fields HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        raw.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"), "{text}");
    }
    let stats = server.stats();
    assert!(stats.errors >= 10, "{stats:?}");
}

#[test]
fn fields_stats_and_healthz_endpoints() {
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let resp = client.get("/healthz").expect("healthz");
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("ok"));

    let manifest = client.get("/fields").expect("fields").body_str();
    assert!(
        manifest.contains("\"archive\": \"SERVE-TEST\""),
        "{manifest}"
    );
    for (name, role) in [("T", "anchor"), ("P", "anchor"), ("RH", "cross-field")] {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"role\": \"{role}\"")),
            "{manifest}"
        );
    }
    assert!(
        manifest.contains(&format!("\"shape\": [{ROWS}, {COLS}]")),
        "{manifest}"
    );
    assert!(
        manifest.contains("\"anchors\": [\"T\", \"P\"]"),
        "{manifest}"
    );

    // warm a region, then check the stats surface
    client
        .get("/field/RH/region?start=0,0&shape=16,64")
        .expect("warm");
    client
        .get("/field/RH/region?start=0,0&shape=16,64")
        .expect("hit");
    let stats = client.get("/stats").expect("stats").body_str();
    for key in [
        "\"uptime_secs\"",
        "\"connections\"",
        "\"rejected_saturated\"",
        "\"region\": 2",
        "\"hits\"",
        "\"hit_rate\"",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
}

#[test]
fn stats_schema_is_pinned() {
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let stats = client.get("/stats").expect("stats").body_str();
    for key in [
        "uptime_secs",
        "connections",
        "rejected_saturated",
        "fields",
        "region",
        "block",
        "stats",
        "healthz",
        "errors",
        "panics",
        "hits",
        "misses",
        "coalesced",
        "insertions",
        "evictions",
        "cached_blocks",
        "cached_bytes",
        "capacity_bytes",
        "hit_rate",
        "retries",
        "salvaged_blocks",
        "tier2_hits",
        "tier2_insertions",
        "tier2_evictions",
        "tier2_blocks",
        "tier2_bytes",
        "tier2_capacity_bytes",
        "demotions",
        "promotions",
        "prefetch_issued",
        "prefetched_blocks",
        "prefetch_hits",
    ] {
        assert!(
            stats.contains(&format!("\"{key}\"")),
            "missing key {key} in {stats}"
        );
    }
}

/// One corrupt block: strict region requests answer a typed `500` naming
/// the field, salvage-mode requests answer `200` with the healthy blocks
/// byte-identical, the damaged block filled, and the damage advertised in
/// both the frame header and the `X-Cfc-Damage` response header — and the
/// server keeps serving afterwards.
#[test]
fn salvage_mode_serves_damaged_archives() {
    let mut bytes = archive_bytes();
    let reader = ArchiveReader::new(&bytes).expect("open");
    let rh = reader
        .entries()
        .iter()
        .position(|e| e.name == "RH")
        .expect("RH entry");
    let (off, len) = reader.entries()[rh].block_span(0).expect("span");
    bytes[off as usize + len / 2] ^= 0x40;

    let reference = store(); // the clean archive, for expected bytes
    let damaged =
        ArchiveStore::open(Cursor::new(bytes), StoreConfig::default()).expect("parse damaged");
    let server = ArchiveServer::bind(damaged, "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let resp = client
        .get("/field/RH/region?start=0,0&shape=32,64")
        .expect("strict request");
    assert_eq!(resp.status, 500, "{}", resp.body_str());
    assert!(resp.body_str().contains("RH"), "{}", resp.body_str());
    assert!(resp.damage().is_none());

    let resp = client
        .get("/field/RH/region?start=0,0&shape=32,64&mode=salvage&fill=-7")
        .expect("salvage request");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.damage(), Some("RH:0"));
    let (header, _) = resp.frame().expect("frame body");
    assert!(header.contains("\"damage\": \"RH:0\""), "{header}");
    let got = resp.payload_f32().expect("payload");
    let want = reference
        .decode_region("RH", &Region::d2(0, 32, 0, 64))
        .expect("clean decode");
    let block_len = CHUNK_ROWS * COLS;
    assert!(
        got[..block_len].iter().all(|&v| v == -7.0),
        "damaged block must be pure fill"
    );
    assert!(
        got[block_len..]
            .iter()
            .zip(&want.as_slice()[block_len..])
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "healthy block must be byte-identical to the clean decode"
    );

    // a healthy salvage request advertises no damage but keeps the key
    let resp = client
        .get("/field/T/region?start=0,0&shape=16,64&mode=salvage")
        .expect("healthy salvage");
    assert_eq!(resp.status, 200);
    assert!(resp.damage().is_none());
    assert!(resp.frame().unwrap().0.contains("\"damage\": \"\""));

    assert_eq!(client.get("/healthz").expect("alive").status, 200);
}

/// A panic inside the decode path answers that one request `500`, bumps
/// the `panics` counter, closes the connection — and the worker thread
/// survives to serve fresh connections.
#[test]
fn worker_survives_handler_panic() {
    let bytes = archive_bytes();
    let reader = ArchiveReader::new(&bytes).expect("open");
    let ti = reader
        .entries()
        .iter()
        .position(|e| e.name == "T")
        .expect("T entry");
    let (off, len) = reader.entries()[ti].block_span(1).expect("span");
    let plan = FaultPlan::new().panic_at(off..off + len as u64);
    let faulty = FaultInjectingReader::new(Cursor::new(bytes), plan);
    let store = ArchiveStore::open(faulty, StoreConfig::default()).expect("parse");
    let server = ArchiveServer::bind(store, "127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();

    let mut client = HttpClient::connect(addr).expect("connect");
    let resp = client
        .get(&format!(
            "/field/T/region?start={CHUNK_ROWS},0&shape={CHUNK_ROWS},{COLS}"
        ))
        .expect("panicking request still gets a response");
    assert_eq!(resp.status, 500, "{}", resp.body_str());
    assert!(resp.body_str().contains("panic"), "{}", resp.body_str());
    assert_eq!(resp.header("connection"), Some("close"));

    let mut client = HttpClient::connect(addr).expect("reconnect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    let stats = client.get("/stats").expect("stats").body_str();
    assert!(stats.contains("\"panics\": 1"), "{stats}");
    assert_eq!(server.stats().panics, 1);
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    for _ in 0..32 {
        let resp = client.get("/healthz").expect("keep-alive request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    let stats = server.stats();
    assert_eq!(stats.healthz, 32);
    assert_eq!(stats.connections, 1, "one keep-alive connection expected");
}

#[test]
fn shutdown_is_clean_and_joins_all_threads() {
    let mut server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();
    // in-flight traffic right up to shutdown
    let mut client = HttpClient::connect(addr).expect("connect");
    for _ in 0..4 {
        assert_eq!(client.get("/healthz").expect("request").status, 200);
    }
    drop(client);
    server.shutdown(); // joins acceptor + workers; must not hang
    server.shutdown(); // idempotent

    // the listener is gone: a fresh connection must fail or be dropped
    // without a response
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let n = s.read_to_end(&mut buf).map(|_| buf.len()).unwrap_or(0);
            assert_eq!(
                n,
                0,
                "served after shutdown: {:?}",
                String::from_utf8_lossy(&buf)
            );
        }
    }
}

#[test]
fn server_drop_mid_traffic_does_not_hang() {
    let server = ArchiveServer::bind(store(), "127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    assert_eq!(client.get("/fields").expect("request").status, 200);
    drop(server); // graceful: drains and joins via Drop
                  // the kept-alive client connection is closed by the draining worker
    client.set_timeout(Some(Duration::from_secs(2))).unwrap();
    assert!(
        client.get("/fields").is_err(),
        "connection should be closed"
    );
}
