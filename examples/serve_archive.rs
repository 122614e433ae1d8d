//! Domain scenario: putting an archived snapshot behind HTTP — the "data
//! portal" read path where many remote clients want small windows of a
//! large archived simulation snapshot, and the server should decode each
//! hot block once, not per request.
//!
//! The write side archives a synthetic CESM-ATM-class snapshot to a file
//! with the usual `ArchiveBuilder`. The serving side opens it behind an
//! `ArchiveStore` (decoded-block LRU + single-flight) and binds a
//! `cfc_serve::ArchiveServer` on an ephemeral loopback port. The client
//! side is deliberately a **raw `TcpStream`** speaking plain HTTP/1.1 —
//! no client library — to show the wire protocol is exactly what the
//! README documents: a JSON manifest at `/fields`, and binary frames
//! (`[u32 LE header length | JSON header | little-endian f32 samples]`)
//! at `/field/{name}/region`.
//!
//! ```sh
//! cargo run --release --example serve_archive
//! ```

use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveStore, StoreConfig,
};
use cross_field_compression::datagen::{paper_catalog, GenParams};
use cross_field_compression::tensor::{Region, Shape};

use cfc_serve::{ArchiveServer, ServeConfig};

/// One blocking HTTP/1.1 GET over a fresh TCP connection; returns
/// (status, body). Just enough protocol for the demo — real clients
/// would keep the connection alive and reuse it.
fn raw_get(addr: std::net::SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header end");
    let head = std::str::from_utf8(&raw[..text_end]).expect("ascii head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, raw[text_end + 4..].to_vec())
}

fn main() {
    // ---- write side: archive a synthetic CESM-ATM snapshot to a file ----
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "CESM-ATM")
        .unwrap();
    let ds = info.generate(Shape::d2(256, 512), GenParams::default());
    let path = std::env::temp_dir().join("cesm_snapshot.cfar");
    // the paper's Table 3 CESM role: CLDTOT is a cross-field target over
    // the per-level cloud-fraction anchors — a request the writer keeps
    // only where the cross-field encoding is smaller (at this size it is
    // not, and CLDTOT is written as an independent field)
    let report = ArchiveBuilder::relative(1e-3)
        .cross_field("CLDTOT", &["CLDLOW", "CLDMED", "CLDHGH"])
        .chunk_elements(1 << 15)
        .build()
        .write_to(
            &ds,
            BufWriter::new(std::fs::File::create(&path).expect("create archive file")),
        )
        .expect("archive write");
    println!(
        "archived {} fields, {:.2} MB → {:.2} MB ({:.2}x) at {}",
        report.fields.len(),
        report.raw_bytes as f64 / 1e6,
        report.archive_bytes as f64 / 1e6,
        report.ratio(),
        path.display()
    );

    // ---- serving side: store (decoded-block cache) + HTTP server ----
    let reader =
        ArchiveReader::open(std::fs::File::open(&path).expect("open")).expect("archive parse");
    let store = ArchiveStore::new(reader, StoreConfig::with_capacity(64 << 20));
    let mut server =
        ArchiveServer::bind(store, "127.0.0.1:0", ServeConfig::default()).expect("bind server");
    let addr = server.local_addr();
    println!("serving on http://{addr}\n");

    // ---- client side: raw TCP, nothing but the documented protocol ----
    let (status, manifest) = raw_get(addr, "/fields");
    assert_eq!(status, 200);
    println!("GET /fields → {status}");
    println!("{}", String::from_utf8_lossy(&manifest));

    // a window of the cross-field target: the server decodes only the
    // covering blocks (plus their anchor blocks), caches them, and ships
    // the samples as a binary frame
    let dims = ds.shape().dims().to_vec();
    let (h, w) = (24.min(dims[0]), 32.min(dims[1]));
    let target = format!("/field/CLDTOT/region?start=0,0&shape={h},{w}");
    let (status, frame) = raw_get(addr, &target);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&frame));

    // frame layout: u32 LE header length, JSON header, raw f32 LE samples
    let hdr_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    let header = std::str::from_utf8(&frame[4..4 + hdr_len]).expect("json header");
    let payload = &frame[4 + hdr_len..];
    println!("GET {target} → {status}");
    println!("  frame header: {header}");
    let samples: Vec<f32> = payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    println!(
        "  payload: {} samples ({} bytes), first corner value {:.4}",
        samples.len(),
        payload.len(),
        samples[0]
    );

    // the bytes on the wire are exactly a direct decode of the same region
    let region = Region::d2(0, h, 0, w);
    let direct = server
        .store()
        .decode_region("CLDTOT", &region)
        .expect("direct decode");
    assert_eq!(samples.len(), direct.as_slice().len());
    assert!(
        samples
            .iter()
            .zip(direct.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "HTTP payload must be bit-identical to decode_region"
    );
    println!("✓ HTTP region payload is bit-identical to ArchiveStore::decode_region");

    // errors are typed JSON, not hangs: unknown field → 404
    let (status, body) = raw_get(addr, "/field/NOPE/region?start=0,0&shape=4,4");
    assert_eq!(status, 404);
    println!(
        "GET /field/NOPE/… → {status} {}",
        String::from_utf8_lossy(&body).trim_end()
    );

    let stats = server.stats();
    let cache = server.store().snapshot();
    println!(
        "\nserver stats: {} connections, {} region requests; cache: {} decodes, {:.1}% hit rate",
        stats.connections,
        stats.region,
        cache.misses,
        cache.hit_rate() * 100.0
    );

    // graceful shutdown: drains in-flight requests, joins every thread
    server.shutdown();
    println!("✓ server shut down cleanly");
    std::fs::remove_file(&path).ok();
}
