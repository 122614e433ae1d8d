//! Request dispatch: URL → `ArchiveStore` call → response body.
//!
//! All handlers are pure functions of the store and the parsed
//! [`Request`](crate::http::Request): they assemble the response body into
//! a caller-provided (pooled) buffer and return a
//! [`ResponseHead`](crate::http::ResponseHead). Decode failures map to
//! statuses by *kind*, not by string matching:
//!
//! * unknown field / block index past the end → `404`
//! * structurally valid but unsatisfiable request (region out of bounds,
//!   rank mismatch against the field) → `422`
//!   ([`CfcError::InvalidInput`] root cause)
//! * malformed query syntax → `400` ([`RegionQueryError`])
//! * anything else (corrupt payload, I/O failure) → `500`
//!
//! Binary responses use a tiny self-describing frame (content type
//! `application/x-cfc-frame`):
//!
//! ```text
//! [u32 LE header_len][header_len bytes of JSON][raw little-endian f32 samples]
//! ```
//!
//! The JSON header names the field, the sample layout (`shape`), and the
//! element count, so a client can parse the payload without re-asking the
//! manifest.

use cfc_core::archive::{
    json_escape, ArchiveSource, ArchiveStore, DecodePolicy, FieldInfo, ReadRequest,
};
use cfc_sz::CfcError;
use cfc_tensor::Field;

use crate::http::{Request, ResponseHead};
use crate::query::{epoch_from_query, region_request_from_query};
use crate::server::EndpointCounters;

/// Append `data` to `out` as packed little-endian `f32` bytes.
pub(crate) fn extend_f32_le(out: &mut Vec<u8>, data: &[f32]) {
    let base = out.len();
    out.resize(base + data.len() * 4, 0);
    for (dst, v) in out[base..].chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Build a JSON error body and its head.
fn error_response(body: &mut Vec<u8>, status: u16, message: &str) -> ResponseHead {
    body.extend_from_slice(
        format!(
            "{{\"status\": {status}, \"error\": \"{}\"}}\n",
            json_escape(message)
        )
        .as_bytes(),
    );
    ResponseHead::json(status)
}

/// Status for a store decode failure whose field is known to exist:
/// input-validation root causes are the client's fault (`422`), the rest
/// is the archive's (`500`).
fn status_for(err: &CfcError) -> u16 {
    match err.root_cause() {
        CfcError::InvalidInput(_) => 422,
        _ => 500,
    }
}

/// Frame a decoded field: `[u32 LE header_len][JSON header][f32 LE payload]`.
fn frame_response(body: &mut Vec<u8>, header_json: &str, samples: &Field) -> ResponseHead {
    let header = header_json.as_bytes();
    body.extend_from_slice(&(header.len() as u32).to_le_bytes());
    body.extend_from_slice(header);
    extend_f32_le(body, samples.as_slice());
    ResponseHead::frame()
}

fn dims_json(dims: &[usize]) -> String {
    let parts: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

fn names_json(names: &[String]) -> String {
    let parts: Vec<String> = names
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    format!("[{}]", parts.join(", "))
}

fn field_json(info: &FieldInfo) -> String {
    format!(
        "{{\"name\": \"{}\", \"role\": \"{}\", \"anchors\": {}, \"eb_abs\": {}, \
         \"shape\": {}, \"n_blocks\": {}, \"chunk_slabs\": {}, \"compressed_bytes\": {}, \
         \"decoded_bytes\": {}}}",
        json_escape(&info.name),
        info.role.label(),
        names_json(&info.anchors),
        info.eb_abs,
        dims_json(&info.dims),
        info.n_blocks,
        info.chunk_slabs,
        info.compressed_bytes,
        info.decoded_bytes(),
    )
}

fn handle_fields<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    body: &mut Vec<u8>,
) -> ResponseHead {
    let reader = store.reader();
    let fields: Vec<String> = reader.field_infos().iter().map(field_json).collect();
    body.extend_from_slice(
        format!(
            "{{\"archive\": \"{}\", \"version\": {}, \"epochs\": {}, \
             \"keyframe_interval\": {}, \"fields\": [\n  {}\n]}}\n",
            json_escape(reader.name()),
            reader.version(),
            reader.n_epochs(),
            reader.keyframe_interval(),
            fields.join(",\n  "),
        )
        .as_bytes(),
    );
    ResponseHead::json(200)
}

fn handle_region<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    name: &str,
    query: &str,
    body: &mut Vec<u8>,
) -> ResponseHead {
    let Some(info) = store.reader().field_info(name) else {
        return error_response(body, 404, &format!("archive has no field {name}"));
    };
    let (region, policy, epoch) = match region_request_from_query(query) {
        Ok(r) => r,
        Err(e) => return error_response(body, 400, &e.to_string()),
    };
    let n_epochs = store.reader().n_epochs();
    if epoch >= n_epochs {
        let msg = format!("archive has {n_epochs} epochs, asked for {epoch}");
        return error_response(body, 404, &msg);
    }
    let req = ReadRequest::new(name)
        .at(epoch)
        .region(&region)
        .policy(policy);
    match store.read(&req) {
        Ok(salvaged) => {
            let field = salvaged.data;
            let start: Vec<usize> = (0..region.ndim()).map(|k| region.start(k)).collect();
            // under salvage the header always carries a "damage" key
            // (empty string when healthy) so clients get a stable schema
            let damage_json = match policy {
                DecodePolicy::Strict => String::new(),
                DecodePolicy::Salvage { .. } => format!(
                    ", \"damage\": \"{}\"",
                    json_escape(&salvaged.damage.summary())
                ),
            };
            let header = format!(
                "{{\"field\": \"{}\", \"epoch\": {epoch}, \"start\": {}, \"shape\": {}, \
                 \"elements\": {}, \"dtype\": \"f32\", \"order\": \"little\"{damage_json}}}",
                json_escape(&info.name),
                dims_json(&start),
                dims_json(field.shape().dims()),
                field.len(),
            );
            let head = frame_response(body, &header, &field);
            if salvaged.damage.is_empty() {
                head
            } else {
                head.with_damage(salvaged.damage.summary())
            }
        }
        Err(e) => error_response(body, status_for(&e), &e.to_string()),
    }
}

fn handle_block<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    name: &str,
    idx_raw: &str,
    query: &str,
    body: &mut Vec<u8>,
) -> ResponseHead {
    let Some(info) = store.reader().field_info(name) else {
        return error_response(body, 404, &format!("archive has no field {name}"));
    };
    let Ok(idx) = idx_raw.parse::<usize>() else {
        return error_response(
            body,
            400,
            &format!("block index {idx_raw:?} is not an integer"),
        );
    };
    let epoch = match epoch_from_query(query) {
        Ok(e) => e,
        Err(e) => return error_response(body, 400, &e.to_string()),
    };
    let n_epochs = store.reader().n_epochs();
    if epoch >= n_epochs {
        let msg = format!("archive has {n_epochs} epochs, asked for {epoch}");
        return error_response(body, 404, &msg);
    }
    if idx >= info.n_blocks {
        return error_response(
            body,
            404,
            &format!("field {name} has {} blocks, asked for {idx}", info.n_blocks),
        );
    }
    match store.decode_block_at(name, idx, epoch) {
        Ok(field) => {
            let header = format!(
                "{{\"field\": \"{}\", \"epoch\": {epoch}, \"block\": {idx}, \"shape\": {}, \
                 \"elements\": {}, \"dtype\": \"f32\", \"order\": \"little\"}}",
                json_escape(&info.name),
                dims_json(field.shape().dims()),
                field.len(),
            );
            frame_response(body, &header, &field)
        }
        Err(e) => error_response(body, status_for(&e), &e.to_string()),
    }
}

fn handle_stats<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    counters: &EndpointCounters,
    uptime_secs: f64,
    body: &mut Vec<u8>,
) -> ResponseHead {
    let s = store.snapshot();
    let c = counters.snapshot();
    body.extend_from_slice(
        format!(
            "{{\"uptime_secs\": {uptime_secs:.3}, \"connections\": {}, \
             \"rejected_saturated\": {}, \"requests\": {{\"fields\": {}, \"region\": {}, \
             \"block\": {}, \"stats\": {}, \"healthz\": {}, \"errors\": {}, \"panics\": {}}}, \
             \"store\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"insertions\": {}, \
             \"evictions\": {}, \"cached_blocks\": {}, \"cached_bytes\": {}, \
             \"capacity_bytes\": {}, \"hit_rate\": {:.6}, \"retries\": {}, \
             \"salvaged_blocks\": {}, \"tier2_hits\": {}, \"tier2_insertions\": {}, \
             \"tier2_evictions\": {}, \"tier2_blocks\": {}, \"tier2_bytes\": {}, \
             \"tier2_capacity_bytes\": {}, \"demotions\": {}, \"promotions\": {}, \
             \"prefetch_issued\": {}, \"prefetched_blocks\": {}, \"prefetch_hits\": {}}}}}\n",
            c.connections,
            c.rejected_saturated,
            c.fields,
            c.region,
            c.block,
            c.stats,
            c.healthz,
            c.errors,
            c.panics,
            s.hits,
            s.misses,
            s.coalesced,
            s.insertions,
            s.evictions,
            s.cached_blocks,
            s.cached_bytes,
            s.capacity_bytes,
            s.hit_rate(),
            s.retries,
            s.salvaged_blocks,
            s.tier2_hits,
            s.tier2_insertions,
            s.tier2_evictions,
            s.tier2_blocks,
            s.tier2_bytes,
            s.tier2_capacity_bytes,
            s.demotions,
            s.promotions,
            s.prefetch_issued,
            s.prefetched_blocks,
            s.prefetch_hits,
        )
        .as_bytes(),
    );
    ResponseHead::json(200)
}

/// Dispatch one parsed request against the store, assembling the body
/// into `body` (cleared by the caller) and bumping the per-endpoint
/// counters.
pub(crate) fn respond<R: ArchiveSource + 'static>(
    store: &ArchiveStore<R>,
    counters: &EndpointCounters,
    uptime_secs: f64,
    req: &Request,
    body: &mut Vec<u8>,
) -> ResponseHead {
    if req.method != "GET" {
        counters.bump_error();
        return error_response(
            body,
            405,
            &format!(
                "method {} not allowed; this server only speaks GET",
                req.method
            ),
        );
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let head = match segments.as_slice() {
        ["healthz"] => {
            counters.bump_healthz();
            body.extend_from_slice(b"{\"status\": \"ok\"}\n");
            ResponseHead::json(200)
        }
        ["fields"] => {
            counters.bump_fields();
            handle_fields(store, body)
        }
        ["stats"] => {
            counters.bump_stats();
            handle_stats(store, counters, uptime_secs, body)
        }
        ["field", name, "region"] => {
            counters.bump_region();
            handle_region(store, name, &req.query, body)
        }
        ["field", name, "block", idx] => {
            counters.bump_block();
            handle_block(store, name, idx, &req.query, body)
        }
        _ => error_response(body, 404, &format!("no route for {}", req.path)),
    };
    if head.status >= 400 {
        counters.bump_error();
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_le_packing_roundtrips() {
        let vals = [1.0f32, -2.5, f32::MIN_POSITIVE, 0.0];
        let mut buf = vec![0xAA]; // existing prefix preserved
        extend_f32_le(&mut buf, &vals);
        assert_eq!(buf.len(), 1 + 16);
        for (i, v) in vals.iter().enumerate() {
            let at = 1 + i * 4;
            let got = f32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }
}
