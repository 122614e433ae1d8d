//! LZSS + Huffman lossless byte compressor (the zstd stand-in).
//!
//! SZ3 pipes its Huffman-coded residuals through zstd; runs of identical
//! quantization codes survive entropy coding as repeated byte patterns, so a
//! dictionary pass still pays off. We implement a deflate-flavoured scheme:
//!
//! * **lazy LZSS over a hash-chain matcher** (window 64 KiB, matches 4–258
//!   bytes): candidates come from per-hash chains of prior positions
//!   (`MAX_CHAIN` deep, with `NICE_LEN`/`GOOD_LEN` early exits in the
//!   zlib tradition), matches extend eight bytes per compare via `u64`
//!   XOR + trailing-zeros, and the parse is *lazy with one-step deferral* —
//!   a strictly longer match starting one byte later demotes the current
//!   match to a literal. Positions skipped by a match insert into the
//!   chains on a bounded budget, and stretches that produce no matches are
//!   probed increasingly sparsely (LZ4-style acceleration), so
//!   incompressible data degrades to near-memcpy cost;
//! * tokens split into three streams — a flag bitmap, literal bytes, and
//!   match `(length, distance)` records. The bitmap holds one bit per
//!   token (1 = match), LSB-first within each byte and zero-padded to a
//!   whole byte, and is stored raw; the other streams are each
//!   Huffman-coded independently,
//! * incompressible inputs fall back to stored mode, so the worst-case
//!   expansion is exactly the 1-byte mode header ([`compress_with`]'s
//!   `input.len() + 1` contract). An entropy lower bound on the token
//!   streams skips the Huffman stage entirely when even an ideal coder
//!   could not beat stored mode.
//!
//! Steady-state encode is allocation-free through [`LzScratch`]
//! (chains, token buffers, and stream staging all reused across blocks).

use crate::error::{CfcError, Reader};
use crate::huffman::HuffmanTable;

const MIN_MATCH: usize = 4;
/// Longest match; `decode_tokens` holds a claimed size to `MAX_MATCH` bytes
/// per token.
pub(crate) const MAX_MATCH: usize = 258;
const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 15;

/// Hash-chain candidates examined per position before giving up.
const MAX_CHAIN: usize = 48;
/// A match this long is good enough: stop the chain walk immediately and
/// skip the lazy probe.
const NICE_LEN: usize = 128;
/// With a match this long already in hand, the lazy probe searches a
/// quarter of the usual chain depth.
const GOOD_LEN: usize = 32;
/// After `2^ACCEL_LOG` consecutive match misses, each further miss skips
/// one more position outright (LZ4-style acceleration on incompressible
/// stretches).
const ACCEL_LOG: usize = 5;
/// Acceleration cap: never skip more than this many positions per probe.
const MAX_SKIP: usize = 32;
/// Budget of skipped-in-match positions inserted into the chains (half at
/// the match head, half right before its end).
const INSERT_LIMIT: usize = 32;
/// Chain positions are `u32` (sentinel `u32::MAX`); longer inputs fall
/// back to stored mode rather than index out of range.
const MAX_LZ_INPUT: usize = (u32::MAX as usize) - 1;

/// Container mode byte.
const MODE_STORED: u8 = 0;
const MODE_LZ: u8 = 1;

/// Reusable state for the compress path: hash-chain arrays, the token
/// list, and the per-stream staging buffers. A worker owns one and passes
/// it to [`compress_with`]; after the first block every buffer has
/// steady-state capacity (it is embedded in
/// [`crate::EncodeScratch`] for exactly that purpose).
#[derive(Debug, Default)]
pub struct LzScratch {
    /// Most recent position per hash bucket (`u32::MAX` = empty).
    head: Vec<u32>,
    /// Previous position with the same hash, per position.
    prev: Vec<u32>,
    /// Parsed token sequence.
    tokens: Vec<Token>,
    /// Literal byte stream (as Huffman symbols).
    literals: Vec<u32>,
    /// Match length stream (biased by `MIN_MATCH`).
    lens: Vec<u32>,
    /// Match distance low bytes.
    dist_lo: Vec<u32>,
    /// Match distance high bytes.
    dist_hi: Vec<u32>,
    /// Flag bitmap bytes.
    flag_buf: Vec<u8>,
}

impl LzScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity across all internal buffers — monotone, so a stable
    /// sum across calls proves steady state allocates nothing new.
    pub(crate) fn cap_sum(&self) -> usize {
        self.head.capacity()
            + self.prev.capacity()
            + self.tokens.capacity()
            + self.literals.capacity()
            + self.lens.capacity()
            + self.dist_lo.capacity()
            + self.dist_hi.capacity()
            + self.flag_buf.capacity()
    }
}

/// Compress arbitrary bytes. Never fails; stored-mode fallback bounds the
/// output at exactly `input.len() + 1` bytes (the 1-byte mode header) for
/// incompressible data. The hash chains, token list, and stream staging
/// live in `scratch` — the output does not depend on what it held — so
/// per-block encode loops stop allocating after the first block.
pub fn compress_with(input: &[u8], scratch: &mut LzScratch) -> Vec<u8> {
    if input.len() < 64 || input.len() > MAX_LZ_INPUT {
        return stored(input);
    }
    lz_parse(input, scratch);
    match encode_tokens_with(input.len(), scratch) {
        Some(out) if out.len() < input.len() => out,
        _ => stored(input),
    }
}

/// Fallible decompression of untrusted bytes under an output-size budget:
/// every structural violation (unknown mode, truncated section, invalid LZ
/// distance, length mismatch) returns a [`CfcError`] instead of panicking.
///
/// LZSS expands up to ~2000× (a decompression bomb), so decode paths that
/// know how large a payload can legitimately be pass that bound here; a
/// stream claiming more returns [`CfcError::Corrupt`] before any
/// proportional allocation happens.
pub fn try_decompress_bounded(input: &[u8], max_len: usize) -> Result<Vec<u8>, CfcError> {
    let mut out = Vec::new();
    try_decompress_bounded_into(input, max_len, &mut out)?;
    Ok(out)
}

/// [`try_decompress_bounded`] into a caller-owned buffer, so block loops
/// can reuse one allocation across streams. `out` is cleared first; on
/// error its contents are unspecified.
pub fn try_decompress_bounded_into(
    input: &[u8],
    max_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CfcError> {
    out.clear();
    match input.first() {
        None => Err(CfcError::Truncated {
            context: "lossless mode byte",
            needed: 1,
            available: 0,
        }),
        Some(&MODE_STORED) => {
            if input.len() - 1 > max_len {
                return Err(CfcError::Corrupt {
                    context: "lossless stream",
                    detail: format!(
                        "stored payload {} exceeds budget {max_len}",
                        input.len() - 1
                    ),
                });
            }
            out.extend_from_slice(&input[1..]);
            Ok(())
        }
        Some(&MODE_LZ) => decode_tokens(&input[1..], max_len, out),
        Some(&m) => Err(CfcError::Corrupt {
            context: "lossless stream",
            detail: format!("unknown mode byte {m}"),
        }),
    }
}

fn stored(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + 1);
    out.push(MODE_STORED);
    out.extend_from_slice(input);
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain matcher state borrowed from [`LzScratch`].
struct Matcher<'a> {
    input: &'a [u8],
    head: &'a mut [u32],
    prev: &'a mut [u32],
}

impl Matcher<'_> {
    /// Insert position `i` into its hash chain without searching (used for
    /// positions a match skips over). Caller guarantees `i + 4 <= n`.
    #[inline]
    fn insert(&mut self, i: usize) {
        let h = hash4(&self.input[i..]);
        self.prev[i] = self.head[h];
        self.head[h] = i as u32;
    }

    /// Walk the chain at `i`'s hash for the longest prior match, then
    /// insert `i`. Returns `(len, dist)`; `len < MIN_MATCH` means no
    /// usable match. Caller guarantees `i + 4 <= n`.
    #[inline]
    fn find_and_insert(&mut self, i: usize, max_chain: usize) -> (usize, usize) {
        let input = self.input;
        let n = input.len();
        let h = hash4(&input[i..]);
        let mut cand = self.head[h];
        self.prev[i] = cand;
        self.head[h] = i as u32;

        let max_len = (n - i).min(MAX_MATCH);
        // chains hold strictly decreasing positions, so once a candidate
        // falls out of the window the whole rest of the chain has too
        let min_pos = (i + 1).saturating_sub(WINDOW) as u32;
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut chain = max_chain;
        while cand != u32::MAX && cand >= min_pos && chain > 0 {
            let c = cand as usize;
            // one-byte probe at the current best length rejects most
            // candidates without paying for a full extension
            if input[c + best_len] == input[i + best_len] {
                let l = match_len(&input[c..], &input[i..], max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= max_len || l >= NICE_LEN {
                        break;
                    }
                }
            }
            cand = self.prev[c];
            chain -= 1;
        }
        (best_len, best_dist)
    }
}

/// Longest common prefix of `a` and `b`, capped at `max`. Both slices must
/// hold at least `max` bytes; compares eight at a time via `u64` XOR.
#[inline]
fn match_len(a: &[u8], b: &[u8], max: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().unwrap());
        let y = u64::from_le_bytes(b[l..l + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Lazy hash-chain LZ parse into `scratch.tokens`.
fn lz_parse(input: &[u8], scratch: &mut LzScratch) {
    let n = input.len();
    scratch.tokens.clear();
    scratch.head.clear();
    scratch.head.resize(1 << HASH_BITS, u32::MAX);
    scratch.prev.clear();
    scratch.prev.resize(n, u32::MAX);
    let mut m = Matcher {
        input,
        head: &mut scratch.head,
        prev: &mut scratch.prev,
    };
    let tokens = &mut scratch.tokens;

    let mut i = 0usize;
    let mut misses = 0usize;
    while i < n {
        if i + MIN_MATCH > n {
            tokens.push(Token::Literal(input[i]));
            i += 1;
            continue;
        }
        let (mut len, mut dist) = m.find_and_insert(i, MAX_CHAIN);
        if len < MIN_MATCH {
            tokens.push(Token::Literal(input[i]));
            i += 1;
            // acceleration: on a stretch with no matches, probe the chains
            // increasingly sparsely and emit the skipped bytes as literals
            misses += 1;
            let skip = (misses >> ACCEL_LOG).min(MAX_SKIP).min(n - i);
            for _ in 0..skip {
                tokens.push(Token::Literal(input[i]));
                i += 1;
            }
            continue;
        }
        misses = 0;
        // lazy one-step deferral: a strictly longer match starting at the
        // next byte wins, and the current byte becomes a literal
        let mut start = i;
        let mut probed = false;
        if len < NICE_LEN && i + 1 + MIN_MATCH <= n {
            let chain = if len >= GOOD_LEN {
                MAX_CHAIN / 4
            } else {
                MAX_CHAIN
            };
            let (len2, dist2) = m.find_and_insert(i + 1, chain);
            probed = true;
            if len2 > len {
                tokens.push(Token::Literal(input[i]));
                start = i + 1;
                len = len2;
                dist = dist2;
            }
        }
        tokens.push(Token::Match {
            len: len as u16,
            dist: dist as u16,
        });
        // positions i (and i+1 when the lazy probe ran) are already in the
        // chains; insert a bounded number of the remaining skipped
        // positions — half at the head, half right before the match end so
        // the next search can chain off the tail
        let mut k = i + 1 + probed as usize;
        let insert_end = (start + len).min(n.saturating_sub(MIN_MATCH));
        if insert_end.saturating_sub(k) <= INSERT_LIMIT {
            while k < insert_end {
                m.insert(k);
                k += 1;
            }
        } else {
            let head_end = k + INSERT_LIMIT / 2;
            while k < head_end {
                m.insert(k);
                k += 1;
            }
            let mut t = insert_end - INSERT_LIMIT / 2;
            while t < insert_end {
                m.insert(t);
                t += 1;
            }
        }
        i = start + len;
    }
}

/// Split the parsed tokens into streams and entropy-code them.
///
/// Returns `None` when an entropy lower bound proves the coded form cannot
/// beat stored mode — exactly the cases where the caller would have
/// discarded the full encoding anyway, so the output decision is identical
/// to always encoding. On `Some`, the buffer includes the mode byte.
fn encode_tokens_with(raw_len: usize, s: &mut LzScratch) -> Option<Vec<u8>> {
    s.literals.clear();
    s.lens.clear();
    s.dist_lo.clear();
    s.dist_hi.clear();
    s.flag_buf.clear();
    s.flag_buf.resize(s.tokens.len().div_ceil(8), 0);
    let mut lit_hist = [0u64; 256];
    for (t, token) in s.tokens.iter().enumerate() {
        match *token {
            Token::Literal(b) => {
                s.literals.push(b as u32);
                lit_hist[b as usize] += 1;
            }
            Token::Match { len, dist } => {
                s.flag_buf[t >> 3] |= 1 << (t & 7);
                s.lens.push(len as u32 - MIN_MATCH as u32);
                s.dist_lo.push((dist & 0xFF) as u32);
                s.dist_hi.push((dist >> 8) as u32);
            }
        }
    }
    let ntokens = s.tokens.len();
    let nlit = s.literals.len();
    let nmatch = s.lens.len();

    // Lower-bound the coded size before paying for the Huffman stage:
    // headers and the flag bitmap are exact, a prefix code cannot beat the
    // Shannon entropy of the literal stream, every non-empty coded section
    // carries >= 17 bytes of count + table, and each match costs >= 1 bit
    // in each of the three match streams.
    let mut lit_bits = 0.0f64;
    if nlit > 0 {
        let total = nlit as f64;
        for &c in &lit_hist {
            if c > 0 {
                lit_bits += c as f64 * (total / c as f64).log2();
            }
        }
    }
    let mut lower = 1 + 16 + 8 + s.flag_buf.len() + 4 * 8;
    if nlit > 0 {
        lower += 17 + (lit_bits / 8.0) as usize;
    }
    if nmatch > 0 {
        lower += 3 * 17 + 3 * nmatch.div_ceil(8);
    }
    if lower >= raw_len {
        return None;
    }

    let mut out = Vec::with_capacity((raw_len / 2).max(64));
    out.push(MODE_LZ);
    out.extend_from_slice(&(raw_len as u64).to_le_bytes());
    out.extend_from_slice(&(ntokens as u64).to_le_bytes());
    write_section(&mut out, &s.flag_buf);
    write_coded(&mut out, &s.literals);
    write_coded(&mut out, &s.lens);
    write_coded(&mut out, &s.dist_lo);
    write_coded(&mut out, &s.dist_hi);
    Some(out)
}

fn write_section(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Huffman-code a symbol stream; empty streams are a zero-length section.
/// The section length prefix is patched in place after encoding, so the
/// table and bits land directly in `out` with no staging copy.
fn write_coded(out: &mut Vec<u8>, symbols: &[u32]) {
    if symbols.is_empty() {
        out.extend_from_slice(&0u64.to_le_bytes());
        return;
    }
    let len_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes()); // placeholder section length
    let start = out.len();
    out.extend_from_slice(&(symbols.len() as u64).to_le_bytes());
    let table = HuffmanTable::from_symbols(symbols);
    table.serialize_into(out);
    table
        .try_encode_append(symbols, out)
        .expect("table was built from these symbols");
    let section_len = (out.len() - start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&section_len.to_le_bytes());
}

fn read_section<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CfcError> {
    let len = usize::try_from(r.u64("lossless header")?).unwrap_or(usize::MAX);
    r.bytes(len, "lossless section")
}

fn read_coded(r: &mut Reader) -> Result<Vec<u32>, CfcError> {
    let section = read_section(r)?;
    if section.is_empty() {
        return Ok(Vec::new());
    }
    let count = Reader::new(section).u64("coded section header")? as usize;
    let (table, used) = HuffmanTable::try_deserialize(&section[8..])?;
    table.try_decode(&section[8 + used..], count)
}

fn decode_tokens(bytes: &[u8], max_len: usize, out: &mut Vec<u8>) -> Result<(), CfcError> {
    let mut r = Reader::new(bytes);
    let raw_len = r.u64("lossless header")? as usize;
    if raw_len > max_len {
        return Err(CfcError::Corrupt {
            context: "lossless stream",
            detail: format!("claimed size {raw_len} exceeds budget {max_len}"),
        });
    }
    let ntokens = r.u64("lossless header")? as usize;
    let flags = read_section(&mut r)?;
    // one flag bit per token bounds the token count by the flag section, so
    // the loop below — and the output allocation — stay proportional to the
    // actual input size no matter what the header claims
    if ntokens > flags.len().saturating_mul(8) {
        return Err(CfcError::Corrupt {
            context: "lossless stream",
            detail: format!("{ntokens} tokens exceed {} flag bits", flags.len() * 8),
        });
    }
    if raw_len > ntokens.saturating_mul(MAX_MATCH) && !(ntokens == 0 && raw_len == 0) {
        return Err(CfcError::Corrupt {
            context: "lossless stream",
            detail: format!("claimed size {raw_len} unreachable from {ntokens} tokens"),
        });
    }
    let literals = read_coded(&mut r)?;
    let lens = read_coded(&mut r)?;
    let dist_lo = read_coded(&mut r)?;
    let dist_hi = read_coded(&mut r)?;

    let corrupt = |detail: String| CfcError::Corrupt {
        context: "LZ token stream",
        detail,
    };
    // cap the upfront allocation; genuinely large outputs grow amortized,
    // while a hostile header can't demand gigabytes before decoding starts
    out.reserve(raw_len.min(1 << 24));
    let (mut li, mut mi) = (0usize, 0usize);
    for t in 0..ntokens {
        // bound checked above: ntokens flags always fit the section
        if flags[t >> 3] & (1 << (t & 7)) != 0 {
            let (&l, &lo, &hi) = match (lens.get(mi), dist_lo.get(mi), dist_hi.get(mi)) {
                (Some(l), Some(lo), Some(hi)) => (l, lo, hi),
                _ => return Err(corrupt(format!("match stream exhausted at token {mi}"))),
            };
            let len = l as usize + MIN_MATCH;
            let dist = (lo | (hi << 8)) as usize;
            mi += 1;
            if dist < 1 || dist > out.len() {
                return Err(corrupt(format!("distance {dist} at offset {}", out.len())));
            }
            if out.len() + len > raw_len {
                return Err(corrupt("output overruns claimed size".into()));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let &b = literals
                .get(li)
                .ok_or_else(|| corrupt(format!("literal stream exhausted at token {li}")))?;
            if out.len() == raw_len {
                return Err(corrupt("output overruns claimed size".into()));
            }
            out.push(b as u8);
            li += 1;
        }
    }
    if out.len() != raw_len {
        return Err(corrupt(format!(
            "decompressed {} bytes, header claims {raw_len}",
            out.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(data: &[u8]) -> Vec<u8> {
        compress_with(data, &mut LzScratch::new())
    }

    fn decompress(c: &[u8]) -> Vec<u8> {
        try_decompress_bounded(c, usize::MAX).expect("valid lossless stream")
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c);
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello world");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(10_000).cloned().collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "ratio too low: {} / {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c), data);
    }

    #[test]
    fn long_zero_runs() {
        let mut data = vec![0u8; 50_000];
        data[100] = 7;
        data[40_000] = 9;
        let c = compress(&data);
        assert!(c.len() < 2_000);
        assert_eq!(decompress(&c), data);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        // pseudo-random bytes
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        // the documented worst case is exactly the 1-byte stored-mode header
        assert!(
            c.len() <= data.len() + 1,
            "stored fallback must cost exactly one header byte, got {} for {}",
            c.len(),
            data.len()
        );
        assert_eq!(c[0], MODE_STORED);
        assert_eq!(decompress(&c), data);
    }

    #[test]
    fn worst_case_expansion_is_one_byte_across_sizes() {
        // incompressible inputs of many sizes (including < 64 and the
        // entropy-early-exit range) all hit the `input.len() + 1` contract
        let mut x = 0x9E3779B9u32;
        let mut rand_byte = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 24) as u8
        };
        for n in [0usize, 1, 63, 64, 65, 200, 1024, 4096] {
            let data: Vec<u8> = (0..n).map(|_| rand_byte()).collect();
            let c = compress(&data);
            assert!(
                c.len() <= data.len() + 1,
                "n={n}: compressed {} > {} + 1",
                c.len(),
                data.len()
            );
            assert_eq!(decompress(&c), data, "n={n}");
        }
    }

    #[test]
    fn compress_with_matches_compress_and_reuses_scratch() {
        let mut scratch = LzScratch::new();
        let inputs: Vec<Vec<u8>> = vec![
            b"abcdefgh".iter().cycle().take(10_000).cloned().collect(),
            vec![0u8; 30_000],
            (0..=255u8).cycle().take(4096).collect(),
            {
                let mut x = 0xDEADBEEFu32;
                (0..5_000)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        (x >> 24) as u8
                    })
                    .collect()
            },
        ];
        // warm-up pass sizes the buffers; second pass must be identical
        // output with zero capacity growth
        for data in &inputs {
            assert_eq!(compress_with(data, &mut scratch), compress(data));
        }
        let cap = scratch.cap_sum();
        for data in &inputs {
            assert_eq!(compress_with(data, &mut scratch), compress(data));
        }
        assert_eq!(scratch.cap_sum(), cap, "steady-state scratch grew");
    }

    #[test]
    fn overlapping_matches() {
        // "aaaa..." forces overlapping copies (dist 1, long len)
        let data = vec![b'a'; 1000];
        let c = compress(&data);
        // a handful of tokens + fixed per-section headers
        assert!(c.len() < 220, "len {}", c.len());
        assert_eq!(decompress(&c), data);
    }

    #[test]
    fn structured_binary() {
        // alternating record-like structure, typical of Huffman output headers
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(&(i % 17).to_le_bytes());
        }
        roundtrip(&data);
        let c = compress(&data);
        assert!(c.len() < data.len() / 2);
    }

    #[test]
    fn match_at_window_edge() {
        // repeat beyond the 64K window: must still round-trip (just without
        // cross-window matches)
        let pattern: Vec<u8> = (0..=255u8).collect();
        let data: Vec<u8> = pattern.iter().cycle().take(200_000).cloned().collect();
        roundtrip(&data);
    }

    #[test]
    fn bounded_decompress_rejects_bombs() {
        // a highly repetitive buffer decompresses fine unbounded but must be
        // rejected when it exceeds the caller's budget
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert_eq!(try_decompress_bounded(&c, 100_000).unwrap(), data);
        assert!(matches!(
            try_decompress_bounded(&c, 50_000),
            Err(CfcError::Corrupt { .. })
        ));
        // stored mode respects the budget too
        let tiny = compress(b"abc");
        assert!(try_decompress_bounded(&tiny, 2).is_err());
        assert_eq!(try_decompress_bounded(&tiny, 3).unwrap(), b"abc");
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }
}
