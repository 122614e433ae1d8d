//! Canonical Huffman coding over arbitrary `u32` symbol alphabets.
//!
//! SZ's "customized Huffman" stage: quantization codes concentrate heavily
//! around the zero-residual code, so entropy coding them is where most of
//! the compression ratio comes from. We build optimal code lengths with the
//! classic heap algorithm, limit depth to [`MAX_CODE_LEN`] (by frequency
//! flattening on the rare pathological inputs), and transmit only the
//! `(symbol, length)` table — canonical code assignment reconstructs the
//! exact codes on the decoder side.
//!
//! Encoding is word-level: symbols are counted through a dense histogram,
//! and emission merges code *pairs* (≤ 64 bits, since codes are ≤ 32 bits)
//! into a local 64-bit accumulator that flushes eight bytes at a time —
//! see [`HuffmanTable::try_encode_append`], the checked hot path every
//! internal caller uses.
//!
//! Decoding is table-driven: a [`TABLE_BITS`]-wide primary lookup maps the
//! next bits of the stream (which hold the bit-reversed code prefix,
//! LSB-first) straight to `(symbol, code_len)`, so the common short codes
//! cost one peek + one consume instead of one bounds-checked read per bit.
//! Codes longer than [`TABLE_BITS`] — vanishingly rare under the skewed
//! residual distribution — fall back to the canonical per-length walk. The
//! bit-serial decoder is kept as [`HuffmanTable::try_decode_reference`]
//! for differential testing.

use crate::bitstream::BitReader;
use crate::error::{CfcError, Reader};
use std::sync::OnceLock;

/// Maximum code length; fits the `u64` bit-I/O fast path comfortably.
pub const MAX_CODE_LEN: u32 = 32;

/// Width of the primary decode table: 2^11 entries cover every code of the
/// default residual alphabet (radius 512 ⇒ 1025 symbols) in one probe.
pub const TABLE_BITS: u32 = 11;

/// Most symbols the dense encoder LUT covers (2 MiB of entries): every
/// quantizer alphabet `0..=2·radius` up to SZ3's 2^16-bin default. The LUT
/// is sized by the largest *symbol*, not the alphabet, so without a cap one
/// stray `u32::MAX` in a sparse alphabet asks for 64 GiB.
const ENC_LUT_CAP: usize = 1 << 17;

/// A canonical Huffman code table.
///
/// The encoder LUT and decoder tables are built lazily on first use and
/// cached, so repeated `encode`/`try_decode` calls (four coded sections per
/// LZ block, one table per residual stream) pay construction once.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// Sorted unique symbols with their code lengths, by `(length, symbol)`.
    lengths: Vec<(u32, u32)>,
    /// Canonical code per symbol, aligned with `lengths`.
    codes: Vec<u64>,
    /// Cached `(symbol, code length)` sorted by symbol — the O(log n)
    /// index behind [`HuffmanTable::wide_code`], the encoder's path for
    /// symbols past the dense LUT (built lazily like the LUTs).
    by_sym: OnceLock<Vec<(u32, u32)>>,
    /// Cached dense encoder LUT: symbol → (bit-reversed code, length).
    enc: OnceLock<Vec<(u64, u32)>>,
    /// Cached table-driven decoder.
    dec: OnceLock<DecodeTable>,
}

impl HuffmanTable {
    /// Finish construction from `(length, symbol)`-sorted lengths.
    fn from_sorted(lengths: Vec<(u32, u32)>) -> Self {
        let codes = assign_canonical(&lengths);
        HuffmanTable {
            lengths,
            codes,
            by_sym: OnceLock::new(),
            enc: OnceLock::new(),
            dec: OnceLock::new(),
        }
    }

    /// Build a table from symbol frequencies (`(symbol, count)`, counts > 0).
    pub fn from_frequencies(freqs: &[(u32, u64)]) -> Self {
        assert!(
            !freqs.is_empty(),
            "cannot build a Huffman table for an empty alphabet"
        );
        let mut lengths = code_lengths(freqs);
        // canonical order: by (length, symbol)
        lengths.sort_by_key(|&(sym, len)| (len, sym));
        Self::from_sorted(lengths)
    }

    /// Count symbols in `data` and build the table.
    ///
    /// Compact alphabets (every production stream: residual codes ≤
    /// 2·radius, LZ byte streams ≤ 255) are counted through a dense
    /// histogram — one cache-resident pass instead of a tree insert per
    /// symbol; pathologically wide alphabets fall back to a map.
    pub fn from_symbols(data: &[u32]) -> Self {
        let max_sym = data.iter().copied().max().unwrap_or(0) as usize;
        // dense counting pays for itself while the histogram stays small
        // relative to the data (and caps the transient allocation)
        let freqs: Vec<(u32, u64)> = if max_sym < (1 << 20).max(data.len() * 4) {
            let mut hist = vec![0u64; max_sym + 1];
            for &s in data {
                hist[s as usize] += 1;
            }
            hist.iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(s, &c)| (s as u32, c))
                .collect()
        } else {
            let mut counts = std::collections::BTreeMap::new();
            for &s in data {
                *counts.entry(s).or_insert(0u64) += 1;
            }
            counts.into_iter().collect()
        };
        Self::from_frequencies(&freqs)
    }

    /// The cached `(symbol, code length)` index sorted by symbol.
    fn by_sym(&self) -> &[(u32, u32)] {
        self.by_sym.get_or_init(|| {
            let mut v = self.lengths.to_vec();
            v.sort_unstable_by_key(|&(sym, _)| sym);
            v
        })
    }

    /// The cached dense encoder LUT (symbol → bit-reversed code + length)
    /// over the symbols below [`ENC_LUT_CAP`]; wider ones go through
    /// [`HuffmanTable::wide_code`].
    fn enc_lut(&self) -> &[(u64, u32)] {
        self.enc.get_or_init(|| {
            let max_sym = self.lengths.iter().map(|&(s, _)| s).max().unwrap();
            let mut lut: Vec<(u64, u32)> = vec![(0, 0); (max_sym as usize + 1).min(ENC_LUT_CAP)];
            for (pos, &(sym, len)) in self.lengths.iter().enumerate() {
                if let Some(slot) = lut.get_mut(sym as usize) {
                    *slot = (reverse_bits(self.codes[pos], len), len);
                }
            }
            lut
        })
    }

    /// Bit-reversed code and length of a symbol the dense LUT does not
    /// hold: two binary searches, symbol → length → canonical position.
    #[cold]
    fn wide_code(&self, sym: u32) -> Result<(u64, u32), CfcError> {
        let by_sym = self.by_sym();
        let found = by_sym
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .and_then(|i| {
                let len = by_sym[i].1;
                let pos = self
                    .lengths
                    .binary_search_by_key(&(len, sym), |&(s, l)| (l, s));
                pos.ok()
                    .map(|pos| (reverse_bits(self.codes[pos], len), len))
            });
        found.ok_or_else(|| {
            CfcError::InvalidInput(format!("symbol {sym} has no code in this Huffman table"))
        })
    }

    /// The cached table-driven decoder.
    fn dec_table(&self) -> &DecodeTable {
        self.dec
            .get_or_init(|| DecodeTable::build(&self.lengths, &self.codes))
    }

    /// Encode `data` and return the packed bits.
    ///
    /// Canonical codes are MSB-first; the bitstream is LSB-first, so the
    /// lookup table stores bit-reversed codes — writing them LSB-first puts
    /// the MSB on the stream first, matching the decoder's peek order.
    ///
    /// A symbol with no code in this table — above the largest tabled
    /// symbol or simply never counted — returns [`CfcError::InvalidInput`]
    /// instead of panicking (or, worse, silently emitting zero bits and
    /// corrupting the stream).
    pub fn try_encode(&self, data: &[u32]) -> Result<Vec<u8>, CfcError> {
        let mut out = Vec::new();
        self.try_encode_append(data, &mut out)?;
        Ok(out)
    }

    /// [`HuffmanTable::try_encode`] appending to a caller-owned buffer, so
    /// encode loops reuse one allocation across streams (and can stage a
    /// serialized table and its bitstream contiguously).
    ///
    /// The emission loop is word-level: codes accumulate in a local 64-bit
    /// word and flush eight bytes at a time, with symbol *pairs* merged
    /// into one accumulator update when their combined width allows (codes
    /// are ≤ [`MAX_CODE_LEN`] = 32 bits, so any pair fits in 64).
    ///
    /// On error `out` may hold a partial bitstream; callers discard its
    /// contents, not the buffer.
    pub fn try_encode_append(&self, data: &[u32], out: &mut Vec<u8>) -> Result<(), CfcError> {
        let lut = self.enc_lut();
        let lut_get = |s: u32| -> Result<(u64, u32), CfcError> {
            match lut.get(s as usize) {
                Some(&(code, len)) if len > 0 => Ok((code, len)),
                _ => self.wide_code(s),
            }
        };
        let mut acc = 0u64;
        let mut nbits = 0u32;
        // bits at positions ≥ nbits of acc are zero; flush a full word as
        // soon as it fills, carrying the overflow
        macro_rules! push_bits {
            ($code:expr, $len:expr) => {{
                let (code, len): (u64, u32) = ($code, $len);
                let total = nbits + len;
                if total >= 64 {
                    let merged = acc | (code << nbits);
                    out.extend_from_slice(&merged.to_le_bytes());
                    // nbits == 0 only when len == 64 exactly (a maximal
                    // pair on an empty accumulator): nothing carries
                    acc = if nbits == 0 { 0 } else { code >> (64 - nbits) };
                    nbits = total - 64;
                } else {
                    acc |= code << nbits;
                    nbits = total;
                }
            }};
        }
        let mut pairs = data.chunks_exact(2);
        for pair in &mut pairs {
            let (c0, l0) = lut_get(pair[0])?;
            let (c1, l1) = lut_get(pair[1])?;
            push_bits!(c0 | (c1 << l0), l0 + l1);
        }
        if let [s] = *pairs.remainder() {
            let (code, len) = lut_get(s)?;
            push_bits!(code, len);
        }
        out.extend_from_slice(&acc.to_le_bytes()[..(nbits as usize).div_ceil(8)]);
        Ok(())
    }

    /// Fallible decode of `count` symbols from untrusted `bits`.
    ///
    /// Every symbol consumes at least one bit, so a `count` larger than the
    /// bitstream can hold is rejected up front (bounding the allocation by
    /// the input size); exhaustion or an invalid code mid-stream returns a
    /// [`CfcError::Corrupt`].
    pub fn try_decode(&self, bits: &[u8], count: usize) -> Result<Vec<u32>, CfcError> {
        let mut out = Vec::new();
        self.try_decode_into(bits, count, &mut out)?;
        Ok(out)
    }

    /// [`HuffmanTable::try_decode`] into a caller-owned buffer, so block
    /// loops can reuse one allocation across streams. On success `out`
    /// holds exactly `count` symbols; on error its contents are
    /// unspecified (callers discard the buffer's contents, not the buffer).
    pub fn try_decode_into(
        &self,
        bits: &[u8],
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), CfcError> {
        out.clear();
        if count > bits.len().saturating_mul(8) {
            return Err(CfcError::Truncated {
                context: "Huffman bitstream",
                needed: count.div_ceil(8),
                available: bits.len(),
            });
        }
        out.resize(count, 0);
        let dst = out.as_mut_slice();
        let tab = self.dec_table();
        let mut r = BitReader::new(bits);
        let mut i = 0usize;
        // Bulk region: one refill guarantees ≥ 57 accumulator bits — GROUP
        // probes of ≤ TABLE_BITS bits each, with no per-symbol refill or
        // exhaustion checks, and each probe emitting up to PACK_MAX symbols
        // straight from the packed entry. A fallback probe (first code
        // longer than TABLE_BITS, or corrupt bits) ends the group early so
        // the next iteration re-establishes the accumulator guarantee.
        const GROUP: usize = (crate::bitstream::MAX_BITS_PER_CALL / TABLE_BITS) as usize;
        'bulk: while i + GROUP * PACK_MAX <= count && r.can_refill_bulk() {
            r.refill_now();
            for _ in 0..GROUP {
                let entry = tab.primary[r.peek_acc(TABLE_BITS) as usize];
                let n = (entry >> 6) & 0x3;
                if n == 0 {
                    // ≥ 57 bits buffered ≥ MAX_CODE_LEN, so the slow walk
                    // cannot spuriously hit end-of-stream here
                    dst[i] = tab.slow_next(&self.lengths, &mut r)?;
                    i += 1;
                    continue 'bulk;
                }
                r.consume((entry & 0x3F) as u32);
                match n {
                    1 => dst[i] = (entry >> 8) as u32,
                    2 => {
                        dst[i] = ((entry >> 8) & 0xFF_FFFF) as u32;
                        dst[i + 1] = ((entry >> 32) & 0xFF_FFFF) as u32;
                    }
                    _ => {
                        dst[i] = ((entry >> 8) & 0xFFFF) as u32;
                        dst[i + 1] = ((entry >> 24) & 0xFFFF) as u32;
                        dst[i + 2] = ((entry >> 40) & 0xFFFF) as u32;
                    }
                }
                i += n as usize;
            }
        }
        // Tail: the last few symbols (< GROUP·PACK_MAX) or the final < 8
        // bytes of stream — decode bit-serially, which handles truncation
        // and corruption exactly like the reference decoder.
        while i < count {
            dst[i] = tab.slow_next(&self.lengths, &mut r)?;
            i += 1;
        }
        Ok(())
    }

    /// Reference bit-serial decode — one canonical-index walk per
    /// symbol, no primary table — kept for differential testing (the
    /// proptest equivalence suite pits the packed-table fast path against
    /// it) and the perf harness's before/after comparison. Semantically
    /// identical to [`HuffmanTable::try_decode`].
    pub fn try_decode_reference(&self, bits: &[u8], count: usize) -> Result<Vec<u32>, CfcError> {
        if count > bits.len().saturating_mul(8) {
            return Err(CfcError::Truncated {
                context: "Huffman bitstream",
                needed: count.div_ceil(8),
                available: bits.len(),
            });
        }
        let canon = CanonicalIndex::new(&self.lengths);
        let mut r = BitReader::new(bits);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(canon.walk(&self.lengths, &mut r)?);
        }
        Ok(out)
    }

    /// Serialize the `(symbol, length)` table compactly.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.lengths.len() * 5);
        self.serialize_into(&mut out);
        out
    }

    /// [`HuffmanTable::serialize`] appending to a caller-owned buffer, so
    /// encode loops can stage table + bitstream in one reused allocation.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(4 + self.lengths.len() * 5);
        out.extend_from_slice(&(self.lengths.len() as u32).to_le_bytes());
        for &(sym, len) in &self.lengths {
            out.extend_from_slice(&sym.to_le_bytes());
            out.push(len as u8);
        }
    }

    /// Inverse of [`HuffmanTable::serialize`] for untrusted bytes; returns
    /// the table and bytes consumed. Validates the entry count
    /// against the buffer, each code length against [`MAX_CODE_LEN`], and
    /// symbol uniqueness (duplicates would silently corrupt canonical code
    /// assignment).
    pub fn try_deserialize(bytes: &[u8]) -> Result<(Self, usize), CfcError> {
        let mut r = Reader::new(bytes);
        let n = r.u32("Huffman table header")? as usize;
        if n == 0 {
            return Err(CfcError::Corrupt {
                context: "Huffman table",
                detail: "empty alphabet".into(),
            });
        }
        // checked here rather than per entry: the error names the whole
        // table's size against the whole buffer
        let need = 4usize.saturating_add(n.saturating_mul(5));
        if bytes.len() < need {
            return Err(CfcError::Truncated {
                context: "Huffman table body",
                needed: need,
                available: bytes.len(),
            });
        }
        let mut lengths = Vec::with_capacity(n);
        for _ in 0..n {
            let sym = r.u32("Huffman table body")?;
            let len = r.u8("Huffman table body")? as u32;
            if len == 0 || len > MAX_CODE_LEN {
                return Err(CfcError::Corrupt {
                    context: "Huffman table",
                    detail: format!("code length {len} for symbol {sym}"),
                });
            }
            lengths.push((sym, len));
        }
        // duplicate detection must ignore code length: entries below are
        // sorted by (length, symbol), so equal symbols with different
        // lengths would not be adjacent there
        let mut symbols: Vec<u32> = lengths.iter().map(|&(sym, _)| sym).collect();
        symbols.sort_unstable();
        if symbols.windows(2).any(|w| w[0] == w[1]) {
            return Err(CfcError::Corrupt {
                context: "Huffman table",
                detail: "duplicate symbol".into(),
            });
        }
        lengths.sort_by_key(|&(sym, len)| (len, sym));
        Ok((Self::from_sorted(lengths), r.position()))
    }
}

/// Most symbols one packed primary entry can emit.
const PACK_MAX: usize = 3;

/// Table-driven decoder state: a packed multi-symbol primary lookup plus
/// the canonical per-length tables for the (rare) longer codes.
///
/// Primary entries are indexed by the next [`TABLE_BITS`] stream bits
/// (LSB-first, so the low bits hold the bit-reversed first code) and pack:
///
/// ```text
///   bits 0..6   total bits consumed by the packed symbols
///   bits 6..8   symbol count n (0 ⇒ fallback: long code or corrupt bits)
///   n = 1       symbol (u32)  at bits 8..40
///   n = 2       symbols (u24) at bits 8..32 and 32..56
///   n = 3       symbols (u16) at bits 8..24, 24..40, 40..56
/// ```
///
/// Under the skewed residual distribution most windows hold 2–3 complete
/// short codes, so one probe emits several symbols; packs degrade to
/// fewer symbols when the values don't fit the narrower fields.
#[derive(Debug, Clone)]
struct DecodeTable {
    primary: Vec<u64>,
    /// Canonical per-length tables for the bit-serial fallback walk.
    canon: CanonicalIndex,
}

impl DecodeTable {
    fn build(lengths: &[(u32, u32)], codes: &[u64]) -> Self {
        let canon = CanonicalIndex::new(lengths);
        // resolve the first short code of every window: each index whose
        // low `len` bits equal the bit-reversed code decodes to that
        // symbol (prefix-freeness makes the assignment unique)
        let mut single: Vec<(u32, u32)> = vec![(0, 0); 1 << TABLE_BITS];
        for (pos, &(sym, len)) in lengths.iter().enumerate() {
            if len > TABLE_BITS {
                continue;
            }
            let rev = reverse_bits(codes[pos], len) as usize;
            let step = 1usize << len;
            let mut idx = rev;
            while idx < single.len() {
                single[idx] = (sym, len);
                idx += step;
            }
        }
        // pack follow-on codes that fit entirely inside the same window
        let mut primary = vec![0u64; 1 << TABLE_BITS];
        for (idx, slot) in primary.iter_mut().enumerate() {
            let (s1, l1) = single[idx];
            if l1 == 0 {
                continue; // fallback entry
            }
            let mut syms = [s1, 0, 0];
            let mut used = [l1, 0, 0];
            let mut n = 1;
            while n < PACK_MAX {
                let consumed = used[n - 1];
                let (s, l) = single[idx >> consumed];
                if l == 0 || consumed + l > TABLE_BITS {
                    break;
                }
                syms[n] = s;
                used[n] = consumed + l;
                n += 1;
            }
            *slot = if n >= 3 && syms.iter().all(|&s| s < 1 << 16) {
                used[2] as u64
                    | (3 << 6)
                    | ((syms[0] as u64) << 8)
                    | ((syms[1] as u64) << 24)
                    | ((syms[2] as u64) << 40)
            } else if n >= 2 && syms[0] < 1 << 24 && syms[1] < 1 << 24 {
                used[1] as u64 | (2 << 6) | ((syms[0] as u64) << 8) | ((syms[1] as u64) << 32)
            } else {
                used[0] as u64 | (1 << 6) | ((syms[0] as u64) << 8)
            };
        }
        DecodeTable { primary, canon }
    }

    /// Bit-serial decode of one symbol — the fallback for codes longer
    /// than [`TABLE_BITS`], truncated tails, and corrupt prefixes.
    fn slow_next(&self, lengths: &[(u32, u32)], r: &mut BitReader) -> Result<u32, CfcError> {
        self.canon.walk(lengths, r)
    }
}

/// Canonical per-length first-code / first-index tables and the bit-serial
/// decode walk over them — the single implementation shared by the
/// table-driven decoder's fallback and the reference decoder, so the two
/// paths cannot drift apart.
#[derive(Debug, Clone)]
struct CanonicalIndex {
    /// For each length L: (first canonical code of length L, index of its
    /// symbol in the `(length, symbol)`-sorted table).
    first: Vec<(u64, usize)>,
    /// Codes per length.
    count: Vec<usize>,
    max_len: u32,
}

impl CanonicalIndex {
    fn new(lengths: &[(u32, u32)]) -> Self {
        let max_len = lengths.iter().map(|&(_, l)| l).max().unwrap();
        let mut count = vec![0usize; max_len as usize + 1];
        for &(_, l) in lengths {
            count[l as usize] += 1;
        }
        let mut first = vec![(0u64, 0usize); max_len as usize + 1];
        let mut code = 0u64;
        let mut index = 0usize;
        for l in 1..=max_len as usize {
            first[l] = (code, index);
            code = (code + count[l] as u64) << 1;
            index += count[l];
        }
        CanonicalIndex {
            first,
            count,
            max_len,
        }
    }

    /// Decode one symbol (MSB-first canonical codes, read bit-by-bit).
    fn walk(&self, lengths: &[(u32, u32)], r: &mut BitReader) -> Result<u32, CfcError> {
        let mut code = 0u64;
        for l in 1..=self.max_len as usize {
            let bit = r.try_read_bit().ok_or(CfcError::Truncated {
                context: "Huffman bitstream",
                needed: 1,
                available: 0,
            })?;
            code = (code << 1) | bit as u64;
            if self.count[l] > 0 {
                let (fc, fi) = self.first[l];
                let offset = code.wrapping_sub(fc);
                if code >= fc && (offset as usize) < self.count[l] {
                    return Ok(lengths[fi + offset as usize].0);
                }
            }
        }
        Err(CfcError::Corrupt {
            context: "Huffman bitstream",
            detail: format!("no code of length ≤ {} matches", self.max_len),
        })
    }
}

/// Optimal code lengths via the two-queue Huffman algorithm, with depth
/// limiting by frequency flattening when needed.
fn code_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u32)> {
    if freqs.len() == 1 {
        return vec![(freqs[0].0, 1)];
    }
    let mut flat = 0u32;
    loop {
        let lengths = try_code_lengths(freqs, flat);
        let max = lengths.iter().map(|&(_, l)| l).max().unwrap();
        if max <= MAX_CODE_LEN {
            return lengths;
        }
        // flatten the distribution (shift counts right) until depth fits;
        // only triggered by astronomically skewed inputs
        flat += 4;
        assert!(flat < 64, "cannot limit Huffman depth");
    }
}

fn try_code_lengths(freqs: &[(u32, u64)], flatten: u32) -> Vec<(u32, u32)> {
    #[derive(Debug)]
    struct Node {
        weight: u64,
        kind: NodeKind,
    }
    #[derive(Debug)]
    enum NodeKind {
        Leaf(usize),
        Internal(usize, usize),
    }
    let mut nodes: Vec<Node> = freqs
        .iter()
        .map(|&(_, w)| Node {
            weight: ((w >> flatten).max(1)),
            kind: NodeKind::Leaf(usize::MAX),
        })
        .collect();
    for (i, n) in nodes.iter_mut().enumerate() {
        n.kind = NodeKind::Leaf(i);
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| Reverse((n.weight, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().unwrap();
        let Reverse((wb, b)) = heap.pop().unwrap();
        let idx = nodes.len();
        nodes.push(Node {
            weight: wa + wb,
            kind: NodeKind::Internal(a, b),
        });
        heap.push(Reverse((wa + wb, idx)));
    }
    let root = heap.pop().unwrap().0 .1;
    // BFS depths
    let mut lengths = vec![0u32; freqs.len()];
    let mut stack = vec![(root, 0u32)];
    while let Some((n, depth)) = stack.pop() {
        match nodes[n].kind {
            NodeKind::Leaf(sym_idx) => lengths[sym_idx] = depth.max(1),
            NodeKind::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    freqs
        .iter()
        .zip(lengths)
        .map(|(&(s, _), l)| (s, l))
        .collect()
}

/// Reverse the low `len` bits of `code`.
#[inline]
fn reverse_bits(code: u64, len: u32) -> u64 {
    if len == 0 {
        return 0;
    }
    code.reverse_bits() >> (64 - len)
}

/// Assign canonical codes to `(symbol, length)` pairs sorted by (length, symbol).
fn assign_canonical(lengths: &[(u32, u32)]) -> Vec<u64> {
    let mut codes = Vec::with_capacity(lengths.len());
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for &(_, len) in lengths {
        if prev_len != 0 {
            code = (code + 1) << (len - prev_len);
        } else {
            code <<= len; // first code: zeros at the shortest length
        }
        codes.push(code);
        prev_len = len;
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_skewed_distribution() {
        // mimic quantization codes: heavy mass at 512
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            let sym = match i % 100 {
                0..=79 => 512,
                80..=89 => 511,
                90..=95 => 513,
                96..=98 => 500,
                _ => i % 1024,
            };
            data.push(sym);
        }
        let table = HuffmanTable::from_symbols(&data);
        let bits = table.try_encode(&data).unwrap();
        assert!(bits.len() * 8 < data.len() * 11, "no compression achieved");
        let dec = table.try_decode(&bits, data.len()).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn roundtrip_uniform() {
        let data: Vec<u32> = (0..4096).map(|i| i % 256).collect();
        let table = HuffmanTable::from_symbols(&data);
        let dec = table
            .try_decode(&table.try_encode(&data).unwrap(), data.len())
            .unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn single_symbol_alphabet() {
        let data = vec![7u32; 100];
        let table = HuffmanTable::from_symbols(&data);
        assert_eq!(table.lengths.len(), 1);
        let bits = table.try_encode(&data).unwrap();
        let dec = table.try_decode(&bits, 100).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        let data = [vec![1u32; 70], vec![2u32; 30]].concat();
        let table = HuffmanTable::from_symbols(&data);
        let bits = table.try_encode(&data).unwrap();
        assert_eq!(bits.len(), 100usize.div_ceil(8));
    }

    #[test]
    fn table_serialization_roundtrip() {
        let data: Vec<u32> = (0..2000).map(|i| (i * i) % 300).collect();
        let table = HuffmanTable::from_symbols(&data);
        let ser = table.serialize();
        let (table2, used) = HuffmanTable::try_deserialize(&ser).unwrap();
        assert_eq!(used, ser.len());
        let bits = table.try_encode(&data).unwrap();
        assert_eq!(table2.try_decode(&bits, data.len()).unwrap(), data);
    }

    #[test]
    fn encoded_size_tracks_entropy() {
        // 90/10 binary source: entropy ≈ 0.469 bits/sym, Huffman gives 1
        // bit/sym; a 4-ary skewed source should beat 2 bits/sym.
        let mut data = Vec::new();
        for i in 0..8000u32 {
            data.push(match i % 16 {
                0..=12 => 0,
                13..=14 => 1,
                15 => 2,
                _ => 3,
            });
        }
        let table = HuffmanTable::from_symbols(&data);
        let bits = table.try_encode(&data).unwrap();
        let bps = bits.len() as f64 * 8.0 / data.len() as f64;
        assert!(bps < 1.5, "bits per symbol {bps}");
    }

    #[test]
    fn kraft_inequality_holds() {
        let data: Vec<u32> = (0..5000).map(|i| i % 97).collect();
        let table = HuffmanTable::from_symbols(&data);
        let kraft: f64 = table
            .lengths
            .iter()
            .map(|&(_, l)| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "Kraft sum {kraft}");
    }

    #[test]
    fn duplicate_symbol_across_lengths_rejected() {
        // (sym 5, len 1) and (sym 5, len 2) are non-adjacent after the
        // (length, symbol) sort — the duplicate check must still catch them
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.push(2);
        assert!(matches!(
            HuffmanTable::try_deserialize(&bytes),
            Err(CfcError::Corrupt { .. })
        ));
    }

    #[test]
    fn deep_skew_is_depth_limited() {
        // exponential frequencies force long codes; depth must stay ≤ 32
        let freqs: Vec<(u32, u64)> = (0..40u32).map(|i| (i, 1u64 << (i.min(50)))).collect();
        let table = HuffmanTable::from_frequencies(&freqs);
        let max = table.lengths.iter().map(|&(_, l)| l).max().unwrap();
        assert!(max <= MAX_CODE_LEN);
        // still decodable
        let data: Vec<u32> = (0..40).collect();
        assert_eq!(
            table
                .try_decode(&table.try_encode(&data).unwrap(), 40)
                .unwrap(),
            data
        );
    }

    #[test]
    fn long_codes_take_the_fallback_path() {
        // exponential weights push tail symbols past TABLE_BITS; table and
        // reference decoders must agree anyway
        let freqs: Vec<(u32, u64)> = (0..30u32).map(|i| (i, 1u64 << i)).collect();
        let table = HuffmanTable::from_frequencies(&freqs);
        let deepest = table.lengths.iter().map(|&(_, l)| l).max().unwrap();
        assert!(deepest > TABLE_BITS, "test must exercise the fallback");
        let data: Vec<u32> = (0..30).cycle().take(4000).collect();
        let bits = table.try_encode(&data).unwrap();
        let fast = table.try_decode(&bits, data.len()).unwrap();
        let slow = table.try_decode_reference(&bits, data.len()).unwrap();
        assert_eq!(fast, data);
        assert_eq!(fast, slow);
    }

    #[test]
    fn truncated_stream_errors_in_both_decoders() {
        let data: Vec<u32> = (0..1000).map(|i| i % 50).collect();
        let table = HuffmanTable::from_symbols(&data);
        let bits = table.try_encode(&data).unwrap();
        for cut in [0, 1, bits.len() / 2, bits.len() - 1] {
            let fast = table.try_decode(&bits[..cut], data.len());
            let slow = table.try_decode_reference(&bits[..cut], data.len());
            assert!(fast.is_err(), "cut {cut} must fail");
            assert_eq!(fast.is_err(), slow.is_err());
        }
    }

    #[test]
    fn absent_symbol_is_a_typed_error_not_a_silent_zero_code() {
        // regression: `encode` used to guard absent symbols with a
        // debug_assert only — release builds emitted a zero-length code and
        // produced an undecodable stream
        let table = HuffmanTable::from_symbols(&[1, 1, 2, 2, 5, 5]);
        // 3 is below max_sym but was never counted: no code
        let err = table.try_encode(&[1, 3, 2]).unwrap_err();
        assert!(matches!(err, CfcError::InvalidInput(_)), "{err:?}");
        // the stream length must not silently shrink either: a valid
        // prefix followed by the bad symbol still errors
        assert!(table.try_encode(&[1, 2, 5, 3]).is_err());
    }

    #[test]
    fn symbol_above_max_sym_is_a_typed_error_not_a_panic() {
        // regression: symbols above the dense LUT's max_sym used to index
        // out of bounds and panic from a public API
        let table = HuffmanTable::from_symbols(&[7, 7, 9]);
        for bad in [10u32, 1000, u32::MAX] {
            let err = table.try_encode(&[7, bad]).unwrap_err();
            assert!(matches!(err, CfcError::InvalidInput(_)), "{bad}: {err:?}");
        }
        // in-table symbols still encode fine through the checked path
        let bits = table.try_encode(&[7, 9, 7]).unwrap();
        assert_eq!(table.try_decode(&bits, 3).unwrap(), vec![7, 9, 7]);
    }

    #[test]
    fn one_huge_symbol_does_not_size_the_encoder_lut() {
        // regression: the dense LUT was `max_sym + 1` entries, so this
        // sparse alphabet asked for 64 GiB (and only ever "worked" where
        // calloc overcommits)
        let mut data: Vec<u32> = (0..300).map(|i| i % 7).collect();
        data.extend([
            u32::MAX,
            ENC_LUT_CAP as u32,
            ENC_LUT_CAP as u32 - 1,
            u32::MAX,
        ]);
        let table = HuffmanTable::from_symbols(&data);
        assert!(table.enc_lut().len() <= ENC_LUT_CAP);
        let bits = table.try_encode(&data).unwrap();
        assert_eq!(table.try_decode(&bits, data.len()).unwrap(), data);
        // a wide symbol that was never counted is still a typed error
        let err = table.try_encode(&[3, u32::MAX - 1]).unwrap_err();
        assert!(matches!(err, CfcError::InvalidInput(_)), "{err:?}");
    }

    #[test]
    fn encode_append_reuses_and_appends() {
        let data: Vec<u32> = (0..500).map(|i| i % 9).collect();
        let table = HuffmanTable::from_symbols(&data);
        let direct = table.try_encode(&data).unwrap();
        let mut buf = vec![0xAB, 0xCD];
        table.try_encode_append(&data, &mut buf).unwrap();
        assert_eq!(&buf[..2], &[0xAB, 0xCD]);
        assert_eq!(&buf[2..], &direct[..]);
        // steady state: same stream through the warmed buffer reallocates
        // nothing
        buf.clear();
        let cap = buf.capacity();
        table.try_encode_append(&data, &mut buf).unwrap();
        assert_eq!(buf, direct);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn word_level_emission_matches_reference_decoder_on_long_codes() {
        // deep table: code pairs span the 64-bit accumulator boundary in
        // every alignment, including the maximal 32+32 pair
        let freqs: Vec<(u32, u64)> = (0..40u32).map(|i| (i, 1u64 << i.min(50))).collect();
        let table = HuffmanTable::from_frequencies(&freqs);
        let data: Vec<u32> = (0..40u32).rev().cycle().take(5000).collect();
        let bits = table.try_encode(&data).unwrap();
        assert_eq!(table.try_decode_reference(&bits, data.len()).unwrap(), data);
        assert_eq!(table.try_decode(&bits, data.len()).unwrap(), data);
        // odd-length input exercises the unpaired-tail path
        let odd = &data[..4999];
        let bits = table.try_encode(odd).unwrap();
        assert_eq!(table.try_decode_reference(&bits, odd.len()).unwrap(), odd);
    }

    #[test]
    fn dense_and_map_counting_build_identical_tables() {
        // the wide-alphabet fallback must produce the same canonical table
        // as dense counting does for the same multiset of symbols
        let data: Vec<u32> = (0..4000u32).map(|i| (i * i) % 700).collect();
        let wide: Vec<u32> = data.iter().map(|&s| s * (1 << 22)).collect();
        let t1 = HuffmanTable::from_symbols(&wide);
        let mut counts = std::collections::BTreeMap::new();
        for &s in &wide {
            *counts.entry(s).or_insert(0u64) += 1;
        }
        let freqs: Vec<(u32, u64)> = counts.into_iter().collect();
        let t2 = HuffmanTable::from_frequencies(&freqs);
        assert_eq!(t1.serialize(), t2.serialize());
        assert_eq!(t1.try_encode(&wide).unwrap(), t2.try_encode(&wide).unwrap());
    }

    #[test]
    fn serialize_into_matches_serialize() {
        let table = HuffmanTable::from_symbols(&[1, 1, 1, 4, 4, 200]);
        let mut buf = vec![9u8];
        table.serialize_into(&mut buf);
        assert_eq!(buf[0], 9);
        assert_eq!(&buf[1..], &table.serialize()[..]);
    }
}
