//! Bit-level reader for the entropy decoders.
//!
//! Bits are packed LSB-first within each byte, and a stream's last byte is
//! zero-padded. The reader refills a 64-bit accumulator eight bytes at a
//! time and serves `peek`/`consume` out of it, so the per-symbol hot path
//! of the Huffman decoder touches no byte-granular cursor arithmetic.
//! Every read it offers is total: past the end a peek reads zeros and
//! [`BitReader::try_read_bit`] returns `None`.
//!
//! The writers live with their formats: Huffman emission packs codes into
//! a 64-bit word of its own ([`crate::huffman::HuffmanTable::try_encode_append`]),
//! and the LZ stage sets its flag bits straight into bytes.

/// Maximum bits a single [`BitReader::peek_bits`] call may return. The
/// 64-bit accumulator can hold up to 7 carried-over bits next to a fresh
/// refill, so `64 − 7 = 57` is the widest safe peek.
pub const MAX_BITS_PER_CALL: u32 = 57;

/// Sequential bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte to refill the accumulator from.
    byte_pos: usize,
    /// Bits available in `acc`.
    acc_bits: u32,
    /// Refilled bits, LSB-first; bits at positions ≥ `acc_bits` are zero.
    acc: u64,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            byte_pos: 0,
            acc_bits: 0,
            acc: 0,
        }
    }

    /// Bits remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        (self.buf.len() - self.byte_pos) * 8 + self.acc_bits as usize
    }

    /// Top up the accumulator from the byte buffer — eight bytes at a time
    /// away from the tail, byte-by-byte at the very end. Maintains the
    /// invariant that bits at positions ≥ `acc_bits` stay zero, so
    /// [`BitReader::peek_bits`] is naturally zero-padded past the end.
    #[inline]
    fn refill(&mut self) {
        if self.byte_pos + 8 <= self.buf.len() {
            let chunk = u64::from_le_bytes(
                self.buf[self.byte_pos..self.byte_pos + 8]
                    .try_into()
                    .expect("eight bytes"),
            );
            let take = ((64 - self.acc_bits) / 8) as usize;
            if take == 8 {
                self.acc = chunk;
                self.acc_bits = 64;
            } else {
                let bits = take as u32 * 8;
                self.acc |= (chunk & ((1u64 << bits) - 1)) << self.acc_bits;
                self.acc_bits += bits;
            }
            self.byte_pos += take;
        } else {
            while self.acc_bits <= 56 && self.byte_pos < self.buf.len() {
                self.acc |= (self.buf[self.byte_pos] as u64) << self.acc_bits;
                self.acc_bits += 8;
                self.byte_pos += 1;
            }
        }
    }

    /// Return the next `n ≤` [`MAX_BITS_PER_CALL`] bits without consuming
    /// them. Past the end of the stream the missing high bits read as zero
    /// — callers that care must check [`BitReader::remaining`] (the
    /// Huffman fast path does exactly that before consuming).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= MAX_BITS_PER_CALL);
        if self.acc_bits < n {
            self.refill();
        }
        self.acc & ((1u64 << n) - 1)
    }

    /// True when the accumulator can be refilled to ≥ [`MAX_BITS_PER_CALL`]
    /// bits in one 8-byte load — the gate for the Huffman bulk loop, which
    /// then peeks straight out of the accumulator without per-symbol
    /// bounds checks.
    #[inline]
    pub(crate) fn can_refill_bulk(&self) -> bool {
        self.byte_pos + 8 <= self.buf.len()
    }

    /// Force a refill now (bulk callers pair this with
    /// [`BitReader::can_refill_bulk`] and then use
    /// [`BitReader::peek_acc`] for several symbols).
    #[inline]
    pub(crate) fn refill_now(&mut self) {
        self.refill();
    }

    /// Peek from the accumulator only — no refill, no bounds check. Valid
    /// for `n` bits only when the caller has established the accumulator
    /// holds at least `n` (missing bits would read as zero).
    #[inline]
    pub(crate) fn peek_acc(&self, n: u32) -> u64 {
        self.acc & ((1u64 << n) - 1)
    }

    /// Consume `n` bits previously observed via [`BitReader::peek_bits`].
    /// `n` must not exceed the bits the accumulator currently holds (peek
    /// guarantees that for any `n` it returned real bits for).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.acc_bits, "consume past the refilled window");
        self.acc >>= n;
        self.acc_bits -= n;
    }

    /// Read one bit, `None` past the end of the stream.
    #[inline]
    pub fn try_read_bit(&mut self) -> Option<bool> {
        if self.remaining() == 0 {
            return None;
        }
        let bit = self.peek_bits(1) != 0;
        self.consume(1);
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bits `pos..pos + n` of `bytes` as an LSB-first integer, one bit at
    /// a time: the layout spelled out, with zeros past the end.
    fn bits_at(bytes: &[u8], pos: usize, n: u32) -> u64 {
        (0..n as usize).fold(0, |v, k| {
            let (byte, bit) = ((pos + k) / 8, (pos + k) % 8);
            let b = bytes.get(byte).map_or(0, |&x| (x >> bit) & 1);
            v | (u64::from(b) << k)
        })
    }

    /// 29 bytes of a fixed LCG: long enough for two bulk refills.
    fn sample_bytes() -> Vec<u8> {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        (0..29)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn bits_come_out_lsb_first() {
        let mut r = BitReader::new(&[0b0000_0111, 0b1000_0001]);
        let bits: Vec<bool> = std::iter::from_fn(|| r.try_read_bit()).collect();
        let want = [1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1];
        assert_eq!(bits, want.map(|b| b == 1));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_stream_reads_nothing() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.peek_bits(MAX_BITS_PER_CALL), 0);
        assert_eq!(r.try_read_bit(), None);
    }

    #[test]
    fn peek_is_idempotent_and_consume_advances() {
        let bytes = [0x69, 0x0D]; // the stream as an LSB-first integer: 0x0D69
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(5), 0x0D69 & 0x1F);
        assert_eq!(r.peek_bits(5), 0x0D69 & 0x1F, "peek must not consume");
        assert_eq!(r.peek_bits(3), 0x0D69 & 0x7, "narrower peek sees a prefix");
        r.consume(4);
        assert_eq!(r.remaining(), 16 - 4);
        assert_eq!(r.peek_bits(8), (0x0D69 >> 4) & 0xFF);
        r.consume(8);
        assert_eq!(r.peek_bits(4), 0x0D69 >> 12);
        r.consume(4);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn peek_past_end_is_zero_padded() {
        let mut r = BitReader::new(&[0b0000_0111]);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.peek_bits(12), 0b0000_0111, "missing high bits are zero");
        r.consume(3);
        assert_eq!(r.peek_bits(12), 0, "only padding left");
        r.consume(5);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.peek_bits(16), 0, "past-the-end bits read as zero");
        assert_eq!(r.try_read_bit(), None, "a read past the end is refused");
    }

    #[test]
    fn mixed_width_peeks_match_the_layout() {
        // widths up to the 57-bit maximum, so refills run both eight bytes
        // at a time and byte by byte at the tail; each step is checked
        // against a bit-serial reader of the same bytes
        let bytes = sample_bytes();
        let widths = [3u32, 11, 1, 7, 19, 2, 33, 5, 13, 8, 57, 57, 1];
        let mut peeky = BitReader::new(&bytes);
        let mut serial = BitReader::new(&bytes);
        let mut pos = 0usize;
        for &n in &widths {
            let want = bits_at(&bytes, pos, n);
            assert_eq!(peeky.peek_bits(n), want, "peek of {n} at bit {pos}");
            peeky.consume(n);
            let got = (0..n).fold(0u64, |v, k| {
                v | (u64::from(serial.try_read_bit().expect("in range")) << k)
            });
            assert_eq!(got, want, "{n} single bits at bit {pos}");
            pos += n as usize;
            assert_eq!(peeky.remaining(), bytes.len() * 8 - pos);
            assert_eq!(serial.remaining(), peeky.remaining());
        }
    }

    #[test]
    fn bulk_refill_serves_57_bits_from_the_accumulator() {
        let bytes = sample_bytes();
        let mut r = BitReader::new(&bytes);
        let mut pos = 0usize;
        while r.can_refill_bulk() {
            r.refill_now();
            for n in [11u32, 11, 11, 11, 13] {
                assert_eq!(r.peek_acc(n), bits_at(&bytes, pos, n), "bit {pos}");
                r.consume(n);
                pos += n as usize;
            }
        }
        assert!(bytes.len() - pos / 8 < 16, "stops within a word of the end");
        assert_eq!(r.remaining(), bytes.len() * 8 - pos);
    }
}
