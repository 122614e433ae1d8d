//! Layer stack with serialization — the concrete network container.

use bytes::BufMut;

use crate::attention::ChannelAttention;
use crate::conv::{Conv2d, DepthwiseConv2d};
use crate::optim::ParamSet;
use crate::plan::MAX_CHANNELS;

/// A concrete layer variant. Using an enum (instead of trait objects) keeps
/// (de)serialization byte-exact and dependency-free.
pub enum AnyLayer {
    /// Full convolution.
    Conv(Conv2d),
    /// Depthwise convolution.
    Depthwise(DepthwiseConv2d),
    /// ReLU activation.
    ReLU,
    /// Channel attention gate.
    Attention(ChannelAttention),
}

impl AnyLayer {
    fn kind_tag(&self) -> u8 {
        match self {
            AnyLayer::Conv(_) => 1,
            AnyLayer::Depthwise(_) => 2,
            AnyLayer::ReLU => 3,
            AnyLayer::Attention(_) => 4,
        }
    }

    /// The learnable blocks — weights then biases, an attention gate's
    /// two weight blocks — with their gradient accumulators; a ReLU has
    /// none.
    fn params(&mut self) -> Option<[ParamSet<'_>; 2]> {
        match self {
            AnyLayer::Conv(c) => Some(c.params()),
            AnyLayer::Depthwise(d) => Some(d.params()),
            AnyLayer::ReLU => None,
            AnyLayer::Attention(a) => Some(a.params()),
        }
    }

    /// Learnable values.
    fn num_params(&self) -> usize {
        let (a, b) = match self {
            AnyLayer::Conv(c) => c.weights(),
            AnyLayer::Depthwise(d) => d.weights(),
            AnyLayer::ReLU => return 0,
            AnyLayer::Attention(a) => a.weights(),
        };
        a.len() + b.len()
    }
}

/// A feed-forward stack of layers: the weights a network is trained into
/// ([`crate::TrainWorkspace`]) and compiled for inference from
/// ([`crate::InferencePlan`]), and their byte-exact serialization.
pub struct Sequential {
    layers: Vec<AnyLayer>,
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a full convolution.
    pub fn conv(mut self, in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        self.layers
            .push(AnyLayer::Conv(Conv2d::new(in_c, out_c, k, seed)));
        self
    }

    /// Append a depthwise convolution.
    pub fn depthwise(mut self, c: usize, k: usize, seed: u64) -> Self {
        self.layers
            .push(AnyLayer::Depthwise(DepthwiseConv2d::new(c, k, seed)));
        self
    }

    /// Append a ReLU.
    pub fn relu(mut self) -> Self {
        self.layers.push(AnyLayer::ReLU);
        self
    }

    /// Append a channel-attention gate.
    pub fn attention(mut self, c: usize, reduction: usize, seed: u64) -> Self {
        self.layers.push(AnyLayer::Attention(ChannelAttention::new(
            c, reduction, seed,
        )));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for an empty stack.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[AnyLayer] {
        &self.layers
    }

    /// All parameter blocks in layer order, two a learnable layer.
    pub fn params(&mut self) -> Vec<ParamSet<'_>> {
        self.layers
            .iter_mut()
            .filter_map(AnyLayer::params)
            .flatten()
            .collect()
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params() {
            p.grads.fill(0.0);
        }
    }

    /// Total learnable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(AnyLayer::num_params).sum()
    }

    /// Serialize architecture + weights to bytes.
    ///
    /// Format: `n_layers u16 | per layer: tag u8, arch params, weight blocks
    /// (len u32 + f32 LE each)`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u16_le(self.layers.len() as u16);
        for l in &self.layers {
            out.put_u8(l.kind_tag());
            match l {
                AnyLayer::Conv(c) => {
                    out.put_u32_le(c.in_c as u32);
                    out.put_u32_le(c.out_c as u32);
                    out.put_u32_le(c.k as u32);
                    let (w, b) = c.weights();
                    put_f32s(&mut out, w);
                    put_f32s(&mut out, b);
                }
                AnyLayer::Depthwise(c) => {
                    out.put_u32_le(c.c as u32);
                    out.put_u32_le(c.k as u32);
                    let (w, b) = c.weights();
                    put_f32s(&mut out, w);
                    put_f32s(&mut out, b);
                }
                AnyLayer::ReLU => {}
                AnyLayer::Attention(a) => {
                    out.put_u32_le(a.c as u32);
                    out.put_u32_le(a.reduction as u32);
                    let (w1, w2) = a.weights();
                    put_f32s(&mut out, w1);
                    put_f32s(&mut out, w2);
                }
            }
        }
        out
    }

    /// Rebuild a network from [`Sequential::serialize`] bytes, which are
    /// untrusted (e.g. models embedded in compressed streams).
    ///
    /// Validates every read against the remaining buffer and every weight
    /// block against the layer geometry it claims, so hostile input can
    /// neither panic nor demand allocations beyond its own size.
    ///
    /// It also refuses a weight or bias that is NaN or infinite, in any
    /// layer, and a `-0.0` bias of a full or depthwise convolution. A
    /// training run that does not diverge produces neither (biases start
    /// at `+0.0`, and an optimizer step never turns `+0.0` into `-0.0`),
    /// and the convolution kernels reproduce their reference chain of
    /// operations bit for bit only without them (see the precondition in
    /// [`crate::conv`]). A model that parses therefore predicts the same
    /// bits on every host, and one that was damaged into such values is
    /// an error, not a garbled prediction.
    ///
    /// The error is a plain `String` to keep this crate free of codec
    /// dependencies; callers wrap it into their own error type.
    pub fn try_deserialize(buf: &[u8]) -> Result<Self, String> {
        // kernel sanity cap: a CFNN's kernels are 3×3
        const MAX_KERNEL: usize = 64;

        let mut r = TryReader { buf, pos: 0 };
        let n = r.u16()? as usize;
        let mut layers = Vec::new(); // `n` is untrusted: grow with the layers actually read
        for li in 0..n {
            let layer = match r.u8()? {
                1 => {
                    let in_c = r.dim(MAX_CHANNELS, "in_channels")?;
                    let out_c = r.dim(MAX_CHANNELS, "out_channels")?;
                    let k = r.dim(MAX_KERNEL, "kernel")?;
                    let (w, b) = (r.f32s()?, r.biases()?);
                    Conv2d::from_weights(in_c, out_c, k, w, b).map(AnyLayer::Conv)
                }
                2 => {
                    let c = r.dim(MAX_CHANNELS, "channels")?;
                    let k = r.dim(MAX_KERNEL, "kernel")?;
                    let (w, b) = (r.f32s()?, r.biases()?);
                    DepthwiseConv2d::from_weights(c, k, w, b).map(AnyLayer::Depthwise)
                }
                3 => Ok(AnyLayer::ReLU),
                4 => {
                    let c = r.dim(MAX_CHANNELS, "channels")?;
                    let red = r.dim(MAX_CHANNELS, "reduction")?;
                    let (w1, w2) = (r.f32s()?, r.f32s()?);
                    ChannelAttention::from_weights(c, red, w1, w2).map(AnyLayer::Attention)
                }
                t => Err(format!("unknown layer tag {t}")),
            };
            layers.push(layer.map_err(|e| format!("layer {li}: {e}"))?);
        }
        Ok(Sequential { layers })
    }
}

/// Checked little-endian reader for [`Sequential::try_deserialize`].
struct TryReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl TryReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "truncated network: needed {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A dimension field: non-zero and capped.
    fn dim(&mut self, cap: usize, what: &str) -> Result<usize, String> {
        let v = self.u32()? as usize;
        if v == 0 || v > cap {
            return Err(format!("{what} {v} outside 1..={cap}"));
        }
        Ok(v)
    }

    /// A length-prefixed f32 block, validated against the remaining buffer
    /// before any allocation; every value finite.
    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or("f32 block length overflows")?)?;
        let vals: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        match vals.iter().position(|v| !v.is_finite()) {
            Some(i) => Err(format!("value {i} of a weight block is {}", vals[i])),
            None => Ok(vals),
        }
    }

    /// A convolution's bias block: [`Self::f32s`], and no `-0.0`.
    fn biases(&mut self) -> Result<Vec<f32>, String> {
        let b = self.f32s()?;
        match b.iter().position(|v| v.to_bits() == (-0.0f32).to_bits()) {
            Some(i) => Err(format!("bias {i} is -0.0")),
            None => Ok(b),
        }
    }
}

fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    out.put_u32_le(vals.len() as u32);
    for &v in vals {
        out.put_f32_le(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::tests::{forward, rand};

    fn tiny_cfnn(seed: u64) -> Sequential {
        Sequential::new()
            .conv(2, 8, 3, seed)
            .relu()
            .depthwise(8, 3, seed + 1)
            .conv(8, 8, 1, seed + 2)
            .relu()
            .attention(8, 4, seed + 3)
            .conv(8, 1, 3, seed + 4)
    }

    #[test]
    fn forward_shapes() {
        let out = forward(&tiny_cfnn(1), (2, 8, 8), &rand(3 * 2 * 64, 2));
        assert_eq!(out.len(), 3 * 64);
    }

    #[test]
    fn serialization_preserves_behaviour() {
        let net = tiny_cfnn(7);
        let input = rand(2 * 36, 8);
        let bytes = net.serialize();
        let net2 = Sequential::try_deserialize(&bytes).unwrap();
        assert_eq!(
            forward(&net, (2, 6, 6), &input),
            forward(&net2, (2, 6, 6), &input)
        );
        assert_eq!(net.num_params(), net2.num_params());
    }

    /// One weighted layer of `kind` as [`Sequential::serialize`] writes it,
    /// with its first weight set to `w0` and its last bias (the attention
    /// gate's second weight block) to `b0`.
    fn one_layer(kind: u8, w0: f32, b0: f32) -> Vec<u8> {
        let blocks = |n: usize, m: usize| {
            let (mut w, mut b) = (vec![0.25; n], vec![0.5; m]);
            (w[0], b[m - 1]) = (w0, b0);
            (w, b)
        };
        let layer = match kind {
            1 => {
                let (w, b) = blocks(2 * 3 * 9, 3);
                AnyLayer::Conv(Conv2d::from_weights(2, 3, 3, w, b).unwrap())
            }
            2 => {
                let (w, b) = blocks(3 * 9, 3);
                AnyLayer::Depthwise(DepthwiseConv2d::from_weights(3, 3, w, b).unwrap())
            }
            _ => {
                let (w1, w2) = blocks(4 * 2, 2 * 4);
                AnyLayer::Attention(ChannelAttention::from_weights(4, 2, w1, w2).unwrap())
            }
        };
        let bytes = Sequential {
            layers: vec![layer],
        }
        .serialize();
        assert_eq!(bytes[2], kind);
        bytes
    }

    #[test]
    fn non_finite_weights_and_negative_zero_biases_are_refused() {
        for kind in [1, 2, 4] {
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for (w0, b0) in [(v, 0.5), (0.25, v)] {
                    let parsed = Sequential::try_deserialize(&one_layer(kind, w0, b0));
                    let err = parsed
                        .err()
                        .unwrap_or_else(|| panic!("tag {kind}: {w0}, {b0}"));
                    assert!(err.contains(&v.to_string()), "tag {kind}: {err}");
                }
            }
            // what the writer does write parses: a -0.0 weight, a +0.0 bias
            for (w0, b0) in [(-0.0, 0.5), (0.25, 0.0), (-0.0, 0.0)] {
                Sequential::try_deserialize(&one_layer(kind, w0, b0)).unwrap();
            }
            let negative_zero = Sequential::try_deserialize(&one_layer(kind, 0.25, -0.0));
            match kind {
                4 => assert!(negative_zero.is_ok(), "an attention weight may be -0.0"),
                _ => assert_eq!(negative_zero.err().unwrap(), "bias 2 is -0.0"),
            }
        }
    }

    #[test]
    fn num_params_counts_all_layers() {
        let net = Sequential::new().conv(2, 4, 3, 0).relu().attention(4, 2, 1);
        // conv: 2·4·9 + 4 = 76 ; attention: 2·(4·2) = 16
        assert_eq!(net.num_params(), 76 + 16);
        assert_eq!(Sequential::new().relu().num_params(), 0);
    }

    #[test]
    fn deterministic_construction() {
        let input = rand(2 * 25, 0);
        let (a, b) = (tiny_cfnn(42), tiny_cfnn(42));
        assert_eq!(
            forward(&a, (2, 5, 5), &input),
            forward(&b, (2, 5, 5), &input)
        );
    }
}
