//! Layer stack with serialization — the concrete network container.

use bytes::BufMut;

use crate::attention::ChannelAttention;
use crate::conv::{Conv2d, DepthwiseConv2d};
use crate::layer::{Layer, ParamSet, ReLU};
use crate::tensor::Tensor;

/// A concrete layer variant. Using an enum (instead of trait objects) keeps
/// (de)serialization byte-exact and dependency-free.
pub enum AnyLayer {
    /// Full convolution.
    Conv(Conv2d),
    /// Depthwise convolution.
    Depthwise(DepthwiseConv2d),
    /// ReLU activation.
    ReLU(ReLU),
    /// Channel attention gate.
    Attention(ChannelAttention),
}

impl AnyLayer {
    fn as_layer(&mut self) -> &mut dyn Layer {
        match self {
            AnyLayer::Conv(l) => l,
            AnyLayer::Depthwise(l) => l,
            AnyLayer::ReLU(l) => l,
            AnyLayer::Attention(l) => l,
        }
    }

    fn kind_tag(&self) -> u8 {
        match self {
            AnyLayer::Conv(_) => 1,
            AnyLayer::Depthwise(_) => 2,
            AnyLayer::ReLU(_) => 3,
            AnyLayer::Attention(_) => 4,
        }
    }
}

/// A feed-forward stack of layers trained end to end.
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
        self.layers.push(AnyLayer::ReLU(ReLU::new()));
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

    /// Forward pass through the stack.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.as_layer().forward(input, train);
        for l in layers {
            x = l.as_layer().forward(&x, train);
        }
        x
    }

    /// Backward pass (after a training forward): accumulates every
    /// layer's parameter gradients from the loss gradient `grad_out`. The
    /// gradient flows down to the first layer's output and stops there —
    /// the gradient with respect to the network's input has no reader, so
    /// the first layer is not asked for it.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let mut below: Option<Tensor> = None;
        for (i, l) in self.layers.iter_mut().enumerate().rev() {
            let g = below.as_ref().unwrap_or(grad_out);
            below = l.as_layer().backward(g, i > 0);
        }
    }

    /// All parameter blocks in layer order.
    pub fn params(&mut self) -> Vec<ParamSet<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.as_layer().params())
            .collect()
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.as_layer().zero_grad();
        }
    }

    /// Total learnable parameters.
    pub fn num_params(&mut self) -> usize {
        self.layers
            .iter_mut()
            .map(|l| l.as_layer().num_params())
            .sum()
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
                AnyLayer::ReLU(_) => {}
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
        // channel/kernel sanity caps: largest legitimate CFNN here is ~139
        // channels with 3×3 kernels
        const MAX_CHANNELS: usize = 1 << 14;
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
                3 => Ok(AnyLayer::ReLU(ReLU::new())),
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
    use crate::init;
    use crate::loss::mse_loss;
    use crate::optim::Adam;

    fn rand_tensor(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = init::seeded(seed);
        Tensor::from_vec(
            n,
            c,
            h,
            w,
            init::kaiming_uniform(&mut rng, n * c * h * w, 4),
        )
    }

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
        let mut net = tiny_cfnn(1);
        let out = net.forward(&rand_tensor(3, 2, 8, 8, 2), false);
        assert_eq!(out.dims(), (3, 1, 8, 8));
    }

    #[test]
    fn training_reduces_loss_on_learnable_task() {
        // target = smoothed version of channel 0 — a conv net must fit this
        let input = rand_tensor(4, 2, 8, 8, 3);
        let mut target = Tensor::zeros(4, 1, 8, 8);
        for b in 0..4 {
            for y in 0..8 {
                for x in 0..8 {
                    let mut acc = 0.0;
                    let mut cnt = 0.0;
                    for dy in -1i32..=1 {
                        for dx in -1i32..=1 {
                            let (yy, xx) = (y as i32 + dy, x as i32 + dx);
                            if (0..8).contains(&yy) && (0..8).contains(&xx) {
                                acc += input.at(b, 0, yy as usize, xx as usize);
                                cnt += 1.0;
                            }
                        }
                    }
                    target.set(b, 0, y, x, acc / cnt);
                }
            }
        }
        let mut net = tiny_cfnn(5);
        let mut opt = Adam::new(1e-2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            net.zero_grad();
            let out = net.forward(&input, true);
            let (loss, grad) = mse_loss(&out, &target);
            net.backward(&grad);
            opt.step(&mut net.params());
            first.get_or_insert(loss);
            last = loss;
        }
        let first = first.unwrap();
        assert!(last < first * 0.3, "loss did not drop: {first} → {last}");
    }

    #[test]
    fn serialization_preserves_behaviour() {
        let mut net = tiny_cfnn(7);
        let input = rand_tensor(1, 2, 6, 6, 8);
        let out1 = net.forward(&input, false);
        let bytes = net.serialize();
        let mut net2 = Sequential::try_deserialize(&bytes).unwrap();
        let out2 = net2.forward(&input, false);
        assert_eq!(out1.data, out2.data);
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
        let mut net = Sequential::new().conv(2, 4, 3, 0).relu().attention(4, 2, 1);
        // conv: 2·4·9 + 4 = 76 ; attention: 2·(4·2) = 16
        assert_eq!(net.num_params(), 76 + 16);
    }

    #[test]
    fn deterministic_construction() {
        let mut a = tiny_cfnn(42);
        let mut b = tiny_cfnn(42);
        let input = rand_tensor(1, 2, 5, 5, 0);
        assert_eq!(a.forward(&input, false).data, b.forward(&input, false).data);
    }

    #[test]
    fn whole_stack_gradcheck() {
        // end-to-end finite difference through a 3-layer net on a few params
        let mut net = Sequential::new().conv(1, 4, 3, 2).relu().conv(4, 1, 3, 3);
        let input = rand_tensor(1, 1, 5, 5, 4);
        let target = rand_tensor(1, 1, 5, 5, 5);
        net.zero_grad();
        let out = net.forward(&input, true);
        let (_, grad) = mse_loss(&out, &target);
        net.backward(&grad);
        let analytic: Vec<Vec<f32>> = net.params().iter().map(|p| p.grads.to_vec()).collect();
        let eps = 1e-3;
        for (pi, block) in analytic.iter().enumerate() {
            for wi in (0..block.len()).step_by((block.len() / 6).max(1)) {
                let orig = net.params()[pi].values[wi];
                net.params()[pi].values[wi] = orig + eps;
                let (lp, _) = mse_loss(&net.forward(&input, false), &target);
                net.params()[pi].values[wi] = orig - eps;
                let (lm, _) = mse_loss(&net.forward(&input, false), &target);
                net.params()[pi].values[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (block[wi] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "param[{pi}][{wi}]: {} vs {numeric}",
                    block[wi]
                );
            }
        }
    }
}
