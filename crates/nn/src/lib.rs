//! `cfc-nn` — a minimal, dependency-free CNN framework for CPU training.
//!
//! The paper trains its CFNN (a few thousand to ~33 k parameters) with
//! PyTorch on V100s; at this scale a straightforward hand-rolled
//! implementation trains in seconds on CPU, keeps the whole reproduction
//! self-contained, and lets the compressed stream embed weights without any
//! framework-specific serialization.
//!
//! Provided pieces (exactly what CFNN's architecture in paper Fig. 4 needs):
//!
//! * [`Conv2d`] — same-padded convolution (also used as the 1×1 pointwise),
//! * [`DepthwiseConv2d`] — per-channel convolution,
//! * [`ChannelAttention`] — CBAM-style avg+max pooled MLP gate,
//! * [`Sequential`] — the layer stack (ReLU is a layer of it): the weights,
//!   and their byte-exact (de)serialization for embedding into streams,
//! * [`InferencePlan`] — a `Sequential` compiled once for allocation-free,
//!   thread-shareable, bit-identical forward passes on zero-haloed planes,
//! * [`TrainWorkspace`] — training's forward and backward passes over the
//!   same plan steps and planes,
//! * [`Adam`] — the optimizer,
//! * [`mse_loss`] — the paper's training loss.
//!
//! Every layer's backward pass is validated against finite-difference
//! gradients in the test suite.

pub mod attention;
pub mod conv;
pub mod init;
pub mod loss;
pub mod optim;
pub mod plan;
pub mod sequential;
pub mod train;

pub use attention::ChannelAttention;
pub use conv::{Conv2d, DepthwiseConv2d, Kernel};
pub use loss::mse_loss;
pub use optim::{Adam, ParamSet};
pub use plan::{InferencePlan, Planes, PlanesMut, Workspace, MAX_CHANNELS};
pub use sequential::{AnyLayer, Sequential};
pub use train::TrainWorkspace;
