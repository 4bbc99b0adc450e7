//! Neural-network building blocks over the autograd tape.
//!
//! Parameters live in a [`ParamSet`] that outlives any single tape: each
//! training step inserts them into a fresh [`matsciml_autograd::Graph`] as
//! tagged leaves (an `Arc` clone, no copy), runs forward/backward, then
//! pulls gradients back with [`ParamSet::absorb_grads`]. Layers
//! ([`Linear`], [`Embedding`], [`Mlp`], [`ResidualBlock`], [`OutputHead`])
//! hold only [`ParamId`]s and hyperparameters, so they are plain `Clone +
//! Send + Sync` data and can be shared across simulated DDP ranks.

#![warn(missing_docs)]

pub mod bucket;
mod embedding;
mod layers;
mod mlp;
mod params;

pub use bucket::{BucketLayout, GradBucket, PartitionedLayout};
pub use embedding::Embedding;
pub use layers::{
    fused_edges, fused_linear, set_fused_edges, set_fused_linear, Activation, BatchNorm,
    ForwardCtx, Linear, NormKind, RmsNorm,
};
pub use mlp::{Mlp, OutputHead, ResidualBlock};
pub use params::{ParamId, ParamSet};
