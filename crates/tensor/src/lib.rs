//! Dense `f32` tensor substrate for the Open MatSci ML Toolkit reproduction.
//!
//! This crate is the lowest layer of the workspace: a small, fast,
//! row-major, always-contiguous tensor type with exactly the operations the
//! rest of the toolkit needs — elementwise kernels, a cache-blocked and
//! rayon-parallel matrix multiply, reductions with f64 accumulators, the
//! gather/scatter/segment primitives that graph neural network message
//! passing lowers to, and deterministic random initializers.
//!
//! Design notes:
//!
//! * Storage is `Arc<pool::Buf>` — a pool-backed buffer behind an `Arc` —
//!   so cloning a [`Tensor`] is O(1) and mutation is copy-on-write
//!   (`Arc::make_mut`). This is what makes the autograd tape and the DDP
//!   simulator cheap: parameters are shared into every rank's tape without
//!   copying until someone writes. Dropped buffers return to thread-local
//!   size-class freelists (see [`pool`]), so a reused tape reaches a 100%
//!   allocation hit rate in steady state.
//! * Shapes are small `Vec<usize>`; tensors used by the toolkit are 1-D or
//!   2-D (a batch of graphs is flattened into `[total_nodes, features]`
//!   matrices plus index vectors, mirroring how DGL lowers graph compute).
//! * Shape mismatches in operators are programming errors and panic with a
//!   descriptive message; fallible *construction* from external data
//!   returns [`TensorError`].

//! # Example
//!
//! ```
//! use matsciml_tensor::Tensor;
//!
//! let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
//! let b = Tensor::eye(3);
//! let c = a.matmul(&b);            // identity: c == a
//! assert_eq!(c.as_slice(), a.as_slice());
//!
//! let pooled = a.segment_sum(&[0, 0], 1);  // sum both rows into one
//! assert_eq!(pooled.as_slice(), &[5.0, 7.0, 9.0]);
//! ```

#![warn(missing_docs)]

pub mod edge;
mod elementwise;
mod exp;
pub mod fused;
pub mod half;
pub mod kernels;
mod linalg;
mod matmul;
mod par;
pub mod pool;
mod random;
mod reduce;
mod rows;
mod shape;
pub mod simd;
mod tensor;

pub use edge::{edge_stats, reset_edge_stats, EdgeStats};
pub use exp::expf;
pub use fused::Act;
pub use half::{max_rel_error, quantize_tensor_in_place, HalfTensor, Precision};
pub use linalg::{Mat3, Vec3};
pub use pool::{pool_stats, reset_pool_stats, PoolStats};
pub use simd::{reset_simd_stats, set_simd_enabled, simd_enabled, simd_isa, simd_stats, SimdStats};
pub use shape::TensorError;
pub use tensor::Tensor;

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::{Mat3, Tensor, TensorError, Vec3};
}
