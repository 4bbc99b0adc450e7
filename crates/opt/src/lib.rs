//! Optimizers, learning-rate schedules, and training-stability probes.
//!
//! Implements exactly the training machinery of the paper's Section 4.2:
//! AdamW (Loshchilov & Hutter 2019) with default momenta, the linear-warmup
//! plus exponential-decay schedule, learning-rate scaling with DDP world
//! size (Goyal et al. 2018), and an [`InstabilityProbe`] that captures the
//! gradient-norm / update-correlation diagnostics of Molybog et al.'s Adam
//! instability analysis, which the paper uses to explain its large-batch
//! loss spikes.

//! # Example
//!
//! ```
//! use matsciml_opt::{LrSchedule, WarmupExpDecay};
//!
//! // The paper's recipe at N = 512 ranks: η_base·N peak, 8-epoch warmup,
//! // γ = 0.8 decay per epoch.
//! let schedule = WarmupExpDecay::paper(1e-5, 512, 8, 500);
//! assert!(schedule.lr(0) < schedule.lr(3999));          // ramping
//! assert_eq!(schedule.lr(4000), 512.0 * 1e-5);          // peak
//! assert!(schedule.lr(4500) < schedule.lr(4000));       // decaying
//! ```

#![warn(missing_docs)]

mod adamw;
mod probe;
mod schedule;
mod sgd;

pub use adamw::{AdamW, AdamWConfig, AdamWState};
pub use probe::{InstabilityProbe, SpikeEvent};
pub use schedule::{ConstantLr, LrSchedule, WarmupExpDecay};
pub use sgd::Sgd;
