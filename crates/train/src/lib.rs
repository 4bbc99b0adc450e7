//! Tasks, multi-task composition, and the DDP training simulator.
//!
//! This crate is the paper's Section 3.2 + 4.2 machinery:
//!
//! * a **task** couples a shared encoder embedding to an output head and a
//!   loss over one target of one dataset ([`TaskHead`]);
//! * a [`TaskModel`] composes one encoder with any number of heads — the
//!   "multi-task, multi-dataset" setting is just more heads over a merged
//!   sample stream, with per-sample masks routing each head to the samples
//!   it owns;
//! * the [`ddp`] module simulates distributed data parallelism by exact
//!   gradient averaging over N rank-shards (real threads up to the core
//!   count, virtual ranks beyond — the optimizer sees math identical to
//!   N MPI processes with oneCCL allreduce);
//! * [`Trainer`] runs the paper's AdamW + warmup/exponential-decay recipe
//!   with instability probing and metric logging;
//! * [`throughput`] measures and models scale-out throughput for the
//!   Fig. 2 reproduction.
//!
//! Every run-shaped entry point ([`Trainer::train`], [`sweep::run_sweep`],
//! [`throughput::measure_real_threads`]) has an `_observed` variant
//! taking a [`matsciml_obs::Obs`] handle that emits the JSONL run record
//! documented in `docs/RUN_RECORD.md`; the plain names are thin wrappers
//! over `Obs::disabled()`. [`ddp::ddp_step`] takes the handle directly.

#![warn(missing_docs)]

pub mod checkpoint;
mod codec;
pub mod collate;
pub mod ddp;
mod forcefield;
mod metrics;
mod model;
pub mod serve;
mod task;
pub mod sweep;
pub mod throughput;
mod trainer;

pub use checkpoint::{
    load_infer_model, save_checkpoint, save_model, InferModel, TrainCheckpoint,
    TrainProgress, CKPT_BYTES_WRITTEN, CKPT_LOAD_US, CKPT_RESUME_STEP, CKPT_SAVES, CKPT_SAVE_US,
};
pub use collate::{
    collate, collate_ranks, Batch, CollateCache, DATA_COLLATE_EVICT, DATA_COLLATE_HIT,
    DATA_COLLATE_INLINE, DATA_COLLATE_MISS, DATA_COLLATE_WORKER, DATA_GRAPH_CACHE_EVICT,
    DATA_GRAPH_CACHE_HIT, DATA_GRAPH_CACHE_MISS,
};
pub use forcefield::ForceFieldModel;
pub use metrics::MetricMap;
pub use model::{EncoderKind, TaskModel};
pub use serve::{
    InferenceServer, ServeConfig, ServeError, SERVE_BATCHES, SERVE_BATCH_SIZE, SERVE_LATENCY_US,
    SERVE_QUEUE_DEPTH, SERVE_REJECTED, SERVE_RELOADS, SERVE_REQUESTS, SERVE_WORKER_PANICS,
};
pub use task::{target_stats, LossKind, TargetKind, TaskHead, TaskHeadConfig};
pub use trainer::{EarlyStop, TrainConfig, Trainer, TrainLog, TrainRecord};

pub use ddp::{
    ddp_step, DdpConfig, DdpTapes, StepInput, BUCKET_CAP_BYTES, COMM_ALLREDUCE_BYTES,
    COMM_GRAD_BYTES, DDP_EXPOSED_COMM_MS, DDP_OVERLAPPED_COMM_MS, DDP_OVERLAP_FRAC,
    EDGE_BYTES_SAVED, EDGE_FUSED_CALLS, SIMD_FALLBACK_HITS, SIMD_HALF_OPS, SIMD_LANE_OPS,
};
pub use sweep::{run_sweep, run_sweep_observed, SweepGrid, Trial};
