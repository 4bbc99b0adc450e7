//! Simulated distributed data parallelism over flat gradient buckets.
//!
//! A DDP step with world size `N` and per-rank batch `B`:
//!
//! 1. the global batch of `N·B` samples is sharded into `N` rank-chunks;
//! 2. every rank runs forward/backward on its own tape against the shared
//!    (read-only) parameters, exactly as `DistributedDataParallel` replicas
//!    do;
//! 3. rank gradients are reduced into the parameter store and averaged —
//!    the allreduce;
//! 4. the caller applies one optimizer step on the averaged gradient.
//!
//! # Bucketed allreduce
//!
//! The reduction works on **flat gradient buckets**
//! ([`matsciml_nn::bucket`]): every parameter tensor owns an `(offset,
//! len)` span of one contiguous `f32` buffer, so reducing a rank is a
//! handful of fused `axpy` sweeps instead of per-tensor dispatch.
//!
//! Ranks are partitioned into `reduce_slots(N) = min(N,
//! `[`MAX_REDUCE_SLOTS`](matsciml_nn::bucket::MAX_REDUCE_SLOTS)`)`
//! contiguous groups. Each group streams
//! its ranks **in rank order** into one slot bucket over one reusable
//! tape: a rank's tape is reset (arena kept, tensor buffers recycled to
//! the [pool](matsciml_tensor::pool)) as soon as it is folded, so only
//! the slot buckets stay resident. The slot buckets are then combined by a
//! fixed pairwise tree ([`tree_reduce_into_first`]) and the averaged
//! result is scattered back into the parameter store.
//!
//! # Determinism
//!
//! Both the group fold order and the tree shape are functions of
//! `world_size` alone — never of the thread schedule — so running ranks on
//! the rayon pool or sequentially produces **bit-identical** gradients
//! (the tests assert exact equality). That is what lets a laptop replay
//! the paper's large-batch training-dynamics experiments (Figs. 3 and 6)
//! at `N` up to 512 on any core count with one optimizer trajectory.
//!
//! # Memory bound
//!
//! Resident gradient memory during a step is `reduce_slots(N) ×
//! param-bytes` — O(threads × param-bytes), independent of `N`. A
//! world-512 step holds at most
//! [`MAX_REDUCE_SLOTS`](matsciml_nn::bucket::MAX_REDUCE_SLOTS) buckets,
//! not 512 rank
//! gradient sets (asserted by the `ddp_memory` integration test via the
//! bucket byte accounting).

use matsciml_autograd::Graph;
use matsciml_datasets::Sample;
use matsciml_nn::bucket::{rank_range, reduce_slots, tree_reduce_into_first, GradBucket};
use matsciml_nn::ForwardCtx;
use matsciml_obs::{Obs, Phase, PhaseAcc, Span};
use matsciml_tensor::{edge_stats, pool_stats, simd_stats};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::collate::{collate, Batch, DATA_COLLATE_INLINE};
use crate::metrics::MetricMap;
use crate::model::TaskModel;

/// Counter name for simulated allreduce wire volume (ring payload).
pub const COMM_ALLREDUCE_BYTES: &str = "comm/allreduce_bytes";
/// Counter name for raw flat-gradient bytes reduced per step.
pub const COMM_GRAD_BYTES: &str = "comm/grad_bytes";
/// Counter name for tensor-buffer pool hits during rank execution.
pub const POOL_HITS: &str = "pool/hits";
/// Counter name for tensor-buffer pool misses (fresh allocations) during
/// rank execution.
pub const POOL_MISSES: &str = "pool/misses";
/// Counter name for bytes served from recycled pool buffers.
pub const POOL_BYTES_RECYCLED: &str = "pool/bytes_recycled";
/// Counter name for bytes served by fresh allocations.
pub const POOL_BYTES_FRESH: &str = "pool/bytes_fresh";
/// Counter name for tape nodes recorded across all rank tapes.
pub const TAPE_NODES: &str = "tape/nodes";
/// Counter name for fused edge-kernel invocations during rank execution.
pub const EDGE_FUSED_CALLS: &str = "edge/fused_calls";
/// Counter name for intermediate-tensor bytes the fused edge kernels
/// avoided materializing.
pub const EDGE_BYTES_SAVED: &str = "edge/bytes_saved";
/// Counter name for 4-lane SIMD groups processed by the lane tier.
pub const SIMD_LANE_OPS: &str = "simd/lane_ops";
/// Counter name for kernel entries that fell back to the scalar path
/// (tier disabled or ISA unsupported).
pub const SIMD_FALLBACK_HITS: &str = "simd/fallback_hits";
/// Counter name for 8-wide FMA groups processed by the reduced-precision
/// inference tier's wide kernels (recorded by the inference server;
/// training never uses the wide tier).
pub const SIMD_HALF_OPS: &str = "simd/half_ops";

/// DDP execution configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DdpConfig {
    /// Number of data-parallel ranks (N).
    pub world_size: usize,
    /// Samples per rank per step (B); effective batch is N·B.
    pub per_rank_batch: usize,
    /// Run ranks on the rayon pool (true) or sequentially (false). Both
    /// produce identical gradients; threads only change wall-clock.
    pub parallel: bool,
    /// Base seed for per-rank dropout streams.
    pub seed: u64,
}

impl DdpConfig {
    /// Effective (global) batch size `N·B`.
    pub fn effective_batch(&self) -> usize {
        self.world_size * self.per_rank_batch
    }
}

/// The per-rank dropout seed for a step: a splitmix-style hash of the
/// config seed, step, and rank. Shared by the sequential and overlapped
/// step paths so both replay the identical dropout streams.
pub(crate) fn rank_seed(cfg: &DdpConfig, step: u64, rank: usize) -> u64 {
    cfg.seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step.wrapping_mul(0x85EB_CA6B))
        .wrapping_add(rank as u64)
}

/// What a DDP step consumes: either the raw global sample batch (each
/// rank collates its own chunk inline, inside the Forward span — the
/// classic path), or per-rank batches already collated elsewhere (the
/// worker-side collation path). `collate` is a pure function of the
/// sample list and the rank chunks are identical either way, so the two
/// variants produce bit-identical steps; only where the collation cost
/// lands differs.
pub(crate) enum StepInput<'a> {
    /// `world_size * per_rank` raw samples; rank `r` collates
    /// `samples[r*per_rank .. (r+1)*per_rank]`.
    Samples {
        /// The global batch.
        samples: &'a [Sample],
        /// Samples per rank.
        per_rank: usize,
    },
    /// One pre-collated [`Batch`] per rank.
    Collated(&'a [Batch]),
}

/// Run one rank's forward/backward on the slot's reusable tape and fold
/// its gradients straight into a slot bucket (span index = raw parameter
/// index). The tape is reset (not freed) when the slot's next rank runs:
/// node slots reuse the arena and tensor buffers return to the
/// [buffer pool](matsciml_tensor::pool), so resident gradient memory
/// stays at one bucket per slot with zero steady-state allocator traffic.
///
/// The slot's first rank overwrites its spans (`copy_span`) rather than
/// adding into the zeroed buffer — one less full read pass per slot, and
/// identical sums (untouched spans keep their zeros).
#[allow(clippy::too_many_arguments)]
fn fold_rank(
    model: &TaskModel,
    input: &StepInput<'_>,
    rank: usize,
    ctx_seed: u64,
    g: &mut Graph,
    bucket: &mut GradBucket,
    first: bool,
    acc: Option<&PhaseAcc>,
) -> MetricMap {
    // Thread-local span timing: each rank thread accumulates its own
    // forward/backward/fold nanoseconds into the shared atomic bank; the
    // caller apportions the thread-sums onto the fold section's wall time
    // so parallel rank execution doesn't inflate the phase split.
    let fwd = acc.map(|a| Span::new(a, Phase::Forward));
    let owned;
    let batch: &Batch = match input {
        StepInput::Samples { samples, per_rank } => {
            owned = collate(&samples[rank * per_rank..(rank + 1) * per_rank]);
            &owned
        }
        StepInput::Collated(batches) => &batches[rank],
    };
    let mut ctx = ForwardCtx::train(ctx_seed);
    let (loss, metrics) = model.forward_into(g, batch, &mut ctx);
    drop(fwd);

    let bwd = acc.map(|a| Span::new(a, Phase::Backward));
    g.backward(loss);
    drop(bwd);

    let red = acc.map(|a| Span::new(a, Phase::Allreduce));
    for (id, grad) in g.param_grads() {
        if first {
            bucket.copy_span(id, grad.as_slice());
        } else {
            bucket.add_span(id, grad.as_slice(), 1.0);
        }
    }
    drop(red);
    metrics
}

/// One reduce slot's persistent state: the reusable tape its virtual
/// ranks stream through, and the slot output the parallel dispatch
/// writes in place (the rayon stub's `for_each` takes a `Fn`, so results
/// can't be collected through the closure).
pub(crate) struct Slot {
    pub(crate) graph: Graph,
    pub(crate) out: Option<(GradBucket, Vec<MetricMap>)>,
}

/// Reusable per-slot tapes threaded through [`ddp_step_pooled`]. A caller
/// that holds one across its step loop (as [`crate::Trainer`] does) never
/// constructs a tape per step: each slot's graph is reset, re-recorded
/// from pooled buffers, and kept.
#[derive(Default)]
pub struct DdpTapes {
    pub(crate) slots: Vec<Slot>,
}

impl DdpTapes {
    /// No tapes yet; slots are created on first use and kept thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total nodes currently recorded across all slot tapes.
    pub fn tape_nodes(&self) -> usize {
        self.slots.iter().map(|s| s.graph.len()).sum()
    }

    /// Ensure at least `slots` reusable tapes exist.
    pub(crate) fn grow_to(&mut self, slots: usize) {
        while self.slots.len() < slots {
            self.slots.push(Slot { graph: Graph::new(), out: None });
        }
    }
}

/// Split `wall_ns` across phases in proportion to the thread-summed
/// nanoseconds each phase accumulated (u128 arithmetic; the remainder
/// lands on the last phase so the parts sum exactly to `wall_ns`).
pub(crate) fn apportion_wall(wall_ns: u64, thread_ns: &[u64]) -> Vec<u64> {
    let total: u128 = thread_ns.iter().map(|&n| n as u128).sum();
    if total == 0 {
        return vec![0; thread_ns.len()];
    }
    let mut out = Vec::with_capacity(thread_ns.len());
    let mut assigned = 0u64;
    for (i, &n) in thread_ns.iter().enumerate() {
        let share = if i + 1 == thread_ns.len() {
            wall_ns - assigned
        } else {
            ((wall_ns as u128 * n as u128) / total) as u64
        };
        assigned += share;
        out.push(share);
    }
    out
}

/// Execute one DDP training step: shard, per-rank forward/backward,
/// bucketed gradient allreduce into `model.params` (the caller zeroes
/// grads before and steps the optimizer after). Returns rank-averaged
/// metrics.
///
/// Panics unless `samples.len() == world_size * per_rank_batch` — equal
/// shards are the DDP contract (samplers pad/drop to enforce it).
pub fn ddp_step(model: &mut TaskModel, samples: &[Sample], cfg: &DdpConfig, step: u64) -> MetricMap {
    ddp_step_observed(model, samples, cfg, step, &Obs::disabled())
}

/// [`ddp_step`] with instrumentation: when `obs` is enabled, the step's
/// forward/backward/allreduce wall time is recorded into the recorder's
/// [`PhaseAcc`] (rank-thread times apportioned onto the fold section's
/// wall clock, so the phase split stays honest under parallel rank
/// execution) and the simulated comm volume is counted under
/// [`COMM_ALLREDUCE_BYTES`] (ring payload, `2·(N−1)/N ×` bucket bytes)
/// and [`COMM_GRAD_BYTES`] (raw flat-gradient bytes). Disabled `obs`
/// takes the exact untimed path of [`ddp_step`].
pub fn ddp_step_observed(
    model: &mut TaskModel,
    samples: &[Sample],
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
) -> MetricMap {
    ddp_step_pooled(model, samples, cfg, step, obs, &mut DdpTapes::new())
}

/// [`ddp_step_observed`] over caller-owned tapes: the pooled hot path.
/// Each reduce slot reuses one persistent [`Graph`] for all of its
/// streamed virtual ranks, and across calls when the caller keeps the
/// [`DdpTapes`] alive — no per-step tape construction. When `obs` is
/// enabled the step additionally counts buffer-pool traffic
/// ([`POOL_HITS`], [`POOL_MISSES`], [`POOL_BYTES_RECYCLED`],
/// [`POOL_BYTES_FRESH`]) and recorded tape nodes ([`TAPE_NODES`]), and
/// observes the step's pool hit rate under `pool/hit_rate`.
pub fn ddp_step_pooled(
    model: &mut TaskModel,
    samples: &[Sample],
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
    tapes: &mut DdpTapes,
) -> MetricMap {
    assert_eq!(
        samples.len(),
        cfg.effective_batch(),
        "DDP step needs exactly world_size * per_rank_batch = {} samples, got {}",
        cfg.effective_batch(),
        samples.len()
    );
    let input = StepInput::Samples { samples, per_rank: cfg.per_rank_batch };
    ddp_step_input(model, &input, cfg, step, obs, tapes)
}

/// [`ddp_step_pooled`] over pre-collated per-rank batches — the
/// worker-side collation entry point. Bit-identical to handing the same
/// samples to [`ddp_step_pooled`] (collation is a pure function of the
/// rank's sample chunk; `tests/pipeline_bitwise.rs` pins full
/// trajectories), but the forward span no longer pays for CSR assembly.
///
/// Panics unless `batches.len() == world_size` and every batch holds
/// `per_rank_batch` graphs — the same equal-shard contract as the
/// sample path.
pub fn ddp_step_collated(
    model: &mut TaskModel,
    batches: &[Batch],
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
    tapes: &mut DdpTapes,
) -> MetricMap {
    assert_collated_shape(batches, cfg);
    ddp_step_input(model, &StepInput::Collated(batches), cfg, step, obs, tapes)
}

/// Shared shape check for the pre-collated step entry points.
pub(crate) fn assert_collated_shape(batches: &[Batch], cfg: &DdpConfig) {
    assert_eq!(
        batches.len(),
        cfg.world_size,
        "collated DDP step needs one batch per rank ({} ranks, got {})",
        cfg.world_size,
        batches.len()
    );
    for (rank, b) in batches.iter().enumerate() {
        assert_eq!(
            b.input.num_graphs, cfg.per_rank_batch,
            "rank {rank} batch holds {} graphs, expected per_rank_batch = {}",
            b.input.num_graphs, cfg.per_rank_batch
        );
    }
}

/// The step body shared by the sample and pre-collated entry points.
pub(crate) fn ddp_step_input(
    model: &mut TaskModel,
    input: &StepInput<'_>,
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
    tapes: &mut DdpTapes,
) -> MetricMap {
    let seed_of = |rank: usize| rank_seed(cfg, step, rank);

    let layout = model.params.bucket_layout();
    let slots = reduce_slots(cfg.world_size);
    // Reborrow immutably so the per-slot closure is `Fn` and shareable
    // across the pool; `model.params` is only mutated after all slots
    // finish.
    let shared = &*model;

    // A LOCAL accumulator for the fold section: rank threads write their
    // thread-time here, never into the recorder's own bank, so raw loops
    // that call ddp_step many times (throughput probes) can't leak
    // partial-phase time across steps.
    let local = obs.enabled().then(PhaseAcc::new);
    let t_fold = obs.timer();
    let pool_before = obs.enabled().then(pool_stats);
    let edge_before = obs.enabled().then(edge_stats);
    let simd_before = obs.enabled().then(simd_stats);

    tapes.grow_to(slots);

    // One slot = one resident partial-sum bucket; its ranks fold in rank
    // order, streaming (tape reset before the next rank records).
    let fold_group = |slot: usize, graph: &mut Graph| {
        let mut bucket = GradBucket::zeros(layout.clone());
        let mut metrics = Vec::new();
        let range = rank_range(cfg.world_size, slots, slot);
        let first_rank = range.start;
        for rank in range {
            metrics.push(fold_rank(
                shared,
                input,
                rank,
                seed_of(rank),
                graph,
                &mut bucket,
                rank == first_rank,
                local.as_ref(),
            ));
        }
        (bucket, metrics)
    };

    // The same closure runs either way, and the slot→rank mapping plus the
    // tree below depend only on world_size — so parallel and sequential
    // execution sum in the same bracketing and agree bit-for-bit.
    let state = &mut tapes.slots[..slots];
    if cfg.parallel {
        state.par_chunks_mut(1).enumerate().for_each(|(slot, chunk)| {
            let s = &mut chunk[0];
            s.out = Some(fold_group(slot, &mut s.graph));
        });
    } else {
        for (slot, s) in state.iter_mut().enumerate() {
            s.out = Some(fold_group(slot, &mut s.graph));
        }
    }

    if let Some(acc) = &local {
        // Thread-summed phase time can exceed wall time when slots ran in
        // parallel; scale the sums down onto the section's wall clock so
        // forward+backward+fold still partition real elapsed time.
        let wall = Obs::lap_ns(t_fold);
        let thread_ns = [
            acc.get_ns(Phase::Forward),
            acc.get_ns(Phase::Backward),
            acc.get_ns(Phase::Allreduce),
        ];
        let split = apportion_wall(wall, &thread_ns);
        obs.add_phase_ns(Phase::Forward, split[0]);
        obs.add_phase_ns(Phase::Backward, split[1]);
        obs.add_phase_ns(Phase::Allreduce, split[2]);
    }

    let mut buckets = Vec::with_capacity(slots);
    let mut rank_metrics = Vec::with_capacity(cfg.world_size);
    for s in tapes.slots[..slots].iter_mut() {
        let (bucket, metrics) = s.out.take().expect("every slot folded");
        buckets.push(bucket);
        rank_metrics.extend(metrics);
    }

    // The tree combine + average + scatter is the rest of the allreduce.
    let t_reduce = obs.timer();
    tree_reduce_into_first(&mut buckets);
    let mut total = buckets.swap_remove(0);
    drop(buckets);
    total.scale(1.0 / cfg.world_size as f32);
    model.params.absorb_flat(&total, 1.0);
    obs.add_phase_ns(Phase::Allreduce, Obs::lap_ns(t_reduce));

    if obs.enabled() {
        let grad_bytes = layout.bytes() as u64;
        // Ring allreduce moves 2·(N−1)/N of the payload per rank pair.
        let n = cfg.world_size as u64;
        let wire = if n > 1 { 2 * (n - 1) * grad_bytes / n } else { 0 };
        obs.count(COMM_ALLREDUCE_BYTES, wire);
        obs.count(COMM_GRAD_BYTES, grad_bytes);
        // Buffer-pool traffic this step (deltas of the process-global
        // stats) and tape volume: a steady-state pooled step shows zero
        // misses and a hit rate of 1.0.
        let delta = pool_stats().since(&pool_before.expect("snapshot taken when enabled"));
        obs.count(POOL_HITS, delta.hits);
        obs.count(POOL_MISSES, delta.misses);
        obs.count(POOL_BYTES_RECYCLED, delta.bytes_recycled);
        obs.count(POOL_BYTES_FRESH, delta.bytes_fresh);
        obs.count(TAPE_NODES, tapes.tape_nodes() as u64);
        obs.observe("pool/hit_rate", delta.hit_rate());
        // Fused edge-kernel traffic this step (also process-global deltas):
        // zero with `set_fused_edges(false)`, and bytes_saved measures the
        // gather/sub/mul intermediates the fused lowering never built.
        let edge = edge_stats().since(&edge_before.expect("snapshot taken when enabled"));
        obs.count(EDGE_FUSED_CALLS, edge.fused_calls);
        obs.count(EDGE_BYTES_SAVED, edge.bytes_saved);
        // Lane-tier traffic this step (process-global deltas): lane_ops
        // counts 4-lane groups the vector kernels processed; with
        // `set_simd_enabled(false)` it is zero and every kernel entry
        // lands on fallback_hits instead.
        let simd = simd_stats().since(&simd_before.expect("snapshot taken when enabled"));
        obs.count(SIMD_LANE_OPS, simd.lane_ops);
        obs.count(SIMD_FALLBACK_HITS, simd.fallback_hits);
        // Per-rank collations done inline on this step (the worker-side
        // stage counts its own under data/collate_worker).
        if matches!(input, StepInput::Samples { .. }) {
            obs.count(DATA_COLLATE_INLINE, cfg.world_size as u64);
        }
    }

    MetricMap::mean_of(&rank_metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TargetKind, TaskHeadConfig};
    use matsciml_datasets::{Dataset, DatasetId, GraphTransform, SyntheticMaterialsProject, Transform};
    use matsciml_models::EgnnConfig;
    use matsciml_nn::ParamId;

    fn model() -> TaskModel {
        TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig {
                dropout: 0.0, // determinism across rank counts for the tests
                ..TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)
            }],
            1,
        )
    }

    fn samples(n: usize) -> Vec<Sample> {
        let ds = SyntheticMaterialsProject::new(n, 3);
        let t = GraphTransform::radius(4.0, Some(12));
        (0..n).map(|i| t.apply(ds.sample(i))).collect()
    }

    #[test]
    fn sharding_contract_is_enforced() {
        let mut m = model();
        let cfg = DdpConfig {
            world_size: 2,
            per_rank_batch: 2,
            parallel: false,
            seed: 0,
        };
        let s = samples(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ddp_step(&mut m, &s, &cfg, 0)
        }));
        assert!(result.is_err(), "wrong sample count must panic");
    }

    #[test]
    fn gradient_averaging_matches_single_rank_big_batch_when_masks_align() {
        // With a single head and every sample labeled, N ranks of batch B
        // average to the same gradient as 1 rank of batch N·B.
        let s = samples(8);

        let grads_of = |world: usize, per_rank: usize| {
            let mut m = model();
            m.params.zero_grads();
            let cfg = DdpConfig {
                world_size: world,
                per_rank_batch: per_rank,
                parallel: false,
                seed: 7,
            };
            ddp_step(&mut m, &s, &cfg, 0);
            (0..m.params.len())
                .map(|i| m.params.grad(ParamId(i)).clone())
                .collect::<Vec<_>>()
        };

        let ddp = grads_of(4, 2);
        let single = grads_of(1, 8);
        for (a, b) in ddp.iter().zip(&single) {
            let diff: f32 = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f32::max);
            // Tolerance is relative to gradient scale: summation order
            // differs between the two reductions (f32 rounding only).
            let scale = b.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            assert!(
                diff < 1e-4 * scale.max(1.0),
                "DDP gradient deviates from big-batch gradient by {diff} (scale {scale})"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_ranks_agree_bitwise() {
        // The reduction schedule (slot→rank groups + pairwise tree) is a
        // function of world_size alone, so thread execution must not change
        // a single bit of any gradient — including world sizes that don't
        // divide evenly into reduce slots.
        for world in [2usize, 4, 7] {
            let s = samples(world * 2);
            let run = |parallel: bool| {
                let mut m = model();
                m.params.zero_grads();
                let cfg = DdpConfig {
                    world_size: world,
                    per_rank_batch: 2,
                    parallel,
                    seed: 9,
                };
                let metrics = ddp_step(&mut m, &s, &cfg, 5);
                let grads = (0..m.params.len())
                    .map(|i| m.params.grad(ParamId(i)).clone())
                    .collect::<Vec<_>>();
                (metrics, grads)
            };
            let (ma, ga) = run(false);
            let (mb, gb) = run(true);
            assert_eq!(ma.get("loss"), mb.get("loss"), "world {world}");
            for (i, (a, b)) in ga.iter().zip(&gb).enumerate() {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "world {world}: param {i} gradients must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn metrics_are_rank_averaged() {
        let mut m = model();
        let s = samples(4);
        let cfg = DdpConfig {
            world_size: 2,
            per_rank_batch: 2,
            parallel: false,
            seed: 1,
        };
        let metrics = ddp_step(&mut m, &s, &cfg, 0);
        assert!(metrics.get("loss").unwrap().is_finite());
        assert!(metrics.get("materials-project/band_gap/mae").is_some());
    }
}
