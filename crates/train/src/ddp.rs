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
//! ([`matsciml_nn::bucket`]). The model's parameters, in reverse
//! registration order, are packed into size-capped parts
//! ([`PartitionedLayout::by_reverse_touch`], [`BUCKET_CAP_BYTES`]), so
//! the parts whose gradients finalize first in backward come first. The
//! plan is a function of the model alone, so every rank and slot shares
//! it — also when the ranks' batches touch different task heads.
//!
//! Ranks are partitioned into `reduce_slots(N) = min(N,
//! `[`MAX_REDUCE_SLOTS`](matsciml_nn::bucket::MAX_REDUCE_SLOTS)`)`
//! contiguous groups. Each group streams its ranks **in rank order**
//! through one reusable tape. Backward runs with a
//! [grad-finalization hook](matsciml_autograd::Graph::backward_with_hook)
//! that folds each gradient into the slot's part bucket (`copy_span` for
//! the slot's first rank, `add_span` after); a per-part countdown of the
//! tape's leaf occurrences tells the slot's last rank when a part is
//! complete, and the part is sent to the reducer. The reducer combines
//! each part across slots by a fixed pairwise tree
//! ([`tree_reduce_into_first`]) as soon as every slot has delivered it,
//! scales by `1/N`, and the caller scatters the parts into the parameter
//! store ([`absorb_flat_part`](matsciml_nn::ParamSet::absorb_flat_part)).
//!
//! [`DdpConfig::overlap`] decides only where the reducer runs: on a
//! scoped comm thread while backward is still running on the rank
//! threads, or inline on the caller once every fold has returned.
//!
//! # Determinism
//!
//! The group fold order, the part plan and the tree shape are functions
//! of `world_size` and the model alone — never of the thread schedule —
//! and every arithmetic step is elementwise within a parameter span. So
//! running ranks on the rayon pool or sequentially, and reducing on the
//! comm thread or inline, produce **bit-identical** gradients (the tests
//! and `tests/golden/` assert exact equality). That is what lets a laptop
//! replay the paper's large-batch training-dynamics experiments (Figs. 3
//! and 6) at `N` up to 512 on any core count with one optimizer
//! trajectory.
//!
//! # Memory bound
//!
//! Resident gradient memory during a step is `reduce_slots(N) ×
//! param-bytes` — O(threads × param-bytes), independent of `N`. A
//! world-512 step holds at most
//! [`MAX_REDUCE_SLOTS`](matsciml_nn::bucket::MAX_REDUCE_SLOTS) copies of
//! each part, not 512 rank gradient sets (asserted by the `ddp_memory`
//! integration test via the bucket byte accounting).
//!
//! # What the run record shows
//!
//! When `obs` is enabled, every step observes [`DDP_EXPOSED_COMM_MS`]
//! (reduce time on the critical path: the wait for the reducer after the
//! folds plus the final scatter), [`DDP_OVERLAPPED_COMM_MS`] (reduce time
//! hidden under backward) and [`DDP_OVERLAP_FRAC`] (hidden / total; 0
//! with overlap off).

use std::borrow::Cow;
use std::sync::mpsc::{Receiver, Sender};

use matsciml_autograd::Graph;
use matsciml_datasets::Sample;
use matsciml_nn::bucket::{rank_range, reduce_slots, tree_reduce_into_first, GradBucket};
use matsciml_nn::{ForwardCtx, PartitionedLayout};
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
/// Histogram name for reduce time exposed on the critical path per step
/// (milliseconds): the wait for the reducer after the folds plus the
/// final scatter.
pub const DDP_EXPOSED_COMM_MS: &str = "ddp/exposed_comm_ms";
/// Histogram name for reduce time hidden under backward per step
/// (milliseconds).
pub const DDP_OVERLAPPED_COMM_MS: &str = "ddp/overlapped_comm_ms";
/// Histogram name for the fraction of reduce time hidden under backward
/// per step (0..=1).
pub const DDP_OVERLAP_FRAC: &str = "ddp/overlap_frac";

/// Size cap per gradient bucket: 256 KiB (64Ki f32 scalars), small enough
/// that several buckets finalize before backward ends on the paper-shape
/// EGNN, large enough that per-bucket channel traffic stays negligible.
pub const BUCKET_CAP_BYTES: usize = 256 * 1024;

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
    /// Run the part reducer on a comm thread under backward (true) or
    /// inline after the folds (false). Both produce identical gradients;
    /// only the schedule changes.
    #[serde(default)]
    pub overlap: bool,
}

impl DdpConfig {
    /// Effective (global) batch size `N·B`.
    pub fn effective_batch(&self) -> usize {
        self.world_size * self.per_rank_batch
    }

    /// The per-rank dropout seed for a step: a splitmix-style hash of the
    /// config seed, step, and rank.
    fn rank_seed(&self, step: u64, rank: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step.wrapping_mul(0x85EB_CA6B))
            .wrapping_add(rank as u64)
    }
}

/// What a DDP step consumes: either the raw global sample batch (each
/// rank collates its own chunk inline, inside the Forward span), or
/// per-rank batches already collated elsewhere (by the read-ahead
/// workers). `collate` is a pure function of the sample list and the
/// rank chunks are identical either way, so the two variants produce
/// bit-identical steps; only where the collation cost lands differs.
#[derive(Clone, Copy)]
pub enum StepInput<'a> {
    /// `world_size * per_rank_batch` raw samples; rank `r` collates
    /// `samples[r*per_rank_batch .. (r+1)*per_rank_batch]`.
    Samples(&'a [Sample]),
    /// One pre-collated [`Batch`] of `per_rank_batch` graphs per rank.
    Collated(&'a [Batch]),
}

impl StepInput<'_> {
    /// The equal-shard contract (samplers pad/drop to enforce it).
    fn assert_shape(&self, cfg: &DdpConfig) {
        match self {
            StepInput::Samples(samples) => assert_eq!(
                samples.len(),
                cfg.effective_batch(),
                "DDP step needs exactly world_size * per_rank_batch = {} samples, got {}",
                cfg.effective_batch(),
                samples.len()
            ),
            StepInput::Collated(batches) => {
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
        }
    }

    /// Rank `rank`'s batch, collated here for the sample variant.
    fn batch(&self, rank: usize, per_rank: usize) -> Cow<'_, Batch> {
        match self {
            StepInput::Samples(samples) => {
                Cow::Owned(collate(&samples[rank * per_rank..(rank + 1) * per_rank]))
            }
            StepInput::Collated(batches) => Cow::Borrowed(&batches[rank]),
        }
    }
}

/// Reusable per-slot tapes threaded through [`ddp_step`]. A caller that
/// holds one across its step loop (as [`crate::Trainer`] does) never
/// constructs a tape per step: each slot's graph is reset, re-recorded
/// from pooled buffers, and kept.
#[derive(Default)]
pub struct DdpTapes {
    graphs: Vec<Graph>,
}

impl DdpTapes {
    /// No tapes yet; slots are created on first use and kept thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total nodes currently recorded across all slot tapes.
    pub fn tape_nodes(&self) -> usize {
        self.graphs.iter().map(Graph::len).sum()
    }
}

/// One complete part bucket in flight from a rank slot to the reducer.
struct PartMsg {
    part: usize,
    slot: usize,
    bucket: GradBucket,
}

/// Drain complete part buckets; tree-reduce a part across slots as soon
/// as all `slots` copies of it have arrived. Returns the reduced (and
/// `1/world`-scaled) bucket per part plus the nanoseconds spent reducing
/// (0 unless `timed`).
fn reduce_parts(
    rx: Receiver<PartMsg>,
    parts: usize,
    slots: usize,
    world: usize,
    timed: bool,
) -> (Vec<Option<GradBucket>>, u64) {
    let mut staged: Vec<Vec<Option<GradBucket>>> =
        (0..parts).map(|_| (0..slots).map(|_| None).collect()).collect();
    let mut arrived = vec![0usize; parts];
    let mut reduced: Vec<Option<GradBucket>> = (0..parts).map(|_| None).collect();
    let mut busy_ns = 0u64;
    for msg in rx {
        debug_assert!(
            staged[msg.part][msg.slot].is_none(),
            "slot {} sent part {} twice",
            msg.slot,
            msg.part
        );
        staged[msg.part][msg.slot] = Some(msg.bucket);
        arrived[msg.part] += 1;
        if arrived[msg.part] == slots {
            let t0 = timed.then(std::time::Instant::now);
            // Slot order is fixed by world size, and the tree bracketing by
            // the slot count.
            let mut group: Vec<GradBucket> = staged[msg.part]
                .iter_mut()
                .map(|o| o.take().expect("all slots arrived"))
                .collect();
            tree_reduce_into_first(&mut group);
            let mut total = group.swap_remove(0);
            drop(group);
            total.scale(1.0 / world as f32);
            reduced[msg.part] = Some(total);
            busy_ns += Obs::lap_ns(t0);
        }
    }
    (reduced, busy_ns)
}

/// Per-slot dispatch cell: the slot's reusable tape plus the step-local
/// I/O the parallel closure reads and writes in place (the rayon stub's
/// `for_each` takes a `Fn`; the channel sender is `Send` but not `Sync`,
/// so each slot owns its own clone up front).
struct SlotWork<'a> {
    graph: &'a mut Graph,
    tx: Option<Sender<PartMsg>>,
    metrics: Vec<MetricMap>,
}

/// Stream one slot's virtual ranks through its tape, folding gradients
/// into per-part buckets from inside the backward hook and sending each
/// part to the reducer the moment the slot's last rank completes it.
#[allow(clippy::too_many_arguments)]
fn fold_slot(
    slot: usize,
    slots: usize,
    w: &mut SlotWork<'_>,
    model: &TaskModel,
    input: StepInput<'_>,
    plan: &PartitionedLayout,
    cfg: &DdpConfig,
    step: u64,
    acc: Option<&PhaseAcc>,
) {
    let tx = w.tx.take().expect("sender installed before dispatch");
    let graph = &mut *w.graph;
    let range = rank_range(cfg.world_size, slots, slot);
    let (first_rank, last_rank) = (range.start, range.end - 1);
    let mut buckets: Vec<Option<GradBucket>> = plan
        .parts()
        .map(|part| Some(GradBucket::zeros(part.layout().clone())))
        .collect();
    let send = |part: usize, bucket: GradBucket| {
        tx.send(PartMsg { part, slot, bucket }).expect("reducer alive");
    };

    for rank in range {
        // Thread-local span timing: each rank thread accumulates its own
        // forward/backward nanoseconds into the shared atomic bank; the
        // caller apportions the thread-sums onto the fold section's wall
        // time so parallel rank execution doesn't inflate the phase split.
        let fwd = acc.map(|a| Span::new(a, Phase::Forward));
        let batch = input.batch(rank, cfg.per_rank_batch);
        let mut ctx = ForwardCtx::train(cfg.rank_seed(step, rank));
        let (loss, metrics) = model.forward_into(graph, &batch, &mut ctx);
        drop(fwd);

        // Countdown of leaf occurrences per part for THIS tape — exactly
        // the population the backward hook fires over, so a part's count
        // reaches zero precisely when its last gradient is final.
        let mut remaining = vec![0usize; plan.num_parts()];
        for id in graph.param_leaves_upto(loss) {
            remaining[plan.locate(id).0] += 1;
        }

        let first = rank == first_rank;
        let last = rank == last_rank;
        // The in-hook fold rides inside the Backward span: it happens on
        // the rank thread between VJP evaluations.
        let bwd = acc.map(|a| Span::new(a, Phase::Backward));
        graph.backward_with_hook(loss, |id, grad| {
            let (p, s) = plan.locate(id);
            if let Some(g) = grad {
                let b = buckets[p].as_mut().expect("part not yet sent");
                if first {
                    b.copy_span(s, g.as_slice());
                } else {
                    b.add_span(s, g.as_slice(), 1.0);
                }
            }
            remaining[p] -= 1;
            if remaining[p] == 0 && last {
                send(p, buckets[p].take().expect("part complete"));
            }
        });
        drop(bwd);
        w.metrics.push(metrics);
    }
    // Parts no leaf of the last rank's tape touches (untouched heads, say)
    // never see a countdown transition: send them as they stand.
    for (p, b) in buckets.iter_mut().enumerate() {
        if let Some(bucket) = b.take() {
            send(p, bucket);
        }
    }
    // `tx` drops here; the reducer's receive loop ends once every slot's
    // sender is gone.
}

/// Execute one DDP training step: shard, per-rank forward/backward,
/// bucketed gradient allreduce into `model.params` (the caller zeroes
/// grads before and steps the optimizer after). Returns rank-averaged
/// metrics.
///
/// `tapes` holds the per-slot tapes; a caller that keeps it across steps
/// records every step onto the same graphs. With `cfg.overlap` the part
/// reducer runs on a comm thread under backward, otherwise inline after
/// the folds — bit-identical either way.
///
/// When `obs` is enabled the step records its forward/backward/allreduce
/// wall time (rank-thread times apportioned onto the fold section's wall
/// clock), the simulated comm volume ([`COMM_ALLREDUCE_BYTES`]: ring
/// payload, `2·(N−1)/N ×` bucket bytes; [`COMM_GRAD_BYTES`]: raw
/// flat-gradient bytes), buffer-pool, tape, fused-edge and SIMD traffic,
/// and the `ddp/*` histograms. Disabled `obs` reads no clocks.
///
/// Panics unless `input` holds exactly `world_size` shards of
/// `per_rank_batch` samples.
pub fn ddp_step(
    model: &mut TaskModel,
    input: StepInput<'_>,
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
    tapes: &mut DdpTapes,
) -> MetricMap {
    input.assert_shape(cfg);
    let layout = model.params.bucket_layout();
    let numels: Vec<usize> = (0..layout.num_spans()).map(|i| layout.span(i).1).collect();
    let registration: Vec<usize> = (0..numels.len()).collect();
    let plan = PartitionedLayout::by_reverse_touch(&numels, &registration, BUCKET_CAP_BYTES);
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
    let pool_before = obs.enabled().then(pool_stats);
    let edge_before = obs.enabled().then(edge_stats);
    let simd_before = obs.enabled().then(simd_stats);
    if tapes.graphs.len() < slots {
        tapes.graphs.resize_with(slots, Graph::new);
    }

    let (tx, rx) = std::sync::mpsc::channel::<PartMsg>();
    let mut work: Vec<SlotWork> = tapes.graphs[..slots]
        .iter_mut()
        .map(|graph| SlotWork { graph, tx: Some(tx.clone()), metrics: Vec::new() })
        .collect();
    drop(tx);
    let reduce = || reduce_parts(rx, plan.num_parts(), slots, cfg.world_size, obs.enabled());

    // The slot→rank mapping and the per-part tree depend only on
    // world_size, so every schedule sums in the same bracketing.
    let fold_all = |work: &mut [SlotWork]| {
        let t_fold = obs.timer();
        let run_slot = |slot: usize, w: &mut SlotWork| {
            fold_slot(slot, slots, w, shared, input, &plan, cfg, step, local.as_ref());
        };
        if cfg.parallel {
            work.par_chunks_mut(1)
                .enumerate()
                .for_each(|(slot, chunk)| run_slot(slot, &mut chunk[0]));
        } else {
            for (slot, w) in work.iter_mut().enumerate() {
                run_slot(slot, w);
            }
        }
        if let Some(acc) = &local {
            // Thread-summed phase time can exceed wall time when slots ran
            // in parallel; split the section's wall clock in proportion to
            // the sums so forward+backward still partition elapsed time.
            let wall = Obs::lap_ns(t_fold);
            let fwd = acc.get_ns(Phase::Forward) as u128;
            let total = fwd + acc.get_ns(Phase::Backward) as u128;
            if let Some(fwd_ns) = (wall as u128 * fwd).checked_div(total) {
                let fwd_ns = fwd_ns as u64;
                obs.add_phase_ns(Phase::Forward, fwd_ns);
                obs.add_phase_ns(Phase::Backward, wall - fwd_ns);
            }
        }
    };

    // Whatever reduce work is left once every fold has returned is the
    // exposed part of the reduction.
    let (reduced, busy_ns, wait_ns) = if cfg.overlap {
        std::thread::scope(|scope| {
            let worker = scope.spawn(reduce);
            fold_all(&mut work);
            let t_wait = obs.timer();
            let (reduced, busy_ns) = worker.join().expect("comm worker panicked");
            (reduced, busy_ns, Obs::lap_ns(t_wait))
        })
    } else {
        fold_all(&mut work);
        let t_wait = obs.timer();
        let (reduced, busy_ns) = reduce();
        (reduced, busy_ns, Obs::lap_ns(t_wait))
    };

    // Scatter the reduced parts into the gradient accumulators.
    let t_scatter = obs.timer();
    let mut rank_metrics = Vec::with_capacity(cfg.world_size);
    for w in work {
        rank_metrics.extend(w.metrics);
    }
    for (part, bucket) in plan.parts().zip(&reduced) {
        let bucket = bucket.as_ref().expect("every part reduced");
        model.params.absorb_flat_part(part.param_ids(), bucket, 1.0);
    }
    drop(reduced);
    let exposed_ns = wait_ns + Obs::lap_ns(t_scatter);
    obs.add_phase_ns(Phase::Allreduce, exposed_ns);

    if obs.enabled() {
        let grad_bytes = layout.bytes() as u64;
        // Ring allreduce moves 2·(N−1)/N of the payload per rank pair.
        let n = cfg.world_size as u64;
        let wire = if n > 1 { 2 * (n - 1) * grad_bytes / n } else { 0 };
        obs.count(COMM_ALLREDUCE_BYTES, wire);
        obs.count(COMM_GRAD_BYTES, grad_bytes);
        // Buffer-pool traffic this step (deltas of the process-global
        // stats) and tape volume: a steady-state step shows zero misses
        // and a hit rate of 1.0.
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
        // Per-rank collations done inline on this step (the read-ahead
        // workers count theirs under data/collate_worker).
        if matches!(input, StepInput::Samples(_)) {
            obs.count(DATA_COLLATE_INLINE, cfg.world_size as u64);
        }

        let overlapped_ns = busy_ns.saturating_sub(wait_ns);
        obs.observe(DDP_EXPOSED_COMM_MS, exposed_ns as f64 / 1e6);
        obs.observe(DDP_OVERLAPPED_COMM_MS, overlapped_ns as f64 / 1e6);
        let frac = if busy_ns > 0 { overlapped_ns as f64 / busy_ns as f64 } else { 0.0 };
        obs.observe(DDP_OVERLAP_FRAC, frac);
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

    fn cfg(world_size: usize, per_rank_batch: usize, parallel: bool, overlap: bool) -> DdpConfig {
        DdpConfig { world_size, per_rank_batch, parallel, seed: 9, overlap }
    }

    /// One fresh-tape step; returns the loss and every gradient.
    fn step_grads(
        m: &mut TaskModel,
        s: &[Sample],
        cfg: &DdpConfig,
        step: u64,
    ) -> (f32, Vec<Vec<f32>>) {
        m.params.zero_grads();
        let input = StepInput::Samples(s);
        let metrics = ddp_step(m, input, cfg, step, &Obs::disabled(), &mut DdpTapes::new());
        let grads = (0..m.params.len())
            .map(|i| m.params.grad(ParamId(i)).as_slice().to_vec())
            .collect();
        (metrics.get("loss").unwrap(), grads)
    }

    #[test]
    fn sharding_contract_is_enforced() {
        let mut m = model();
        let s = samples(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step_grads(&mut m, &s, &cfg(2, 2, false, false), 0)
        }));
        assert!(result.is_err(), "wrong sample count must panic");
    }

    #[test]
    fn gradient_averaging_matches_single_rank_big_batch_when_masks_align() {
        // With a single head and every sample labeled, N ranks of batch B
        // average to the same gradient as 1 rank of batch N·B.
        let s = samples(8);
        let (_, ddp) = step_grads(&mut model(), &s, &cfg(4, 2, false, false), 0);
        let (_, single) = step_grads(&mut model(), &s, &cfg(1, 8, false, false), 0);
        for (a, b) in ddp.iter().zip(&single) {
            let diff: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
            // Tolerance is relative to gradient scale: summation order
            // differs between the two reductions (f32 rounding only).
            let scale = b.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            assert!(
                diff < 1e-4 * scale.max(1.0),
                "DDP gradient deviates from big-batch gradient by {diff} (scale {scale})"
            );
        }
    }

    #[test]
    fn every_schedule_agrees_bitwise() {
        // The reduction schedule (slot→rank groups, part plan, pairwise
        // tree) is a function of world_size and the model alone, so rank
        // threads and the comm thread must not change a single bit —
        // including world sizes that don't divide evenly into slots.
        for world in [2usize, 4, 7] {
            let s = samples(world * 2);
            let (loss, grads) = step_grads(&mut model(), &s, &cfg(world, 2, false, false), 5);
            for (parallel, overlap) in [(false, true), (true, false), (true, true)] {
                let (l, g) = step_grads(&mut model(), &s, &cfg(world, 2, parallel, overlap), 5);
                let tag = format!("world {world} parallel {parallel} overlap {overlap}");
                assert_eq!(loss.to_bits(), l.to_bits(), "{tag}");
                for (i, (a, b)) in grads.iter().zip(&g).enumerate() {
                    assert_eq!(a, b, "{tag}: param {i} gradients must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn warm_tapes_match_cold_tapes() {
        let s = samples(4);
        let cfg = cfg(2, 2, false, true);
        let mut warm = model();
        let mut tapes = DdpTapes::new();
        for step in 0..3 {
            warm.params.zero_grads();
            ddp_step(&mut warm, StepInput::Samples(&s), &cfg, step, &Obs::disabled(), &mut tapes);
        }
        assert!(tapes.tape_nodes() > 0, "slot tapes must persist across steps");
        let mut cold = model();
        for step in 0..3 {
            step_grads(&mut cold, &s, &cfg, step);
        }
        for i in 0..warm.params.len() {
            assert_eq!(
                warm.params.grad(ParamId(i)).as_slice(),
                cold.params.grad(ParamId(i)).as_slice(),
                "param {i}"
            );
        }
    }

    #[test]
    fn metrics_are_rank_averaged() {
        let mut m = model();
        let s = samples(4);
        let metrics = ddp_step(
            &mut m,
            StepInput::Samples(&s),
            &cfg(2, 2, false, false),
            0,
            &Obs::disabled(),
            &mut DdpTapes::new(),
        );
        assert!(metrics.get("loss").unwrap().is_finite());
        assert!(metrics.get("materials-project/band_gap/mae").is_some());
    }
}
