//! Overlapped backward↔allreduce: the bucket-ready DDP scheduler.
//!
//! [`ddp_step_pooled`](crate::ddp_step_pooled) runs backward and the
//! gradient reduction as two strictly sequential phases — every
//! microsecond of tree-reduce time sits exposed on the critical path.
//! This module hides most of it behind the tail of backward, the way
//! production data-parallel trainers do with gradient bucketing:
//!
//! 1. the flat [`BucketLayout`](matsciml_nn::BucketLayout) is split into
//!    size-capped buckets ordered by **reverse parameter-touch order**
//!    ([`PartitionedLayout::by_reverse_touch`]) — the parameters whose
//!    gradients finalize first land in bucket 0;
//! 2. each reduce slot streams its virtual ranks through one reusable
//!    tape exactly as the pooled path does, but backward runs with a
//!    [bucket-ready hook](matsciml_autograd::Graph::backward_with_hook):
//!    a per-bucket countdown of expected leaf occurrences (sized by a
//!    forward-only tape scan,
//!    [`param_leaves_upto`](matsciml_autograd::Graph::param_leaves_upto))
//!    fires the moment the last gradient a bucket covers is finalized;
//! 3. the slot's **last** rank ships each finished bucket over a channel
//!    to a dedicated comm-worker thread, which tree-reduces a bucket
//!    across slots as soon as every slot has delivered it — while
//!    earlier-layer backward work is still executing on the rank
//!    threads;
//! 4. after all folds return, the caller joins the worker and scatters
//!    the reduced buckets into the parameter store
//!    ([`absorb_flat_part`](matsciml_nn::ParamSet::absorb_flat_part)).
//!
//! # Why the trajectory is bit-identical to the sequential path
//!
//! Overlap changes *when* a bucket reduces, never *how*. Every
//! arithmetic step is elementwise within a parameter span, and spans are
//! disjoint, so splitting the flat bucket into K parts changes no sums:
//!
//! * per-slot folds stream ranks **in rank order** (`copy_span` for the
//!   slot's first rank, `add_span` after) — the same order, per span, as
//!   the pooled fold;
//! * each part is combined across slots by the same stride-doubling
//!   pairwise tree ([`tree_reduce_into_first`]), and slot order is fixed
//!   by world size — the bracketing per span is unchanged;
//! * the `1/world` scale and the final scatter are per-span `scale` /
//!   `axpy`, identical to one whole-layout `absorb_flat`.
//!
//! The `overlap_bitwise` integration test and the in-module tests assert
//! exact gradient equality against [`ddp_step_pooled`](crate::ddp_step_pooled)
//! at worlds {2, 4, 7}, parallel and sequential.
//!
//! # What the run record shows
//!
//! The step observes three histograms when `obs` is enabled:
//! [`DDP_EXPOSED_COMM_MS`] (reduce time left on the critical path:
//! join-wait after backward plus the final scatter),
//! [`DDP_OVERLAPPED_COMM_MS`] (worker reduce time hidden under
//! backward), and [`DDP_OVERLAP_FRAC`] (hidden / total reduce time).

use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use matsciml_autograd::Graph;
use matsciml_datasets::Sample;
use matsciml_nn::bucket::{rank_range, reduce_slots, tree_reduce_into_first, GradBucket};
use matsciml_nn::{ForwardCtx, PartitionedLayout};
use matsciml_obs::{Obs, Phase, PhaseAcc, Span};
use matsciml_tensor::{edge_stats, pool_stats, simd_stats};
use rayon::prelude::*;

use crate::collate::{collate, Batch, DATA_COLLATE_INLINE};
use crate::ddp::{
    apportion_wall, assert_collated_shape, rank_seed, DdpConfig, DdpTapes, StepInput,
    COMM_ALLREDUCE_BYTES, COMM_GRAD_BYTES, EDGE_BYTES_SAVED, EDGE_FUSED_CALLS, POOL_BYTES_FRESH,
    POOL_BYTES_RECYCLED, POOL_HITS, SIMD_FALLBACK_HITS, SIMD_LANE_OPS, POOL_MISSES, TAPE_NODES,
};
use crate::metrics::MetricMap;
use crate::model::TaskModel;

/// Histogram name for reduce time exposed on the critical path per step
/// (milliseconds): the join-wait after backward plus the final scatter.
pub const DDP_EXPOSED_COMM_MS: &str = "ddp/exposed_comm_ms";
/// Histogram name for comm-worker reduce time hidden under backward per
/// step (milliseconds).
pub const DDP_OVERLAPPED_COMM_MS: &str = "ddp/overlapped_comm_ms";
/// Histogram name for the fraction of reduce time hidden under backward
/// per step (0..=1).
pub const DDP_OVERLAP_FRAC: &str = "ddp/overlap_frac";

/// Size cap per gradient bucket: 256 KiB (64Ki f32 scalars), small enough
/// that several buckets finalize before backward ends on the paper-shape
/// EGNN, large enough that per-bucket channel traffic stays negligible.
pub const BUCKET_CAP_BYTES: usize = 256 * 1024;

/// One ready bucket in flight from a rank slot to the comm worker.
struct PartMsg {
    part: usize,
    num_parts: usize,
    slot: usize,
    bucket: GradBucket,
}

/// Drain ready buckets; tree-reduce a part across slots as soon as all
/// `slots` copies of it have arrived. Returns the reduced (and
/// `1/world`-scaled) bucket per part plus the nanoseconds actually spent
/// reducing — the time the overlap is hiding.
fn comm_worker(
    rx: Receiver<PartMsg>,
    slots: usize,
    world: usize,
) -> (Vec<Option<GradBucket>>, u64) {
    let mut staged: Vec<Vec<Option<GradBucket>>> = Vec::new();
    let mut arrived: Vec<usize> = Vec::new();
    let mut reduced: Vec<Option<GradBucket>> = Vec::new();
    let mut busy_ns = 0u64;
    for msg in rx {
        if staged.is_empty() {
            staged = (0..msg.num_parts)
                .map(|_| (0..slots).map(|_| None).collect())
                .collect();
            arrived = vec![0; msg.num_parts];
            reduced = (0..msg.num_parts).map(|_| None).collect();
        }
        debug_assert!(
            staged[msg.part][msg.slot].is_none(),
            "slot {} shipped part {} twice",
            msg.slot,
            msg.part
        );
        staged[msg.part][msg.slot] = Some(msg.bucket);
        arrived[msg.part] += 1;
        if arrived[msg.part] == slots {
            let t0 = Instant::now();
            // Slot order is fixed by world size, and the tree bracketing by
            // the slot count — identical sums to the sequential path.
            let mut group: Vec<GradBucket> = staged[msg.part]
                .iter_mut()
                .map(|o| o.take().expect("all slots arrived"))
                .collect();
            tree_reduce_into_first(&mut group);
            let mut total = group.swap_remove(0);
            drop(group);
            total.scale(1.0 / world as f32);
            reduced[msg.part] = Some(total);
            busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    (reduced, busy_ns)
}

/// Per-slot dispatch cell: the slot's reusable tape plus the step-local
/// I/O the parallel closure reads and writes in place (the rayon stub's
/// `for_each` takes a `Fn`; the channel sender is `Send` but not `Sync`,
/// so each slot owns its own clone up front).
struct OvWork<'a> {
    graph: &'a mut Graph,
    tx: Option<Sender<PartMsg>>,
    metrics: Vec<MetricMap>,
    plan: Option<PartitionedLayout>,
}

/// Stream one slot's virtual ranks through its tape, folding gradients
/// into per-part buckets from inside the backward hook and shipping each
/// bucket to the comm worker the moment the slot's last rank finalizes
/// it.
#[allow(clippy::too_many_arguments)]
fn fold_group_overlapped(
    slot: usize,
    slots: usize,
    w: &mut OvWork<'_>,
    model: &TaskModel,
    input: &StepInput<'_>,
    numels: &[usize],
    cfg: &DdpConfig,
    step: u64,
    acc: Option<&PhaseAcc>,
) {
    let tx = w.tx.take().expect("sender installed before dispatch");
    let graph = &mut *w.graph;
    let range = rank_range(cfg.world_size, slots, slot);
    let (first_rank, last_rank) = (range.start, range.end - 1);
    let mut buckets: Vec<Option<GradBucket>> = Vec::new();

    for rank in range {
        let fwd = acc.map(|a| Span::new(a, Phase::Forward));
        let owned;
        let batch: &Batch = match input {
            StepInput::Samples { samples, per_rank } => {
                owned = collate(&samples[rank * per_rank..(rank + 1) * per_rank]);
                &owned
            }
            StepInput::Collated(batches) => &batches[rank],
        };
        let mut ctx = ForwardCtx::train(rank_seed(cfg, step, rank));
        let (loss, metrics) = model.forward_into(graph, batch, &mut ctx);
        drop(fwd);

        // Every slot derives the identical partition from its first rank's
        // tape (the model structure, hence the touch order, is the same on
        // every rank); a mismatch would trip the layout assertions in the
        // worker's `GradBucket::add`.
        if w.plan.is_none() {
            let touch: Vec<usize> = graph.param_leaves_upto(loss).collect();
            let plan = PartitionedLayout::by_reverse_touch(numels, &touch, BUCKET_CAP_BYTES);
            buckets = plan
                .parts()
                .map(|part| Some(GradBucket::zeros(part.layout().clone())))
                .collect();
            w.plan = Some(plan);
        }
        let plan = w.plan.as_ref().expect("plan derived on first rank");

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
        // the rank thread between VJP evaluations, and the reduce work it
        // overlaps is accounted separately via the comm worker.
        let bwd = acc.map(|a| Span::new(a, Phase::Backward));
        graph.backward_with_hook(loss, |id, grad| {
            let (p, s) = plan.locate(id);
            if let Some(g) = grad {
                let b = buckets[p].as_mut().expect("bucket not yet shipped");
                if first {
                    b.copy_span(s, g.as_slice());
                } else {
                    b.add_span(s, g.as_slice(), 1.0);
                }
            }
            remaining[p] -= 1;
            if remaining[p] == 0 && last {
                let bucket = buckets[p].take().expect("bucket ready to ship");
                let msg = PartMsg { part: p, num_parts: plan.num_parts(), slot, bucket };
                tx.send(msg).expect("comm worker alive");
            }
        });
        drop(bwd);

        if last {
            // Parts with zero expected leaves this tape (untouched
            // parameters packed into the final bucket) never see a
            // countdown transition — ship their zero buckets now.
            for (p, b) in buckets.iter_mut().enumerate() {
                if let Some(bucket) = b.take() {
                    let msg = PartMsg { part: p, num_parts: plan.num_parts(), slot, bucket };
                    tx.send(msg).expect("comm worker alive");
                }
            }
        }
        w.metrics.push(metrics);
    }
    // `tx` drops here; the worker's receive loop ends once every slot's
    // sender is gone.
}

/// [`ddp_step_pooled`](crate::ddp_step_pooled) with the reduction
/// overlapped under backward: per-rank forward/backward over the same
/// reusable slot tapes, but gradients fold into size-capped buckets from
/// inside a backward hook and a dedicated comm-worker thread tree-reduces
/// each bucket across slots as soon as it is ready — while earlier-layer
/// backward work is still running. Bit-identical trajectories to the
/// sequential path (see the module docs for the argument); only the
/// schedule changes.
///
/// Observes [`DDP_EXPOSED_COMM_MS`], [`DDP_OVERLAPPED_COMM_MS`], and
/// [`DDP_OVERLAP_FRAC`] when `obs` is enabled, alongside the same
/// comm/pool/tape counters as the pooled step.
pub fn ddp_step_overlapped(
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
    ddp_step_overlapped_input(model, &input, cfg, step, obs, tapes)
}

/// [`ddp_step_overlapped`] over pre-collated per-rank batches — the
/// worker-side collation entry point for the overlapped scheduler. Same
/// bit-identity contract as [`crate::ddp::ddp_step_collated`]: collation
/// is a pure function of the rank's sample chunk, so trajectories match
/// the sample path exactly (pinned by `tests/pipeline_bitwise.rs`).
pub fn ddp_step_overlapped_collated(
    model: &mut TaskModel,
    batches: &[Batch],
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
    tapes: &mut DdpTapes,
) -> MetricMap {
    assert_collated_shape(batches, cfg);
    ddp_step_overlapped_input(model, &StepInput::Collated(batches), cfg, step, obs, tapes)
}

/// The overlapped step body shared by the sample and pre-collated entry
/// points.
fn ddp_step_overlapped_input(
    model: &mut TaskModel,
    input: &StepInput<'_>,
    cfg: &DdpConfig,
    step: u64,
    obs: &Obs,
    tapes: &mut DdpTapes,
) -> MetricMap {
    let layout = model.params.bucket_layout();
    let numels: Vec<usize> = (0..layout.num_spans()).map(|i| layout.span(i).1).collect();
    let slots = reduce_slots(cfg.world_size);
    let shared = &*model;

    let local = obs.enabled().then(PhaseAcc::new);
    let pool_before = obs.enabled().then(pool_stats);
    let edge_before = obs.enabled().then(edge_stats);
    let simd_before = obs.enabled().then(simd_stats);
    tapes.grow_to(slots);

    let (tx, rx) = std::sync::mpsc::channel::<PartMsg>();
    let mut work: Vec<OvWork> = tapes.slots[..slots]
        .iter_mut()
        .map(|s| OvWork {
            graph: &mut s.graph,
            tx: Some(tx.clone()),
            metrics: Vec::new(),
            plan: None,
        })
        .collect();
    drop(tx);

    let (reduced, busy_ns, wait_ns) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| comm_worker(rx, slots, cfg.world_size));

        let t_fold = obs.timer();
        let run_slot = |slot: usize, w: &mut OvWork| {
            fold_group_overlapped(
                slot,
                slots,
                w,
                shared,
                input,
                &numels,
                cfg,
                step,
                local.as_ref(),
            );
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
            // Only forward/backward thread time exists during the fold
            // section here — the reduce runs on the worker and is timed
            // separately below.
            let wall = Obs::lap_ns(t_fold);
            let thread_ns = [acc.get_ns(Phase::Forward), acc.get_ns(Phase::Backward)];
            let split = apportion_wall(wall, &thread_ns);
            obs.add_phase_ns(Phase::Forward, split[0]);
            obs.add_phase_ns(Phase::Backward, split[1]);
        }

        // Backward is done everywhere; whatever the worker still has left
        // is the exposed part of the reduction.
        let t_wait = Instant::now();
        let (reduced, busy_ns) = worker.join().expect("comm worker panicked");
        let wait_ns = t_wait.elapsed().as_nanos() as u64;
        (reduced, busy_ns, wait_ns)
    });

    // The scope has ended, releasing the shared borrow of `model`: scatter
    // the reduced buckets into the gradient accumulators — per span this
    // is the same `axpy` as the pooled path's single `absorb_flat`.
    let t_scatter = Instant::now();
    let plan = work[0].plan.take().expect("slot 0 derived a plan");
    let mut rank_metrics = Vec::with_capacity(cfg.world_size);
    for w in work {
        rank_metrics.extend(w.metrics);
    }
    for (p, bucket) in reduced.iter().enumerate() {
        let bucket = bucket.as_ref().expect("every part reduced");
        model
            .params
            .absorb_flat_part(plan.part(p).param_ids(), bucket, 1.0);
    }
    drop(reduced);
    let scatter_ns = t_scatter.elapsed().as_nanos() as u64;

    obs.add_phase_ns(Phase::Allreduce, wait_ns + scatter_ns);
    if obs.enabled() {
        let grad_bytes = layout.bytes() as u64;
        let n = cfg.world_size as u64;
        let wire = if n > 1 { 2 * (n - 1) * grad_bytes / n } else { 0 };
        obs.count(COMM_ALLREDUCE_BYTES, wire);
        obs.count(COMM_GRAD_BYTES, grad_bytes);
        let delta = pool_stats().since(&pool_before.expect("snapshot taken when enabled"));
        obs.count(POOL_HITS, delta.hits);
        obs.count(POOL_MISSES, delta.misses);
        obs.count(POOL_BYTES_RECYCLED, delta.bytes_recycled);
        obs.count(POOL_BYTES_FRESH, delta.bytes_fresh);
        obs.count(TAPE_NODES, tapes.tape_nodes() as u64);
        obs.observe("pool/hit_rate", delta.hit_rate());
        let edge = edge_stats().since(&edge_before.expect("snapshot taken when enabled"));
        obs.count(EDGE_FUSED_CALLS, edge.fused_calls);
        obs.count(EDGE_BYTES_SAVED, edge.bytes_saved);
        let simd = simd_stats().since(&simd_before.expect("snapshot taken when enabled"));
        obs.count(SIMD_LANE_OPS, simd.lane_ops);
        obs.count(SIMD_FALLBACK_HITS, simd.fallback_hits);
        // Per-rank collations done inline on this step (the worker-side
        // stage counts its own under data/collate_worker).
        if matches!(input, StepInput::Samples { .. }) {
            obs.count(DATA_COLLATE_INLINE, cfg.world_size as u64);
        }

        let exposed_ns = wait_ns + scatter_ns;
        let overlapped_ns = busy_ns.saturating_sub(wait_ns);
        obs.observe(DDP_EXPOSED_COMM_MS, exposed_ns as f64 / 1e6);
        obs.observe(DDP_OVERLAPPED_COMM_MS, overlapped_ns as f64 / 1e6);
        let frac = if busy_ns > 0 {
            overlapped_ns as f64 / busy_ns as f64
        } else {
            1.0
        };
        obs.observe(DDP_OVERLAP_FRAC, frac);
    }

    MetricMap::mean_of(&rank_metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddp::ddp_step_pooled;
    use crate::task::{TargetKind, TaskHeadConfig};
    use matsciml_datasets::{
        Dataset, DatasetId, GraphTransform, SyntheticMaterialsProject, Transform,
    };
    use matsciml_models::EgnnConfig;
    use matsciml_nn::ParamId;

    fn model() -> TaskModel {
        TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig {
                dropout: 0.0,
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

    fn grads_and_loss(
        step_fn: impl FnOnce(&mut TaskModel, &[Sample], &DdpConfig) -> MetricMap,
        s: &[Sample],
        world: usize,
        parallel: bool,
    ) -> (Vec<Vec<f32>>, f32) {
        let mut m = model();
        m.params.zero_grads();
        let cfg = DdpConfig { world_size: world, per_rank_batch: 2, parallel, seed: 9 };
        let metrics = step_fn(&mut m, s, &cfg);
        let grads = (0..m.params.len())
            .map(|i| m.params.grad(ParamId(i)).as_slice().to_vec())
            .collect();
        (grads, metrics.get("loss").unwrap())
    }

    #[test]
    fn overlapped_matches_pooled_bitwise_at_odd_worlds() {
        // The overlap scheduler may only change WHEN buckets reduce, never
        // the sums: gradients and loss must agree with the sequential
        // pooled path to the last bit, at worlds that exercise one rank
        // per slot (2, 4) and a world that is not a power of two (7).
        for world in [2usize, 4, 7] {
            let s = samples(world * 2);
            for parallel in [false, true] {
                let (gp, lp) = grads_and_loss(
                    |m, s, cfg| ddp_step_pooled(m, s, cfg, 5, &Obs::disabled(), &mut DdpTapes::new()),
                    &s,
                    world,
                    parallel,
                );
                let (go, lo) = grads_and_loss(
                    |m, s, cfg| {
                        ddp_step_overlapped(m, s, cfg, 5, &Obs::disabled(), &mut DdpTapes::new())
                    },
                    &s,
                    world,
                    parallel,
                );
                assert_eq!(lp.to_bits(), lo.to_bits(), "world {world} parallel {parallel}");
                for (i, (a, b)) in gp.iter().zip(&go).enumerate() {
                    assert_eq!(
                        a, b,
                        "world {world} parallel {parallel}: param {i} must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapped_reuses_tapes_across_steps() {
        let s = samples(4);
        let cfg = DdpConfig { world_size: 2, per_rank_batch: 2, parallel: false, seed: 3 };
        let mut m = model();
        let mut tapes = DdpTapes::new();
        for step in 0..3 {
            m.params.zero_grads();
            ddp_step_overlapped(&mut m, &s, &cfg, step, &Obs::disabled(), &mut tapes);
        }
        assert!(tapes.tape_nodes() > 0, "slot tapes must persist across steps");
        // And a fresh-tapes run of the same step agrees exactly.
        let mut m2 = model();
        let mut t2 = DdpTapes::new();
        for step in 0..2 {
            m2.params.zero_grads();
            ddp_step_overlapped(&mut m2, &s, &cfg, step, &Obs::disabled(), &mut t2);
        }
        m2.params.zero_grads();
        let warm = {
            m.params.zero_grads();
            ddp_step_overlapped(&mut m, &s, &cfg, 2, &Obs::disabled(), &mut tapes)
        };
        let cold = ddp_step_overlapped(&mut m2, &s, &cfg, 2, &Obs::disabled(), &mut t2);
        assert_eq!(
            warm.get("loss").unwrap().to_bits(),
            cold.get("loss").unwrap().to_bits()
        );
        for i in 0..m.params.len() {
            assert_eq!(
                m.params.grad(ParamId(i)).as_slice(),
                m2.params.grad(ParamId(i)).as_slice(),
                "param {i}"
            );
        }
    }
}
