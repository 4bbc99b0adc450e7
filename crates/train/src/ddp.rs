//! Simulated distributed data parallelism over flat gradient buckets.
//!
//! A DDP step with world size `N` and per-rank batch `B`:
//!
//! 1. the global batch of `N·B` samples is sharded into `N` rank-chunks;
//! 2. every rank runs forward/backward on its own tape against the shared
//!    (read-only) parameters, exactly as `DistributedDataParallel` replicas
//!    do;
//! 3. rank gradients are reduced and averaged into the parameter store's
//!    gradient arena, overwriting it — the allreduce;
//! 4. the caller applies one optimizer step on the averaged gradient.
//!
//! # Bucketed allreduce
//!
//! The reduction works on **flat gradient buffers** laid out like the
//! parameter store's gradient arena ([`matsciml_nn::bucket`]): every
//! parameter is a span in registration order. The buffer is split into
//! size-capped contiguous parts
//! ([`PartitionedLayout::reverse_registration`], [`BUCKET_CAP_BYTES`])
//! from its end backwards, so the parts whose gradients finalize first in
//! backward come first. The plan is a function of the model alone, so
//! every rank and slot shares it — also when the ranks' batches touch
//! different task heads.
//!
//! Ranks are partitioned into `reduce_slots(N) = min(N,
//! `[`MAX_REDUCE_SLOTS`](matsciml_nn::bucket::MAX_REDUCE_SLOTS)`)`
//! contiguous groups. Each group streams its ranks **in rank order**
//! through one reusable tape. Backward runs with a
//! [grad-finalization hook](matsciml_autograd::Graph::backward_with_hook)
//! that folds each gradient into the slot's fold buffer: the slot's first
//! rank overwrites each span (zero where its tape has no gradient), later
//! ranks add. Slot 0's fold buffer is the parameter store's arena itself;
//! the other slots keep theirs in [`DdpTapes`] across steps. A per-part
//! countdown of the tape's leaf occurrences tells the slot's last rank
//! when a part is complete, and the part's `&mut` range is sent to the
//! reducer. The reducer combines each part across slots in place by a
//! fixed pairwise tree ([`tree_reduce_into_first`]) as soon as every slot
//! has delivered it, into slot 0's range of the arena, and averages it
//! there ([`finish_average`]). Nothing is scattered afterwards: the arena
//! holds the averaged gradient when the step returns.
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
//! Resident gradient memory is `reduce_slots(N) × param-bytes`: the
//! arena plus one fold buffer per other slot — O(threads × param-bytes),
//! independent of `N`. A world-512 step holds at most
//! [`MAX_REDUCE_SLOTS`](matsciml_nn::bucket::MAX_REDUCE_SLOTS) gradient
//! buffers, not 512 rank gradient sets (asserted by the `ddp_memory`
//! integration test via the bucket byte accounting, which counts the
//! persistent fold buffers and, for the length of the step, the arena).
//!
//! # What the run record shows
//!
//! When `obs` is enabled, every step observes [`DDP_EXPOSED_COMM_MS`]
//! (reduce time on the critical path: the wait for the reducer after the
//! folds), [`DDP_OVERLAPPED_COMM_MS`] (reduce time hidden under backward)
//! and [`DDP_OVERLAP_FRAC`] (hidden / total; 0 with overlap off).

use std::borrow::Cow;
use std::sync::mpsc::{Receiver, Sender};

use matsciml_autograd::Graph;
use matsciml_datasets::Sample;
use matsciml_nn::bucket::{
    finish_average, rank_range, reduce_slots, tree_reduce_into_first, GradBucket,
};
use matsciml_nn::{ForwardCtx, PartitionedLayout};
use matsciml_obs::{Obs, Phase, PhaseAcc, Span};
use matsciml_tensor::{edge_stats, kernels, pool_stats, simd_stats};
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
/// Counter name for tape nodes recorded per step: each slot's last tape,
/// summed over slots.
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
/// (milliseconds): the wait for the reducer after the folds.
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

/// Reusable per-slot state threaded through [`ddp_step`]. A caller that
/// holds one across its step loop (as [`crate::Trainer`] does) never
/// constructs a tape or a fold buffer per step: each slot's graph is
/// re-recorded from pooled buffers and released at the end of the slot's
/// fold, and each slot past the first keeps its fold buffer.
#[derive(Default)]
pub struct DdpTapes {
    slots: Vec<Slot>,
    /// The part plan of the model the slots last folded.
    plan: Option<PartitionedLayout>,
}

impl DdpTapes {
    /// No tapes yet; slots are created on first use and kept thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes the last step recorded across all slot tapes (each slot's
    /// last rank; the tapes themselves are already released).
    pub fn tape_nodes(&self) -> usize {
        self.slots.iter().map(|s| s.tape.nodes).sum()
    }
}

/// One reduce slot's state, kept across steps.
#[derive(Default)]
struct Slot {
    tape: SlotTape,
    /// The slot's fold buffer. Slot 0 folds into the parameter store's
    /// gradient arena instead and never allocates one.
    fold: Option<GradBucket>,
}

/// A slot's tape and the per-rank scratch its fold reuses.
#[derive(Default)]
struct SlotTape {
    graph: Graph,
    /// Node count of the last tape the slot recorded.
    nodes: usize,
    /// Per-part countdown of the leaf occurrences still to fire.
    remaining: Vec<usize>,
    /// Per parameter: present on the slot's first tape and not yet
    /// written into the fold buffer.
    unwritten: Vec<bool>,
}

/// One complete part of a slot's fold buffer in flight to the reducer.
struct PartMsg<'a> {
    part: usize,
    slot: usize,
    data: &'a mut [f32],
}

/// Drain complete parts; as soon as all `slots` copies of a part have
/// arrived, tree-reduce them into slot 0's copy (the parameter store's
/// arena) and average it there. Returns the nanoseconds spent reducing
/// (0 unless `timed`).
fn reduce_parts(
    rx: Receiver<PartMsg<'_>>,
    parts: usize,
    slots: usize,
    world: usize,
    timed: bool,
) -> u64 {
    let mut staged: Vec<Vec<Option<&mut [f32]>>> =
        (0..parts).map(|_| (0..slots).map(|_| None).collect()).collect();
    let mut arrived = vec![0usize; parts];
    let mut busy_ns = 0u64;
    for msg in rx {
        debug_assert!(
            staged[msg.part][msg.slot].is_none(),
            "slot {} sent part {} twice",
            msg.slot,
            msg.part
        );
        staged[msg.part][msg.slot] = Some(msg.data);
        arrived[msg.part] += 1;
        if arrived[msg.part] == slots {
            let t0 = timed.then(std::time::Instant::now);
            // Slot order is fixed by world size, and the tree bracketing by
            // the slot count.
            let mut group: Vec<&mut [f32]> = staged[msg.part]
                .iter_mut()
                .map(|o| o.take().expect("all slots arrived"))
                .collect();
            tree_reduce_into_first(&mut group);
            finish_average(group.swap_remove(0), world);
            busy_ns += Obs::lap_ns(t0);
        }
    }
    assert!(arrived.iter().all(|&a| a == slots), "a part was never delivered");
    busy_ns
}

/// Per-slot dispatch cell: the slot's tape and scratch plus the step-local
/// I/O the parallel closure reads and writes in place (the rayon stub's
/// `for_each` takes a `Fn`; the channel sender is `Send` but not `Sync`,
/// so each slot owns its own clone up front).
struct SlotWork<'a> {
    tape: &'a mut SlotTape,
    /// The slot's fold buffer split into its parts, until each is sent.
    parts: Vec<Option<&'a mut [f32]>>,
    tx: Option<Sender<PartMsg<'a>>>,
    metrics: Vec<MetricMap>,
}

/// Stream one slot's virtual ranks through its tape, folding gradients
/// into the slot's fold buffer from inside the backward hook and sending
/// each part to the reducer the moment the slot's last rank completes it.
/// The slot's first rank overwrites every span (with zero where its tape
/// has no gradient), so nothing of an earlier step survives; later ranks
/// add. The tape is released at the end, on the thread that recorded it.
#[allow(clippy::too_many_arguments)]
fn fold_slot<'a>(
    slot: usize,
    slots: usize,
    w: &mut SlotWork<'a>,
    model: &TaskModel,
    input: StepInput<'_>,
    plan: &PartitionedLayout,
    cfg: &DdpConfig,
    step: u64,
    acc: Option<&PhaseAcc>,
) {
    let tx = w.tx.take().expect("sender installed before dispatch");
    let SlotTape { graph, nodes, remaining, unwritten } = &mut *w.tape;
    let parts = &mut w.parts;
    let range = rank_range(cfg.world_size, slots, slot);
    let (first_rank, last_rank) = (range.start, range.end - 1);
    let send = |part: usize, data: &'a mut [f32]| {
        tx.send(PartMsg { part, slot, data }).expect("reducer alive");
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
        let first = rank == first_rank;
        let last = rank == last_rank;
        remaining.clear();
        remaining.resize(plan.num_parts(), 0);
        unwritten.clear();
        unwritten.resize(if first { plan.layout().num_spans() } else { 0 }, false);
        for id in graph.param_leaves_upto(loss) {
            remaining[plan.locate(id).0] += 1;
            if first {
                unwritten[id] = true;
            }
        }
        // The first rank's zero for spans absent from its tape (the heads
        // of datasets outside its batch, say).
        for (id, _) in unwritten.iter().enumerate().filter(|(_, present)| !**present) {
            let (p, r) = plan.locate(id);
            parts[p].as_deref_mut().expect("no part sent yet")[r].fill(0.0);
        }

        // The in-hook fold rides inside the Backward span: it happens on
        // the rank thread between VJP evaluations.
        let bwd = acc.map(|a| Span::new(a, Phase::Backward));
        graph.backward_with_hook(loss, |id, grad| {
            let (p, r) = plan.locate(id);
            let dst = &mut parts[p].as_deref_mut().expect("part not yet sent")[r];
            if first && std::mem::take(&mut unwritten[id]) {
                match grad {
                    Some(g) => dst.copy_from_slice(g.as_slice()),
                    None => dst.fill(0.0),
                }
            } else if let Some(g) = grad {
                kernels::vadd(dst, g.as_slice());
            }
            remaining[p] -= 1;
            if remaining[p] == 0 && last {
                send(p, parts[p].take().expect("part complete"));
            }
        });
        drop(bwd);
        w.metrics.push(metrics);
    }
    // Parts no leaf of the last rank's tape touches (untouched heads, say)
    // never see a countdown transition: send them as they stand.
    for (p, part) in parts.iter_mut().enumerate() {
        if let Some(data) = part.take() {
            send(p, data);
        }
    }
    // Release the tape here rather than at the next step's reset: its
    // buffers return to this thread's pool free-list, where the next
    // recording on this thread takes them, and the parameter values lose
    // their last extra handle, so the optimizer updates them in place.
    *nodes = graph.len();
    graph.reset();
    // `tx` drops here; the reducer's receive loop ends once every slot's
    // sender is gone.
}

/// Execute one DDP training step: shard, per-rank forward/backward, and
/// a bucketed gradient allreduce that **overwrites** `model.params`'
/// gradient arena with the rank average (the caller steps the optimizer
/// after; there is nothing to zero before). Returns rank-averaged
/// metrics.
///
/// Every gradient is written, including an exact `0.0` for parameters no
/// rank's tape touched, so the arena never carries anything over from an
/// earlier step.
///
/// `tapes` holds the per-slot tapes and fold buffers; a caller that keeps
/// it across steps records every step onto the same graphs and folds
/// into the same buffers. With `cfg.overlap` the part reducer runs on a
/// comm thread under backward, otherwise inline after the folds —
/// bit-identical either way.
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
    let slots = reduce_slots(cfg.world_size);
    let layout = model.params.bucket_layout();
    if tapes.plan.as_ref().is_none_or(|plan| plan.layout() != layout) {
        // A new model: the old slots' fold buffers have the wrong layout.
        tapes.plan = Some(PartitionedLayout::reverse_registration(layout, BUCKET_CAP_BYTES));
        tapes.slots.clear();
    }
    if tapes.slots.len() < slots {
        tapes.slots.resize_with(slots, Slot::default);
    }

    // A LOCAL accumulator for the fold section: rank threads write their
    // thread-time here, never into the recorder's own bank, so raw loops
    // that call ddp_step many times (throughput probes) can't leak
    // partial-phase time across steps.
    let local = obs.enabled().then(PhaseAcc::new);
    let pool_before = obs.enabled().then(pool_stats);
    let edge_before = obs.enabled().then(edge_stats);
    let simd_before = obs.enabled().then(simd_stats);

    // Slot 0 folds straight into the arena, moved out of the store while
    // the ranks read the parameter values through a shared borrow, and
    // counted as a bucket for the step. A step that panicked (and was
    // caught) left the store without one; every span is overwritten
    // below, so a zeroed arena serves.
    let mut arena = model.params.take_grads();
    let shared = &*model;
    let scalars = shared.params.num_scalars();
    arena.resize(scalars, 0.0);
    let mut arena = GradBucket::new(arena);
    let plan = tapes.plan.as_ref().expect("plan built above");
    let (tx, rx) = std::sync::mpsc::channel::<PartMsg>();
    let mut arena_buf = Some(arena.as_mut_slice());
    let mut work = Vec::with_capacity(slots);
    for slot in &mut tapes.slots[..slots] {
        let buf = match arena_buf.take() {
            Some(arena) => arena,
            None => slot.fold.get_or_insert_with(|| GradBucket::new(vec![0.0; scalars])).as_mut_slice(),
        };
        work.push(SlotWork {
            tape: &mut slot.tape,
            parts: plan.split_mut(buf),
            tx: Some(tx.clone()),
            metrics: Vec::new(),
        });
    }
    drop(tx);
    let reduce = || reduce_parts(rx, plan.num_parts(), slots, cfg.world_size, obs.enabled());

    // The slot→rank mapping and the per-part tree depend only on
    // world_size, so every schedule sums in the same bracketing.
    let fold_all = |work: &mut [SlotWork]| {
        let t_fold = obs.timer();
        let run_slot = |slot: usize, w: &mut SlotWork| {
            fold_slot(slot, slots, w, shared, input, plan, cfg, step, local.as_ref());
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
    let (busy_ns, exposed_ns) = if cfg.overlap {
        std::thread::scope(|scope| {
            let worker = scope.spawn(reduce);
            fold_all(&mut work);
            let t_wait = obs.timer();
            let busy_ns = worker.join().expect("comm worker panicked");
            (busy_ns, Obs::lap_ns(t_wait))
        })
    } else {
        fold_all(&mut work);
        let t_wait = obs.timer();
        let busy_ns = reduce();
        (busy_ns, Obs::lap_ns(t_wait))
    };
    obs.add_phase_ns(Phase::Allreduce, exposed_ns);

    let mut rank_metrics = Vec::with_capacity(cfg.world_size);
    for w in work {
        rank_metrics.extend(w.metrics);
    }
    model.params.restore_grads(arena.into_vec());

    if obs.enabled() {
        let grad_bytes = model.params.bucket_layout().bytes() as u64;
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
        // bytes_saved measures the gather/sub/mul intermediates the fused
        // lowering never built.
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

        let overlapped_ns = busy_ns.saturating_sub(exposed_ns);
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
    use matsciml_datasets::{
        Dataset, DatasetId, GraphTransform, SyntheticCarolina, SyntheticMaterialsProject, Transform,
    };
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

    /// One fresh-tape step; returns the loss and the gradient arena's bits.
    fn step_grads(m: &mut TaskModel, s: &[Sample], cfg: &DdpConfig, step: u64) -> (f32, Vec<u32>) {
        let input = StepInput::Samples(s);
        let metrics = ddp_step(m, input, cfg, step, &Obs::disabled(), &mut DdpTapes::new());
        (metrics.get("loss").unwrap(), bits(m.params.grads()))
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
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
    fn a_step_after_a_caught_panic_still_folds() {
        // No head matches a Carolina batch, so the fold panics after the
        // arena has left the store; the next step must not depend on it.
        let mut m = model();
        let t = GraphTransform::radius(4.0, Some(12));
        let cmd = SyntheticCarolina::new(2, 5);
        let foreign: Vec<Sample> = (0..2).map(|i| t.apply(cmd.sample(i))).collect();
        let c = cfg(2, 1, false, false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step_grads(&mut m, &foreign, &c, 0)
        }));
        assert!(caught.is_err(), "a batch no head matches must panic");
        let s = samples(2);
        assert_eq!(step_grads(&mut m, &s, &c, 1), step_grads(&mut model(), &s, &c, 1));
    }

    #[test]
    fn gradient_averaging_matches_single_rank_big_batch_when_masks_align() {
        // With a single head and every sample labeled, N ranks of batch B
        // average to the same gradient as 1 rank of batch N·B.
        let s = samples(8);
        let (mut ddp, mut single) = (model(), model());
        step_grads(&mut ddp, &s, &cfg(4, 2, false, false), 0);
        step_grads(&mut single, &s, &cfg(1, 8, false, false), 0);
        for i in 0..ddp.params.len() {
            let (a, b) = (ddp.params.grad(ParamId(i)), single.params.grad(ParamId(i)));
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
                assert!(grads == g, "{tag}: gradients must be bit-identical");
            }
        }
    }

    #[test]
    fn warm_tapes_match_cold_tapes() {
        // Two heads, and rank batches that move between them: on steps 2
        // and 3 no rank touches one of the heads, whose gradient must then
        // read exactly zero although the persistent buffers held a
        // nonzero one the step before.
        let mp = SyntheticMaterialsProject::new(4, 3);
        let cmd = SyntheticCarolina::new(4, 5);
        let t = GraphTransform::radius(4.0, Some(12));
        let mp: Vec<Sample> = (0..4).map(|i| t.apply(mp.sample(i))).collect();
        let cmd: Vec<Sample> = (0..4).map(|i| t.apply(cmd.sample(i))).collect();
        let steps: [Vec<Sample>; 4] = [
            [&mp[..2], &cmd[..2]].concat(),
            [&cmd[2..], &mp[2..]].concat(),
            mp.clone(),
            cmd.clone(),
        ];
        let two_heads = || {
            let head = |dataset, target| TaskHeadConfig {
                dropout: 0.0,
                ..TaskHeadConfig::regression(dataset, target, 16, 1)
            };
            TaskModel::egnn(
                EgnnConfig::small(8),
                &[
                    head(DatasetId::MaterialsProject, TargetKind::BandGap),
                    head(DatasetId::Carolina, TargetKind::FormationEnergy),
                ],
                1,
            )
        };
        let head_ids = |m: &TaskModel, dataset: &str| -> Vec<ParamId> {
            let prefix = format!("head.{dataset}.");
            (0..m.params.len())
                .map(ParamId)
                .filter(|&id| m.params.name(id).starts_with(&prefix))
                .collect()
        };

        let cfg = cfg(2, 2, false, true);
        let mut warm = two_heads();
        let mut tapes = DdpTapes::new();
        let carolina = head_ids(&warm, "carolina");
        let mp_head = head_ids(&warm, "materials-project");
        assert!(!carolina.is_empty() && !mp_head.is_empty());
        for (step, s) in steps.iter().enumerate() {
            let input = StepInput::Samples(s);
            ddp_step(&mut warm, input, &cfg, step as u64, &Obs::disabled(), &mut tapes);
            assert!(tapes.tape_nodes() > 0, "slot tapes must record every step");
            let (_, cold) = step_grads(&mut two_heads(), s, &cfg, step as u64);
            assert!(bits(warm.params.grads()) == cold, "step {step}: warm tapes diverged");
            let untouched = match step {
                2 => &carolina,
                3 => &mp_head,
                _ => continue,
            };
            for &id in untouched {
                assert!(warm.params.grad(id).iter().all(|g| g.to_bits() == 0), "step {step}");
            }
            let touched = if step == 2 { &mp_head } else { &carolina };
            assert!(touched.iter().any(|&id| warm.params.grad(id).iter().any(|&g| g != 0.0)));
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
