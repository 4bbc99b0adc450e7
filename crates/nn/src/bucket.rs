//! Flat gradient buckets: the allreduce substrate for the DDP simulator.
//!
//! A [`BucketLayout`] maps every parameter tensor of a
//! [`ParamSet`](crate::ParamSet) into one contiguous `f32` buffer via
//! `(offset, len)` spans, in registration order: the layout of the store's
//! own gradient arena. A [`GradBucket`] is one such buffer, registered
//! with the byte accounting below. Reducing gradients over N ranks then
//! becomes flat vector adds over a handful of buckets instead of
//! `N × num_params` tensor-granularity operations — one loop, no per-tensor
//! dispatch, no `N × params` resident clones.
//!
//! The reduction schedule is fixed by the world size alone:
//!
//! * ranks are split into [`reduce_slots`]`(world)` contiguous groups
//!   ([`rank_range`]); each group folds its ranks **in rank order** into one
//!   slot buffer as soon as each rank's backward pass finishes (streaming —
//!   the rank's tape is reset before the next rank runs);
//! * slot buffers are then combined part by part ([`PartitionedLayout`])
//!   by a fixed pairwise tree ([`tree_reduce_into_first`]) and averaged
//!   ([`finish_average`]).
//!
//! Because both the group fold order and the tree shape depend only on
//! `world_size`, the summation bracketing never depends on the thread
//! schedule: parallel and sequential execution produce bit-identical sums.
//!
//! Every bucket registers its buffer size with a global live/peak byte
//! counter ([`bucket_bytes_live`] / [`bucket_bytes_peak`]), which is how the
//! tests assert the memory bound: a world-512 DDP step keeps at most
//! `reduce_slots(512) = `[`MAX_REDUCE_SLOTS`] gradient buffers resident —
//! the store's arena, which slot 0 folds into as a bucket for the length
//! of the step ([`GradBucket::new`]), and one persistent bucket per
//! other slot — O(threads × param-bytes), not O(world × param-bytes).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use matsciml_tensor::kernels;

/// Upper bound on simultaneously resident reduction slots (and on useful
/// reduction threads). Matches one dual-socket node's DDP ranks in the
/// paper's setup.
pub const MAX_REDUCE_SLOTS: usize = 16;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes of gradient-bucket buffers currently alive in this process.
pub fn bucket_bytes_live() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`bucket_bytes_live`] since process start (or the
/// last [`reset_bucket_peak`]).
pub fn bucket_bytes_peak() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Reset the peak to the current live count (call before the region whose
/// memory bound you want to measure).
pub fn reset_bucket_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Number of reduction slots (resident partial-sum buckets) for a world
/// size: `min(world_size, MAX_REDUCE_SLOTS)`, at least 1.
pub fn reduce_slots(world_size: usize) -> usize {
    world_size.clamp(1, MAX_REDUCE_SLOTS)
}

/// The contiguous rank range owned by reduction slot `slot` (of `slots`):
/// the first `world_size % slots` slots take one extra rank. Ranges
/// partition `0..world_size` and depend only on the two sizes.
pub fn rank_range(world_size: usize, slots: usize, slot: usize) -> std::ops::Range<usize> {
    assert!(slot < slots && slots <= world_size.max(1));
    let base = world_size / slots;
    let rem = world_size % slots;
    let start = slot * base + slot.min(rem);
    start..start + base + usize::from(slot < rem)
}

/// The span table mapping parameter tensors into one flat buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BucketLayout {
    /// `(offset, len)` per parameter, in registration order.
    spans: Vec<(usize, usize)>,
    total: usize,
}

impl BucketLayout {
    /// Build a layout from per-parameter element counts, packed contiguously
    /// in order.
    pub fn from_numels(numels: &[usize]) -> Self {
        let mut layout = BucketLayout::default();
        for &n in numels {
            layout.push(n);
        }
        layout
    }

    /// Append a span of `len` scalars at the end of the buffer.
    pub fn push(&mut self, len: usize) {
        self.spans.push((self.total, len));
        self.total += len;
    }

    /// Number of parameter spans.
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// `(offset, len)` of span `i`.
    pub fn span(&self, i: usize) -> (usize, usize) {
        self.spans[i]
    }

    /// Scalar range of span `i` in the flat buffer.
    pub fn range(&self, i: usize) -> Range<usize> {
        let (off, len) = self.spans[i];
        off..off + len
    }

    /// Total scalar count across all spans.
    pub fn total_scalars(&self) -> usize {
        self.total
    }

    /// Buffer size in bytes — the wire size of one gradient allreduce.
    pub fn bytes(&self) -> usize {
        self.total * std::mem::size_of::<f32>()
    }
}

/// A [`BucketLayout`] split into K size-capped **contiguous** parts
/// ordered by **reverse registration order** — the allreduce substrate
/// for backward↔comm overlap.
///
/// Parameters register in forward order, and during a reverse sweep
/// gradients finalize in reverse order: the last-registered parameter is
/// ready first. Part 0 therefore covers the tail of the flat buffer and
/// fills while most of backward is still ahead, so a comm worker can
/// reduce it *under* the remaining backward work. Each part is a
/// contiguous run of spans capped at `cap_bytes` (a parameter larger
/// than the cap gets a part of its own), so it is one scalar range of
/// the flat buffer — of the parameter store's gradient arena as much as
/// of a slot's fold buffer.
///
/// Splitting changes no arithmetic: the fold, the pairwise slot tree and
/// the `1/world` average are all elementwise, so K per-part reductions
/// are bit-identical to one whole-buffer reduction — only *when* each
/// span reduces moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedLayout {
    layout: BucketLayout,
    /// Scalar range of each part, part 0 first (the highest offsets).
    parts: Vec<Range<usize>>,
    /// Part of each span.
    part_of: Vec<usize>,
}

impl PartitionedLayout {
    /// Partition `layout` into parts of at most `cap_bytes` (or one
    /// span), packed greedily from the last span backwards.
    pub fn reverse_registration(layout: &BucketLayout, cap_bytes: usize) -> Self {
        let cap = cap_bytes.max(1);
        let mut parts: Vec<Range<usize>> = Vec::new();
        let mut part_of = vec![0; layout.num_spans()];
        for id in (0..layout.num_spans()).rev() {
            let span = layout.range(id);
            let bytes = span.len() * std::mem::size_of::<f32>();
            match parts.last_mut() {
                Some(cur) if (cur.len() * std::mem::size_of::<f32>()) + bytes <= cap => {
                    cur.start = span.start;
                }
                // Otherwise the span opens a new part, so a parameter
                // larger than the cap gets one of its own.
                _ => parts.push(span),
            }
            part_of[id] = parts.len() - 1;
        }
        PartitionedLayout { layout: layout.clone(), parts, part_of }
    }

    /// The per-parameter span table the parts cover.
    pub fn layout(&self) -> &BucketLayout {
        &self.layout
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Scalar range of part `p` in the flat buffer.
    pub fn part(&self, p: usize) -> Range<usize> {
        self.parts[p].clone()
    }

    /// The part holding parameter `id`, and the parameter's scalar range
    /// within that part.
    pub fn locate(&self, id: usize) -> (usize, Range<usize>) {
        let p = self.part_of[id];
        let (span, start) = (self.layout.range(id), self.parts[p].start);
        (p, span.start - start..span.end - start)
    }

    /// Split a flat buffer of this layout into its parts' disjoint
    /// slices, indexed by part.
    pub fn split_mut<'a>(&self, mut buf: &'a mut [f32]) -> Vec<Option<&'a mut [f32]>> {
        assert_eq!(buf.len(), self.layout.total_scalars(), "split_mut: buffer length");
        // Parts run from the end of the buffer to its start.
        self.parts
            .iter()
            .map(|range| {
                let (head, tail) = std::mem::take(&mut buf).split_at_mut(range.start);
                buf = head;
                Some(tail)
            })
            .collect()
    }
}

/// One flat gradient buffer (a DDP slot's fold buffer, or a parameter
/// store's arena for the length of a step), registered with the
/// live/peak byte counters until [`GradBucket::into_vec`] or drop.
#[derive(Debug)]
pub struct GradBucket(Vec<f32>);

impl GradBucket {
    /// Register `buf` with the byte counters.
    pub fn new(buf: Vec<f32>) -> Self {
        let bytes = buf.len() * std::mem::size_of::<f32>();
        let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        GradBucket(buf)
    }

    /// Unregister the buffer and hand it back.
    pub fn into_vec(mut self) -> Vec<f32> {
        let buf = std::mem::take(&mut self.0);
        LIVE_BYTES.fetch_sub(buf.len() * std::mem::size_of::<f32>(), Ordering::Relaxed);
        buf
    }

    /// The whole flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

impl Drop for GradBucket {
    fn drop(&mut self) {
        LIVE_BYTES.fetch_sub(self.0.len() * std::mem::size_of::<f32>(), Ordering::Relaxed);
    }
}

/// Pairwise tree reduction into `slots[0]`: stride-doubling over the slot
/// array (0+=1, 2+=3, …; then 0+=2, 4+=6, …). The summation order is a
/// function of `slots.len()` alone, so any two runs with the same world
/// size — parallel or sequential — sum in the same bracketing.
pub fn tree_reduce_into_first<B: AsMut<[f32]>>(slots: &mut [B]) {
    let n = slots.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (head, tail) = slots.split_at_mut(i + stride);
            kernels::vadd(head[i].as_mut(), tail[0].as_mut());
            i += 2 * stride;
        }
        stride *= 2;
    }
}

/// The last pass of the allreduce: `x ← fl(fl(x · 1/world) + 0.0)` over a
/// reduced part. The `+ 0.0` turns `-0.0` into `+0.0`, which is what
/// adding the average into a zeroed accumulator produces, so a store that
/// takes the average in place holds the same bits as one that
/// accumulated it.
pub fn finish_average(part: &mut [f32], world: usize) {
    let inv = 1.0 / world as f32;
    for x in part {
        *x = *x * inv + 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout3() -> BucketLayout {
        BucketLayout::from_numels(&[2, 3, 1])
    }

    #[test]
    fn layout_packs_contiguously() {
        let l = layout3();
        assert_eq!(l.num_spans(), 3);
        assert_eq!(l.span(0), (0, 2));
        assert_eq!(l.span(1), (2, 3));
        assert_eq!(l.span(2), (5, 1));
        assert_eq!(l.total_scalars(), 6);
        assert_eq!(l.bytes(), 24);
    }

    #[test]
    fn rank_ranges_partition_the_world() {
        for world in [1usize, 2, 4, 7, 16, 17, 512] {
            let slots = reduce_slots(world);
            assert!((1..=MAX_REDUCE_SLOTS).contains(&slots));
            let mut next = 0;
            for slot in 0..slots {
                let r = rank_range(world, slots, slot);
                assert_eq!(r.start, next, "world {world} slot {slot}");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, world);
        }
    }

    #[test]
    fn world_one_gets_one_slot_owning_rank_zero() {
        assert_eq!(reduce_slots(1), 1);
        assert_eq!(rank_range(1, 1, 0), 0..1);
        // world=0 (empty sweep config) still yields one slot; its range is
        // empty rather than panicking.
        assert_eq!(reduce_slots(0), 1);
        assert_eq!(rank_range(0, 1, 0), 0..0);
    }

    #[test]
    fn world_below_slot_cap_gives_one_rank_per_slot() {
        for world in 1..MAX_REDUCE_SLOTS {
            let slots = reduce_slots(world);
            assert_eq!(slots, world, "small worlds get exactly one slot per rank");
            for slot in 0..slots {
                assert_eq!(rank_range(world, slots, slot), slot..slot + 1);
            }
        }
    }

    #[test]
    fn non_divisible_worlds_spread_the_remainder_over_leading_slots() {
        for world in [17usize, 19, 23, 31, 33, 100, 511, 513] {
            let slots = reduce_slots(world);
            assert_eq!(slots, MAX_REDUCE_SLOTS);
            let base = world / slots;
            let rem = world % slots;
            let mut covered = vec![false; world];
            let mut next = 0;
            for slot in 0..slots {
                let r = rank_range(world, slots, slot);
                let want = base + usize::from(slot < rem);
                assert_eq!(r.len(), want, "world {world} slot {slot}");
                assert_eq!(r.start, next, "ranges must be contiguous");
                for rank in r.clone() {
                    assert!(!covered[rank], "rank {rank} assigned twice");
                    covered[rank] = true;
                }
                next = r.end;
            }
            assert_eq!(next, world, "ranges must end at world");
            assert!(covered.iter().all(|&c| c), "every rank must be covered");
        }
    }

    #[test]
    fn partition_packs_contiguous_parts_from_the_end() {
        // params: 0 (2 elems), 1 (3), 2 (1), 3 (4). A cap of 20 bytes = 5
        // floats per part; packing runs 3, 2, 1, 0.
        let layout = BucketLayout::from_numels(&[2, 3, 1, 4]);
        let p = PartitionedLayout::reverse_registration(&layout, 20);
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.part(0), 5..10); // params 3 and 2 (4 + 1 floats)
        assert_eq!(p.part(1), 0..5); // params 1 and 0 (3 + 2 floats)
        assert_eq!(p.locate(3), (0, 1..5));
        assert_eq!(p.locate(2), (0, 0..1));
        assert_eq!(p.locate(1), (1, 2..5));
        assert_eq!(p.locate(0), (1, 0..2));
        assert_eq!(p.layout().total_scalars(), 10);
    }

    #[test]
    fn partition_covers_every_scalar_exactly_once_at_any_cap() {
        let layout = BucketLayout::from_numels(&[5, 1, 7, 3, 0, 9, 4]);
        for cap in [1usize, 8, 24, 64, 1 << 20] {
            let p = PartitionedLayout::reverse_registration(&layout, cap);
            let mut buf: Vec<f32> = (0..layout.total_scalars()).map(|i| i as f32).collect();
            let parts = p.split_mut(&mut buf);
            let mut seen = vec![0usize; layout.total_scalars()];
            for (pi, part) in parts.iter().enumerate() {
                let part = part.as_deref().unwrap();
                assert_eq!(part.len(), p.part(pi).len(), "cap {cap}");
                for &x in part {
                    seen[x as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "cap {cap}: cover exactly once");
            for id in 0..layout.num_spans() {
                let (pi, r) = p.locate(id);
                let part = parts[pi].as_deref().unwrap();
                let (offset, len) = layout.span(id);
                assert_eq!(part[r].first().copied(), (len > 0).then_some(offset as f32));
            }
        }
        let one = PartitionedLayout::reverse_registration(&layout, usize::MAX);
        assert_eq!((one.num_parts(), one.part(0)), (1, 0..29));
    }

    #[test]
    fn tree_reduce_sums_every_slot_once() {
        for n in 1..=9usize {
            let mut slots: Vec<Vec<f32>> = (1..=n).map(|s| vec![s as f32; 4]).collect();
            tree_reduce_into_first(&mut slots);
            let want = (n * (n + 1) / 2) as f32;
            assert_eq!(slots[0], [want; 4], "n = {n}");
        }
    }

    #[test]
    fn byte_accounting_tracks_lifetimes() {
        let before = bucket_bytes_live();
        let (a, b) = (GradBucket::new(vec![0.0; 256]), GradBucket::new(vec![0.0; 256]));
        assert_eq!(bucket_bytes_live(), before + 2 * 1024);
        assert!(bucket_bytes_peak() >= before + 2 * 1024);
        drop(a);
        drop(b);
        assert_eq!(bucket_bytes_live(), before);
        let arena = GradBucket::new(vec![1.0; 64]);
        assert_eq!(bucket_bytes_live(), before + 256);
        assert_eq!(arena.into_vec(), vec![1.0; 64]);
        assert_eq!(bucket_bytes_live(), before);
    }
}
