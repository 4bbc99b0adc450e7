//! Equivalence and round-trip properties of the flat-gradient bucket
//! allreduce.
//!
//! The exact-equality tests use integer-valued `f32` gradients: every
//! partial sum stays well below 2^24, so addition is exact and *any*
//! bracketing must produce identical bits. That isolates the property
//! under test — the bucketed slot-fold + pairwise tree visits every rank
//! exactly once — from floating-point reassociation.

use matsciml_nn::bucket::{rank_range, reduce_slots, tree_reduce_into_first, BucketLayout};

/// Integer-valued gradient for (rank, span, element): deterministic, in
/// [-4, 4], so a 512-rank sum is exact in f32.
fn grad_at(rank: usize, span: usize, j: usize) -> f32 {
    ((rank * 31 + span * 7 + j) % 9) as f32 - 4.0
}

fn layout() -> BucketLayout {
    BucketLayout::from_numels(&[3, 8, 1, 5])
}

/// Reference allreduce: per-span left-fold over ranks 0..world in order.
fn naive_reduce(layout: &BucketLayout, world: usize) -> Vec<f32> {
    let mut total = vec![0.0f32; layout.total_scalars()];
    for rank in 0..world {
        for span in 0..layout.num_spans() {
            let (off, len) = layout.span(span);
            for j in 0..len {
                total[off + j] += grad_at(rank, span, j);
            }
        }
    }
    total
}

/// The production schedule: stream each slot's ranks into its buffer in
/// rank order, then pairwise-tree the slot buffers.
fn bucketed_reduce(layout: &BucketLayout, world: usize) -> Vec<f32> {
    let slots = reduce_slots(world);
    let mut buffers: Vec<Vec<f32>> = (0..slots)
        .map(|slot| {
            let mut b = vec![0.0; layout.total_scalars()];
            for rank in rank_range(world, slots, slot) {
                for span in 0..layout.num_spans() {
                    for (j, x) in b[layout.range(span)].iter_mut().enumerate() {
                        *x += grad_at(rank, span, j);
                    }
                }
            }
            b
        })
        .collect();
    tree_reduce_into_first(&mut buffers);
    buffers.swap_remove(0)
}

#[test]
fn bucketed_tree_matches_naive_reduction_exactly() {
    let layout = layout();
    for world in [1usize, 2, 4, 7, 512] {
        assert_eq!(
            bucketed_reduce(&layout, world),
            naive_reduce(&layout, world),
            "world {world}: bucketed allreduce must equal the per-tensor fold bit-for-bit"
        );
    }
}

#[test]
fn slot_count_is_capped_for_large_worlds() {
    assert_eq!(reduce_slots(1), 1);
    assert_eq!(reduce_slots(7), 7);
    assert_eq!(reduce_slots(512), matsciml_nn::bucket::MAX_REDUCE_SLOTS);
}
