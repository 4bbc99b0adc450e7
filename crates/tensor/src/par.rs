//! The one parallel-dispatch gate shared by every rayon-parallel kernel
//! in this crate.
//!
//! Before this module each kernel family carried its own ad-hoc
//! heuristic (`PAR_MIN` in `kernels.rs`, `EDGE_PAR_MIN` in `edge.rs`,
//! `ROWS_PAR_MIN` in `rows.rs`, `PAR_THRESHOLD_FLOPS` in `matmul.rs`)
//! with the thread check written slightly differently at each site.
//! They all expressed the same rule, so it now lives in one place:
//!
//! > run parallel iff the *work estimate* meets the family's documented
//! > minimum **and** more than one worker thread exists.
//!
//! The work estimate differs by family — element counts for bandwidth-
//! bound kernels, flops for compute-bound matmuls — but the gate logic
//! does not. Determinism never depends on this gate: every parallel
//! kernel in the crate is bit-identical to its serial form by
//! construction, so the gate is purely a performance heuristic.
//!
//! The gate tests the work estimate first, so the many kernel calls below
//! their minimum never consult the pool. The pool size itself is computed
//! once per process, and a kernel that passes the gate runs its blocks on
//! the persistent rayon worker pool (`third_party/rayon`): the calling
//! thread runs the first block and hands the others only to workers idle
//! at that moment. A kernel called inside a rank-parallel fold therefore
//! runs inline when the fold already holds every worker — the nesting
//! never oversubscribes cores — and, by the contract above, its result
//! does not depend on which way it ran.

/// Below this many *output elements* a bandwidth-bound elementwise or
/// scatter kernel (`kernels.rs` slice kernels, `rows.rs` scatters) runs
/// serially: 64 Ki scalars is where parallel dispatch overhead breaks
/// even against a memory-bound sweep.
pub(crate) const PAR_MIN_ELEMS: usize = 1 << 16;

/// Below this many output elements a *gather-style* edge kernel
/// (`edge.rs` per-row writes with no plan to amortize) runs serially.
/// Lower than [`PAR_MIN_ELEMS`]: gathers do strictly less work per
/// output element than scatters, so they break even earlier.
pub(crate) const PAR_MIN_GATHER_ELEMS: usize = 1 << 14;

/// Below this many flops (`2·m·n·k`) a matmul-family kernel runs
/// serially: 1 Mflop is where panel dispatch overhead breaks even
/// against a compute-bound kernel.
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 20;

/// `true` iff a kernel with the given work estimate should take its
/// rayon-parallel path: the estimate meets the family minimum and the
/// pool actually has more than one thread.
#[inline]
pub(crate) fn par_gate(work: usize, min: usize) -> bool {
    gate_with_threads(work, min, rayon::current_num_threads)
}

/// [`par_gate`] with the thread count supplied by the caller (unit-testable
/// on any host, including single-core CI where `par_gate` itself can
/// never return `true`). `threads` is called only when the work meets
/// the minimum.
#[inline]
pub(crate) fn gate_with_threads(work: usize, min: usize, threads: impl FnOnce() -> usize) -> bool {
    work >= min && threads() > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_opens_exactly_at_each_documented_threshold() {
        for &min in &[PAR_MIN_ELEMS, PAR_MIN_GATHER_ELEMS, PAR_MIN_FLOPS] {
            assert!(!gate_with_threads(min - 1, min, || 8), "below {min} must stay serial");
            assert!(gate_with_threads(min, min, || 8), "at {min} must go parallel");
            assert!(gate_with_threads(min + 1, min, || 8), "above {min} must go parallel");
        }
    }

    #[test]
    fn gate_never_opens_without_a_second_thread() {
        assert!(!gate_with_threads(usize::MAX, PAR_MIN_ELEMS, || 1));
        assert!(!gate_with_threads(usize::MAX, PAR_MIN_FLOPS, || 0));
        assert!(gate_with_threads(usize::MAX, PAR_MIN_FLOPS, || 2));
    }

    #[test]
    fn gate_below_its_minimum_never_asks_for_the_thread_count() {
        let never = || -> usize { panic!("thread count read below the minimum") };
        assert!(!gate_with_threads(PAR_MIN_ELEMS - 1, PAR_MIN_ELEMS, never));
    }

    #[test]
    fn thresholds_keep_their_relative_order() {
        // Gathers must break even no later than scatters: if this flips,
        // someone retuned one constant without re-auditing the family.
        const { assert!(PAR_MIN_GATHER_ELEMS <= PAR_MIN_ELEMS) };
    }

    #[test]
    fn par_gate_is_consistent_with_current_pool() {
        let threads = rayon::current_num_threads();
        assert_eq!(
            par_gate(PAR_MIN_ELEMS, PAR_MIN_ELEMS),
            gate_with_threads(PAR_MIN_ELEMS, PAR_MIN_ELEMS, || threads)
        );
    }
}
