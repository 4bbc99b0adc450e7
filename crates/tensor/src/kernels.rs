//! Fused flat-slice kernels shared by tensor ops, gradient buckets, and the
//! optimizers.
//!
//! Everything here operates on plain `&[f32]` / `&mut [f32]`, so one tuned
//! loop serves three callers: the `Tensor` inherent methods, the flat
//! gradient buckets in `matsciml-nn`, and the fused AdamW update in
//! `matsciml-opt`.
//!
//! Each kernel dispatches once to the SIMD lane tier ([`crate::simd`]) —
//! vector body when the tier is enabled, canonical scalar loop otherwise;
//! the two are bit-identical by construction. Parallel kernels split work
//! into fixed `CHUNK`-sized blocks behind the crate-wide
//! `crate::par::par_gate` heuristic. Elementwise kernels write disjoint
//! outputs, so their results cannot depend on scheduling; [`sumsq`]
//! accumulates one `f64` partial per block and folds the partials in block
//! order, so it returns bit-identical results whether the blocks run on
//! one thread or many.

use rayon::prelude::*;

use crate::par::{par_gate, PAR_MIN_ELEMS};
use crate::simd;

/// Block size (scalars) for parallel splitting: 16 KiB of f32 — large
/// enough to amortize dispatch, small enough to load-balance. Fixed (not
/// thread-count derived) so the `sumsq` partial bracketing never changes.
const CHUNK: usize = 4096;

/// `dst[i] += src[i] * s` (axpy).
pub fn axpy(dst: &mut [f32], src: &[f32], s: f32) {
    assert_eq!(dst.len(), src.len(), "axpy: length mismatch");
    let isa = simd::dispatch(dst.len() / 4);
    if par_gate(dst.len(), PAR_MIN_ELEMS) {
        dst.par_chunks_mut(CHUNK).enumerate().for_each(|(c, d)| {
            let lo = c * CHUNK;
            axpy_seq(d, &src[lo..lo + d.len()], s, isa);
        });
    } else {
        axpy_seq(dst, src, s, isa);
    }
}

#[inline]
fn axpy_seq(dst: &mut [f32], src: &[f32], s: f32, isa: Option<simd::Isa>) {
    match isa {
        Some(isa) => simd::axpy(dst, src, s, isa),
        None => dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v * s),
    }
}

/// `dst[i] += src[i]` — the allreduce accumulation step. A dedicated kernel
/// (rather than `axpy(dst, src, 1.0)`) keeps the multiply out of the inner
/// loop on targets without fused multiply-add.
pub fn vadd(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "vadd: length mismatch");
    let isa = simd::dispatch(dst.len() / 4);
    if par_gate(dst.len(), PAR_MIN_ELEMS) {
        dst.par_chunks_mut(CHUNK).enumerate().for_each(|(c, d)| {
            let lo = c * CHUNK;
            vadd_seq(d, &src[lo..lo + d.len()], isa);
        });
    } else {
        vadd_seq(dst, src, isa);
    }
}

#[inline]
fn vadd_seq(dst: &mut [f32], src: &[f32], isa: Option<simd::Isa>) {
    match isa {
        Some(isa) => simd::vadd(dst, src, isa),
        None => dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v),
    }
}

/// `dst[i] *= s`.
pub fn scale(dst: &mut [f32], s: f32) {
    let isa = simd::dispatch(dst.len() / 4);
    if par_gate(dst.len(), PAR_MIN_ELEMS) {
        dst.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(_, d)| scale_seq(d, s, isa));
    } else {
        scale_seq(dst, s, isa);
    }
}

#[inline]
fn scale_seq(dst: &mut [f32], s: f32, isa: Option<simd::Isa>) {
    match isa {
        Some(isa) => simd::scale(dst, s, isa),
        None => dst.iter_mut().for_each(|v| *v *= s),
    }
}

/// Fill with a constant. Sequential: this is a memset, already memory-bound.
pub fn fill(dst: &mut [f32], value: f32) {
    dst.fill(value);
}

/// Sum of squares with `f64` accumulation.
///
/// Accumulates one partial per `CHUNK` block and folds the partials in
/// block order, so the bracketing — and therefore the bits of the result —
/// is a function of the input length alone, never of the thread count.
/// Within a block the canonical order is the fixed 4-chain form of
/// `crate::simd::sumsq4_scalar` (lane `l` takes elements `i ≡ l mod 4`,
/// chains seeded at `-0.0`, folded `((s0+s1)+(s2+s3)) + tail`), which the
/// SSE2 body reproduces exactly — SIMD on, off, serial, and parallel all
/// give the same bits on every machine.
pub fn sumsq(src: &[f32]) -> f64 {
    let isa = simd::dispatch(src.len() / 4);
    if par_gate(src.len(), PAR_MIN_ELEMS) {
        let blocks: Vec<&[f32]> = src.chunks(CHUNK).collect();
        let partials: Vec<f64> = blocks.into_par_iter().map(|b| sumsq_block(b, isa)).collect();
        partials.into_iter().sum()
    } else {
        src.chunks(CHUNK).map(|b| sumsq_block(b, isa)).sum()
    }
}

/// Block length of [`sumsq`]'s partials.
pub const SUMSQ_BLOCK: usize = CHUNK;

/// One block's partial of [`sumsq`] (`src.len() <= SUMSQ_BLOCK`). Adding
/// the partials of a slice's consecutive `SUMSQ_BLOCK`-scalar blocks to
/// `-0.0` in order gives `sumsq` of the slice bit for bit, so a fused
/// sweep can take the norm while it walks the slice for other work.
pub fn sumsq_partial(src: &[f32]) -> f64 {
    debug_assert!(src.len() <= CHUNK, "sumsq_partial: block longer than SUMSQ_BLOCK");
    sumsq_block(src, simd::dispatch(src.len() / 4))
}

#[inline]
fn sumsq_block(src: &[f32], isa: Option<simd::Isa>) -> f64 {
    match isa {
        Some(isa) => simd::sumsq4(src, isa),
        None => simd::sumsq4_scalar(src),
    }
}

/// One fused AdamW update over flat parameter / moment / gradient slices.
///
/// Single pass, updating both moments and the weight per element, instead
/// of the five tensor-granularity loops the textbook formulation implies.
/// The operation order inside the loop (decay the weight, then apply the
/// adaptive step) matches Loshchilov & Hutter and must not be reordered:
/// optimizer trajectories are compared bit-for-bit across DDP world sizes.
/// The SIMD body evaluates the identical per-element expression trees
/// (every op IEEE single-rounded), so both paths produce the same bits.
#[allow(clippy::too_many_arguments)]
pub fn adamw_update(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bias_correction1: f32,
    bias_correction2: f32,
) {
    let n = p.len();
    assert!(
        m.len() == n && v.len() == n && g.len() == n,
        "adamw_update: length mismatch"
    );
    match simd::dispatch(n / 4) {
        Some(isa) => simd::adamw(
            p, m, v, g, lr, beta1, beta2, eps, weight_decay, bias_correction1, bias_correction2,
            isa,
        ),
        None => adamw_scalar(
            p, m, v, g, lr, beta1, beta2, eps, weight_decay, bias_correction1, bias_correction2,
        ),
    }
}

/// The canonical scalar AdamW loop — the fallback body of
/// [`adamw_update`] and the tail of the vector kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn adamw_scalar(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bias_correction1: f32,
    bias_correction2: f32,
) {
    for j in 0..p.len() {
        m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
        v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
        let mhat = m[j] / bias_correction1;
        let vhat = v[j] / bias_correction2;
        p[j] -= lr * weight_decay * p[j];
        p[j] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_and_vadd_accumulate() {
        let mut d = vec![1.0f32; 5];
        axpy(&mut d, &[1.0, 2.0, 3.0, 4.0, 5.0], 0.5);
        assert_eq!(d, &[1.5, 2.0, 2.5, 3.0, 3.5]);
        vadd(&mut d, &[1.0; 5]);
        assert_eq!(d, &[2.5, 3.0, 3.5, 4.0, 4.5]);
    }

    #[test]
    fn scale_and_fill() {
        let mut d = vec![2.0f32; 4];
        scale(&mut d, 0.25);
        assert_eq!(d, &[0.5; 4]);
        fill(&mut d, 7.0);
        assert_eq!(d, &[7.0; 4]);
    }

    #[test]
    fn sumsq_is_chunk_order_deterministic() {
        // Span several chunks; the chunked fold must match the canonical
        // per-block 4-chain kernel folded in block order (exactly, since
        // every partial is exactly representable for these integer inputs).
        let n = 3 * CHUNK + 17;
        let src: Vec<f32> = (0..n).map(|i| ((i % 7) as f32) - 3.0).collect();
        let expected: f64 = src.chunks(CHUNK).map(simd::sumsq4_scalar).sum();
        assert_eq!(sumsq(&src), expected);
        // Folding the public per-block partials reproduces it bit for bit.
        let awkward: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 1e3).collect();
        let blocks: f64 = awkward.chunks(SUMSQ_BLOCK).map(sumsq_partial).sum();
        assert_eq!(sumsq(&awkward).to_bits(), blocks.to_bits());
    }

    #[test]
    fn adamw_first_step_is_lr_sign_of_gradient() {
        let mut p = vec![0.0f32];
        let mut m = vec![0.0f32];
        let mut v = vec![0.0f32];
        let g = vec![100.0f32];
        let (b1, b2) = (0.9f32, 0.999f32);
        adamw_update(
            &mut p, &mut m, &mut v, &g, 0.01, b1, b2, 1e-8, 0.0, 1.0 - b1, 1.0 - b2,
        );
        assert!((p[0] + 0.01).abs() < 1e-4, "first step ≈ -lr, got {}", p[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatched_lengths() {
        axpy(&mut [0.0; 2], &[0.0; 3], 1.0);
    }
}
