//! Fused linear-layer kernels: `act(x @ W + b)` in one pass, bit-exact
//! with the unfused composition.
//!
//! The training hot path lowers every dense layer to the triple
//! `matmul → add_row_broadcast → activation`, which costs three full
//! passes (and two intermediate tensors) over the `[m, n]` output. The
//! kernels here compute the same result in a single sweep: each output
//! row is accumulated with the same contiguous-axpy panel kernel the
//! generic matmul uses, then the bias add and activation epilogue
//! (`act_row`) run over the row while it is still L1-resident.
//!
//! **The forward sweep saves the derivative.** The epilogue writes the
//! activated `y` and overwrites the pre-activation `z` — which nothing
//! reads afterwards — with `act'(z)`, so the backward pass is the single
//! multiply `g · act'(z)` ([`act_backward`]): no transcendental and no
//! branch runs twice per element. For SiLU, sigmoid and SELU one `exp`
//! per element ([`crate::expf`], vectorized on the lane tier) serves both
//! the value and the derivative.
//!
//! **Bit-exactness is a hard contract.** Every kernel reproduces the
//! per-element accumulation order of its unfused counterpart in
//! `matmul.rs` exactly:
//!
//! * forward / [`matmul_tn_blocked`]: each output element starts at
//!   `0.0` and adds `a·b` terms in increasing-`p` order, skipping terms
//!   whose `a` factor is exactly `0.0` — precisely the generic kernels'
//!   per-element sequence. The fused kernels interleave `MR` output
//!   rows per sweep of the streamed operand (interleaving rows does not
//!   reorder any single element's terms), and the forward adds the bias
//!   once after the full sum — the same single rounding
//!   `add_row_broadcast` applies to a stored matmul result — before the
//!   activation reads the final `z`. The gemm strips continue each chain
//!   from the `z` they are handed: `z` holds the chain's exact prefix,
//!   zero by default. [`linear`]'s source half uses that to compute an
//!   edge input's `h[src]` prefix once per node and gather it, so an edge
//!   row adds the same terms in the same order as the unsplit product;
//! * [`matmul_nt_blocked`]: each element reproduces `dot`'s four-lane
//!   bracketing `(s0 + s1) + (s2 + s3) + tail` with the same stride-4
//!   lane assignment, but processes `NJ` rows of `b` per strip of the
//!   `a` row — `NJ` independent accumulator vectors keep the FMA
//!   pipeline full where a one-at-a-time `dot` is latency-bound on its
//!   single reduction chain;
//! * `act_row` writes exactly [`Act::eval`] / [`Act::dz`] — the
//!   byte-identical scalar formulas the autograd ops use (shared from
//!   here so there is one source) — element for element, on every SIMD
//!   tier and with SIMD off.
//!
//! The blocked kernels are used **only** by the fused path; the generic
//! `matmul` / `matmul_tn` / `matmul_nt` methods keep their own loops.

use rayon::prelude::*;

use crate::exp::{expf, expf_in_place};
use crate::half::Precision;
use crate::matmul::{dot, ROW_PANEL};
use crate::par::{par_gate, PAR_MIN_FLOPS};
use crate::simd;
use crate::tensor::Tensor;

/// SELU constants from Klambauer et al., "Self-Normalizing Neural
/// Networks". Shared with `matsciml-autograd` so the fused and unfused
/// formulas cannot drift.
pub const SELU_SCALE: f32 = 1.050_701;
/// See [`SELU_SCALE`].
pub const SELU_ALPHA: f32 = 1.673_263_2;

/// Numerically-stable logistic sigmoid (both branches avoid computing
/// `exp` of a positive argument).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + expf(-x))
    } else {
        let e = expf(x);
        e / (1.0 + e)
    }
}

/// Activation applied by a fused linear op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    /// No activation: `y = z` (the fused op shares one buffer for both).
    Identity,
    /// SiLU / swish: `z * sigmoid(z)`.
    Silu,
    /// SELU (Klambauer et al. 2017).
    Selu,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Act {
    /// `act(z)` — byte-identical to the unfused activation builders.
    #[inline]
    pub fn eval(self, a: f32) -> f32 {
        match self {
            Act::Identity => a,
            Act::Silu => a * sigmoid(a),
            Act::Selu => {
                if a > 0.0 {
                    SELU_SCALE * a
                } else {
                    SELU_SCALE * SELU_ALPHA * (expf(a) - 1.0)
                }
            }
            Act::Relu => a.max(0.0),
            Act::Tanh => a.tanh(),
            Act::Sigmoid => sigmoid(a),
        }
    }

    /// `d act / d z` at pre-activation `z` — byte-identical to the
    /// unfused VJP derivative formulas (for `Tanh`/`Sigmoid`, which the
    /// unfused path derives from the *output*, recomputing the output
    /// from `z` yields the same bits because `eval` is deterministic).
    #[inline]
    pub fn dz(self, z: f32) -> f32 {
        match self {
            Act::Identity => 1.0,
            Act::Silu => {
                let s = sigmoid(z);
                s * (1.0 + z * (1.0 - s))
            }
            Act::Selu => {
                if z > 0.0 {
                    SELU_SCALE
                } else {
                    SELU_SCALE * SELU_ALPHA * expf(z)
                }
            }
            Act::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Act::Sigmoid => {
                let s = sigmoid(z);
                s * (1.0 - s)
            }
        }
    }
}

/// Rows of `b` (output columns) per blocked-`nt` group: one independent
/// four-lane accumulator set per row, so the reduction has `NJ` parallel
/// dependency chains instead of `dot`'s one.
const NJ: usize = 8;

/// Output rows accumulated per sweep of the weight matrix in the fused
/// forward / `tn` kernels. The weight matrix is by far the largest
/// operand (it outsizes L1/L2 at the paper's hidden width), and the
/// unblocked kernels stream all of it once **per output row**; reusing
/// each streamed row for `MR` outputs while it is cache-hot divides that
/// dominant traffic by `MR`. Per-element accumulation order is
/// untouched — every output element still adds its terms in
/// increasing-`p` order — so the bit contract with the generic kernels
/// holds.
const MR: usize = 4;

/// Multiply-adds one gathered prefix element costs in [`linear`]'s
/// source-half split (the `[nodes, n]` node gemm's extra pass, the
/// `[m, n]` gather and their buffers), as measured: the split and the
/// unsplit forward break even near `E/N = H/(H − 8)` at hidden 16 to 256
/// (EXPERIMENTS.md, "φ_e's source half once per node").
const SPLIT_MACS_PER_GATHERED: usize = 8;

/// Whether [`linear`]'s `source` split is worth taking for `edges` rows
/// that begin with a `width`-wide row of `h: [nodes, width]`: it saves
/// `(edges − nodes) · width · n` multiply-adds and gathers `edges · n`
/// prefix elements, so it pays when `(edges − nodes) · width` exceeds
/// `SPLIT_MACS_PER_GATHERED · edges` (eight multiply-adds per gathered
/// element). A shape-only rule: the bits are the same either way.
pub fn source_split_pays(nodes: usize, edges: usize, width: usize) -> bool {
    edges.saturating_sub(nodes) * width > SPLIT_MACS_PER_GATHERED * edges
}

/// Fused linear forward: `z = x @ w (+ bias)`, `y = act(z)`.
///
/// Shapes: `x: [m, k]`, `w: [k, n]`, `bias: [n]`. Returns `(y, dact)`:
/// `dact = act'(z)` is written over `z`'s buffer by the same sweep, and is
/// what [`act_backward`] multiplies the output gradient by. For
/// [`Act::Identity`] there is no derivative to save and `dact` is `None`
/// (the plain forward matmul, bit-identical to [`Tensor::matmul`] at f32).
///
/// `precision` is the precision of the tape this forward belongs to:
/// [`Precision::F32`] keeps the exact pinned-order kernels; anything
/// else lets the reduced-precision wide tier take the gemm
/// (`crate::half`).
///
/// `source`, when given as `(h, src)` with `h: [nodes, hk]`, says that
/// row `e` of `x` begins with the node row `h[src[e]]` — the source half
/// of an edge-message input (`edge::gather_concat`). Every output
/// element's chain over those `hk` columns then depends only on the
/// source node, so it is computed once per node (`P = h @ w[..hk]`, the
/// same kernels on a zeroed accumulator), gathered as `z[e] =
/// P[src[e]]`, and the edge gemm continues each chain from that prefix
/// over `x[:, hk..]` and `w[hk..]`. Each element adds the same terms in
/// the same order, so the bits equal the unsplit forward's on every
/// tier; the split saves `(m − nodes) · hk · n` multiply-adds, and
/// [`source_split_pays`] says when that outweighs the gather.
pub fn linear(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    act: Act,
    precision: Precision,
    source: Option<(&Tensor, &[u32])>,
) -> (Tensor, Option<Tensor>) {
    assert_eq!(x.ndim(), 2, "fused linear: x must be 2-D, got {:?}", x.shape());
    assert_eq!(w.ndim(), 2, "fused linear: w must be 2-D, got {:?}", w.shape());
    let (m, k) = (x.dim(0), x.dim(1));
    let (k2, n) = (w.dim(0), w.dim(1));
    assert_eq!(k, k2, "fused linear: inner dimensions differ, x {:?} vs w {:?}", x.shape(), w.shape());
    if let Some(b) = bias {
        assert_eq!(b.numel(), n, "fused linear: bias has {} elements, expected {n}", b.numel());
    }
    let a = x.as_slice();
    let ws = w.as_slice();

    // The accumulator: zero, or each row's exact source-half prefix.
    let (mut z, k0) = match source {
        None => (Tensor::zeros(&[m, n]), 0),
        Some((h, src)) => {
            assert_eq!(h.ndim(), 2, "fused linear: source h must be 2-D, got {:?}", h.shape());
            let (nodes, hk) = (h.dim(0), h.dim(1));
            assert!(hk <= k, "fused linear: source width {hk} exceeds x width {k}");
            assert_eq!(src.len(), m, "fused linear: {} source indices for {m} rows", src.len());
            debug_assert!(
                src.iter().enumerate().all(|(e, &s)| {
                    let (xr, hr) = (&a[e * k..e * k + hk], h.row(s as usize));
                    xr.iter().zip(hr).all(|(u, v)| u.to_bits() == v.to_bits())
                }),
                "fused linear: x does not begin with h[src]"
            );
            let mut p = Tensor::zeros(&[nodes, n]);
            let wh = &ws[..hk * n];
            gemm(h.as_slice(), hk, wh, None, Act::Identity, p.as_mut_slice(), None, nodes, hk, n, precision);
            (p.gather_rows(src), hk)
        }
    };
    // Continue every chain over the columns the prefix did not cover;
    // x keeps its row stride `k`.
    let (a, ws, kk) = (a.get(k0..).unwrap_or(&[]), &ws[k0 * n..], k - k0);
    let bs = bias.map(|b| b.as_slice());
    let mut y = (act != Act::Identity).then(|| Tensor::zeros(&[m, n]));
    let yd = y.as_mut().map(|t| t.as_mut_slice());
    gemm(a, k, ws, bs, act, z.as_mut_slice(), yd, m, kk, n, precision);
    match y {
        Some(y) => (y, Some(z)),
        None => (z, None),
    }
}

/// The one forward gemm driver behind [`linear`]: adds `a @ w` (`a` with
/// row stride `lda`, its first `k` columns read) onto the `[m, n]`
/// accumulator `z`, then the bias and, when `y` is given, the
/// activation epilogue. Picks the wide, lane or scalar rows kernel and
/// splits row panels across the pool above the parallel gate.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: &[f32],
    lda: usize,
    w: &[f32],
    bias: Option<&[f32]>,
    act: Act,
    z: &mut [f32],
    y: Option<&mut [f32]>,
    m: usize,
    k: usize,
    n: usize,
    precision: Precision,
) {
    let flops = 2 * m * n * k;
    // A reduced-precision tape (crate::half) hands the whole forward
    // gemm to the wide tier: FMA strips, unpinned order,
    // tolerance-checked. Otherwise the exact lane/scalar paths below.
    let wide = simd::dispatch_wide(precision, m * n * k / 8);
    let isa = if wide { None } else { simd::dispatch(m * n * k / 4) };

    // One lowering point for both the serial and panel-parallel paths:
    // lane-tier body when dispatched, canonical scalar rows otherwise.
    let rows_kernel = |zc: &mut [f32], yc: Option<&mut [f32]>, r0: usize, rows: usize| {
        if wide {
            simd::linear_rows_wide(a, lda, w, bias, act, zc, yc, r0, rows, k, n)
        } else {
            match isa {
                Some(isa) => simd::linear_rows_lanes(a, lda, w, bias, act, zc, yc, r0, rows, k, n, isa),
                None => linear_rows(a, lda, w, bias, act, zc, yc, r0, rows, k, n),
            }
        }
    };

    if !par_gate(flops, PAR_MIN_FLOPS) {
        rows_kernel(z, y, 0, m);
        return;
    }
    match y {
        None => z.par_chunks_mut(ROW_PANEL * n).enumerate().for_each(|(panel, chunk)| {
            rows_kernel(chunk, None, panel * ROW_PANEL, chunk.len() / n);
        }),
        Some(ydst) => {
            // Panels of z are distributed by rayon; the matching panel of
            // y is reconstructed from a raw pointer. Sound because panels
            // are disjoint row ranges.
            let yp = SendPtr(ydst.as_mut_ptr());
            z.par_chunks_mut(ROW_PANEL * n).enumerate().for_each(|(panel, chunk)| {
                let r0 = panel * ROW_PANEL;
                let rows = chunk.len() / n;
                let ypanel =
                    unsafe { std::slice::from_raw_parts_mut(yp.get().add(r0 * n), rows * n) };
                rows_kernel(chunk, Some(ypanel), r0, rows);
            });
        }
    }
}

/// `a^T @ b` for `[k, m] x [k, n] -> [m, n]`, row-blocked, bit-identical
/// to [`Tensor::matmul_tn`]. Used by the fused VJP for the weight
/// gradient.
pub fn matmul_tn_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_tn_blocked: lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_tn_blocked: rhs must be 2-D");
    let (k, m) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_tn_blocked: leading dimensions differ, lhs {:?} vs rhs {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(&[m, n]);
    let asl = a.as_slice();
    let bsl = b.as_slice();
    let flops = 2 * m * n * k;
    let isa = simd::dispatch(m * n * k / 4);
    let dst = out.as_mut_slice();
    let rows_kernel = |chunk: &mut [f32], r0: usize, rows: usize| match isa {
        Some(isa) => simd::tn_rows_lanes(asl, bsl, chunk, r0, rows, k, m, n, isa),
        None => tn_rows(asl, bsl, chunk, r0, rows, k, m, n),
    };
    if !par_gate(flops, PAR_MIN_FLOPS) {
        rows_kernel(dst, 0, m);
    } else {
        dst.par_chunks_mut(ROW_PANEL * n).enumerate().for_each(|(panel, chunk)| {
            rows_kernel(chunk, panel * ROW_PANEL, chunk.len() / n);
        });
    }
    out
}

/// `a @ b^T` for `[m, k] x [n, k] -> [m, n]` with the `b`-row loop
/// blocked `MR` rows by `NJB` columns wide, bit-identical to [`Tensor::matmul_nt`]. Used by
/// the fused VJP for the input gradient — the hottest backward kernel,
/// since every dense layer's `dx` flows through it.
pub fn matmul_nt_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_nt_blocked: lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_nt_blocked: rhs must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "matmul_nt_blocked: inner dimensions differ, lhs {:?} vs rhs {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(&[m, n]);
    let asl = a.as_slice();
    let bsl = b.as_slice();
    let flops = 2 * m * n * k;
    let isa = simd::dispatch(m * n * k / 4);
    let dst = out.as_mut_slice();
    let kernel = |r0: usize, rows: usize, dst: &mut [f32]| match isa {
        Some(isa) => simd::nt_rows_lanes(asl, bsl, dst, r0, rows, k, n, isa),
        None => {
            let mut i = 0;
            while i + MR <= rows {
                nt_block(asl, bsl, &mut dst[i * n..(i + MR) * n], r0 + i, k, n);
                i += MR;
            }
            while i < rows {
                let arow = &asl[(r0 + i) * k..(r0 + i + 1) * k];
                nt_row(arow, bsl, &mut dst[i * n..(i + 1) * n], k, n);
                i += 1;
            }
        }
    };
    if !par_gate(flops, PAR_MIN_FLOPS) {
        kernel(0, m, dst);
    } else {
        dst.par_chunks_mut(ROW_PANEL * n)
            .enumerate()
            .for_each(|(panel, chunk)| kernel(panel * ROW_PANEL, chunk.len() / n, chunk));
    }
    out
}

/// The activation's share of the fused backward: `dz = g · act'(z)`,
/// one multiply per element against the derivative [`linear`] saved —
/// the same two factors, hence the same bits, as the unfused path's
/// `g.mul(act'(z))`. With no saved derivative ([`Act::Identity`]) this
/// is an O(1) clone of `g`.
pub fn act_backward(g: &Tensor, dact: Option<&Tensor>) -> Tensor {
    match dact {
        Some(d) => g.mul(d),
        None => g.clone(),
    }
}

/// The fused linear's activation epilogue over one row: writes
/// `y[j] = act.eval(z[j])` and overwrites `z[j]` with `act.dz(z[j])`,
/// bit for bit.
///
/// Both sigmoid branches call `exp` on `-|z|`; the first pass computes
/// that argument with the same sign select as [`sigmoid`], so its bits
/// match the branch the reference takes, and parks `exp` of it in `y`
/// — one [`expf`] per element (SiLU, sigmoid, SELU), run by the vector
/// body when `isa` is a lane tier with FMA (bit-identical to the scalar
/// form, so `isa` only picks the speed). `Tanh` makes one libm `tanh`
/// call per element instead.
/// The second pass is branch-free selects, divides and multiplies that
/// the compiler vectorizes, each expression keeping the reference's
/// operation order (no FMA). `Relu` needs one pass; `Identity` copies
/// and writes the constant derivative.
pub(crate) fn act_row(act: Act, z: &mut [f32], y: &mut [f32], isa: Option<simd::Isa>) {
    debug_assert_eq!(z.len(), y.len());
    // Pass one for the sigmoid family: `exp(-|z|)` into `y`.
    let exp_neg_abs = |z: &[f32], y: &mut [f32]| {
        for (e, &zv) in y.iter_mut().zip(z) {
            *e = if zv >= 0.0 { -zv } else { zv };
        }
        expf_in_place(y, isa);
    };
    // `sigmoid(z)` from `e = exp(-|z|)`: both branches of
    // [`sigmoid`] divide by `1 + e`, only the numerator differs.
    #[inline(always)]
    fn sig(zv: f32, e: f32) -> f32 {
        (if zv >= 0.0 { 1.0 } else { e }) / (1.0 + e)
    }
    match act {
        Act::Identity => {
            y.copy_from_slice(z);
            z.fill(1.0);
        }
        Act::Silu => {
            exp_neg_abs(z, y);
            for (yv, zv) in y.iter_mut().zip(z.iter_mut()) {
                let s = sig(*zv, *yv);
                *yv = *zv * s;
                *zv = s * (1.0 + *zv * (1.0 - s));
            }
        }
        Act::Sigmoid => {
            exp_neg_abs(z, y);
            for (yv, zv) in y.iter_mut().zip(z.iter_mut()) {
                let s = sig(*zv, *yv);
                *yv = s;
                *zv = s * (1.0 - s);
            }
        }
        Act::Selu => {
            // The reference only calls `exp` off the positive branch;
            // feeding `0.0` there keeps the call cheap and the select
            // discards it.
            for (e, &zv) in y.iter_mut().zip(z.iter()) {
                *e = if zv > 0.0 { 0.0 } else { zv };
            }
            expf_in_place(y, isa);
            for (yv, zv) in y.iter_mut().zip(z.iter_mut()) {
                let (pos, e) = (*zv > 0.0, *yv);
                *yv = if pos { SELU_SCALE * *zv } else { SELU_SCALE * SELU_ALPHA * (e - 1.0) };
                *zv = if pos { SELU_SCALE } else { SELU_SCALE * SELU_ALPHA * e };
            }
        }
        Act::Relu => {
            for (yv, zv) in y.iter_mut().zip(z.iter_mut()) {
                *yv = zv.max(0.0);
                *zv = if *zv > 0.0 { 1.0 } else { 0.0 };
            }
        }
        Act::Tanh => {
            for (t, &zv) in y.iter_mut().zip(z.iter()) {
                *t = zv.tanh();
            }
            for (&t, zv) in y.iter().zip(z.iter_mut()) {
                *zv = 1.0 - t * t;
            }
        }
    }
}

struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer.
    #[inline]
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Compute output rows `[r0, r0+rows)` of the fused linear: [`MR`]-row
/// blocks accumulate with the generic axpy order (each streamed `w` row
/// feeds every row of the block while cache-hot), then the bias add and
/// activation epilogue ([`act_row`]) runs over the block while it is
/// still resident. Row `r` of `a` starts at `a[r * lda]` and its first
/// `k` elements are read. `z` (and `y` when present) are the destination
/// slices covering exactly those rows; `z` is the accumulator and holds
/// each chain's exact prefix, zero by default, and leaves holding
/// `act'(z)` when `y` is present.
#[allow(clippy::too_many_arguments)]
fn linear_rows(
    a: &[f32],
    lda: usize,
    w: &[f32],
    bias: Option<&[f32]>,
    act: Act,
    z: &mut [f32],
    mut y: Option<&mut [f32]>,
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i < rows {
        let r = MR.min(rows - i);
        let zblock = &mut z[i * n..(i + r) * n];
        for p in 0..k {
            let wrow = &w[p * n..(p + 1) * n];
            for rr in 0..r {
                let av = a[(r0 + i + rr) * lda + p];
                if av != 0.0 {
                    let zrow = &mut zblock[rr * n..(rr + 1) * n];
                    zrow.iter_mut().zip(wrow).for_each(|(o, &wv)| *o += av * wv);
                }
            }
        }
        for rr in 0..r {
            let zrow = &mut zblock[rr * n..(rr + 1) * n];
            if let Some(bs) = bias {
                zrow.iter_mut().zip(bs).for_each(|(zv, &bv)| *zv += bv);
            }
            if let Some(yd) = y.as_deref_mut() {
                act_row(act, zrow, &mut yd[(i + rr) * n..(i + rr + 1) * n], None);
            }
        }
        i += r;
    }
}

/// Compute output rows `[r0, r0+rows)` of `a^T @ b` (`a: [k, m]`,
/// `b: [k, n]`), [`MR`] rows per sweep of the `k` dimension: the block's
/// rows stay L1-resident across the whole sweep, so the `[m, n]` output
/// is written once instead of being re-walked for every `p`. Element
/// `(i, j)` still accumulates `a[p, i] * b[p, j]` in increasing-`p`
/// order with the `a == 0.0` skip — the generic `matmul_tn` sequence.
#[allow(clippy::too_many_arguments)]
fn tn_rows(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let mut i = 0;
    while i < rows {
        let r = MR.min(rows - i);
        let oblock = &mut dst[i * n..(i + r) * n];
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            let acol = &a[p * m + r0 + i..p * m + r0 + i + r];
            for (rr, &av) in acol.iter().enumerate() {
                if av != 0.0 {
                    let orow = &mut oblock[rr * n..(rr + 1) * n];
                    orow.iter_mut().zip(brow).for_each(|(o, &bv)| *o += av * bv);
                }
            }
        }
        i += r;
    }
}

/// Columns per group in [`nt_block`]: with [`MR`] rows that is
/// `MR * NJB` concurrent four-lane accumulator sets — enough parallel
/// reduction chains to hide FMA latency, while every loaded strip of `b`
/// serves [`MR`] outputs.
const NJB: usize = 4;

/// An [`MR`]-row × [`NJB`]-column block of the `nt` product: the main
/// body walks the stride-4 lane grid with one accumulator set per
/// output, so each element's bits match [`dot`]'s
/// `(s0 + s1) + (s2 + s3) + tail` bracketing exactly. `dst` covers the
/// `MR` output rows; `ar0` is the first `a` row of the block.
fn nt_block(a: &[f32], b: &[f32], dst: &mut [f32], ar0: usize, k: usize, n: usize) {
    let kc = k / 4 * 4;
    let ar: [&[f32]; MR] = std::array::from_fn(|r| &a[(ar0 + r) * k..(ar0 + r) * k + kc]);
    let mut j = 0;
    while j + NJB <= n {
        let bt: [&[f32]; NJB] = std::array::from_fn(|t| &b[(j + t) * k..(j + t) * k + kc]);
        let mut s = [[[0.0f32; 4]; NJB]; MR];
        for ch in 0..kc / 4 {
            let i = ch * 4;
            // SAFETY: every `ar`/`bt` slice has length `kc` and
            // `i + 4 <= kc` for every `ch < kc / 4`; checked indexing
            // here keeps the reduction loop from vectorizing.
            let aq: [&[f32]; MR] =
                std::array::from_fn(|r| unsafe { ar[r].get_unchecked(i..i + 4) });
            for t in 0..NJB {
                let bq = unsafe { bt[t].get_unchecked(i..i + 4) };
                for (sr, aqr) in s.iter_mut().zip(&aq) {
                    for l in 0..4 {
                        sr[t][l] += aqr[l] * bq[l];
                    }
                }
            }
        }
        let mut tails = [[0.0f32; NJB]; MR];
        for i in kc..k {
            for (r, tr) in tails.iter_mut().enumerate() {
                let av = a[(ar0 + r) * k + i];
                for (t, tl) in tr.iter_mut().enumerate() {
                    *tl += av * b[(j + t) * k + i];
                }
            }
        }
        for r in 0..MR {
            for t in 0..NJB {
                let st = &s[r][t];
                dst[r * n + j + t] = (st[0] + st[1]) + (st[2] + st[3]) + tails[r][t];
            }
        }
        j += NJB;
    }
    while j < n {
        let brow = &b[j * k..(j + 1) * k];
        for r in 0..MR {
            dst[r * n + j] = dot(&a[(ar0 + r) * k..(ar0 + r + 1) * k], brow);
        }
        j += 1;
    }
}

/// One output row of the blocked `nt` product: [`NJ`] rows of `b` are
/// consumed per strip of `a_row`, each output element carrying its own
/// `(s0, s1, s2, s3, tail)` lane set so the bits match [`dot`] exactly.
/// The `b` rows are re-sliced to the truncated length up front so the
/// inner loop indexes provably in-bounds arrays and vectorizes.
fn nt_row(a_row: &[f32], b: &[f32], o_row: &mut [f32], k: usize, n: usize) {
    let kc = k / 4 * 4;
    let am = &a_row[..kc];
    let mut j = 0;
    while j + NJ <= n {
        let bt: [&[f32]; NJ] = std::array::from_fn(|t| &b[(j + t) * k..(j + t) * k + kc]);
        let mut s = [[0.0f32; 4]; NJ];
        for (ch, aq) in am.chunks_exact(4).enumerate() {
            let i = ch * 4;
            for (st, brow) in s.iter_mut().zip(&bt) {
                // SAFETY: every `bt` slice has length `kc`, and
                // `i + 4 <= kc` for every index `chunks_exact(4)` yields;
                // checked indexing here keeps the reduction loop from
                // vectorizing.
                let bq = unsafe { brow.get_unchecked(i..i + 4) };
                st[0] += aq[0] * bq[0];
                st[1] += aq[1] * bq[1];
                st[2] += aq[2] * bq[2];
                st[3] += aq[3] * bq[3];
            }
        }
        let mut tails = [0.0f32; NJ];
        for i in kc..k {
            let av = a_row[i];
            for (t, tl) in tails.iter_mut().enumerate() {
                *tl += av * b[(j + t) * k + i];
            }
        }
        for (t, (st, tl)) in s.iter().zip(tails).enumerate() {
            o_row[j + t] = (st[0] + st[1]) + (st[2] + st[3]) + tl;
        }
        j += NJ;
    }
    while j < n {
        o_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic matrix with a sprinkling of exact zeros, so the
    /// `av != 0.0` skip paths are exercised.
    fn mat(shape: &[usize], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            let v = ((i * 31 + seed * 17) % 23) as f32 - 11.0;
            if (i + seed).is_multiple_of(9) {
                0.0
            } else {
                v * 0.07
            }
        })
    }

    const ACTS: [Act; 6] = [Act::Identity, Act::Silu, Act::Selu, Act::Relu, Act::Tanh, Act::Sigmoid];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_linear_bits_match_unfused_composition() {
        // Odd sizes cross both the full-tile and remainder paths.
        for &(m, k, n) in &[(1usize, 3usize, 1usize), (4, 8, 8), (7, 13, 11), (67, 31, 45)] {
            let x = mat(&[m, k], 1);
            let w = mat(&[k, n], 2);
            let b = mat(&[n], 3);
            for bias in [Some(&b), None] {
                let zref = match bias {
                    Some(b) => x.matmul(&w).add_row_broadcast(b),
                    None => x.matmul(&w),
                };
                for act in ACTS {
                    let tag = format!("{m}x{k}x{n} {act:?} bias {}", bias.is_some());
                    let (y, dact) = linear(&x, &w, bias, act, Precision::F32, None);
                    let yref = zref.map(|a| act.eval(a));
                    assert_eq!(bits(y.as_slice()), bits(yref.as_slice()), "y bits {tag}");
                    match dact {
                        Some(d) => {
                            let dref = zref.map(|a| act.dz(a));
                            assert_eq!(bits(d.as_slice()), bits(dref.as_slice()), "act' {tag}");
                        }
                        None => assert_eq!(act, Act::Identity, "no act' saved ({tag})"),
                    }
                }
            }
        }
    }

    /// Node features with exact `0.0` and `-0.0` entries, which the
    /// zero-skip must treat alike in the node and the edge gemm.
    fn node_feats(nodes: usize, hk: usize, seed: usize) -> Tensor {
        let mut h = mat(&[nodes, hk], seed);
        h.as_mut_slice().iter_mut().enumerate().filter(|(i, _)| i % 5 == 2).for_each(|(_, v)| *v = -0.0);
        h
    }

    /// One split case: `(graphs of (nodes, edges), hk, n, rel)`.
    type SplitCase = (Vec<(usize, usize)>, usize, usize, bool);

    /// The source-half cases.
    /// Odd E; E < N; E = 0; a two-graph batch; `n` reaching the 64- and
    /// 32-column AVX-512 strips, the narrower strips and the scalar tail.
    fn split_cases() -> Vec<SplitCase> {
        vec![
            (vec![(5, 13)], 7, 9, true),
            (vec![(9, 4)], 6, 11, true),
            (vec![(4, 0)], 5, 6, false),
            (vec![(6, 17), (4, 9)], 16, 75, true),
            (vec![(3, 7), (5, 12)], 8, 100, false),
        ]
    }

    /// Edge lists for a batch of graphs laid out one after another: every
    /// edge stays inside its graph, sources repeat.
    fn batch_edges(graphs: &[(usize, usize)]) -> (usize, Vec<u32>, Vec<u32>) {
        let (mut base, mut src, mut dst) = (0, Vec::new(), Vec::new());
        for &(nodes, edges) in graphs {
            for e in 0..edges {
                src.push((base + (e * 3 + 1) % nodes) as u32);
                dst.push((base + (e * 5 + e * e + 2) % nodes) as u32);
            }
            base += nodes;
        }
        (base, src, dst)
    }

    /// `(x, w, bias, h, src)` for one split case: `x = [h[src] ‖ h[dst]
    /// (‖ d²)]` as `edge::gather_concat` builds it, and optionally a
    /// `+∞` weight in the source half and a NaN in the edge half.
    fn split_operands(
        graphs: &[(usize, usize)],
        hk: usize,
        n: usize,
        rel: bool,
        nonfinite: bool,
    ) -> (Tensor, Tensor, Tensor, Tensor, Vec<u32>) {
        let (nodes, src, dst) = batch_edges(graphs);
        let h = node_feats(nodes, hk, 3);
        let r = rel.then(|| mat(&[src.len(), 3], 4));
        let x = crate::edge::gather_concat(&h, r.as_ref(), &src, &dst);
        let k = x.dim(1);
        let mut w = mat(&[k, n], 5);
        if nonfinite {
            w.as_mut_slice()[n + 1] = f32::INFINITY;
            w.as_mut_slice()[(hk + 1) * n + 2] = f32::NAN;
        }
        (x, w, mat(&[n], 6), h, src)
    }

    #[test]
    fn source_half_split_matches_unsplit_bits() {
        for (graphs, hk, n, rel) in split_cases() {
            for nonfinite in [false, true] {
                let (x, w, b, h, src) = split_operands(&graphs, hk, n, rel, nonfinite);
                for act in ACTS {
                    let tag = format!("{graphs:?} hk {hk} n {n} {act:?} nonfinite {nonfinite}");
                    let (y0, d0) = linear(&x, &w, Some(&b), act, Precision::F32, None);
                    let (y1, d1) = linear(&x, &w, Some(&b), act, Precision::F32, Some((&h, &src)));
                    assert_eq!(bits(y1.as_slice()), bits(y0.as_slice()), "y {tag}");
                    assert_eq!(d1.map(|d| bits(d.as_slice())), d0.map(|d| bits(d.as_slice())), "act' {tag}");
                }
            }
        }
    }

    /// The split on every runnable tier, driven through the row kernels:
    /// a node gemm on a zeroed accumulator, the gather, and the edge gemm
    /// continuing from it give the tier's own unsplit bits.
    #[test]
    fn source_half_split_matches_unsplit_bits_on_every_tier() {
        use crate::simd::tests::isas;
        #[allow(clippy::too_many_arguments)]
        fn rows_on(
            tier: Option<simd::Isa>,
            a: &[f32],
            lda: usize,
            w: &[f32],
            bias: Option<&[f32]>,
            act: Act,
            z: &mut [f32],
            y: Option<&mut [f32]>,
            rows: usize,
            k: usize,
            n: usize,
        ) {
            match tier {
                None => linear_rows(a, lda, w, bias, act, z, y, 0, rows, k, n),
                Some(isa) => simd::linear_rows_lanes(a, lda, w, bias, act, z, y, 0, rows, k, n, isa),
            }
        }
        for (graphs, hk, n, rel) in split_cases() {
            for nonfinite in [false, true] {
                let (x, w, b, h, src) = split_operands(&graphs, hk, n, rel, nonfinite);
                let (e, k, nodes) = (x.dim(0), x.dim(1), h.dim(0));
                let (xs, ws, bs) = (x.as_slice(), w.as_slice(), Some(b.as_slice()));
                for tier in std::iter::once(None).chain(isas().into_iter().map(Some)) {
                    for act in [Act::Identity, Act::Silu] {
                        let tag = format!("{graphs:?} hk {hk} n {n} {act:?} {tier:?} nonfinite {nonfinite}");
                        let (mut z0, mut y0) = (vec![0.0; e * n], vec![0.0; e * n]);
                        rows_on(tier, xs, k, ws, bs, act, &mut z0, Some(&mut y0), e, k, n);
                        let mut p = vec![0.0; nodes * n];
                        rows_on(tier, h.as_slice(), hk, &ws[..hk * n], None, Act::Identity, &mut p, None, nodes, hk, n);
                        let mut z1: Vec<f32> =
                            src.iter().flat_map(|&s| p[s as usize * n..(s as usize + 1) * n].to_vec()).collect();
                        let mut y1 = vec![0.0; e * n];
                        let xe = xs.get(hk..).unwrap_or(&[]);
                        rows_on(tier, xe, k, &ws[hk * n..], bs, act, &mut z1, Some(&mut y1), e, k - hk, n);
                        assert_eq!(bits(&y1), bits(&y0), "y {tag}");
                        assert_eq!(bits(&z1), bits(&z0), "act' {tag}");
                    }
                }
            }
        }
    }

    /// The reduced-precision tier takes the split too; its order is
    /// unpinned, so it is held to the wide tier's tolerance against the
    /// exact unsplit forward.
    #[test]
    fn source_half_split_on_the_wide_tier_stays_close() {
        let (x, w, b, h, src) = split_operands(&[(6, 17), (4, 9)], 16, 75, true, false);
        let (want, _) = linear(&x, &w, Some(&b), Act::Silu, Precision::F32, None);
        for precision in [Precision::F16, Precision::Bf16] {
            let (got, _) = linear(&x, &w, Some(&b), Act::Silu, precision, Some((&h, &src)));
            for (g, r) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - r).abs() <= 1e-4 * (1.0 + r.abs()), "{precision:?}: {g} vs {r}");
            }
        }
    }

    #[test]
    fn identity_linear_saves_no_derivative() {
        let x = mat(&[5, 4], 1);
        let w = mat(&[4, 6], 2);
        let (y, dact) = linear(&x, &w, None, Act::Identity, Precision::F32, None);
        assert_eq!(bits(y.as_slice()), bits(x.matmul(&w).as_slice()));
        assert!(dact.is_none(), "Identity has no derivative to save");
    }

    /// Inputs for the epilogue sweeps: the specials (signed zeros and
    /// infinities, subnormals, `exp`'s overflow and underflow edges, the
    /// f32 extremes, NaNs) plus every 9973rd bit pattern.
    fn sweep_inputs() -> Vec<f32> {
        let mut v = vec![
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            88.0,
            -88.0,
            88.73,
            -88.73,
            103.98,
            -103.98,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
            1.0,
            -1.0,
        ];
        v.extend((0..=u32::MAX).step_by(9973).map(f32::from_bits));
        v
    }

    #[test]
    fn act_row_bits_match_eval_and_dz() {
        use crate::simd::tests::isas;
        let inputs = sweep_inputs();
        for act in ACTS {
            // The helper on raw inputs, with the scalar `exp` and with
            // each tier's.
            let want_y: Vec<f32> = inputs.iter().map(|&z| act.eval(z)).collect();
            let want_d: Vec<f32> = inputs.iter().map(|&z| act.dz(z)).collect();
            for tier in std::iter::once(None).chain(isas().into_iter().map(Some)) {
                let mut d = inputs.clone();
                let mut y = vec![0.0f32; inputs.len()];
                act_row(act, &mut d, &mut y, tier);
                assert_eq!(bits(&y), bits(&want_y), "{act:?} act(z), helper, tier {tier:?}");
                assert_eq!(bits(&d), bits(&want_d), "{act:?} act'(z), helper, tier {tier:?}");
            }

            // The helper as each tier's epilogue: one row `z = 1.0 · w`
            // (k = 1, no bias) through the scalar rows (SIMD off) and
            // the lane body of every runnable ISA.
            let zref: Vec<f32> = inputs.iter().map(|&w| 0.0 + 1.0 * w).collect();
            let want_y: Vec<f32> = zref.iter().map(|&z| act.eval(z)).collect();
            let want_d: Vec<f32> = zref.iter().map(|&z| act.dz(z)).collect();
            let n = inputs.len();
            let mut tiers: Vec<Option<simd::Isa>> = vec![None];
            tiers.extend(isas().into_iter().map(Some));
            for tier in tiers {
                let mut z = vec![0.0f32; n];
                let mut y = vec![0.0f32; n];
                let (w, yd) = (&inputs, Some(&mut y[..]));
                match tier {
                    None => linear_rows(&[1.0], 1, w, None, act, &mut z, yd, 0, 1, 1, n),
                    Some(isa) => {
                        simd::linear_rows_lanes(&[1.0], 1, w, None, act, &mut z, yd, 0, 1, 1, n, isa)
                    }
                }
                assert_eq!(bits(&y), bits(&want_y), "{act:?} act(z), tier {tier:?}");
                assert_eq!(bits(&z), bits(&want_d), "{act:?} act'(z), tier {tier:?}");
            }
        }
    }

    #[test]
    fn blocked_tn_bits_match_generic_tn() {
        for &(k, m, n) in &[(3usize, 1usize, 2usize), (9, 7, 4), (31, 67, 45), (192, 160, 96)] {
            let a = mat(&[k, m], 4);
            let b = mat(&[k, n], 5);
            assert_eq!(
                matmul_tn_blocked(&a, &b).as_slice(),
                a.matmul_tn(&b).as_slice(),
                "tn bits {k}x{m}x{n}"
            );
        }
    }

    #[test]
    fn blocked_nt_bits_match_generic_nt() {
        // k values off the stride-4 grid exercise the tail lanes; n values
        // off the NJ grid exercise the remainder-column `dot` path.
        for &(m, k, n) in &[(1usize, 2usize, 1usize), (6, 7, 9), (13, 21, 5), (67, 45, 31)] {
            let a = mat(&[m, k], 6);
            let b = mat(&[n, k], 7);
            assert_eq!(
                matmul_nt_blocked(&a, &b).as_slice(),
                a.matmul_nt(&b).as_slice(),
                "nt bits {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn act_backward_bits_match_two_pass_formula() {
        let x = mat(&[9, 5], 8);
        let w = mat(&[5, 7], 10);
        let g = mat(&[9, 7], 9);
        let z = x.matmul(&w);
        for act in ACTS {
            // The unfused VJP: materialize act'(z), then multiply.
            let expected = g.mul(&z.map(|a| act.dz(a)));
            let (_, dact) = linear(&x, &w, None, act, Precision::F32, None);
            assert_eq!(
                bits(act_backward(&g, dact.as_ref()).as_slice()),
                bits(expected.as_slice()),
                "{act:?}"
            );
        }
    }

    #[test]
    fn act_scalar_formulas_are_sane() {
        assert_eq!(Act::Relu.eval(-1.0), 0.0);
        assert_eq!(Act::Relu.dz(-1.0), 0.0);
        assert_eq!(Act::Identity.eval(0.25), 0.25);
        assert!((Act::Sigmoid.eval(0.0) - 0.5).abs() < 1e-7);
        assert!((Act::Tanh.dz(0.0) - 1.0).abs() < 1e-7);
        // Central difference cross-check of every derivative.
        for act in ACTS {
            for &z in &[-1.3f32, -0.2, 0.4, 1.7] {
                let h = 1e-3;
                let num = (act.eval(z + h) - act.eval(z - h)) / (2.0 * h);
                assert!(
                    (num - act.dz(z)).abs() < 1e-2,
                    "{act:?} derivative at {z}: analytic {} vs numeric {num}",
                    act.dz(z)
                );
            }
        }
    }
}
