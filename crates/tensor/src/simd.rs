//! The SIMD lane tier: explicit `core::arch` x86-64 kernels for the hot
//! inner loops, bit-identical to the scalar fallback on every input.
//!
//! ## The fixed-lane-order determinism argument
//!
//! Every hot kernel in this crate owns a *canonical accumulation order*
//! (module docs in `fused.rs` / `matmul.rs`). The lane tier never
//! invents a new order — it evaluates the canonical one with vector
//! instructions. Two kernel families, two arguments:
//!
//! * **Elementwise kernels** (`axpy`, `vadd`, `scale`, `adamw_update`,
//!   and the gemm-style `z_row += av · w_row` sweeps): each output
//!   element is an independent chain of IEEE mul / add / div / sqrt
//!   ops. A vector lane evaluates exactly the per-element expression
//!   tree, and no two elements' terms ever mix, so the lane *width* is
//!   irrelevant to the bits.
//! * **Reduction kernels** (`dot`, `sumsq`, the `nt` matmul): the
//!   bracketing of the sum IS the result, so the accumulator layout is
//!   pinned at **four lanes regardless of hardware**: lane `l` sums
//!   elements `i ≡ l (mod 4)` in increasing order, lanes fold as
//!   `(s0 + s1) + (s2 + s3) + tail` — the exact shape of
//!   `crate::matmul`'s `dot`. A wider register never widens a
//!   reduction past four chains; it only carries more independent
//!   four-lane reductions side by side. The scalar fallback replays the
//!   identical 4-chain order, so SIMD ≡ fallback ≡ rayon-parallel stays
//!   bit-exact and machine-independent.
//!
//! ## Tiers
//!
//! CPUID picks the widest tier once per process (`detect_isa`):
//!
//! * **`Avx512`** (AVX-512F + AVX2): the exact-order GEMM strips run on
//!   zmm registers. The forward / `tn` strips hold 64 or 32 output
//!   columns per row (4 or 2 zmm), each lane still the increasing-`p`,
//!   mul-then-add, zero-skip chain of its element. The `nt` block puts
//!   four columns' 4-lane accumulators in one zmm (b quads placed by
//!   `insertf32x4`, the a quad broadcast by `broadcast_f32x4`), so each
//!   output still folds its own four chains. Every other kernel runs
//!   its AVX2 body, and narrower strips take the remainder columns.
//! * **`Avx2`**: 8-wide elementwise kernels and 16 / 8-column GEMM
//!   strips; two columns' 4-lane `nt` accumulators per ymm.
//! * **`Sse`** (baseline x86-64): 4-wide everything.
//! * Off ([`set_simd_enabled`]`(false)`, `MATSCIML_SIMD=0`, non-x86
//!   targets): the canonical scalar loops.
//!
//! All four produce the same bits; [`simd_isa`] names the one in use so
//! run records can explain a throughput difference between hosts.
//!
//! One deliberate re-pin: `sumsq` previously ran a single sequential
//! `f64` chain per block, which no fixed-width vector unit can
//! reproduce faster. Its canonical order is now the 4-chain form
//! (`sumsq4_scalar`): chains seeded at `-0.0` (matching `Sum<f64>`),
//! folded `((s0 + s1) + (s2 + s3)) + tail`. Both the SIMD and the
//! fallback path use the new order, so gradient norms shift by an ULP
//! or so relative to pre-SIMD builds but remain identical across every
//! toggle combination, thread count, and machine.
//!
//! **Never FMA.** A fused multiply-add rounds once where the scalar
//! fallback rounds twice (`mul` then `add`), so every kernel here uses
//! separate multiply and add intrinsics. Lane-wise IEEE mul / add /
//! div / sqrt are correctly rounded and therefore bit-identical to
//! their scalar spellings.
//!
//! The tier is process-togglable ([`set_simd_enabled`], or
//! `MATSCIML_SIMD=0` in the environment before first use) and
//! observable: [`simd_stats`] counts lane-group ops on the SIMD path and
//! fallback hits on the scalar path, surfaced as `simd/*` run-record
//! counters by the trainer.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Toggle
// ---------------------------------------------------------------------------

const MODE_OFF: u8 = 0;
const MODE_ON: u8 = 1;
const MODE_UNSET: u8 = 2;

/// Tri-state so the first query can consult `MATSCIML_SIMD` exactly once
/// without a lock; after that the mode is a plain relaxed atomic flag.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Enable or disable the SIMD lane tier process-wide.
///
/// Purely a performance toggle: every lane kernel is bit-identical to
/// its scalar fallback, so flipping this mid-run cannot change any
/// result — only throughput and the `simd/*` counters.
pub fn set_simd_enabled(enabled: bool) {
    MODE.store(if enabled { MODE_ON } else { MODE_OFF }, Ordering::Relaxed);
}

/// Whether the SIMD lane tier is active. Defaults to enabled; the first
/// call honours `MATSCIML_SIMD=0|false|off` from the environment (the
/// hook `scripts/verify.sh` uses to force the scalar fallback).
pub fn simd_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_ON => true,
        MODE_OFF => false,
        _ => {
            let on = !matches!(
                std::env::var("MATSCIML_SIMD").ok().as_deref(),
                Some("0") | Some("false") | Some("off")
            );
            MODE.store(if on { MODE_ON } else { MODE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

static LANE_OPS: AtomicU64 = AtomicU64::new(0);
static FALLBACK_HITS: AtomicU64 = AtomicU64::new(0);
static HALF_OPS: AtomicU64 = AtomicU64::new(0);

/// Cumulative SIMD-tier counters (process-wide, relaxed like
/// [`crate::pool::PoolStats`] / `EdgeStats` — totals are exact once
/// threads quiesce).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimdStats {
    /// Four-lane groups dispatched to vector kernels (one group ≈ four
    /// scalar elements of work), accumulated per kernel entry.
    pub lane_ops: u64,
    /// Kernel entries that took the scalar fallback — because the tier
    /// is disabled or the target has no supported vector unit.
    pub fallback_hits: u64,
    /// Eight-lane groups dispatched to the reduced-precision wide FMA
    /// kernels (the inference tier, `crate::half`) — zero whenever the
    /// tier is off, which is the default.
    pub half_ops: u64,
}

impl SimdStats {
    /// Counter deltas since an `earlier` snapshot.
    pub fn since(&self, earlier: &SimdStats) -> SimdStats {
        SimdStats {
            lane_ops: self.lane_ops - earlier.lane_ops,
            fallback_hits: self.fallback_hits - earlier.fallback_hits,
            half_ops: self.half_ops - earlier.half_ops,
        }
    }
}

/// Snapshot the process-wide SIMD counters.
pub fn simd_stats() -> SimdStats {
    SimdStats {
        lane_ops: LANE_OPS.load(Ordering::Relaxed),
        fallback_hits: FALLBACK_HITS.load(Ordering::Relaxed),
        half_ops: HALF_OPS.load(Ordering::Relaxed),
    }
}

/// Reset the process-wide SIMD counters to zero (tests / benches).
pub fn reset_simd_stats() {
    LANE_OPS.store(0, Ordering::Relaxed);
    FALLBACK_HITS.store(0, Ordering::Relaxed);
    HALF_OPS.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Instruction set selected for one kernel invocation. Reductions use
/// the same fixed 4-lane layout under every tier; wider tiers only widen
/// elementwise work and pack more independent reductions per register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// 4-wide f32 (baseline x86-64; SSE2 is architecturally guaranteed).
    Sse,
    /// 8-wide f32 for elementwise kernels, 2×4-lane for reductions.
    Avx2,
    /// AVX2 everywhere except the exact-order GEMM strips, which run
    /// 16-wide f32 (forward / `tn`) and 4×4-lane (`nt`) zmm bodies.
    Avx512,
}

impl Isa {
    /// Lower-case tier name as recorded in the run record (`simd_isa`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Isa::Sse => "sse",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_isa() -> Isa {
    use std::sync::OnceLock;
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        // The AVX-512 tier reuses the AVX2 bodies for everything but the
        // GEMM strips, so it requires both.
        if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
            Isa::Avx512
        } else if avx2 {
            Isa::Avx2
        } else {
            Isa::Sse
        }
    })
}

/// The ISA the lane tier would use right now, or `None` when disabled
/// or unsupported. Stats-free: per-element callers (`dot`) go through
/// this; kernel entries use [`dispatch`] so counters move once per call.
#[inline]
pub(crate) fn enabled_isa() -> Option<Isa> {
    if !simd_enabled() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        Some(detect_isa())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Name of the lane tier kernels dispatch to right now: `"avx512"`,
/// `"avx2"` or `"sse"`, or `"off"` when the tier is disabled
/// ([`set_simd_enabled`] / `MATSCIML_SIMD=0`) or the target has no
/// supported vector unit. Run records carry it as `simd_isa`, because
/// throughput depends on the tier while the bits do not.
pub fn simd_isa() -> &'static str {
    enabled_isa().map_or("off", Isa::name)
}

/// Kernel-entry dispatch: returns the active ISA and records
/// `lane_groups` (≈ `elements / 4`, the kernel's own work estimate)
/// against the `simd/lane_ops` counter, or records one fallback hit and
/// returns `None`.
#[inline]
pub(crate) fn dispatch(lane_groups: usize) -> Option<Isa> {
    match enabled_isa() {
        Some(isa) => {
            LANE_OPS.fetch_add(lane_groups as u64, Ordering::Relaxed);
            Some(isa)
        }
        None => {
            FALLBACK_HITS.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    use std::sync::OnceLock;
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Kernel-entry dispatch for the reduced-precision **wide tier**
/// (`crate::half`): answers `true` — and records `lane_groups`
/// (≈ `elements / 8`) against `simd/half_ops` — only when a non-f32
/// inference precision is armed, the lane tier is enabled, and the CPU
/// has AVX2 + FMA. Everywhere else (training default, `MATSCIML_SIMD=0`,
/// non-x86, pre-Haswell hardware) the caller proceeds to the exact
/// pinned-order path, so the fallback is bit-identical rather than
/// merely tolerant.
#[inline]
pub(crate) fn dispatch_wide(lane_groups: usize) -> bool {
    if crate::half::infer_precision() == crate::half::Precision::F32 || !simd_enabled() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if fma_available() {
            HALF_OPS.fetch_add(lane_groups as u64, Ordering::Relaxed);
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lane_groups;
        false
    }
}

// ---------------------------------------------------------------------------
// Canonical scalar forms shared by the fallback and the tests
// ---------------------------------------------------------------------------

/// Canonical sum of squares of one block: four independent `f64` chains
/// seeded at `-0.0` (lane `l` takes elements `i ≡ l (mod 4)` in
/// increasing order), folded `((s0 + s1) + (s2 + s3)) + tail` with the
/// tail seeded at `-0.0` too, so an all-`-0.0` (or empty) input keeps
/// its sign exactly like `Sum<f64>`. This *is* the reference order —
/// the SSE2 kernel reproduces it lane for lane.
pub(crate) fn sumsq4_scalar(src: &[f32]) -> f64 {
    let chunks = src.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
    for c in 0..chunks {
        let i = c * 4;
        let (v0, v1, v2, v3) = (
            src[i] as f64,
            src[i + 1] as f64,
            src[i + 2] as f64,
            src[i + 3] as f64,
        );
        s0 += v0 * v0;
        s1 += v1 * v1;
        s2 += v2 * v2;
        s3 += v3 * v3;
    }
    let mut tail = -0.0f64;
    for &x in &src[chunks * 4..] {
        let v = x as f64;
        tail += v * v;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

// ---------------------------------------------------------------------------
// Lane kernels
// ---------------------------------------------------------------------------
//
// Each public-in-crate wrapper takes the `Isa` its caller got from
// `dispatch()`; the bodies live in the `x86` module. On non-x86-64
// targets `dispatch` always answers `None`, so the wrappers are never
// reached — they fall back to the canonical scalar loops to stay
// compilable (and still bit-identical) everywhere.

/// `dst[i] += src[i] * s`, lane-accelerated. Bit-identical to the
/// scalar loop for any width: each element is an independent mul + add.
#[inline]
pub(crate) fn axpy(dst: &mut [f32], src: &[f32], s: f32, isa: Isa) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match isa {
            Isa::Avx2 | Isa::Avx512 => x86::axpy_avx2(dst, src, s),
            Isa::Sse => x86::axpy_sse(dst, src, s),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v * s);
    }
}

/// `dst[i] += src[i]`, lane-accelerated.
#[inline]
pub(crate) fn vadd(dst: &mut [f32], src: &[f32], isa: Isa) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match isa {
            Isa::Avx2 | Isa::Avx512 => x86::vadd_avx2(dst, src),
            Isa::Sse => x86::vadd_sse(dst, src),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        dst.iter_mut().zip(src).for_each(|(d, &v)| *d += v);
    }
}

/// `dst[i] *= s`, lane-accelerated.
#[inline]
pub(crate) fn scale(dst: &mut [f32], s: f32, isa: Isa) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match isa {
            Isa::Avx2 | Isa::Avx512 => x86::scale_avx2(dst, s),
            Isa::Sse => x86::scale_sse(dst, s),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        dst.iter_mut().for_each(|v| *v *= s);
    }
}

/// `dst[i] = src[i] * s`, lane-accelerated (the edge-kernel row scale).
#[inline]
pub(crate) fn mul_scaled(dst: &mut [f32], src: &[f32], s: f32, isa: Isa) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match isa {
            Isa::Avx2 | Isa::Avx512 => x86::mul_scaled_avx2(dst, src, s),
            Isa::Sse => x86::mul_scaled_sse(dst, src, s),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        dst.iter_mut().zip(src).for_each(|(d, &v)| *d = v * s);
    }
}

/// Fused AdamW update, lane-accelerated. Each element's update is an
/// independent expression tree of IEEE mul / add / div / sqrt, all
/// correctly rounded per lane, so any width matches the scalar loop in
/// `kernels.rs` bit for bit. 4-wide on both ISAs: the update is
/// bandwidth-bound on four streams, wider vectors buy nothing.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn adamw(
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
    isa: Isa,
) {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = isa;
        x86::adamw_sse(
            p, m, v, g, lr, beta1, beta2, eps, weight_decay, bias_correction1, bias_correction2,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        crate::kernels::adamw_scalar(
            p, m, v, g, lr, beta1, beta2, eps, weight_decay, bias_correction1, bias_correction2,
        );
    }
}

/// Canonical-order sum of squares of one block, lane-accelerated: the
/// SSE2 body keeps two `f64×2` accumulators — exactly the four chains
/// of `sumsq4_scalar` — and folds them identically.
#[inline]
pub(crate) fn sumsq4(src: &[f32], isa: Isa) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = isa;
        x86::sumsq4_sse2(src)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        sumsq4_scalar(src)
    }
}

/// Four-lane dot product, bit-identical to `crate::matmul`'s scalar
/// `dot`: one 4-wide accumulator (lane `l` sums `i ≡ l mod 4`), folded
/// `(s0 + s1) + (s2 + s3) + tail`.
#[inline]
pub(crate) fn dot4(a: &[f32], b: &[f32], isa: Isa) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        let _ = isa;
        x86::dot4_sse(a, b)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        crate::matmul::dot(a, b)
    }
}

// ---------------------------------------------------------------------------
// Register-blocked gemm / tn / nt drivers
// ---------------------------------------------------------------------------

/// Widest row block the gemm strips handle: matches `fused::MR` so the
/// lane kernels inherit the same streamed-operand reuse.
const MR: usize = 4;

/// Statically-dispatched row count for the const-generic strips. An
/// optional `[V]` after the kernel name is passed as its second const
/// parameter (the zmm count per row of the AVX-512 strips).
macro_rules! with_rows {
    ($r:expr, $($f:ident)::+ $([$v:literal])? ( $($arg:expr),* $(,)? )) => {
        match $r {
            1 => $($f)::+::<1 $(, $v)?>($($arg),*),
            2 => $($f)::+::<2 $(, $v)?>($($arg),*),
            3 => $($f)::+::<3 $(, $v)?>($($arg),*),
            4 => $($f)::+::<4 $(, $v)?>($($arg),*),
            _ => unreachable!("row blocks are at most MR = 4"),
        }
    };
}

/// Lane-accelerated body of the fused linear forward for output rows
/// `[r0, r0 + rows)` — the drop-in peer of `fused::linear_rows`
/// (same contract: `z` arrives zeroed and covers exactly those rows,
/// `y` optional, bias added once after the full sum, activation reads
/// the final `z`). Per-element accumulation order is the canonical
/// increasing-`p` chain with the `av != 0.0` skip, held in vector
/// registers instead of re-walking `z` through the store buffer for
/// every `p` — that is the whole speedup.
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear_rows_lanes(
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: crate::fused::Act,
    z: &mut [f32],
    mut y: Option<&mut [f32]>,
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
    isa: Isa,
) {
    let mut i = 0;
    while i < rows {
        let r = MR.min(rows - i);
        // SAFETY: rows [r0+i, r0+i+r) of `a` are in-bounds ([rows*k] per
        // caller contract), and z[i*n..(i+r)*n] is in-bounds of `z`.
        unsafe {
            gemm_cols(
                a.as_ptr().add((r0 + i) * k),
                k,
                1,
                w,
                &mut z[i * n..(i + r) * n],
                r,
                k,
                n,
                isa,
            );
        }
        for rr in 0..r {
            let zrow = &mut z[(i + rr) * n..(i + rr + 1) * n];
            if let Some(bs) = bias {
                vadd(zrow, bs, isa);
            }
            if let Some(yd) = y.as_deref_mut() {
                let yrow = &mut yd[(i + rr) * n..(i + rr + 1) * n];
                yrow.iter_mut()
                    .zip(zrow.iter())
                    .for_each(|(yv, &zv)| *yv = act.eval(zv));
            }
        }
        i += r;
    }
}

/// Wide-FMA body of the forward linear/gemm for output rows
/// `[r0, r0 + rows)` — the **reduced-precision inference tier's** peer
/// of [`linear_rows_lanes`]. Same contract (`z` zeroed, `y` optional,
/// bias added once after the sum, activation reads the final `z`), but
/// the accumulation order is *unpinned*: 8-wide AVX2 strips with fused
/// multiply-add, two-way `k` unrolling in the 8-column strip, and no
/// zero-skip branch. Outputs are tolerance-checked against the exact
/// path, never bit-compared. Only reached after [`dispatch_wide`]
/// answered `true` (AVX2 + FMA verified); the non-x86 body is a plain
/// scalar gemm to stay compilable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear_rows_wide(
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: crate::fused::Act,
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
        // SAFETY: rows [r0+i, r0+i+r) of `a` are in-bounds ([rows*k] per
        // caller contract), and z[i*n..(i+r)*n] is in-bounds of `z`.
        unsafe {
            gemm_cols_wide(
                a.as_ptr().add((r0 + i) * k),
                k,
                w,
                &mut z[i * n..(i + r) * n],
                r,
                k,
                n,
            );
        }
        for rr in 0..r {
            let zrow = &mut z[(i + rr) * n..(i + rr + 1) * n];
            if let Some(bs) = bias {
                zrow.iter_mut().zip(bs).for_each(|(zv, &b)| *zv += b);
            }
            if let Some(yd) = y.as_deref_mut() {
                let yrow = &mut yd[(i + rr) * n..(i + rr + 1) * n];
                act_rows_wide(act, zrow, yrow);
            }
        }
        i += r;
    }
}

/// Wide-tier activation row: 8-lane AVX2+FMA fast approximations for
/// the transcendental activations (`exp` via a degree-6 exp2
/// polynomial, relative error ~1e-7 — two orders of magnitude below
/// even the wide gemm's reorder-rounding drift and four below f16
/// storage rounding), exact vector max / copy for `Relu` / `Identity`.
/// The scalar tail (`len % 8`) and every non-x86 element use the exact
/// [`Act::eval`](crate::fused::Act::eval). Only reached from
/// [`linear_rows_wide`] after [`dispatch_wide`] — the pinned-lane and
/// scalar paths keep the exact transcendentals, so the training
/// contract never sees this code.
pub(crate) fn act_rows_wide(act: crate::fused::Act, z: &[f32], y: &mut [f32]) {
    debug_assert_eq!(z.len(), y.len());
    // SAFETY: dispatch_wide verified AVX2 + FMA before the tier ran.
    #[cfg(target_arch = "x86_64")]
    let done = unsafe { x86::wide_act_rows(act, z, y) };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for j in done..z.len() {
        y[j] = act.eval(z[j]);
    }
}

/// Column-tile dispatcher for the wide-FMA tier: 16- then 8-column
/// AVX2+FMA strips, scalar remainder (plain mul + add, no zero skip —
/// the order is unpinned, so the simplest loop is fine). Forward
/// layout only: `av(rr, p) = *a.add(rr * rs + p)`.
///
/// # Safety
/// `a` must be valid for reads at every `rr < r`, `p < k` under the
/// stride formula; `w` holds `k * n` elements; `z` holds `r * n`. On
/// x86-64 the caller must have verified AVX2 + FMA ([`dispatch_wide`]).
unsafe fn gemm_cols_wide(
    a: *const f32,
    rs: usize,
    w: &[f32],
    z: &mut [f32],
    r: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(z.len(), r * n);
    let mut j = 0;
    #[cfg(target_arch = "x86_64")]
    {
        let wp = w.as_ptr();
        let zp = z.as_mut_ptr();
        while j + 16 <= n {
            with_rows!(r, x86::wide_strip16_fma(a, rs, wp.add(j), zp.add(j), n, k));
            j += 16;
        }
        while j + 8 <= n {
            with_rows!(r, x86::wide_strip8_fma(a, rs, wp.add(j), zp.add(j), n, k));
            j += 8;
        }
    }
    for jj in j..n {
        for rr in 0..r {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += *a.add(rr * rs + p) * w[p * n + jj];
            }
            z[rr * n + jj] = acc;
        }
    }
}

/// Lane-accelerated body of `a^T @ b` for output rows `[r0, r0 + rows)`
/// (`a: [k, m]`, `b: [k, n]`, `dst` zeroed, covering exactly those
/// rows) — the peer of `fused::tn_rows` / `matmul::matmul_tn_panel`,
/// same canonical order. Only the `av` addressing differs from the
/// forward kernel: element `(rr, p)` lives at `a[p * m + r0 + rr]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tn_rows_lanes(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    m: usize,
    n: usize,
    isa: Isa,
) {
    let mut i = 0;
    while i < rows {
        let r = MR.min(rows - i);
        // SAFETY: av(rr, p) = a[(r0+i+rr) + p*m], in-bounds for p < k,
        // rr < r since a has k*m elements; dst block is in-bounds.
        unsafe {
            gemm_cols(
                a.as_ptr().add(r0 + i),
                1,
                m,
                b,
                &mut dst[i * n..(i + r) * n],
                r,
                k,
                n,
                isa,
            );
        }
        i += r;
    }
}

/// Column-tile driver shared by the forward and `tn` gemm: walks the
/// output columns in the widest tile the ISA supports, accumulating an
/// `r`-row register block over the full `k` sweep per tile.
/// `av(rr, p) = *a.add(rr * rs + p * ps)` — strides express the two
/// layouts. `z` must arrive zeroed (tiles overwrite it with sums that
/// start at `0.0`, which is the same thing bit-for-bit).
///
/// # Safety
/// `a` must be valid for reads at every `rr < r`, `p < k` under the
/// stride formula; `w` holds `k * n` elements; `z` holds `r * n`.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_cols(
    a: *const f32,
    rs: usize,
    ps: usize,
    w: &[f32],
    z: &mut [f32],
    r: usize,
    k: usize,
    n: usize,
    isa: Isa,
) {
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(z.len(), r * n);
    let wp = w.as_ptr();
    let zp = z.as_mut_ptr();
    let mut j = 0;
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Avx2 | Isa::Avx512 => {
                if isa == Isa::Avx512 {
                    while j + 64 <= n {
                        with_rows!(
                            r,
                            x86::gemm_strip_avx512[4](a, rs, ps, wp.add(j), zp.add(j), n, k)
                        );
                        j += 64;
                    }
                    if j + 32 <= n {
                        with_rows!(
                            r,
                            x86::gemm_strip_avx512[2](a, rs, ps, wp.add(j), zp.add(j), n, k)
                        );
                        j += 32;
                    }
                }
                while j + 16 <= n {
                    with_rows!(r, x86::gemm_strip16_avx2(a, rs, ps, wp.add(j), zp.add(j), n, k));
                    j += 16;
                }
                while j + 8 <= n {
                    with_rows!(r, x86::gemm_strip8_avx2(a, rs, ps, wp.add(j), zp.add(j), n, k));
                    j += 8;
                }
            }
            Isa::Sse => {
                while j + 8 <= n {
                    with_rows!(r, x86::gemm_strip8_sse(a, rs, ps, wp.add(j), zp.add(j), n, k));
                    j += 8;
                }
            }
        }
        while j + 4 <= n {
            with_rows!(r, x86::gemm_strip4_sse(a, rs, ps, wp.add(j), zp.add(j), n, k));
            j += 4;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (isa, wp, zp);
    // Remainder columns (or the whole matrix off-x86): canonical scalar
    // chain per element — increasing p, zero-skip.
    for jj in j..n {
        for rr in 0..r {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = *a.add(rr * rs + p * ps);
                if av != 0.0 {
                    acc += av * w[p * n + jj];
                }
            }
            z[rr * n + jj] = acc;
        }
    }
}

/// Lane-accelerated body of `a @ b^T` for output rows `[r0, r0 + rows)`
/// (`a: [m, k]`, `b: [n, k]`) — the peer of `matmul_nt`'s row kernel
/// and `fused`'s blocked `nt`. Every output element reproduces `dot`'s
/// four-lane bracketing exactly; AVX2 packs two columns' 4-lane
/// accumulators per register and AVX-512 four, instead of widening the
/// reduction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn nt_rows_lanes(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
    isa: Isa,
) {
    let mut i = 0;
    while i < rows {
        let r = MR.min(rows - i);
        let mut j = 0;
        #[cfg(target_arch = "x86_64")]
        {
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let dp = dst.as_mut_ptr();
            // SAFETY: rows r0+i..r0+i+r of `a`, columns j..j+8 (or j+4)
            // of `b` (rows of the [n, k] matrix), and the matching dst
            // sub-block are all in-bounds by the loop conditions.
            unsafe {
                match isa {
                    Isa::Avx2 | Isa::Avx512 => {
                        if isa == Isa::Avx512 {
                            while j + 8 <= n {
                                with_rows!(
                                    r,
                                    x86::nt_cols8_avx512(
                                        ap.add((r0 + i) * k),
                                        bp.add(j * k),
                                        dp.add(i * n + j),
                                        n,
                                        k
                                    )
                                );
                                j += 8;
                            }
                        }
                        while j + 4 <= n {
                            with_rows!(
                                r,
                                x86::nt_cols4_avx2(
                                    ap.add((r0 + i) * k),
                                    bp.add(j * k),
                                    dp.add(i * n + j),
                                    n,
                                    k
                                )
                            );
                            j += 4;
                        }
                    }
                    Isa::Sse => {
                        while j + 4 <= n {
                            with_rows!(
                                r,
                                x86::nt_cols4_sse(
                                    ap.add((r0 + i) * k),
                                    bp.add(j * k),
                                    dp.add(i * n + j),
                                    n,
                                    k
                                )
                            );
                            j += 4;
                        }
                    }
                }
            }
        }
        for jj in j..n {
            let brow = &b[jj * k..(jj + 1) * k];
            for rr in 0..r {
                let arow = &a[(r0 + i + rr) * k..(r0 + i + rr + 1) * k];
                dst[(i + rr) * n + jj] = dot4(arow, brow, isa);
            }
        }
        i += r;
    }
}

// ---------------------------------------------------------------------------
// x86-64 kernel bodies
// ---------------------------------------------------------------------------

/// `core::arch` bodies. SSE2 is architecturally guaranteed on x86-64,
/// so the SSE kernels are safe functions; the AVX2 kernels carry
/// `#[target_feature]` and are only reached after [`detect_isa`]
/// observed AVX2 support. Raw-pointer gemm/nt strips are `unsafe` with
/// per-function contracts.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #![allow(clippy::needless_range_loop)]

    use std::arch::x86_64::*;

    pub(super) fn axpy_sse(dst: &mut [f32], src: &[f32], s: f32) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        // SAFETY: i + 4 <= n bounds every 4-wide access; both slices
        // have length n.
        unsafe {
            let sv = _mm_set1_ps(s);
            while i + 4 <= n {
                let d = _mm_loadu_ps(dp.add(i));
                let x = _mm_loadu_ps(sp.add(i));
                _mm_storeu_ps(dp.add(i), _mm_add_ps(d, _mm_mul_ps(x, sv)));
                i += 4;
            }
        }
        for j in i..n {
            dst[j] += src[j] * s;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], s: f32) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let x = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(x, sv)));
            i += 8;
        }
        for j in i..n {
            dst[j] += src[j] * s;
        }
    }

    pub(super) fn vadd_sse(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        // SAFETY: 4-wide accesses stay below n on both length-n slices.
        unsafe {
            while i + 4 <= n {
                let d = _mm_loadu_ps(dp.add(i));
                let x = _mm_loadu_ps(sp.add(i));
                _mm_storeu_ps(dp.add(i), _mm_add_ps(d, x));
                i += 4;
            }
        }
        for j in i..n {
            dst[j] += src[j];
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vadd_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let x = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, x));
            i += 8;
        }
        for j in i..n {
            dst[j] += src[j];
        }
    }

    pub(super) fn scale_sse(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        // SAFETY: 4-wide accesses stay below n.
        unsafe {
            let sv = _mm_set1_ps(s);
            while i + 4 <= n {
                let d = _mm_loadu_ps(dp.add(i));
                _mm_storeu_ps(dp.add(i), _mm_mul_ps(d, sv));
                i += 4;
            }
        }
        for j in i..n {
            dst[j] *= s;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(dst: &mut [f32], s: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, sv));
            i += 8;
        }
        for j in i..n {
            dst[j] *= s;
        }
    }

    pub(super) fn mul_scaled_sse(dst: &mut [f32], src: &[f32], s: f32) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        // SAFETY: 4-wide accesses stay below n on both length-n slices.
        unsafe {
            let sv = _mm_set1_ps(s);
            while i + 4 <= n {
                let x = _mm_loadu_ps(sp.add(i));
                _mm_storeu_ps(dp.add(i), _mm_mul_ps(x, sv));
                i += 4;
            }
        }
        for j in i..n {
            dst[j] = src[j] * s;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_scaled_avx2(dst: &mut [f32], src: &[f32], s: f32) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(x, sv));
            i += 8;
        }
        for j in i..n {
            dst[j] = src[j] * s;
        }
    }

    /// Vector AdamW: each lane evaluates the exact expression trees of
    /// the scalar loop in `kernels.rs` (all IEEE single-rounded ops, so
    /// the bits match lane for lane); the tail reuses the scalar body.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn adamw_sse(
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
        let lanes = n / 4 * 4;
        // SAFETY: all four slices have length n and every 4-wide access
        // stays below `lanes <= n`.
        unsafe {
            let b1 = _mm_set1_ps(beta1);
            let b2 = _mm_set1_ps(beta2);
            let c1 = _mm_set1_ps(1.0 - beta1);
            let c2 = _mm_set1_ps(1.0 - beta2);
            let bc1 = _mm_set1_ps(bias_correction1);
            let bc2 = _mm_set1_ps(bias_correction2);
            let lrv = _mm_set1_ps(lr);
            let lrwd = _mm_set1_ps(lr * weight_decay);
            let epsv = _mm_set1_ps(eps);
            let (pp, mp, vp) = (p.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
            let gp = g.as_ptr();
            let mut i = 0;
            while i < lanes {
                let gv = _mm_loadu_ps(gp.add(i));
                // m = beta1 * m + (1 - beta1) * g
                let mv = _mm_add_ps(
                    _mm_mul_ps(b1, _mm_loadu_ps(mp.add(i))),
                    _mm_mul_ps(c1, gv),
                );
                _mm_storeu_ps(mp.add(i), mv);
                // v = beta2 * v + ((1 - beta2) * g) * g
                let vv = _mm_add_ps(
                    _mm_mul_ps(b2, _mm_loadu_ps(vp.add(i))),
                    _mm_mul_ps(_mm_mul_ps(c2, gv), gv),
                );
                _mm_storeu_ps(vp.add(i), vv);
                let mhat = _mm_div_ps(mv, bc1);
                let vhat = _mm_div_ps(vv, bc2);
                // p -= lr * weight_decay * p, then the adaptive step.
                let p0 = _mm_loadu_ps(pp.add(i));
                let p1 = _mm_sub_ps(p0, _mm_mul_ps(lrwd, p0));
                let step = _mm_div_ps(_mm_mul_ps(lrv, mhat), _mm_add_ps(_mm_sqrt_ps(vhat), epsv));
                _mm_storeu_ps(pp.add(i), _mm_sub_ps(p1, step));
                i += 4;
            }
        }
        crate::kernels::adamw_scalar(
            &mut p[lanes..],
            &mut m[lanes..],
            &mut v[lanes..],
            &g[lanes..],
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            bias_correction1,
            bias_correction2,
        );
    }

    /// SSE2 body of the canonical 4-chain sum of squares: two `f64×2`
    /// registers hold chains (0,1) and (2,3), seeded at `-0.0`, folded
    /// `((s0 + s1) + (s2 + s3)) + tail` — lane-for-lane the order of
    /// [`super::sumsq4_scalar`].
    pub(super) fn sumsq4_sse2(src: &[f32]) -> f64 {
        let chunks = src.len() / 4;
        let (s0, s1, s2, s3);
        // SAFETY: every 4-wide load is below `chunks * 4 <= len`.
        unsafe {
            let mut a01 = _mm_set1_pd(-0.0);
            let mut a23 = _mm_set1_pd(-0.0);
            let sp = src.as_ptr();
            for c in 0..chunks {
                let q = _mm_loadu_ps(sp.add(c * 4));
                let lo = _mm_cvtps_pd(q);
                let hi = _mm_cvtps_pd(_mm_movehl_ps(q, q));
                a01 = _mm_add_pd(a01, _mm_mul_pd(lo, lo));
                a23 = _mm_add_pd(a23, _mm_mul_pd(hi, hi));
            }
            let mut lo = [0.0f64; 2];
            let mut hi = [0.0f64; 2];
            _mm_storeu_pd(lo.as_mut_ptr(), a01);
            _mm_storeu_pd(hi.as_mut_ptr(), a23);
            (s0, s1, s2, s3) = (lo[0], lo[1], hi[0], hi[1]);
        }
        let mut tail = -0.0f64;
        for &x in &src[chunks * 4..] {
            let v = x as f64;
            tail += v * v;
        }
        ((s0 + s1) + (s2 + s3)) + tail
    }

    /// SSE body of the 4-lane dot product — bit-identical to
    /// `matmul::dot` (accumulator seeded `+0.0` like the scalar lanes).
    pub(super) fn dot4_sse(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / 4;
        let (s0, s1, s2, s3);
        // SAFETY: every 4-wide load is below `chunks * 4 <= len` on
        // both equal-length slices.
        unsafe {
            let mut acc = _mm_setzero_ps();
            let (ap, bp) = (a.as_ptr(), b.as_ptr());
            for c in 0..chunks {
                let av = _mm_loadu_ps(ap.add(c * 4));
                let bv = _mm_loadu_ps(bp.add(c * 4));
                acc = _mm_add_ps(acc, _mm_mul_ps(av, bv));
            }
            let mut s = [0.0f32; 4];
            _mm_storeu_ps(s.as_mut_ptr(), acc);
            (s0, s1, s2, s3) = (s[0], s[1], s[2], s[3]);
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..a.len() {
            tail += a[i] * b[i];
        }
        (s0 + s1) + (s2 + s3) + tail
    }

    /// 16-column AVX2 gemm strip: `R` rows of output accumulated in two
    /// ymm registers each across the full `k` sweep, with the canonical
    /// increasing-`p`, zero-skip order. `w` / `z` are pre-offset to the
    /// strip's first column; row `p` of `w` is at `w + p * n`, output
    /// row `rr` at `z + rr * n`; `av(rr, p) = *(a + rr * rs + p * ps)`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; all addresses produced
    /// by the formulas above for `rr < R`, `p < k`, 16 columns must be
    /// in-bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_strip16_avx2<const R: usize>(
        a: *const f32,
        rs: usize,
        ps: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc0 = [_mm256_setzero_ps(); R];
        let mut acc1 = [_mm256_setzero_ps(); R];
        for p in 0..k {
            let w0 = _mm256_loadu_ps(w.add(p * n));
            let w1 = _mm256_loadu_ps(w.add(p * n + 8));
            for rr in 0..R {
                let av = *a.add(rr * rs + p * ps);
                if av != 0.0 {
                    let avv = _mm256_set1_ps(av);
                    acc0[rr] = _mm256_add_ps(acc0[rr], _mm256_mul_ps(avv, w0));
                    acc1[rr] = _mm256_add_ps(acc1[rr], _mm256_mul_ps(avv, w1));
                }
            }
        }
        for rr in 0..R {
            _mm256_storeu_ps(z.add(rr * n), acc0[rr]);
            _mm256_storeu_ps(z.add(rr * n + 8), acc1[rr]);
        }
    }

    /// 8-column AVX2 gemm strip (one ymm per row). See
    /// [`gemm_strip16_avx2`].
    ///
    /// # Safety
    /// As [`gemm_strip16_avx2`], for 8 columns.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_strip8_avx2<const R: usize>(
        a: *const f32,
        rs: usize,
        ps: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        for p in 0..k {
            let w0 = _mm256_loadu_ps(w.add(p * n));
            for rr in 0..R {
                let av = *a.add(rr * rs + p * ps);
                if av != 0.0 {
                    acc[rr] = _mm256_add_ps(acc[rr], _mm256_mul_ps(_mm256_set1_ps(av), w0));
                }
            }
        }
        for rr in 0..R {
            _mm256_storeu_ps(z.add(rr * n), acc[rr]);
        }
    }

    /// `16 · V`-column AVX-512 gemm strip: `R` rows of output
    /// accumulated in `V` zmm registers each across the full `k` sweep.
    /// Same canonical order as [`gemm_strip16_avx2`] — increasing `p`,
    /// separate mul then add, the `av != 0.0` skip — so each output
    /// element runs the same chain of correctly rounded ops and the lane
    /// width cannot show in the bits.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support; all addresses
    /// produced by the stride formulas for `rr < R`, `p < k`, `16 · V`
    /// columns must be in-bounds.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_strip_avx512<const R: usize, const V: usize>(
        a: *const f32,
        rs: usize,
        ps: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for p in 0..k {
            let mut wv = [_mm512_setzero_ps(); V];
            for (c, wc) in wv.iter_mut().enumerate() {
                *wc = _mm512_loadu_ps(w.add(p * n + 16 * c));
            }
            for rr in 0..R {
                let av = *a.add(rr * rs + p * ps);
                if av != 0.0 {
                    let avv = _mm512_set1_ps(av);
                    for c in 0..V {
                        acc[rr][c] = _mm512_add_ps(acc[rr][c], _mm512_mul_ps(avv, wv[c]));
                    }
                }
            }
        }
        for rr in 0..R {
            for c in 0..V {
                _mm512_storeu_ps(z.add(rr * n + 16 * c), acc[rr][c]);
            }
        }
    }

    /// 16-column AVX2 + FMA gemm strip for the reduced-precision wide
    /// tier: fused multiply-add, no zero-skip branch, accumulation
    /// order unpinned (tolerance-checked by callers, never
    /// bit-compared). Forward layout only (`ps = 1` folded away).
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support; all addresses for
    /// `rr < R`, `p < k`, 16 columns must be in-bounds.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn wide_strip16_fma<const R: usize>(
        a: *const f32,
        rs: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc0 = [_mm256_setzero_ps(); R];
        let mut acc1 = [_mm256_setzero_ps(); R];
        for p in 0..k {
            let w0 = _mm256_loadu_ps(w.add(p * n));
            let w1 = _mm256_loadu_ps(w.add(p * n + 8));
            for rr in 0..R {
                let avv = _mm256_set1_ps(*a.add(rr * rs + p));
                acc0[rr] = _mm256_fmadd_ps(avv, w0, acc0[rr]);
                acc1[rr] = _mm256_fmadd_ps(avv, w1, acc1[rr]);
            }
        }
        for rr in 0..R {
            _mm256_storeu_ps(z.add(rr * n), acc0[rr]);
            _mm256_storeu_ps(z.add(rr * n + 8), acc1[rr]);
        }
    }

    /// 8-column AVX2 + FMA gemm strip with two-way `k` unrolling (two
    /// independent accumulator chains per row, folded once at the end
    /// — legal precisely because the wide tier's reduction order is
    /// unpinned). See [`wide_strip16_fma`].
    ///
    /// # Safety
    /// As [`wide_strip16_fma`], for 8 columns.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn wide_strip8_fma<const R: usize>(
        a: *const f32,
        rs: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc_a = [_mm256_setzero_ps(); R];
        let mut acc_b = [_mm256_setzero_ps(); R];
        let mut p = 0;
        while p + 2 <= k {
            let w0 = _mm256_loadu_ps(w.add(p * n));
            let w1 = _mm256_loadu_ps(w.add((p + 1) * n));
            for rr in 0..R {
                let av = _mm256_set1_ps(*a.add(rr * rs + p));
                let bv = _mm256_set1_ps(*a.add(rr * rs + p + 1));
                acc_a[rr] = _mm256_fmadd_ps(av, w0, acc_a[rr]);
                acc_b[rr] = _mm256_fmadd_ps(bv, w1, acc_b[rr]);
            }
            p += 2;
        }
        if p < k {
            let w0 = _mm256_loadu_ps(w.add(p * n));
            for rr in 0..R {
                let av = _mm256_set1_ps(*a.add(rr * rs + p));
                acc_a[rr] = _mm256_fmadd_ps(av, w0, acc_a[rr]);
            }
        }
        for rr in 0..R {
            _mm256_storeu_ps(z.add(rr * n), _mm256_add_ps(acc_a[rr], acc_b[rr]));
        }
    }

    /// 8-lane `exp` for the wide tier: `exp(x) = 2^(x·log2 e)`, integer
    /// part into the exponent bits, fractional part (∈ [-0.5, 0.5] after
    /// round-to-nearest) through the degree-6 Taylor of `exp(r·ln 2)`.
    /// Relative error ≤ ~1.5e-7 over the clamped domain [-87, 88]; the
    /// clamp keeps both the `2^f` exponent construction and the final
    /// product finite and normal.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn wide_exp(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(88.0)), _mm256_set1_ps(-87.0));
        let t = _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E));
        // cvtps_epi32 rounds to nearest even, so r = t - f ∈ [-0.5, 0.5].
        let fi = _mm256_cvtps_epi32(t);
        let f = _mm256_cvtepi32_ps(fi);
        let r = _mm256_sub_ps(t, f);
        // 2^r: Taylor coefficients (ln 2)^i / i!, Horner over FMA.
        let mut p = _mm256_set1_ps(1.540_353_1e-4);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.333_355_8e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(9.618_129e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.550_411e-2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(2.402_265e-1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(std::f32::consts::LN_2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0));
        // 2^f assembled directly in the exponent field (f ∈ [-126, 127]).
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            fi,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, scale)
    }

    /// 8-lane logistic sigmoid on top of [`wide_exp`], using the same
    /// sign-split as the scalar [`crate::fused::sigmoid`]: `exp` only
    /// ever sees `-|x|`, so it never overflows, and both branches are
    /// one blend away.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn wide_sigmoid(x: __m256) -> __m256 {
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
        let e = wide_exp(_mm256_sub_ps(_mm256_setzero_ps(), abs));
        let one = _mm256_set1_ps(1.0);
        let denom = _mm256_add_ps(one, e);
        let pos = _mm256_div_ps(one, denom);
        let neg = _mm256_div_ps(e, denom);
        let is_neg = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_setzero_ps());
        _mm256_blendv_ps(pos, neg, is_neg)
    }

    /// Vectorized activation for the wide tier: processes `len & !7`
    /// elements 8 at a time and returns that count; the caller finishes
    /// the tail with the exact scalar form. `Relu`/`Identity` are exact
    /// here too (max / copy); the transcendentals ride [`wide_exp`] /
    /// [`wide_sigmoid`] (`tanh(x) = 2σ(2x) − 1`).
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA; `z` and `y` must be the
    /// same length.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn wide_act_rows(act: crate::fused::Act, z: &[f32], y: &mut [f32]) -> usize {
        use crate::fused::{Act, SELU_ALPHA, SELU_SCALE};
        let n8 = z.len() & !7;
        let zp = z.as_ptr();
        let yp = y.as_mut_ptr();
        match act {
            Act::Identity => y[..n8].copy_from_slice(&z[..n8]),
            Act::Relu => {
                let zero = _mm256_setzero_ps();
                let mut i = 0;
                while i < n8 {
                    let v = _mm256_loadu_ps(zp.add(i));
                    _mm256_storeu_ps(yp.add(i), _mm256_max_ps(v, zero));
                    i += 8;
                }
            }
            Act::Silu => {
                let mut i = 0;
                while i < n8 {
                    let v = _mm256_loadu_ps(zp.add(i));
                    _mm256_storeu_ps(yp.add(i), _mm256_mul_ps(v, wide_sigmoid(v)));
                    i += 8;
                }
            }
            Act::Sigmoid => {
                let mut i = 0;
                while i < n8 {
                    let v = _mm256_loadu_ps(zp.add(i));
                    _mm256_storeu_ps(yp.add(i), wide_sigmoid(v));
                    i += 8;
                }
            }
            Act::Tanh => {
                let two = _mm256_set1_ps(2.0);
                let one = _mm256_set1_ps(1.0);
                let mut i = 0;
                while i < n8 {
                    let v = _mm256_loadu_ps(zp.add(i));
                    let s = wide_sigmoid(_mm256_mul_ps(two, v));
                    _mm256_storeu_ps(yp.add(i), _mm256_fmsub_ps(two, s, one));
                    i += 8;
                }
            }
            Act::Selu => {
                let scale = _mm256_set1_ps(SELU_SCALE);
                let scale_alpha = _mm256_set1_ps(SELU_SCALE * SELU_ALPHA);
                let one = _mm256_set1_ps(1.0);
                let zero = _mm256_setzero_ps();
                let mut i = 0;
                while i < n8 {
                    let v = _mm256_loadu_ps(zp.add(i));
                    let pos = _mm256_mul_ps(scale, v);
                    let neg =
                        _mm256_mul_ps(scale_alpha, _mm256_sub_ps(wide_exp(v), one));
                    let is_pos = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                    _mm256_storeu_ps(yp.add(i), _mm256_blendv_ps(neg, pos, is_pos));
                    i += 8;
                }
            }
        }
        n8
    }

    /// 8-column SSE gemm strip (two xmm per row). See
    /// [`gemm_strip16_avx2`].
    ///
    /// # Safety
    /// All addresses produced by the stride formulas for `rr < R`,
    /// `p < k`, 8 columns must be in-bounds.
    pub(super) unsafe fn gemm_strip8_sse<const R: usize>(
        a: *const f32,
        rs: usize,
        ps: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc0 = [_mm_setzero_ps(); R];
        let mut acc1 = [_mm_setzero_ps(); R];
        for p in 0..k {
            let w0 = _mm_loadu_ps(w.add(p * n));
            let w1 = _mm_loadu_ps(w.add(p * n + 4));
            for rr in 0..R {
                let av = *a.add(rr * rs + p * ps);
                if av != 0.0 {
                    let avv = _mm_set1_ps(av);
                    acc0[rr] = _mm_add_ps(acc0[rr], _mm_mul_ps(avv, w0));
                    acc1[rr] = _mm_add_ps(acc1[rr], _mm_mul_ps(avv, w1));
                }
            }
        }
        for rr in 0..R {
            _mm_storeu_ps(z.add(rr * n), acc0[rr]);
            _mm_storeu_ps(z.add(rr * n + 4), acc1[rr]);
        }
    }

    /// 4-column SSE gemm strip (one xmm per row). See
    /// [`gemm_strip16_avx2`].
    ///
    /// # Safety
    /// As [`gemm_strip8_sse`], for 4 columns.
    pub(super) unsafe fn gemm_strip4_sse<const R: usize>(
        a: *const f32,
        rs: usize,
        ps: usize,
        w: *const f32,
        z: *mut f32,
        n: usize,
        k: usize,
    ) {
        let mut acc = [_mm_setzero_ps(); R];
        for p in 0..k {
            let w0 = _mm_loadu_ps(w.add(p * n));
            for rr in 0..R {
                let av = *a.add(rr * rs + p * ps);
                if av != 0.0 {
                    acc[rr] = _mm_add_ps(acc[rr], _mm_mul_ps(_mm_set1_ps(av), w0));
                }
            }
        }
        for rr in 0..R {
            _mm_storeu_ps(z.add(rr * n), acc[rr]);
        }
    }

    /// `R` rows × 4 columns of the `nt` product on AVX2: each ymm
    /// register carries TWO columns' fixed 4-lane accumulators (the
    /// reduction is never widened past four chains), folded exactly
    /// like `matmul::dot`. `a` points at the block's first row (row
    /// stride `k`), `b` at the first of four consecutive `b` rows
    /// (stride `k`), `dst` at the block's first output element (row
    /// stride `n`).
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `R` rows of `a`, 4 rows
    /// of `b`, and the `R × 4` output sub-block must be in-bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nt_cols4_avx2<const R: usize>(
        a: *const f32,
        b: *const f32,
        dst: *mut f32,
        n: usize,
        k: usize,
    ) {
        let kc = k / 4 * 4;
        let mut acc01 = [_mm256_setzero_ps(); R];
        let mut acc23 = [_mm256_setzero_ps(); R];
        let mut i = 0;
        while i < kc {
            let b01 = _mm256_loadu2_m128(b.add(k + i), b.add(i));
            let b23 = _mm256_loadu2_m128(b.add(3 * k + i), b.add(2 * k + i));
            for rr in 0..R {
                let aq = _mm_loadu_ps(a.add(rr * k + i));
                let aqq = _mm256_set_m128(aq, aq);
                acc01[rr] = _mm256_add_ps(acc01[rr], _mm256_mul_ps(aqq, b01));
                acc23[rr] = _mm256_add_ps(acc23[rr], _mm256_mul_ps(aqq, b23));
            }
            i += 4;
        }
        for rr in 0..R {
            let mut lo = [0.0f32; 8];
            let mut hi = [0.0f32; 8];
            _mm256_storeu_ps(lo.as_mut_ptr(), acc01[rr]);
            _mm256_storeu_ps(hi.as_mut_ptr(), acc23[rr]);
            for t in 0..4 {
                let s = if t < 2 { &lo[t * 4..] } else { &hi[(t - 2) * 4..] };
                let mut tail = 0.0f32;
                for ii in kc..k {
                    tail += *a.add(rr * k + ii) * *b.add(t * k + ii);
                }
                *dst.add(rr * n + t) = (s[0] + s[1]) + (s[2] + s[3]) + tail;
            }
        }
    }

    /// `R` rows × 8 columns of the `nt` product on AVX-512: each zmm
    /// register carries FOUR columns' fixed 4-lane accumulators (b quads
    /// placed by `insertf32x4`, the a quad broadcast to all four), so
    /// the reduction still runs exactly four chains per output element
    /// and folds like `matmul::dot`. Pointer contract as
    /// [`nt_cols4_avx2`], for 8 consecutive `b` rows.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support; `R` rows of `a`, 8
    /// rows of `b`, and the `R × 8` output sub-block must be in-bounds.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nt_cols8_avx512<const R: usize>(
        a: *const f32,
        b: *const f32,
        dst: *mut f32,
        n: usize,
        k: usize,
    ) {
        let kc = k / 4 * 4;
        let mut acc0 = [_mm512_setzero_ps(); R];
        let mut acc1 = [_mm512_setzero_ps(); R];
        let quads = |c: usize, i: usize| {
            let mut v = _mm512_castps128_ps512(_mm_loadu_ps(b.add(c * k + i)));
            v = _mm512_insertf32x4::<1>(v, _mm_loadu_ps(b.add((c + 1) * k + i)));
            v = _mm512_insertf32x4::<2>(v, _mm_loadu_ps(b.add((c + 2) * k + i)));
            _mm512_insertf32x4::<3>(v, _mm_loadu_ps(b.add((c + 3) * k + i)))
        };
        let mut i = 0;
        while i < kc {
            let b0 = quads(0, i);
            let b1 = quads(4, i);
            for rr in 0..R {
                let aq = _mm512_broadcast_f32x4(_mm_loadu_ps(a.add(rr * k + i)));
                acc0[rr] = _mm512_add_ps(acc0[rr], _mm512_mul_ps(aq, b0));
                acc1[rr] = _mm512_add_ps(acc1[rr], _mm512_mul_ps(aq, b1));
            }
            i += 4;
        }
        for rr in 0..R {
            let mut s = [0.0f32; 32];
            _mm512_storeu_ps(s.as_mut_ptr(), acc0[rr]);
            _mm512_storeu_ps(s.as_mut_ptr().add(16), acc1[rr]);
            for t in 0..8 {
                let q = &s[t * 4..t * 4 + 4];
                let mut tail = 0.0f32;
                for ii in kc..k {
                    tail += *a.add(rr * k + ii) * *b.add(t * k + ii);
                }
                *dst.add(rr * n + t) = (q[0] + q[1]) + (q[2] + q[3]) + tail;
            }
        }
    }

    /// `R` rows × 4 columns of the `nt` product on SSE: one xmm 4-lane
    /// accumulator per output element, `dot`-identical fold.
    ///
    /// # Safety
    /// `R` rows of `a`, 4 rows of `b`, and the `R × 4` output sub-block
    /// must be in-bounds.
    pub(super) unsafe fn nt_cols4_sse<const R: usize>(
        a: *const f32,
        b: *const f32,
        dst: *mut f32,
        n: usize,
        k: usize,
    ) {
        let kc = k / 4 * 4;
        let mut acc = [[_mm_setzero_ps(); 4]; R];
        let mut i = 0;
        while i < kc {
            let bq = [
                _mm_loadu_ps(b.add(i)),
                _mm_loadu_ps(b.add(k + i)),
                _mm_loadu_ps(b.add(2 * k + i)),
                _mm_loadu_ps(b.add(3 * k + i)),
            ];
            for rr in 0..R {
                let aq = _mm_loadu_ps(a.add(rr * k + i));
                for t in 0..4 {
                    acc[rr][t] = _mm_add_ps(acc[rr][t], _mm_mul_ps(aq, bq[t]));
                }
            }
            i += 4;
        }
        for rr in 0..R {
            for t in 0..4 {
                let mut s = [0.0f32; 4];
                _mm_storeu_ps(s.as_mut_ptr(), acc[rr][t]);
                let mut tail = 0.0f32;
                for ii in kc..k {
                    tail += *a.add(rr * k + ii) * *b.add(t * k + ii);
                }
                *dst.add(rr * n + t) = (s[0] + s[1]) + (s[2] + s[3]) + tail;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wide-tier vectorized activations are *approximations* (fast
    /// `exp`), but they must track the exact scalar forms far inside the
    /// tier's tolerance story: ~1e-7 relative, which this test bounds at
    /// 1e-5 absolute-plus-relative over a sweep covering both clamp
    /// edges, zero, denormal-small inputs, and an odd length that forces
    /// the scalar tail. `Relu`/`Identity` must be exact.
    #[test]
    fn wide_activations_track_exact_eval() {
        use crate::fused::Act;
        const ACTS: [Act; 6] =
            [Act::Identity, Act::Silu, Act::Selu, Act::Relu, Act::Tanh, Act::Sigmoid];
        let mut z: Vec<f32> = (0..1031).map(|i| (i as f32 - 515.0) * 0.04).collect();
        z.extend_from_slice(&[0.0, -0.0, 1e-30, -1e-30, 1e3, -1e3, 1e30, -1e30, 87.9, -86.9]);
        for act in ACTS {
            let mut y = vec![0.0f32; z.len()];
            act_rows_wide(act, &z, &mut y);
            for (&zi, &yi) in z.iter().zip(&y) {
                let want = act.eval(zi);
                if matches!(act, Act::Identity | Act::Relu) {
                    // Numeric equality: IEEE maxNum leaves max(-0.0, 0.0)
                    // sign unspecified, and scalar `f32::max` and
                    // `_mm256_max_ps` disagree on it.
                    assert_eq!(yi, want, "{act:?}({zi}) must be exact");
                } else {
                    assert!(
                        (yi - want).abs() <= 1e-5 + want.abs() * 1e-5,
                        "{act:?}({zi}): got {yi:e}, want {want:e}"
                    );
                }
            }
        }
    }

    /// Lane-boundary lengths: everything in 0..=9 (sub-lane and the first
    /// full lane group plus stragglers), and 4k-1 / 4k / 4k+1 brackets at
    /// several scales so every tail width meets every strip width.
    const LENGTHS: &[usize] = &[
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 127, 128, 129, 131, 132, 133, 1023, 1024, 1025,
        4095, 4096, 4097,
    ];

    /// ISAs actually runnable here. Empty off x86-64 (the wrappers are
    /// scalar there, so the comparisons would be trivially true anyway).
    fn isas() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        {
            let mut v = vec![Isa::Sse];
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Isa::Avx2);
                if std::arch::is_x86_feature_detected!("avx512f") {
                    v.push(Isa::Avx512);
                }
            }
            v
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Vec::new()
        }
    }

    fn xorshift(state: &mut u32) -> u32 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        *state = x;
        x
    }

    /// Deterministic values in [-2, 2] with exact +0.0 and -0.0 sprinkled
    /// in (they exercise the gemm zero-skip and the sign-of-zero seeds).
    fn vals(n: usize, seed: u32) -> Vec<f32> {
        let mut st = seed | 1;
        (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    return 0.0;
                }
                if i % 11 == 5 {
                    return -0.0;
                }
                let u = xorshift(&mut st);
                ((u >> 8) as f32 / (1u32 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: bit mismatch at {i}: {g} vs {w}"
            );
        }
    }

    /// The canonical scalar dot chain (`matmul::dot` with SIMD off).
    fn dot4_ref(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for c in 0..chunks {
            let i = c * 4;
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..a.len() {
            tail += a[i] * b[i];
        }
        (s0 + s1) + (s2 + s3) + tail
    }

    /// Canonical forward gemm: increasing-p chain per element with the
    /// `av != 0.0` skip — the order `matmul_panel` / `linear_rows` use.
    fn gemm_ref(a: &[f32], w: &[f32], rows: usize, k: usize, n: usize) -> Vec<f32> {
        let mut z = vec![0.0f32; rows * n];
        for r in 0..rows {
            for p in 0..k {
                let av = a[r * k + p];
                if av != 0.0 {
                    for j in 0..n {
                        z[r * n + j] += av * w[p * n + j];
                    }
                }
            }
        }
        z
    }

    #[test]
    fn elementwise_lanes_match_scalar_at_lane_boundaries() {
        for &len in LENGTHS {
            let src = vals(len, 0x1234_5678 ^ len as u32);
            let base = vals(len, 0x9e37_79b9 ^ len as u32);
            for &isa in &isas() {
                // axpy
                let mut d = base.clone();
                axpy(&mut d, &src, 0.37, isa);
                let mut e = base.clone();
                e.iter_mut().zip(&src).for_each(|(o, &v)| *o += v * 0.37);
                assert_bits_eq(&d, &e, "axpy");
                // vadd
                let mut d = base.clone();
                vadd(&mut d, &src, isa);
                let mut e = base.clone();
                e.iter_mut().zip(&src).for_each(|(o, &v)| *o += v);
                assert_bits_eq(&d, &e, "vadd");
                // scale
                let mut d = base.clone();
                scale(&mut d, -1.625, isa);
                let mut e = base.clone();
                e.iter_mut().for_each(|o| *o *= -1.625);
                assert_bits_eq(&d, &e, "scale");
                // mul_scaled
                let mut d = base.clone();
                mul_scaled(&mut d, &src, 0.81, isa);
                let mut e = base.clone();
                e.iter_mut().zip(&src).for_each(|(o, &v)| *o = v * 0.81);
                assert_bits_eq(&d, &e, "mul_scaled");
            }
        }
    }

    #[test]
    fn adamw_lanes_match_scalar_at_lane_boundaries() {
        let (lr, b1, b2, eps, wd) = (1e-3f32, 0.9f32, 0.999f32, 1e-8f32, 0.01f32);
        let (bc1, bc2) = (1.0 - b1.powi(3), 1.0 - b2.powi(3));
        for &len in LENGTHS {
            let p0 = vals(len, 11 ^ len as u32);
            let m0 = vals(len, 22 ^ len as u32);
            // Second moments are sums of squares: keep them non-negative.
            let v0: Vec<f32> = vals(len, 33 ^ len as u32).iter().map(|v| v * v).collect();
            let g = vals(len, 44 ^ len as u32);
            for &isa in &isas() {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                adamw(&mut p, &mut m, &mut v, &g, lr, b1, b2, eps, wd, bc1, bc2, isa);
                let (mut pe, mut me, mut ve) = (p0.clone(), m0.clone(), v0.clone());
                crate::kernels::adamw_scalar(
                    &mut pe, &mut me, &mut ve, &g, lr, b1, b2, eps, wd, bc1, bc2,
                );
                assert_bits_eq(&p, &pe, "adamw p");
                assert_bits_eq(&m, &me, "adamw m");
                assert_bits_eq(&v, &ve, "adamw v");
            }
        }
    }

    #[test]
    fn reductions_match_canonical_chains_at_lane_boundaries() {
        for &len in LENGTHS {
            let a = vals(len, 55 ^ len as u32);
            let b = vals(len, 66 ^ len as u32);
            let want_ss = sumsq4_scalar(&a);
            let want_dot = dot4_ref(&a, &b);
            for &isa in &isas() {
                assert_eq!(sumsq4(&a, isa).to_bits(), want_ss.to_bits(), "sumsq len {len}");
                assert_eq!(dot4(&a, &b, isa).to_bits(), want_dot.to_bits(), "dot len {len}");
            }
        }
    }

    #[test]
    fn empty_reductions_keep_negative_zero() {
        assert_eq!(sumsq4_scalar(&[]).to_bits(), (-0.0f64).to_bits());
        for &isa in &isas() {
            assert_eq!(sumsq4(&[], isa).to_bits(), (-0.0f64).to_bits());
        }
    }

    /// Column counts that reach the 64- and 32-column AVX-512 strips,
    /// with every narrower strip and the scalar loop taking remainders.
    const WIDE_NS: [usize; 6] = [32, 48, 63, 75, 256, 513];

    /// Shapes for the forward / `tn` strip tests: the hand-picked
    /// narrow cases plus every row count 1–9 against each wide `n`.
    fn gemm_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (1, 3, 5),
            (2, 8, 4),
            (3, 7, 8),
            (4, 16, 16),
            (5, 13, 17),
            (6, 9, 33),
            (7, 32, 40),
            (9, 5, 19),
        ];
        for (i, &n) in WIDE_NS.iter().enumerate() {
            for rows in 1..=9 {
                shapes.push((rows, [3, 7, 16][(rows + i) % 3], n));
            }
        }
        shapes
    }

    #[test]
    fn gemm_strips_match_zero_skip_reference() {
        for (rows, k, n) in gemm_shapes() {
            let a = vals(rows * k, (rows * 31 + k) as u32);
            let w = vals(k * n, (k * 17 + n) as u32);
            let want = gemm_ref(&a, &w, rows, k, n);
            for &isa in &isas() {
                let mut z = vec![0.0f32; rows * n];
                linear_rows_lanes(
                    &a,
                    &w,
                    None,
                    crate::fused::Act::Identity,
                    &mut z,
                    None,
                    0,
                    rows,
                    k,
                    n,
                    isa,
                );
                assert_bits_eq(&z, &want, "linear_rows_lanes");
                // r0 split: computing rows [1, rows) as an offset block
                // must give the same bits as the same rows of the full run.
                if rows > 1 {
                    let mut zt = vec![0.0f32; (rows - 1) * n];
                    linear_rows_lanes(
                        &a,
                        &w,
                        None,
                        crate::fused::Act::Identity,
                        &mut zt,
                        None,
                        1,
                        rows - 1,
                        k,
                        n,
                        isa,
                    );
                    assert_bits_eq(&zt, &want[n..], "linear_rows_lanes r0=1");
                }
            }
        }
    }

    #[test]
    fn linear_epilogue_matches_reference() {
        let (rows, k, n) = (5usize, 11usize, 13usize);
        let a = vals(rows * k, 77);
        let w = vals(k * n, 88);
        let bias = vals(n, 99);
        let mut zr = gemm_ref(&a, &w, rows, k, n);
        for r in 0..rows {
            zr[r * n..(r + 1) * n]
                .iter_mut()
                .zip(&bias)
                .for_each(|(o, &v)| *o += v);
        }
        let yr: Vec<f32> = zr.iter().map(|&z| crate::fused::Act::Silu.eval(z)).collect();
        for &isa in &isas() {
            let mut z = vec![0.0f32; rows * n];
            let mut y = vec![0.0f32; rows * n];
            linear_rows_lanes(
                &a,
                &w,
                Some(&bias),
                crate::fused::Act::Silu,
                &mut z,
                Some(&mut y),
                0,
                rows,
                k,
                n,
                isa,
            );
            assert_bits_eq(&z, &zr, "linear z (bias)");
            assert_bits_eq(&y, &yr, "linear y (silu)");
        }
    }

    #[test]
    fn tn_rows_match_zero_skip_reference() {
        // dst = a^T @ b with a: [k, m], b: [k, n]; av(r, p) = a[p*m + r].
        let mut shapes = vec![(1usize, 4usize, 4usize), (3, 7, 9), (5, 12, 17), (8, 16, 33)];
        shapes.extend(gemm_shapes());
        for (m, k, n) in shapes {
            let a = vals(k * m, (m * 13 + k) as u32);
            let b = vals(k * n, (k * 29 + n) as u32);
            let mut want = vec![0.0f32; m * n];
            for r in 0..m {
                for p in 0..k {
                    let av = a[p * m + r];
                    if av != 0.0 {
                        for j in 0..n {
                            want[r * n + j] += av * b[p * n + j];
                        }
                    }
                }
            }
            for &isa in &isas() {
                let mut dst = vec![0.0f32; m * n];
                tn_rows_lanes(&a, &b, &mut dst, 0, m, k, m, n, isa);
                assert_bits_eq(&dst, &want, "tn_rows_lanes");
            }
        }
    }

    #[test]
    fn nt_rows_match_dot_reference() {
        // dst[r, j] = dot(a row r, b row j), a: [m, k], b: [n, k].
        let mut shapes = vec![(1usize, 5usize, 1usize), (3, 9, 4), (5, 16, 7), (6, 21, 12)];
        // Column counts around the 8-wide AVX-512 block and depths with
        // and without a `k % 4` tail, at every row count 1–9.
        for n in [8, 13, 24, 33] {
            for k in [4, 7, 129] {
                for m in 1..=9 {
                    shapes.push((m, k, n));
                }
            }
        }
        for (m, k, n) in shapes {
            let a = vals(m * k, (m * 41 + k) as u32);
            let b = vals(n * k, (n * 43 + k) as u32);
            let mut want = vec![0.0f32; m * n];
            for r in 0..m {
                for j in 0..n {
                    want[r * n + j] = dot4_ref(&a[r * k..(r + 1) * k], &b[j * k..(j + 1) * k]);
                }
            }
            for &isa in &isas() {
                let mut dst = vec![0.0f32; m * n];
                nt_rows_lanes(&a, &b, &mut dst, 0, m, k, n, isa);
                assert_bits_eq(&dst, &want, "nt_rows_lanes");
            }
        }
    }

    #[test]
    fn stats_counters_move_on_kernel_entry() {
        let before = simd_stats();
        let mut d = vals(4096, 7);
        let s = vals(4096, 9);
        crate::kernels::vadd(&mut d, &s);
        let delta = simd_stats().since(&before);
        // Whichever mode the process is in, exactly one of the counters
        // must have advanced for this kernel entry.
        assert!(
            delta.lane_ops > 0 || delta.fallback_hits > 0,
            "no simd counter moved: {delta:?}"
        );
    }

    /// Prints the detected tier (CI logs show whether the AVX-512
    /// strips ran) and checks the public name is one of the documented
    /// four. Other tests flip the toggle concurrently, so `off` is legal
    /// here even on a vector host.
    #[test]
    fn simd_isa_names_a_known_tier() {
        let name = simd_isa();
        assert!(["avx512", "avx2", "sse", "off"].contains(&name), "unknown tier {name}");
        #[cfg(target_arch = "x86_64")]
        println!("detected lane tier: {}", detect_isa().name());
    }

    #[test]
    fn toggle_roundtrip_is_bit_stable() {
        let was_on = simd_enabled();
        let src = vals(1037, 21);
        let base = vals(1037, 23);
        set_simd_enabled(true);
        let mut on = base.clone();
        crate::kernels::axpy(&mut on, &src, 0.5);
        set_simd_enabled(false);
        let mut off = base.clone();
        crate::kernels::axpy(&mut off, &src, 0.5);
        set_simd_enabled(was_on);
        assert_bits_eq(&on, &off, "toggle");
    }
}
