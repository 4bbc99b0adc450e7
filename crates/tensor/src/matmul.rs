//! Cache-blocked, rayon-parallel matrix multiply.
//!
//! The kernel follows the standard i-k-j loop order (the inner loop streams
//! over contiguous rows of `b` and `out`, which auto-vectorizes well) with
//! row-panel parallelism: the output is split into horizontal panels that
//! rayon distributes across the pool. Panels are sized so a panel of `b`
//! columns stays resident in L2.

use rayon::prelude::*;

use crate::fused::Act;
use crate::par::{par_gate, PAR_MIN_FLOPS};
use crate::simd;
use crate::tensor::Tensor;

/// Rows of `a` handled per parallel task. Tuned for small-to-medium GEMMs
/// (the toolkit's matrices are at most a few thousand rows by 256 columns);
/// large enough to amortize task overhead, small enough to load-balance.
/// Shared with the fused kernels in [`crate::fused`].
pub(crate) const ROW_PANEL: usize = 64;

/// Side of the square tile the blocked [`Tensor::transpose`] copies at a
/// time: 32×32 f32 = two 4 KiB sub-blocks, comfortably L1-resident for
/// both the row-major reads and the column-major writes.
const TRANSPOSE_TILE: usize = 32;

impl Tensor {
    /// Matrix product `self @ rhs` for `[m, k] x [k, n] -> [m, n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul: lhs must be 2-D, got {:?}", self.shape);
        assert_eq!(rhs.ndim(), 2, "matmul: rhs must be 2-D, got {:?}", rhs.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul: inner dimensions differ, lhs {:?} vs rhs {:?}",
            self.shape, rhs.shape
        );

        let mut out = Tensor::zeros(&[m, n]);
        let a = self.as_slice();
        let b = rhs.as_slice();
        let flops = 2 * m * n * k;
        let isa = simd::dispatch(m * n * k / 4);
        let dst = out.as_mut_slice();

        let rows_kernel = |r0: usize, rows: usize, chunk: &mut [f32]| match isa {
            Some(isa) => {
                simd::linear_rows_lanes(a, k, b, None, Act::Identity, chunk, None, r0, rows, k, n, isa)
            }
            None => matmul_panel(a, b, chunk, r0, rows, k, n),
        };
        if !par_gate(flops, PAR_MIN_FLOPS) {
            rows_kernel(0, m, dst);
        } else {
            dst.par_chunks_mut(ROW_PANEL * n)
                .enumerate()
                .for_each(|(panel, chunk)| {
                    rows_kernel(panel * ROW_PANEL, chunk.len() / n, chunk);
                });
        }
        out
    }

    /// `self^T @ rhs` for `[k, m] x [k, n] -> [m, n]` without materializing
    /// the transpose. Used by the autograd backward pass for weights.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn: lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul_tn: rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_tn: leading dimensions differ, lhs {:?} vs rhs {:?}",
            self.shape, rhs.shape
        );
        let mut out = Tensor::zeros(&[m, n]);
        let a = self.as_slice();
        let b = rhs.as_slice();
        let flops = 2 * m * n * k;
        let isa = simd::dispatch(m * n * k / 4);
        let dst = out.as_mut_slice();
        let rows_kernel = |r0: usize, rows: usize, chunk: &mut [f32]| match isa {
            Some(isa) => simd::tn_rows_lanes(a, b, chunk, r0, rows, k, m, n, isa),
            None => matmul_tn_panel(a, b, chunk, r0, rows, k, m, n),
        };
        if !par_gate(flops, PAR_MIN_FLOPS) {
            rows_kernel(0, m, dst);
        } else {
            dst.par_chunks_mut(ROW_PANEL * n)
                .enumerate()
                .for_each(|(panel, chunk)| {
                    rows_kernel(panel * ROW_PANEL, chunk.len() / n, chunk);
                });
        }
        out
    }

    /// `self @ rhs^T` for `[m, k] x [n, k] -> [m, n]` without materializing
    /// the transpose. Used by the autograd backward pass for activations and
    /// by brute-force nearest-neighbor search (dot-product kernels).
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_nt: lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul_nt: rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_nt: inner dimensions differ, lhs {:?} vs rhs {:?}",
            self.shape, rhs.shape
        );
        let mut out = Tensor::zeros(&[m, n]);
        let a = self.as_slice();
        let b = rhs.as_slice();
        let flops = 2 * m * n * k;
        let isa = simd::dispatch(m * n * k / 4);
        let dst = out.as_mut_slice();
        let kernel = |r0: usize, rows: usize, dst: &mut [f32]| match isa {
            Some(isa) => simd::nt_rows_lanes(a, b, dst, r0, rows, k, n, isa),
            None => {
                for i in 0..rows {
                    let arow = &a[(r0 + i) * k..(r0 + i + 1) * k];
                    let orow = &mut dst[i * n..(i + 1) * n];
                    for (j, o) in orow.iter_mut().enumerate() {
                        let brow = &b[j * k..(j + 1) * k];
                        *o = dot(arow, brow);
                    }
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

    /// Transposed copy of a 2-D tensor.
    ///
    /// Cache-blocked: the matrix is walked in `TRANSPOSE_TILE`-square
    /// tiles so both the source rows and the destination columns of a tile
    /// stay L1-resident, instead of the naive double loop whose writes
    /// stride by `m` floats and miss on every element once `m` outgrows
    /// the cache.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let src = self.as_slice();
        let mut out = Tensor::zeros(&[n, m]);
        let dst = out.as_mut_slice();
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + TRANSPOSE_TILE).min(m);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + TRANSPOSE_TILE).min(n);
                for i in i0..i1 {
                    for j in j0..j1 {
                        dst[j * m + i] = src[i * n + j];
                    }
                }
                j0 = j1;
            }
            i0 = i1;
        }
        out
    }
}

/// `rows` output rows of `a^T @ b` starting at `r0`, into `dst`
/// (`rows * n`). `out[i, j] = sum_p a[p, i] * b[p, j]`; accumulates
/// rank-1 updates row by row of the k dimension so the reads of `b` and
/// writes of `dst` stream contiguously. Each caller task owns a
/// horizontal panel of the output and walks the full k dimension for its
/// rows, so panels never share writes and the per-element accumulation
/// order is panel-independent. [`crate::fused`]'s weight-gradient kernel
/// reproduces this per-element order exactly (row-blocked).
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_tn_panel(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    for p in 0..k {
        let arow = &a[p * m + r0..p * m + r0 + rows];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                let orow = &mut dst[i * n..(i + 1) * n];
                orow.iter_mut().zip(brow).for_each(|(o, &bv)| *o += av * bv);
            }
        }
    }
}

/// Multiply `rows` rows of `a` starting at `r0` into `dst` (`rows * n`).
/// [`crate::fused`]'s forward kernel accumulates with this exact
/// per-element order (row-blocked) before fusing the bias + activation.
fn matmul_panel(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    for i in 0..rows {
        let arow = &a[(r0 + i) * k..(r0 + i + 1) * k];
        let orow = &mut dst[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                let brow = &b[p * n..(p + 1) * n];
                orow.iter_mut().zip(brow).for_each(|(o, &bv)| *o += av * bv);
            }
        }
    }
}

/// Unrolled dot product with four independent accumulators, so the compiler
/// can keep the FMA pipeline full without needing `-ffast-math` reassociation.
/// Shared with [`crate::fused`], whose blocked `nt` kernel must reproduce
/// this exact lane bracketing; the SIMD tier's `dot4` evaluates the same
/// four chains in one vector register (stats-free dispatch — this runs
/// per output element inside larger kernels).
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    if let Some(isa) = simd::enabled_isa() {
        return simd::dot4(a, b, isa);
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape, data.to_vec()).unwrap()
    }

    /// Reference O(mnk) triple loop for cross-checking the blocked kernel.
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        Tensor::from_fn(&[m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k).map(|p| a.at2(i, p) * b.at2(p, j)).sum()
        })
    }

    #[test]
    fn small_known_product() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(&[5, 5], |i| (i as f32).sin());
        let c = a.matmul(&Tensor::eye(5));
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        // Sizes chosen to not divide the panel size.
        let a = Tensor::from_fn(&[67, 31], |i| ((i * 37 % 13) as f32 - 6.0) * 0.1);
        let b = Tensor::from_fn(&[31, 45], |i| ((i * 17 % 11) as f32 - 5.0) * 0.1);
        let fast = a.matmul(&b);
        let slow = naive(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = Tensor::from_fn(&[9, 7], |i| ((i % 5) as f32 - 2.0) * 0.3);
        let b = Tensor::from_fn(&[9, 4], |i| ((i % 7) as f32 - 3.0) * 0.2);
        let tn = a.matmul_tn(&b);
        let expected = a.transpose().matmul(&b);
        for (x, y) in tn.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::from_fn(&[6, 7], |i| ((i % 3) as f32 - 1.0) * 0.4);
        let nt = c.matmul_nt(&a);
        let expected = c.matmul(&a.transpose());
        for (x, y) in nt.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(&[4, 6], |i| i as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_odd_sizes_match_naive() {
        // Sizes straddle the tile edge in both dimensions (including
        // degenerate single-row/column shapes).
        for &(m, n) in &[(1usize, 1usize), (1, 77), (77, 1), (31, 33), (67, 45), (96, 96)] {
            let a = Tensor::from_fn(&[m, n], |i| ((i * 29 % 101) as f32) - 50.0);
            let t = a.transpose();
            assert_eq!(t.shape(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(t.at2(j, i), a.at2(i, j), "({i},{j}) of {m}x{n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_bad_inner_dim() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn parallel_tn_matches_explicit_transpose() {
        // 192·160·96 ≈ 5.9 Mflop > threshold, rows not panel-aligned.
        let a = Tensor::from_fn(&[192, 160], |i| ((i * 29 % 23) as f32 - 11.0) * 0.02);
        let b = Tensor::from_fn(&[192, 96], |i| ((i * 41 % 19) as f32 - 9.0) * 0.02);
        let tn = a.matmul_tn(&b);
        let expected = a.transpose().matmul(&b);
        for (x, y) in tn.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_nt_matches_explicit_transpose() {
        // 160·192·96 ≈ 5.9 Mflop > threshold, rows not panel-aligned —
        // covers matmul_nt's row-panel parallel dispatch the way
        // parallel_tn_matches_explicit_transpose covers matmul_tn's.
        let a = Tensor::from_fn(&[160, 192], |i| ((i * 37 % 29) as f32 - 14.0) * 0.02);
        let b = Tensor::from_fn(&[96, 192], |i| ((i * 43 % 31) as f32 - 15.0) * 0.02);
        let nt = a.matmul_nt(&b);
        let expected = a.matmul(&b.transpose());
        for (x, y) in nt.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn large_enough_to_trigger_parallel_path() {
        // 128x128x128 = 4 Mflop > threshold; verify against naive.
        let a = Tensor::from_fn(&[128, 128], |i| ((i * 31 % 17) as f32 - 8.0) * 0.05);
        let b = Tensor::from_fn(&[128, 128], |i| ((i * 13 % 19) as f32 - 9.0) * 0.05);
        let fast = a.matmul(&b);
        let slow = naive(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    }
}
