//! The crate's one single-precision `exp`, with a vector body on the
//! lane tier.
//!
//! [`expf`] is a port of glibc's `expf` (ARM optimized-routines
//! `math/expf.c`, 32-entry table): the argument is reduced in `f64` as
//! `x·32/ln 2 = k + r` with `|r| ≤ 1/2`, `2^(k/32)` is assembled from a
//! table entry plus `k` in the exponent bits, and `2^(r/32)` is a cubic.
//! The range reduction and the cubic use fused multiply-adds
//! ([`f64::mul_add`], exact on every host), which is how glibc's FMA
//! build of `expf` computes them; with separate multiply and add the
//! port differs from that build at two inputs (`0xc27c65d9`,
//! `0x4202422f`).
//!
//! Every `exp` of the exact tier goes through [`expf`] — the activation
//! formulas (`fused::sigmoid`, `Act::eval`, `Act::dz`), the fused
//! epilogue and the unfused autograd ops — so their bits no longer
//! depend on the platform's libm. The vector body ([`expf_in_place`]
//! on the `Avx2`/`Avx512` tiers with FMA) evaluates the same `f64`
//! operations four lanes at a time and is bit-identical to [`expf`] on
//! all 2^32 inputs (`vector_body_matches_scalar_on_every_input`, run by
//! `scripts/verify.sh`).

use crate::simd::Isa;

/// `bits(2^(i/32)) − (i << 47)`: adding `k << 47` back for
/// `i = k mod 32` lands `2^(k/32)` exactly (the `i` term cancels and the
/// rest of `k` carries into the exponent field).
const T: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2^52`: adding it rounds to an integer held in the low mantissa
/// bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic for `2^(r/32)`: `((C0·r + C1)·r² + (C2·r + 1))`.
const C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);
/// Above `0x1.62e42ep6` (≈ 88.72, `ln 2^128`) the result overflows.
const OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below `-0x1.9fe368p6` (≈ -103.97, `ln 2^-150`) it underflows to 0.
const UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `e^x`, bit-identical to glibc's FMA build of `expf` (correctly
/// rounded except in rare near-halfway cases). `-inf → 0`, NaN → NaN,
/// `x > 88.72 → +inf`, `x < -103.97 → 0`; the smallest results are
/// subnormal.
#[inline]
pub fn expf(x: f32) -> f32 {
    // Without the `fma` target feature each `mul_add` is a libm call;
    // the copy compiled with it runs them as instructions. Same bits.
    #[cfg(target_arch = "x86_64")]
    if crate::simd::fma_available() {
        // SAFETY: fma_available() verified FMA.
        return unsafe { x86::expf_fma(x) };
    }
    expf_body(x)
}

#[inline(always)]
fn expf_body(x: f32) -> f32 {
    // One compare keeps the common path free of the special cases:
    // |x| >= 88 or NaN.
    if (x.to_bits() >> 20) & 0x7ff >= 0x42b {
        if x.is_nan() {
            return x + x;
        }
        if x > OFLOW {
            return f32::INFINITY;
        }
        if x < UFLOW {
            return 0.0;
        }
    }
    let xd = x as f64;
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
    (y * s) as f32
}

/// `v[i] = expf(v[i])` for every element: the vector body on the
/// `Avx2`/`Avx512` tiers when the CPU has FMA, [`expf`] elsewhere (and
/// for the tail). The two are bit-identical, so the tier only changes
/// the speed.
pub(crate) fn expf_in_place(v: &mut [f32], isa: Option<Isa>) {
    #[cfg(target_arch = "x86_64")]
    let done = match isa {
        // SAFETY: fma_available() verified AVX2 + FMA.
        Some(Isa::Avx2 | Isa::Avx512) if crate::simd::fma_available() => unsafe {
            x86::expf_in_place_fma(v)
        },
        _ => 0,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = {
        let _ = isa;
        0
    };
    v[done..].iter_mut().for_each(|e| *e = expf(*e));
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{C0, C1, C2, INV_LN2_N, OFLOW, SHIFT, T, UFLOW};

    /// # Safety
    /// Caller must have verified FMA.
    #[target_feature(enable = "fma")]
    pub(super) unsafe fn expf_fma(x: f32) -> f32 {
        super::expf_body(x)
    }

    /// [`super::expf`] on four lanes of `f64`, the special cases left
    /// to the caller: the same fused range reduction, table lookup
    /// (`vpgatherqq`) and cubic, then one rounding to `f32`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn expf4(x: __m128) -> __m128 {
        let xd = _mm256_cvtps_pd(x);
        let inv = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let p = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let q = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(p, _mm256_mul_pd(r, r), q);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// Eight elements per step as two [`expf4`] halves, the special
    /// cases blended in afterwards with the scalar form's comparisons.
    /// Returns the count done (`len & !7`); the caller finishes the
    /// tail.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn expf_in_place_fma(v: &mut [f32]) -> usize {
        let n8 = v.len() & !7;
        let p = v.as_mut_ptr();
        let (oflow, uflow) = (_mm256_set1_ps(OFLOW), _mm256_set1_ps(UFLOW));
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut i = 0;
        while i < n8 {
            let x = _mm256_loadu_ps(p.add(i));
            let lo = expf4(_mm256_castps256_ps128(x));
            let hi = expf4(_mm256_extractf128_ps::<1>(x));
            let mut y = _mm256_set_m128(hi, lo);
            y = _mm256_blendv_ps(y, inf, _mm256_cmp_ps::<_CMP_GT_OQ>(x, oflow));
            y = _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, uflow), y);
            y = _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
            _mm256_storeu_ps(p.add(i), y);
            i += 8;
        }
        n8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// One runnable tier per vector body: `Avx512` dispatches to the
    /// same AVX2 + FMA body as `Avx2`.
    fn vector_tiers() -> Vec<Isa> {
        crate::simd::tests::isas().into_iter().filter(|&i| i == Isa::Avx2).collect()
    }

    /// Inputs pinned by bits. The references are literals: LLVM folds
    /// `f32::exp` of a constant through a double `exp`, which rounds the
    /// first hard case to `0x11fa2992`.
    #[test]
    fn pinned_bits() {
        let cases: [(u32, u32); 8] = [
            // The two inputs where a port without fused range reduction
            // misses the FMA libm by one ulp.
            (0xc27c_65d9, 0x11fa_2993),
            (0x4202_422f, 0x56fc_9f1c),
            // -0 → 1.
            (0x8000_0000, 0x3f80_0000),
            // The underflow bound itself: the smallest subnormal.
            (0xc2cf_f1b4, 0x0000_0001),
            // A subnormal result.
            (0xc2ae_ac50, 0x007f_ffe6),
            // -104 and -inf underflow to +0.
            ((-104.0f32).to_bits(), 0),
            (f32::NEG_INFINITY.to_bits(), 0),
            // Past the overflow bound.
            (0x42b1_7218, f32::INFINITY.to_bits()),
        ];
        let inputs: Vec<f32> = cases.iter().map(|&(x, _)| f32::from_bits(x)).collect();
        for (&(x, want), &xf) in cases.iter().zip(&inputs) {
            let got = expf(black_box(xf)).to_bits();
            assert_eq!(got, want, "expf({x:#010x}) = {got:#010x}, want {want:#010x}");
        }
        assert!(expf(black_box(f32::NAN)).is_nan());
        for isa in vector_tiers() {
            // Padded to two full vectors so the vector body takes them.
            let mut v = inputs.clone();
            v.extend([f32::NAN, 0.5, -0.5, 1.0, f32::INFINITY, -88.5, 88.5, -0.0]);
            let want: Vec<u32> = v.iter().map(|&x| expf(x).to_bits()).collect();
            expf_in_place(&mut v, Some(isa));
            let got: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{isa:?}");
        }
    }

    /// A coarse sweep of every form — the vector body, [`expf`] and the
    /// body compiled without the `fma` feature (`mul_add` as a libm
    /// call) agree bit for bit, and `|expf(x) / e^x − 1|` stays within
    /// the port's error bound wherever the result is normal.
    #[test]
    fn tracks_f64_exp() {
        let mut v: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
        let scalar: Vec<f32> = v.iter().map(|&x| expf(x)).collect();
        let plain: Vec<f32> = v.iter().map(|&x| expf_body(black_box(x))).collect();
        expf_in_place(&mut v[..], crate::simd::enabled_isa());
        for ((&y, &ys), &yp) in v.iter().zip(&scalar).zip(&plain) {
            assert_eq!(y.to_bits(), ys.to_bits());
            assert_eq!(yp.to_bits(), ys.to_bits());
        }
        for (b, &y) in (0..=u32::MAX).step_by(4093).zip(&scalar) {
            let x = f32::from_bits(b) as f64;
            let e = x.exp();
            if x.is_finite() && e > f32::MIN_POSITIVE as f64 && e < f32::MAX as f64 {
                let rel = (y as f64 / e - 1.0).abs();
                assert!(rel < 1.2e-7, "expf({x}) = {y:e}, e^x = {e:e}, rel {rel:e}");
            }
        }
    }

    /// Every vector body ≡ [`expf`] on all 2^32 inputs. About 20 s in
    /// release; `scripts/verify.sh` runs it.
    #[test]
    #[ignore = "exhaustive: run with --release -- --ignored"]
    fn vector_body_matches_scalar_on_every_input() {
        const CHUNK: u64 = 1 << 16;
        for isa in vector_tiers() {
            let mut buf = vec![0.0f32; CHUNK as usize];
            let mut start = 0u64;
            while start <= u32::MAX as u64 {
                for (j, v) in buf.iter_mut().enumerate() {
                    *v = f32::from_bits((start + j as u64) as u32);
                }
                expf_in_place(&mut buf, Some(isa));
                for (j, &y) in buf.iter().enumerate() {
                    let x = f32::from_bits((start + j as u64) as u32);
                    let want = expf(x);
                    assert_eq!(
                        y.to_bits(),
                        want.to_bits(),
                        "{isa:?}: expf({:#010x}) vector {:#010x} scalar {:#010x}",
                        x.to_bits(),
                        y.to_bits(),
                        want.to_bits()
                    );
                }
                start += CHUNK;
            }
        }
    }
}
