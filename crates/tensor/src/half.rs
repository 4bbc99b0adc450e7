//! Reduced-precision storage codecs (f16 / bf16) and the process-wide
//! inference-precision toggle.
//!
//! This module is the storage half of the **reduced-precision inference
//! tier**. The training engine's bit-exactness contract (pinned 4-lane
//! reductions, no FMA — see `simd.rs`) buys nothing at inference time,
//! so serving can opt in to:
//!
//! * **half storage** — parameters quantized to IEEE 754 binary16
//!   ([`Precision::F16`]) or bfloat16 ([`Precision::Bf16`]) via
//!   [`HalfTensor`], halving parameter bytes on disk and in checkpoint
//!   sections (`PRMH` in `matsciml-ckpt`);
//! * **wide kernels** — when [`infer_precision`] is not
//!   [`Precision::F32`], the forward gemm/linear kernels dispatch to
//!   AVX2 + FMA strips with an unpinned reduction order (`simd.rs`,
//!   counted by `simd/half_ops`).
//!
//! The tier is **opt-in and never the training default**: the toggle
//! starts at [`Precision::F32`] (exact), and every consumer asserts
//! outputs against the f32 reference within a tolerance instead of
//! bit-identity. Conversions round to nearest-even; NaN and ±inf are
//! preserved (NaN payloads are truncated, kept non-zero).
//!
//! The scalar conversions below are the normative codec: an exhaustive
//! test round-trips all 65 536 f16 bit patterns through them. The bulk
//! [`HalfTensor`] paths use F16C hardware conversion when the CPU has
//! it; hardware agrees with the soft codec bit-for-bit on every finite
//! value and on ±inf, and differs only in that it quietens signaling
//! NaN payloads (parameters are finite, so the distinction never
//! reaches a checkpoint).

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Precision + toggle
// ---------------------------------------------------------------------------

/// Numeric precision of the inference tier's parameter storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 — the exact default; the wide kernels stay off.
    F32,
    /// IEEE 754 binary16: 1 sign, 5 exponent, 10 mantissa bits.
    F16,
    /// bfloat16: 1 sign, 8 exponent, 7 mantissa bits (truncated f32).
    Bf16,
}

impl Precision {
    /// Canonical lower-case name (`f32` / `f16` / `bf16`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Bf16 => "bf16",
        }
    }

    /// Parse a precision name (case-insensitive). `None` on anything
    /// other than `f32` / `f16` / `bf16`.
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "f16" | "half" => Some(Precision::F16),
            "bf16" | "bfloat16" => Some(Precision::Bf16),
            _ => None,
        }
    }

    /// Bytes per scalar in packed storage.
    pub fn bytes_per_scalar(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 | Precision::Bf16 => 2,
        }
    }

    /// Stable on-disk tag byte for the `PRMH` checkpoint section.
    pub fn tag_byte(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::Bf16 => 2,
        }
    }

    /// Inverse of [`Precision::tag_byte`].
    pub fn from_tag_byte(b: u8) -> Option<Precision> {
        match b {
            0 => Some(Precision::F32),
            1 => Some(Precision::F16),
            2 => Some(Precision::Bf16),
            _ => None,
        }
    }
}

const PREC_F32: u8 = 0;
const PREC_F16: u8 = 1;
const PREC_BF16: u8 = 2;
const PREC_UNSET: u8 = 255;

/// Tri-state-plus: the first query consults `MATSCIML_INFER_PRECISION`
/// exactly once without a lock, after which the mode behaves like the
/// SIMD tier toggle (`set_simd_enabled`).
static PRECISION: AtomicU8 = AtomicU8::new(PREC_UNSET);

/// Select the inference storage precision process-wide.
///
/// Anything other than [`Precision::F32`] arms the wide FMA forward
/// kernels (`simd.rs`), whose reduction order is *not* pinned — outputs
/// are tolerance-checked against the f32 reference, never bit-compared.
/// The training path must run with [`Precision::F32`] (the default) to
/// keep its bit-exactness contract.
pub fn set_infer_precision(precision: Precision) {
    let v = match precision {
        Precision::F32 => PREC_F32,
        Precision::F16 => PREC_F16,
        Precision::Bf16 => PREC_BF16,
    };
    PRECISION.store(v, Ordering::Relaxed);
}

/// The active inference precision. Defaults to [`Precision::F32`]; the
/// first call honours `MATSCIML_INFER_PRECISION=f32|f16|bf16` from the
/// environment (the hook `scripts/verify.sh` uses to force the exact
/// tier), treating unknown values as `f32`.
pub fn infer_precision() -> Precision {
    match PRECISION.load(Ordering::Relaxed) {
        PREC_F32 => Precision::F32,
        PREC_F16 => Precision::F16,
        PREC_BF16 => Precision::Bf16,
        _ => {
            let p = std::env::var("MATSCIML_INFER_PRECISION")
                .ok()
                .and_then(|v| Precision::parse(&v))
                .unwrap_or(Precision::F32);
            set_infer_precision(p);
            p
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar codecs (normative)
// ---------------------------------------------------------------------------

/// Convert f32 to IEEE 754 binary16 bits, rounding to nearest-even.
/// Overflow saturates to ±inf; values below the smallest subnormal
/// round to ±0; NaN stays NaN (payload truncated, kept non-zero).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf or NaN: preserve the class; keep NaN mantissas non-zero
        // even when the payload's top 10 bits are all clear.
        let payload = (man >> 13) as u16;
        let sticky = u16::from(man != 0 && payload == 0);
        return sign | 0x7c00 | payload | sticky;
    }
    let half_exp = exp - 127 + 15;
    if half_exp >= 31 {
        // Overflow: nearest representable is ±inf.
        return sign | 0x7c00;
    }
    if half_exp <= 0 {
        // Subnormal half (or underflow to zero). The smallest subnormal
        // is 2^-24; anything below 2^-25 rounds to ±0.
        if half_exp < -10 {
            return sign;
        }
        let man = man | 0x0080_0000; // restore the implicit bit
        let shift = (14 - half_exp) as u32; // 14..=24
        let half_man = (man >> shift) as u16;
        let round_bit = 1u32 << (shift - 1);
        // Round-to-nearest-even: round bit set AND (sticky below OR
        // result lsb set).
        if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
            return sign | (half_man + 1);
        }
        return sign | half_man;
    }
    let mut h = (sign as u32) | ((half_exp as u32) << 10) | (man >> 13);
    let round_bit = 0x0000_1000u32;
    if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
        // May carry into the exponent — that is exactly RN-even
        // rounding up to the next binade (or to inf from the top one).
        h += 1;
    }
    h as u16
}

/// Convert IEEE 754 binary16 bits to the exactly-representing f32.
/// Every finite half value, both infinities, and every NaN payload map
/// losslessly ([`f32_to_f16_bits`] round-trips them bit-for-bit).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal: renormalize man · 2^-24 into f32.
                let mut man = man;
                let mut e = -14i32;
                while man & 0x0400 == 0 {
                    man <<= 1;
                    e -= 1;
                }
                sign | (((e + 127) as u32) << 23) | ((man & 0x03ff) << 13)
            }
        }
        31 => sign | 0x7f80_0000 | (man << 13), // ±inf / NaN
        _ => sign | ((exp as u32 + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

/// Convert f32 to bfloat16 bits, rounding to nearest-even (bias-add on
/// the raw bit pattern; the carry into the exponent is RN-even rounding
/// up a binade, saturating to ±inf from the top one). NaN stays NaN
/// with its payload truncated and kept non-zero.
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        let payload = (bits >> 16) as u16;
        // Truncation can clear the whole stored payload; force the
        // quiet bit so the result is still NaN.
        return if payload & 0x007f == 0 {
            payload | 0x0040
        } else {
            payload
        };
    }
    (bits.wrapping_add(0x7fff + ((bits >> 16) & 1)) >> 16) as u16
}

/// Convert bfloat16 bits to the exactly-representing f32 (a pure left
/// shift — bf16 is a truncated f32).
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Round an f32 through the given storage precision and back — the
/// value a parameter takes after quantized storage. Identity for
/// [`Precision::F32`].
pub fn round_through(x: f32, precision: Precision) -> f32 {
    match precision {
        Precision::F32 => x,
        Precision::F16 => f16_bits_to_f32(f32_to_f16_bits(x)),
        Precision::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
    }
}

// ---------------------------------------------------------------------------
// Bulk conversion (F16C-accelerated where available)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
fn f16c_available() -> bool {
    use std::sync::OnceLock;
    static F16C: OnceLock<bool> = OnceLock::new();
    *F16C.get_or_init(|| {
        std::arch::is_x86_feature_detected!("f16c") && std::arch::is_x86_feature_detected!("avx")
    })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// 8-wide f32 → f16 conversion with hardware RN-even rounding.
    ///
    /// # Safety
    /// Caller must have verified F16C + AVX support.
    #[target_feature(enable = "f16c,avx")]
    pub(super) unsafe fn encode_f16(src: &[f32], dst: &mut [u16]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(sp.add(i));
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm_storeu_si128(dp.add(i) as *mut __m128i, h);
            i += 8;
        }
        for j in i..n {
            *dp.add(j) = super::f32_to_f16_bits(*sp.add(j));
        }
    }

    /// 8-wide f16 → f32 conversion (exact).
    ///
    /// # Safety
    /// Caller must have verified F16C + AVX support.
    #[target_feature(enable = "f16c,avx")]
    pub(super) unsafe fn decode_f16(src: &[u16], dst: &mut [f32]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
            _mm256_storeu_ps(dp.add(i), _mm256_cvtph_ps(h));
            i += 8;
        }
        for j in i..n {
            *dp.add(j) = super::f16_bits_to_f32(*sp.add(j));
        }
    }
}

/// Encode an f32 slice into packed half bits of the given precision.
/// f16 uses F16C hardware conversion when the CPU has it (bit-identical
/// to the soft codec on finite values and ±inf).
pub fn encode_slice(src: &[f32], precision: Precision) -> Vec<u16> {
    assert!(
        precision != Precision::F32,
        "encode_slice: F32 is not a packed precision"
    );
    let mut out = vec![0u16; src.len()];
    match precision {
        Precision::F16 => {
            #[cfg(target_arch = "x86_64")]
            if f16c_available() {
                // SAFETY: F16C + AVX support just verified.
                unsafe { x86::encode_f16(src, &mut out) };
                return out;
            }
            for (d, &x) in out.iter_mut().zip(src) {
                *d = f32_to_f16_bits(x);
            }
        }
        Precision::Bf16 => {
            for (d, &x) in out.iter_mut().zip(src) {
                *d = f32_to_bf16_bits(x);
            }
        }
        Precision::F32 => unreachable!(),
    }
    out
}

/// Decode packed half bits back into f32, appending to `dst`.
pub fn decode_slice(bits: &[u16], precision: Precision, dst: &mut Vec<f32>) {
    assert!(
        precision != Precision::F32,
        "decode_slice: F32 is not a packed precision"
    );
    let start = dst.len();
    dst.resize(start + bits.len(), 0.0);
    let out = &mut dst[start..];
    match precision {
        Precision::F16 => {
            #[cfg(target_arch = "x86_64")]
            if f16c_available() {
                // SAFETY: F16C + AVX support just verified.
                unsafe { x86::decode_f16(bits, out) };
                return;
            }
            for (d, &h) in out.iter_mut().zip(bits) {
                *d = f16_bits_to_f32(h);
            }
        }
        Precision::Bf16 => {
            for (d, &h) in out.iter_mut().zip(bits) {
                *d = bf16_bits_to_f32(h);
            }
        }
        Precision::F32 => unreachable!(),
    }
}

// ---------------------------------------------------------------------------
// HalfTensor
// ---------------------------------------------------------------------------

/// A tensor stored as packed 16-bit floats — the unit of quantized
/// parameter storage (checkpoint `PRMH` sections, serve-time loading).
///
/// A `HalfTensor` remembers its [`Precision`] and logical shape;
/// [`HalfTensor::dequantize`] reproduces the exact f32 values the
/// packed bits represent (storage is the only lossy step, at
/// [`HalfTensor::quantize`] time, with RN-even rounding).
#[derive(Clone, Debug, PartialEq)]
pub struct HalfTensor {
    precision: Precision,
    shape: Vec<usize>,
    bits: Vec<u16>,
}

impl HalfTensor {
    /// Quantize an f32 tensor into packed storage.
    ///
    /// # Panics
    /// If `precision` is [`Precision::F32`] (not a packed format).
    pub fn quantize(t: &Tensor, precision: Precision) -> HalfTensor {
        HalfTensor {
            precision,
            shape: t.shape().to_vec(),
            bits: encode_slice(t.as_slice(), precision),
        }
    }

    /// Rebuild a `HalfTensor` from its stored parts (checkpoint decode).
    ///
    /// # Panics
    /// If the shape's element count does not match `bits.len()`, or
    /// `precision` is [`Precision::F32`].
    pub fn from_parts(precision: Precision, shape: Vec<usize>, bits: Vec<u16>) -> HalfTensor {
        assert!(precision != Precision::F32, "F32 is not a packed precision");
        let numel: usize = shape.iter().product();
        assert_eq!(numel, bits.len(), "shape/bits mismatch");
        HalfTensor {
            precision,
            shape,
            bits,
        }
    }

    /// Expand back to the exactly-representing f32 tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.bits.len());
        decode_slice(&self.bits, self.precision, &mut data);
        Tensor::from_vec(&self.shape, data).expect("shape/bits invariant")
    }

    /// Storage precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Logical tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Packed 16-bit payload, row-major.
    pub fn bits(&self) -> &[u16] {
        &self.bits
    }

    /// Number of scalars.
    pub fn numel(&self) -> usize {
        self.bits.len()
    }

    /// Largest absolute error of the packed values against an f32
    /// reference of the same shape (the per-tensor summary stored in
    /// `PRMH` checkpoint sections). NaN-free inputs only.
    pub fn max_abs_error(&self, reference: &Tensor) -> f32 {
        assert_eq!(reference.shape(), self.shape.as_slice(), "shape mismatch");
        let mut data = Vec::with_capacity(self.bits.len());
        decode_slice(&self.bits, self.precision, &mut data);
        data.iter()
            .zip(reference.as_slice())
            .map(|(&q, &r)| (q - r).abs())
            .fold(0.0f32, f32::max)
    }
}

/// Quantize a tensor's values in place through `precision` storage
/// (round-trip each scalar), returning the largest absolute rounding
/// error. No-op returning `0.0` for [`Precision::F32`]. This is the
/// serve-time "convert params once at load" primitive.
pub fn quantize_tensor_in_place(t: &mut Tensor, precision: Precision) -> f32 {
    if precision == Precision::F32 {
        return 0.0;
    }
    let half = HalfTensor::quantize(t, precision);
    let mut data = Vec::with_capacity(half.numel());
    decode_slice(half.bits(), precision, &mut data);
    let mut max_err = 0.0f32;
    for (dst, q) in t.as_mut_slice().iter_mut().zip(data) {
        max_err = max_err.max((q - *dst).abs());
        *dst = q;
    }
    max_err
}

/// Largest relative error of `candidate` against `reference`, with the
/// denominator floored at `1e-3` so near-zero reference outputs are
/// judged on absolute error instead of exploding. The shared tolerance
/// metric for the reduced-precision tests and the `infer` bench.
pub fn max_rel_error(reference: &[f32], candidate: &[f32]) -> f32 {
    assert_eq!(reference.len(), candidate.len(), "length mismatch");
    reference
        .iter()
        .zip(candidate)
        .map(|(&r, &c)| (r - c).abs() / r.abs().max(1e-3))
        .fold(0.0f32, f32::max)
}
