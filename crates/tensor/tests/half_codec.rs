//! Reduced-precision codec contract tests (`matsciml_tensor::half`).
//!
//! The scalar conversions are the normative codec: exhaustive f16 and
//! bf16 round-trips, RN-even midpoint behaviour at every neighbouring
//! pair, subnormal/NaN/inf classes, and (where the CPU has F16C)
//! bit-equality of the hardware bulk path against the soft codec on
//! every non-NaN value.
//!
//! This file also exercises the wide-FMA kernel tier end to end, by
//! passing a reduced precision to the fused forward.

use matsciml_tensor::half::{
    bf16_bits_to_f32, decode_slice, encode_slice, f16_bits_to_f32, f32_to_bf16_bits,
    f32_to_f16_bits, round_through,
};
use matsciml_tensor::fused::linear;
use matsciml_tensor::{max_rel_error, quantize_tensor_in_place, Act, HalfTensor, Precision, Tensor};

fn xorshift(state: &mut u32) -> u32 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    *state = x;
    x
}

#[test]
fn f16_round_trip_is_exhaustive() {
    // Every one of the 65536 f16 bit patterns embeds losslessly into
    // f32 and converts back to the identical bits — including ±0, all
    // subnormals, ±inf, and every NaN payload.
    for h in 0..=u16::MAX {
        let x = f16_bits_to_f32(h);
        let back = f32_to_f16_bits(x);
        assert_eq!(
            back, h,
            "f16 round-trip broke: {h:#06x} -> {x} -> {back:#06x}"
        );
    }
}

#[test]
fn bf16_round_trip_is_exhaustive() {
    for h in 0..=u16::MAX {
        let x = bf16_bits_to_f32(h);
        let back = f32_to_bf16_bits(x);
        assert_eq!(
            back, h,
            "bf16 round-trip broke: {h:#06x} -> {x} -> {back:#06x}"
        );
    }
}

#[test]
fn f16_midpoints_round_to_even() {
    // For every pair of adjacent finite positive f16 values, the exact
    // midpoint (representable in f32: one extra mantissa bit) must
    // round to whichever neighbour has an even mantissa lsb, and
    // points just off the midpoint must round to the nearer value.
    for h in 0..0x7bffu16 {
        // h and h+1 are adjacent finite values (0x7bff is f16::MAX).
        let lo = f16_bits_to_f32(h) as f64;
        let hi = f16_bits_to_f32(h + 1) as f64;
        let mid = (lo + hi) / 2.0;
        let want = if h & 1 == 0 { h } else { h + 1 };
        assert_eq!(
            f32_to_f16_bits(mid as f32),
            want,
            "midpoint of {h:#06x}/{:#06x} did not round to even",
            h + 1
        );
        let quarter = (hi - lo) / 4.0;
        assert_eq!(f32_to_f16_bits((mid - quarter) as f32), h);
        assert_eq!(f32_to_f16_bits((mid + quarter) as f32), h + 1);
    }
}

#[test]
fn bf16_midpoints_round_to_even() {
    // Same property for bf16; midpoints need 8 mantissa bits, exactly
    // representable in f32. 0x7f7f is bf16::MAX.
    for h in 0..0x7f7fu16 {
        let lo = bf16_bits_to_f32(h) as f64;
        let hi = bf16_bits_to_f32(h + 1) as f64;
        let mid = (lo + hi) / 2.0;
        let want = if h & 1 == 0 { h } else { h + 1 };
        assert_eq!(
            f32_to_bf16_bits(mid as f32),
            want,
            "midpoint of {h:#06x}/{:#06x} did not round to even",
            h + 1
        );
    }
}

#[test]
fn f16_edge_classes() {
    // Zeroes keep their sign.
    assert_eq!(f32_to_f16_bits(0.0), 0x0000);
    assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
    // Infinities preserved; overflow saturates to inf.
    assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
    assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
    assert_eq!(f32_to_f16_bits(1e6), 0x7c00);
    // f16::MAX is 65504; the tie at 65520 rounds up (0x7bff is odd).
    assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
    assert_eq!(f32_to_f16_bits(65519.0), 0x7bff);
    assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
    // Smallest subnormal is 2^-24; half of it ties to even (zero),
    // anything above half rounds up to the subnormal.
    assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
    assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
    assert_eq!(f32_to_f16_bits(2.0f32.powi(-25)), 0x0000);
    assert_eq!(f32_to_f16_bits(2.0f32.powi(-25) * 1.5), 0x0001);
    // Underflow to zero below the rounding threshold.
    assert_eq!(f32_to_f16_bits(1e-10), 0x0000);
    assert_eq!(f32_to_f16_bits(-1e-10), 0x8000);
    // Normal/subnormal boundary: 2^-14 is the smallest normal.
    assert_eq!(f32_to_f16_bits(2.0f32.powi(-14)), 0x0400);
    // NaN stays NaN in both directions.
    assert!(f16_bits_to_f32(0x7e00).is_nan());
    assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    let payload_nan = f32::from_bits(0x7f80_0001); // tiny payload, truncates to 0
    let h = f32_to_f16_bits(payload_nan);
    assert!(f16_bits_to_f32(h).is_nan(), "NaN payload collapsed to inf");
}

#[test]
fn bf16_edge_classes() {
    assert_eq!(f32_to_bf16_bits(0.0), 0x0000);
    assert_eq!(f32_to_bf16_bits(-0.0), 0x8000);
    assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7f80);
    assert_eq!(f32_to_bf16_bits(f32::NEG_INFINITY), 0xff80);
    // bf16 keeps the full f32 exponent range — f32::MAX rounds to inf
    // (its mantissa is all ones), but 2^127 survives.
    assert_eq!(f32_to_bf16_bits(f32::MAX), 0x7f80);
    assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(2.0f32.powi(127))), 2.0f32.powi(127));
    // Subnormal f32s truncate to bf16 subnormals exactly when their
    // top 7 mantissa bits carry the value.
    let sub = f32::from_bits(0x0040_0000); // 2^-127
    assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(sub)), sub);
    assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
    // A NaN whose top 7 payload bits truncate to zero must stay NaN.
    let awkward = f32::from_bits(0x7f80_0001);
    assert!(bf16_bits_to_f32(f32_to_bf16_bits(awkward)).is_nan());
}

#[test]
fn bulk_conversion_matches_scalar_codec() {
    // The F16C hardware path (when present) must agree bit-for-bit
    // with the soft codec on every non-NaN input: all embedded f16
    // values plus a random finite sweep.
    let mut inputs: Vec<f32> = (0..=u16::MAX)
        .map(f16_bits_to_f32)
        .filter(|x| !x.is_nan())
        .collect();
    let mut state = 0x2718_2818u32;
    for _ in 0..4096 {
        let x = f32::from_bits(xorshift(&mut state));
        if x.is_finite() {
            inputs.push(x);
        }
    }
    inputs.extend_from_slice(&[f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-41, -1e-41]);

    let bulk = encode_slice(&inputs, Precision::F16);
    for (i, (&x, &h)) in inputs.iter().zip(&bulk).enumerate() {
        assert_eq!(
            h,
            f32_to_f16_bits(x),
            "bulk f16 encode diverged from the soft codec at {i} ({x})"
        );
    }
    let mut decoded = Vec::new();
    decode_slice(&bulk, Precision::F16, &mut decoded);
    for (i, (&h, &x)) in bulk.iter().zip(&decoded).enumerate() {
        assert_eq!(
            x.to_bits(),
            f16_bits_to_f32(h).to_bits(),
            "bulk f16 decode diverged from the soft codec at {i} ({h:#06x})"
        );
    }

    let bulk = encode_slice(&inputs, Precision::Bf16);
    for (&x, &h) in inputs.iter().zip(&bulk) {
        assert_eq!(h, f32_to_bf16_bits(x));
    }
}

#[test]
fn half_tensor_round_trips_and_reports_error() {
    let t = Tensor::from_fn(&[3, 17], |i| (i as f32 - 25.0) * 0.37);
    for precision in [Precision::F16, Precision::Bf16] {
        let q = HalfTensor::quantize(&t, precision);
        assert_eq!(q.precision(), precision);
        assert_eq!(q.shape(), t.shape());
        assert_eq!(q.numel(), t.numel());
        let back = q.dequantize();
        assert_eq!(back.shape(), t.shape());
        // Quantization is the only lossy step: re-quantizing the
        // dequantized tensor is exact.
        let q2 = HalfTensor::quantize(&back, precision);
        assert_eq!(q.bits(), q2.bits());
        // The reported max-abs-error matches a direct scan and bounds
        // the actual rounding error of every element.
        let err = q.max_abs_error(&t);
        let scan = back
            .as_slice()
            .iter()
            .zip(t.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert_eq!(err, scan);
        let ulp = match precision {
            Precision::F16 => 2.0f32.powi(-11),
            _ => 2.0f32.powi(-8),
        };
        assert!(err <= 25.0 * ulp, "error {err} too large for {precision:?}");
        // Storage reconstruction (the checkpoint decode path).
        let rebuilt =
            HalfTensor::from_parts(precision, q.shape().to_vec(), q.bits().to_vec());
        assert_eq!(rebuilt, q);
    }
}

#[test]
fn quantize_in_place_rounds_through_storage() {
    let reference = Tensor::from_fn(&[2, 9], |i| (i as f32) * 0.123 - 1.0);
    for precision in [Precision::F32, Precision::F16, Precision::Bf16] {
        let mut t = reference.clone();
        let err = quantize_tensor_in_place(&mut t, precision);
        for (&v, &r) in t.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(v, round_through(r, precision));
            assert!((v - r).abs() <= err);
        }
        if precision == Precision::F32 {
            assert_eq!(err, 0.0);
            assert_eq!(t.as_slice(), reference.as_slice());
        }
    }
}

#[test]
fn precision_names_and_tags_round_trip() {
    for p in [Precision::F32, Precision::F16, Precision::Bf16] {
        assert_eq!(Precision::parse(p.name()), Some(p));
        assert_eq!(Precision::from_tag_byte(p.tag_byte()), Some(p));
    }
    assert_eq!(Precision::parse("BF16"), Some(Precision::Bf16));
    assert_eq!(Precision::parse("petals"), None);
    assert_eq!(Precision::from_tag_byte(7), None);
    assert_eq!(Precision::F16.bytes_per_scalar(), 2);
    assert_eq!(Precision::F32.bytes_per_scalar(), 4);
}

#[test]
fn rel_error_metric_floors_near_zero() {
    assert_eq!(max_rel_error(&[2.0, -4.0], &[2.0, -4.0]), 0.0);
    // 1% off a 2.0 reference.
    let e = max_rel_error(&[2.0], &[2.02]);
    assert!((e - 0.01).abs() < 1e-6);
    // Near-zero reference: judged against the 1e-3 floor, not |r|.
    let e = max_rel_error(&[1e-9], &[1e-9 + 5e-4]);
    assert!(e < 0.51, "floor did not engage: {e}");
}

#[test]
fn wide_tier_stays_within_tolerance_and_counts() {
    // The wide-FMA kernels compute the same f32 gemm with an unpinned
    // order — outputs drift by rounding only. The precision is an
    // argument of the forward, so nothing here outlives the call.
    matsciml_tensor::set_simd_enabled(true);

    let mut state = 0x1357_9bdfu32;
    let mk = |rows: usize, cols: usize, state: &mut u32| {
        Tensor::from_fn(&[rows, cols], |_| {
            (xorshift(state) as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
    };

    for (m, k, n) in [(7, 33, 29), (4, 64, 64), (1, 16, 16), (12, 48, 80)] {
        let x = mk(m, k, &mut state);
        let w = mk(k, n, &mut state);
        let b = mk(1, n, &mut state).reshape(&[n]);

        let (y_ref, d_ref) = linear(&x, &w, Some(&b), Act::Silu, Precision::F32, None);
        let mm_ref = x.matmul(&w);

        let stats0 = matsciml_tensor::simd_stats();
        let (y, d) = linear(&x, &w, Some(&b), Act::Silu, Precision::F16, None);
        // The tape's matmul node: the identity forward of the same kernel.
        let (mm, _) = linear(&x, &w, None, Act::Identity, Precision::F16, None);
        let stats1 = matsciml_tensor::simd_stats();

        // The saved SiLU derivative, from the wide tier's approximate
        // sigmoid against the exact one.
        let ed = max_rel_error(d_ref.unwrap().as_slice(), d.unwrap().as_slice());
        let ey = max_rel_error(y_ref.as_slice(), y.as_slice());
        let em = max_rel_error(mm_ref.as_slice(), mm.as_slice());
        // Pure f32 reorder-rounding: absolute drift is ~1e-6, but a
        // cancelled sum near zero can push the floored *relative*
        // metric to a few 1e-4 — 1e-3 is a safe ceiling, far below the
        // quantization-driven tolerances asserted downstream.
        assert!(
            ed < 1e-3 && ey < 1e-3 && em < 1e-3,
            "wide kernels drifted beyond reorder-rounding at {m}x{k}x{n}: {ed} {ey} {em}"
        );

        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert!(
                stats1.since(&stats0).half_ops > 0,
                "wide tier did not engage on FMA hardware"
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (stats0, stats1);

        // An f32 forward right after stays on the exact kernels.
        let (y_again, _) = linear(&x, &w, Some(&b), Act::Silu, Precision::F32, None);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_again), bits(&y_ref), "f32 forward after an f16 one changed bits");
    }
}
