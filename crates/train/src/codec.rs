//! Typed checkpoint section codecs: [`ParamSet`] values (`PARAMS`, and
//! packed f16/bf16 in `PRMH`) and [`AdamWState`] (`OPTADAMW`) as payloads
//! of the `matsciml-ckpt` container.
//!
//! Tensor wire form (shared by `PARAMS` and `OPTADAMW`): `u32` ndim,
//! `u64` dims, then `numel` f32 bit patterns in row-major order.
//! Gradients are not stored — a loaded `ParamSet` starts with zeroed
//! accumulators, which is exactly the state at a step boundary.
//!
//! Counts come from the file, so nothing is preallocated from one: a
//! crafted count fails on the first item the payload cannot hold.

use matsciml_ckpt::{ByteReader, ByteWriter, CkptError};
use matsciml_nn::{ParamId, ParamSet};
use matsciml_opt::{AdamWConfig, AdamWState};
use matsciml_tensor::{HalfTensor, Precision, Tensor};

/// Guard against absurd dimension counts from corrupt-but-checksummed
/// payloads (a hand-edited file with a recomputed CRC).
const MAX_NDIM: u32 = 8;

fn put_shape(w: &mut ByteWriter, shape: &[usize]) {
    w.put_u32(shape.len() as u32);
    for &d in shape {
        w.put_u64(d as u64);
    }
}

fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    put_shape(w, t.shape());
    for &v in t.as_slice() {
        w.put_f32(v);
    }
}

/// Read a tensor header — `u32` rank (at most [`MAX_NDIM`]), `u64` dims —
/// and then the `numel × elem_bytes` element bytes it declares.
fn get_shaped<'a>(
    r: &mut ByteReader<'a>,
    elem_bytes: usize,
    what: &str,
) -> Result<(Vec<usize>, &'a [u8]), CkptError> {
    let ndim = r.get_u32(what)?;
    if ndim > MAX_NDIM {
        return Err(CkptError::Malformed(format!(
            "{what}: implausible tensor rank {ndim}"
        )));
    }
    let mut shape = Vec::with_capacity(ndim as usize);
    let mut numel = 1usize;
    for _ in 0..ndim {
        let d = r.get_u64(what)?;
        let d = usize::try_from(d)
            .map_err(|_| CkptError::Malformed(format!("{what}: dimension overflows usize")))?;
        numel = numel
            .checked_mul(d)
            .ok_or_else(|| CkptError::Malformed(format!("{what}: tensor volume overflows")))?;
        shape.push(d);
    }
    let need = numel
        .checked_mul(elem_bytes)
        .ok_or_else(|| CkptError::Malformed(format!("{what}: tensor byte size overflows")))?;
    Ok((shape, r.get_bytes(need, what)?))
}

fn get_tensor(r: &mut ByteReader<'_>, what: &str) -> Result<Tensor, CkptError> {
    let (shape, bytes) = get_shaped(r, 4, what)?;
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Tensor::from_vec(&shape, data).map_err(|e| CkptError::Malformed(format!("{what}: {e:?}")))
}

/// Encode a parameter store's names, shapes, and values as a `PARAMS`
/// section payload.
pub(crate) fn encode_params(params: &ParamSet) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(params.len() as u64);
    for i in 0..params.len() {
        let id = ParamId(i);
        w.put_str(params.name(id));
        put_tensor(&mut w, params.value(id));
    }
    w.into_bytes()
}

/// Decode a `PARAMS` payload into a fresh store (gradients zeroed).
pub(crate) fn decode_params(payload: &[u8]) -> Result<ParamSet, CkptError> {
    let mut r = ByteReader::new(payload);
    let count = r.get_u64("param count")?;
    let mut params = ParamSet::new();
    for i in 0..count {
        let name = r.get_str("param name")?;
        let value = get_tensor(&mut r, &format!("param {i} ({name})"))?;
        params.register(name, value);
    }
    r.finish("the last parameter")?;
    Ok(params)
}

/// A decoded `PRMH` section: parameters dequantized back to f32, plus
/// the quantization summary recorded at save time.
#[derive(Debug)]
pub(crate) struct HalfParams {
    /// Storage precision the section was written with (f16 or bf16).
    pub(crate) precision: Precision,
    /// Parameter store holding the dequantized values (each f32 is the
    /// exact value its packed bits represent; gradients zeroed).
    pub(crate) params: ParamSet,
    /// Per-tensor largest absolute quantization error, in registration
    /// order — measured against the full-precision values at save time.
    pub(crate) max_abs_errors: Vec<f32>,
}

/// Encode a parameter store as a quantized `PRMH` section payload:
/// `u32` precision tag, `u64` count, then per parameter its name, the
/// f32 max-abs quantization error, `u32` ndim, `u64` dims, and the
/// packed 16-bit values (little-endian pairs). Halves parameter bytes
/// relative to `PARAMS`; the layout is normative in
/// `docs/CHECKPOINT_FORMAT.md`.
///
/// # Panics
/// If `precision` is [`Precision::F32`] — full precision belongs in a
/// `PARAMS` section.
pub(crate) fn encode_params_half(params: &ParamSet, precision: Precision) -> Vec<u8> {
    assert!(
        precision != Precision::F32,
        "encode_params_half: use PARAMS for full-precision storage"
    );
    let mut w = ByteWriter::new();
    w.put_u32(u32::from(precision.tag_byte()));
    w.put_u64(params.len() as u64);
    for i in 0..params.len() {
        let id = ParamId(i);
        let value = params.value(id);
        let half = HalfTensor::quantize(value, precision);
        w.put_str(params.name(id));
        w.put_f32(half.max_abs_error(value));
        put_shape(&mut w, half.shape());
        for &b in half.bits() {
            w.put_bytes(&b.to_le_bytes());
        }
    }
    w.into_bytes()
}

/// Decode a `PRMH` payload, dequantizing every tensor back to the
/// exact f32 values its packed bits represent.
pub(crate) fn decode_params_half(payload: &[u8]) -> Result<HalfParams, CkptError> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u32("half precision tag")?;
    let precision = u8::try_from(tag)
        .ok()
        .and_then(Precision::from_tag_byte)
        .filter(|&p| p != Precision::F32)
        .ok_or_else(|| CkptError::Malformed(format!("unknown half precision tag {tag}")))?;
    let count = r.get_u64("half param count")?;
    let mut params = ParamSet::new();
    let mut max_abs_errors = Vec::new();
    for i in 0..count {
        let name = r.get_str("half param name")?;
        let what = format!("half param {i} ({name})");
        let max_abs_error = r.get_f32(&what)?;
        let (shape, packed) = get_shaped(&mut r, 2, &what)?;
        let bits: Vec<u16> = packed
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        let value = HalfTensor::from_parts(precision, shape, bits).dequantize();
        params.register(name, value);
        max_abs_errors.push(max_abs_error);
    }
    r.finish("the last half parameter")?;
    Ok(HalfParams {
        precision,
        params,
        max_abs_errors,
    })
}

/// Encode AdamW state (hyperparameters, step count, both moment vectors)
/// as an `OPTADAMW` section payload.
pub(crate) fn encode_adamw(state: &AdamWState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f32(state.cfg.lr);
    w.put_f32(state.cfg.beta1);
    w.put_f32(state.cfg.beta2);
    w.put_f32(state.cfg.eps);
    w.put_f32(state.cfg.weight_decay);
    w.put_u64(state.t);
    w.put_u64(state.m.len() as u64);
    for t in &state.m {
        put_tensor(&mut w, t);
    }
    for t in &state.v {
        put_tensor(&mut w, t);
    }
    w.into_bytes()
}

/// Decode an `OPTADAMW` payload.
pub(crate) fn decode_adamw(payload: &[u8]) -> Result<AdamWState, CkptError> {
    let mut r = ByteReader::new(payload);
    let cfg = AdamWConfig {
        lr: r.get_f32("adamw lr")?,
        beta1: r.get_f32("adamw beta1")?,
        beta2: r.get_f32("adamw beta2")?,
        eps: r.get_f32("adamw eps")?,
        weight_decay: r.get_f32("adamw weight_decay")?,
    };
    let t = r.get_u64("adamw step count")?;
    let count = r.get_u64("adamw moment count")?;
    let mut m = Vec::new();
    for i in 0..count {
        m.push(get_tensor(&mut r, &format!("adamw m[{i}]"))?);
    }
    let mut v = Vec::new();
    for i in 0..count {
        v.push(get_tensor(&mut r, &format!("adamw v[{i}]"))?);
    }
    r.finish("the optimizer moments")?;
    for (i, (mi, vi)) in m.iter().zip(&v).enumerate() {
        if mi.shape() != vi.shape() {
            return Err(CkptError::Malformed(format!(
                "adamw moment {i}: m shape {:?} != v shape {:?}",
                mi.shape(),
                vi.shape()
            )));
        }
    }
    Ok(AdamWState { cfg, m, v, t })
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_ckpt::{tags, CkptReader, CkptWriter};
    use proptest::prelude::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn params_roundtrip_bit_exact() {
        let mut ps = ParamSet::new();
        ps.register("w", Tensor::from_vec(&[2, 3], vec![1.5, -0.0, 3e-39, 7.0, -2.5, 0.1]).unwrap());
        ps.register("b", Tensor::from_vec(&[3], vec![f32::MIN_POSITIVE, 1e30, -1e-30]).unwrap());
        let back = decode_params(&encode_params(&ps)).unwrap();
        assert_eq!(back.len(), 2);
        for i in 0..2 {
            let id = ParamId(i);
            assert_eq!(back.name(id), ps.name(id));
            assert_eq!(back.value(id).shape(), ps.value(id).shape());
            assert_eq!(bits(back.value(id)), bits(ps.value(id)));
            assert!(back.grad(id).iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn adamw_roundtrip_bit_exact() {
        let state = AdamWState {
            cfg: AdamWConfig {
                lr: 3.7e-4,
                ..Default::default()
            },
            m: vec![Tensor::from_vec(&[2], vec![0.25, -0.5]).unwrap()],
            v: vec![Tensor::from_vec(&[2], vec![1e-12, 4.0]).unwrap()],
            t: 10,
        };
        let back = decode_adamw(&encode_adamw(&state)).unwrap();
        assert_eq!(back.t, 10);
        assert_eq!(back.cfg.lr.to_bits(), state.cfg.lr.to_bits());
        assert_eq!(bits(&back.m[0]), bits(&state.m[0]));
        assert_eq!(bits(&back.v[0]), bits(&state.v[0]));
    }

    #[test]
    fn half_params_roundtrip_is_storage_exact() {
        let mut ps = ParamSet::new();
        ps.register(
            "enc.w",
            Tensor::from_vec(&[2, 3], vec![1.5, -0.0, 3e-39, 7.0, -2.5, 0.1]).unwrap(),
        );
        ps.register("head.b", Tensor::from_vec(&[3], vec![0.25, 1e4, -1e-4]).unwrap());
        for precision in [Precision::F16, Precision::Bf16] {
            let payload = encode_params_half(&ps, precision);
            let half = decode_params_half(&payload).unwrap();
            assert_eq!(half.precision, precision);
            assert_eq!(half.params.len(), 2);
            assert_eq!(half.max_abs_errors.len(), 2);
            for i in 0..2 {
                let id = ParamId(i);
                assert_eq!(half.params.name(id), ps.name(id));
                assert_eq!(half.params.value(id).shape(), ps.value(id).shape());
                // Decoded values are exactly the quantized values: one
                // more encode/decode round trip is the identity.
                let expect = HalfTensor::quantize(ps.value(id), precision).dequantize();
                assert_eq!(bits(half.params.value(id)), bits(&expect));
                // The recorded error summary bounds the actual drift.
                let err = half.max_abs_errors[i];
                for (&q, &r) in expect.as_slice().iter().zip(ps.value(id).as_slice()) {
                    assert!((q - r).abs() <= err);
                }
            }
            // Storage really is half: the payload is dominated by
            // 2-byte scalars instead of 4-byte ones.
            let full = encode_params(&ps);
            assert!(payload.len() < full.len());
        }
    }

    #[test]
    fn half_params_reject_corruption() {
        let mut ps = ParamSet::new();
        ps.register("w", Tensor::from_vec(&[4], vec![1.0; 4]).unwrap());
        let full = encode_params_half(&ps, Precision::F16);
        for cut in [0, 3, 12, full.len() - 1] {
            assert!(
                matches!(decode_params_half(&full[..cut]), Err(CkptError::Malformed(_))),
                "cut at {cut} must be Malformed"
            );
        }
        // Unknown precision tag (or the F32 tag, which is not packed).
        let mut bad = full.clone();
        bad[0] = 9;
        assert!(matches!(decode_params_half(&bad), Err(CkptError::Malformed(_))));
        bad[0] = 0;
        assert!(matches!(decode_params_half(&bad), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn short_payload_is_malformed_not_panic() {
        let full = encode_params(&{
            let mut ps = ParamSet::new();
            ps.register("w", Tensor::from_vec(&[4], vec![1.0; 4]).unwrap());
            ps
        });
        for cut in [0, 4, 9, full.len() - 1] {
            assert!(
                matches!(decode_params(&full[..cut]), Err(CkptError::Malformed(_))),
                "cut at {cut} must be Malformed"
            );
        }
    }

    #[test]
    fn crafted_counts_are_malformed_not_an_abort() {
        // A count of 2^40 once sized a preallocation from the file and
        // aborted the process; now the first missing item ends decoding.
        let count = 1u64 << 40;
        let mut half = ByteWriter::new();
        half.put_u32(u32::from(Precision::F16.tag_byte()));
        half.put_u64(count);
        let mut adamw = ByteWriter::new();
        for _ in 0..5 {
            adamw.put_f32(0.5);
        }
        adamw.put_u64(7);
        adamw.put_u64(count);
        let mut params = ByteWriter::new();
        params.put_u64(count);
        for result in [
            decode_params_half(&half.into_bytes()).map(drop),
            decode_adamw(&adamw.into_bytes()).map(drop),
            decode_params(&params.into_bytes()).map(drop),
        ] {
            assert!(matches!(result, Err(CkptError::Malformed(_))));
        }
    }

    /// Strategy for awkward tensor shapes: scalars-as-[1], skinny
    /// matrices, singleton dimensions, rank-3 blocks.
    fn odd_shape() -> impl Strategy<Value = Vec<usize>> {
        (1usize..4, 1usize..8, 1usize..8, 1usize..5).prop_map(|(rank, a, b, c)| match rank {
            1 => vec![a],
            2 => vec![a, b],
            _ => vec![a, b, c],
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn param_roundtrip_is_bit_exact_over_odd_shapes(
            shapes in proptest::collection::vec(odd_shape(), 1..6),
            seed in any::<u64>(),
        ) {
            // Fill with values spanning magnitudes, signed zeros, subnormals.
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let bits = (state >> 32) as u32;
                match bits % 17 {
                    0 => -0.0f32,
                    1 => f32::MIN_POSITIVE / 2.0, // subnormal
                    2 => 1e-38,
                    3 => -3.4e38,
                    _ => f32::from_bits(bits % 0x7F7F_FFFF), // arbitrary finite
                }
            };
            let mut ps = ParamSet::new();
            for (i, shape) in shapes.iter().enumerate() {
                let numel: usize = shape.iter().product();
                let data: Vec<f32> = (0..numel).map(|_| next()).collect();
                ps.register(format!("p{i}"), Tensor::from_vec(shape, data).unwrap());
            }

            // Through the full container, not just the codec.
            let mut w = CkptWriter::new();
            w.section(tags::PARAMS, encode_params(&ps));
            let bytes = w.to_bytes();
            let r = CkptReader::from_bytes(&bytes).unwrap();
            let back = decode_params(r.require(tags::PARAMS).unwrap()).unwrap();

            prop_assert_eq!(back.len(), ps.len());
            for i in 0..ps.len() {
                let id = ParamId(i);
                prop_assert_eq!(back.name(id), ps.name(id));
                prop_assert_eq!(back.value(id).shape(), ps.value(id).shape());
                prop_assert_eq!(bits(back.value(id)), bits(ps.value(id)), "param {} bit patterns drifted", i);
            }
        }
    }
}
