//! Typed codecs over the container: [`matsciml_nn::ParamSet`] values and
//! [`matsciml_opt::AdamWState`] as section payloads.
//!
//! Tensor wire form (shared by both sections): `u32` ndim, `u64` dims,
//! then `numel` f32 bit patterns in row-major order. Gradients are not
//! stored — a loaded `ParamSet` starts with zeroed accumulators, which is
//! exactly the state at a step boundary (the trainer zeroes gradients
//! before each step).

use matsciml_nn::{ParamId, ParamSet};
use matsciml_opt::{AdamWConfig, AdamWState};
use matsciml_tensor::{HalfTensor, Precision, Tensor};

use crate::format::{ByteReader, ByteWriter, CkptError};

/// Guard against absurd dimension counts from corrupt-but-checksummed
/// payloads (a hand-edited file with a recomputed CRC).
const MAX_NDIM: u32 = 8;

fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.put_u32(t.shape().len() as u32);
    for &d in t.shape() {
        w.put_u64(d as u64);
    }
    for &v in t.as_slice() {
        w.put_f32(v);
    }
}

fn get_tensor(r: &mut ByteReader<'_>, what: &str) -> Result<Tensor, CkptError> {
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
        .checked_mul(4)
        .ok_or_else(|| CkptError::Malformed(format!("{what}: tensor byte size overflows")))?;
    if r.remaining() < need {
        return Err(CkptError::Malformed(format!(
            "{what}: payload exhausted reading {numel} scalars"
        )));
    }
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(r.get_f32(what)?);
    }
    Tensor::from_vec(&shape, data)
        .map_err(|e| CkptError::Malformed(format!("{what}: {e:?}")))
}

/// Encode a parameter store's names, shapes, and values as a `PARAMS`
/// section payload.
pub fn encode_params(params: &ParamSet) -> Vec<u8> {
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
pub fn decode_params(payload: &[u8]) -> Result<ParamSet, CkptError> {
    let mut r = ByteReader::new(payload);
    let count = r.get_u64("param count")?;
    let count = usize::try_from(count)
        .map_err(|_| CkptError::Malformed("param count overflows usize".into()))?;
    let mut params = ParamSet::new();
    for i in 0..count {
        let name = r.get_str("param name")?;
        let value = get_tensor(&mut r, &format!("param {i} ({name})"))?;
        params.register(name, value);
    }
    if r.remaining() != 0 {
        return Err(CkptError::Malformed(format!(
            "{} stray bytes after last parameter",
            r.remaining()
        )));
    }
    Ok(params)
}

/// A decoded `PRMH` section: parameters dequantized back to f32, plus
/// the quantization summary recorded at save time.
#[derive(Debug)]
pub struct HalfParams {
    /// Storage precision the section was written with (f16 or bf16).
    pub precision: Precision,
    /// Parameter store holding the dequantized values (each f32 is the
    /// exact value its packed bits represent; gradients zeroed).
    pub params: ParamSet,
    /// Per-tensor largest absolute quantization error, in registration
    /// order — measured against the full-precision values at save time.
    pub max_abs_errors: Vec<f32>,
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
pub fn encode_params_half(params: &ParamSet, precision: Precision) -> Vec<u8> {
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
        w.put_u32(half.shape().len() as u32);
        for &d in half.shape() {
            w.put_u64(d as u64);
        }
        let mut packed = Vec::with_capacity(half.numel() * 2);
        for &b in half.bits() {
            packed.extend_from_slice(&b.to_le_bytes());
        }
        w.put_bytes(&packed);
    }
    w.into_bytes()
}

/// Decode a `PRMH` payload, dequantizing every tensor back to the
/// exact f32 values its packed bits represent.
pub fn decode_params_half(payload: &[u8]) -> Result<HalfParams, CkptError> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u32("half precision tag")?;
    let precision = u8::try_from(tag)
        .ok()
        .and_then(Precision::from_tag_byte)
        .filter(|&p| p != Precision::F32)
        .ok_or_else(|| CkptError::Malformed(format!("unknown half precision tag {tag}")))?;
    let count = r.get_u64("half param count")?;
    let count = usize::try_from(count)
        .map_err(|_| CkptError::Malformed("half param count overflows usize".into()))?;
    let mut params = ParamSet::new();
    let mut max_abs_errors = Vec::with_capacity(count);
    for i in 0..count {
        let name = r.get_str("half param name")?;
        let what = format!("half param {i} ({name})");
        let max_abs_error = r.get_f32(&what)?;
        let ndim = r.get_u32(&what)?;
        if ndim > MAX_NDIM {
            return Err(CkptError::Malformed(format!(
                "{what}: implausible tensor rank {ndim}"
            )));
        }
        let mut shape = Vec::with_capacity(ndim as usize);
        let mut numel = 1usize;
        for _ in 0..ndim {
            let d = r.get_u64(&what)?;
            let d = usize::try_from(d)
                .map_err(|_| CkptError::Malformed(format!("{what}: dimension overflows usize")))?;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| CkptError::Malformed(format!("{what}: tensor volume overflows")))?;
            shape.push(d);
        }
        let need = numel
            .checked_mul(2)
            .ok_or_else(|| CkptError::Malformed(format!("{what}: tensor byte size overflows")))?;
        let packed = r.get_bytes(need, &what)?;
        let bits: Vec<u16> = packed
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        let value = HalfTensor::from_parts(precision, shape, bits).dequantize();
        params.register(name, value);
        max_abs_errors.push(max_abs_error);
    }
    if r.remaining() != 0 {
        return Err(CkptError::Malformed(format!(
            "{} stray bytes after last half parameter",
            r.remaining()
        )));
    }
    Ok(HalfParams {
        precision,
        params,
        max_abs_errors,
    })
}

/// Encode AdamW state (hyperparameters, step count, both moment vectors)
/// as an `OPTADAMW` section payload.
pub fn encode_adamw(state: &AdamWState) -> Vec<u8> {
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
pub fn decode_adamw(payload: &[u8]) -> Result<AdamWState, CkptError> {
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
    let count = usize::try_from(count)
        .map_err(|_| CkptError::Malformed("moment count overflows usize".into()))?;
    let mut m = Vec::with_capacity(count);
    for i in 0..count {
        m.push(get_tensor(&mut r, &format!("adamw m[{i}]"))?);
    }
    let mut v = Vec::with_capacity(count);
    for i in 0..count {
        v.push(get_tensor(&mut r, &format!("adamw v[{i}]"))?);
    }
    if r.remaining() != 0 {
        return Err(CkptError::Malformed(format!(
            "{} stray bytes after optimizer moments",
            r.remaining()
        )));
    }
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
}
