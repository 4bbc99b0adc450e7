//! Trainer-level checkpointing: a [`TaskModel`] + AdamW moments + run
//! progress in one `matsciml-ckpt/v1` file, restorable to a bit-identical
//! training trajectory.
//!
//! What makes resume bit-exact: the data schedule is a pure function of
//! `(seed, epoch)`, the learning rate a pure function of the step index,
//! and every kernel is deterministic — so the *only* mutable trajectory
//! state is (parameters, optimizer moments, step count, early-stop
//! progress). That is exactly what a checkpoint stores, each f32 as its
//! bit pattern. The [`matsciml_opt::InstabilityProbe`] is diagnostics-only
//! (it never feeds back into updates) and is deliberately not
//! checkpointed; a resumed run restarts its spike log fresh.
//!
//! File layout (see `docs/CHECKPOINT_FORMAT.md` for the normative spec):
//! `PARAMS` (tensor names/shapes/bits), `OPTADAMW` (hyperparameters,
//! step count, m/v moments), `MODELJSN` (architecture JSON, no weights),
//! `TRAINCFG` (the [`TrainConfig`] JSON), `TRAINST` (progress). A model
//! artifact ([`save_model`]) is the `MODELJSN` + parameters subset — the
//! one on-disk form of a model.

use std::path::Path;

use matsciml_ckpt::{tags, ByteReader, ByteWriter, CkptError, CkptReader, CkptWriter};
use matsciml_nn::ParamSet;
use matsciml_obs::Obs;
use matsciml_opt::AdamWState;
use matsciml_tensor::Precision;
use serde::{Deserialize, Serialize};

use crate::codec::{
    decode_adamw, decode_params, decode_params_half, encode_adamw, encode_params,
    encode_params_half,
};
use crate::model::{EncoderKind, TaskModel};
use crate::task::TaskHead;
use crate::trainer::TrainConfig;

/// Counter: checkpoints written so far.
pub const CKPT_SAVES: &str = "ckpt/saves";
/// Counter: cumulative checkpoint bytes written to disk.
pub const CKPT_BYTES_WRITTEN: &str = "ckpt/bytes_written";
/// Counter: the step a resumed run restarted from (0 when never resumed).
pub const CKPT_RESUME_STEP: &str = "ckpt/resume_step";
/// Histogram: wall time of one checkpoint save, µs.
pub const CKPT_SAVE_US: &str = "ckpt/save_us";
/// Histogram: wall time of one checkpoint load, µs.
pub const CKPT_LOAD_US: &str = "ckpt/load_us";

/// Trainer progress at a step boundary — the scalar half of the resume
/// state (the tensor half is parameters + optimizer moments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainProgress {
    /// Completed optimizer steps (a checkpoint at `step` resumes there).
    pub step: u64,
    /// Best early-stopping metric seen so far.
    pub best_metric: f32,
    /// Consecutive evaluations without improvement.
    pub evals_without_improvement: u32,
}

/// Architecture JSON stored in `MODELJSN`: everything a [`TaskModel`]
/// needs except the parameter tensors (those live in `PARAMS`, where
/// they stay bit-exact — JSON floats would not).
#[derive(Serialize, Deserialize)]
struct ArchJson {
    encoder: EncoderKind,
    heads: Vec<TaskHead>,
    encoder_param_count: usize,
}

/// `model`'s `MODELJSN` payload.
fn arch_json(model: &TaskModel) -> Result<Vec<u8>, CkptError> {
    let arch = ArchJson {
        encoder: model.encoder.clone(),
        heads: model.heads.clone(),
        encoder_param_count: model.encoder_param_count,
    };
    serde_json::to_string(&arch)
        .map(String::into_bytes)
        .map_err(|e| CkptError::Malformed(format!("architecture JSON: {e}")))
}

/// Parse a `MODELJSN` payload and rebuild the model around `params`.
fn model_from(arch_json: &[u8], params: ParamSet) -> Result<TaskModel, CkptError> {
    let arch: ArchJson = serde_json::from_slice(arch_json)
        .map_err(|e| CkptError::Malformed(format!("architecture JSON: {e}")))?;
    if arch.encoder_param_count > params.len() {
        return Err(CkptError::Malformed(format!(
            "encoder_param_count {} exceeds parameter count {}",
            arch.encoder_param_count,
            params.len()
        )));
    }
    Ok(TaskModel::from_parts(params, arch.encoder, arch.heads, arch.encoder_param_count))
}

/// A loaded training checkpoint: the rebuilt model plus everything the
/// trainer needs to continue the run bit-identically
/// ([`crate::Trainer::resume_observed`]).
pub struct TrainCheckpoint {
    /// The model, parameters restored bit-exact, gradients zeroed.
    pub model: TaskModel,
    /// Optimizer snapshot (moments + step count + hyperparameters).
    pub opt: AdamWState,
    /// The configuration the run was started with.
    pub config: TrainConfig,
    /// Step/early-stop progress at save time.
    pub progress: TrainProgress,
}

/// Write one checkpoint file (parent directories created); returns bytes
/// written. Records [`CKPT_SAVES`], [`CKPT_BYTES_WRITTEN`], and
/// [`CKPT_SAVE_US`] when `obs` is enabled.
pub fn save_checkpoint(
    path: impl AsRef<Path>,
    model: &TaskModel,
    opt: &AdamWState,
    config: &TrainConfig,
    progress: TrainProgress,
    obs: &Obs,
) -> Result<u64, CkptError> {
    assert_eq!(
        opt.m.len(),
        model.params.len(),
        "optimizer moments do not match the model's parameter layout"
    );
    let t0 = obs.timer();
    let cfg_json = serde_json::to_string(config)
        .map_err(|e| CkptError::Malformed(format!("train config JSON: {e}")))?;
    let mut st = ByteWriter::new();
    st.put_u64(progress.step);
    st.put_f64(progress.best_metric as f64);
    st.put_u32(progress.evals_without_improvement);

    let mut w = CkptWriter::new();
    w.section(tags::PARAMS, encode_params(&model.params));
    w.section(tags::OPT_ADAMW, encode_adamw(opt));
    w.section(tags::MODEL_JSON, arch_json(model)?);
    w.section(tags::TRAIN_CONFIG, cfg_json.into_bytes());
    w.section(tags::TRAIN_STATE, st.into_bytes());
    let bytes = w.write(path)?;
    if obs.enabled() {
        obs.count(CKPT_SAVES, 1);
        obs.count(CKPT_BYTES_WRITTEN, bytes);
        obs.observe(CKPT_SAVE_US, (Obs::lap_ns(t0) / 1_000) as f64);
    }
    Ok(bytes)
}

/// Write a **model artifact** for inference: `MODELJSN` plus the
/// parameters — a bit-exact `PARAMS` section at [`Precision::F32`], or a
/// `PRMH` section holding every parameter in packed f16/bf16 with its
/// max-abs quantization error (roughly half the bytes). It carries no
/// optimizer state, so it serves ([`load_infer_model`]) but cannot
/// resume training. Returns bytes written.
pub fn save_model(
    path: impl AsRef<Path>,
    model: &TaskModel,
    precision: Precision,
) -> Result<u64, CkptError> {
    let mut w = CkptWriter::new();
    w.section(tags::MODEL_JSON, arch_json(model)?);
    match precision {
        Precision::F32 => w.section(tags::PARAMS, encode_params(&model.params)),
        half => w.section(tags::PARAMS_HALF, encode_params_half(&model.params, half)),
    };
    w.write(path)
}

/// A model loaded for inference, from either a full training
/// checkpoint (`PARAMS`) or a quantized one (`PRMH`).
pub struct InferModel {
    /// The rebuilt model. Quantized sources hold the dequantized f32
    /// values (each exactly what its packed bits represent).
    pub model: TaskModel,
    /// Storage precision of the source: `None` for a full-precision
    /// `PARAMS` section, otherwise the `PRMH` precision.
    pub stored_precision: Option<Precision>,
    /// Per-tensor max-abs quantization errors recorded at save time
    /// (empty for full-precision sources).
    pub max_abs_errors: Vec<f32>,
}

/// Load a model from any `.mckpt` file: prefers a `PRMH` section when
/// present (reduced-precision model artifact), falling back to `PARAMS`
/// (f32 model artifact or full training checkpoint).
pub fn load_infer_model(path: impl AsRef<Path>) -> Result<InferModel, CkptError> {
    let r = CkptReader::read(path)?;
    let (params, stored_precision, max_abs_errors) = match r.section(tags::PARAMS_HALF) {
        Some(payload) => {
            let half = decode_params_half(payload)?;
            (half.params, Some(half.precision), half.max_abs_errors)
        }
        None => (decode_params(r.require(tags::PARAMS)?)?, None, Vec::new()),
    };
    Ok(InferModel {
        model: model_from(r.require(tags::MODEL_JSON)?, params)?,
        stored_precision,
        max_abs_errors,
    })
}

impl TrainCheckpoint {
    /// Read and validate a checkpoint file, rebuilding the model.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CkptError> {
        Self::load_observed(path, &Obs::disabled())
    }

    /// [`TrainCheckpoint::load`], recording [`CKPT_LOAD_US`] when `obs`
    /// is enabled.
    pub fn load_observed(path: impl AsRef<Path>, obs: &Obs) -> Result<Self, CkptError> {
        let t0 = obs.timer();
        let r = CkptReader::read(path)?;
        let params = decode_params(r.require(tags::PARAMS)?)?;
        let opt = decode_adamw(r.require(tags::OPT_ADAMW)?)?;
        let config: TrainConfig = serde_json::from_slice(r.require(tags::TRAIN_CONFIG)?)
            .map_err(|e| CkptError::Malformed(format!("train config JSON: {e}")))?;
        let mut st = ByteReader::new(r.require(tags::TRAIN_STATE)?);
        let progress = TrainProgress {
            step: st.get_u64("progress step")?,
            best_metric: st.get_f64("progress best metric")? as f32,
            evals_without_improvement: st.get_u32("progress evals without improvement")?,
        };
        if opt.m.len() != params.len() {
            return Err(CkptError::Malformed(format!(
                "optimizer has {} moment tensors for {} parameters",
                opt.m.len(),
                params.len()
            )));
        }
        let model = model_from(r.require(tags::MODEL_JSON)?, params)?;
        if obs.enabled() {
            obs.observe(CKPT_LOAD_US, (Obs::lap_ns(t0) / 1_000) as f64);
        }
        Ok(TrainCheckpoint {
            model,
            opt,
            config,
            progress,
        })
    }

    /// Write this checkpoint back out (round-trip surface, used by tools
    /// that rewrite checkpoints); returns bytes written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, CkptError> {
        save_checkpoint(
            path,
            &self.model,
            &self.opt,
            &self.config,
            self.progress,
            &Obs::disabled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TargetKind, TaskHeadConfig};
    use matsciml_datasets::DatasetId;
    use matsciml_models::EgnnConfig;
    use matsciml_opt::{AdamW, AdamWConfig};

    fn small_model() -> TaskModel {
        TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            42,
        )
    }

    /// Every parameter's bit patterns, in registration order.
    fn bits(ps: &ParamSet) -> Vec<Vec<u32>> {
        (0..ps.len())
            .map(|i| {
                ps.value(matsciml_nn::ParamId(i)).as_slice().iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn full_checkpoint_roundtrip_is_bit_exact() {
        let model = small_model();
        let opt = AdamW::new(&model.params, AdamWConfig::default()).export_state();
        let progress = TrainProgress {
            step: 7,
            best_metric: 0.123,
            evals_without_improvement: 2,
        };
        let dir = std::env::temp_dir().join("matsciml-ckpt-roundtrip");
        let path = dir.join("step7.mckpt");
        let bytes =
            save_checkpoint(&path, &model, &opt, &TrainConfig::default(), progress, &Obs::null())
                .unwrap();
        assert!(bytes > 0);

        let back = TrainCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.progress, progress);
        assert_eq!(back.opt.t, opt.t);
        assert_eq!(back.model.encoder_param_count, model.encoder_param_count);
        assert_eq!(back.model.params.len(), model.params.len());
        assert_eq!(bits(&back.model.params), bits(&model.params));
        // The rebuilt model predicts identically (heads + encoder intact).
        let mp = matsciml_datasets::SyntheticMaterialsProject::new(4, 1);
        let t = matsciml_datasets::GraphTransform::radius(4.5, Some(12));
        use matsciml_datasets::{Dataset, Transform};
        let samples: Vec<_> = (0..2).map(|i| t.apply(mp.sample(i))).collect();
        assert_eq!(model.predict(&samples, 0), back.model.predict(&samples, 0));
    }

    #[test]
    fn quantized_checkpoint_roundtrips_and_halves_params() {
        let model = small_model();
        let dir = std::env::temp_dir().join("matsciml-ckpt-quantized");
        for precision in [Precision::F16, Precision::Bf16] {
            let path = dir.join(format!("model-{}.mckpt", precision.name()));
            let bytes = save_model(&path, &model, precision).unwrap();
            assert!(bytes > 0);
            let infer = load_infer_model(&path).unwrap();
            assert_eq!(infer.stored_precision, Some(precision));
            assert_eq!(infer.model.params.len(), model.params.len());
            assert_eq!(infer.max_abs_errors.len(), model.params.len());
            // Every loaded value is its source rounded through storage.
            for i in 0..model.params.len() {
                let id = matsciml_nn::ParamId(i);
                for (&q, &r) in infer.model.params.value(id).as_slice().iter()
                    .zip(model.params.value(id).as_slice())
                {
                    assert_eq!(q, matsciml_tensor::half::round_through(r, precision));
                    assert!((q - r).abs() <= infer.max_abs_errors[i]);
                }
            }
            // An inference artifact is not resumable: no PARAMS/OPTADAMW.
            assert!(TrainCheckpoint::load(&path).is_err());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn f32_model_roundtrips_bit_exact_and_does_not_resume() {
        let model = small_model();
        let path = std::env::temp_dir().join("matsciml-ckpt-model").join("model-f32.mckpt");
        save_model(&path, &model, Precision::F32).unwrap();
        let infer = load_infer_model(&path).unwrap();
        assert_eq!(infer.stored_precision, None);
        assert!(infer.max_abs_errors.is_empty());
        assert_eq!(infer.model.encoder_param_count, model.encoder_param_count);
        assert_eq!(bits(&infer.model.params), bits(&model.params));
        // No optimizer state: a typed missing-section error, not a panic.
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(CkptError::MissingSection(tags::OPT_ADAMW))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prmh_section_is_skipped_by_readers_that_ignore_it() {
        // Forward compatibility: a full training checkpoint that ALSO
        // carries a PRMH section must load identically through
        // TrainCheckpoint::load, which never asks for the tag — the v1
        // container retains-and-skips sections it does not consume.
        let model = small_model();
        let opt = AdamW::new(&model.params, AdamWConfig::default()).export_state();
        let progress = TrainProgress { step: 3, best_metric: 0.5, evals_without_improvement: 1 };
        let dir = std::env::temp_dir().join("matsciml-ckpt-fwdcompat");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("with-prmh.mckpt");

        let mut st = ByteWriter::new();
        st.put_u64(progress.step);
        st.put_f64(progress.best_metric as f64);
        st.put_u32(progress.evals_without_improvement);
        let mut w = CkptWriter::new();
        w.section(tags::PARAMS, encode_params(&model.params));
        w.section(tags::OPT_ADAMW, encode_adamw(&opt));
        w.section(tags::MODEL_JSON, arch_json(&model).unwrap());
        w.section(
            tags::TRAIN_CONFIG,
            serde_json::to_string(&TrainConfig::default()).unwrap().into_bytes(),
        );
        w.section(tags::TRAIN_STATE, st.into_bytes());
        w.section(tags::PARAMS_HALF, encode_params_half(&model.params, Precision::F16));
        w.write(&path).unwrap();

        let r = CkptReader::read(&path).unwrap();
        assert!(r.tags().iter().any(|t| t == tags::PARAMS_HALF));

        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.progress, progress);
        assert_eq!(bits(&back.model.params), bits(&model.params));
        // And the same file serves quantized through the infer loader.
        let infer = load_infer_model(&path).unwrap();
        assert_eq!(infer.stored_precision, Some(Precision::F16));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_records_ckpt_counters() {
        let model = small_model();
        let opt = AdamW::new(&model.params, AdamWConfig::default()).export_state();
        let obs = Obs::null();
        let dir = std::env::temp_dir().join("matsciml-ckpt-counters");
        let path = dir.join("step1.mckpt");
        let progress = TrainProgress { step: 1, best_metric: f32::INFINITY, evals_without_improvement: 0 };
        let bytes = save_checkpoint(&path, &model, &opt, &TrainConfig::default(), progress, &obs).unwrap();
        let _ = TrainCheckpoint::load_observed(&path, &obs).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(obs.counter(CKPT_SAVES), 1);
        assert_eq!(obs.counter(CKPT_BYTES_WRITTEN), bytes);
    }
}
