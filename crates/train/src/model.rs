//! [`TaskModel`]: one shared encoder + any number of task heads over one
//! parameter store.

use matsciml_autograd::{Graph, Var};
use matsciml_datasets::Sample;
use matsciml_models::{AttentionConfig, AttentionEncoder, EgnnConfig, EgnnEncoder, Encoder, ModelInput, MpnnConfig, MpnnEncoder};
use matsciml_nn::{ForwardCtx, ParamSet};
use matsciml_tensor::Precision;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::collate::{collate, Batch};
use crate::metrics::MetricMap;
use crate::task::{TaskHead, TaskHeadConfig};

/// Encoder architecture selector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum EncoderKind {
    /// The paper's E(n)-equivariant GNN.
    Egnn(EgnnEncoder),
    /// The non-equivariant baseline (ablation).
    Mpnn(MpnnEncoder),
    /// The invariant point-cloud attention encoder (dense all-pairs
    /// representation, paper §2.1).
    Attention(AttentionEncoder),
}

impl EncoderKind {
    fn out_dim(&self) -> usize {
        match self {
            EncoderKind::Egnn(e) => e.out_dim(),
            EncoderKind::Mpnn(e) => e.out_dim(),
            EncoderKind::Attention(e) => e.out_dim(),
        }
    }

    fn num_species(&self) -> usize {
        match self {
            EncoderKind::Egnn(e) => e.config.num_species,
            EncoderKind::Mpnn(e) => e.config.num_species,
            EncoderKind::Attention(e) => e.config.num_species,
        }
    }

    fn encode(&self, g: &mut Graph, ps: &ParamSet, ctx: &mut ForwardCtx, input: &ModelInput) -> Var {
        match self {
            EncoderKind::Egnn(e) => e.encode(g, ps, ctx, input),
            EncoderKind::Mpnn(e) => e.encode(g, ps, ctx, input),
            EncoderKind::Attention(e) => e.encode(g, ps, ctx, input),
        }
    }
}

/// A complete trainable model: parameter store, encoder, task heads.
///
/// The encoder's parameters occupy a prefix of the store (they are
/// registered first), which is what makes pretrained-encoder transfer a
/// [`ParamSet::copy_prefix_from`] call — the paper's fine-tuning setup.
///
/// Its one on-disk form is a `.mckpt` model artifact
/// ([`crate::save_model`] / [`crate::load_infer_model`]), which stores
/// the architecture as JSON and the weights bit-exact.
pub struct TaskModel {
    /// All trainable parameters (encoder prefix + heads).
    pub params: ParamSet,
    /// The shared encoder.
    pub encoder: EncoderKind,
    /// Task heads, evaluated per batch and summed into the joint loss.
    pub heads: Vec<TaskHead>,
    /// Number of parameter tensors belonging to the encoder (the
    /// transferable prefix).
    pub encoder_param_count: usize,
    /// The precision [`TaskModel::quantize_params`] last rounded the
    /// parameters to, which the inference forwards run at.
    precision: Precision,
}

impl TaskModel {
    /// Build an E(n)-GNN model with the given heads.
    pub fn egnn(config: EgnnConfig, head_configs: &[TaskHeadConfig], seed: u64) -> Self {
        Self::assemble(head_configs, seed, |ps, rng| EncoderKind::Egnn(EgnnEncoder::new(ps, config, rng)))
    }

    /// Build the non-equivariant baseline with the given heads.
    pub fn mpnn(config: MpnnConfig, head_configs: &[TaskHeadConfig], seed: u64) -> Self {
        Self::assemble(head_configs, seed, |ps, rng| EncoderKind::Mpnn(MpnnEncoder::new(ps, config, rng)))
    }

    /// Build a point-cloud attention model with the given heads. Feed it
    /// complete-graph batches (`GraphTransform::complete()`).
    pub fn attention(config: AttentionConfig, head_configs: &[TaskHeadConfig], seed: u64) -> Self {
        Self::assemble(head_configs, seed, |ps, rng| {
            EncoderKind::Attention(AttentionEncoder::new(ps, config, rng))
        })
    }

    /// Register the encoder's parameters first (the transferable
    /// prefix), then one head per config, all drawn from one seeded RNG.
    fn assemble(
        head_configs: &[TaskHeadConfig],
        seed: u64,
        encoder: impl FnOnce(&mut ParamSet, &mut StdRng) -> EncoderKind,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let encoder = encoder(&mut params, &mut rng);
        let encoder_param_count = params.len();
        let out_dim = encoder.out_dim();
        let heads = head_configs
            .iter()
            .map(|c| TaskHead::new(&mut params, c.clone(), out_dim, &mut rng))
            .collect();
        TaskModel::from_parts(params, encoder, heads, encoder_param_count)
    }

    /// A full-precision model over existing parts (checkpoint decode).
    pub(crate) fn from_parts(
        params: ParamSet,
        encoder: EncoderKind,
        heads: Vec<TaskHead>,
        encoder_param_count: usize,
    ) -> Self {
        TaskModel { params, encoder, heads, encoder_param_count, precision: Precision::F32 }
    }

    /// Load a pretrained encoder: copies the encoder-prefix parameters from
    /// `pretrained` into this model (head parameters stay at their fresh
    /// initialization). Panics when encoder architectures differ.
    pub fn load_pretrained_encoder(&mut self, pretrained: &TaskModel) {
        assert_eq!(
            self.encoder_param_count, pretrained.encoder_param_count,
            "encoder architectures differ"
        );
        self.params
            .copy_prefix_from(&pretrained.params, self.encoder_param_count);
    }

    /// Forward a collated batch: returns the tape, the joint loss variable,
    /// and the per-head metrics. The joint loss is the sum of each matching
    /// head's (weighted) loss — heads with no matching samples contribute
    /// nothing, exactly the paper's masked multi-task objective.
    pub fn forward(&self, batch: &Batch, ctx: &mut ForwardCtx) -> (Graph, Var, MetricMap) {
        let mut g = Graph::new();
        let (total, metrics) = self.forward_into(&mut g, batch, ctx);
        (g, total, metrics)
    }

    /// [`TaskModel::forward`] into a caller-owned tape. The graph is
    /// [reset](Graph::reset) first, so a long-lived graph threaded through
    /// a step loop records each batch with recycled node and buffer
    /// storage — the pooled hot path used by `ddp_step` and the trainer.
    pub fn forward_into(&self, g: &mut Graph, batch: &Batch, ctx: &mut ForwardCtx) -> (Var, MetricMap) {
        g.reset();
        let embedding = self.encoder.encode(g, &self.params, ctx, &batch.input);
        let mut metrics = MetricMap::new();
        let mut total: Option<Var> = None;
        for head in &self.heads {
            if let Some((loss, m)) = head.loss(g, &self.params, ctx, embedding, batch) {
                for (k, v) in m.0 {
                    metrics.set(k, v);
                }
                total = Some(match total {
                    Some(t) => g.add(t, loss),
                    None => loss,
                });
            }
        }
        let total = total.expect("batch matched no task head — check dataset/head wiring");
        metrics.set("loss", g.value(total).item());
        (total, metrics)
    }

    /// Convenience: collate + forward in eval mode, returning metrics only.
    pub fn evaluate_batch(&self, samples: &[Sample]) -> MetricMap {
        let batch = collate(samples);
        let mut ctx = ForwardCtx::eval();
        let (_g, _loss, metrics) = self.forward(&batch, &mut ctx);
        metrics
    }

    /// Embed samples (eval mode) into `[n, out_dim]` rows — the Fig. 4
    /// dataset-exploration path. Runs at the model's
    /// [precision](TaskModel::precision).
    pub fn embed(&self, samples: &[Sample]) -> matsciml_tensor::Tensor {
        let batch = collate(samples);
        let mut ctx = ForwardCtx::eval();
        let mut g = Graph::new();
        g.set_precision(self.precision);
        let emb = self.encoder.encode(&mut g, &self.params, &mut ctx, &batch.input);
        g.value(emb).clone()
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// Species vocabulary: the rows of the encoder's embedding table.
    /// Every species index fed to the model must be below it.
    pub fn num_species(&self) -> usize {
        self.encoder.num_species()
    }

    /// Round every parameter through the given storage precision in
    /// place (the reduced-precision inference tier's load-time step) and
    /// run [`TaskModel::predict`], [`TaskModel::predict_into`] and
    /// [`TaskModel::embed`] at that precision from then on. Returns the
    /// worst per-scalar absolute quantization error across all parameter
    /// tensors. [`Precision::F32`] rounds nothing (returning `0.0`) and
    /// puts the inference forwards back on the exact kernels.
    /// Irreversible — intended for models about to serve inference, not
    /// for training state; training tapes always run at f32.
    pub fn quantize_params(&mut self, precision: Precision) -> f32 {
        let mut worst = 0.0f32;
        for i in 0..self.params.len() {
            let id = matsciml_nn::ParamId(i);
            let err = matsciml_tensor::quantize_tensor_in_place(self.params.value_mut(id), precision);
            worst = worst.max(err);
        }
        self.precision = precision;
        worst
    }

    /// The precision the inference forwards run at: [`Precision::F32`]
    /// until [`TaskModel::quantize_params`] selects another.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Raw predictions of head `head_idx` for the given samples (eval
    /// mode): `[n, out_dim]` — regression values, or logits for
    /// classification heads. Ignores the head's dataset routing (the
    /// caller decides what to feed a deployed predictor).
    pub fn predict(&self, samples: &[Sample], head_idx: usize) -> matsciml_tensor::Tensor {
        let batch = collate(samples);
        let mut g = Graph::new();
        self.predict_into(&mut g, &batch, head_idx)
    }

    /// [`TaskModel::predict`] over an already-collated batch, into a
    /// caller-owned tape. The graph is [reset](Graph::reset) first, so a
    /// long-lived graph threaded through a request loop re-records each
    /// batch with recycled node and buffer storage — the pooled no-alloc
    /// path the inference server's workers run per coalesced batch. The
    /// tape runs at the model's [precision](TaskModel::precision).
    pub fn predict_into(&self, g: &mut Graph, batch: &Batch, head_idx: usize) -> matsciml_tensor::Tensor {
        g.reset();
        g.set_precision(self.precision);
        let mut ctx = ForwardCtx::eval();
        let embedding = self.encoder.encode(g, &self.params, &mut ctx, &batch.input);
        let pred = self.heads[head_idx].predict(g, &self.params, &mut ctx, embedding);
        g.value(pred).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TargetKind, TaskHeadConfig};
    use matsciml_datasets::{
        Dataset, DatasetId, GraphTransform, SymmetryDataset, SyntheticCarolina,
        SyntheticMaterialsProject, Transform,
    };

    fn wired(samples: Vec<Sample>) -> Vec<Sample> {
        let t = GraphTransform::radius(4.0, Some(12));
        samples.into_iter().map(|s| t.apply(s)).collect()
    }

    #[test]
    fn single_task_forward_and_eval() {
        let model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(
                DatasetId::MaterialsProject,
                TargetKind::BandGap,
                16,
                2,
            )],
            1,
        );
        let mp = SyntheticMaterialsProject::new(10, 1);
        let samples = wired(vec![mp.sample(0), mp.sample(1)]);
        let metrics = model.evaluate_batch(&samples);
        assert!(metrics.get("loss").unwrap().is_finite());
        assert!(metrics.get("materials-project/band_gap/mae").is_some());
    }

    #[test]
    fn multitask_multidataset_routes_heads() {
        // The Table 1 composition: 4 MP heads + 1 CMD head.
        let heads = vec![
            TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 2),
            TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::FermiEnergy, 16, 2),
            TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::FormationEnergy, 16, 2),
            TaskHeadConfig::binary(DatasetId::MaterialsProject, TargetKind::Stability, 16, 2),
            TaskHeadConfig::regression(DatasetId::Carolina, TargetKind::FormationEnergy, 16, 2),
        ];
        let model = TaskModel::egnn(EgnnConfig::small(8), &heads, 2);
        let mp = SyntheticMaterialsProject::new(10, 1);
        let cmd = SyntheticCarolina::new(10, 2);
        let samples = wired(vec![mp.sample(0), cmd.sample(0), mp.sample(1), cmd.sample(1)]);
        let metrics = model.evaluate_batch(&samples);
        assert!(metrics.get("materials-project/band_gap/mae").is_some());
        assert!(metrics.get("materials-project/stability/bce").is_some());
        assert!(metrics.get("carolina/e_form/mae").is_some());
    }

    #[test]
    fn pretrained_encoder_transfer_copies_prefix_only() {
        let pre = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::symmetry(16, 2, 32)],
            3,
        );
        let mut fine = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(
                DatasetId::MaterialsProject,
                TargetKind::BandGap,
                16,
                2,
            )],
            4,
        );
        let head_param = fine.params.value(matsciml_nn::ParamId(fine.encoder_param_count)).clone();
        fine.load_pretrained_encoder(&pre);
        // Encoder prefix now equals the pretrained one...
        for i in 0..fine.encoder_param_count {
            assert_eq!(
                fine.params.value(matsciml_nn::ParamId(i)),
                pre.params.value(matsciml_nn::ParamId(i))
            );
        }
        // ...heads untouched.
        assert_eq!(
            fine.params.value(matsciml_nn::ParamId(fine.encoder_param_count)),
            &head_param
        );
    }

    #[test]
    fn symmetry_pretraining_forward() {
        let ds = SymmetryDataset::new(64, 5);
        let model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::symmetry(16, 2, ds.num_classes())],
            5,
        );
        let samples = wired(vec![ds.sample(0), ds.sample(1), ds.sample(33)]);
        let metrics = model.evaluate_batch(&samples);
        let ce = metrics.get("symmetry/sym/ce").unwrap();
        // Sum pooling is size-extensive, so untrained logits (and CE) can
        // be large; warmup tames this in training. Just require sanity.
        assert!(ce.is_finite() && ce > 0.0, "untrained CE should be finite and positive: {ce}");
    }

    #[test]
    fn embed_returns_one_row_per_sample() {
        let model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::symmetry(16, 1, 32)],
            6,
        );
        let ds = SymmetryDataset::new(64, 6);
        let samples = wired(vec![ds.sample(0), ds.sample(1), ds.sample(2), ds.sample(3)]);
        let emb = model.embed(&samples);
        assert_eq!(emb.shape(), &[4, 8]);
        assert!(emb.all_finite());
    }

    #[test]
    fn attention_variant_trains_same_api() {
        let model = TaskModel::attention(
            AttentionConfig::small(8),
            &[TaskHeadConfig::regression(
                DatasetId::MaterialsProject,
                TargetKind::BandGap,
                16,
                1,
            )],
            12,
        );
        let mp = SyntheticMaterialsProject::new(10, 12);
        let t = GraphTransform::complete();
        let samples: Vec<Sample> = vec![t.apply(mp.sample(0)), t.apply(mp.sample(1))];
        let metrics = model.evaluate_batch(&samples);
        assert!(metrics.get("loss").unwrap().is_finite());
    }

    #[test]
    fn mpnn_variant_trains_same_api() {
        let model = TaskModel::mpnn(
            MpnnConfig::small(8),
            &[TaskHeadConfig::regression(
                DatasetId::MaterialsProject,
                TargetKind::BandGap,
                16,
                1,
            )],
            7,
        );
        let mp = SyntheticMaterialsProject::new(10, 7);
        let samples = wired(vec![mp.sample(0), mp.sample(1)]);
        let metrics = model.evaluate_batch(&samples);
        assert!(metrics.get("loss").unwrap().is_finite());
    }

    #[test]
    #[should_panic(expected = "no task head")]
    fn unroutable_batch_panics() {
        let model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(
                DatasetId::MaterialsProject,
                TargetKind::BandGap,
                16,
                1,
            )],
            8,
        );
        let cmd = SyntheticCarolina::new(10, 8);
        let samples = wired(vec![cmd.sample(0)]);
        let _ = model.evaluate_batch(&samples);
    }
}
