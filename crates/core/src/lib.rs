//! # Open MatSci ML Toolkit (Rust reproduction)
//!
//! A ground-up Rust implementation of the system described in *"Towards
//! Foundation Models for Materials Science: The Open MatSci ML Toolkit"*
//! (Lee et al., SC 2023): a modular materials-science machine-learning
//! framework — datasets → transforms → tasks → shared encoder → output
//! heads — together with every substrate the paper's evaluation rests on.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `matsciml-tensor` | dense f32 tensors, matmul, Vec3/Mat3 |
//! | [`autograd`] | `matsciml-autograd` | tape-based reverse-mode AD |
//! | [`nn`] | `matsciml-nn` | layers, MLP blocks, parameter store |
//! | [`opt`] | `matsciml-opt` | AdamW, LR schedules, instability probe |
//! | [`graph`] | `matsciml-graph` | atomic graphs, radius/k-NN, batching |
//! | [`symmetry`] | `matsciml-symmetry` | the 32 point groups + pretraining generator |
//! | [`datasets`] | `matsciml-datasets` | synthetic MP/CMD/OC20/OC22/LiPS, transforms, loading |
//! | [`models`] | `matsciml-models` | E(n)-GNN encoder, MPNN baseline |
//! | [`train`] | `matsciml-train` | tasks, multi-task models, DDP simulator, trainer, inference server |
//! | [`ckpt`] | `matsciml-ckpt` | the versioned container under checkpoints and shards, durable writes |
//! | [`obs`] | `matsciml-obs` | spans, streaming histograms, JSONL run recorder |
//! | [`umap`] | `matsciml-umap` | UMAP for the dataset-exploration study |
//!
//! ## Quickstart
//!
//! ```
//! use matsciml::prelude::*;
//!
//! // A synthetic Materials Project with 64 structures.
//! let dataset = SyntheticMaterialsProject::new(64, 0);
//! let pipeline = Compose::standard(4.5, Some(12));
//! let train_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Train, 0.25, 8, 0);
//! let val_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Val, 0.25, 8, 0);
//!
//! // An E(n)-GNN with a band-gap regression head.
//! let mut model = TaskModel::egnn(
//!     EgnnConfig::small(16),
//!     &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 32, 3)],
//!     0,
//! );
//!
//! // Train for a few steps with the paper's recipe.
//! let trainer = Trainer::new(TrainConfig { steps: 3, ..Default::default() });
//! let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
//! assert_eq!(log.records.len(), 3);
//! ```

#![warn(missing_docs)]

pub use matsciml_autograd as autograd;
pub use matsciml_ckpt as ckpt;
pub use matsciml_datasets as datasets;
pub use matsciml_graph as graph;
pub use matsciml_models as models;
pub use matsciml_nn as nn;
pub use matsciml_obs as obs;
pub use matsciml_opt as opt;
pub use matsciml_symmetry as symmetry;
pub use matsciml_tensor as tensor;
pub use matsciml_train as train;
pub use matsciml_umap as umap;

/// One-stop imports for applications and the experiment binaries.
pub mod prelude {
    pub use matsciml_autograd::{Graph, Var};
    pub use matsciml_datasets::{
        verify_precomputed_edges, write_corpus, write_corpus_iter, CenterTransform, Compose,
        ConcatDataset, CorpusWriteOptions, DataLoader, Dataset, DatasetId, GaussianNoiseTransform,
        GraphRecipe, GraphTransform, JsonlDataset, JsonlStream, Sample, ShardManifest, ShardReader,
        ShuffleMode, Split, StreamingDataset, SymmetryDataset, SyntheticCarolina, SyntheticLips,
        SyntheticMaterialsProject, SyntheticOc20, SyntheticOc22, Targets, Transform,
    };
    pub use matsciml_graph::{
        complete_graph, knn_graph, permute_graph, radius_graph, rcm_order,
        reorder_for_locality, BatchedGraph, CsrGraph, MaterialGraph,
    };
    pub use matsciml_models::{
        AttentionConfig, AttentionEncoder, EgnnConfig, EgnnEncoder, Encoder, ModelInput,
        MpnnConfig, MpnnEncoder,
    };
    pub use matsciml_nn::{
        Activation, BatchNorm, Embedding, ForwardCtx, Linear, Mlp, NormKind, OutputHead,
        ParamId, ParamSet, ResidualBlock, RmsNorm,
    };
    pub use matsciml_obs::{
        Event, Obs, Phase, PhaseAcc, RunRecord, RunRecorder, Span, StreamingHistogram,
    };
    pub use matsciml_opt::{
        AdamW, AdamWConfig, ConstantLr, InstabilityProbe, LrSchedule, Sgd, WarmupExpDecay,
    };
    pub use matsciml_symmetry::{all_point_groups, group_by_name, PointGroup, SymmetryConfig};
    pub use matsciml_tensor::{
        max_rel_error, HalfTensor, Mat3, Precision, Tensor, TensorError, Vec3,
    };
    pub use matsciml_ckpt::{CkptError, CkptReader, CkptWriter};
    pub use matsciml_train::{
        collate, ddp::ddp_step, ddp::DdpConfig, ddp::DdpTapes, ddp::StepInput, load_infer_model,
        save_model, sweep::run_sweep, sweep::run_sweep_observed, sweep::SweepGrid,
        sweep::Trial, target_stats, ForceFieldModel, throughput, EncoderKind, InferModel,
        InferenceServer, LossKind, MetricMap, EarlyStop, ServeConfig, ServeError, TargetKind,
        TaskHead, TaskHeadConfig, TaskModel, TrainCheckpoint, TrainConfig, TrainLog,
        TrainProgress, TrainRecord, Trainer,
    };
    pub use matsciml_umap::{
        centroid_separation, exact_knn, silhouette, FittedUmap, Umap, UmapConfig,
    };
}
