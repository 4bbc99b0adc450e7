//! Datasets, transforms, and loading for the Open MatSci ML Toolkit
//! reproduction.
//!
//! The paper integrates five data sources — the Materials Project, the
//! Carolina Materials Database, OC20/OC22 from the Open Catalyst Project,
//! and the LiPS trajectory set — plus a synthetic symmetry pretraining
//! pipeline. The real databases are access-gated, so this crate provides
//! *synthetic equivalents* that exercise the identical code paths:
//! procedurally generated crystal structures (from real crystallographic
//! prototypes over a real element-property table) whose targets are smooth,
//! learnable functionals of composition and geometry. See `DESIGN.md` §1
//! for the substitution rationale per dataset.
//!
//! The abstraction mirrors the paper's Figure 1: a [`Dataset`] yields
//! [`Sample`]s; a chain of [`Transform`]s converts representations (point
//! cloud ↔ graph) and injects inductive biases; a [`DataLoader`] shuffles,
//! splits, and collates.

//! # Example
//!
//! ```
//! use matsciml_datasets::{Compose, DataLoader, Dataset, Split, SyntheticMaterialsProject, Transform};
//!
//! let dataset = SyntheticMaterialsProject::new(64, 0);
//! let pipeline = Compose::standard(6.0, Some(12));       // center + radius graph
//! let loader = DataLoader::new(&dataset, Some(&pipeline), Split::Train, 0.25, 8, 0);
//! let batch = loader.load(&loader.epoch_batches(0)[0]);
//! assert_eq!(batch.len(), 8);
//! assert!(batch.iter().all(|s| s.graph.num_edges() > 0));
//! assert!(batch[0].targets.band_gap.is_some());
//! ```

#![warn(missing_docs)]

mod dataloader;
mod file;
pub mod elements;
mod prototypes;
mod sample;
pub mod shard;
mod stream;
mod synthetic;
mod transform;

pub use dataloader::{
    DataLoader, ReadAhead, ShuffleMode, Split, DATA_READAHEAD_DEPTH,
    DATA_READAHEAD_HIT, DATA_READAHEAD_MISS,
};
pub use file::{JsonlDataset, JsonlStream};
pub use shard::{ShardError, ShardFileInfo, ShardReader, ShardWriter};
pub use stream::{
    verify_precomputed_edges, write_corpus, write_corpus_iter, CorpusWriteOptions, ShardEntry,
    ShardManifest, StreamingDataset, DATA_SHARD_OPEN, DATA_STREAM_BYTES, DEFAULT_ADVISE_EVERY,
    MANIFEST_FORMAT,
};
pub use prototypes::{Prototype, ALL_PROTOTYPES, CUBIC_PROTOTYPES};
pub use sample::{ConcatDataset, Dataset, DatasetId, Sample, Targets};
pub use synthetic::{
    SymmetryDataset, SyntheticCarolina, SyntheticLips, SyntheticMaterialsProject, SyntheticOc20,
    SyntheticOc22,
};
pub use transform::{
    CenterTransform, Compose, GaussianNoiseTransform, GraphRecipe, GraphTransform, Transform,
};
