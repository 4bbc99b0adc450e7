//! The sample/target model and the [`Dataset`] trait.

use matsciml_graph::MaterialGraph;
use serde::{Deserialize, Serialize};

/// Identifies a data source (the five sources the paper integrates, plus
/// the synthetic symmetry pretraining pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetId {
    /// Materials Project surrogate (band gap, Fermi energy, formation
    /// energy, stability).
    MaterialsProject,
    /// Carolina Materials Database surrogate (formation energy; cubic-only).
    Carolina,
    /// Open Catalyst 2020 surrogate (adsorption energy).
    Oc20,
    /// Open Catalyst 2022 surrogate (oxide electrocatalysts).
    Oc22,
    /// LiPS molecular-dynamics trajectory surrogate (energy per frame).
    Lips,
    /// Synthetic symmetry point clouds (point-group label).
    Symmetry,
    /// A concatenation of several sources (each sample still carries its
    /// own origin id) — the multi-dataset training stream.
    Mixed,
}

impl DatasetId {
    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::MaterialsProject => "materials-project",
            DatasetId::Carolina => "carolina",
            DatasetId::Oc20 => "oc20",
            DatasetId::Oc22 => "oc22",
            DatasetId::Lips => "lips",
            DatasetId::Symmetry => "symmetry",
            DatasetId::Mixed => "mixed",
        }
    }

    /// Inverse of [`DatasetId::name`] (used by the shard manifest).
    pub fn from_name(name: &str) -> Option<DatasetId> {
        Some(match name {
            "materials-project" => DatasetId::MaterialsProject,
            "carolina" => DatasetId::Carolina,
            "oc20" => DatasetId::Oc20,
            "oc22" => DatasetId::Oc22,
            "lips" => DatasetId::Lips,
            "symmetry" => DatasetId::Symmetry,
            "mixed" => DatasetId::Mixed,
            _ => return None,
        })
    }

    /// Stable one-byte wire code for the on-disk shard record format
    /// (`docs/SHARD_FORMAT.md`). Codes are append-only: existing values
    /// never change meaning across format revisions.
    pub fn code(self) -> u8 {
        match self {
            DatasetId::MaterialsProject => 0,
            DatasetId::Carolina => 1,
            DatasetId::Oc20 => 2,
            DatasetId::Oc22 => 3,
            DatasetId::Lips => 4,
            DatasetId::Symmetry => 5,
            DatasetId::Mixed => 6,
        }
    }

    /// Provenance of a set of records once one from `next` joins it:
    /// `next` when the set was empty (`None`) or all from `next`,
    /// [`DatasetId::Mixed`] otherwise.
    pub fn merge(set: Option<DatasetId>, next: DatasetId) -> DatasetId {
        match set {
            Some(d) if d != next => DatasetId::Mixed,
            _ => next,
        }
    }

    /// Inverse of [`DatasetId::code`]; `None` for codes this reader does
    /// not know (a record written by a newer format revision).
    pub fn from_code(code: u8) -> Option<DatasetId> {
        Some(match code {
            0 => DatasetId::MaterialsProject,
            1 => DatasetId::Carolina,
            2 => DatasetId::Oc20,
            3 => DatasetId::Oc22,
            4 => DatasetId::Lips,
            5 => DatasetId::Symmetry,
            6 => DatasetId::Mixed,
            _ => return None,
        })
    }
}

/// Round-robin-free concatenation of datasets: indices `0..len_0` map to
/// the first source, the next `len_1` to the second, and so on. Shuffling
/// in the [`crate::DataLoader`] then interleaves sources within batches —
/// the paper's multi-dataset training stream.
pub struct ConcatDataset {
    sources: Vec<Box<dyn Dataset>>,
    offsets: Vec<usize>,
    total: usize,
}

impl ConcatDataset {
    /// Concatenate the given sources. Panics on an empty list.
    pub fn new(sources: Vec<Box<dyn Dataset>>) -> Self {
        assert!(!sources.is_empty(), "ConcatDataset needs at least one source");
        let mut offsets = Vec::with_capacity(sources.len());
        let mut total = 0;
        for s in &sources {
            offsets.push(total);
            total += s.len();
        }
        ConcatDataset {
            sources,
            offsets,
            total,
        }
    }
}

impl Dataset for ConcatDataset {
    fn id(&self) -> DatasetId {
        DatasetId::Mixed
    }

    fn len(&self) -> usize {
        self.total
    }

    fn sample(&self, index: usize) -> Sample {
        assert!(index < self.total, "index {index} out of range");
        // Binary search over offsets for the owning source.
        let k = match self.offsets.binary_search(&index) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        self.sources[k].sample(index - self.offsets[k])
    }
}

/// Per-sample learning targets. Every field is optional: datasets label
/// only what they provide, and the multi-task trainer masks per-target
/// (the toolkit's "make full use of all labels present" behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Targets {
    /// Electronic band gap (eV).
    pub band_gap: Option<f32>,
    /// Fermi energy ζ (eV).
    pub fermi_energy: Option<f32>,
    /// Formation energy per atom (eV/atom).
    pub formation_energy: Option<f32>,
    /// Thermodynamic stability flag.
    pub stable: Option<bool>,
    /// Total/adsorption energy (eV) — OCP-style and trajectory targets.
    pub energy: Option<f32>,
    /// Point-group label for symmetry pretraining.
    pub sym_label: Option<u32>,
}

/// One data sample: a structure (atoms + positions, possibly with edges
/// already attached by a transform) plus its targets and provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Source dataset.
    pub dataset: DatasetId,
    /// The structure. Edge lists are empty until a
    /// [`crate::GraphTransform`] runs — an edgeless graph *is* the point
    /// cloud representation.
    pub graph: MaterialGraph,
    /// Learning targets.
    pub targets: Targets,
    /// Per-atom force labels (eV/Å), when the source provides them
    /// (the LiPS trajectory dataset carries energy *and* force labels).
    #[serde(default)]
    pub forces: Option<Vec<matsciml_tensor::Vec3>>,
}

/// A map-style dataset: deterministic random access by index. Generators
/// derive each sample's RNG from `(dataset seed, index)`, so any index is
/// reproducible in isolation — this is what lets the DDP simulator shard
/// batches across ranks without coordination.
pub trait Dataset: Send + Sync {
    /// Which source this is.
    fn id(&self) -> DatasetId;
    /// Number of samples.
    fn len(&self) -> usize;
    /// True when the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Materialize sample `index` (0-based, `< len()`).
    fn sample(&self, index: usize) -> Sample;
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_tensor::Vec3;

    #[test]
    fn targets_default_to_unlabeled() {
        let t = Targets::default();
        assert!(t.band_gap.is_none());
        assert!(t.stable.is_none());
        assert!(t.sym_label.is_none());
    }

    #[test]
    fn dataset_names_are_stable() {
        assert_eq!(DatasetId::MaterialsProject.name(), "materials-project");
        assert_eq!(DatasetId::Symmetry.name(), "symmetry");
    }

    #[test]
    fn dataset_codes_and_names_roundtrip() {
        for id in [
            DatasetId::MaterialsProject,
            DatasetId::Carolina,
            DatasetId::Oc20,
            DatasetId::Oc22,
            DatasetId::Lips,
            DatasetId::Symmetry,
            DatasetId::Mixed,
        ] {
            assert_eq!(DatasetId::from_code(id.code()), Some(id));
            assert_eq!(DatasetId::from_name(id.name()), Some(id));
        }
        assert_eq!(DatasetId::from_code(200), None);
        assert_eq!(DatasetId::from_name("lmdb"), None);
    }

    #[test]
    fn concat_dataset_routes_indices_to_sources() {
        use crate::synthetic::{SyntheticCarolina, SyntheticMaterialsProject};
        let concat = ConcatDataset::new(vec![
            Box::new(SyntheticMaterialsProject::new(5, 1)),
            Box::new(SyntheticCarolina::new(3, 2)),
        ]);
        assert_eq!(concat.len(), 8);
        assert_eq!(concat.id(), DatasetId::Mixed);
        assert_eq!(concat.sample(0).dataset, DatasetId::MaterialsProject);
        assert_eq!(concat.sample(4).dataset, DatasetId::MaterialsProject);
        assert_eq!(concat.sample(5).dataset, DatasetId::Carolina);
        assert_eq!(concat.sample(7).dataset, DatasetId::Carolina);
        // Boundary sample equals the source's own sample 0.
        let direct = SyntheticCarolina::new(3, 2).sample(0);
        assert_eq!(concat.sample(5).targets, direct.targets);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn concat_dataset_checks_bounds() {
        use crate::synthetic::SyntheticCarolina;
        let concat = ConcatDataset::new(vec![Box::new(SyntheticCarolina::new(3, 2))]);
        let _ = concat.sample(3);
    }

    #[test]
    fn sample_roundtrips_through_serde() {
        let s = Sample {
            dataset: DatasetId::Lips,
            graph: MaterialGraph::new(vec![1, 2], vec![Vec3::zero(), Vec3::new(1.0, 0.0, 0.0)]),
            targets: Targets {
                energy: Some(-3.5),
                ..Default::default()
            },
            forces: None,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dataset, DatasetId::Lips);
        assert_eq!(back.targets.energy, Some(-3.5));
        assert_eq!(back.graph.num_nodes(), 2);
    }
}
