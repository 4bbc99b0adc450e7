//! Property-based tests over the dataset generators and loading pipeline.

use matsciml_datasets::{
    elements, ConcatDataset, DataLoader, Dataset, GraphTransform, Split, SymmetryDataset,
    SyntheticCarolina, SyntheticLips, SyntheticMaterialsProject, SyntheticOc20, SyntheticOc22,
    Transform,
};
use proptest::prelude::*;

/// Proptest needs `Debug` inputs, so generate a spec and materialize the
/// trait object inside the test body.
fn any_spec() -> impl Strategy<Value = (usize, usize, u64)> {
    (0usize..6, 1usize..200, any::<u64>())
}

fn build(kind: usize, size: usize, seed: u64) -> Box<dyn Dataset> {
    match kind {
        0 => Box::new(SyntheticMaterialsProject::new(size, seed)),
        1 => Box::new(SyntheticCarolina::new(size, seed)),
        2 => Box::new(SyntheticOc20::new(size, seed)),
        3 => Box::new(SyntheticOc22::new(size, seed)),
        4 => Box::new(SyntheticLips::new(size, seed)),
        _ => Box::new(SymmetryDataset::new(size, seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_sample_is_well_formed((kind, size, seed) in any_spec(), frac in 0.0f32..1.0) {
        let ds = build(kind, size, seed);
        let i = ((size - 1) as f32 * frac) as usize;
        let s = ds.sample(i);
        // Structure invariants.
        prop_assert!(s.graph.num_nodes() >= 1);
        prop_assert_eq!(s.graph.species.len(), s.graph.positions.len());
        prop_assert!(s.graph.species.iter().all(|&sp| (sp as usize) < elements::NUM_SPECIES));
        prop_assert!(s.graph.positions.iter().all(|p| p.norm().is_finite()));
        // Fresh samples are point clouds (transforms add edges).
        prop_assert_eq!(s.graph.num_edges(), 0);
        // At least one target labeled, all finite.
        let t = s.targets;
        let labeled = t.band_gap.is_some()
            || t.fermi_energy.is_some()
            || t.formation_energy.is_some()
            || t.stable.is_some()
            || t.energy.is_some()
            || t.sym_label.is_some();
        prop_assert!(labeled, "sample carries no targets");
        for v in [t.band_gap, t.fermi_energy, t.formation_energy, t.energy].into_iter().flatten() {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn sampling_is_deterministic((kind, size, seed) in any_spec(), frac in 0.0f32..1.0) {
        let ds = build(kind, size, seed);
        let i = ((size - 1) as f32 * frac) as usize;
        let a = ds.sample(i);
        let b = ds.sample(i);
        prop_assert_eq!(a.graph.positions, b.graph.positions);
        prop_assert_eq!(a.graph.species, b.graph.species);
        prop_assert_eq!(a.targets, b.targets);
    }

    #[test]
    fn atoms_never_overlap((kind, size, seed) in any_spec(), frac in 0.0f32..1.0) {
        let ds = build(kind, size, seed);
        let i = ((size - 1) as f32 * frac) as usize;
        let s = ds.sample(i);
        let p = &s.graph.positions;
        // Chemistry datasets place real atoms (hard-sphere bound); the
        // symmetry generator's abstract particles may sit arbitrarily
        // close when a seed lands near a symmetry element, but must stay
        // distinct.
        let min_sep = if matches!(ds.id(), matsciml_datasets::DatasetId::Symmetry) {
            1e-4
        } else {
            0.2
        };
        for a in 0..p.len() {
            for b in a + 1..p.len() {
                prop_assert!(
                    (p[a] - p[b]).norm() > min_sep,
                    "atoms {} and {} overlap in {:?}",
                    a, b, ds.id()
                );
            }
        }
    }

    #[test]
    fn split_is_a_partition(
        size in 10usize..300,
        val_fraction in 0.05f32..0.5,
        seed in any::<u64>(),
    ) {
        let ds = SyntheticMaterialsProject::new(size, seed);
        let train = DataLoader::new(&ds, None, Split::Train, val_fraction, 1, 0);
        let val = DataLoader::new(&ds, None, Split::Val, val_fraction, 1, 0);
        prop_assert_eq!(train.len() + val.len(), size);
        prop_assert!(!val.is_empty(), "val split must be non-empty at these sizes");
    }

    #[test]
    fn graph_transform_preserves_atoms(
        (kind, size, seed) in any_spec(),
        frac in 0.0f32..1.0,
        radius in 1.0f32..8.0,
    ) {
        let ds = build(kind, size, seed);
        let i = ((size - 1) as f32 * frac) as usize;
        let raw = ds.sample(i);
        let t = GraphTransform::radius(radius, Some(16));
        let wired = t.apply(raw.clone());
        prop_assert_eq!(&wired.graph.species, &raw.graph.species);
        prop_assert_eq!(&wired.graph.positions, &raw.graph.positions);
        prop_assert_eq!(wired.targets, raw.targets);
        // Edges respect the cutoff.
        let r2 = radius * radius;
        for d2 in wired.graph.edge_lengths_sq() {
            prop_assert!(d2 <= r2 * 1.0001);
        }
    }

    #[test]
    fn concat_preserves_per_source_samples(
        a_size in 1usize..50,
        b_size in 1usize..50,
        seed in any::<u64>(),
    ) {
        let concat = ConcatDataset::new(vec![
            Box::new(SyntheticMaterialsProject::new(a_size, seed)),
            Box::new(SyntheticLips::new(b_size, seed)),
        ]);
        prop_assert_eq!(concat.len(), a_size + b_size);
        let direct_a = SyntheticMaterialsProject::new(a_size, seed).sample(a_size - 1);
        prop_assert_eq!(concat.sample(a_size - 1).targets, direct_a.targets);
        let direct_b = SyntheticLips::new(b_size, seed).sample(0);
        prop_assert_eq!(concat.sample(a_size).targets, direct_b.targets);
    }
}
