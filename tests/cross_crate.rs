//! Cross-crate consistency: contracts that span crate boundaries and
//! cannot be checked inside any single crate.

use matsciml::datasets::elements;
use matsciml::prelude::*;

#[test]
fn model_vocab_matches_element_table() {
    // models::input_vocab_default is a decoupled constant; it must track
    // the dataset crate's species table.
    assert_eq!(
        matsciml::models::input_vocab_default(),
        elements::NUM_SPECIES,
        "models' default embedding vocabulary diverged from the element table"
    );
}

#[test]
fn every_dataset_embeds_without_panic() {
    let model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::symmetry(16, 1, 32)],
        0,
    );
    let pipeline = Compose::standard(4.5, Some(12));
    let sources: Vec<Box<dyn Dataset>> = vec![
        Box::new(SyntheticMaterialsProject::new(4, 1)),
        Box::new(SyntheticCarolina::new(4, 2)),
        Box::new(SyntheticOc20::new(4, 3)),
        Box::new(SyntheticOc22::new(4, 4)),
        Box::new(SyntheticLips::new(4, 5)),
        Box::new(SymmetryDataset::new(64, 6)),
    ];
    for ds in &sources {
        let samples: Vec<Sample> = (0..4).map(|i| pipeline.apply(ds.sample(i))).collect();
        let emb = model.embed(&samples);
        assert_eq!(emb.rows(), 4, "{:?}", ds.id());
        assert!(emb.all_finite(), "{:?} produced non-finite embeddings", ds.id());
    }
}

#[test]
fn species_indices_stay_inside_embedding_table() {
    // Every synthetic generator must emit species indices < NUM_SPECIES,
    // or the embedding gather panics at train time.
    let sources: Vec<Box<dyn Dataset>> = vec![
        Box::new(SyntheticMaterialsProject::new(50, 11)),
        Box::new(SyntheticCarolina::new(50, 12)),
        Box::new(SyntheticOc20::new(50, 13)),
        Box::new(SyntheticOc22::new(50, 14)),
        Box::new(SyntheticLips::new(20, 15)),
        Box::new(SymmetryDataset::new(64, 16)),
    ];
    for ds in &sources {
        for i in 0..ds.len().min(50) {
            let s = ds.sample(i);
            assert!(
                s.graph.species.iter().all(|&sp| (sp as usize) < elements::NUM_SPECIES),
                "{:?} sample {i} has out-of-vocabulary species",
                ds.id()
            );
        }
    }
}

#[test]
fn transform_pipeline_feeds_collate_feeds_model() {
    // point cloud → transforms → collate → EGNN forward, across a batch
    // that mixes datasets of very different sizes.
    let mp = SyntheticMaterialsProject::new(4, 21);
    let lips = SyntheticLips::new(4, 22);
    let pipeline = Compose::standard(4.5, Some(12));
    let samples = vec![
        pipeline.apply(mp.sample(0)),
        pipeline.apply(lips.sample(0)),
        pipeline.apply(mp.sample(1)),
    ];
    let batch = collate(&samples);
    assert_eq!(batch.input.num_graphs, 3);
    // Edges exist and stay within their graphs.
    assert!(batch.input.num_edges() > 0);
    for (&s, &d) in batch.input.src.iter().zip(batch.input.dst.iter()) {
        assert_eq!(
            batch.input.graph_ids[s as usize],
            batch.input.graph_ids[d as usize]
        );
    }
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    // The `.mckpt` model artifact (used by `train --save`, `serve` and
    // the bench pretraining cache) must reproduce identical model outputs.
    let mp = SyntheticMaterialsProject::new(4, 31);
    let pipeline = Compose::standard(4.5, Some(12));
    let samples: Vec<Sample> = (0..4).map(|i| pipeline.apply(mp.sample(i))).collect();
    let model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        7,
    );
    let before = model.predict(&samples, 0);

    let path = std::env::temp_dir()
        .join(format!("matsciml-cross-crate-{}", std::process::id()))
        .join("model.mckpt");
    save_model(&path, &model, Precision::F32).unwrap();
    let restored = load_infer_model(&path).unwrap().model;
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    assert_eq!(before, restored.predict(&samples, 0));
}

#[test]
fn umap_runs_on_real_encoder_embeddings() {
    let model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::symmetry(16, 1, 32)],
        3,
    );
    let pipeline = Compose::standard(4.5, Some(12));
    let mp = SyntheticMaterialsProject::new(30, 41);
    let lips = SyntheticLips::new(30, 42);
    let mut rows: Vec<f32> = Vec::new();
    let mut labels = Vec::new();
    for (li, ds) in [&mp as &dyn Dataset, &lips as &dyn Dataset].iter().enumerate() {
        let samples: Vec<Sample> = (0..30).map(|i| pipeline.apply(ds.sample(i))).collect();
        let emb = model.embed(&samples);
        rows.extend_from_slice(emb.as_slice());
        labels.extend(std::iter::repeat_n(li, 30));
    }
    let data = Tensor::from_vec(&[60, rows.len() / 60], rows).unwrap();
    let umap = Umap::new(UmapConfig {
        n_neighbors: 8,
        n_epochs: 30,
        seed: 1,
        ..UmapConfig::default()
    });
    let emb2d = umap.fit_transform(&data);
    assert_eq!(emb2d.shape(), &[60, 2]);
    assert!(emb2d.all_finite());
    // LiPS frames are near-identical structures; even an untrained encoder
    // maps them nearly on top of each other, so they must cluster apart
    // from the diverse MP structures.
    let sep = centroid_separation(&emb2d, &labels);
    assert!(sep.is_finite());
}
