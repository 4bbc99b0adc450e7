//! End-to-end training pipelines across the whole stack. Budgets are kept
//! tiny so the suite stays fast in debug builds; the bench binaries cover
//! full-scale behaviour.

use matsciml::prelude::*;

fn small_trainer(steps: u64, base_lr: f32) -> Trainer {
    Trainer::new(TrainConfig {
        world_size: 2,
        per_rank_batch: 4,
        steps,
        base_lr,
        scale_lr_by_world: true,
        warmup_epochs: 1,
        gamma: 0.9,
        weight_decay: 0.0,
        eps: 1e-8,
        clip_norm: Some(10.0),
        eval_every: steps.max(1) - 1,
        eval_batches: 2,
        parallel_ranks: false,
        seed: 1,
        early_stop: None,
        skip_nonfinite_updates: false,
        overlap_comm: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        readahead_threads: 0,
        readahead_depth: 0,
    })
}

#[test]
fn single_task_regression_learns() {
    let ds = SyntheticMaterialsProject::new(160, 1);
    let pipeline = Compose::standard(4.5, Some(12));
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, 8, 1);
    let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, 16, 1);
    let mut model = TaskModel::egnn(
        EgnnConfig::small(12),
        &[TaskHeadConfig {
            dropout: 0.0,
            ..TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 24, 1)
        }],
        2,
    );
    let log = small_trainer(30, 2e-3).train(&mut model, &train_dl, Some(&val_dl));
    let early: f32 = log.records[..5].iter().map(|r| r.train.get("loss").unwrap()).sum::<f32>() / 5.0;
    let late: f32 = log.records[25..].iter().map(|r| r.train.get("loss").unwrap()).sum::<f32>() / 5.0;
    assert!(late < early, "training loss should fall: {early} -> {late}");
    assert!(model.params.all_finite(), "parameters must stay finite");
}

#[test]
fn symmetry_pretraining_beats_chance_quickly() {
    let ds = SymmetryDataset::new(512, 2);
    let pipeline = Compose::standard(1.2, Some(16));
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.1, 16, 2);
    let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.1, 32, 2);
    let mut model = TaskModel::egnn(
        EgnnConfig::small(12),
        &[TaskHeadConfig::symmetry(24, 1, ds.num_classes())],
        3,
    );
    let trainer = Trainer::new(TrainConfig {
        world_size: 4,
        per_rank_batch: 4,
        steps: 40,
        base_lr: 1e-3,
        warmup_epochs: 1,
        eval_every: 39,
        eval_batches: 2,
        parallel_ranks: false,
        clip_norm: Some(10.0),
        weight_decay: 0.0,
        ..Default::default()
    });
    let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
    // 40 steps is far too short to beat chance on held-out data (the bench
    // harness shows that takes ~500 steps), but the *training* CE must
    // already be moving down from its exact chance-level start of ln 32.
    let first: f32 = log.records[..5]
        .iter()
        .map(|r| r.train.get("symmetry/sym/ce").unwrap())
        .sum::<f32>()
        / 5.0;
    let last: f32 = log.records[35..]
        .iter()
        .map(|r| r.train.get("symmetry/sym/ce").unwrap())
        .sum::<f32>()
        / 5.0;
    assert!(last < first, "training CE should fall: {first} -> {last}");
    let val_ce = log.final_val().and_then(|v| v.get("symmetry/sym/ce")).unwrap();
    assert!(val_ce.is_finite());
}

#[test]
fn encoder_transfer_changes_downstream_trajectory() {
    // Fine-tuning from a (briefly) pretrained encoder must give a
    // different — and here, not worse at start — trajectory than scratch.
    let sym = SymmetryDataset::new(256, 3);
    let sym_pipe = Compose::standard(1.2, Some(16));
    let sym_train = DataLoader::new(&sym, Some(&sym_pipe), Split::Train, 0.1, 8, 3);
    let mut pre = TaskModel::egnn(
        EgnnConfig::small(12),
        &[TaskHeadConfig::symmetry(24, 1, sym.num_classes())],
        4,
    );
    small_trainer(15, 1e-3).train(&mut pre, &sym_train, None);

    let ds = SyntheticMaterialsProject::new(96, 4);
    let pipeline = Compose::standard(4.5, Some(12));
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, 8, 4);
    let heads = [TaskHeadConfig::regression(
        DatasetId::MaterialsProject,
        TargetKind::BandGap,
        24,
        1,
    )];

    let run = |transfer: bool| {
        let mut model = TaskModel::egnn(EgnnConfig::small(12), &heads, 5);
        if transfer {
            model.load_pretrained_encoder(&pre);
        }
        let log = small_trainer(6, 1e-3).train(&mut model, &train_dl, None);
        log.records
            .iter()
            .map(|r| r.train.get("loss").unwrap())
            .collect::<Vec<f32>>()
    };
    let with = run(true);
    let without = run(false);
    assert_ne!(with, without, "transfer must change the loss trajectory");
}

#[test]
fn multitask_multidataset_end_to_end() {
    let merged = ConcatDataset::new(vec![
        Box::new(SyntheticMaterialsProject::new(96, 5)),
        Box::new(SyntheticCarolina::new(48, 6)),
    ]);
    let pipeline = Compose::standard(4.5, Some(12));
    let train_dl = DataLoader::new(&merged, Some(&pipeline), Split::Train, 0.2, 8, 5);
    let val_dl = DataLoader::new(&merged, Some(&pipeline), Split::Val, 0.2, 16, 5);
    let heads = [
        TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 24, 1),
        TaskHeadConfig::binary(DatasetId::MaterialsProject, TargetKind::Stability, 24, 1),
        TaskHeadConfig::regression(DatasetId::Carolina, TargetKind::FormationEnergy, 24, 1),
    ];
    let mut model = TaskModel::egnn(EgnnConfig::small(12), &heads, 6);
    let log = small_trainer(12, 1e-3).train(&mut model, &train_dl, Some(&val_dl));
    let v = log.final_val().expect("validation ran");
    // All three heads must report on the mixed validation stream.
    assert!(v.get("materials-project/band_gap/mae").is_some());
    assert!(v.get("materials-project/stability/bce").is_some());
    assert!(v.get("carolina/e_form/mae").is_some());
}

#[test]
fn runs_are_bitwise_reproducible_sequentially() {
    let run = || {
        let ds = SyntheticMaterialsProject::new(64, 7);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, 8, 7);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            8,
        );
        let log = small_trainer(8, 1e-3).train(&mut model, &train_dl, None);
        (
            model.params.value_norm(),
            log.records.iter().map(|r| r.train.get("loss").unwrap()).collect::<Vec<_>>(),
        )
    };
    let (n1, l1) = run();
    let (n2, l2) = run();
    assert_eq!(n1, n2, "parameter state must be reproducible");
    assert_eq!(l1, l2, "loss trajectory must be reproducible");
}

#[test]
fn ddp_world_size_changes_only_effective_batch_not_api() {
    // The same loader stream trains under different world sizes as long as
    // the loader batch matches N*B.
    for (world, per_rank) in [(1usize, 8usize), (4, 2), (8, 1)] {
        let ds = SyntheticMaterialsProject::new(64, 9);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl =
            DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, world * per_rank, 9);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            10,
        );
        let trainer = Trainer::new(TrainConfig {
            world_size: world,
            per_rank_batch: per_rank,
            steps: 4,
            parallel_ranks: false,
            eval_every: 0,
            ..Default::default()
        });
        let log = trainer.train(&mut model, &train_dl, None);
        assert_eq!(log.records.len(), 4, "world={world}");
    }
}
