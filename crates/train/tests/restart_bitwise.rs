//! The checkpoint/resume acceptance test: a run interrupted at step 10
//! and resumed from its `matsciml-ckpt/v1` file must finish **bit for
//! bit** where the uninterrupted 20-step run finishes — every per-step
//! loss, grad norm, learning rate, every validation metric, and every
//! final parameter tensor — with the full engine stack on (fused linear,
//! fused edges, buffer pooling, SIMD lanes, overlapped allreduce,
//! read-ahead with worker collation).
//!
//! A second test checks the observability surface: `ckpt/saves`,
//! `ckpt/bytes_written`, and `ckpt/resume_step` move as documented.

use matsciml_datasets::{Compose, DataLoader, DatasetId, Split, SyntheticMaterialsProject};
use matsciml_models::EgnnConfig;
use matsciml_nn::{set_fused_edges, set_fused_linear};
use matsciml_obs::Obs;
use matsciml_tensor::{set_pool_enabled, set_simd_enabled};
use matsciml_train::{
    TargetKind, TaskHeadConfig, TaskModel, TrainCheckpoint, TrainConfig, TrainLog, Trainer,
    CKPT_BYTES_WRITTEN, CKPT_RESUME_STEP, CKPT_SAVES,
};

const PER_RANK: usize = 4;
const WORLD: usize = 2;
const FULL_STEPS: u64 = 20;
const CKPT_STEP: u64 = 10;

fn cfg(steps: u64) -> TrainConfig {
    TrainConfig {
        world_size: WORLD,
        per_rank_batch: PER_RANK,
        steps,
        base_lr: 1e-3,
        // The trainer forces an eval on a run's last step; 3 divides the
        // interrupted run's final record step (9), so that forced eval
        // coincides with a scheduled one and both schedules agree.
        eval_every: 3,
        eval_batches: 2,
        parallel_ranks: true,
        seed: 17,
        overlap_comm: true,
        readahead_threads: 1,
        ..Default::default()
    }
}

fn model() -> TaskModel {
    TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        17,
    )
}

fn assert_records_match(a: &TrainLog, b: &TrainLog, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: step count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.step, rb.step, "{what}: step numbering diverged");
        assert_eq!(
            ra.train.get("loss"),
            rb.train.get("loss"),
            "{what}: step {}: training loss diverged",
            ra.step
        );
        assert_eq!(ra.grad_norm, rb.grad_norm, "{what}: step {}: grad norm", ra.step);
        assert_eq!(ra.lr, rb.lr, "{what}: step {}: lr", ra.step);
        match (&ra.val, &rb.val) {
            (Some(va), Some(vb)) => {
                assert_eq!(va.0, vb.0, "{what}: step {}: val metrics diverged", ra.step)
            }
            (None, None) => {}
            _ => panic!("{what}: step {}: eval schedule diverged", ra.step),
        }
    }
}

fn assert_params_match(a: &TaskModel, b: &TaskModel, what: &str) {
    assert_eq!(a.params.len(), b.params.len(), "{what}: parameter count");
    for i in 0..a.params.len() {
        let id = matsciml_nn::ParamId(i);
        let pa: Vec<u32> = a.params.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = b.params.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(pa, pb, "{what}: final parameter {i} ({}) diverged", a.params.name(id));
    }
}

#[test]
fn resumed_run_is_bit_identical_to_uninterrupted_run() {
    // The whole engine stack on: resume must compose with every toggle.
    set_fused_linear(true);
    set_fused_edges(true);
    set_pool_enabled(true);
    set_simd_enabled(true);

    let ds = SyntheticMaterialsProject::new(160, 17);
    let pipeline = Compose::standard(4.5, Some(12));
    let batch = WORLD * PER_RANK;
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, batch, 17);
    let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, batch, 17);

    // Run A: 20 steps straight through.
    let mut full_model = model();
    let full_log = Trainer::new(cfg(FULL_STEPS)).train(&mut full_model, &train_dl, Some(&val_dl));

    // Run B: 10 steps with a checkpoint at step 10, then a fresh process
    // (simulated: everything rebuilt from the file) resumes to step 20.
    let dir = std::env::temp_dir().join(format!("matsciml-restart-{}", std::process::id()));
    let mut half_model = model();
    let half_cfg = TrainConfig {
        checkpoint_every: CKPT_STEP,
        checkpoint_dir: Some(dir.to_str().unwrap().to_string()),
        ..cfg(CKPT_STEP)
    };
    let half_log = Trainer::new(half_cfg).train(&mut half_model, &train_dl, Some(&val_dl));
    assert_eq!(half_log.records.len() as u64, CKPT_STEP);

    let path = dir.join(format!("step{CKPT_STEP}.mckpt"));
    let ckpt = TrainCheckpoint::load(&path).expect("checkpoint must load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(ckpt.progress.step, CKPT_STEP);

    // Resume with the checkpoint's own config, budget extended to 20.
    let resume_cfg = TrainConfig { steps: FULL_STEPS, ..ckpt.config.clone() };
    let (resumed_model, tail_log) =
        Trainer::new(resume_cfg).resume(ckpt, &train_dl, Some(&val_dl));

    // Interrupted halves concatenated == the uninterrupted trajectory.
    let mut stitched = tail_log.clone();
    stitched.records = half_log.records.iter().chain(&tail_log.records).cloned().collect();
    assert_records_match(&full_log, &stitched, "interrupted-vs-straight");
    assert_params_match(&full_model, &resumed_model, "interrupted-vs-straight");

    // The mid-run model diverges from both (sanity: the test can fail).
    assert_ne!(
        half_model.params.value(matsciml_nn::ParamId(0)).as_slice(),
        full_model.params.value(matsciml_nn::ParamId(0)).as_slice(),
        "step-10 parameters should differ from step-20 parameters"
    );
}

#[test]
fn checkpoint_counters_move_across_save_and_resume() {
    let ds = SyntheticMaterialsProject::new(160, 17);
    let pipeline = Compose::standard(4.5, Some(12));
    let batch = WORLD * PER_RANK;
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, batch, 17);

    let dir = std::env::temp_dir().join(format!("matsciml-restart-obs-{}", std::process::id()));
    let save_obs = Obs::null();
    let mut m = model();
    let save_cfg = TrainConfig {
        checkpoint_every: 5,
        checkpoint_dir: Some(dir.to_str().unwrap().to_string()),
        ..cfg(10)
    };
    Trainer::new(save_cfg).train_observed(&mut m, &train_dl, None, &save_obs);
    // Steps 5 and 10 both hit the `checkpoint_every` boundary.
    assert_eq!(save_obs.counter(CKPT_SAVES), 2);
    assert!(save_obs.counter(CKPT_BYTES_WRITTEN) > 0);

    let ckpt = TrainCheckpoint::load(dir.join("step10.mckpt")).expect("checkpoint must load");
    std::fs::remove_dir_all(&dir).ok();
    let resume_obs = Obs::null();
    let resume_cfg = TrainConfig { steps: 12, checkpoint_every: 0, checkpoint_dir: None, ..ckpt.config.clone() };
    Trainer::new(resume_cfg).resume_observed(ckpt, &train_dl, None, &resume_obs);
    assert_eq!(resume_obs.counter(CKPT_RESUME_STEP), 10);
}
