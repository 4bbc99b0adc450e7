//! The SIMD lane-tier acceptance test: the vector kernels are a pure
//! instruction-selection change. A 20-step training run with every
//! engine toggle on — fused linear, fused edge kernels, buffer pooling,
//! overlapped allreduce, read-ahead, SIMD lanes — must reproduce the
//! scalar-fallback run **bit for bit**: every per-step loss, grad norm,
//! learning rate, every validation metric, and every final parameter
//! tensor, across world sizes {2, 4} and with rank parallelism on and
//! off.
//!
//! A second test records a run through a memory sink and checks the new
//! observability surface: the `simd/lane_ops` and `simd/fallback_hits`
//! counters appear in the run-record summary and move.

use matsciml_datasets::{Compose, DataLoader, DatasetId, Split, SyntheticMaterialsProject};
use matsciml_models::EgnnConfig;
use matsciml_nn::{set_fused_edges, set_fused_linear};
use matsciml_obs::{MemorySink, Obs, RunRecord, RunRecorder};
use matsciml_tensor::{set_pool_enabled, set_simd_enabled, simd_enabled};
use matsciml_train::{
    TargetKind, TaskHeadConfig, TaskModel, TrainConfig, TrainLog, Trainer, SIMD_FALLBACK_HITS,
    SIMD_LANE_OPS,
};

const PER_RANK: usize = 4;
const STEPS: u64 = 20;

fn cfg(world: usize, parallel: bool, steps: u64) -> TrainConfig {
    TrainConfig {
        world_size: world,
        per_rank_batch: PER_RANK,
        steps,
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        parallel_ranks: parallel,
        seed: 17,
        overlap_comm: true,
        readahead_threads: 1,
        ..Default::default()
    }
}

fn run(world: usize, parallel: bool, obs: Option<&Obs>) -> (TrainLog, TaskModel) {
    run_at(world, parallel, 8, STEPS, obs)
}

fn run_at(
    world: usize,
    parallel: bool,
    hidden: usize,
    steps: u64,
    obs: Option<&Obs>,
) -> (TrainLog, TaskModel) {
    let ds = SyntheticMaterialsProject::new(160, 17);
    let pipeline = Compose::standard(4.5, Some(12));
    let batch = world * PER_RANK;
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, batch, 17);
    let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, batch, 17);
    let mut model = TaskModel::egnn(
        EgnnConfig::small(hidden),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        17,
    );
    let trainer = Trainer::new(cfg(world, parallel, steps));
    let log = match obs {
        Some(obs) => trainer.train_observed(&mut model, &train_dl, Some(&val_dl), obs),
        None => trainer.train(&mut model, &train_dl, Some(&val_dl)),
    };
    (log, model)
}

fn assert_trajectories_match(a: &TrainLog, b: &TrainLog, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: step count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.train.get("loss"),
            rb.train.get("loss"),
            "{what}: step {}: training loss diverged",
            ra.step
        );
        assert_eq!(
            ra.grad_norm, rb.grad_norm,
            "{what}: step {}: grad norm diverged",
            ra.step
        );
        assert_eq!(ra.lr, rb.lr, "{what}: step {}", ra.step);
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
    assert_eq!(a.params.len(), b.params.len());
    for i in 0..a.params.len() {
        assert_eq!(
            a.params.value(matsciml_nn::ParamId(i)).as_slice(),
            b.params.value(matsciml_nn::ParamId(i)).as_slice(),
            "{what}: final parameter {i} diverged between scalar and SIMD runs"
        );
    }
}

#[test]
fn simd_training_is_bit_identical_to_scalar_fallback() {
    let was_on = simd_enabled();
    // Every other engine toggle pinned on: the lane tier must compose
    // with the full fused + pooled + overlapped + read-ahead pipeline.
    set_fused_linear(true);
    set_fused_edges(true);
    set_pool_enabled(true);

    for world in [2usize, 4] {
        for parallel in [false, true] {
            set_simd_enabled(false);
            let (scalar_log, scalar_model) = run(world, parallel, None);
            set_simd_enabled(true);
            let (simd_log, simd_model) = run(world, parallel, None);

            let what = format!("world {world}, parallel {parallel}");
            assert_trajectories_match(&scalar_log, &simd_log, &what);
            assert_params_match(&scalar_model, &simd_model, &what);
        }
    }
    set_simd_enabled(was_on);
}

/// At hidden 8 no GEMM is wide enough for the 32-column forward / `tn`
/// strips; hidden 64 puts every Linear on them (and its `nt` products
/// on the 8-column block) on AVX-512 hosts, so the widest tier is also
/// held to the scalar trajectory.
#[test]
fn simd_training_is_bit_identical_at_hidden_64() {
    let was_on = simd_enabled();
    set_fused_linear(true);
    set_fused_edges(true);
    set_pool_enabled(true);

    set_simd_enabled(false);
    let (scalar_log, scalar_model) = run_at(2, true, 64, 4, None);
    set_simd_enabled(true);
    let what = format!("hidden 64, lane tier {}", matsciml_tensor::simd_isa());
    let (simd_log, simd_model) = run_at(2, true, 64, 4, None);
    set_simd_enabled(was_on);

    assert_eq!(simd_log.records.len(), 4);
    assert_trajectories_match(&scalar_log, &simd_log, &what);
    assert_params_match(&scalar_model, &simd_model, &what);
}

#[test]
fn observed_run_reports_simd_counters() {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let obs = Obs::recording(RunRecorder::new(Box::new(sink)));
    let (log, _) = run(2, true, Some(&obs));
    obs.flush();

    let text = buffer.lock().unwrap().join("\n");
    let record = RunRecord::parse(&text).expect("run record must parse");
    record.validate().expect("run record must validate");

    assert_eq!(log.records.len(), STEPS as usize);
    let summary = record.summary().expect("summary present");
    assert_eq!(summary.steps, STEPS);

    let lane_ops = *summary
        .counters
        .get(SIMD_LANE_OPS)
        .expect("summary missing simd/lane_ops");
    let fallbacks = *summary
        .counters
        .get(SIMD_FALLBACK_HITS)
        .expect("summary missing simd/fallback_hits");
    // Every tensor-kernel entry lands on exactly one of the two counters,
    // whichever mode the process is in — a 20-step run moves them.
    assert!(
        lane_ops + fallbacks > 0,
        "no simd counter moved over {STEPS} steps"
    );
}
