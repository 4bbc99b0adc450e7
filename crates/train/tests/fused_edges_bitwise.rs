//! The fused edge-pipeline acceptance test: lowering message passing
//! through the fused gather/scatter kernels must be a pure tape-shape
//! change. A 2-rank, 20-step training run with `set_fused_edges(true)` —
//! stacked on top of the pooled tapes, the overlapped backward↔allreduce
//! scheduler, and read-ahead with worker collation — must reproduce the unfused
//! lowering **bit for bit**: every per-step loss, grad norm, learning
//! rate, every validation metric, and every final parameter tensor.
//!
//! A second test records both lowerings through a memory sink and checks
//! the new observability surface: `edge/fused_calls` and
//! `edge/bytes_saved` count only under the fused lowering, and the
//! `tape/nodes` total drops measurably when fusion is on.
//!
//! The fused-edges switch is process-wide, so both tests hold a shared
//! mutex and restore the default (on) before releasing.

use std::sync::Mutex;

use matsciml_datasets::{Compose, DataLoader, DatasetId, Split, SyntheticMaterialsProject};
use matsciml_models::EgnnConfig;
use matsciml_nn::{set_fused_edges, ParamId};
use matsciml_obs::{MemorySink, Obs, RunRecord, RunRecorder};
use matsciml_train::{
    TargetKind, TaskHeadConfig, TaskModel, TrainConfig, TrainLog, Trainer, EDGE_BYTES_SAVED,
    EDGE_FUSED_CALLS,
};

static TOGGLE: Mutex<()> = Mutex::new(());

const WORLD: usize = 2;
const PER_RANK: usize = 4;
const STEPS: u64 = 20;

fn cfg() -> TrainConfig {
    TrainConfig {
        world_size: WORLD,
        per_rank_batch: PER_RANK,
        steps: STEPS,
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        parallel_ranks: true,
        seed: 17,
        overlap_comm: true,
        readahead_threads: 1,
        ..Default::default()
    }
}

fn run(fused: bool, obs: Option<&Obs>) -> (TrainLog, TaskModel) {
    set_fused_edges(fused);
    let ds = SyntheticMaterialsProject::new(160, 17);
    let pipeline = Compose::standard(4.5, Some(12));
    let batch = WORLD * PER_RANK;
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, batch, 17);
    let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, batch, 17);
    let mut model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        17,
    );
    let trainer = Trainer::new(cfg());
    let log = match obs {
        Some(obs) => trainer.train_observed(&mut model, &train_dl, Some(&val_dl), obs),
        None => trainer.train(&mut model, &train_dl, Some(&val_dl)),
    };
    (log, model)
}

#[test]
fn fused_training_is_bit_identical_to_generic_lowering() {
    let _guard = TOGGLE.lock().unwrap();
    let (base_log, base_model) = run(false, None);
    let (fused_log, fused_model) = run(true, None);
    set_fused_edges(true);

    assert_eq!(base_log.records.len(), fused_log.records.len());
    for (a, b) in base_log.records.iter().zip(&fused_log.records) {
        assert_eq!(
            a.train.get("loss"),
            b.train.get("loss"),
            "step {}: training loss diverged",
            a.step
        );
        assert_eq!(a.grad_norm, b.grad_norm, "step {}: grad norm diverged", a.step);
        assert_eq!(a.lr, b.lr, "step {}", a.step);
        match (&a.val, &b.val) {
            (Some(va), Some(vb)) => assert_eq!(va.0, vb.0, "step {}: val metrics diverged", a.step),
            (None, None) => {}
            _ => panic!("step {}: eval schedule diverged", a.step),
        }
    }

    assert_eq!(base_model.params.len(), fused_model.params.len());
    for i in 0..base_model.params.len() {
        assert_eq!(
            base_model.params.value(ParamId(i)).as_slice(),
            fused_model.params.value(ParamId(i)).as_slice(),
            "final parameter {i} diverged between generic and fused lowerings"
        );
    }
}

/// Run one observed training and return (validated record, train log).
fn observed(fused: bool) -> RunRecord {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let obs = Obs::recording(RunRecorder::new(Box::new(sink)));
    let (log, _) = run(fused, Some(&obs));
    obs.flush();
    assert_eq!(log.records.len(), STEPS as usize);
    let text = buffer.lock().unwrap().join("\n");
    let record = RunRecord::parse(&text).expect("run record must parse");
    record.validate().expect("run record must validate");
    record
}

#[test]
fn fused_runs_count_edge_traffic_and_shrink_the_tape() {
    let _guard = TOGGLE.lock().unwrap();
    let base = observed(false);
    let fused = observed(true);
    set_fused_edges(true);

    let counter = |r: &RunRecord, key: &str| -> u64 {
        r.summary()
            .expect("summary present")
            .counters
            .get(key)
            .copied()
            .unwrap_or(0)
    };

    // Edge counters fire only under the fused lowering.
    assert_eq!(counter(&base, EDGE_FUSED_CALLS), 0);
    assert_eq!(counter(&base, EDGE_BYTES_SAVED), 0);
    assert!(counter(&fused, EDGE_FUSED_CALLS) > 0, "fused run must count kernel calls");
    assert!(counter(&fused, EDGE_BYTES_SAVED) > 0, "fused run must count avoided bytes");

    // The fused lowering records strictly fewer tape nodes per step.
    let base_nodes = counter(&base, "tape/nodes");
    let fused_nodes = counter(&fused, "tape/nodes");
    assert!(
        fused_nodes < base_nodes,
        "fused tape volume {fused_nodes} must drop below the generic {base_nodes}"
    );
}
