//! The overlap-scheduler acceptance test: turning on the overlapped
//! backward↔allreduce step and read-ahead must be a pure scheduling
//! change. A 2-rank, 20-step training run with `overlap_comm` +
//! `readahead_threads: 1` enabled must reproduce the default inline
//! reduction over synchronous loads **bit for bit**: every per-step loss,
//! grad norm, learning rate, every validation metric, and every final
//! parameter tensor.
//!
//! A second test records an overlapped run through a memory sink and
//! checks the observability surface: the `ddp/overlap_frac`,
//! `ddp/exposed_comm_ms`, and `ddp/overlapped_comm_ms` histograms appear
//! in the run-record summary, and `data/readahead_hit` counts the
//! read-ahead pipeline's in-order takes.
//!
//! Two more tests run steps whose ranks touch different parameters — one
//! rank's batch is an edge-free structure, or the ranks' batches feed
//! different task heads — which the overlapped reduction must handle
//! exactly like the inline one.

use matsciml_datasets::{
    Compose, ConcatDataset, DataLoader, Dataset, DatasetId, Sample, Split, SyntheticCarolina,
    SyntheticMaterialsProject, Transform, DATA_READAHEAD_HIT,
};
use matsciml_models::EgnnConfig;
use matsciml_nn::ParamId;
use matsciml_obs::{MemorySink, Obs, RunRecord, RunRecorder};
use matsciml_train::{
    TargetKind, TaskHeadConfig, TaskModel, TrainConfig, TrainLog, Trainer, DDP_EXPOSED_COMM_MS,
    DDP_OVERLAPPED_COMM_MS, DDP_OVERLAP_FRAC,
};

const WORLD: usize = 2;
const PER_RANK: usize = 4;
const STEPS: u64 = 20;

fn run(overlap: bool, obs: &Obs) -> (TrainLog, TaskModel) {
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
    let trainer = Trainer::new(TrainConfig {
        world_size: WORLD,
        per_rank_batch: PER_RANK,
        steps: STEPS,
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        parallel_ranks: true,
        seed: 17,
        overlap_comm: overlap,
        readahead_threads: usize::from(overlap),
        ..Default::default()
    });
    let log = trainer.train_observed(&mut model, &train_dl, Some(&val_dl), obs);
    (log, model)
}

#[test]
fn overlapped_training_is_bit_identical_to_inline_reduction() {
    let (seq_log, seq_model) = run(false, &Obs::disabled());
    let (ov_log, ov_model) = run(true, &Obs::disabled());

    assert_eq!(seq_log.records.len(), ov_log.records.len());
    for (a, b) in seq_log.records.iter().zip(&ov_log.records) {
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

    assert_eq!(seq_model.params.len(), ov_model.params.len());
    for i in 0..seq_model.params.len() {
        assert_eq!(
            seq_model.params.value(ParamId(i)).as_slice(),
            ov_model.params.value(ParamId(i)).as_slice(),
            "final parameter {i} diverged between inline and overlapped reduction"
        );
    }
}

#[test]
fn observed_overlapped_run_reports_overlap_and_readahead() {
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let obs = Obs::recording(RunRecorder::new(Box::new(sink)));
    let (log, _) = run(true, &obs);
    obs.flush();

    let text = buffer.lock().unwrap().join("\n");
    let record = RunRecord::parse(&text).expect("run record must parse");
    record.validate().expect("run record must validate");

    assert_eq!(log.records.len(), STEPS as usize);
    let summary = record.summary().expect("summary present");
    assert_eq!(summary.steps, STEPS);

    // The overlap histograms are observed once per optimizer step.
    for key in [DDP_OVERLAP_FRAC, DDP_EXPOSED_COMM_MS, DDP_OVERLAPPED_COMM_MS] {
        let q = summary
            .phases
            .get(key)
            .unwrap_or_else(|| panic!("summary missing histogram {key}"));
        assert_eq!(q.count, STEPS, "{key} observed once per step");
    }
    // overlap_frac is a ratio in [0, 1].
    let frac = &summary.phases[DDP_OVERLAP_FRAC];
    assert!(frac.max <= 1.0 + 1e-9, "overlap_frac max {} > 1", frac.max);

    // Read-ahead serves the training loop: every take arrives in request
    // order, so each one is a hit.
    let hits = *summary
        .counters
        .get(DATA_READAHEAD_HIT)
        .expect("summary missing data/readahead_hit");
    assert_eq!(hits, STEPS, "every training batch load is a read-ahead hit");
}

/// An edge-free structure and a connected one, after the standard
/// pipeline: at world 2 × 1 each rank holds one of them.
struct EdgeFreeAndConnected([Sample; 2]);

impl Dataset for EdgeFreeAndConnected {
    fn id(&self) -> DatasetId {
        DatasetId::MaterialsProject
    }

    fn len(&self) -> usize {
        2
    }

    fn sample(&self, index: usize) -> Sample {
        self.0[index].clone()
    }
}

/// Train `make_model` for `steps` steps at world 2 × `per_rank` with the
/// reduction inline and overlapped; every step must complete and agree
/// bit for bit, and so must the final parameters.
fn assert_overlap_matches_inline(
    loader: &DataLoader<'_>,
    make_model: impl Fn() -> TaskModel,
    per_rank: usize,
    steps: u64,
) {
    let run = |overlap: bool| {
        let mut model = make_model();
        let trainer = Trainer::new(TrainConfig {
            world_size: 2,
            per_rank_batch: per_rank,
            steps,
            eval_every: 0,
            parallel_ranks: true,
            overlap_comm: overlap,
            seed: 17,
            ..Default::default()
        });
        let log = trainer.train(&mut model, loader, None);
        (log, model)
    };
    let (inline_log, inline) = run(false);
    let (ov_log, ov) = run(true);

    assert_eq!(ov_log.records.len(), steps as usize, "every overlapped step completes");
    for (a, b) in inline_log.records.iter().zip(&ov_log.records) {
        let (la, lb) = (a.train.get("loss").unwrap(), b.train.get("loss").unwrap());
        assert_eq!(la.to_bits(), lb.to_bits(), "step {}", a.step);
        assert_eq!(a.grad_norm.to_bits(), b.grad_norm.to_bits(), "step {}", a.step);
    }
    for i in 0..inline.params.len() {
        assert_eq!(
            inline.params.value(ParamId(i)).as_slice(),
            ov.params.value(ParamId(i)).as_slice(),
            "final parameter {i} diverged"
        );
    }
}

#[test]
fn overlapped_step_with_an_edge_free_rank_matches_inline_reduction() {
    let pipeline = Compose::standard(4.5, Some(12));
    let source = SyntheticMaterialsProject::new(10_000, 17);
    let find = |edge_free: bool| {
        (0..source.len())
            .map(|i| pipeline.apply(source.sample(i)))
            .find(|s| (s.graph.num_edges() == 0) == edge_free)
            .expect("the generator makes both kinds of structure")
    };
    let data = EdgeFreeAndConnected([find(true), find(false)]);
    let loader = DataLoader::new(&data, None, Split::Train, 0.0, 2, 17);
    let model = || {
        TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            17,
        )
    };
    assert_overlap_matches_inline(&loader, model, 1, 2);
}

#[test]
fn overlapped_multitask_steps_match_inline_reduction() {
    // Three heads over Materials Project + Carolina: at world 2 × 4 the
    // ranks' batches route to different heads, so their tapes touch
    // different parameters.
    let merged = ConcatDataset::new(vec![
        Box::new(SyntheticMaterialsProject::new(96, 5)),
        Box::new(SyntheticCarolina::new(48, 6)),
    ]);
    let pipeline = Compose::standard(4.5, Some(12));
    let loader = DataLoader::new(&merged, Some(&pipeline), Split::Train, 0.2, 8, 5);
    let heads = [
        TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 24, 1),
        TaskHeadConfig::binary(DatasetId::MaterialsProject, TargetKind::Stability, 24, 1),
        TaskHeadConfig::regression(DatasetId::Carolina, TargetKind::FormationEnergy, 24, 1),
    ];
    let model = || TaskModel::egnn(EgnnConfig::small(12), &heads, 6);
    assert_overlap_matches_inline(&loader, model, 4, 12);
}
