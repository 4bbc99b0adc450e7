//! Reference digests of pinned training runs, committed under
//! `tests/golden/`. Every scheduling knob of a training step — overlapped
//! or inline reduction, rank threads on or off, read-ahead with worker
//! collation or a synchronous load — must reproduce each file bit for
//! bit: every step's loss, gradient norm and validation metrics, and
//! every bit of the final parameters.
//!
//! | file | run |
//! |---|---|
//! | `ddp_2rank_20step.txt` | world 2 × 4, 20 steps |
//! | `resume_10_20.txt` | the same world, checkpointed at step 10 and resumed to 20 |
//! | `pipeline_3epoch.txt` | world 2 × 4 over 40 LiPS structures: 12 steps, 3 epochs |
//! | `ddp_20rank_clip.txt` | world 20 × 1, clipped norm: 16 slots, slots 0–3 fold two ranks |
//!
//! The files pin behaviour across refactors of the step body: each was
//! written by the code that preceded the refactor it guards, so any
//! later change that moves a bit fails here.
//! To rewrite them after an intentional numerical change, run
//! `cargo test -p matsciml-train --test golden_digests -- --ignored`.

use std::fmt::Write as _;
use std::path::PathBuf;

use matsciml_datasets::{
    Compose, DataLoader, Dataset, DatasetId, ShuffleMode, Split, SyntheticLips,
    SyntheticMaterialsProject,
};
use matsciml_models::EgnnConfig;
use matsciml_nn::ParamId;
use matsciml_train::{
    TargetKind, TaskHeadConfig, TaskModel, TrainCheckpoint, TrainConfig, TrainLog, Trainer,
};

/// A pinned reference run.
#[derive(Clone, Copy, Debug)]
enum Run {
    Ddp2Rank,
    Resume,
    Pipeline,
    World20,
}

impl Run {
    fn golden_path(self) -> PathBuf {
        let file = match self {
            Run::Ddp2Rank => "ddp_2rank_20step.txt",
            Run::Resume => "resume_10_20.txt",
            Run::Pipeline => "pipeline_3epoch.txt",
            Run::World20 => "ddp_20rank_clip.txt",
        };
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
    }
}

/// Where the step's work runs; none of it may move a bit.
#[derive(Clone, Copy, Debug)]
struct Schedule {
    overlap: bool,
    parallel: bool,
    readahead_threads: usize,
}

fn train(run: Run, s: Schedule) -> (TrainLog, TaskModel) {
    let lips = matches!(run, Run::Pipeline);
    let clipped = matches!(run, Run::World20);
    let (world, per_rank) = if clipped { (20, 1) } else { (2, 4) };
    let seed = if lips { 29 } else { 17 };
    let ds: Box<dyn Dataset> = if lips {
        Box::new(SyntheticLips::new(40, seed))
    } else {
        Box::new(SyntheticMaterialsProject::new(160, seed))
    };
    let pipeline = Compose::standard(4.5, Some(12));
    let batch = world * per_rank;
    let shuffle = if lips { ShuffleMode::Blocked(20) } else { ShuffleMode::Global };
    let train_dl = DataLoader::new(&*ds, Some(&pipeline), Split::Train, 0.2, batch, seed)
        .with_shuffle_mode(shuffle);
    let val_dl = DataLoader::new(&*ds, Some(&pipeline), Split::Val, 0.2, batch, seed);
    let head = if lips {
        TaskHeadConfig::regression(DatasetId::Lips, TargetKind::Energy, 16, 1)
    } else {
        TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)
    };
    let model = || TaskModel::egnn(EgnnConfig::small(8), &[head], seed);
    let cfg = TrainConfig {
        world_size: world,
        per_rank_batch: per_rank,
        // 40 LiPS structures → 32 train → 4 batches per epoch.
        steps: if lips { 12 } else { 20 },
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        parallel_ranks: s.parallel,
        seed,
        overlap_comm: s.overlap,
        readahead_threads: s.readahead_threads,
        readahead_depth: if lips { 2 } else { 0 },
        clip_norm: clipped.then_some(200.0),
        skip_nonfinite_updates: clipped,
        ..Default::default()
    };
    if matches!(run, Run::Resume) {
        return resume_at_10(cfg, &train_dl, &val_dl, model(), s);
    }
    let mut model = model();
    let log = Trainer::new(cfg).train(&mut model, &train_dl, Some(&val_dl));
    (log, model)
}

/// Train to step 10 with a checkpoint there, rebuild everything from the
/// file and resume to `cfg.steps`; returns the two halves' records
/// stitched together and the resumed model.
fn resume_at_10(
    cfg: TrainConfig,
    train_dl: &DataLoader<'_>,
    val_dl: &DataLoader<'_>,
    mut model: TaskModel,
    s: Schedule,
) -> (TrainLog, TaskModel) {
    let (pid, o, p, r) = (std::process::id(), s.overlap as u8, s.parallel as u8, s.readahead_threads);
    let dir = std::env::temp_dir().join(format!("matsciml-golden-resume-{pid}-{o}{p}{r}"));
    // The trainer forces an eval on a run's last step; 3 divides the
    // interrupted run's last step (9), so both halves evaluate on the
    // straight run's schedule.
    let cfg = TrainConfig { eval_every: 3, ..cfg };
    let half_cfg = TrainConfig {
        steps: 10,
        checkpoint_every: 10,
        checkpoint_dir: Some(dir.to_str().unwrap().to_string()),
        ..cfg.clone()
    };
    let half = Trainer::new(half_cfg).train(&mut model, train_dl, Some(val_dl));
    let ckpt = TrainCheckpoint::load(dir.join("step10.mckpt")).expect("checkpoint must load");
    std::fs::remove_dir_all(&dir).ok();
    let resume_cfg = TrainConfig {
        steps: cfg.steps,
        checkpoint_every: 0,
        checkpoint_dir: None,
        ..ckpt.config.clone()
    };
    let (model, mut tail) = Trainer::new(resume_cfg).resume(ckpt, train_dl, Some(val_dl));
    tail.records = half.records.into_iter().chain(tail.records).collect();
    (tail, model)
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f32(&mut self, v: f32) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The run as text: one line per step with the bit patterns of its loss,
/// gradient norm and (when it evaluated) validation metrics in key order,
/// then FNV-1a-64 digests over those per-step bits and over every final
/// parameter bit.
fn render(log: &TrainLog, model: &TaskModel) -> String {
    let mut out = String::new();
    let mut trace = Fnv::new();
    for r in &log.records {
        let loss = r.train.get("loss").expect("every step reports a loss");
        let (step, loss_bits, norm_bits) = (r.step, loss.to_bits(), r.grad_norm.to_bits());
        write!(out, "step {step} loss {loss_bits:08x} grad_norm {norm_bits:08x}").unwrap();
        trace.f32(loss);
        trace.f32(r.grad_norm);
        if let Some(val) = &r.val {
            for (key, &v) in &val.0 {
                write!(out, " {key}={:08x}", v.to_bits()).unwrap();
                trace.f32(v);
            }
        }
        out.push('\n');
    }
    let mut params = Fnv::new();
    for i in 0..model.params.len() {
        for &v in model.params.value(ParamId(i)).as_slice() {
            params.f32(v);
        }
    }
    writeln!(out, "trace_fnv {:016x}", trace.0).unwrap();
    writeln!(out, "params_fnv {:016x}", params.0).unwrap();
    out
}

fn check(run: Run, schedules: &[Schedule]) {
    let golden = std::fs::read_to_string(run.golden_path()).expect("golden file is committed");
    for &s in schedules {
        let (log, model) = train(run, s);
        let got = render(&log, &model);
        for (line, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(g, w, "{run:?} {s:?}: line {} differs from the golden run", line + 1);
        }
        assert_eq!(got.lines().count(), golden.lines().count(), "{run:?} {s:?}: line count");
    }
}

/// The two ends of the schedule matrix: everything inline and sequential,
/// and everything overlapped, parallel and read ahead.
const ENDS: [Schedule; 2] = [
    Schedule { overlap: false, parallel: false, readahead_threads: 0 },
    Schedule { overlap: true, parallel: true, readahead_threads: 1 },
];

#[test]
fn every_step_schedule_reproduces_the_golden_run() {
    let every: Vec<Schedule> = (0..8)
        .map(|i| Schedule { overlap: i & 4 != 0, parallel: i & 2 != 0, readahead_threads: i & 1 })
        .collect();
    check(Run::Ddp2Rank, &every);
}

#[test]
fn resumed_run_reproduces_its_golden_digest() {
    check(Run::Resume, &ENDS);
}

#[test]
fn three_epoch_pipeline_run_reproduces_its_golden_digest() {
    check(Run::Pipeline, &ENDS);
}

#[test]
fn world_20_clipped_run_reproduces_its_golden_digest() {
    check(Run::World20, &ENDS);
}

/// Rewrites every golden file from the default schedule.
#[test]
#[ignore = "rewrites tests/golden; run only after an intentional numerical change"]
fn write_golden() {
    for run in [Run::Ddp2Rank, Run::Resume, Run::Pipeline, Run::World20] {
        let default = Schedule { overlap: false, parallel: true, readahead_threads: 0 };
        let (log, model) = train(run, default);
        let path = run.golden_path();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, render(&log, &model)).unwrap();
    }
}
