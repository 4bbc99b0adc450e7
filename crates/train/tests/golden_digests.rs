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
//! The 2-rank run is also trained while an f16 inference server answers
//! requests on another thread: reduced precision belongs to the served
//! model, so it must not move a bit of training in the same process.
//!
//! The files pin behaviour across refactors of the step body: each was
//! written by the code that preceded the refactor it guards, so any
//! later change that moves a bit fails here.
//! To rewrite them after an intentional numerical change, run
//! `cargo test -p matsciml-train --test golden_digests -- --ignored`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use matsciml_datasets::{
    Compose, DataLoader, Dataset, DatasetId, ShuffleMode, Split, SyntheticLips,
    SyntheticMaterialsProject,
};
use matsciml_models::EgnnConfig;
use matsciml_nn::ParamId;
use matsciml_obs::Obs;
use matsciml_tensor::Precision;
use matsciml_train::{
    InferenceServer, ServeConfig, ServeError, TargetKind, TaskHeadConfig, TaskModel,
    TrainCheckpoint, TrainConfig, TrainLog, Trainer, SIMD_HALF_OPS,
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

/// All eight combinations of the step's scheduling knobs.
fn every_schedule() -> Vec<Schedule> {
    (0..8)
        .map(|i| Schedule { overlap: i & 4 != 0, parallel: i & 2 != 0, readahead_threads: i & 1 })
        .collect()
}

#[test]
fn every_step_schedule_reproduces_the_golden_run() {
    check(Run::Ddp2Rank, &every_schedule());
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

/// An f16 server answering requests on another thread must not move a
/// bit of a training run in the same process: the reduced precision
/// belongs to the served model's tapes, not to the process.
#[test]
fn golden_run_is_unmoved_by_a_concurrent_f16_server() {
    let ds = Arc::new(SyntheticMaterialsProject::new(16, 5));
    let head = TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1);
    let obs = Obs::null();
    let server = InferenceServer::start(
        TaskModel::egnn(EgnnConfig::small(16), &[head], 3),
        Compose::standard(4.5, Some(12)),
        Some(ds),
        ServeConfig { workers: 1, precision: Precision::F16, ..Default::default() },
        obs.clone(),
    );
    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let idx = served.load(Ordering::Relaxed) % 16;
                match server.predict_indices(vec![idx, (idx + 5) % 16]) {
                    Ok(_) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::Busy) => std::thread::yield_now(),
                    Err(e) => panic!("serve request failed: {e}"),
                }
            }
        });
        // Train only once the f16 forwards are running.
        while served.load(Ordering::Relaxed) == 0 && !client.is_finished() {
            std::thread::yield_now();
        }
        let trained = std::panic::catch_unwind(|| check(Run::Ddp2Rank, &every_schedule()));
        stop.store(true, Ordering::Relaxed);
        if let Err(panic) = trained {
            std::panic::resume_unwind(panic);
        }
    });
    server.shutdown();
    assert!(served.load(Ordering::Relaxed) > 0, "the server answered nothing");
    #[cfg(target_arch = "x86_64")]
    if matsciml_tensor::simd_enabled()
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        assert!(obs.counter(SIMD_HALF_OPS) > 0, "the server never ran the wide tier");
    }
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
