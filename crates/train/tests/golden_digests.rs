//! Reference digests of the 2-rank, 20-step training run, committed under
//! `tests/golden/`. Every scheduling knob of a training step — overlapped
//! or inline reduction, rank threads on or off, read-ahead with worker
//! collation or a synchronous load — must reproduce the file bit for bit:
//! each step's loss, gradient norm and validation metrics, and every bit
//! of the final parameters.
//!
//! The file pins behaviour across refactors of the step body: it was
//! written by the step code that preceded the single `ddp_step`, so any
//! later change that moves a bit fails here.
//! To rewrite it after an intentional numerical change, run
//! `cargo test -p matsciml-train --test golden_digests -- --ignored`.

use std::fmt::Write as _;
use std::path::PathBuf;

use matsciml_datasets::{Compose, DataLoader, DatasetId, Split, SyntheticMaterialsProject};
use matsciml_models::EgnnConfig;
use matsciml_nn::ParamId;
use matsciml_train::{TargetKind, TaskHeadConfig, TaskModel, TrainConfig, TrainLog, Trainer};

const WORLD: usize = 2;
const PER_RANK: usize = 4;
const STEPS: u64 = 20;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ddp_2rank_20step.txt")
}

fn run(overlap: bool, parallel: bool, readahead_threads: usize) -> (TrainLog, TaskModel) {
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
    let cfg = TrainConfig {
        world_size: WORLD,
        per_rank_batch: PER_RANK,
        steps: STEPS,
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        parallel_ranks: parallel,
        seed: 17,
        overlap_comm: overlap,
        readahead_threads,
        ..Default::default()
    };
    let log = Trainer::new(cfg).train(&mut model, &train_dl, Some(&val_dl));
    (log, model)
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

#[test]
fn every_step_schedule_reproduces_the_golden_run() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file is committed");
    for overlap in [false, true] {
        for parallel in [false, true] {
            for readahead_threads in [0, 1] {
                let (log, model) = run(overlap, parallel, readahead_threads);
                assert_eq!(log.records.len(), STEPS as usize);
                let got = render(&log, &model);
                for (line, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
                    assert_eq!(
                        g, w,
                        "overlap {overlap} parallel {parallel} readahead {readahead_threads}: \
                         line {} differs from the golden run",
                        line + 1
                    );
                }
                assert_eq!(got.lines().count(), golden.lines().count());
            }
        }
    }
}

/// Rewrites the golden file from the default schedule.
#[test]
#[ignore = "rewrites tests/golden; run only after an intentional numerical change"]
fn write_golden() {
    let (log, model) = run(false, true, 0);
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, render(&log, &model)).unwrap();
}
