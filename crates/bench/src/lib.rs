//! Shared infrastructure for the experiment binaries (one binary per paper
//! figure/table — see `DESIGN.md` §3 for the index).
//!
//! Experiment scale is controlled by `MATSCIML_SCALE` (`"quick"`, the
//! default `"paper"`, or `"full"`): every binary runs the same code path at
//! different budgets, so CI can smoke-test the harness in seconds while a
//! full run takes minutes per figure.

#![warn(missing_docs)]

pub mod harness;

use std::path::{Path, PathBuf};

use matsciml::prelude::*;
use serde::Serialize;

/// Experiment budget presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per figure — harness smoke test.
    Quick,
    /// Minutes per figure — the default used for `EXPERIMENTS.md`.
    Paper,
    /// Tens of minutes — tighter curves.
    Full,
}

impl Scale {
    /// Read from `MATSCIML_SCALE` (default: `paper`).
    pub fn from_env() -> Self {
        match std::env::var("MATSCIML_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Paper,
        }
    }

    /// Multiply a step budget by the scale factor.
    pub fn steps(self, paper: u64) -> u64 {
        match self {
            Scale::Quick => (paper / 10).max(3),
            Scale::Paper => paper,
            Scale::Full => paper * 3,
        }
    }

    /// Multiply a sample-count budget.
    pub fn samples(self, paper: usize) -> usize {
        match self {
            Scale::Quick => (paper / 10).max(32),
            Scale::Paper => paper,
            Scale::Full => paper * 2,
        }
    }
}

/// Directory experiment artifacts are written to
/// (`target/experiments/<name>/`).
pub fn experiment_dir(name: &str) -> PathBuf {
    let dir = Path::new("target").join("experiments").join(name);
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    dir
}

/// Write a string artifact, returning its path.
pub fn write_artifact(dir: &Path, file: &str, contents: &str) -> PathBuf {
    let path = dir.join(file);
    std::fs::write(&path, contents).expect("write artifact");
    path
}

/// Serialize a value to pretty JSON in the experiment dir.
pub fn write_json<T: Serialize>(dir: &Path, file: &str, value: &T) -> PathBuf {
    let path = dir.join(file);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write artifact");
    path
}

/// The shared experiment model size: hidden width of the E(n)-GNN. The
/// paper uses 256; the simulation default of 24 keeps every figure binary
/// in the minutes range on one core while preserving all architecture
/// structure (3 layers, residuals, φ widths in proportion).
pub fn encoder_config() -> EgnnConfig {
    let hidden = std::env::var("MATSCIML_HIDDEN")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    EgnnConfig::small(hidden)
}

/// Pretraining hyperparameters shared by Figs. 3/4/5/6 and Table 1.
pub struct PretrainSpec {
    /// Virtual DDP world size.
    pub world_size: usize,
    /// Per-rank batch.
    pub per_rank_batch: usize,
    /// Optimizer steps.
    pub steps: u64,
    /// η_base before world scaling.
    pub base_lr: f32,
}

impl PretrainSpec {
    /// The configuration used to produce the shared pretrained encoder
    /// (paper: N = 256, 20 epochs; scaled to the simulation budget).
    pub fn standard(scale: Scale) -> Self {
        PretrainSpec {
            world_size: 16,
            per_rank_batch: 4,
            steps: scale.steps(700),
            base_lr: 5e-4,
        }
    }
}

/// Train (or load from cache) the shared symmetry-pretrained model.
///
/// The trained model is cached as a `.mckpt` model artifact (its
/// training log as JSON beside it) under `target/experiments/pretrained/`
/// keyed by architecture + budget, so the downstream figure binaries
/// reuse one pretraining run — mirroring the paper, where a single
/// pretrained model feeds Sections 5.3 and 5.4.
pub fn pretrained_model(scale: Scale) -> (TaskModel, TrainLog) {
    let spec = PretrainSpec::standard(scale);
    let cfg = encoder_config();
    let dir = experiment_dir("pretrained");
    let key = format!("encoder-h{}-steps{}-n{}", cfg.hidden, spec.steps, spec.world_size);
    let cache = dir.join(format!("{key}.mckpt"));
    let log_cache = dir.join(format!("log-{key}.json"));

    let dataset = SymmetryDataset::new(scale.samples(8192).max(1024), 17);
    let heads = [TaskHeadConfig::symmetry(
        2 * cfg.hidden,
        3,
        dataset.num_classes(),
    )];
    let mut model = TaskModel::egnn(cfg, &heads, 1234);

    if let (Ok(cached), Ok(log_bytes)) = (load_infer_model(&cache), std::fs::read(&log_cache)) {
        if let Ok(log) = serde_json::from_slice::<TrainLog>(&log_bytes) {
            if cached.model.params.len() == model.params.len() {
                eprintln!("[pretrain] loaded cached encoder from {}", cache.display());
                model.params.copy_values_from(&cached.model.params);
                return (model, log);
            }
        }
    }

    eprintln!(
        "[pretrain] training symmetry encoder: N={} B={} steps={} hidden={}",
        spec.world_size, spec.per_rank_batch, spec.steps, cfg.hidden
    );
    let pipeline = Compose::standard(1.2, Some(16));
    let batch = spec.world_size * spec.per_rank_batch;
    let train_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Train, 0.1, batch, 5);
    let val_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Val, 0.1, 32, 5);
    let trainer = Trainer::new(TrainConfig {
        world_size: spec.world_size,
        per_rank_batch: spec.per_rank_batch,
        steps: spec.steps,
        base_lr: spec.base_lr,
        scale_lr_by_world: true,
        warmup_epochs: 1,
        gamma: 0.8,
        weight_decay: 0.0,
        eps: 1e-8,
        clip_norm: Some(10.0),
        eval_every: (spec.steps / 12).max(1),
        eval_batches: 2,
        parallel_ranks: true,
        seed: 7,
        early_stop: None,
        skip_nonfinite_updates: false,
        overlap_comm: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        readahead_threads: 0,
        readahead_depth: 0,
    });
    let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
    save_model(&cache, &model, Precision::F32).ok();
    std::fs::write(&log_cache, serde_json::to_string(&log).unwrap()).ok();
    if let Some(v) = log.final_val() {
        eprintln!("[pretrain] final val: {}", v.render());
    }
    (model, log)
}

/// Render a simple aligned text table (the "same rows the paper reports").
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_budgets() {
        assert_eq!(Scale::Quick.steps(100), 10);
        assert_eq!(Scale::Paper.steps(100), 100);
        assert_eq!(Scale::Full.steps(100), 300);
        assert_eq!(Scale::Quick.samples(1000), 100);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["workers", "rate"],
            &[
                vec!["16".into(), "1.5".into()],
                vec!["512".into(), "48.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("workers"));
        assert!(lines[3].trim_start().starts_with("512"));
    }

    #[test]
    fn encoder_config_reads_default() {
        let cfg = encoder_config();
        assert!(cfg.hidden >= 8);
        assert_eq!(cfg.layers, 3);
    }
}
