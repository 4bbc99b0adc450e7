//! Streamed vs in-memory data pipeline at MPtrj scale.
//!
//! The parent process writes a one-million-structure LiPS corpus with
//! `write_corpus` (16 shards of 65 536 samples), then re-executes itself
//! twice — `std::env::current_exe` with `MSML_STREAM_ARM` set — so each
//! arm's peak RSS (`VmHWM` in `/proc/self/status`) is measured in a
//! process that has done *only* that arm's work:
//!
//! * **inmem** decodes the entire corpus into a `Vec<Sample>` up front
//!   (the "materialize an epoch" baseline), then drives the standard
//!   `DataLoader` + transform pipeline over a fixed sample budget.
//! * **streamed** opens the same corpus as a [`StreamingDataset`]
//!   (memory-mapped shards, LRU-bounded open set, shard-sized blocked
//!   shuffle) and drives the *identical* loader schedule.
//!
//! Both arms time the same batches through the same transforms, so the
//! throughput ratio isolates the cost of on-demand record decoding.
//! The report asserts the tentpole gates: streaming peak RSS ≤ 10% of
//! in-memory, streaming throughput ≥ 0.9× in-memory, and — on a small
//! corpus, with the SIMD lane tier on — a 20-step streamed training
//! trajectory bit-identical to the in-memory run. The arms run in
//! subprocesses, one each, so the report carries no rep quantiles.
//!
//! Run with `cargo bench -p matsciml-bench --bench stream`. Emits
//! `BENCH_stream.json` at the repo root.

use std::path::PathBuf;
use std::time::Instant;

use matsciml::datasets::{
    write_corpus, Compose, CorpusWriteOptions, DataLoader, Dataset, DatasetId, Sample,
    ShuffleMode, Split, StreamingDataset, SyntheticLips,
};
use matsciml::models::EgnnConfig;
use matsciml::tensor::set_simd_enabled;
use matsciml::train::{TargetKind, TaskHeadConfig, TaskModel, TrainConfig, Trainer};
use matsciml_bench::harness::write_report;
use serde::{Deserialize, Serialize};

const CORPUS_SAMPLES: usize = 1_000_000;
const SHARD_SAMPLES: usize = 65_536;
const TOUCH: usize = 50_000;
const BATCH: usize = 64;
const SEED: u64 = 29;

const ARM_ENV: &str = "MSML_STREAM_ARM";
const DIR_ENV: &str = "MSML_STREAM_DIR";

/// What one subprocess arm reports back on stdout.
#[derive(Serialize, Deserialize)]
struct ArmResult {
    samples: usize,
    samples_per_sec: f64,
    peak_rss_kb: u64,
}

#[derive(Serialize)]
struct Report {
    corpus_samples: usize,
    shard_samples: usize,
    shards: usize,
    corpus_bytes: u64,
    touched_samples: usize,
    in_memory: ArmResult,
    streamed: ArmResult,
    /// streamed / in-memory peak RSS — gated ≤ 0.10.
    rss_ratio: f64,
    /// streamed / in-memory samples per second — gated ≥ 0.9.
    throughput_ratio: f64,
    /// 20-step streamed trajectory equals the in-memory one bit for bit.
    bit_identical: bool,
}

/// Peak resident set of this process so far, in kilobytes.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// The decoded-up-front baseline: every record of the corpus held as a
/// `Vec<Sample>`, served by index like any synthetic generator.
struct InMemoryCorpus(Vec<Sample>);

impl Dataset for InMemoryCorpus {
    fn id(&self) -> DatasetId {
        DatasetId::Lips
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn sample(&self, index: usize) -> Sample {
        self.0[index].clone()
    }
}

/// The timed loop both arms share: the standard transform pipeline over
/// a shard-blocked shuffled epoch, stopping after [`TOUCH`] samples.
fn drive(ds: &dyn Dataset) -> (usize, f64) {
    let pipeline = Compose::standard(4.5, Some(12));
    let dl = DataLoader::new(ds, Some(&pipeline), Split::Train, 0.0, BATCH, SEED)
        .with_shuffle_mode(ShuffleMode::Blocked(SHARD_SAMPLES));
    let batches = dl.epoch_batches(0);
    let mut touched = 0usize;
    let mut sink = 0u64;
    let t0 = Instant::now();
    for b in &batches {
        let samples = dl.load(b);
        for s in &samples {
            sink = sink.wrapping_add(s.graph.species.len() as u64);
        }
        touched += samples.len();
        if touched >= TOUCH {
            break;
        }
    }
    let sps = touched as f64 / t0.elapsed().as_secs_f64();
    assert!(sink > 0, "loader produced empty samples");
    (touched, sps)
}

/// Subprocess entry: run one arm over the corpus at `dir`, print the
/// [`ArmResult`] JSON on stdout.
fn child(arm: &str, dir: &str) {
    let (touched, sps) = match arm {
        "streamed" => {
            let ds = StreamingDataset::open(dir).expect("open corpus");
            drive(&ds)
        }
        "inmem" => {
            let streaming = StreamingDataset::open(dir).expect("open corpus");
            let all: Vec<Sample> = (0..streaming.len()).map(|i| streaming.sample(i)).collect();
            drop(streaming);
            drive(&InMemoryCorpus(all))
        }
        other => panic!("unknown arm {other}"),
    };
    let result =
        ArmResult { samples: touched, samples_per_sec: sps, peak_rss_kb: peak_rss_kb() };
    println!("{}", serde_json::to_string(&result).unwrap());
}

/// Re-execute this binary as the given arm and parse its report.
fn run_arm(arm: &str, dir: &PathBuf) -> ArmResult {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .env(ARM_ENV, arm)
        .env(DIR_ENV, dir)
        .output()
        .expect("spawn bench arm");
    assert!(
        out.status.success(),
        "{arm} arm failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("arm stdout");
    let line = stdout.lines().last().expect("arm printed a result");
    serde_json::from_str(line).expect("arm result JSON")
}

/// The 20-step bit-identity probe: a small corpus streamed with the SIMD
/// lane tier on must reproduce the in-memory trajectory exactly.
fn trajectories_match(dir: &PathBuf) -> bool {
    set_simd_enabled(true);
    let small = SyntheticLips::new(160, SEED);
    write_corpus(&small, dir, CorpusWriteOptions { shard_samples: 40, verify: true, workers: 1 }).unwrap();
    let streaming = StreamingDataset::open(dir).unwrap();

    let run = |ds: &dyn Dataset| {
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(ds, Some(&pipeline), Split::Train, 0.2, 8, SEED)
            .with_shuffle_mode(ShuffleMode::Blocked(40));
        let val_dl = DataLoader::new(ds, Some(&pipeline), Split::Val, 0.2, 8, SEED);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::Lips, TargetKind::Energy, 16, 1)],
            SEED,
        );
        let trainer = Trainer::new(TrainConfig {
            world_size: 2,
            per_rank_batch: 4,
            steps: 20,
            eval_every: 5,
            eval_batches: 2,
            seed: SEED,
            ..Default::default()
        });
        let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
        let losses: Vec<u32> = log
            .records
            .iter()
            .map(|r| r.train.get("loss").unwrap_or(f32::NAN).to_bits())
            .collect();
        let params: Vec<Vec<f32>> = (0..model.params.len())
            .map(|i| model.params.value(matsciml::nn::ParamId(i)).as_slice().to_vec())
            .collect();
        (losses, params)
    };
    run(&small) == run(&streaming)
}

fn main() {
    if let Ok(arm) = std::env::var(ARM_ENV) {
        let dir = std::env::var(DIR_ENV).expect("corpus dir env");
        child(&arm, &dir);
        return;
    }

    let base = std::env::temp_dir().join(format!("matsciml-bench-stream-{}", std::process::id()));
    let corpus_dir = base.join("corpus");
    let small_dir = base.join("small");
    std::fs::remove_dir_all(&base).ok();

    println!("writing {CORPUS_SAMPLES} LiPS structures into {SHARD_SAMPLES}-sample shards...");
    let t0 = Instant::now();
    let ds = SyntheticLips::new(CORPUS_SAMPLES, SEED);
    let manifest = write_corpus(
        &ds,
        &corpus_dir,
        CorpusWriteOptions { shard_samples: SHARD_SAMPLES, verify: false, workers: 1 },
    )
    .unwrap();
    let corpus_bytes: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
    println!(
        "corpus: {} shards, {:.0} MiB, written in {:.1}s",
        manifest.shards.len(),
        corpus_bytes as f64 / (1024.0 * 1024.0),
        t0.elapsed().as_secs_f64()
    );

    let in_memory = run_arm("inmem", &corpus_dir);
    println!(
        "in-memory: {:.0} samples/s, peak RSS {} MiB",
        in_memory.samples_per_sec,
        in_memory.peak_rss_kb / 1024
    );
    let streamed = run_arm("streamed", &corpus_dir);
    println!(
        "streamed : {:.0} samples/s, peak RSS {} MiB",
        streamed.samples_per_sec,
        streamed.peak_rss_kb / 1024
    );

    let rss_ratio = streamed.peak_rss_kb as f64 / in_memory.peak_rss_kb as f64;
    let throughput_ratio = streamed.samples_per_sec / in_memory.samples_per_sec;
    let bit_identical = trajectories_match(&small_dir);
    println!(
        "rss ratio {rss_ratio:.3} (gate ≤ 0.10) | throughput ratio {throughput_ratio:.2} \
         (gate ≥ 0.90) | bit-identical {bit_identical}"
    );

    write_report(
        "stream",
        &Report {
            corpus_samples: CORPUS_SAMPLES,
            shard_samples: SHARD_SAMPLES,
            shards: manifest.shards.len(),
            corpus_bytes,
            touched_samples: TOUCH,
            in_memory,
            streamed,
            rss_ratio,
            throughput_ratio,
            bit_identical,
        },
    );
    std::fs::remove_dir_all(&base).ok();

    assert!(
        rss_ratio <= 0.10,
        "streaming peak RSS must be ≤ 10% of in-memory, got {rss_ratio:.3}"
    );
    assert!(
        throughput_ratio >= 0.9,
        "streaming must sustain ≥ 0.9× in-memory throughput, got {throughput_ratio:.2}×"
    );
    assert!(bit_identical, "streamed 20-step trajectory diverged from in-memory");
}
