//! End-to-end benchmark for the Open MatSci ML Toolkit reproduction.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_paper|train_small_w4|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload is driven in one process through the toolkit's public
//! entry points (`Trainer::train`, `StreamingDataset`,
//! `write_corpus_iter`, `load_infer_model`, `InferenceServer`) and the
//! read-only counters (`pool_stats`, `simd_stats`, `edge_stats`,
//! `graph_cache_stats`). Inputs are generated from `--seed`; outputs are
//! checked (see `train.rs` and `serve.rs`).
//!
//! Every workload draws only structures with at least one neighbour pair
//! within the cutoff. On edge-free structures the program has two known
//! defects; each run probes both outside its workload and reports them
//! (see `defects.rs`).
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics. With `--trace 1` it alternates untraced and traced phases —
//! traced training writes a JSONL run record — and reports the per-layer
//! metrics, including the tracing overhead between the two arms. Every
//! run prints every metric of its set, in the order of the tables below;
//! a metric of a layer the workload bypasses prints as 0. The last line
//! of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Earlier stdout lines carry the correctness digests and the host/CPU
//! diagnostics (steal share, user and sys CPU) of the run.

mod defects;
mod serve;
mod stats;
mod train;

use std::path::PathBuf;
use std::time::Duration;

use matsciml::datasets::{Dataset, Sample, SyntheticMaterialsProject};
use matsciml::graph::radius_graph;

use stats::{HostCpu, Usage};

/// Radius-graph cutoff (Å) and neighbour cap: the standard pipeline.
pub const CUTOFF: f32 = 4.5;
pub const MAX_NEIGHBORS: Option<usize> = Some(12);
/// Seed of the base structures and of the model weights. `--seed` only
/// jitters positions, picks structures and drives shuffles: seeding the
/// weights too made the cost of a step vary by ~13% between seeds at
/// hidden 16 (the arithmetic's cost depends on the weights), and seeding
/// the structures changes their sizes, which would bury any change
/// under seed noise.
pub const FIXED_SEED: u64 = 17;
/// Uniform position jitter per coordinate (Å) drawn from `--seed`.
pub const JITTER: f32 = 0.05;
/// A base structure is kept only if it has an edge this far inside the
/// cutoff: jitter moves a pair distance by at most 2·√3·`JITTER` < 0.18 Å,
/// so no jittered copy can be edge-free.
const EDGE_MARGIN: f32 = 0.2;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 11;
/// A run that has not finished by then exits non-zero instead of hanging
/// (a serve worker that dies leaves its clients blocked forever).
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let trace = match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace takes 0 or 1, got {t}")),
        };
        let seconds: u64 = seconds.unwrap_or(10);
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds must be 1..=60, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace,
        })
    }
}

/// The end-to-end metrics (`--trace 0`) as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[("throughput_per_cpu_s", "1/cpu_s"), ("setup_s", "s")];

/// The per-layer metrics (`--trace 1`) as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.wait_ms.mean", "ms"),
    ("datasets.readahead_hit_frac", "frac"),
    ("datasets.stream_kb_per_step", "kB"),
    ("graph.cache_hit_frac", "frac"),
    ("graph.cache_lookups_per_step", "count"),
    ("graph.cache_evictions", "count"),
    ("graph.radius_ms.p50", "ms"),
    ("collate.ms.p50", "ms"),
    ("collate.worker_frac", "frac"),
    ("models.forward_ms.p50", "ms"),
    ("tensor.pool_hit_frac", "frac"),
    ("tensor.pool_fresh_bytes_per_step", "B"),
    ("tensor.simd_fallback_hits", "count"),
    ("edge.fused_calls_per_step", "count"),
    ("autograd.backward_ms.p50", "ms"),
    ("autograd.tape_nodes", "count"),
    ("ddp.exposed_comm_ms.p50", "ms"),
    ("ddp.overlapped_comm_ms.mean", "ms"),
    ("ddp.comm_bytes_per_step", "B"),
    ("opt.optimizer_ms.p50", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.queue_wait_ms.p50_derived", "ms"),
    ("serve.rejected", "count"),
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.p90", "ms"),
    ("serve.latency_ms.tail", "ms"),
    ("serve.latency_ms.tail_pct", "%"),
    ("serve.latency_samples", "count"),
    ("ckpt.load_ms", "ms"),
    ("proc.sys_cpu_frac", "frac"),
    ("proc.user_cpu_ms_per_step", "ms"),
    ("proc.ctx_switches_per_step", "count"),
    ("proc.peak_rss_mb", "MB"),
    ("trainer.step_ms.p50", "ms"),
    ("trainer.step_ms.tail", "ms"),
    ("trainer.step_ms.tail_pct", "%"),
    ("trainer.steps_traced", "count"),
    ("trainer.phase_sum_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("wall.throughput_per_s", "1/s"),
    ("wall.cpus_used", "count"),
    ("host.steal_frac", "frac"),
    ("known_defects.open", "count"),
];

/// The first `n` Materials-Project-like base structures (`FIXED_SEED`)
/// that keep an edge within the cutoff under any jitter. Edge-free
/// structures are left out of every workload because of the defects that
/// `defects.rs` probes.
pub fn connected_structures(n: usize) -> Vec<Sample> {
    let source = SyntheticMaterialsProject::new(usize::MAX, FIXED_SEED);
    (0..)
        .map(|i| source.sample(i))
        .filter(|s| {
            let g = &s.graph;
            radius_graph(
                g.species.clone(),
                g.positions.clone(),
                CUTOFF - EDGE_MARGIN,
                None,
            )
            .num_edges()
                > 0
        })
        .take(n)
        .collect()
}

/// Named metrics with units.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "benchmark bug: {name} is {value}");
        self.0.push((name, value, unit));
    }

    /// The JSON object of `set`, in its order: every metric put must be
    /// in `set` with its unit, and one not put prints as 0.
    fn json(&self, set: &[(&str, &str)]) -> String {
        for (name, _, unit) in &self.0 {
            assert!(
                set.contains(&(name, unit)),
                "benchmark bug: {name} ({unit}) is not in the metric set"
            );
        }
        let fields: Vec<String> = set
            .iter()
            .map(|&(name, unit)| {
                let v = self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A workload's result before the shared process metrics are added.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Metrics,
    /// Lines printed ahead of the result (digests, sample counts).
    pub notes: Vec<String>,
}

/// The run's scratch directory, inside the directory the benchmark runs
/// from; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir =
            PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removed only once empty, so concurrent runs keep their dirs.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Deliberately detached: it either fires (ending the process) or dies
    // with it.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog fired after {WATCHDOG:?}");
        std::process::exit(3);
    });

    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let host0 = HostCpu::now();
    let usage0 = Usage::now();
    let mut out = match args.workload.as_str() {
        "train_paper" => train::run(&train::PAPER, &args, &work),
        "train_small_w4" => train::run(&train::SMALL_W4, &args, &work),
        "serve" => serve::run(&args, &work),
        other => {
            eprintln!("perfbench: unknown workload {other} (train_paper, train_small_w4, serve)");
            std::process::exit(2);
        }
    };
    drop(work);
    let usage = Usage::now().since(&usage0);
    let steal = match (host0, HostCpu::now()) {
        (Some(a), Some(b)) => b.steal_frac_since(&a),
        _ => 0.0,
    };
    // After the workload and its measurements, so it costs them nothing.
    let defects = defects::probe();
    out.notes.push(defects.to_string());

    if args.trace {
        out.metrics
            .put("proc.peak_rss_mb", usage.max_rss_kb as f64 / 1024.0, "MB");
        out.metrics.put("host.steal_frac", steal, "frac");
        out.metrics
            .put("known_defects.open", defects.open() as f64, "count");
    }
    for note in &out.notes {
        println!("perfbench {}: {note}", args.workload);
    }
    println!(
        "perfbench {}: seed={} trace={} steal_frac={steal:.4} user_cpu_s={:.3} sys_cpu_s={:.3} sys_cpu_frac={:.4} threads={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        usage.user_s,
        usage.sys_s,
        usage.sys_frac(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics.json(set)
    );
}
