//! The training workloads: `Trainer::train` over a streamed
//! `matsciml-shard/v1` corpus of synthetic Materials Project band gaps
//! whose edges were precomputed when the corpus was written.
//!
//! A run trains in *rounds*. A round is one epoch over the whole training
//! split: it restores the same initial parameters and trains from a fresh
//! `Trainer::train` call on the same shuffle. Every round must reproduce,
//! bit for bit, the loss bits and final parameters of the first round,
//! and every loss must be finite; that is the correctness check, and a
//! digest of those bits is printed. A round whose training panics counts
//! its steps as failed.
//!
//! The structures' composition and the initial weights are fixed (see
//! `FIXED_SEED`); the seed jitters every atom position and drives the
//! shuffle. Every structure has an edge within the cutoff: with
//! `overlap_comm` on, a step panics when one rank's batch has none (a
//! known defect that `defects.rs` probes).
//!
//! Throughput is the median over rounds of structures per CPU-second the
//! process actually received (all threads, less the host's stolen share;
//! see `Cost::received_cpu_s`). Wall-clock throughput moves by tens of
//! percent between runs on a shared host, so it is only reported with the
//! per-layer metrics; the gated figure therefore does not see work moved
//! onto idle cores, or threads left waiting.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use matsciml::datasets::{
    write_corpus_iter, Compose, CorpusWriteOptions, DataLoader, Dataset, DatasetId, ShuffleMode,
    Split, StreamingDataset, Transform,
};
use matsciml::graph::radius_graph;
use matsciml::models::EgnnConfig;
use matsciml::nn::{ParamId, ParamSet};
use matsciml::obs::{Obs, Quantiles, RunRecord, StepEvent};
use matsciml::train::{collate_ranks, TargetKind, TaskHeadConfig, TaskModel, TrainConfig, Trainer};

use crate::stats::{
    frac, median, ms, setup_cpu_s, supported_tail, timed, Cost, Digest, SplitMix, Usage,
};
use crate::{
    connected_structures, Args, Metrics, Outcome, WorkDir, CUTOFF, FIXED_SEED, JITTER,
    MAX_NEIGHBORS, SETUP_REPEATS,
};

/// One training workload's shape. A round is one epoch.
pub struct Shape {
    pub hidden: usize,
    pub world: usize,
    pub per_rank: usize,
}

/// The paper's E(n)-GNN (`EgnnConfig::paper()`: hidden 256, 3 layers) at
/// world 4 × 4: forward and backward kernels dominate the step.
pub const PAPER: Shape = Shape {
    hidden: 256,
    world: 4,
    per_rank: 4,
};

/// Hidden 16 at world 4 × 4: fixed per-step overhead dominates (thread
/// spawns, the per-kernel thread-count query, allreduce copies, the
/// per-tensor optimizer).
pub const SMALL_W4: Shape = Shape {
    hidden: 16,
    world: 4,
    per_rank: 4,
};

const CORPUS: usize = 1024;
const SHARD_SAMPLES: usize = 256;
const VAL_FRACTION: f32 = 0.125;
const MIN_ROUNDS: usize = 4;
const SETUP_CPU_S: f64 = 1.5;
const MAX_SETUP_REPEATS: usize = 2001;

impl Shape {
    fn model(&self) -> TaskModel {
        let config = if self.hidden == 256 {
            EgnnConfig::paper()
        } else {
            EgnnConfig::small(self.hidden)
        };
        let head = TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::BandGap,
            self.hidden,
            3,
        );
        TaskModel::egnn(config, &[head], FIXED_SEED)
    }

    /// Every engine tier on: kernel tiers at their defaults, rank-parallel
    /// steps with overlapped gradient reduction, read-ahead with worker
    /// collation.
    fn trainer(&self, seed: u64, steps: u64) -> Trainer {
        Trainer::new(TrainConfig {
            world_size: self.world,
            per_rank_batch: self.per_rank,
            steps,
            eval_every: 0,
            parallel_ranks: true,
            overlap_comm: true,
            readahead_threads: 1,
            seed,
            ..Default::default()
        })
    }

    fn loader<'a>(&self, ds: &'a dyn Dataset, pipe: &'a Compose, seed: u64) -> DataLoader<'a> {
        DataLoader::new(
            ds,
            Some(pipe),
            Split::Train,
            VAL_FRACTION,
            self.world * self.per_rank,
            seed,
        )
        .with_shuffle_mode(ShuffleMode::Blocked(SHARD_SAMPLES))
    }
}

/// Input generation (untimed): the jittered corpus, graphs precomputed
/// at write time as `shard-write --precompute-edges` does.
fn write_corpus(dir: &Path, seed: u64) {
    let pipe = Compose::standard(CUTOFF, MAX_NEIGHBORS);
    let mut rng = SplitMix(seed);
    let samples = connected_structures(CORPUS).into_iter().map(move |mut s| {
        rng.jitter(&mut s.graph.positions, JITTER);
        let s = pipe.apply(s);
        assert!(
            s.graph.num_edges() > 0,
            "benchmark bug: an edge-free structure"
        );
        s
    });
    let options = CorpusWriteOptions {
        shard_samples: SHARD_SAMPLES,
        verify: false,
        workers: 1,
    };
    write_corpus_iter(samples, dir, options).expect("writing the benchmark corpus");
}

/// What one round produced: `None` when training panicked, else the
/// digest of its loss and parameter bits and its count of non-finite
/// losses.
type RoundResult = Option<(Digest, u64)>;

/// One round: restore the initial parameters, train, digest the result.
/// Returns the result and the cost of the `Trainer::train` call alone.
fn round(
    trainer: &Trainer,
    model: &mut TaskModel,
    init: &ParamSet,
    loader: &DataLoader<'_>,
    obs: &Obs,
) -> (RoundResult, Cost) {
    model.params.copy_values_from(init);
    let (log, cost) = timed(|| {
        catch_unwind(AssertUnwindSafe(|| {
            trainer.train_observed(model, loader, None, obs)
        }))
    });
    let Ok(log) = log else {
        return (None, cost);
    };
    let mut digest = Digest::new();
    let mut nonfinite = 0;
    for r in &log.records {
        let loss = r.train.get("loss").unwrap_or(f32::NAN);
        nonfinite += u64::from(!loss.is_finite());
        digest.word(loss.to_bits());
    }
    for i in 0..model.params.len() {
        digest.f32s(model.params.value(ParamId(i)).as_slice());
    }
    (Some((digest, nonfinite)), cost)
}

pub fn run(shape: &Shape, args: &Args, work: &WorkDir) -> Outcome {
    let corpus = work.path("corpus");
    write_corpus(&corpus, args.seed);
    let pipe = Compose::standard(CUTOFF, MAX_NEIGHBORS);

    // Set-up: open the corpus, build the loader and the model. Repeated at
    // least SETUP_REPEATS times and until SETUP_CPU_S of CPU is spent, so
    // a sub-millisecond set-up still gets a steady median.
    let mut setup: Vec<Cost> = Vec::new();
    let ((ds, mut model), setup_phase) = timed(|| loop {
        let (built, cost) = timed(|| {
            let ds = StreamingDataset::open(&corpus).expect("opening the benchmark corpus");
            let model = shape.model();
            assert!(shape.loader(&ds, &pipe, args.seed).batches_per_epoch() > 0);
            (ds, model)
        });
        setup.push(cost);
        let spent: f64 = setup.iter().map(|c| c.cpu_s).sum();
        if setup.len() >= SETUP_REPEATS
            && (spent >= SETUP_CPU_S || setup.len() >= MAX_SETUP_REPEATS)
        {
            break built;
        }
    });
    let init = model.params.clone();
    let loader = shape.loader(&ds, &pipe, args.seed);
    let steps = loader.batches_per_epoch() as u64;
    let structures = (steps as usize * shape.world * shape.per_rank) as f64;
    let trainer = shape.trainer(args.seed, steps);

    // Traced rounds read a second handle on the corpus whose counters
    // record the bytes streamed from the shards.
    let stream_obs = Obs::null();
    let traced_ds = StreamingDataset::open_with(&corpus, 8, stream_obs.clone())
        .expect("opening the benchmark corpus");
    let traced_loader = shape.loader(&traced_ds, &pipe, args.seed);

    // Every round must match the first that completes, bit for bit. The
    // warm-up round fills the buffer pool; it is checked but not timed.
    let (mut failed, mut mismatched) = (0u64, 0u64);
    let mut reference: Option<Digest> = None;
    let mut check = |result: RoundResult| match result {
        None => failed += steps,
        Some((digest, nonfinite)) => {
            mismatched += nonfinite;
            if *reference.get_or_insert(digest) != digest {
                mismatched += steps;
            }
        }
    };
    check(round(&trainer, &mut model, &init, &loader, &Obs::disabled()).0);

    let mut untraced: Vec<Cost> = Vec::new();
    let mut traced = Traced::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = 0;
    while Instant::now() < deadline || rounds < MIN_ROUNDS {
        // With tracing on, untraced and traced rounds alternate so host
        // speed drift lands on both arms alike.
        let result = if args.trace && rounds % 2 == 1 {
            let path = work.path(&format!("round-{rounds}.jsonl"));
            let obs = Obs::jsonl(&path).expect("creating the run record");
            let u0 = Usage::now();
            let (result, cost) = round(&trainer, &mut model, &init, &traced_loader, &obs);
            drop(obs);
            if result.is_some() {
                traced.usage.add(&Usage::now().since(&u0));
                let text = std::fs::read_to_string(&path).expect("reading the run record");
                traced
                    .records
                    .push(RunRecord::parse(&text).expect("run record is valid JSONL"));
                traced.rounds.push(cost);
                traced.replay(shape, &traced_loader);
            }
            result
        } else {
            let (result, cost) = round(&trainer, &mut model, &init, &loader, &Obs::disabled());
            if result.is_some() {
                untraced.push(cost);
            }
            result
        };
        check(result);
        rounds += 1;
    }

    let per_cpu_s = |c: &Cost| structures / c.received_cpu_s();
    let listed = |f: &dyn Fn(&Cost) -> f64| {
        let v: Vec<String> = untraced.iter().map(|c| format!("{:.3}", f(c))).collect();
        v.join(",")
    };
    let mut metrics = Metrics::default();
    if args.trace {
        traced.per_layer(
            &mut metrics,
            structures,
            &untraced,
            stream_obs.counter("data/stream_bytes"),
        );
    } else {
        metrics.put(
            "throughput_per_cpu_s",
            median(&untraced.iter().map(per_cpu_s).collect::<Vec<_>>()),
            "1/cpu_s",
        );
        metrics.put("setup_s", setup_cpu_s(&setup, &setup_phase), "s");
    }
    Outcome {
        attempted: (rounds as u64 + 1) * steps,
        failed,
        correct: mismatched == 0 && !untraced.is_empty(),
        metrics,
        notes: vec![
            format!(
                "digest={} rounds={rounds} crashed_steps={failed} \
                 mismatched_steps={mismatched} steps_per_round={steps} setup_wall_s={:.6}",
                reference.map_or("none".to_string(), |d| d.to_string()),
                median(&setup.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
            ),
            format!(
                "rounds_per_cpu_s={} rounds_per_wall_s={} rounds_steal_frac={}",
                listed(&|c| structures / c.cpu_s),
                listed(&|c| structures / c.wall_s),
                listed(&|c| c.steal),
            ),
        ],
    }
}

/// What the traced rounds recorded: their run records, the benchmark's
/// own timers around public calls on the same batches, and CPU usage.
#[derive(Default)]
struct Traced {
    records: Vec<RunRecord>,
    rounds: Vec<Cost>,
    radius_ms: Vec<f64>,
    collate_ms: Vec<f64>,
    usage: Usage,
}

impl Traced {
    /// Time `radius_graph` (the work precomputed edges skip) and
    /// `collate_ranks` over each batch the traced round trained on.
    fn replay(&mut self, shape: &Shape, loader: &DataLoader<'_>) {
        for batch in loader.epoch_batches(0) {
            let samples = loader.load(&batch);
            let inputs: Vec<_> = samples
                .iter()
                .map(|s| (s.graph.species.clone(), s.graph.positions.clone()))
                .collect();
            let t = Instant::now();
            for (species, positions) in inputs {
                std::hint::black_box(radius_graph(species, positions, CUTOFF, MAX_NEIGHBORS));
            }
            self.radius_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            std::hint::black_box(collate_ranks(&samples, shape.per_rank));
            self.collate_ms.push(ms(t.elapsed()));
        }
    }

    fn steps(&self) -> Vec<&StepEvent> {
        self.records.iter().flat_map(|r| r.steps()).collect()
    }

    /// Exact sum and count of one summary histogram over every record.
    fn hist_sum(&self, name: &str) -> f64 {
        self.hists(name).map(|q| q.mean * q.count as f64).sum()
    }

    fn hist_count(&self, name: &str) -> f64 {
        self.hists(name).map(|q| q.count as f64).sum()
    }

    fn hists<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Quantiles> + 'a {
        self.records
            .iter()
            .filter_map(move |r| r.summary().and_then(|s| s.phases.get(name)))
    }

    fn per_layer(&self, m: &mut Metrics, structures: f64, untraced: &[Cost], stream_bytes: u64) {
        let steps = self.steps();
        let n = steps.len() as f64;
        let phase_ms = |f: fn(&StepEvent) -> u64| -> Vec<f64> {
            steps.iter().map(|s| f(s) as f64 / 1e3).collect()
        };
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        for record in &self.records {
            let summary = record.summary().expect("run record ends with a summary");
            for (k, v) in &summary.counters {
                *counters.entry(k.as_str()).or_default() += v;
            }
        }
        let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;

        let step_ms = phase_ms(|s| s.total_us);
        let data_ms = phase_ms(|s| s.data_us);
        let forward_ms = phase_ms(|s| s.forward_us);
        let backward_ms = phase_ms(|s| s.backward_us);
        let allreduce_ms = phase_ms(|s| s.allreduce_us);
        let optimizer_ms = phase_ms(|s| s.optimizer_us);
        let sum = |v: &[f64]| v.iter().sum::<f64>();

        // A read-ahead hit delivers in under a microsecond, so the median
        // wait reads 0; the mean carries the misses.
        m.put("datasets.wait_ms.mean", frac(sum(&data_ms), n), "ms");
        let ra = c("data/readahead_hit") + c("data/readahead_miss");
        m.put(
            "datasets.readahead_hit_frac",
            frac(c("data/readahead_hit"), ra),
            "frac",
        );
        m.put(
            "datasets.stream_kb_per_step",
            frac(stream_bytes as f64 / 1024.0, n),
            "kB",
        );
        // Every record carries its edges, so training should make no
        // graph-cache traffic.
        let lookups = c("data/graph_cache_hit") + c("data/graph_cache_miss");
        m.put(
            "graph.cache_hit_frac",
            frac(c("data/graph_cache_hit"), lookups),
            "frac",
        );
        m.put("graph.cache_lookups_per_step", frac(lookups, n), "count");
        m.put(
            "graph.cache_evictions",
            c("data/graph_cache_evict"),
            "count",
        );
        m.put("graph.radius_ms.p50", median(&self.radius_ms), "ms");
        m.put("collate.ms.p50", median(&self.collate_ms), "ms");
        let collations = c("data/collate_worker") + c("data/collate_inline");
        m.put(
            "collate.worker_frac",
            frac(c("data/collate_worker"), collations),
            "frac",
        );
        m.put("models.forward_ms.p50", median(&forward_ms), "ms");
        m.put(
            "tensor.pool_hit_frac",
            frac(c("pool/hits"), c("pool/hits") + c("pool/misses")),
            "frac",
        );
        m.put(
            "tensor.pool_fresh_bytes_per_step",
            frac(c("pool/bytes_fresh"), n),
            "B",
        );
        m.put(
            "tensor.simd_fallback_hits",
            c("simd/fallback_hits"),
            "count",
        );
        m.put(
            "edge.fused_calls_per_step",
            frac(c("edge/fused_calls"), n),
            "count",
        );
        m.put("autograd.backward_ms.p50", median(&backward_ms), "ms");
        m.put("autograd.tape_nodes", frac(c("tape/nodes"), n), "count");
        // With overlap on, the step's allreduce phase is the reduction
        // left exposed after backward; the overlapped rest is only in the
        // summary histogram, whose mean is exact.
        m.put("ddp.exposed_comm_ms.p50", median(&allreduce_ms), "ms");
        m.put(
            "ddp.overlapped_comm_ms.mean",
            frac(
                self.hist_sum("ddp/overlapped_comm_ms"),
                self.hist_count("ddp/overlapped_comm_ms"),
            ),
            "ms",
        );
        m.put(
            "ddp.comm_bytes_per_step",
            frac(steps.iter().map(|s| s.comm_bytes as f64).sum(), n),
            "B",
        );
        m.put("opt.optimizer_ms.p50", median(&optimizer_ms), "ms");
        m.put("proc.sys_cpu_frac", self.usage.sys_frac(), "frac");
        m.put(
            "proc.user_cpu_ms_per_step",
            frac(self.usage.user_s * 1e3, n),
            "ms",
        );
        m.put(
            "proc.ctx_switches_per_step",
            frac(self.usage.ctx_switches as f64, n),
            "count",
        );
        let (tail, pct) = supported_tail(&step_ms);
        m.put("trainer.step_ms.p50", median(&step_ms), "ms");
        m.put("trainer.step_ms.tail", tail, "ms");
        m.put("trainer.step_ms.tail_pct", pct, "%");
        m.put("trainer.steps_traced", n, "count");
        let phases = [
            &data_ms,
            &forward_ms,
            &backward_ms,
            &allreduce_ms,
            &optimizer_ms,
        ];
        m.put(
            "trainer.phase_sum_frac",
            frac(phases.iter().map(|p| sum(p)).sum(), sum(&step_ms)),
            "frac",
        );
        // CPU per round, traced over untraced (medians).
        let cpu = |c: &[Cost]| median(&c.iter().map(|c| c.cpu_s).collect::<Vec<_>>());
        m.put(
            "trace.overhead_frac",
            frac(cpu(&self.rounds), cpu(untraced)) - 1.0,
            "frac",
        );
        m.put(
            "wall.throughput_per_s",
            median(
                &untraced
                    .iter()
                    .map(|c| structures / c.wall_s)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
        );
        m.put(
            "wall.cpus_used",
            frac(
                untraced.iter().map(|c| c.cpu_s).sum(),
                untraced.iter().map(|c| c.wall_s).sum(),
            ),
            "count",
        );
    }
}
