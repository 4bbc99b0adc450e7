//! The training loop: the paper's AdamW + warmup/exponential-decay recipe
//! over the DDP simulator, with instability probing and metric logging.

use std::path::Path;

use matsciml_datasets::{DataLoader, ReadAhead, Sample};
use matsciml_graph::graph_cache_stats;
use matsciml_obs::{Event, EvalEvent, Json, Obs, Phase, RunStartEvent, StepEvent, SummaryEvent, SCHEMA};
use matsciml_opt::{AdamW, AdamWConfig, InstabilityProbe, LrSchedule, WarmupExpDecay};
use serde::{Deserialize, Serialize};

use crate::collate::{
    collate_ranks, Batch, DATA_COLLATE_WORKER, DATA_GRAPH_CACHE_EVICT, DATA_GRAPH_CACHE_HIT,
    DATA_GRAPH_CACHE_MISS,
};
use crate::ddp::{ddp_step, DdpConfig, DdpTapes, StepInput, COMM_ALLREDUCE_BYTES};
use crate::metrics::MetricMap;
use crate::model::TaskModel;

/// Full training-run configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// DDP world size N.
    pub world_size: usize,
    /// Per-rank batch B.
    pub per_rank_batch: usize,
    /// Total optimizer steps to run.
    pub steps: u64,
    /// Base learning rate η_base (before world-size scaling).
    pub base_lr: f32,
    /// Scale η_base by N (Goyal et al.); the paper always does.
    pub scale_lr_by_world: bool,
    /// Warmup length in epochs (paper: 8).
    pub warmup_epochs: u64,
    /// Per-epoch exponential decay (paper: 0.8).
    pub gamma: f32,
    /// AdamW weight decay.
    pub weight_decay: f32,
    /// AdamW ε (swept by the instability ablation).
    pub eps: f32,
    /// Optional global gradient-norm clip.
    pub clip_norm: Option<f32>,
    /// Evaluate on the validation loader every this many steps (0 = never).
    pub eval_every: u64,
    /// Number of validation batches per evaluation.
    pub eval_batches: usize,
    /// Run ranks on threads.
    pub parallel_ranks: bool,
    /// Run seed (shuffling, dropout streams).
    pub seed: u64,
    /// Optional early stopping (paper Fig. 5: pretraining "may see
    /// benefits with early stopping algorithms with a fixed compute
    /// budget").
    pub early_stop: Option<EarlyStop>,
    /// Skip the optimizer step when the averaged gradient is non-finite
    /// (a spike-mitigation used by production trainers). Off by default:
    /// the paper's runs take the hit, which is what Figs. 3/6 show.
    pub skip_nonfinite_updates: bool,
    /// Overlap the gradient allreduce under backward
    /// ([`DdpConfig::overlap`]): the part reducer runs on a comm thread
    /// while backward is still running, instead of after it.
    /// Bit-identical trajectories either way; only the schedule changes.
    /// Off by default.
    #[serde(default)]
    pub overlap_comm: bool,
    /// Worker threads for the multi-shard read-ahead pipeline
    /// ([`matsciml_datasets::DataLoader::spawn_readahead_with`]): the data
    /// path keeps a window of future batches requested so workers
    /// materialize them while the current batch trains. Delivery is
    /// reassembled into schedule order, so the trajectory is
    /// bit-identical for any thread count (and to the synchronous path).
    /// 0 (the default) loads every batch synchronously on the trainer
    /// thread.
    ///
    /// The workers also *collate*: each delivered item is the step's
    /// per-rank [`Batch`] list, so edge-CSR assembly overlaps with
    /// training instead of running inline in the forward span
    /// ([`crate::collate::collate_ranks`] is a pure function of the
    /// sample list, so trajectories are unchanged).
    #[serde(default)]
    pub readahead_threads: usize,
    /// Bound on completed batches queued ahead of the trainer (the
    /// read-ahead pipeline's memory footprint). 0 means the default of 4.
    #[serde(default)]
    pub readahead_depth: usize,
    /// Write a `matsciml-ckpt` checkpoint every this many optimizer steps
    /// (0 = never). Requires `checkpoint_dir`. Checkpoints land *after*
    /// the step's optimizer update, so `step{k}.mckpt` resumes with `k`
    /// steps complete and the trajectory continues bit-identically
    /// ([`Trainer::resume_observed`]).
    #[serde(default)]
    pub checkpoint_every: u64,
    /// Directory checkpoint files are written into, as `step{k}.mckpt`.
    #[serde(default)]
    pub checkpoint_dir: Option<String>,
}

/// Early-stopping policy: stop when a validation metric has not improved
/// for `patience` consecutive evaluations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EarlyStop {
    /// Validation metric key to monitor (lower is better).
    pub metric: String,
    /// Evaluations without improvement before stopping.
    pub patience: u32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            world_size: 1,
            per_rank_batch: 8,
            steps: 100,
            base_lr: 1e-3,
            scale_lr_by_world: true,
            warmup_epochs: 8,
            gamma: 0.8,
            weight_decay: 0.01,
            eps: 1e-8,
            clip_norm: None,
            eval_every: 10,
            eval_batches: 4,
            parallel_ranks: true,
            seed: 0,
            early_stop: None,
            skip_nonfinite_updates: false,
            overlap_comm: false,
            readahead_threads: 0,
            readahead_depth: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }
}

/// One logged step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainRecord {
    /// Optimizer step (0-based).
    pub step: u64,
    /// Epoch the step belongs to.
    pub epoch: u64,
    /// Learning rate applied at this step.
    pub lr: f32,
    /// Rank-averaged training metrics.
    pub train: MetricMap,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
    /// Validation metrics, when this step evaluated.
    pub val: Option<MetricMap>,
}

/// The result of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainLog {
    /// Per-step records.
    pub records: Vec<TrainRecord>,
    /// True when early stopping fired before the step budget was spent.
    #[serde(default)]
    pub stopped_early: bool,
    /// Optimizer steps skipped because the gradient was non-finite
    /// (only with `skip_nonfinite_updates`).
    #[serde(default)]
    pub skipped_updates: u64,
    /// Steps at which the probe flagged loss spikes.
    pub spike_steps: Vec<u64>,
    /// Mean gradient time-correlation over the run (Molybog et al.'s
    /// non-Markovian indicator).
    pub mean_grad_time_correlation: f32,
}

impl TrainLog {
    /// Final validation metrics (the last record that evaluated).
    pub fn final_val(&self) -> Option<&MetricMap> {
        self.records.iter().rev().find_map(|r| r.val.as_ref())
    }

    /// Best (minimum) value of a validation metric across the run.
    pub fn best_val(&self, key: &str) -> Option<f32> {
        self.records
            .iter()
            .filter_map(|r| r.val.as_ref().and_then(|v| v.get(key)))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f32| a.min(v))))
    }

    /// The series `(step, value)` of a validation metric.
    pub fn val_series(&self, key: &str) -> Vec<(u64, f32)> {
        self.records
            .iter()
            .filter_map(|r| r.val.as_ref().and_then(|v| v.get(key)).map(|v| (r.step, v)))
            .collect()
    }

    /// Render as CSV (stable column order: step, epoch, lr, grad_norm,
    /// train metrics, then `val/`-prefixed validation metrics).
    pub fn to_csv(&self) -> String {
        use std::collections::BTreeSet;
        let mut train_keys = BTreeSet::new();
        let mut val_keys = BTreeSet::new();
        for r in &self.records {
            train_keys.extend(r.train.0.keys().cloned());
            if let Some(v) = &r.val {
                val_keys.extend(v.0.keys().cloned());
            }
        }
        let mut out = String::from("step,epoch,lr,grad_norm");
        for k in &train_keys {
            out.push_str(&format!(",{k}"));
        }
        for k in &val_keys {
            out.push_str(&format!(",val/{k}"));
        }
        out.push('\n');
        for r in &self.records {
            out.push_str(&format!("{},{},{},{}", r.step, r.epoch, r.lr, r.grad_norm));
            for k in &train_keys {
                match r.train.get(k) {
                    Some(v) => out.push_str(&format!(",{v}")),
                    None => out.push(','),
                }
            }
            for k in &val_keys {
                match r.val.as_ref().and_then(|m| m.get(k)) {
                    Some(v) => out.push_str(&format!(",{v}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render a metric series as a one-line Unicode sparkline (log-y when
    /// the dynamic range exceeds two decades) — the experiment binaries'
    /// quick visual for validation curves.
    pub fn sparkline(&self, key: &str, width: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let series = self.val_series(key);
        if series.is_empty() {
            return String::from("(no data)");
        }
        // Downsample to `width` points by striding.
        let stride = (series.len() as f32 / width.max(1) as f32).max(1.0);
        let values: Vec<f32> = (0..series.len().min(width))
            .map(|i| series[(i as f32 * stride) as usize % series.len()].1)
            .collect();
        let finite: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return String::from("(all non-finite)");
        }
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in &finite {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let log_scale = lo > 0.0 && hi / lo.max(1e-12) > 100.0;
        let map = |v: f32| if log_scale { v.max(1e-12).ln() } else { v };
        let (mlo, mhi) = (map(lo), map(hi));
        let span = (mhi - mlo).max(1e-12);
        values
            .iter()
            .map(|&v| {
                if !v.is_finite() {
                    '✗'
                } else {
                    let t = ((map(v) - mlo) / span).clamp(0.0, 1.0);
                    BARS[((t * 7.0).round()) as usize]
                }
            })
            .collect()
    }

    /// Write the CSV through a recorder [`matsciml_obs::FileSink`]
    /// (buffered, parent directories created) — the same sink type the
    /// JSONL run record uses, so all run artifacts share one write path.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        use matsciml_obs::Sink;
        let mut sink = matsciml_obs::FileSink::create(path)?;
        for line in self.to_csv().lines() {
            sink.write_line(line);
        }
        sink.flush();
        Ok(())
    }
}

/// Drives a [`TaskModel`] through a [`TrainConfig`].
pub struct Trainer {
    /// The run configuration.
    pub config: TrainConfig,
}

/// Mid-run state handed to [`Trainer::run`] when continuing from a
/// checkpoint.
struct Resume {
    opt: matsciml_opt::AdamWState,
    progress: crate::checkpoint::TrainProgress,
}

/// What the data pipeline delivered for one step: raw samples from a
/// synchronous load (collated inside the DDP step) or per-rank batches
/// already collated by the read-ahead workers.
enum StepData {
    Samples(Vec<Sample>),
    Collated(Vec<Batch>),
}

impl StepData {
    fn input(&self) -> StepInput<'_> {
        match self {
            StepData::Samples(samples) => StepInput::Samples(samples),
            StepData::Collated(batches) => StepInput::Collated(batches),
        }
    }
}

/// Schedule position `p` of the current epoch's frame, looking into the
/// next epoch past the end — the read-ahead window walks this sequence so
/// requests arrive in exact take order.
fn visible<'a>(
    p: usize,
    sched: &'a [Vec<usize>],
    next: &'a Option<Vec<Vec<usize>>>,
) -> Option<&'a Vec<usize>> {
    sched
        .get(p)
        .or_else(|| next.as_ref().and_then(|n| n.get(p - sched.len())))
}

/// Keep `depth` batches requested ahead of the take point, then take the
/// current batch. The first call of a run seeds the window (positions
/// `bi..bi+depth`); every later one tops it up with position `bi+depth`,
/// so request order tracks take order exactly — across epoch boundaries
/// too, since positions past this epoch's end resolve into `next_sched`,
/// which becomes the next `sched`.
#[allow(clippy::too_many_arguments)]
fn drive_readahead(
    ra: &mut ReadAhead<'_, Vec<Batch>>,
    loader: &DataLoader<'_>,
    seed_window: bool,
    bi: usize,
    depth: usize,
    sched: &[Vec<usize>],
    next_sched: &Option<Vec<Vec<usize>>>,
    batch_idx: &[usize],
    obs: &Obs,
) -> Vec<Batch> {
    if seed_window {
        for p in bi..bi + depth {
            if let Some(b) = visible(p, sched, next_sched) {
                ra.request(b);
            }
        }
    }
    if let Some(b) = visible(bi + depth, sched, next_sched) {
        ra.request(b);
    }
    ra.take_observed(loader, batch_idx, obs)
}

impl Trainer {
    /// Build a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Run the configured number of steps. `train_loader` must be
    /// configured with batch size `world_size * per_rank_batch`;
    /// `val_loader`'s batch size is free.
    pub fn train(
        &self,
        model: &mut TaskModel,
        train_loader: &DataLoader<'_>,
        val_loader: Option<&DataLoader<'_>>,
    ) -> TrainLog {
        self.train_observed(model, train_loader, val_loader, &Obs::disabled())
    }

    /// [`Trainer::train`] with instrumentation: when `obs` is enabled, the
    /// run emits the JSONL event stream documented in `docs/RUN_RECORD.md`
    /// — a `run_start` header with the full config snapshot, one `step`
    /// event per optimizer step carrying the data/forward/backward/
    /// allreduce/optimizer wall-time split and the step's simulated
    /// allreduce wire volume, one `eval` event per validation pass, and a
    /// final `summary` with per-phase quantiles and counters. With
    /// [`Obs::disabled`] this is exactly [`Trainer::train`]: every
    /// instrumentation point is one branch, no clocks are read.
    pub fn train_observed(
        &self,
        model: &mut TaskModel,
        train_loader: &DataLoader<'_>,
        val_loader: Option<&DataLoader<'_>>,
        obs: &Obs,
    ) -> TrainLog {
        self.run(model, train_loader, val_loader, obs, None)
    }

    /// Continue a checkpointed run from where it stopped. The returned
    /// log covers the resumed steps only (`progress.step..config.steps`),
    /// and the trajectory — per-step losses, gradient norms, learning
    /// rates, evaluations, final parameters — is bit-identical to a run
    /// that was never interrupted (asserted by `tests/restart_bitwise.rs`).
    ///
    /// Build the trainer with the *same* config the checkpoint carries
    /// (`Trainer::new(ckpt.config.clone())`), optionally with a larger
    /// `steps` budget to extend the run. Records the
    /// [`crate::checkpoint::CKPT_RESUME_STEP`] counter when `obs` is
    /// enabled.
    pub fn resume_observed(
        &self,
        ckpt: crate::checkpoint::TrainCheckpoint,
        train_loader: &DataLoader<'_>,
        val_loader: Option<&DataLoader<'_>>,
        obs: &Obs,
    ) -> (TaskModel, TrainLog) {
        let crate::checkpoint::TrainCheckpoint {
            mut model,
            opt,
            config: _,
            progress,
        } = ckpt;
        obs.count(crate::checkpoint::CKPT_RESUME_STEP, progress.step);
        let log = self.run(&mut model, train_loader, val_loader, obs, Some(Resume { opt, progress }));
        (model, log)
    }

    /// [`Trainer::resume_observed`] without instrumentation.
    pub fn resume(
        &self,
        ckpt: crate::checkpoint::TrainCheckpoint,
        train_loader: &DataLoader<'_>,
        val_loader: Option<&DataLoader<'_>>,
    ) -> (TaskModel, TrainLog) {
        self.resume_observed(ckpt, train_loader, val_loader, &Obs::disabled())
    }

    /// The training loop proper. `resume` rewinds the run to a checkpoint:
    /// optimizer moments are restored, the step counter starts at the
    /// checkpointed step, and the data schedule fast-forwards to the same
    /// (epoch, batch) position the uninterrupted run would occupy — the
    /// shuffle is a pure function of `(seed, epoch)`, so skipping into an
    /// epoch replays the identical batch sequence.
    fn run(
        &self,
        model: &mut TaskModel,
        train_loader: &DataLoader<'_>,
        val_loader: Option<&DataLoader<'_>>,
        obs: &Obs,
        resume: Option<Resume>,
    ) -> TrainLog {
        let cfg = &self.config;
        assert!(
            train_loader.batches_per_epoch() > 0,
            "training split ({} samples) is smaller than one effective batch \
             ({}) — enlarge the dataset or shrink world_size*per_rank_batch",
            train_loader.len(),
            cfg.world_size * cfg.per_rank_batch
        );
        let steps_per_epoch = train_loader.batches_per_epoch() as u64;
        let peak = if cfg.scale_lr_by_world {
            cfg.base_lr * cfg.world_size as f32
        } else {
            cfg.base_lr
        };
        let schedule = WarmupExpDecay {
            peak_lr: peak,
            warmup_steps: cfg.warmup_epochs * steps_per_epoch,
            steps_per_epoch,
            gamma: cfg.gamma,
        };
        assert!(
            cfg.checkpoint_every == 0 || cfg.checkpoint_dir.is_some(),
            "checkpoint_every > 0 requires checkpoint_dir"
        );
        let (mut opt, start_step, resume_best, resume_evals) = match resume {
            Some(r) => {
                assert_eq!(
                    r.opt.m.len(),
                    model.params.len(),
                    "resume: optimizer state does not match the model's parameter layout"
                );
                (
                    AdamW::from_state(r.opt),
                    r.progress.step,
                    r.progress.best_metric,
                    r.progress.evals_without_improvement,
                )
            }
            None => (
                AdamW::new(
                    &model.params,
                    AdamWConfig {
                        lr: cfg.base_lr,
                        eps: cfg.eps,
                        weight_decay: cfg.weight_decay,
                        ..Default::default()
                    },
                ),
                0,
                f32::INFINITY,
                0,
            ),
        };
        let ddp = DdpConfig {
            world_size: cfg.world_size,
            per_rank_batch: cfg.per_rank_batch,
            parallel: cfg.parallel_ranks,
            seed: cfg.seed,
            overlap: cfg.overlap_comm,
        };
        let mut probe = InstabilityProbe::new(16, 3.0);
        // Tapes live for the whole run: every step re-records onto the
        // same per-slot graphs (pooled buffers, retained arenas) — the
        // loop body constructs no graphs.
        let mut tapes = DdpTapes::new();
        let mut eval_tape = matsciml_autograd::Graph::new();
        // Validation batches recur whenever the eval schedule revisits an
        // index list; the cache then skips sample loading AND collation
        // (edge CSR + inv-degree construction) for that batch.
        let mut eval_cache = crate::collate::CollateCache::new(16);
        let mut records = Vec::with_capacity(cfg.steps.saturating_sub(start_step) as usize);
        let mut stopped_early = false;
        let mut skipped_updates = 0u64;
        let mut best_metric = resume_best;
        let mut evals_without_improvement = resume_evals;

        if obs.enabled() {
            obs.emit(&Event::run_start(RunStartEvent {
                schema: SCHEMA.to_string(),
                world_size: cfg.world_size as u64,
                per_rank_batch: cfg.per_rank_batch as u64,
                steps: cfg.steps,
                seed: cfg.seed,
                simd_isa: matsciml_tensor::simd_isa().to_string(),
                threads: rayon::current_num_threads() as u64,
                config: Json::snapshot(cfg).unwrap_or_else(|_| Json::null()),
            }));
        }
        let t_run = obs.timer();
        // Per-step comm volume is the counter's delta since the last step.
        let mut comm_seen = obs.counter(COMM_ALLREDUCE_BYTES);
        // Graph-cache traffic is attributed per step the same way: the
        // cache is process-global, so the run record reports the deltas
        // its own loads produced.
        let mut gc_seen = graph_cache_stats();

        // Worker-side collation: the read-ahead workers run the whole
        // sample → per-rank-Batch stage so edge-CSR assembly overlaps
        // with the previous step's compute. Declared ahead of the thread
        // scope so the scoped workers can borrow it.
        let per_rank = cfg.per_rank_batch;
        let world = cfg.world_size as u64;
        let collate_stage = move |samples: Vec<Sample>| -> Vec<Batch> {
            let batches = collate_ranks(&samples, per_rank);
            obs.count(DATA_COLLATE_WORKER, world);
            batches
        };

        let mut step = start_step;
        // Resume lands mid-epoch: start at the checkpointed step's
        // (epoch, batch) coordinates and skip the already-trained prefix
        // of that epoch's schedule (first epoch only).
        let start_epoch = start_step / steps_per_epoch;
        let mut first_epoch_skip = (start_step % steps_per_epoch) as usize;
        // The whole step loop runs inside one thread scope so the optional
        // read-ahead workers can borrow the loader; with read-ahead off the
        // scope is free.
        std::thread::scope(|scope| {
        // Clamp the window to one epoch: the request walk can only see
        // the current and next schedules, so a deeper window would point
        // past the horizon and never refill.
        let ra_depth = (if cfg.readahead_depth > 0 { cfg.readahead_depth } else { 4 })
            .min(steps_per_epoch as usize);
        let mut readahead = (cfg.readahead_threads > 0).then(|| {
            train_loader.spawn_readahead_with(scope, cfg.readahead_threads, ra_depth, &collate_stage)
        });
        let mut sched = train_loader.epoch_batches(start_epoch);
        'outer: for epoch in start_epoch.. {
            // The next epoch's schedule is only materialized eagerly when
            // read-ahead needs to see across the epoch boundary (the
            // shuffle is a pure function of (seed, epoch) either way).
            let mut next_sched = readahead
                .is_some()
                .then(|| train_loader.epoch_batches(epoch + 1));
            // Skipping after enumerate keeps `bi` absolute, so the
            // read-ahead window below indexes the schedule correctly.
            for (bi, batch_idx) in sched.iter().enumerate().skip(std::mem::take(&mut first_epoch_skip)) {
                if step >= cfg.steps {
                    break 'outer;
                }
                let t_step = obs.timer();
                let data = match &mut readahead {
                    Some(ra) => StepData::Collated(drive_readahead(
                        ra, train_loader, step == start_step, bi, ra_depth,
                        &sched, &next_sched, batch_idx, obs,
                    )),
                    None => StepData::Samples(train_loader.load_observed(batch_idx, obs)),
                };
                let train_metrics = ddp_step(model, data.input(), &ddp, step, obs, &mut tapes);
                let opt_span = obs.span(Phase::Optimizer);
                let loss = train_metrics.get("loss").unwrap_or(f32::NAN);
                let lr = schedule.lr(step);
                opt.set_lr(lr);
                let (grad_norm, applied) = opt.step_observed(
                    &mut model.params,
                    &mut probe,
                    loss,
                    cfg.clip_norm,
                    cfg.skip_nonfinite_updates,
                );
                skipped_updates += u64::from(!applied);
                drop(opt_span);

                // The step event closes before any evaluation runs, so the
                // five phase durations partition `total_us` (the acceptance
                // bound: phases sum to within 10% of the step wall time).
                if obs.enabled() {
                    let total_us = Obs::lap_ns(t_step) / 1_000;
                    let data_us = obs.take_phase_us(Phase::Data);
                    let forward_us = obs.take_phase_us(Phase::Forward);
                    let backward_us = obs.take_phase_us(Phase::Backward);
                    let allreduce_us = obs.take_phase_us(Phase::Allreduce);
                    let optimizer_us = obs.take_phase_us(Phase::Optimizer);
                    let comm_total = obs.counter(COMM_ALLREDUCE_BYTES);
                    let comm_bytes = comm_total - comm_seen;
                    comm_seen = comm_total;
                    let gc_total = graph_cache_stats();
                    let gc = gc_total.since(&gc_seen);
                    gc_seen = gc_total;
                    obs.count(DATA_GRAPH_CACHE_HIT, gc.hits);
                    obs.count(DATA_GRAPH_CACHE_MISS, gc.misses);
                    obs.count(DATA_GRAPH_CACHE_EVICT, gc.evictions);
                    obs.observe("phase/data_us", data_us as f64);
                    obs.observe("phase/forward_us", forward_us as f64);
                    obs.observe("phase/backward_us", backward_us as f64);
                    obs.observe("phase/allreduce_us", allreduce_us as f64);
                    obs.observe("phase/optimizer_us", optimizer_us as f64);
                    obs.observe("phase/step_us", total_us as f64);
                    obs.emit(&Event::step(StepEvent {
                        step,
                        epoch,
                        lr,
                        loss,
                        grad_norm,
                        data_us,
                        forward_us,
                        backward_us,
                        allreduce_us,
                        optimizer_us,
                        total_us,
                        comm_bytes,
                        train: train_metrics.0.clone(),
                    }));
                }

                let due = cfg.eval_every > 0
                    && (step.is_multiple_of(cfg.eval_every) || step + 1 == cfg.steps);
                let val = match val_loader {
                    Some(loader) if due => {
                        let t_eval = obs.timer();
                        let metrics = self.evaluate_inner(
                            &mut eval_tape,
                            model,
                            loader,
                            step,
                            Some(&mut eval_cache),
                            obs,
                        );
                        if obs.enabled() {
                            let duration_us = Obs::lap_ns(t_eval) / 1_000;
                            obs.observe("phase/eval_us", duration_us as f64);
                            obs.emit(&Event::eval(EvalEvent {
                                step,
                                duration_us,
                                metrics: metrics.0.clone(),
                            }));
                        }
                        Some(metrics)
                    }
                    _ => None,
                };

                if let (Some(es), Some(v)) = (&cfg.early_stop, &val) {
                    if let Some(current) = v.get(&es.metric) {
                        if current < best_metric - 1e-9 {
                            best_metric = current;
                            evals_without_improvement = 0;
                        } else {
                            evals_without_improvement += 1;
                        }
                    }
                }

                records.push(TrainRecord {
                    step,
                    epoch,
                    lr,
                    train: train_metrics,
                    grad_norm,
                    val,
                });
                step += 1;

                if cfg.checkpoint_every > 0 && step.is_multiple_of(cfg.checkpoint_every) {
                    let dir = cfg.checkpoint_dir.as_deref().expect("validated above");
                    let path = Path::new(dir).join(format!("step{step}.mckpt"));
                    let progress = crate::checkpoint::TrainProgress {
                        step,
                        best_metric,
                        evals_without_improvement,
                    };
                    // A failed save is an environment fault (disk full,
                    // permissions) the run cannot meaningfully continue
                    // past — its whole point was durable progress.
                    crate::checkpoint::save_checkpoint(
                        &path,
                        model,
                        &opt.export_state(),
                        cfg,
                        progress,
                        obs,
                    )
                    .unwrap_or_else(|e| {
                        panic!("checkpoint save to {} failed: {e}", path.display())
                    });
                }

                if let Some(es) = &cfg.early_stop {
                    if evals_without_improvement >= es.patience {
                        stopped_early = true;
                        break 'outer;
                    }
                }
            }
            sched = next_sched
                .take()
                .unwrap_or_else(|| train_loader.epoch_batches(epoch + 1));
        }
        });

        let log = TrainLog {
            records,
            stopped_early,
            skipped_updates,
            spike_steps: probe.spikes.iter().map(|s| s.step).collect(),
            mean_grad_time_correlation: probe.mean_time_correlation(),
        };

        if let Some(rec) = obs.recorder() {
            obs.emit(&Event::summary(SummaryEvent {
                steps: step,
                wall_time_us: Obs::lap_ns(t_run) / 1_000,
                stopped_early: log.stopped_early,
                skipped_updates: log.skipped_updates,
                spike_steps: log.spike_steps.clone(),
                phases: rec.quantiles(),
                counters: rec.counters(),
                final_val: log.final_val().map(|m| m.0.clone()).unwrap_or_default(),
            }));
            obs.flush();
        }

        log
    }

    /// Mean metrics over up to `eval_batches` validation batches.
    pub fn evaluate(&self, model: &TaskModel, val_loader: &DataLoader<'_>, step: u64) -> MetricMap {
        self.evaluate_pooled(&mut matsciml_autograd::Graph::new(), model, val_loader, step)
    }

    /// [`Trainer::evaluate`] over a caller-owned tape, reset per batch —
    /// the pooled path the training loop uses so evaluation allocates no
    /// graphs either.
    pub fn evaluate_pooled(
        &self,
        g: &mut matsciml_autograd::Graph,
        model: &TaskModel,
        val_loader: &DataLoader<'_>,
        step: u64,
    ) -> MetricMap {
        self.evaluate_inner(g, model, val_loader, step, None, &Obs::disabled())
    }

    /// Shared evaluation body: optionally serves batches through a
    /// [`crate::collate::CollateCache`] (the training loop passes a
    /// run-long cache; one-shot callers pass `None` and collate fresh).
    /// Cached and fresh batches are identical — transforms are
    /// deterministic — so the cache cannot change any metric.
    fn evaluate_inner(
        &self,
        g: &mut matsciml_autograd::Graph,
        model: &TaskModel,
        val_loader: &DataLoader<'_>,
        step: u64,
        mut cache: Option<&mut crate::collate::CollateCache>,
        obs: &Obs,
    ) -> MetricMap {
        let batches = val_loader.epoch_batches(step); // deterministic per step
        assert!(
            !batches.is_empty(),
            "validation split ({} samples) is smaller than the eval batch size — \
             shrink the loader's batch size",
            val_loader.len()
        );
        let take = self.config.eval_batches.min(batches.len()).max(1);
        let mut all = Vec::with_capacity(take);
        for b in batches.iter().take(take) {
            let mut ctx = matsciml_nn::ForwardCtx::eval();
            let (_loss, metrics) = match cache.as_deref_mut() {
                Some(c) => {
                    let batch = c.get_or_collate(val_loader, b, obs);
                    model.forward_into(g, batch, &mut ctx)
                }
                None => {
                    let samples = val_loader.load(b);
                    let batch = crate::collate::collate(&samples);
                    model.forward_into(g, &batch, &mut ctx)
                }
            };
            all.push(metrics);
        }
        // Release the tape here so it holds no parameter handles into the
        // next optimizer update.
        g.reset();
        MetricMap::mean_of(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TargetKind, TaskHeadConfig};
    use matsciml_datasets::{Compose, DatasetId, Split, SyntheticMaterialsProject};
    use matsciml_models::EgnnConfig;

    fn quick_config(steps: u64) -> TrainConfig {
        TrainConfig {
            world_size: 2,
            per_rank_batch: 4,
            steps,
            base_lr: 2e-3,
            scale_lr_by_world: true,
            warmup_epochs: 1,
            gamma: 0.9,
            weight_decay: 0.0,
            eps: 1e-8,
            clip_norm: Some(10.0),
            eval_every: 5,
            eval_batches: 2,
            parallel_ranks: false,
            seed: 1,
            early_stop: None,
            skip_nonfinite_updates: false,
            overlap_comm: false,
            readahead_threads: 0,
            readahead_depth: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn training_reduces_band_gap_loss() {
        let ds = SyntheticMaterialsProject::new(256, 11);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.25, 8, 1);
        let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.25, 8, 1);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(16),
            &[TaskHeadConfig {
                dropout: 0.0,
                ..TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 32, 2)
            }],
            3,
        );
        let mut cfg = quick_config(40);
        cfg.base_lr = 5e-4; // gentle: heads start at the zero function
        let trainer = Trainer::new(cfg);
        let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
        assert_eq!(log.records.len(), 40);
        // Per-batch training loss is high-variance (8 samples, unnormalized
        // eV-scale targets); assert on the validation series instead.
        let series = log.val_series("materials-project/band_gap/mae");
        assert!(series.len() >= 3, "validation was recorded");
        let first = series[0].1;
        let best = log.best_val("materials-project/band_gap/mae").unwrap();
        assert!(
            best < first,
            "validation MAE never improved: first {first}, best {best}"
        );
        assert!(log.final_val().is_some());
    }

    #[test]
    fn lr_schedule_is_visible_in_records() {
        let ds = SyntheticMaterialsProject::new(128, 12);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, 8, 2);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            4,
        );
        let mut cfg = quick_config(20);
        cfg.eval_every = 0;
        let trainer = Trainer::new(cfg);
        let log = trainer.train(&mut model, &train_dl, None);
        // Warmup: lr strictly increases over the first epoch.
        let spe = train_dl.batches_per_epoch();
        for w in log.records[..spe.min(log.records.len())].windows(2) {
            assert!(w[1].lr >= w[0].lr);
        }
        // Peak equals base_lr * world_size.
        let max_lr = log.records.iter().map(|r| r.lr).fold(0.0f32, f32::max);
        assert!((max_lr - 2e-3 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn sparkline_renders_and_handles_edge_cases() {
        let mk = |vals: &[f32]| TrainLog {
            records: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let mut m = MetricMap::new();
                    m.set("x", v);
                    TrainRecord {
                        step: i as u64,
                        epoch: 0,
                        lr: 0.0,
                        train: MetricMap::new(),
                        grad_norm: 0.0,
                        val: Some(m),
                    }
                })
                .collect(),
            stopped_early: false,
            skipped_updates: 0,
            spike_steps: vec![],
            mean_grad_time_correlation: 0.0,
        };
        let log = mk(&[1.0, 2.0, 3.0, 4.0]);
        let s = log.sparkline("x", 4);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        // Missing metric.
        assert_eq!(log.sparkline("nope", 4), "(no data)");
        // Non-finite values marked.
        let log = mk(&[1.0, f32::NAN, 3.0]);
        assert!(log.sparkline("x", 3).contains('✗'));
        // Log scaling engages across decades without panicking.
        let log = mk(&[0.001, 1.0, 1000.0]);
        assert_eq!(log.sparkline("x", 3).chars().count(), 3);
    }

    #[test]
    fn nonfinite_gradients_can_be_skipped() {
        let ds = SyntheticMaterialsProject::new(64, 23);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, 8, 23);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            23,
        );
        // Poison the whole embedding table so every forward produces NaN
        // losses and therefore NaN gradients.
        model.params.value_mut(matsciml_nn::ParamId(0)).fill_inplace(f32::NAN);
        let mut cfg = quick_config(3);
        cfg.eval_every = 0;
        cfg.clip_norm = None;
        cfg.skip_nonfinite_updates = true;
        let trainer = Trainer::new(cfg);
        let log = trainer.train(&mut model, &train_dl, None);
        assert!(log.skipped_updates >= 1, "poisoned gradients must be skipped");
        // Without updates the untouched parameters stay finite (only the
        // poisoned leaf is NaN) — the optimizer state was protected.
        let finite_params = (1..model.params.len())
            .all(|i| model.params.value(matsciml_nn::ParamId(i)).all_finite());
        assert!(finite_params, "skipping must protect parameters from NaN spread");
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let ds = SyntheticMaterialsProject::new(64, 21);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, 8, 21);
        let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, 8, 21);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            21,
        );
        let mut cfg = quick_config(200);
        cfg.base_lr = 0.0; // never improves → patience must fire
        cfg.eval_every = 1;
        cfg.early_stop = Some(crate::trainer::EarlyStop {
            metric: "materials-project/band_gap/mae".into(),
            patience: 3,
        });
        let trainer = Trainer::new(cfg);
        let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
        assert!(log.stopped_early, "zero-lr run must trigger early stopping");
        assert!(
            log.records.len() < 20,
            "should stop within a handful of evals, ran {}",
            log.records.len()
        );
    }

    #[test]
    fn early_stopping_does_not_fire_while_improving() {
        let ds = SyntheticMaterialsProject::new(128, 22);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, 8, 22);
        let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, 8, 22);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            22,
        );
        let mut cfg = quick_config(10);
        cfg.base_lr = 5e-4;
        cfg.eval_every = 2;
        cfg.early_stop = Some(crate::trainer::EarlyStop {
            metric: "materials-project/band_gap/mae".into(),
            patience: 50, // effectively disabled
        });
        let trainer = Trainer::new(cfg);
        let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
        assert!(!log.stopped_early);
        assert_eq!(log.records.len(), 10);
    }

    #[test]
    fn csv_has_stable_columns_and_rows() {
        let ds = SyntheticMaterialsProject::new(64, 13);
        let pipeline = Compose::standard(4.5, Some(12));
        let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, 8, 3);
        let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, 4, 3);
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            5,
        );
        let trainer = Trainer::new(quick_config(6));
        let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 7, "header + 6 rows");
        assert!(lines[0].starts_with("step,epoch,lr,grad_norm"));
        assert!(lines[0].contains("val/materials-project/band_gap/mae"));
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols);
        }
    }
}
