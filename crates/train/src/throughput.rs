//! Throughput measurement and the scale-out performance model behind the
//! Fig. 2 reproduction.
//!
//! The paper measures samples/second on 1–32 dual-socket Xeon nodes (16
//! DDP ranks per node) over HDR200 InfiniBand and observes linear scaling —
//! gradient allreduce is negligible next to per-rank compute. This machine
//! cannot run 512 MPI ranks, so the reproduction combines:
//!
//! * a **measured** per-rank step time (real forward/backward on real
//!   batches, medians over repeats), and a measured local gradient-
//!   reduction cost, with
//! * an **analytic ring-allreduce model** for the interconnect
//!   (`2·(N−1)/N · bytes / bandwidth + 2·log₂N · latency`), parameterized
//!   to HDR200 (200 Gb/s, ~1 µs).
//!
//! `samples_per_sec(N) = N·B / (t_compute + t_allreduce(N))`. With the
//! paper's model sizes the allreduce term is 2–3 orders of magnitude below
//! compute, which is exactly why the paper's Fig. 2 is linear; the model
//! makes that quantitative and the bench binary reports both terms.

use std::time::Instant;

use matsciml_datasets::Sample;
use matsciml_nn::ForwardCtx;
use serde::{Deserialize, Serialize};

use crate::collate::collate;
use crate::model::TaskModel;

/// Measured single-rank cost of one training step.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RankCost {
    /// Median seconds for one forward+backward on a per-rank batch.
    pub step_seconds: f64,
    /// Per-rank batch size the measurement used.
    pub per_rank_batch: usize,
    /// Total gradient bytes exchanged per step — the flat-bucket wire size
    /// ([`matsciml_nn::BucketLayout::bytes`]), i.e. f32 scalars packed
    /// contiguously with no per-tensor framing.
    pub grad_bytes: usize,
}

/// Measure the per-rank step cost: median of `repeats` forward/backward
/// passes over `shard` (after one warmup pass).
pub fn measure_rank_cost(model: &TaskModel, shard: &[Sample], repeats: usize) -> RankCost {
    assert!(!shard.is_empty() && repeats >= 1);
    let run = || {
        let batch = collate(shard);
        let mut ctx = ForwardCtx::train(0);
        let (mut g, loss, _m) = model.forward(&batch, &mut ctx);
        g.backward(loss);
        std::hint::black_box(g.param_grads().count());
    };
    run(); // warmup (allocators, caches)
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    RankCost {
        step_seconds: times[times.len() / 2],
        per_rank_batch: shard.len(),
        grad_bytes: model.params.bucket_layout().bytes(),
    }
}

/// Analytic interconnect model for gradient allreduce.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Interconnect {
    /// Link bandwidth in bits/second.
    pub bandwidth_bps: f64,
    /// Per-hop latency in seconds.
    pub latency_s: f64,
}

impl Interconnect {
    /// Mellanox HDR200 (the paper's fabric): 200 Gb/s, ~1 µs.
    pub fn hdr200() -> Self {
        Interconnect {
            bandwidth_bps: 200e9,
            latency_s: 1e-6,
        }
    }

    /// Ring-allreduce time for `bytes` of gradients over `n` ranks.
    pub fn allreduce_seconds(&self, bytes: usize, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let payload = 2.0 * (n as f64 - 1.0) / n as f64 * bytes as f64 * 8.0 / self.bandwidth_bps;
        let hops = 2.0 * (n as f64).log2().ceil() * self.latency_s;
        payload + hops
    }
}

/// One row of the Fig. 2 throughput table.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// World size N.
    pub workers: usize,
    /// Modeled samples/second.
    pub samples_per_sec: f64,
    /// Time to traverse `dataset_size` samples once.
    pub epoch_seconds: f64,
    /// Compute share of the step time.
    pub compute_seconds: f64,
    /// Allreduce share of the step time.
    pub allreduce_seconds: f64,
}

/// The calibrated scale-out model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ThroughputModel {
    /// Measured per-rank cost.
    pub cost: RankCost,
    /// Interconnect parameters.
    pub net: Interconnect,
}

impl ThroughputModel {
    /// Throughput at world size `n` for an epoch of `dataset_size` samples.
    pub fn at(&self, n: usize, dataset_size: usize) -> ThroughputPoint {
        let t_allreduce = self.net.allreduce_seconds(self.cost.grad_bytes, n);
        let t_step = self.cost.step_seconds + t_allreduce;
        let samples_per_sec = (n * self.cost.per_rank_batch) as f64 / t_step;
        ThroughputPoint {
            workers: n,
            samples_per_sec,
            epoch_seconds: dataset_size as f64 / samples_per_sec,
            compute_seconds: self.cost.step_seconds,
            allreduce_seconds: t_allreduce,
        }
    }

    /// Least-squares slope of samples/sec vs workers through the origin
    /// (the paper overlays this linear fit on Fig. 2).
    pub fn linear_fit_slope(&self, ns: &[usize], dataset_size: usize) -> f64 {
        let pts: Vec<ThroughputPoint> = ns.iter().map(|&n| self.at(n, dataset_size)).collect();
        let num: f64 = pts.iter().map(|p| p.workers as f64 * p.samples_per_sec).sum();
        let den: f64 = pts.iter().map(|p| (p.workers as f64).powi(2)).sum();
        num / den
    }
}

/// Measure *real* multi-threaded DDP throughput (ranks on OS threads) for
/// world sizes that fit this machine; used to validate the model's shape
/// where hardware permits.
///
/// The bucketed reduction caps useful parallelism at
/// `reduce_slots(world_size)` folding threads, so callers validating
/// thread scaling should compare against
/// `min(cores, `[`matsciml_nn::bucket::reduce_slots`]`(world_size))`
/// effective workers rather than raw `world_size`.
pub fn measure_real_threads(
    model: &mut TaskModel,
    samples: &[Sample],
    world_size: usize,
    per_rank_batch: usize,
    steps: u64,
) -> f64 {
    measure_real_threads_observed(
        model,
        samples,
        world_size,
        per_rank_batch,
        steps,
        &matsciml_obs::Obs::disabled(),
    )
}

/// [`measure_real_threads`] with instrumentation: when `obs` is enabled,
/// every DDP step records its phase split and comm counters into the
/// recorder (the measured rate itself is unchanged — the probe loop pays
/// only the per-step span cost, which the overhead test bounds).
pub fn measure_real_threads_observed(
    model: &mut TaskModel,
    samples: &[Sample],
    world_size: usize,
    per_rank_batch: usize,
    steps: u64,
    obs: &matsciml_obs::Obs,
) -> f64 {
    use crate::ddp::{ddp_step, DdpConfig, DdpTapes, StepInput};
    let cfg = DdpConfig {
        world_size,
        per_rank_batch,
        parallel: true,
        seed: 0,
        overlap: false,
    };
    let need = cfg.effective_batch();
    assert!(samples.len() >= need, "need at least {need} samples");
    let mut tapes = DdpTapes::new();
    let t0 = Instant::now();
    for step in 0..steps {
        let t_step = obs.timer();
        ddp_step(model, StepInput::Samples(&samples[..need]), &cfg, step, obs, &mut tapes);
        obs.observe("throughput/step_us", (matsciml_obs::Obs::lap_ns(t_step) / 1_000) as f64);
    }
    (need as u64 * steps) as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TargetKind, TaskHeadConfig};
    use crate::TaskModel;
    use matsciml_datasets::{Dataset, DatasetId, GraphTransform, SyntheticMaterialsProject, Transform};
    use matsciml_models::EgnnConfig;

    fn setup() -> (TaskModel, Vec<Sample>) {
        let model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            1,
        );
        let ds = SyntheticMaterialsProject::new(16, 1);
        let t = GraphTransform::radius(4.0, Some(12));
        let samples = (0..16).map(|i| t.apply(ds.sample(i))).collect();
        (model, samples)
    }

    #[test]
    fn rank_cost_is_positive_and_counts_grad_bytes() {
        let (model, samples) = setup();
        let cost = measure_rank_cost(&model, &samples[..4], 3);
        assert!(cost.step_seconds > 0.0);
        assert_eq!(cost.per_rank_batch, 4);
        assert_eq!(cost.grad_bytes, model.params.num_scalars() * 4);
    }

    #[test]
    fn allreduce_model_behaves() {
        let net = Interconnect::hdr200();
        assert_eq!(net.allreduce_seconds(1_000_000, 1), 0.0);
        let t2 = net.allreduce_seconds(1_000_000, 2);
        let t512 = net.allreduce_seconds(1_000_000, 512);
        assert!(t2 > 0.0);
        // Ring allreduce payload saturates at 2·bytes/BW; latency grows
        // logarithmically — t512 is larger but the same order.
        assert!(t512 > t2 && t512 < t2 * 10.0, "{t2} vs {t512}");
    }

    #[test]
    fn modeled_scaling_is_nearly_linear_when_compute_dominates() {
        let cost = RankCost {
            step_seconds: 0.5,
            per_rank_batch: 32,
            grad_bytes: 4_000_000,
        };
        let model = ThroughputModel {
            cost,
            net: Interconnect::hdr200(),
        };
        let p16 = model.at(16, 2_000_000);
        let p512 = model.at(512, 2_000_000);
        let ratio = p512.samples_per_sec / p16.samples_per_sec;
        assert!(
            (ratio - 32.0).abs() < 0.5,
            "expected ~32x scaling 16→512 ranks, got {ratio}"
        );
        // Epoch time at paper scale is minutes, as the paper reports.
        assert!(p512.epoch_seconds < 300.0);
        // Allreduce stays orders of magnitude below compute.
        assert!(p512.allreduce_seconds < 0.01 * p512.compute_seconds);
    }

    #[test]
    fn linear_fit_slope_matches_per_worker_rate() {
        let cost = RankCost {
            step_seconds: 1.0,
            per_rank_batch: 10,
            grad_bytes: 1_000_000,
        };
        let model = ThroughputModel {
            cost,
            net: Interconnect::hdr200(),
        };
        let slope = model.linear_fit_slope(&[16, 32, 64, 128, 256, 512], 1000);
        assert!((slope - 10.0).abs() < 0.1, "slope {slope} ≈ B/t_step = 10");
    }

    #[test]
    fn real_thread_measurement_runs() {
        let (mut model, samples) = setup();
        let rate = measure_real_threads(&mut model, &samples, 2, 2, 2);
        assert!(rate > 0.0);
    }
}
