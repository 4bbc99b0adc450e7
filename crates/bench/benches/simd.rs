//! Scalar vs SIMD lane tier on the paper-shape E(n)-GNN forward/backward.
//!
//! Both arms run the production configuration — one persistent tape
//! reset per step — and differ only in `set_simd_enabled`: the
//! **scalar** arm replays the canonical 4-chain scalar kernels, the
//! **simd** arm dispatches the same ops to the register-blocked
//! `core::arch` bodies. The two are bit-identical
//! by construction (asserted per rep on the loss, and end-to-end by the
//! train crate's `simd_bitwise` trajectory test), so the timed gap is
//! pure instruction selection: vector width and the register-held
//! accumulator tiles that stop the gemm inner loop from round-tripping
//! `z` through the store buffer once per `k`.
//!
//! Run with `cargo bench --bench simd`. Emits `BENCH_simd.json` at the
//! repo root: steps/sec and step-time quantiles per arm, speedup
//! (asserted ≥ 1.3×), and the lane-tier counter traffic per step.

use matsciml::autograd::Graph;
use matsciml::datasets::{Dataset, DatasetId, GraphTransform, SyntheticMaterialsProject, Transform};
use matsciml::models::EgnnConfig;
use matsciml::nn::ForwardCtx;
use matsciml::tensor::{set_simd_enabled, simd_stats};
use matsciml::train::{collate, TargetKind, TaskHeadConfig, TaskModel};
use matsciml_bench::harness::{rotate, timed, write_report, ArmStats};
use serde::Serialize;

#[derive(Serialize)]
struct Arm {
    steps_per_sec: f64,
    /// 4-lane groups the vector kernels processed per step.
    lane_ops_per_step: u64,
    /// Kernel entries that fell back to the scalar path per step.
    fallback_hits_per_step: u64,
    step_s: ArmStats,
}

#[derive(Serialize)]
struct Report {
    hidden: usize,
    batch: usize,
    loss_bits_match: bool,
    scalar: Arm,
    simd: Arm,
    speedup: f64,
}

fn main() {
    // Paper shape: hidden/message width 256. A single rank's batch.
    let config = EgnnConfig::paper();
    let hidden = config.hidden;
    let model = TaskModel::egnn(
        config,
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 256, 3)],
        17,
    );
    let ds = SyntheticMaterialsProject::new(8, 17);
    let t = GraphTransform::radius(4.5, Some(12));
    let samples: Vec<_> = (0..4).map(|i| t.apply(ds.sample(i))).collect();
    let batch = collate(&samples);
    let reps = 9;

    let mut tape = Graph::new();
    // Arm 0 is scalar, arm 1 simd. One step returns its seconds, loss
    // bits and lane-counter deltas.
    let mut step = |simd_on: bool| {
        set_simd_enabled(simd_on);
        let before = simd_stats();
        let (secs, loss) = timed(|| {
            let mut ctx = ForwardCtx::train(17);
            let (loss, _m) = model.forward_into(&mut tape, &batch, &mut ctx);
            tape.backward(loss);
            tape.value(loss).item()
        });
        (secs, loss.to_bits(), simd_stats().since(&before))
    };

    // Warm both arms (pool populated, lazy inits done) off the clock.
    step(false);
    step(true);
    let runs = rotate(2, reps, |arm, _| step(arm == 1));
    // Per-rep bit identity: the lane tier must not move the loss.
    let bits_match = runs[0].iter().zip(&runs[1]).all(|(a, b)| a.1 == b.1);
    assert!(bits_match, "scalar and SIMD losses must agree bit for bit on every rep");

    let calls = reps as u64;
    let arm = |runs: &[(f64, u32, matsciml::tensor::SimdStats)]| {
        let secs: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let step_s = ArmStats::of("s/step", &secs);
        Arm {
            steps_per_sec: 1.0 / step_s.median,
            lane_ops_per_step: runs.iter().map(|r| r.2.lane_ops).sum::<u64>() / calls,
            fallback_hits_per_step: runs.iter().map(|r| r.2.fallback_hits).sum::<u64>() / calls,
            step_s,
        }
    };
    let (scalar, simd) = (arm(&runs[0]), arm(&runs[1]));
    let speedup = scalar.step_s.median / simd.step_s.median;
    println!(
        "simd bench (EGNN hidden={hidden}, batch={}): scalar {:.2} ms, simd {:.2} ms, \
         speedup {speedup:.2}x",
        samples.len(),
        scalar.step_s.median * 1e3,
        simd.step_s.median * 1e3,
    );
    println!(
        "lane traffic per step: scalar {} lane ops / {} fallbacks, simd {} lane ops / {} fallbacks",
        scalar.lane_ops_per_step,
        scalar.fallback_hits_per_step,
        simd.lane_ops_per_step,
        simd.fallback_hits_per_step,
    );

    assert!(
        speedup >= 1.3,
        "SIMD lane tier must clear 1.3x on the paper-shape EGNN, got {speedup:.2}x"
    );

    write_report(
        "simd",
        &Report {
            hidden,
            batch: samples.len(),
            loss_bits_match: bits_match,
            scalar,
            simd,
            speedup,
        },
    );
}
