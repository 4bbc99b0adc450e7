//! Disabled-instrumentation overhead bound: the acceptance criterion is
//! that the trainer built against `Obs` costs <2% extra step time when
//! observability is off (so Fig. 2 throughput numbers are unaffected).
//!
//! Comparing two full training runs is hopelessly noisy on shared CI
//! hardware (run-to-run variance of the *same* binary can exceed 2%), so
//! this test bounds the overhead analytically from its parts: it measures
//! (a) the real cost of one training step on this machine and (b) the
//! per-call cost of the disabled-`Obs` primitives, then asserts that even
//! a generous over-count of instrumentation points per step stays far
//! under 2% of (a).

use std::hint::black_box;
use std::time::Instant;

use matsciml_datasets::{Dataset, DatasetId, GraphTransform, Sample, SyntheticMaterialsProject, Transform};
use matsciml_models::EgnnConfig;
use matsciml_obs::{Obs, Phase};
use matsciml_train::throughput::measure_rank_cost;
use matsciml_train::{TargetKind, TaskHeadConfig, TaskModel};

/// Upper bound on disabled-Obs call sites exercised per training step
/// (trainer + loader + DDP step at world 2 is ~15; take 4× headroom).
const CALLS_PER_STEP: u64 = 64;

fn setup() -> (TaskModel, Vec<Sample>) {
    let model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        1,
    );
    let ds = SyntheticMaterialsProject::new(8, 1);
    let t = GraphTransform::radius(4.0, Some(12));
    let samples = (0..8).map(|i| t.apply(ds.sample(i))).collect();
    (model, samples)
}

#[test]
fn disabled_obs_costs_under_two_percent_of_step_time() {
    // (a) Real per-step cost: one rank's forward+backward on a 4-sample
    // batch — the *smallest* work unit a step contains, so the bound below
    // is conservative (real steps do this per rank, plus reduction).
    let (model, samples) = setup();
    let step_seconds = measure_rank_cost(&model, &samples[..4], 3).step_seconds;
    assert!(step_seconds > 0.0);

    // (b) Per-call cost of the disabled primitives, measured over a large
    // loop of the exact mix the hot path uses.
    let obs = Obs::disabled();
    const ITERS: u64 = 100_000;
    let t0 = Instant::now();
    for i in 0..ITERS {
        black_box(obs.enabled());
        black_box(obs.span(Phase::Forward));
        let t = black_box(obs.timer());
        black_box(Obs::lap_ns(t));
        obs.add_phase_ns(Phase::Allreduce, black_box(i));
        obs.count("comm/allreduce_bytes", black_box(i));
        obs.observe("phase/step_us", black_box(i as f64));
        black_box(obs.take_phase_us(Phase::Data));
    }
    // 8 primitive calls per iteration.
    let per_call_seconds = t0.elapsed().as_secs_f64() / (ITERS * 8) as f64;

    let overhead_per_step = per_call_seconds * CALLS_PER_STEP as f64;
    let ratio = overhead_per_step / step_seconds;
    assert!(
        ratio < 0.02,
        "disabled instrumentation costs {:.4}% of a step ({:.1}ns/call × {CALLS_PER_STEP} calls vs {:.3}ms step)",
        ratio * 100.0,
        per_call_seconds * 1e9,
        step_seconds * 1e3
    );
}

#[test]
fn recorded_step_matches_disabled_obs_step_bitwise() {
    // Instrumentation only observes: a step recorded into a live (null-
    // sink) recorder must be the same computation as a disabled-obs step
    // — not approximately, bit-for-bit.
    use matsciml_train::{ddp_step, DdpConfig, DdpTapes, StepInput};
    let cfg = DdpConfig {
        world_size: 2,
        per_rank_batch: 2,
        parallel: false,
        seed: 3,
        overlap: false,
    };
    let (_, samples) = setup();

    let run = |obs: Obs| {
        let (mut m, _) = setup();
        let input = StepInput::Samples(&samples[..4]);
        let metrics = ddp_step(&mut m, input, &cfg, 1, &obs, &mut DdpTapes::new());
        (metrics, m.params.grads().to_vec())
    };
    let (ma, ga) = run(Obs::disabled());
    let (mb, gb) = run(Obs::null());
    assert_eq!(ma, mb);
    assert_eq!(ga, gb);
}
