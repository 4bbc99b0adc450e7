//! Sequential vs overlapped DDP step on the paper-shape E(n)-GNN.
//!
//! Both arms are one `ddp_step`: the flat gradient is split into
//! size-capped parts in reverse registration order, backward hooks fold
//! each gradient into its part, and a part is sent to the reducer the
//! moment its last gradient is final. The arms differ only in
//! `DdpConfig::overlap`:
//!
//! * **sequential** (`overlap: false`): the reducer runs inline after
//!   every rank's backward completes — all communication is exposed on
//!   the critical path;
//! * **overlapped** (`overlap: true`): the reducer runs on a comm thread
//!   and tree-reduces each part across rank slots while earlier-layer
//!   backward still executes.
//!
//! The two arms are bit-identical by construction (same pairwise tree,
//! same per-part combine order — only *when* a part reduces changes),
//! asserted here on every reduced-loss rep and by the train crate's
//! `overlap_bitwise` and `golden_digests` tests on full trajectories.
//!
//! Arms are timed in rotating order so background load perturbs both
//! instead of biasing one. The ≥1.2× speedup assertion only applies when
//! the host grants enough real threads for backward and communication to
//! actually overlap (`std::thread::available_parallelism() ≥ 4`); on a
//! single-core runner the bench still verifies bit-identity and records
//! the observed ratio with `speedup_asserted: false`.
//!
//! Run with `cargo bench --bench overlap`. Emits `BENCH_overlap.json` at
//! the repo root: steps/sec and step-time quantiles per arm, speedup and
//! the thread gate.

use matsciml::datasets::{Dataset, DatasetId, GraphTransform, SyntheticMaterialsProject, Transform};
use matsciml::models::EgnnConfig;
use matsciml::obs::Obs;
use matsciml::train::{
    ddp_step, DdpConfig, DdpTapes, StepInput, TargetKind, TaskHeadConfig, TaskModel,
};
use matsciml_bench::harness::{rotate, timed, write_report, ArmStats};
use serde::Serialize;

const WORLD: usize = 4;
const PER_RANK: usize = 1;

#[derive(Serialize)]
struct Report {
    hidden: usize,
    world: usize,
    per_rank_batch: usize,
    threads: usize,
    sequential_steps_per_sec: f64,
    overlapped_steps_per_sec: f64,
    sequential: ArmStats,
    overlapped: ArmStats,
    speedup: f64,
    /// Whether the ≥1.2× bound was asserted (requires ≥4 real threads).
    speedup_asserted: bool,
    loss_bits_match: bool,
}

fn main() {
    // Paper shape: hidden/message width 256.
    let config = EgnnConfig::paper();
    let hidden = config.hidden;
    let mut model = TaskModel::egnn(
        config,
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 256, 3)],
        17,
    );
    let ds = SyntheticMaterialsProject::new(WORLD * PER_RANK, 17);
    let t = GraphTransform::radius(4.5, Some(12));
    let samples: Vec<_> = (0..WORLD * PER_RANK).map(|i| t.apply(ds.sample(i))).collect();

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seq = DdpConfig {
        world_size: WORLD,
        per_rank_batch: PER_RANK,
        parallel: threads > 1,
        seed: 17,
        overlap: false,
    };
    // Arm 0 is sequential, arm 1 overlapped; each keeps its own tapes.
    let configs = [seq, DdpConfig { overlap: true, ..seq }];
    let input = StepInput::Samples(&samples);
    let obs = Obs::disabled();
    let mut tapes = [DdpTapes::new(), DdpTapes::new()];
    let reps = 7;

    // Warmup both arms (tapes and pool reach steady state), then time in
    // rotation. One step returns its seconds and loss bits.
    let mut step = |arm: usize, step: u64| {
        let (secs, m) =
            timed(|| ddp_step(&mut model, input, &configs[arm], step, &obs, &mut tapes[arm]));
        (secs, m.get("loss").unwrap().to_bits())
    };
    assert_eq!(step(0, 0).1, step(1, 0).1, "warmup losses must agree bit for bit");
    let runs = rotate(2, reps, |arm, rep| step(arm, rep as u64 + 1));
    for (rep, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(a.1, b.1, "rep {rep}: losses diverged");
    }
    let stats = |arm: usize| {
        let secs: Vec<f64> = runs[arm].iter().map(|r| r.0).collect();
        ArmStats::of("s/step", &secs)
    };
    let (sequential, overlapped) = (stats(0), stats(1));
    let speedup = sequential.median / overlapped.median;
    let gate = threads >= WORLD;

    println!(
        "overlap bench (EGNN hidden={hidden}, world={WORLD}, B={PER_RANK}, {threads} threads): \
         sequential {:.2} ms, overlapped {:.2} ms, speedup {speedup:.2}x{}",
        sequential.median * 1e3,
        overlapped.median * 1e3,
        if gate { "" } else { " (not asserted: too few threads)" },
    );
    if gate {
        assert!(
            speedup >= 1.2,
            "overlapped must be >= 1.2x sequential with {threads} threads, got {speedup:.2}x"
        );
    }

    write_report(
        "overlap",
        &Report {
            hidden,
            world: WORLD,
            per_rank_batch: PER_RANK,
            threads,
            sequential_steps_per_sec: 1.0 / sequential.median,
            overlapped_steps_per_sec: 1.0 / overlapped.median,
            sequential,
            overlapped,
            speedup,
            speedup_asserted: gate,
            loss_bits_match: true,
        },
    );
}
