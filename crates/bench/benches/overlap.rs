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
//! Arms are timed in alternation so background load perturbs both
//! instead of biasing one. The ≥1.2× speedup assertion only applies when
//! the host grants enough real threads for backward and communication to
//! actually overlap (`std::thread::available_parallelism() ≥ 4`); on a
//! single-core runner the bench still verifies bit-identity and records
//! the observed ratio with `speedup_asserted: false`.
//!
//! Run with `cargo bench --bench overlap`. Emits `BENCH_overlap.json` at
//! the repo root: steps/sec per arm, speedup, thread gate, and the
//! bucket partition shape.

use std::time::Instant;

use matsciml::datasets::{Dataset, DatasetId, GraphTransform, SyntheticMaterialsProject, Transform};
use matsciml::models::EgnnConfig;
use matsciml::train::{
    ddp_step, DdpConfig, DdpTapes, StepInput, TargetKind, TaskHeadConfig, TaskModel,
};
use matsciml::obs::Obs;
use serde::Serialize;

const WORLD: usize = 4;
const PER_RANK: usize = 1;

/// Median of a set of per-call timings.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[derive(Serialize)]
struct Report {
    hidden: usize,
    world: usize,
    per_rank_batch: usize,
    threads: usize,
    sequential_steps_per_sec: f64,
    overlapped_steps_per_sec: f64,
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
    let ov = DdpConfig { overlap: true, ..seq };
    let input = StepInput::Samples(&samples);
    let obs = Obs::disabled();
    let mut seq_tapes = DdpTapes::new();
    let mut ov_tapes = DdpTapes::new();
    let reps = 7;

    // Warmup both arms (tapes and pool reach steady state), then time in
    // alternation.
    let warm_seq = ddp_step(&mut model, input, &seq, 0, &obs, &mut seq_tapes);
    let warm_ov = ddp_step(&mut model, input, &ov, 0, &obs, &mut ov_tapes);
    assert_eq!(
        warm_seq.get("loss").unwrap().to_bits(),
        warm_ov.get("loss").unwrap().to_bits(),
        "warmup losses must agree bit for bit"
    );

    let mut seq_times = Vec::with_capacity(reps);
    let mut ov_times = Vec::with_capacity(reps);
    let mut bits_match = true;
    for rep in 0..reps {
        let step = rep as u64 + 1;
        let t0 = Instant::now();
        let m_seq = ddp_step(&mut model, input, &seq, step, &obs, &mut seq_tapes);
        seq_times.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let m_ov = ddp_step(&mut model, input, &ov, step, &obs, &mut ov_tapes);
        ov_times.push(t0.elapsed().as_secs_f64());

        let (a, b) = (m_seq.get("loss").unwrap(), m_ov.get("loss").unwrap());
        assert_eq!(a.to_bits(), b.to_bits(), "rep {rep}: losses diverged ({a} vs {b})");
        bits_match &= a.to_bits() == b.to_bits();
    }
    let t_seq = median(seq_times);
    let t_ov = median(ov_times);
    let speedup = t_seq / t_ov;
    let gate = threads >= WORLD;

    println!(
        "overlap bench (EGNN hidden={hidden}, world={WORLD}, B={PER_RANK}, {threads} threads): \
         sequential {:.2} ms, overlapped {:.2} ms, speedup {speedup:.2}x{}",
        t_seq * 1e3,
        t_ov * 1e3,
        if gate { "" } else { " (not asserted: too few threads)" },
    );
    if gate {
        assert!(
            speedup >= 1.2,
            "overlapped must be >= 1.2x sequential with {threads} threads, got {speedup:.2}x"
        );
    }

    let report = Report {
        hidden,
        world: WORLD,
        per_rank_batch: PER_RANK,
        threads,
        sequential_steps_per_sec: 1.0 / t_seq,
        overlapped_steps_per_sec: 1.0 / t_ov,
        speedup,
        speedup_asserted: gate,
        loss_bits_match: bits_match,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overlap.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap())
        .expect("write BENCH_overlap.json");
    println!("wrote {path}");
}
