//! Seed vs generic vs fused edge-pipeline message passing on the
//! paper-shape E(n)-GNN.
//!
//! Three arms, timed in alternation so background load perturbs all of
//! them instead of biasing one:
//!
//! * **seed** — the pre-pool hot path: pooling off, fused dense emission
//!   off, generic edge lowering, fresh `Graph` every step.
//! * **baseline** — the production configuration before this change:
//!   pooling + fused dense on, one persistent tape, but every
//!   message-passing layer lowered through the generic composition —
//!   `gather_rows` ×4, `sub`, `mul` + `sum_axis1` for d², `concat_cols`,
//!   `mul`/`mul_col_broadcast`/`scatter_add_rows` for the coordinate
//!   update.
//! * **fused** — the same math through the edge kernels: one `EdgeRel`
//!   node, one `EdgeConcat` node assembling `[h_i ‖ h_j ‖ d²]` per edge,
//!   and one `WeightedScatterMean` node for the coordinate update — no
//!   `hi`/`hj`/`xi`/`xj`/`relsq`/`moved` intermediates ever materialize.
//!
//! All three lowerings are bit-identical (asserted here on every rep and
//! by the train crate's `fused_edges_bitwise` test on full 2-rank
//! trajectories). The fused arm must clear ≥ 1.3× the seed arm's
//! fwd+bwd steps/s; against the already-pooled baseline the honest
//! headline is tape volume (about a fifth fewer nodes) and the avoided
//! per-edge intermediates reported as `edge_bytes_saved_per_step` — at
//! this shape the dense kernels dominate the step, so the edge fusion's
//! wall-clock delta rides within noise of the baseline arm.
//!
//! Both pooled arms read their batch through a
//! [`matsciml::train::CollateCache`], so after the first materialization
//! every step reuses the built edge CSR and inv-degree tensors.
//!
//! Run with `cargo bench --bench message_passing`. Emits
//! `BENCH_msgpass.json` at the repo root.

use std::time::Instant;

use matsciml::autograd::Graph;
use matsciml::datasets::{DataLoader, DatasetId, GraphTransform, Split, SyntheticMaterialsProject};
use matsciml::models::EgnnConfig;
use matsciml::nn::{set_fused_edges, set_fused_linear, ForwardCtx};
use matsciml::obs::Obs;
use matsciml::tensor::{edge_stats, set_pool_enabled};
use matsciml::train::{CollateCache, TargetKind, TaskHeadConfig, TaskModel};
use serde::Serialize;

/// Median of a set of per-call timings.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[derive(Serialize)]
struct Arm {
    steps_per_sec: f64,
    /// Tape nodes recorded per step.
    tape_nodes: usize,
    /// Fused edge-kernel invocations per step.
    edge_fused_calls_per_step: u64,
    /// Intermediate bytes the fused kernels avoided, per step.
    edge_bytes_saved_per_step: u64,
}

#[derive(Serialize)]
struct Report {
    hidden: usize,
    batch: usize,
    edges: usize,
    threads: usize,
    loss_bits_match: bool,
    seed: Arm,
    baseline: Arm,
    fused: Arm,
    /// fused vs seed — the asserted ≥ 1.3× bound.
    speedup_vs_seed: f64,
    /// fused vs the pooled generic lowering — informational; the dense
    /// kernels dominate this shape, so expect ≈ 1.
    speedup_vs_baseline: f64,
    /// Collate-cache traffic over the whole bench: one miss (the first
    /// materialization), then every pooled-arm step is a hit.
    collate_hits: u64,
    collate_misses: u64,
}

/// (pool, fused linear, fused edges) per arm.
const ARMS: [(bool, bool, bool); 3] =
    [(false, false, false), (true, true, false), (true, true, true)];

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
    let pipeline = GraphTransform::radius(4.5, Some(12));
    let dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, 4, 17);
    let indices = dl.epoch_batches(0).remove(0);
    let obs = Obs::disabled();
    let mut cache = CollateCache::new(4);
    let reps = 9;

    // Per-arm persistent tapes (the seed arm replaces its graph every
    // step inside `step`, reproducing the fresh-allocation regime).
    let mut tapes: Vec<Graph> = (0..ARMS.len()).map(|_| Graph::new()).collect();
    let mut losses = [0.0f32; 3];
    let mut nodes = [0usize; 3];

    let run_arm = |arm: usize, tapes: &mut Vec<Graph>, cache: &mut CollateCache,
                       losses: &mut [f32; 3], nodes: &mut [usize; 3]| {
        let (pool, flin, fedge) = ARMS[arm];
        set_pool_enabled(pool);
        set_fused_linear(flin);
        set_fused_edges(fedge);
        if arm == 0 {
            tapes[0] = Graph::new();
        }
        let batch = cache.get_or_collate(&dl, &indices, &obs);
        let mut ctx = ForwardCtx::train(17);
        let (loss, _m) = model.forward_into(&mut tapes[arm], batch, &mut ctx);
        let g = &mut tapes[arm];
        g.backward(loss);
        losses[arm] = g.value(loss).item();
        nodes[arm] = g.len();
    };

    // Warmup every arm (pool + tapes reach steady state, the collate
    // cache materializes its single batch), then time in alternation.
    for _ in 0..2 {
        for arm in 0..ARMS.len() {
            run_arm(arm, &mut tapes, &mut cache, &mut losses, &mut nodes);
        }
    }
    let edges = cache.get_or_collate(&dl, &indices, &obs).input.num_edges();

    let mut times: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut bits_match = true;
    let mut fused_calls = 0u64;
    let mut bytes_saved = 0u64;
    let mut unfused_calls = 0u64;
    for rep in 0..reps {
        for (arm, arm_times) in times.iter_mut().enumerate() {
            let e0 = edge_stats();
            let t0 = Instant::now();
            run_arm(arm, &mut tapes, &mut cache, &mut losses, &mut nodes);
            arm_times.push(t0.elapsed().as_secs_f64());
            let d = edge_stats().since(&e0);
            if arm == 2 {
                fused_calls += d.fused_calls;
                bytes_saved += d.bytes_saved;
            } else {
                unfused_calls += d.fused_calls;
            }
        }
        for arm in 1..ARMS.len() {
            assert_eq!(
                losses[0].to_bits(),
                losses[arm].to_bits(),
                "rep {rep}: arm {arm} loss diverged ({} vs {})",
                losses[0],
                losses[arm]
            );
            bits_match &= losses[0].to_bits() == losses[arm].to_bits();
        }
    }
    set_pool_enabled(true);
    set_fused_linear(true);
    set_fused_edges(true);
    assert_eq!(unfused_calls, 0, "generic arms must not touch the fused kernels");

    let calls = reps as u64;
    let medians: Vec<f64> = times.iter().map(|t| median(t.clone())).collect();
    let (t_seed, t_base, t_fused) = (medians[0], medians[1], medians[2]);
    let speedup_vs_seed = t_seed / t_fused;
    let speedup_vs_baseline = t_base / t_fused;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "message-passing bench (EGNN hidden={hidden}, batch=4, {edges} edges, {threads} threads): \
         seed {:.2} ms ({} nodes), generic pooled {:.2} ms ({} nodes), fused {:.2} ms ({} nodes)",
        t_seed * 1e3,
        nodes[0],
        t_base * 1e3,
        nodes[1],
        t_fused * 1e3,
        nodes[2],
    );
    println!(
        "speedup: {speedup_vs_seed:.2}x vs seed (asserted >= 1.3x), \
         {speedup_vs_baseline:.2}x vs pooled generic (informational)"
    );
    assert!(
        speedup_vs_seed >= 1.3,
        "fused pipeline must be >= 1.3x the seed path, got {speedup_vs_seed:.2}x"
    );
    assert!(
        nodes[2] < nodes[1],
        "fused tape ({} nodes) must be shorter than generic ({})",
        nodes[2],
        nodes[1]
    );

    let report = Report {
        hidden,
        batch: 4,
        edges,
        threads,
        loss_bits_match: bits_match,
        seed: Arm {
            steps_per_sec: 1.0 / t_seed,
            tape_nodes: nodes[0],
            edge_fused_calls_per_step: 0,
            edge_bytes_saved_per_step: 0,
        },
        baseline: Arm {
            steps_per_sec: 1.0 / t_base,
            tape_nodes: nodes[1],
            edge_fused_calls_per_step: 0,
            edge_bytes_saved_per_step: 0,
        },
        fused: Arm {
            steps_per_sec: 1.0 / t_fused,
            tape_nodes: nodes[2],
            edge_fused_calls_per_step: fused_calls / calls,
            edge_bytes_saved_per_step: bytes_saved / calls,
        },
        speedup_vs_seed,
        speedup_vs_baseline,
        collate_hits: cache.hits(),
        collate_misses: cache.misses(),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_msgpass.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap())
        .expect("write BENCH_msgpass.json");
    println!("wrote {path}");
}
