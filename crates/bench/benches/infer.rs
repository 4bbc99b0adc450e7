//! Reduced-precision serving vs the exact f32 tier, under saturating
//! batched load.
//!
//! Three arms run the same batched `InferenceServer` setup — the
//! production kernels, 16 closed-loop clients, coalescing
//! up to 16 requests per forward — and differ only in `--precision`:
//! the **f32** arm serves bit-exact predictions through the pinned-lane
//! kernels, the **f16** and **bf16** arms quantize the parameters at
//! load and run the wide FMA kernels with their vectorized
//! fast-approximation activations. Arms run in rotating order within
//! each repetition (f32, f16, bf16; then f16, bf16, f32; …) so thermal
//! or scheduler drift cannot masquerade as a precision effect, and every response in
//! the reduced-precision arms is checked against the exact
//! lone-structure prediction: the f16 arm must stay within 1e-2 max
//! relative error per request, bf16 within 4e-2.
//!
//! Run with `cargo bench --bench infer`. Emits `BENCH_infer.json` at
//! the repo root: per-arm req/s, latency quantiles and p99 for every
//! rep, throughput quantiles over reps, worst observed relative error,
//! and the reduced-precision speedups (f16 asserted ≥ 1.4× f32).

use std::sync::Arc;
use std::time::Instant;

use matsciml::datasets::{Compose, Dataset, DatasetId, SyntheticMaterialsProject, Transform};
use matsciml::models::EgnnConfig;
use matsciml::nn::ParamId;
use matsciml::obs::Obs;
use matsciml::tensor::{max_rel_error, set_simd_enabled, Precision};
use matsciml::train::{
    InferenceServer, ServeConfig, ServeError, TargetKind, TaskHeadConfig, TaskModel,
};
use matsciml_bench::harness::{quantile, rotate, write_report, ArmStats};
use serde::Serialize;

const CUTOFF: f32 = 4.5;
const MAXN: Option<usize> = Some(12);
/// Wide hidden dim so the dense kernels — the thing the wide tier
/// accelerates — dominate per-request cost.
const HIDDEN: usize = 64;
const POOL: usize = 24;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 16;
const CLIENTS: usize = 16;
const REQS_PER_CLIENT: usize = 32;
const REPS: usize = 3;
const F16_TOL: f32 = 1e-2;
const BF16_TOL: f32 = 4e-2;

/// One arm measured for one repetition.
#[derive(Serialize)]
struct Measurement {
    requests: usize,
    throughput_rps: f64,
    latency_us: ArmStats,
    p99_us: f64,
    mean_batch_size: f64,
    /// Worst per-request max relative error vs the exact f32 singles.
    max_rel_error: f32,
}

#[derive(Serialize)]
struct Arm {
    precision: String,
    reps: Vec<Measurement>,
    rps: ArmStats,
    median_rps: f64,
    worst_rel_error: f32,
}

#[derive(Serialize)]
struct Report {
    hidden: usize,
    pool: usize,
    workers: usize,
    max_batch: usize,
    clients: usize,
    reqs_per_client: usize,
    f16_tolerance: f32,
    bf16_tolerance: f32,
    arms: Vec<Arm>,
    /// Median f16 over median f32 batched throughput (gated ≥ 1.4).
    f16_speedup: f64,
    /// Median bf16 over median f32 batched throughput.
    bf16_speedup: f64,
}

fn model() -> TaskModel {
    let mut m = TaskModel::egnn(
        EgnnConfig::small(HIDDEN),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, HIDDEN, 1)],
        21,
    );
    // Fresh output heads are zero-initialized (the model starts as the
    // zero function); deterministic weight surgery gives the tolerance
    // check real signal to disagree about. The nudge is kept small
    // (±0.006): at this width a ±0.06 shift drives the coordinate-update
    // feedback loop chaotic, where *any* parameter rounding — not just
    // f16's — explodes, which would measure model conditioning rather
    // than the tier's storage error.
    for i in 0..m.params.len() {
        let id = ParamId(i);
        for (j, v) in m.params.value_mut(id).as_mut_slice().iter_mut().enumerate() {
            *v += (((i * 31 + j * 7) % 13) as f32 * 0.01 - 0.06) * 0.1;
        }
    }
    m
}

/// One closed-loop run at `CLIENTS` clients against a fresh server in
/// the given precision; every response is compared against the exact
/// f32 `singles`. Requests draw from `indices` — the pool entries with
/// at least one edge, since an edge-free structure takes the
/// message-passing early-return alone but the full layer math (with
/// zero aggregated messages) when coalesced with others, which would
/// contaminate the f32 arm's exactness check with a batching artifact
/// unrelated to precision.
fn run_arm(precision: Precision, indices: &[usize], singles: &[Vec<f32>]) -> Measurement {
    let ds: Arc<dyn Dataset> = Arc::new(SyntheticMaterialsProject::new(POOL, 21));
    let srv = InferenceServer::start(
        model(),
        Compose::standard(CUTOFF, MAXN),
        Some(ds),
        ServeConfig {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            queue_cap: 4 * MAX_BATCH * CLIENTS,
            head: 0,
            cache_batches: 2 * POOL,
            precision,
        },
        Obs::null(),
    );
    // Warm every worker's collate cache and code paths off the clock.
    for &i in indices {
        srv.predict_indices(vec![i]).unwrap();
    }
    let batches_at = |srv: &InferenceServer| {
        srv.obs()
            .recorder()
            .map(|r| r.counters().get("serve/batches").copied().unwrap_or(0))
            .unwrap_or(0)
    };
    let warm_batches = batches_at(&srv);

    let t0 = Instant::now();
    let responses: Vec<Vec<(usize, f64, Vec<f32>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let srv = &srv;
                let indices = &indices;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(REQS_PER_CLIENT);
                    for r in 0..REQS_PER_CLIENT {
                        let idx = indices[(c * REQS_PER_CLIENT + r) % indices.len()];
                        let t = Instant::now();
                        let mut rows = loop {
                            match srv.predict_indices(vec![idx]) {
                                Ok(rows) => break rows,
                                Err(ServeError::Busy) => std::thread::yield_now(),
                                Err(e) => panic!("serve request failed: {e}"),
                            }
                        };
                        out.push((idx, t.elapsed().as_secs_f64() * 1e6, rows.remove(0)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let batches = batches_at(&srv) - warm_batches;
    srv.shutdown();

    let mut lats: Vec<f64> = Vec::new();
    let mut total = 0usize;
    let mut worst = 0.0f32;
    for per_client in &responses {
        for (idx, us, row) in per_client {
            total += 1;
            lats.push(*us);
            worst = worst.max(max_rel_error(&singles[*idx], row));
        }
    }
    Measurement {
        requests: total,
        throughput_rps: total as f64 / wall,
        latency_us: ArmStats::of("us/request", &lats),
        p99_us: quantile(&lats, 0.99),
        mean_batch_size: if batches > 0 { total as f64 / batches as f64 } else { 0.0 },
        max_rel_error: worst,
    }
}

fn main() {
    set_simd_enabled(true);

    // Exact reference: every pool entry predicted alone, at f32.
    let ds = SyntheticMaterialsProject::new(POOL, 21);
    let pipeline = Compose::standard(CUTOFF, MAXN);
    let m = model();
    let mut indices = Vec::new();
    let singles: Vec<Vec<f32>> = (0..ds.len())
        .map(|i| {
            let s = pipeline.apply(ds.sample(i));
            if s.graph.num_edges() > 0 {
                indices.push(i);
            }
            m.predict(&[s], 0).as_slice().to_vec()
        })
        .collect();
    assert!(indices.len() >= POOL / 2, "pool unexpectedly sparse");
    drop(m);

    let precisions = [Precision::F32, Precision::F16, Precision::Bf16];
    let tolerances = [0.0f32, F16_TOL, BF16_TOL];
    let reps = rotate(precisions.len(), REPS, |k, rep| {
        let precision = precisions[k];
        let m = run_arm(precision, &indices, &singles);
        println!(
            "rep {rep} {:>4}: {:>8.0} req/s  p50 {:>7.0} us  p99 {:>7.0} us  \
             mean batch {:>4.1}  max rel err {:.3e}",
            precision.name(),
            m.throughput_rps,
            m.latency_us.median,
            m.p99_us,
            m.mean_batch_size,
            m.max_rel_error,
        );
        // Tolerance is part of the contract, asserted per rep: the f32
        // arm must be bit-exact (the metric reports 0), the reduced arms
        // within their documented budgets.
        let tol = tolerances[k];
        if tol == 0.0 {
            assert_eq!(
                m.max_rel_error, 0.0,
                "f32 serving diverged from the lone-structure predictions"
            );
        } else {
            assert!(
                m.max_rel_error <= tol,
                "{} serving exceeded its relative-error budget: {:.3e} > {tol:.0e}",
                precision.name(),
                m.max_rel_error,
            );
        }
        m
    });
    let arms: Vec<Arm> = precisions
        .iter()
        .zip(reps)
        .map(|(p, reps)| {
            let rps: Vec<f64> = reps.iter().map(|m| m.throughput_rps).collect();
            let rps = ArmStats::of("req/s", &rps);
            let worst = reps.iter().map(|m| m.max_rel_error).fold(0.0f32, f32::max);
            Arm {
                precision: p.name().to_string(),
                median_rps: rps.median,
                rps,
                worst_rel_error: worst,
                reps,
            }
        })
        .collect();
    let f16_speedup = arms[1].median_rps / arms[0].median_rps;
    let bf16_speedup = arms[2].median_rps / arms[0].median_rps;
    assert!(
        f16_speedup >= 1.4,
        "f16 batched serving must be at least 1.4x f32 batched at {CLIENTS} clients, \
         got {f16_speedup:.2}x"
    );

    println!("f16 {f16_speedup:.2}x, bf16 {bf16_speedup:.2}x vs f32");
    write_report(
        "infer",
        &Report {
            hidden: HIDDEN,
            pool: POOL,
            workers: WORKERS,
            max_batch: MAX_BATCH,
            clients: CLIENTS,
            reqs_per_client: REQS_PER_CLIENT,
            f16_tolerance: F16_TOL,
            bf16_tolerance: BF16_TOL,
            arms,
            f16_speedup,
            bf16_speedup,
        },
    );
}
