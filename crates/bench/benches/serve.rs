//! Single vs batched inference serving under closed-loop load.
//!
//! Both arms run the same `InferenceServer` — two workers, the
//! production kernels with the SIMD lane tier on, index-keyed collate
//! caching — and differ only in
//! `max_batch`: the **single** arm forwards one structure per request
//! (`max_batch = 1`), the **batched** arm lets a worker coalesce up to
//! 16 queued requests into one collated forward. Every response in both
//! arms is asserted bit-identical to `TaskModel::predict` on that
//! structure alone, so the timed gap is pure amortization: one tape
//! reset, one cache probe, and one sweep of fused kernels over the
//! concatenated node set instead of one per request.
//!
//! Clients are closed-loop: `C` threads each issue a fixed number of
//! one-structure requests back to back, retrying on `Busy`
//! backpressure. Offered load is swept over `C ∈ {1, 2, 4, 8, 16}`;
//! at `C = 16` the queue stays deep enough that batching saturates.
//!
//! Run with `cargo bench --bench serve`. Emits `BENCH_serve.json` at
//! the repo root: throughput, latency quantiles and p99 per arm at each
//! load (arms in rotating order across loads), and the saturated speedup
//! (asserted ≥ 2×).

use std::sync::Arc;
use std::time::Instant;

use matsciml::datasets::{
    Compose, Dataset, DatasetId, SyntheticMaterialsProject, Transform,
};
use matsciml::models::EgnnConfig;
use matsciml::obs::Obs;
use matsciml::tensor::set_simd_enabled;
use matsciml::train::{
    InferenceServer, ServeConfig, ServeError, TargetKind, TaskHeadConfig, TaskModel,
};
use matsciml_bench::harness::{quantile, rotate, write_report, ArmStats};
use serde::Serialize;

const CUTOFF: f32 = 4.5;
const MAXN: Option<usize> = Some(12);
const POOL: usize = 32;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 16;
const REQS_PER_CLIENT: usize = 48;
const LOADS: [usize; 5] = [1, 2, 4, 8, 16];

/// One arm measured at one offered load.
#[derive(Serialize)]
struct Measurement {
    requests: usize,
    throughput_rps: f64,
    latency_us: ArmStats,
    p99_us: f64,
    mean_batch_size: f64,
}

#[derive(Serialize)]
struct Load {
    clients: usize,
    single: Measurement,
    batched: Measurement,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    hidden: usize,
    pool: usize,
    workers: usize,
    max_batch: usize,
    reqs_per_client: usize,
    /// Every response, both arms, bit-equal to the lone-structure
    /// prediction for that index.
    bit_identical: bool,
    loads: Vec<Load>,
    /// Batched over single throughput at the largest client count.
    saturated_speedup: f64,
}

fn model() -> TaskModel {
    TaskModel::egnn(
        EgnnConfig::small(16),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        21,
    )
}

/// Drive `clients` closed-loop threads against a fresh server with the
/// given `max_batch`; checks every response against `singles` and
/// returns the measurement.
fn run_arm(max_batch: usize, clients: usize, singles: &[Vec<f32>], ok: &mut bool) -> Measurement {
    let ds: Arc<dyn Dataset> = Arc::new(SyntheticMaterialsProject::new(POOL, 21));
    let srv = InferenceServer::start(
        model(),
        Compose::standard(CUTOFF, MAXN),
        Some(ds),
        ServeConfig {
            workers: WORKERS,
            max_batch,
            queue_cap: 2 * MAX_BATCH * LOADS[LOADS.len() - 1],
            head: 0,
            cache_batches: 2 * POOL,
            ..Default::default()
        },
        Obs::null(),
    );
    // Warm every worker's collate cache and code paths off the clock.
    for i in 0..POOL {
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
    let latencies: Vec<Vec<(usize, f64, Vec<f32>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let srv = &srv;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(REQS_PER_CLIENT);
                    for r in 0..REQS_PER_CLIENT {
                        let idx = (c * REQS_PER_CLIENT + r) % POOL;
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
    for per_client in &latencies {
        for (idx, us, row) in per_client {
            total += 1;
            lats.push(*us);
            let want = &singles[*idx];
            if row.len() != want.len()
                || row.iter().zip(want).any(|(a, b)| a.to_bits() != b.to_bits())
            {
                *ok = false;
            }
        }
    }
    Measurement {
        requests: total,
        throughput_rps: total as f64 / wall,
        latency_us: ArmStats::of("us/request", &lats),
        p99_us: quantile(&lats, 0.99),
        mean_batch_size: if batches > 0 { total as f64 / batches as f64 } else { 0.0 },
    }
}

fn main() {
    set_simd_enabled(true);

    // Ground truth: every pool entry predicted alone on a fresh tape.
    let ds = SyntheticMaterialsProject::new(POOL, 21);
    let pipeline = Compose::standard(CUTOFF, MAXN);
    let m = model();
    let singles: Vec<Vec<f32>> = (0..ds.len())
        .map(|i| {
            let s = pipeline.apply(ds.sample(i));
            m.predict(&[s], 0).as_slice().to_vec()
        })
        .collect();
    drop(m);

    // Arm 0 serves one structure per forward, arm 1 batches; each load is
    // one rep.
    let mut ok = true;
    let mut arms = rotate(2, LOADS.len(), |arm, rep| {
        run_arm([1, MAX_BATCH][arm], LOADS[rep], &singles, &mut ok)
    });
    let batched = arms.pop().unwrap();
    let single = arms.pop().unwrap();
    let mut loads = Vec::new();
    for ((&clients, single), batched) in LOADS.iter().zip(single).zip(batched) {
        let speedup = batched.throughput_rps / single.throughput_rps;
        println!(
            "clients {clients:>2}: single {:>8.0} req/s (p99 {:>7.0} us) | batched {:>8.0} req/s \
             (p99 {:>7.0} us, mean batch {:.1}) | speedup {speedup:.2}x",
            single.throughput_rps, single.p99_us, batched.throughput_rps, batched.p99_us,
            batched.mean_batch_size,
        );
        loads.push(Load { clients, single, batched, speedup });
    }

    let saturated_speedup = loads[loads.len() - 1].speedup;
    // Written before the gates, so a failing run still leaves its numbers.
    write_report(
        "serve",
        &Report {
            hidden: 16,
            pool: POOL,
            workers: WORKERS,
            max_batch: MAX_BATCH,
            reqs_per_client: REQS_PER_CLIENT,
            bit_identical: ok,
            loads,
            saturated_speedup,
        },
    );
    assert!(ok, "a served response diverged from the lone-structure prediction");
    assert!(
        saturated_speedup >= 2.0,
        "batched serving must be at least 2x single at saturating load, got {saturated_speedup:.2}x"
    );
}
