//! The serving workload: a closed loop of client threads against an
//! `InferenceServer` over a paper-shape model loaded from a `.mckpt`.
//!
//! Every request carries four Materials-Project-like structures with
//! their own position jitter, so no structure repeats and every request
//! pays `radius_graph`, as novel-structure traffic does. A seeded sample
//! of responses is checked bit for bit against `TaskModel::predict` on
//! each structure alone.
//!
//! The pool holds only structures with an edge within the cutoff: an
//! edge-free structure predicted alone differs from the same structure
//! served in a batch (a known defect that `defects.rs` probes), so it
//! would fail this check on every run.
//!
//! Throughput is the median over closed-loop chunks of a few seconds of
//! requests per received CPU-second, as in `train.rs`. A serving *step*
//! in the per-layer metrics is one coalesced batch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use matsciml::autograd::Graph;
use matsciml::datasets::{
    Compose, DataLoader, DatasetId, Sample, Split, SyntheticMaterialsProject, Transform,
};
use matsciml::graph::{graph_cache_stats, radius_graph};
use matsciml::models::EgnnConfig;
use matsciml::obs::Obs;
use matsciml::tensor::{edge_stats, pool_stats, simd_stats, Precision};
use matsciml::train::{
    collate, load_infer_model, InferenceServer, ServeConfig, TargetKind, TaskHeadConfig, TaskModel,
    TrainConfig, Trainer,
};

use crate::stats::{
    frac, median, ms, quantile, setup_cpu_s, supported_tail, timed, Cost, Digest, SplitMix, Usage,
};
use crate::{
    connected_structures, Args, Metrics, Outcome, WorkDir, CUTOFF, FIXED_SEED, JITTER,
    MAX_NEIGHBORS, SETUP_REPEATS,
};

const CLIENTS: usize = 2;
const STRUCTURES_PER_REQUEST: usize = 4;
/// Distinct base structures the requests jitter.
const POOL: usize = 256;
/// About one request in this many has its responses verified.
const VERIFY_ONE_IN: u64 = 24;
const MAX_VERIFIED: usize = 40;
/// Closed-loop chunk length, and the fewest untraced chunks in a run.
const CHUNK: Duration = Duration::from_secs(2);
const MIN_CHUNKS: usize = 5;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 16,
        queue_cap: 64,
        head: 0,
        cache_batches: 1,
        precision: Precision::F32,
    }
}

/// Input generation (untimed): a paper-shape band-gap model trained for
/// two steps (so its heads are no longer the zero function) and saved by
/// the trainer's own checkpointing as `step2.mckpt`. Its weights are the
/// same for every `--seed`.
fn write_checkpoint(dir: &Path) -> PathBuf {
    let data = SyntheticMaterialsProject::new(64, FIXED_SEED ^ 0x5eed);
    let pipe = Compose::standard(CUTOFF, MAX_NEIGHBORS);
    let loader = DataLoader::new(&data, Some(&pipe), Split::Train, 0.0, 8, FIXED_SEED);
    let mut model = TaskModel::egnn(
        EgnnConfig::paper(),
        &[TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::BandGap,
            256,
            3,
        )],
        FIXED_SEED,
    );
    let trainer = Trainer::new(TrainConfig {
        world_size: 1,
        per_rank_batch: 8,
        steps: 2,
        eval_every: 0,
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        seed: FIXED_SEED,
        ..Default::default()
    });
    trainer.train(&mut model, &loader, None);
    dir.join("step2.mckpt")
}

/// The seeded request stream: request `i` is four pool structures, each
/// with its own jitter.
struct Requests {
    pool: Vec<Sample>,
    seed: u64,
}

impl Requests {
    fn new(seed: u64) -> Self {
        Requests {
            pool: connected_structures(POOL),
            seed,
        }
    }

    fn get(&self, i: u64) -> Vec<Sample> {
        let mut rng = SplitMix(self.seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
        (0..STRUCTURES_PER_REQUEST)
            .map(|_| {
                let mut s = self.pool[(rng.next_u64() % POOL as u64) as usize].clone();
                rng.jitter(&mut s.graph.positions, JITTER);
                s
            })
            .collect()
    }

    fn verified(&self, i: u64) -> bool {
        SplitMix(self.seed ^ !i)
            .next_u64()
            .is_multiple_of(VERIFY_ONE_IN)
    }
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Load {
    latency_ms: Vec<f64>,
    failed: u64,
    /// Responses kept for verification, by request index.
    kept: Vec<(u64, Vec<Vec<f32>>)>,
}

/// Run `CLIENTS` closed-loop clients until `until`; client `c` sends
/// requests `*next + c`, `*next + c + CLIENTS`, …
fn closed_loop(srv: &InferenceServer, reqs: &Requests, next: &mut u64, until: Instant) -> Load {
    let base = *next;
    let per_client: Vec<(Load, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                s.spawn(move || {
                    let (mut load, mut sent) = (Load::default(), 0u64);
                    let mut i = base + c;
                    while Instant::now() < until {
                        let request = reqs.get(i);
                        let t = Instant::now();
                        match srv.predict_samples(request) {
                            Ok(rows) => {
                                load.latency_ms.push(ms(t.elapsed()));
                                if reqs.verified(i) {
                                    load.kept.push((i, rows));
                                }
                            }
                            Err(_) => load.failed += 1,
                        }
                        sent += 1;
                        i += CLIENTS as u64;
                    }
                    (load, sent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    let mut max_sent = 0;
    for (client, sent) in per_client {
        load.latency_ms.extend(client.latency_ms);
        load.failed += client.failed;
        load.kept.extend(client.kept);
        max_sent = max_sent.max(sent);
    }
    *next = base + max_sent * CLIENTS as u64;
    load
}

fn start(model: TaskModel, obs: Obs) -> InferenceServer {
    InferenceServer::start(
        model,
        Compose::standard(CUTOFF, MAX_NEIGHBORS),
        None,
        serve_config(),
        obs,
    )
}

fn load_model(ckpt: &Path) -> TaskModel {
    load_infer_model(ckpt)
        .expect("loading the benchmark checkpoint")
        .model
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let ckpt = write_checkpoint(&work.path("ckpt"));
    let reqs = Requests::new(args.seed);

    // Set-up: load the checkpoint and start the server, in CPU time.
    let mut setup: Vec<Cost> = Vec::with_capacity(SETUP_REPEATS);
    let mut load_ms = Vec::with_capacity(SETUP_REPEATS);
    let mut server: Option<InferenceServer> = None;
    let ((), setup_phase) = timed(|| {
        for _ in 0..SETUP_REPEATS {
            if let Some(old) = server.take() {
                old.shutdown();
            }
            let (srv, cost) = timed(|| {
                let (model, load) = timed(|| load_model(&ckpt));
                load_ms.push(load.wall_s * 1e3);
                start(model, Obs::disabled())
            });
            setup.push(cost);
            server = Some(srv);
        }
    });
    let mut srv = server.expect("SETUP_REPEATS > 0");

    for i in 0..8 {
        srv.predict_samples(reqs.get(u64::MAX - i))
            .expect("warm-up request");
    }

    // Closed-loop chunks. With tracing on, untraced and traced servers
    // alternate chunk by chunk so host speed drift lands on both arms.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced: Vec<(Load, Cost)> = Vec::new();
    let mut traced: Vec<(Load, Cost)> = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut usage = Usage::default();
    let (mut pool_d, mut edge_calls, mut simd_fallback, mut gc_d) = (Vec::new(), 0, 0, Vec::new());
    let mut next = 0u64;
    while Instant::now() < deadline
        || untraced.len() < MIN_CHUNKS
        || (args.trace && traced.is_empty())
    {
        let tracing = args.trace && untraced.len() > traced.len();
        if args.trace {
            srv.shutdown();
            let obs = if tracing {
                Obs::null()
            } else {
                Obs::disabled()
            };
            srv = start(load_model(&ckpt), obs);
        }
        if !tracing {
            untraced.push(timed(|| {
                closed_loop(&srv, &reqs, &mut next, Instant::now() + CHUNK)
            }));
            continue;
        }
        let (p, e, sm, g) = (
            pool_stats(),
            edge_stats(),
            simd_stats(),
            graph_cache_stats(),
        );
        let u0 = Usage::now();
        traced.push(timed(|| {
            closed_loop(&srv, &reqs, &mut next, Instant::now() + CHUNK)
        }));
        usage.add(&Usage::now().since(&u0));
        pool_d.push(pool_stats().since(&p));
        edge_calls += edge_stats().since(&e).fused_calls;
        simd_fallback += simd_stats().since(&sm).fallback_hits;
        gc_d.push(graph_cache_stats().since(&g));
        let rec = srv.obs().recorder().expect("traced server records");
        for (k, v) in rec.counters() {
            *counters.entry(k).or_default() += v;
        }
    }
    srv.shutdown();

    // Correctness: each kept response row must equal the model's
    // prediction on that structure alone, bit for bit.
    let reference = load_model(&ckpt);
    let pipe = Compose::standard(CUTOFF, MAX_NEIGHBORS);
    let mut kept: Vec<&(u64, Vec<Vec<f32>>)> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|(l, _)| &l.kept)
        .collect();
    kept.sort_by_key(|(i, _)| *i);
    kept.truncate(MAX_VERIFIED);
    let (mut mismatched, mut bad_structures, mut bad_edge_free, mut checked) = (0u64, 0, 0, 0);
    let mut digest = Digest::new();
    for (i, rows) in &kept {
        let request = reqs.get(*i);
        let mut ok = rows.len() == request.len();
        for (s, row) in request.into_iter().zip(rows) {
            let prepared = pipe.apply(s);
            let alone = reference.predict(std::slice::from_ref(&prepared), 0);
            digest.f32s(row);
            checked += 1;
            if !alone
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .eq(row.iter().map(|v| v.to_bits()))
            {
                ok = false;
                bad_structures += 1;
                bad_edge_free += u64::from(prepared.graph.src.is_empty());
            }
        }
        mismatched += u64::from(!ok);
    }

    let all: Vec<&Load> = untraced.iter().chain(&traced).map(|(l, _)| l).collect();
    let completed: usize = all.iter().map(|l| l.latency_ms.len()).sum();
    let rejected: u64 = all.iter().map(|l| l.failed).sum();
    let latency: Vec<f64> = untraced
        .iter()
        .flat_map(|(l, _)| l.latency_ms.iter().copied())
        .collect();
    let requests = |(l, _): &(Load, Cost)| l.latency_ms.len() as f64;
    let rate =
        |f: &dyn Fn(&(Load, Cost)) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    let listed = |f: &dyn Fn(&(Load, Cost)) -> f64| {
        let v: Vec<String> = untraced.iter().map(|x| format!("{:.3}", f(x))).collect();
        v.join(",")
    };
    let notes = vec![
        format!(
            "requests={completed} rejected={rejected} verified_requests={} \
         verified_structures={checked} mismatched_requests={mismatched} \
         mismatched_structures={bad_structures} of_which_edge_free={bad_edge_free} \
         verified_digest={digest}",
            kept.len()
        ),
        format!(
            "chunks_per_cpu_s={} chunks_per_wall_s={} chunks_steal_frac={}",
            listed(&|x| requests(x) / x.1.cpu_s),
            listed(&|x| requests(x) / x.1.wall_s),
            listed(&|x| x.1.steal),
        ),
    ];
    if args.trace {
        let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
        let batches = c("serve/batches");
        let mean_batch = frac(c("serve/requests"), batches);
        let timers = service_timers(
            &reqs,
            &reference,
            (mean_batch * STRUCTURES_PER_REQUEST as f64).round() as usize,
        );
        let hits: u64 = pool_d.iter().map(|d| d.hits).sum();
        let misses: u64 = pool_d.iter().map(|d| d.misses).sum();
        let fresh: u64 = pool_d.iter().map(|d| d.bytes_fresh).sum();
        let gc_hits: u64 = gc_d.iter().map(|d| d.hits).sum();
        let gc_lookups = gc_hits + gc_d.iter().map(|d| d.misses).sum::<u64>();
        m.put(
            "graph.cache_hit_frac",
            frac(gc_hits as f64, gc_lookups as f64),
            "frac",
        );
        m.put(
            "graph.cache_lookups_per_step",
            frac(gc_lookups as f64, batches),
            "count",
        );
        m.put(
            "graph.cache_evictions",
            gc_d.iter().map(|d| d.evictions).sum::<u64>() as f64,
            "count",
        );
        m.put("graph.radius_ms.p50", timers.radius_ms, "ms");
        m.put("collate.ms.p50", timers.collate_ms, "ms");
        m.put("models.forward_ms.p50", timers.forward_ms, "ms");
        m.put(
            "tensor.pool_hit_frac",
            frac(hits as f64, (hits + misses) as f64),
            "frac",
        );
        m.put(
            "tensor.pool_fresh_bytes_per_step",
            frac(fresh as f64, batches),
            "B",
        );
        m.put("tensor.simd_fallback_hits", simd_fallback as f64, "count");
        m.put(
            "edge.fused_calls_per_step",
            frac(edge_calls as f64, batches),
            "count",
        );
        m.put("autograd.tape_nodes", timers.tape_nodes, "count");
        m.put("serve.batch_size.mean", mean_batch, "count");
        // Derived, not measured: client latency minus the timed service
        // parts of a mean-sized batch.
        let service = timers.radius_ms * mean_batch + timers.collate_ms + timers.forward_ms;
        let traced_latency: Vec<f64> = traced
            .iter()
            .flat_map(|(l, _)| l.latency_ms.iter().copied())
            .collect();
        m.put(
            "serve.queue_wait_ms.p50_derived",
            median(&traced_latency) - service,
            "ms",
        );
        m.put("serve.rejected", c("serve/rejected"), "count");
        m.put("serve.latency_ms.p50", quantile(&latency, 0.5), "ms");
        m.put("serve.latency_ms.p90", quantile(&latency, 0.9), "ms");
        let (tail, pct) = supported_tail(&latency);
        m.put("serve.latency_ms.tail", tail, "ms");
        m.put("serve.latency_ms.tail_pct", pct, "%");
        m.put("serve.latency_samples", latency.len() as f64, "count");
        m.put("ckpt.load_ms", median(&load_ms), "ms");
        m.put("proc.sys_cpu_frac", usage.sys_frac(), "frac");
        m.put(
            "proc.user_cpu_ms_per_step",
            frac(usage.user_s * 1e3, batches),
            "ms",
        );
        m.put(
            "proc.ctx_switches_per_step",
            frac(usage.ctx_switches as f64, batches),
            "count",
        );
        let cpu_per_request = |chunks: &[(Load, Cost)]| {
            median(
                &chunks
                    .iter()
                    .map(|x| x.1.cpu_s / requests(x))
                    .collect::<Vec<_>>(),
            )
        };
        m.put(
            "trace.overhead_frac",
            frac(cpu_per_request(&traced), cpu_per_request(&untraced)) - 1.0,
            "frac",
        );
        m.put(
            "wall.throughput_per_s",
            rate(&|x| requests(x) / x.1.wall_s),
            "1/s",
        );
        m.put(
            "wall.cpus_used",
            frac(
                untraced.iter().map(|(_, c)| c.cpu_s).sum(),
                untraced.iter().map(|(_, c)| c.wall_s).sum(),
            ),
            "count",
        );
    } else {
        m.put(
            "throughput_per_cpu_s",
            rate(&|x| requests(x) / x.1.received_cpu_s()),
            "1/cpu_s",
        );
        m.put("setup_s", setup_cpu_s(&setup, &setup_phase), "s");
    }
    Outcome {
        attempted: completed as u64 + rejected,
        failed: rejected,
        correct: mismatched == 0 && !kept.is_empty(),
        metrics: m,
        notes,
    }
}

/// p50s of the benchmark's own timers around the service path.
struct ServiceTimers {
    radius_ms: f64,
    collate_ms: f64,
    forward_ms: f64,
    tape_nodes: f64,
}

/// The benchmark's own timers around the service path's public calls:
/// `radius_graph` per request, and `collate` plus
/// `TaskModel::predict_into` at the mean coalesced batch size.
fn service_timers(reqs: &Requests, model: &TaskModel, batch_structures: usize) -> ServiceTimers {
    const SAMPLES: u64 = 48;
    let pipe = Compose::standard(CUTOFF, MAX_NEIGHBORS);
    let mut radius = Vec::new();
    let mut prepared = Vec::new();
    for i in 0..SAMPLES {
        let request = reqs.get((1 << 41) + i);
        let inputs: Vec<_> = request
            .iter()
            .map(|s| (s.graph.species.clone(), s.graph.positions.clone()))
            .collect();
        let t = Instant::now();
        for (species, positions) in inputs {
            std::hint::black_box(radius_graph(species, positions, CUTOFF, MAX_NEIGHBORS));
        }
        radius.push(ms(t.elapsed()));
        prepared.extend(request.into_iter().map(|s| pipe.apply(s)));
    }
    let n = batch_structures.clamp(1, prepared.len());
    let mut g = Graph::new();
    let (mut collate_ms, mut forward_ms) = (Vec::new(), Vec::new());
    for chunk in prepared.chunks_exact(n) {
        let t = Instant::now();
        let batch = collate(chunk);
        collate_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(model.predict_into(&mut g, &batch, 0));
        forward_ms.push(ms(t.elapsed()));
    }
    ServiceTimers {
        radius_ms: median(&radius),
        collate_ms: median(&collate_ms),
        forward_ms: median(&forward_ms),
        tape_nodes: g.len() as f64,
    }
}
