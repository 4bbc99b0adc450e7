//! Batched property-prediction serving: a multi-threaded inference
//! engine that coalesces queued requests into one collated forward.
//!
//! The [`InferenceServer`] is the transport-free core the CLI `serve`
//! command and the serving benchmark both wrap: requests enter a bounded
//! queue; worker threads drain *runs of adjacent requests* up to
//! `max_batch` structures, collate them into one disjoint-union batch,
//! and run a single pooled forward ([`TaskModel::predict_into`] over a
//! long-lived tape), then split the prediction rows back out per
//! request. Because every kernel accumulates rows and segments
//! independently in a fixed order, a structure's prediction is
//! **bit-identical** whether it was served alone or coalesced into a
//! batch with strangers — asserted by this module's tests and the
//! `BENCH_serve` benchmark.
//!
//! Backpressure is explicit: when the queue already holds `queue_cap`
//! requests, [`InferenceServer::predict_indices`] returns
//! [`ServeError::Busy`]
//! immediately instead of queueing unboundedly — the caller (a TCP
//! handler, a load generator) decides whether to retry or shed. Shutdown
//! is graceful: accepted requests are always answered; workers exit only
//! once the queue is drained.
//!
//! See `docs/SERVING.md` for the operational guide and the run-record
//! schema of the `serve/*` counters.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use matsciml_autograd::Graph;
use matsciml_datasets::{Compose, Dataset, Sample, Transform};
use matsciml_obs::Obs;
use matsciml_tensor::Precision;

use crate::checkpoint::load_infer_model;
use crate::collate::{collate, Batch, CollateCache};
use crate::model::TaskModel;

/// Counter: requests accepted into the queue.
pub const SERVE_REQUESTS: &str = "serve/requests";
/// Counter: requests rejected with [`ServeError::Busy`] (backpressure).
pub const SERVE_REJECTED: &str = "serve/rejected";
/// Counter: coalesced batches executed by workers.
pub const SERVE_BATCHES: &str = "serve/batches";
/// Histogram: structures per executed batch.
pub const SERVE_BATCH_SIZE: &str = "serve/batch_size";
/// Histogram: queue depth observed at each accepted submit.
pub const SERVE_QUEUE_DEPTH: &str = "serve/queue_depth";
/// Histogram: request latency (submit → response sent), µs.
pub const SERVE_LATENCY_US: &str = "serve/latency_us";
/// Counter: successful hot model reloads ([`InferenceServer::reload`]).
pub const SERVE_RELOADS: &str = "serve/reloads";
/// Counter: batches whose serving panicked. The batch's clients get
/// [`ServeError::WorkerDied`]; the worker resets its tape and collate
/// cache and keeps serving.
pub const SERVE_WORKER_PANICS: &str = "serve/worker_panics";

/// Inference-server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running forwards.
    pub workers: usize,
    /// Maximum structures coalesced into one forward (also the maximum
    /// structures per request).
    pub max_batch: usize,
    /// Maximum queued requests before [`ServeError::Busy`].
    pub queue_cap: usize,
    /// Task head whose predictions are served.
    pub head: usize,
    /// Collated batches each worker memoizes (index-keyed requests only).
    pub cache_batches: usize,
    /// Inference storage precision (the reduced-precision tier). With
    /// [`Precision::F16`] or [`Precision::Bf16`] the server quantizes
    /// the model's parameters once at start (and at each reload), its
    /// workers' tapes run the wide FMA forward kernels, and it serves
    /// tolerance-checked rather than bit-exact predictions.
    /// [`Precision::F32`] (the default) keeps serving bit-identical to
    /// [`TaskModel::predict`]. The choice belongs to this server's model
    /// alone: other servers and training in the same process are not
    /// affected.
    pub precision: Precision,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            queue_cap: 64,
            head: 0,
            cache_batches: 32,
            precision: Precision::F32,
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The queue is at `queue_cap`: shed load or retry later.
    Busy,
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The request itself is invalid (empty, too large, unknown index,
    /// index-based with no dataset configured, or a structure the model
    /// cannot read: a species outside its vocabulary, a species/position
    /// count mismatch, a non-finite coordinate, an edge to a missing
    /// atom).
    BadRequest(String),
    /// The worker serving the request exited without answering it.
    WorkerDied,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "queue full, request rejected (backpressure)"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::WorkerDied => write!(f, "a serve worker died without replying"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a request asks to be predicted.
enum Payload {
    /// Client-supplied structures (wired through the server's transform).
    Samples(Vec<Sample>),
    /// Indices into the server's configured dataset.
    Indices(Vec<usize>),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Samples(s) => s.len(),
            Payload::Indices(i) => i.len(),
        }
    }
}

/// One queued request: its payload, where to send the prediction rows,
/// and when it was accepted (for the latency histogram).
struct Job {
    payload: Payload,
    tx: mpsc::Sender<Vec<Vec<f32>>>,
    accepted: Instant,
}

struct Queue {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    /// Swapped wholesale by [`InferenceServer::reload`]; workers clone
    /// the `Arc` once per batch, so an in-flight batch finishes on the
    /// model it started with and the next batch sees the new one.
    model: RwLock<Arc<TaskModel>>,
    transform: Compose,
    dataset: Option<Arc<dyn Dataset>>,
    cfg: ServeConfig,
    obs: Obs,
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Test hook: the next batch a worker serves panics after its
    /// forward.
    #[cfg(test)]
    panic_next_batch: std::sync::atomic::AtomicBool,
}

/// The transport-free batched inference engine (see the module docs).
pub struct InferenceServer {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl InferenceServer {
    /// Start the engine: spawns `cfg.workers` worker threads over `model`.
    ///
    /// `transform` wires every incoming structure (client-supplied or
    /// dataset-materialized) — use the pipeline the model was trained
    /// with. `dataset` enables index-based requests; without it they are
    /// rejected as [`ServeError::BadRequest`].
    pub fn start(
        model: TaskModel,
        transform: Compose,
        dataset: Option<Arc<dyn Dataset>>,
        cfg: ServeConfig,
        obs: Obs,
    ) -> Self {
        let server = Self::new_paused(model, transform, dataset, cfg, obs);
        server.spawn_workers();
        server
    }

    /// Build the engine without workers (requests queue but nothing
    /// serves them until [`InferenceServer::spawn_workers`]); the
    /// deterministic half of `start`, used directly by tests that need
    /// to stage a known queue state.
    fn new_paused(
        model: TaskModel,
        transform: Compose,
        dataset: Option<Arc<dyn Dataset>>,
        cfg: ServeConfig,
        obs: Obs,
    ) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        assert!(cfg.head < model.heads.len(), "head index out of range");
        let mut model = model;
        model.quantize_params(cfg.precision);
        InferenceServer {
            shared: Arc::new(Shared {
                model: RwLock::new(Arc::new(model)),
                transform,
                dataset,
                cfg,
                obs,
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    open: true,
                }),
                ready: Condvar::new(),
                #[cfg(test)]
                panic_next_batch: Default::default(),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Spawn the configured worker threads (idempotent complement of
    /// [`InferenceServer::new_paused`]).
    fn spawn_workers(&self) {
        let mut workers = self.workers.lock().unwrap();
        for i in workers.len()..self.shared.cfg.workers {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning a serve worker failed");
            workers.push(handle);
        }
    }

    /// Predict client-supplied structures; blocks until served.
    /// Rows are `[structure][head out_dim]`, bit-identical to
    /// [`TaskModel::predict`] on the same structures alone.
    pub fn predict_samples(&self, samples: Vec<Sample>) -> Result<Vec<Vec<f32>>, ServeError> {
        reply(self.submit(Payload::Samples(samples))?)
    }

    /// Predict dataset entries by index; blocks until served.
    pub fn predict_indices(&self, indices: Vec<usize>) -> Result<Vec<Vec<f32>>, ServeError> {
        reply(self.submit(Payload::Indices(indices))?)
    }

    /// Validate and enqueue one request, returning the response channel.
    fn submit(&self, payload: Payload) -> Result<mpsc::Receiver<Vec<Vec<f32>>>, ServeError> {
        if payload.len() == 0 {
            return Err(ServeError::BadRequest("empty request".into()));
        }
        if payload.len() > self.shared.cfg.max_batch {
            return Err(ServeError::BadRequest(format!(
                "request of {} structures exceeds max_batch {}",
                payload.len(),
                self.shared.cfg.max_batch
            )));
        }
        match &payload {
            Payload::Indices(indices) => {
                let Some(ds) = &self.shared.dataset else {
                    return Err(ServeError::BadRequest(
                        "index-based request but the server has no dataset configured".into(),
                    ));
                };
                for &i in indices {
                    if i >= ds.len() {
                        return Err(ServeError::BadRequest(format!(
                            "index {i} out of range for dataset of {}",
                            ds.len()
                        )));
                    }
                }
            }
            Payload::Samples(samples) => {
                let vocab = self.shared.model.read().unwrap().num_species();
                for (k, s) in samples.iter().enumerate() {
                    check_structure(s, vocab)
                        .map_err(|why| ServeError::BadRequest(format!("structure {k}: {why}")))?;
                }
            }
        }

        let obs = &self.shared.obs;
        let mut q = self.shared.queue.lock().unwrap();
        if !q.open {
            return Err(ServeError::ShuttingDown);
        }
        if q.jobs.len() >= self.shared.cfg.queue_cap {
            obs.count(SERVE_REJECTED, 1);
            return Err(ServeError::Busy);
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job {
            payload,
            tx,
            accepted: Instant::now(),
        });
        if obs.enabled() {
            obs.count(SERVE_REQUESTS, 1);
            obs.observe(SERVE_QUEUE_DEPTH, q.jobs.len() as f64);
        }
        drop(q);
        self.shared.ready.notify_one();
        Ok(rx)
    }

    /// Hot-swap the served model from a `.mckpt` file (a training
    /// checkpoint or a [`crate::save_model`] artifact, any precision).
    /// In-flight batches finish on the old model; every batch coalesced
    /// after the swap uses the new parameters. The new model must keep
    /// the configured head valid and must not shrink the species
    /// vocabulary (requests already validated against the old one are
    /// still queued); on any error the old model keeps serving. Records
    /// [`SERVE_RELOADS`] on success.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let mut model = load_infer_model(path)
            .map_err(|e| format!("reload {}: {e}", path.display()))?
            .model;
        if self.shared.cfg.head >= model.heads.len() {
            return Err(format!(
                "reload {}: model has {} heads, server is configured for head {}",
                path.display(),
                model.heads.len(),
                self.shared.cfg.head
            ));
        }
        model.quantize_params(self.shared.cfg.precision);
        {
            let mut slot = self.shared.model.write().unwrap();
            if model.num_species() < slot.num_species() {
                return Err(format!(
                    "reload {}: model reads {} species, the served model {}",
                    path.display(),
                    model.num_species(),
                    slot.num_species()
                ));
            }
            *slot = Arc::new(model);
        }
        self.shared.obs.count(SERVE_RELOADS, 1);
        Ok(())
    }

    /// The observability handle the server records into (for transports
    /// that surface `serve/*` counters to clients).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Requests currently queued (diagnostic).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// Stop accepting requests, serve everything already queued, and join
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.open = false;
        }
        self.shared.ready.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            // A worker that died anyway has already dropped its jobs
            // (their clients saw `WorkerDied`); re-raising its panic here
            // would abort the process when this runs from `Drop`.
            let _ = handle.join();
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wait for an accepted request's rows. A worker that drops the request
/// unanswered (it died mid-batch) hangs up the channel.
fn reply(rx: mpsc::Receiver<Vec<Vec<f32>>>) -> Result<Vec<Vec<f32>>, ServeError> {
    rx.recv().map_err(|_| ServeError::WorkerDied)
}

/// Why `sample` would panic a worker's forward, if it would: a species
/// at or past the model's `vocab`, a species/position count mismatch, a
/// non-finite coordinate, or a client-supplied edge list that is ragged
/// or names a missing atom.
fn check_structure(sample: &Sample, vocab: usize) -> Result<(), String> {
    let g = &sample.graph;
    if g.species.len() != g.positions.len() {
        return Err(format!("{} species but {} positions", g.species.len(), g.positions.len()));
    }
    if let Some(&z) = g.species.iter().find(|&&z| z as usize >= vocab) {
        return Err(format!("species {z} outside the model's vocabulary of {vocab}"));
    }
    if g.positions.iter().any(|p| !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite())) {
        return Err("non-finite coordinate".into());
    }
    if g.src.len() != g.dst.len() {
        return Err(format!("{} edge sources but {} destinations", g.src.len(), g.dst.len()));
    }
    if g.src.iter().chain(&g.dst).any(|&v| v as usize >= g.species.len()) {
        return Err(format!("edge endpoint outside the structure's {} atoms", g.species.len()));
    }
    Ok(())
}

/// One worker: wait for requests, drain a run of them up to `max_batch`
/// structures, serve the coalesced batch, repeat until shutdown + drained.
/// A batch that panics is contained: its jobs are dropped unanswered
/// (their clients get [`ServeError::WorkerDied`]), the panic is counted
/// in [`SERVE_WORKER_PANICS`], and the tape and collate cache it may have
/// left half-written are replaced before the next batch.
fn worker_loop(shared: &Shared) {
    // The pooled forward state: one long-lived tape whose node and buffer
    // storage is recycled across batches, plus a collate memo for
    // index-keyed request runs.
    let mut g = Graph::new();
    let mut cache = CollateCache::new(shared.cfg.cache_batches);
    loop {
        let jobs = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if !q.jobs.is_empty() {
                    break;
                }
                if !q.open {
                    return;
                }
                q = shared.ready.wait(q).unwrap();
            }
            let mut jobs = Vec::new();
            let mut total = 0usize;
            while let Some(next) = q.jobs.front() {
                let n = next.payload.len();
                if total + n > shared.cfg.max_batch {
                    break;
                }
                total += n;
                jobs.push(q.jobs.pop_front().unwrap());
            }
            jobs
        };
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_batch(shared, &mut g, &mut cache, jobs)
        }));
        if served.is_err() {
            shared.obs.count(SERVE_WORKER_PANICS, 1);
            g = Graph::new();
            cache = CollateCache::new(shared.cfg.cache_batches);
        }
    }
}

/// Collate one run of requests into a single forward and split the
/// prediction rows back out per request.
fn serve_batch(shared: &Shared, g: &mut Graph, cache: &mut CollateCache, jobs: Vec<Job>) {
    debug_assert!(!jobs.is_empty());
    let obs = &shared.obs;

    // An all-index run is cacheable under its concatenated index list:
    // the transform is deterministic, so the collated batch is a pure
    // function of the key. (Job boundaries don't matter — the same total
    // index sequence collates to the same disjoint union.)
    let key: Option<Vec<usize>> = jobs
        .iter()
        .map(|j| match &j.payload {
            Payload::Indices(ix) => Some(ix.as_slice()),
            Payload::Samples(_) => None,
        })
        .collect::<Option<Vec<_>>>()
        .map(|lists| lists.concat());

    let materialize = || -> Batch {
        let samples: Vec<Sample> = jobs
            .iter()
            .flat_map(|j| match &j.payload {
                Payload::Samples(s) => {
                    s.iter().map(|s| shared.transform.apply(s.clone())).collect::<Vec<_>>()
                }
                Payload::Indices(ix) => {
                    let ds = shared.dataset.as_ref().expect("validated at submit");
                    ix.iter().map(|&i| shared.transform.apply(ds.sample(i))).collect()
                }
            })
            .collect();
        collate(&samples)
    };
    let owned;
    let batch: &Batch = match &key {
        Some(key) => cache.get_or_insert(key, obs, materialize),
        None => {
            owned = materialize();
            &owned
        }
    };

    let total: usize = jobs.iter().map(|j| j.payload.len()).sum();
    // One Arc clone per batch: a concurrent reload swaps the slot but
    // never this batch's model.
    let model = Arc::clone(&shared.model.read().unwrap());
    let simd_before = matsciml_tensor::simd_stats();
    let preds = model.predict_into(g, batch, shared.cfg.head);
    #[cfg(test)]
    if shared.panic_next_batch.swap(false, std::sync::atomic::Ordering::Relaxed) {
        panic!("serve_batch: injected test panic");
    }
    let half_ops = matsciml_tensor::simd_stats().since(&simd_before).half_ops;
    if half_ops > 0 {
        shared.obs.count(crate::ddp::SIMD_HALF_OPS, half_ops);
    }
    assert_eq!(preds.shape()[0], total, "one prediction row per structure");
    let out_dim = preds.shape()[1];
    let flat = preds.as_slice();

    if obs.enabled() {
        obs.count(SERVE_BATCHES, 1);
        obs.observe(SERVE_BATCH_SIZE, total as f64);
    }
    let mut row = 0usize;
    for job in &jobs {
        let rows: Vec<Vec<f32>> = (0..job.payload.len())
            .map(|_| {
                let r = flat[row * out_dim..(row + 1) * out_dim].to_vec();
                row += 1;
                r
            })
            .collect();
        // A gone receiver (client hung up) is not an error for the batch.
        let _ = job.tx.send(rows);
        if obs.enabled() {
            obs.observe(SERVE_LATENCY_US, job.accepted.elapsed().as_micros() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TargetKind, TaskHeadConfig};
    use matsciml_ckpt::{tags, ByteWriter, CkptReader, CkptWriter};
    use matsciml_datasets::{DatasetId, SyntheticMaterialsProject};
    use matsciml_models::EgnnConfig;

    const CUTOFF: f32 = 4.5;
    const MAXN: Option<usize> = Some(12);

    fn model() -> TaskModel {
        model_seeded(21)
    }

    fn model_seeded(seed: u64) -> TaskModel {
        TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            seed,
        )
    }

    /// A model whose predictions are visibly nonzero: fresh heads are
    /// zero-initialized (they start as the zero function), so reload
    /// visibility needs deterministic weight surgery on every tensor.
    fn perturbed(seed: u64) -> TaskModel {
        let mut m = model_seeded(seed);
        for i in 0..m.params.len() {
            let id = matsciml_nn::ParamId(i);
            for (j, v) in m.params.value_mut(id).as_mut_slice().iter_mut().enumerate() {
                *v += ((i * 31 + j * 7 + seed as usize) % 13) as f32 * 0.01 - 0.06;
            }
        }
        m
    }

    fn server(cfg: ServeConfig, obs: Obs) -> (InferenceServer, Vec<Vec<f32>>) {
        let ds = Arc::new(SyntheticMaterialsProject::new(24, 21));
        let m = model();
        // Ground truth: every dataset entry predicted alone, fresh tape.
        let pipeline = Compose::standard(CUTOFF, MAXN);
        let singles: Vec<Vec<f32>> = (0..ds.len())
            .map(|i| {
                let s = pipeline.apply(matsciml_datasets::Dataset::sample(&*ds, i));
                m.predict(&[s], 0).as_slice().to_vec()
            })
            .collect();
        let srv = InferenceServer::start(
            m,
            Compose::standard(CUTOFF, MAXN),
            Some(ds),
            cfg,
            obs,
        );
        (srv, singles)
    }

    #[test]
    fn batched_predictions_are_bit_identical_to_single() {
        let (srv, singles) = server(
            ServeConfig { workers: 2, max_batch: 8, ..Default::default() },
            Obs::disabled(),
        );
        // Concurrent clients force coalescing and interleaving.
        std::thread::scope(|scope| {
            for round in 0..3 {
                for i in 0..24 {
                    let srv = &srv;
                    let singles = &singles;
                    scope.spawn(move || {
                        let idx = (i + round) % 24;
                        // Under this much concurrency the bounded queue can
                        // legitimately push back; a real client retries.
                        let rows = loop {
                            match srv.predict_indices(vec![idx]) {
                                Ok(rows) => break rows,
                                Err(ServeError::Busy) => std::thread::yield_now(),
                                Err(e) => panic!("unexpected serve error: {e}"),
                            }
                        };
                        assert_eq!(rows.len(), 1);
                        let got: Vec<u32> = rows[0].iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u32> = singles[idx].iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "index {idx}: batched ≠ single");
                    });
                }
            }
        });
        srv.shutdown();
    }

    #[test]
    fn multi_structure_requests_split_correctly() {
        let (srv, singles) = server(ServeConfig::default(), Obs::disabled());
        let rows = srv.predict_indices(vec![3, 1, 7]).unwrap();
        assert_eq!(rows.len(), 3);
        for (row, idx) in rows.iter().zip([3usize, 1, 7]) {
            let got: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = singles[idx].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "index {idx} row mismatch");
        }
    }

    #[test]
    fn client_supplied_structures_are_wired_and_served() {
        let (srv, singles) = server(ServeConfig::default(), Obs::disabled());
        // Raw, un-wired samples: the server's transform must wire them.
        let ds = SyntheticMaterialsProject::new(24, 21);
        let raw = vec![ds.sample(5), ds.sample(9)];
        let rows = srv.predict_samples(raw).unwrap();
        assert_eq!(rows[0], singles[5]);
        assert_eq!(rows[1], singles[9]);
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        let (srv, _) = server(ServeConfig::default(), Obs::disabled());
        assert!(matches!(srv.predict_indices(vec![]), Err(ServeError::BadRequest(_))));
        assert!(matches!(srv.predict_indices(vec![999]), Err(ServeError::BadRequest(_))));
        let too_big: Vec<usize> = (0..100).map(|i| i % 24).collect();
        assert!(matches!(srv.predict_indices(too_big), Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn unreadable_structures_are_rejected_and_the_worker_keeps_serving() {
        let (srv, singles) = server(ServeConfig { workers: 1, ..Default::default() }, Obs::disabled());
        let ds = SyntheticMaterialsProject::new(24, 21);
        let mut bad_species = ds.sample(5);
        bad_species.graph.species[0] = 999;
        let mut ragged = ds.sample(5);
        ragged.graph.positions.pop();
        let mut nan = ds.sample(5);
        nan.graph.positions[0].y = f32::NAN;
        let mut dangling = ds.sample(5);
        dangling.graph.src = vec![0];
        dangling.graph.dst = vec![u32::MAX];
        for bad in [bad_species, ragged, nan, dangling] {
            let got = srv.predict_samples(vec![ds.sample(9), bad]);
            assert!(matches!(got, Err(ServeError::BadRequest(_))), "{got:?}");
        }
        // The one worker is alive and still exact.
        let rows = srv.predict_samples(vec![ds.sample(5)]).unwrap();
        let want: Vec<u32> = singles[5].iter().map(|v| v.to_bits()).collect();
        assert_eq!(rows[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn backpressure_rejects_and_shutdown_drains() {
        let obs = Obs::null();
        let ds = Arc::new(SyntheticMaterialsProject::new(24, 21));
        let srv = InferenceServer::new_paused(
            model(),
            Compose::standard(CUTOFF, MAXN),
            Some(ds),
            ServeConfig { workers: 1, queue_cap: 2, ..Default::default() },
            obs.clone(),
        );
        // No workers yet: the queue fills deterministically.
        let rx1 = srv.submit(Payload::Indices(vec![0])).unwrap();
        let rx2 = srv.submit(Payload::Indices(vec![1, 2])).unwrap();
        assert_eq!(srv.queue_depth(), 2);
        assert_eq!(srv.submit(Payload::Indices(vec![3])).err(), Some(ServeError::Busy));
        assert_eq!(obs.counter(SERVE_REJECTED), 1);
        assert_eq!(obs.counter(SERVE_REQUESTS), 2);

        // Shutdown with work still queued: both accepted requests must be
        // answered before the workers exit.
        srv.spawn_workers();
        srv.shutdown();
        assert_eq!(rx1.recv().unwrap().len(), 1);
        assert_eq!(rx2.recv().unwrap().len(), 2);
        assert_eq!(srv.queue_depth(), 0);
        assert_eq!(
            srv.predict_indices(vec![0]).err(),
            Some(ServeError::ShuttingDown)
        );
        // The drained queue was served as one coalesced batch of 3.
        assert_eq!(obs.counter(SERVE_BATCHES), 1);
    }

    #[test]
    fn a_request_dropped_unanswered_is_a_typed_error() {
        let ds = Arc::new(SyntheticMaterialsProject::new(24, 21));
        let srv = InferenceServer::new_paused(
            model(),
            Compose::standard(CUTOFF, MAXN),
            Some(ds),
            ServeConfig { workers: 1, ..Default::default() },
            Obs::disabled(),
        );
        let rx = srv.submit(Payload::Indices(vec![0])).unwrap();
        // What a worker dying mid-batch leaves behind: the job, and with
        // it the reply sender, dropped unanswered.
        srv.shared.queue.lock().unwrap().jobs.clear();
        assert_eq!(reply(rx), Err(ServeError::WorkerDied));
    }

    #[test]
    fn a_panicking_batch_is_contained_and_the_worker_keeps_serving() {
        let obs = Obs::null();
        let (srv, singles) = server(ServeConfig { workers: 1, ..Default::default() }, obs.clone());
        srv.shared.panic_next_batch.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(srv.predict_indices(vec![3, 5]), Err(ServeError::WorkerDied));
        // The one worker survived, with a fresh tape and cache: the same
        // index run is answered, bit-identical to predicting alone.
        let rows = srv.predict_indices(vec![3, 5]).unwrap();
        assert_eq!(rows, vec![singles[3].clone(), singles[5].clone()]);
        // Counted before the worker took the second batch.
        assert_eq!(obs.counter(SERVE_WORKER_PANICS), 1);
        // Dropping the server joins the worker cleanly.
        drop(srv);
    }

    #[test]
    fn serve_counters_move() {
        let obs = Obs::null();
        let (srv, _) = server(
            ServeConfig { workers: 1, ..Default::default() },
            obs.clone(),
        );
        let _ = srv.predict_indices(vec![0, 1]).unwrap();
        let _ = srv.predict_indices(vec![0, 1]).unwrap();
        srv.shutdown();
        assert_eq!(obs.counter(SERVE_REQUESTS), 2);
        assert!(obs.counter(SERVE_BATCHES) >= 1);
    }

    #[test]
    fn reload_hot_swaps_the_served_model() {
        let dir = std::env::temp_dir().join(format!("matsciml-serve-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::null();
        let (srv, singles) = server(
            ServeConfig { workers: 1, ..Default::default() },
            obs.clone(),
        );
        assert_eq!(srv.predict_indices(vec![0]).unwrap()[0], singles[0]);

        // A differently seeded model with the same architecture, saved as
        // a full-precision model artifact.
        let other = perturbed(99);
        let ds = SyntheticMaterialsProject::new(24, 21);
        let pipeline = Compose::standard(CUTOFF, MAXN);
        let others: Vec<Vec<f32>> = (0..24)
            .map(|i| {
                let s = pipeline.apply(matsciml_datasets::Dataset::sample(&ds, i));
                other.predict(&[s], 0).as_slice().to_vec()
            })
            .collect();
        // Some samples land in a dead-ReLU region for both seeds; pick one
        // where the two models visibly disagree.
        let idx = (0..24)
            .find(|&i| others[i] != singles[i])
            .expect("seeds must disagree somewhere for the swap to be visible");
        let expect = others[idx].clone();

        let path = dir.join("other.mckpt");
        crate::save_model(&path, &other, Precision::F32).unwrap();
        srv.reload(&path).unwrap();
        assert_eq!(srv.predict_indices(vec![idx]).unwrap()[0], expect);

        // Errors leave the old (just-swapped) model serving: a missing
        // file, a leftover JSON model from an earlier build, random bytes.
        let json = dir.join("leftover.json");
        std::fs::write(&json, br#"{"params":{"values":[],"names":[]},"heads":[]}"#).unwrap();
        let noise = dir.join("noise.mckpt");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let bytes: Vec<u8> = (0..4096).map(|_| rand::RngCore::next_u32(&mut rng) as u8).collect();
        std::fs::write(&noise, bytes).unwrap();
        // A smaller vocabulary than the queued requests were validated for.
        let narrow = dir.join("narrow.mckpt");
        let narrow_model = TaskModel::egnn(
            EgnnConfig { num_species: 10, ..EgnnConfig::small(8) },
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            21,
        );
        crate::save_model(&narrow, &narrow_model, Precision::F32).unwrap();
        // A checksummed artifact whose PRMH section claims 2^40 tensors.
        let crafted = dir.join("crafted.mckpt");
        let mut prmh = ByteWriter::new();
        prmh.put_u32(u32::from(Precision::F16.tag_byte()));
        prmh.put_u64(1 << 40);
        let arch = CkptReader::read(&path).unwrap();
        let mut w = CkptWriter::new();
        w.section(tags::MODEL_JSON, arch.require(tags::MODEL_JSON).unwrap().to_vec());
        w.section(tags::PARAMS_HALF, prmh.into_bytes());
        w.write(&crafted).unwrap();
        for bad in [dir.join("missing.mckpt"), json, noise, narrow, crafted] {
            assert!(srv.reload(&bad).is_err(), "{} must not load", bad.display());
            assert_eq!(srv.predict_indices(vec![idx]).unwrap()[0], expect);
        }

        // And back to the original weights through a quantized artifact.
        let orig = model_seeded(21);
        let ckpt = dir.join("orig.mckpt");
        crate::save_model(&ckpt, &orig, Precision::F16).unwrap();
        srv.reload(&ckpt).unwrap();
        let swapped = srv.predict_indices(vec![idx]).unwrap();
        assert_ne!(swapped[0], expect);

        assert_eq!(obs.counter(SERVE_RELOADS), 2);
        srv.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
