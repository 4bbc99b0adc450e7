//! Splitting, shuffling, and batched loading — with background
//! materialization. [`ReadAhead`] runs N worker threads that drain a
//! request queue into a bounded result channel, and the front end
//! reassembles completed batches into schedule order, so the batch
//! stream is **bit-identical regardless of worker count** (asserted in
//! `tests/stream_determinism.rs`).
//!
//! Shuffling likewise has two modes ([`ShuffleMode`]): the historical
//! uniform `Global` permutation, and `Blocked(n)` — shuffle blocks of
//! `n` consecutive split positions, then shuffle within each block —
//! which keeps reads clustered so a memory-mapped shard touches pages in
//! bursts the streaming layer can retire with residency hints. Both
//! modes see only *split index positions*, never shard boundaries, so
//! the order for a given `(seed, epoch, mode)` is independent of how
//! the corpus is sharded.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::sample::{Dataset, Sample};
use crate::transform::Transform;

/// Counter name for batches served from the read-ahead pipeline.
pub const DATA_READAHEAD_HIT: &str = "data/readahead_hit";
/// Counter name for batches that bypassed read-ahead (not requested in
/// order) and loaded synchronously.
pub const DATA_READAHEAD_MISS: &str = "data/readahead_miss";
/// Histogram name for the ready-queue depth observed at each take: how
/// many completed batches were waiting ahead of need. Persistently 0
/// means the trainer outruns the readers; persistently at capacity means
/// the readers outrun the trainer.
pub const DATA_READAHEAD_DEPTH: &str = "data/readahead_depth";

/// How an epoch permutation is drawn. Part of the loader's determinism
/// contract: the order depends only on `(split, seed, epoch, mode)` —
/// never on shard layout or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleMode {
    /// One uniform permutation over the whole split (the default, and
    /// the historical behaviour).
    Global,
    /// Partition the split's positions into consecutive blocks of the
    /// given size, shuffle the block order, then shuffle within each
    /// block (one RNG stream drives both, so the result is a single
    /// deterministic permutation). Samples that are near each other on
    /// disk stay near each other in time — the access pattern that lets
    /// a memory-mapped [`crate::StreamingDataset`] keep a bounded
    /// resident set.
    Blocked(usize),
}

/// Train/validation split role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training partition.
    Train,
    /// Validation partition.
    Val,
}

/// A shuffling, transforming batch loader over a [`Dataset`] partition.
///
/// The split is index-striped deterministically from the dataset seed-space
/// (every `k`-th index is validation), and each epoch's shuffle derives
/// from `(seed, epoch)` so runs are reproducible.
pub struct DataLoader<'d> {
    dataset: &'d dyn Dataset,
    transform: Option<&'d dyn Transform>,
    indices: Vec<usize>,
    batch_size: usize,
    seed: u64,
    shuffle: ShuffleMode,
}

impl<'d> DataLoader<'d> {
    /// Build a loader over one split. `val_fraction` of indices (striped,
    /// not contiguous) go to validation.
    pub fn new(
        dataset: &'d dyn Dataset,
        transform: Option<&'d dyn Transform>,
        split: Split,
        val_fraction: f32,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..1.0).contains(&val_fraction), "val_fraction in [0,1)");
        assert!(batch_size > 0, "batch_size must be positive");
        let stride = if val_fraction > 0.0 {
            (1.0 / val_fraction).round().max(2.0) as usize
        } else {
            usize::MAX
        };
        let indices: Vec<usize> = (0..dataset.len())
            .filter(|i| match split {
                Split::Val => stride != usize::MAX && i % stride == 0,
                Split::Train => stride == usize::MAX || i % stride != 0,
            })
            .collect();
        DataLoader {
            dataset,
            transform,
            indices,
            batch_size,
            seed,
            shuffle: ShuffleMode::Global,
        }
    }

    /// Replace the shuffle mode (default [`ShuffleMode::Global`]).
    pub fn with_shuffle_mode(mut self, mode: ShuffleMode) -> Self {
        if let ShuffleMode::Blocked(b) = mode {
            assert!(b > 0, "block size must be positive");
        }
        self.shuffle = mode;
        self
    }

    /// Number of samples in this split.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the split is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of full batches per epoch (trailing partial batch dropped,
    /// matching the DDP convention of equal per-rank shards).
    pub fn batches_per_epoch(&self) -> usize {
        self.len() / self.batch_size
    }

    /// Materialize one sample by position within the split (unshuffled).
    pub fn get(&self, pos: usize) -> Sample {
        let s = self.dataset.sample(self.indices[pos]);
        match self.transform {
            Some(t) => t.apply(s),
            None => s,
        }
    }

    /// The shuffled batch schedule for `epoch`: a vector of index-vectors.
    pub fn epoch_batches(&self, epoch: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ epoch.wrapping_mul(0x9E37_79B9));
        let order = match self.shuffle {
            ShuffleMode::Global => {
                let mut order = self.indices.clone();
                order.shuffle(&mut rng);
                order
            }
            ShuffleMode::Blocked(block) => {
                let nblocks = self.indices.len().div_ceil(block);
                let mut block_order: Vec<usize> = (0..nblocks).collect();
                block_order.shuffle(&mut rng);
                let mut order = Vec::with_capacity(self.indices.len());
                for &b in &block_order {
                    let start = b * block;
                    let end = (start + block).min(self.indices.len());
                    let within = order.len();
                    order.extend_from_slice(&self.indices[start..end]);
                    order[within..].shuffle(&mut rng);
                }
                order
            }
        };
        order
            .chunks_exact(self.batch_size)
            .map(|c| c.to_vec())
            .collect()
    }

    /// Materialize a batch of dataset indices (from [`Self::epoch_batches`]).
    pub fn load(&self, batch: &[usize]) -> Vec<Sample> {
        batch
            .iter()
            .map(|&i| {
                let s = self.dataset.sample(i);
                match self.transform {
                    Some(t) => t.apply(s),
                    None => s,
                }
            })
            .collect()
    }

    /// [`Self::load`] with instrumentation: when `obs` is enabled, batch
    /// materialization (sampling + transforms) is timed under
    /// [`matsciml_obs::Phase::Data`] and the sample count lands on the
    /// `data/samples_loaded` counter. Disabled `obs` takes the exact
    /// untimed path.
    pub fn load_observed(&self, batch: &[usize], obs: &matsciml_obs::Obs) -> Vec<Sample> {
        let span = obs.span(matsciml_obs::Phase::Data);
        let samples = self.load(batch);
        drop(span);
        obs.count("data/samples_loaded", batch.len() as u64);
        samples
    }

    /// Spawn a multi-worker read-ahead pipeline on `scope`.
    ///
    /// `threads` workers drain a shared request queue (each running
    /// [`Self::load`], so read-ahead samples are identical to synchronous
    /// loads) into a result channel bounded at `depth` completed batches
    /// — the backpressure that keeps the pipeline's memory footprint at
    /// `O(depth + threads)` batches no matter how far the schedule runs
    /// ahead. The front end reassembles results into request order, so
    /// delivery is bit-identical for any `threads ≥ 1`.
    pub fn spawn_readahead<'s>(
        &'s self,
        scope: &'s std::thread::Scope<'s, '_>,
        threads: usize,
        depth: usize,
    ) -> ReadAhead<'s> {
        fn identity(samples: Vec<Sample>) -> Vec<Sample> {
            samples
        }
        self.spawn_readahead_with(scope, threads, depth, &identity)
    }

    /// [`Self::spawn_readahead`] with a worker-side post-processing
    /// stage: each materialized batch is passed through `stage` on the
    /// worker thread before crossing the result channel, so per-batch
    /// assembly work (collation, say — the train crate feeds its
    /// `collate` through here to build `ModelInput`s off the critical
    /// thread) overlaps with training alongside sample loading.
    ///
    /// The delivery contract is unchanged: results come back in request
    /// order, and a take that misses the pipeline loads synchronously
    /// and runs the *same* `stage` inline, so the value stream is
    /// bit-identical for any worker count, and to a loop of synchronous
    /// loads (the trainer's `readahead_threads: 0`).
    pub fn spawn_readahead_with<'s, T: Send + 's>(
        &'s self,
        scope: &'s std::thread::Scope<'s, '_>,
        threads: usize,
        depth: usize,
        stage: &'s (dyn Fn(Vec<Sample>) -> T + Sync),
    ) -> ReadAhead<'s, T> {
        assert!(threads > 0, "readahead needs at least one worker");
        assert!(depth > 0, "readahead needs a positive queue depth");
        let shared = Arc::new(RaQueue::default());
        let (res_tx, res_rx) = std::sync::mpsc::sync_channel::<(u64, T)>(depth);
        for _ in 0..threads {
            let shared = Arc::clone(&shared);
            let res_tx: SyncSender<(u64, T)> = res_tx.clone();
            scope.spawn(move || loop {
                let job = {
                    let mut g = shared.state.lock().expect("readahead queue lock");
                    loop {
                        if let Some(job) = g.jobs.pop_front() {
                            break Some(job);
                        }
                        if g.closed {
                            break None;
                        }
                        g = shared.cv.wait(g).expect("readahead queue lock");
                    }
                };
                let Some((seq, batch)) = job else { break };
                let out = stage(self.load(&batch));
                // A dropped front end makes this send fail; the worker
                // then exits and the scope joins it.
                if res_tx.send((seq, out)).is_err() {
                    break;
                }
            });
        }
        ReadAhead {
            shared,
            res_rx,
            pending: VecDeque::new(),
            ready: BTreeMap::new(),
            next_seq: 0,
            stage,
        }
    }
}

/// Shared request queue between the [`ReadAhead`] front end and its
/// workers.
#[derive(Default)]
struct RaQueue {
    state: Mutex<RaState>,
    cv: Condvar,
}

#[derive(Default)]
struct RaState {
    jobs: VecDeque<(u64, Vec<usize>)>,
    closed: bool,
}

/// Front end of a multi-worker read-ahead pipeline
/// (see [`DataLoader::spawn_readahead`] /
/// [`DataLoader::spawn_readahead_with`]).
///
/// Requests carry sequence numbers; workers complete them in whatever
/// order scheduling allows, and [`ReadAhead::take_observed`] buffers
/// early arrivals in a reorder map so batches always come back in
/// request order — the property that makes the training stream
/// independent of worker count. `T` is whatever the worker-side stage
/// produces per batch (raw samples for [`DataLoader::spawn_readahead`]).
/// Dropping the front end closes the request queue and wakes every
/// worker so the owning scope can join.
pub struct ReadAhead<'s, T = Vec<Sample>> {
    shared: Arc<RaQueue>,
    res_rx: Receiver<(u64, T)>,
    /// Outstanding requests, oldest first.
    pending: VecDeque<(u64, Vec<usize>)>,
    /// Completed batches that arrived ahead of their turn.
    ready: BTreeMap<u64, T>,
    next_seq: u64,
    /// Worker-side per-batch stage; also run inline on fallback loads.
    stage: &'s (dyn Fn(Vec<Sample>) -> T + Sync),
}

impl<T> ReadAhead<'_, T> {
    /// Queue `batch` for background materialization.
    pub fn request(&mut self, batch: &[usize]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((seq, batch.to_vec()));
        let mut g = self.shared.state.lock().expect("readahead queue lock");
        g.jobs.push_back((seq, batch.to_vec()));
        drop(g);
        self.shared.cv.notify_one();
    }

    /// Number of requests issued but not yet taken.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Retrieve `batch`. A *hit* requires it to be the oldest
    /// outstanding request (the trainer's cadence guarantees this);
    /// completed batches are claimed from the reorder buffer or awaited
    /// from the result channel, with only the blocking wait timed under
    /// [`matsciml_obs::Phase::Data`]. Anything else is a *miss* served by a
    /// synchronous [`DataLoader::load_observed`] followed by the same
    /// worker stage run inline (timed under `Phase::Data`), so hit and
    /// miss produce identical values. Counts [`DATA_READAHEAD_HIT`] /
    /// [`DATA_READAHEAD_MISS`], observes the ready-queue depth on
    /// [`DATA_READAHEAD_DEPTH`], and advances `data/samples_loaded`.
    pub fn take_observed(
        &mut self,
        loader: &DataLoader<'_>,
        batch: &[usize],
        obs: &matsciml_obs::Obs,
    ) -> T {
        let front_matches = self.pending.front().map(|(_, q)| q[..] == *batch) == Some(true);
        if !front_matches {
            obs.count(DATA_READAHEAD_MISS, 1);
            let samples = loader.load_observed(batch, obs);
            let span = obs.span(matsciml_obs::Phase::Data);
            let out = (self.stage)(samples);
            drop(span);
            return out;
        }
        let (seq, _) = self.pending.pop_front().expect("front checked above");
        // Drain whatever has already completed so the depth observation
        // counts every batch that beat the trainer here.
        while let Ok((s, out)) = self.res_rx.try_recv() {
            self.ready.insert(s, out);
        }
        obs.observe(DATA_READAHEAD_DEPTH, self.ready.len() as f64);
        let out = match self.ready.remove(&seq) {
            Some(out) => out,
            None => {
                let _span = obs.span(matsciml_obs::Phase::Data);
                loop {
                    let (s, out) = self.res_rx.recv().expect("readahead worker alive");
                    if s == seq {
                        break out;
                    }
                    // An earlier-completed later batch: park it.
                    self.ready.insert(s, out);
                }
            }
        };
        obs.count(DATA_READAHEAD_HIT, 1);
        obs.count("data/samples_loaded", batch.len() as u64);
        out
    }
}

impl<T> Drop for ReadAhead<'_, T> {
    fn drop(&mut self) {
        let mut g = self.shared.state.lock().expect("readahead queue lock");
        g.closed = true;
        g.jobs.clear();
        drop(g);
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticMaterialsProject;
    use crate::transform::Compose;

    #[test]
    fn split_partitions_without_overlap() {
        let ds = SyntheticMaterialsProject::new(100, 1);
        let train = DataLoader::new(&ds, None, Split::Train, 0.2, 8, 0);
        let val = DataLoader::new(&ds, None, Split::Val, 0.2, 8, 0);
        assert_eq!(train.len() + val.len(), 100);
        assert_eq!(val.len(), 20);
        let tset: std::collections::HashSet<_> = train.indices.iter().collect();
        assert!(val.indices.iter().all(|i| !tset.contains(i)));
    }

    #[test]
    fn zero_val_fraction_gives_everything_to_train() {
        let ds = SyntheticMaterialsProject::new(50, 1);
        let train = DataLoader::new(&ds, None, Split::Train, 0.0, 5, 0);
        assert_eq!(train.len(), 50);
        let val = DataLoader::new(&ds, None, Split::Val, 0.0, 5, 0);
        assert_eq!(val.len(), 0);
    }

    #[test]
    fn epoch_shuffles_are_reproducible_and_distinct() {
        let ds = SyntheticMaterialsProject::new(64, 1);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 8, 42);
        let a = dl.epoch_batches(0);
        let b = dl.epoch_batches(0);
        assert_eq!(a, b, "same epoch must shuffle identically");
        let c = dl.epoch_batches(1);
        assert_ne!(a, c, "different epochs must shuffle differently");
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|batch| batch.len() == 8));
    }

    #[test]
    fn batches_cover_each_index_once_per_epoch() {
        let ds = SyntheticMaterialsProject::new(32, 1);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 9);
        let mut seen: Vec<usize> = dl.epoch_batches(3).into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn transform_is_applied_on_load() {
        let ds = SyntheticMaterialsProject::new(20, 1);
        // 9 Å comfortably exceeds the worst-case nearest-neighbor distance a
        // 2-atom prototype cell can realize, so every graph gets wired
        // regardless of which RNG stream backs the dataset.
        let pipeline = Compose::standard(9.0, Some(12));
        let dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, 4, 0);
        let batch = dl.load(&[0, 1, 2, 3]);
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|s| s.graph.num_edges() > 0), "graphs must be wired");
        let raw = dl.dataset.sample(0);
        assert_eq!(raw.graph.num_edges(), 0, "dataset itself stays point-cloud");
    }

    #[test]
    fn blocked_shuffle_is_a_permutation_with_locality() {
        let ds = SyntheticMaterialsProject::new(64, 3);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 8, 11)
            .with_shuffle_mode(ShuffleMode::Blocked(16));
        let a = dl.epoch_batches(2);
        let b = dl.epoch_batches(2);
        assert_eq!(a, b, "blocked shuffle must be reproducible");
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>(), "must be a permutation");
        // Locality: each 16-index run is one block, i.e. spans < 16 in
        // index space; a global shuffle of 64 indices almost surely
        // would not satisfy this for every run.
        let flat: Vec<usize> = a.iter().flatten().copied().collect();
        for run in flat.chunks(16) {
            let lo = *run.iter().min().expect("nonempty");
            let hi = *run.iter().max().expect("nonempty");
            assert_eq!(hi - lo, 15, "each run must cover exactly one 16-block");
        }
        // And the mode changes the order vs global.
        let global = DataLoader::new(&ds, None, Split::Train, 0.0, 8, 11).epoch_batches(2);
        assert_ne!(a, global);
    }

    #[test]
    fn blocked_shuffle_handles_ragged_final_block() {
        let ds = SyntheticMaterialsProject::new(20, 3);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 7)
            .with_shuffle_mode(ShuffleMode::Blocked(8)); // blocks 8, 8, 4
        let mut seen: Vec<usize> = dl.epoch_batches(0).into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn readahead_batches_equal_synchronous_loads() {
        let ds = SyntheticMaterialsProject::new(48, 5);
        let pipeline = Compose::standard(9.0, Some(12));
        let dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, 4, 7);
        let schedule = dl.epoch_batches(0);
        let obs = matsciml_obs::Obs::null();
        std::thread::scope(|scope| {
            let mut ra = dl.spawn_readahead(scope, 3, 4);
            // Request the whole epoch up front: the bounded channel
            // applies backpressure, delivery is still in order.
            for batch in &schedule {
                ra.request(batch);
            }
            for batch in &schedule {
                let got = ra.take_observed(&dl, batch, &obs);
                let sync = dl.load(batch);
                for (a, b) in got.iter().zip(&sync) {
                    assert_eq!(
                        serde_json::to_string(a).unwrap(),
                        serde_json::to_string(b).unwrap(),
                        "read-ahead sample must equal the synchronous load"
                    );
                }
            }
        });
        assert_eq!(obs.counter(DATA_READAHEAD_HIT), schedule.len() as u64);
        assert_eq!(obs.counter(DATA_READAHEAD_MISS), 0);
    }

    #[test]
    fn staged_readahead_matches_inline_stage_on_hit_and_miss() {
        let ds = SyntheticMaterialsProject::new(24, 4);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 3);
        let schedule = dl.epoch_batches(0);
        let obs = matsciml_obs::Obs::null();
        let stage = |samples: Vec<Sample>| -> usize {
            samples.iter().map(|s| s.graph.num_nodes()).sum()
        };
        let inline = |batch: &[usize]| stage(dl.load(batch));
        std::thread::scope(|scope| {
            let mut ra = dl.spawn_readahead_with(scope, 2, 3, &stage);
            for batch in &schedule {
                ra.request(batch);
            }
            for batch in &schedule {
                assert_eq!(ra.take_observed(&dl, batch, &obs), inline(batch));
            }
            // Unrequested batch: the fallback must run the same stage.
            assert_eq!(ra.take_observed(&dl, &schedule[0], &obs), inline(&schedule[0]));
        });
        assert_eq!(obs.counter(DATA_READAHEAD_MISS), 1);
    }

    #[test]
    fn readahead_falls_back_on_unrequested_batches() {
        let ds = SyntheticMaterialsProject::new(16, 2);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 1);
        let schedule = dl.epoch_batches(0);
        let obs = matsciml_obs::Obs::null();
        std::thread::scope(|scope| {
            let mut ra = dl.spawn_readahead(scope, 2, 2);
            // Never requested → synchronous miss, identical samples.
            let got = ra.take_observed(&dl, &schedule[1], &obs);
            assert_eq!(got.len(), 4);
        });
        assert_eq!(obs.counter(DATA_READAHEAD_MISS), 1);
        assert_eq!(obs.counter(DATA_READAHEAD_HIT), 0);
    }

    #[test]
    fn trailing_partial_batch_is_dropped() {
        let ds = SyntheticMaterialsProject::new(10, 1);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 0);
        assert_eq!(dl.batches_per_epoch(), 2);
        assert_eq!(dl.epoch_batches(0).len(), 2);
    }
}
