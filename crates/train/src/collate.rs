//! Batch collation: samples → model input + per-sample target/provenance
//! vectors the task heads extract from.
//!
//! Collation lives here rather than in `matsciml-datasets` because its
//! output is a [`matsciml_models::ModelInput`] (built CSR edge lists,
//! inv-degree tensors) and the datasets crate sits below the models
//! crate in the dependency stack. The datasets crate still runs collate
//! *work* off the critical thread, without knowing the type: the
//! trainer hands [`collate_ranks`] to
//! [`matsciml_datasets::DataLoader::spawn_readahead_with`] as an opaque
//! worker-side stage, so read-ahead workers deliver fully collated
//! per-rank [`Batch`]es ("worker-side collation").
//!
//! [`CollateCache`] memoizes the full sample-load + collate pipeline by
//! batch index list.

use std::collections::HashMap;

use matsciml_datasets::{DataLoader, DatasetId, Sample, Targets};
use matsciml_graph::BatchedGraph;
use matsciml_models::ModelInput;

/// Counter: a [`CollateCache`] lookup reused a previously collated batch.
pub const DATA_COLLATE_HIT: &str = "data/collate_hit";
/// Counter: a [`CollateCache`] lookup had to load + collate from scratch.
pub const DATA_COLLATE_MISS: &str = "data/collate_miss";
/// Counter: a [`CollateCache`] insert displaced the least-recently-used
/// batch to stay within capacity.
pub const DATA_COLLATE_EVICT: &str = "data/collate_evict";
/// Counter: per-rank batches collated by the worker-side collation
/// stage ([`collate_ranks`] running under read-ahead; the synchronous
/// fallback runs the same stage inline and counts here too).
pub const DATA_COLLATE_WORKER: &str = "data/collate_worker";
/// Counter: per-rank batches collated inline on the training thread
/// (the synchronous data path — raw samples delivered, [`collate`]
/// inside the DDP step's forward span).
pub const DATA_COLLATE_INLINE: &str = "data/collate_inline";
/// Counter: graph-cache hits (`matsciml_graph::graph_cache_stats`
/// surfaced into the run record by the training loop).
pub const DATA_GRAPH_CACHE_HIT: &str = "data/graph_cache_hit";
/// Counter: graph-cache misses.
pub const DATA_GRAPH_CACHE_MISS: &str = "data/graph_cache_miss";
/// Counter: graph-cache LRU evictions.
pub const DATA_GRAPH_CACHE_EVICT: &str = "data/graph_cache_evict";

/// A collated batch: the encoder input plus per-graph provenance and
/// targets (heads build their own masked tensors from these).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Encoder input (merged disjoint-union graph).
    pub input: ModelInput,
    /// Source dataset of each graph in the batch.
    pub datasets: Vec<DatasetId>,
    /// Targets of each graph in the batch.
    pub targets: Vec<Targets>,
}

/// Collate a batch of samples into tape-ready form.
pub fn collate(samples: &[Sample]) -> Batch {
    assert!(!samples.is_empty(), "cannot collate an empty batch");
    let graphs: Vec<_> = samples.iter().map(|s| s.graph.clone()).collect();
    let batched = BatchedGraph::from_graphs(&graphs);
    Batch {
        input: ModelInput::from_batched(&batched),
        datasets: samples.iter().map(|s| s.dataset).collect(),
        targets: samples.iter().map(|s| s.targets).collect(),
    }
}

/// Collate a global batch into its per-rank [`Batch`]es: consecutive
/// `per_rank`-sized chunks, exactly the shards [`crate::ddp_step`] would cut
/// and [`collate`] itself. This is the worker-side collation stage the
/// trainer hands to
/// [`matsciml_datasets::DataLoader::spawn_readahead_with`] — a pure
/// function of the sample list, so worker-collated batches are
/// bit-identical to on-thread collation of the same samples.
///
/// Panics unless `samples.len()` is a positive multiple of `per_rank`
/// (the trainer's equal-shard convention).
pub fn collate_ranks(samples: &[Sample], per_rank: usize) -> Vec<Batch> {
    assert!(per_rank > 0, "per_rank must be positive");
    assert!(
        !samples.is_empty() && samples.len().is_multiple_of(per_rank),
        "global batch of {} does not cut into per-rank shards of {per_rank}",
        samples.len()
    );
    samples.chunks_exact(per_rank).map(collate).collect()
}

/// Memoizes load + [`collate`] by batch index list.
///
/// Transforms are deterministic by contract (see
/// [`matsciml_datasets::DataLoader::spawn_readahead`]), so the same index
/// list always materializes the same samples and the cached [`Batch`] —
/// including the built edge CSR and inverse degrees inside its
/// [`ModelInput`] — is exactly what a fresh collate would produce.
///
/// Hits happen when a schedule revisits an identical index list: fixed-
/// batch benchmarks, probes, and the fixed eval schedule hit on every
/// pass after the first, so this cache backs the evaluation path. The
/// training loop reshuffles per epoch — identical index lists never
/// recur there, so its hot path bypasses this cache entirely and
/// instead amortizes batch assembly structurally: collation moves onto
/// read-ahead workers ([`collate_ranks`] via worker-side collation) and
/// repeated neighbor-list builds hit the cross-epoch graph cache in
/// `matsciml-graph`, which keys by structure rather than index list.
///
/// Eviction is least-recently-used, one entry at a time: a long eval
/// stream with an ever-changing schedule holds exactly `capacity`
/// batches resident and recycles the coldest slot per miss, instead of
/// either growing without bound or dumping the whole working set the
/// moment it reaches capacity (the two previous behaviours). Recency is
/// a monotone tick stamped on every touch; the victim is the minimum
/// tick, an O(capacity) scan — capacities are tens of entries, so a
/// linked-list LRU would be bookkeeping without a payoff.
pub struct CollateCache {
    map: HashMap<Vec<usize>, (u64, Batch)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CollateCache {
    /// A cache holding at most `capacity` collated batches.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CollateCache {
            map: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The batch for `indices`, loading + collating through `loader` on a
    /// miss. Hit/miss lands on the [`DATA_COLLATE_HIT`] /
    /// [`DATA_COLLATE_MISS`] counters when `obs` is enabled.
    pub fn get_or_collate(
        &mut self,
        loader: &DataLoader<'_>,
        indices: &[usize],
        obs: &matsciml_obs::Obs,
    ) -> &Batch {
        self.get_or_insert(indices, obs, || collate(&loader.load(indices)))
    }

    /// The batch cached under `key`, building it with `make` on a miss —
    /// the general entry point for callers that materialize samples
    /// themselves (the inference server keys by dataset index list
    /// without a [`DataLoader`]). Hit/miss lands on the same counters as
    /// [`CollateCache::get_or_collate`].
    pub fn get_or_insert(
        &mut self,
        key: &[usize],
        obs: &matsciml_obs::Obs,
        make: impl FnOnce() -> Batch,
    ) -> &Batch {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(key) {
            entry.0 = tick;
            self.hits += 1;
            obs.count(DATA_COLLATE_HIT, 1);
        } else {
            self.misses += 1;
            obs.count(DATA_COLLATE_MISS, 1);
            if self.map.len() >= self.capacity {
                let victim = self
                    .map
                    .iter()
                    .min_by_key(|(_, (t, _))| *t)
                    .map(|(k, _)| k.clone())
                    .expect("cache at capacity is nonempty");
                self.map.remove(&victim);
                self.evictions += 1;
                obs.count(DATA_COLLATE_EVICT, 1);
            }
            self.map.insert(key.to_vec(), (tick, make()));
        }
        &self.map[key].1
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to collate from scratch.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by LRU eviction so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Currently cached batch count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no batches.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_datasets::{Dataset, SyntheticCarolina, SyntheticMaterialsProject};

    #[test]
    fn collate_preserves_order_and_counts() {
        let mp = SyntheticMaterialsProject::new(10, 1);
        let cmd = SyntheticCarolina::new(10, 2);
        let samples = vec![mp.sample(0), cmd.sample(0), mp.sample(1)];
        let batch = collate(&samples);
        assert_eq!(batch.input.num_graphs, 3);
        assert_eq!(
            batch.datasets,
            vec![DatasetId::MaterialsProject, DatasetId::Carolina, DatasetId::MaterialsProject]
        );
        assert!(batch.targets[0].band_gap.is_some());
        assert!(batch.targets[1].band_gap.is_none());
        assert!(batch.targets[1].formation_energy.is_some());
        let total_nodes: usize = samples.iter().map(|s| s.graph.num_nodes()).sum();
        assert_eq!(batch.input.num_nodes(), total_nodes);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = collate(&[]);
    }

    #[test]
    fn collate_ranks_matches_per_shard_collate() {
        let ds = SyntheticMaterialsProject::new(8, 3);
        let samples: Vec<_> = (0..8).map(|i| ds.sample(i)).collect();
        let ranks = collate_ranks(&samples, 2);
        assert_eq!(ranks.len(), 4);
        for (rank, batch) in ranks.iter().enumerate() {
            let direct = collate(&samples[rank * 2..rank * 2 + 2]);
            assert_eq!(batch.input.src, direct.input.src);
            assert_eq!(batch.input.dst, direct.input.dst);
            assert_eq!(
                batch.input.inv_degree,
                direct.input.inv_degree
            );
            assert_eq!(batch.datasets, direct.datasets);
        }
    }

    #[test]
    #[should_panic(expected = "does not cut")]
    fn collate_ranks_rejects_ragged_batches() {
        let ds = SyntheticMaterialsProject::new(5, 3);
        let samples: Vec<_> = (0..5).map(|i| ds.sample(i)).collect();
        let _ = collate_ranks(&samples, 2);
    }

    #[test]
    fn collate_cache_hits_on_repeated_schedule() {
        use matsciml_datasets::{DataLoader, Split};
        let ds = SyntheticMaterialsProject::new(24, 5);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 9);
        let schedule = dl.epoch_batches(0);
        let obs = matsciml_obs::Obs::null();
        let mut cache = CollateCache::new(8);

        // First pass: all misses; the cached batch must equal a fresh one.
        for b in schedule.iter().take(3) {
            let cached = cache.get_or_collate(&dl, b, &obs).clone();
            let fresh = collate(&dl.load(b));
            assert_eq!(cached.input.src, fresh.input.src);
            assert_eq!(cached.input.dst, fresh.input.dst);
            assert_eq!(
                cached.input.inv_degree,
                fresh.input.inv_degree
            );
            assert_eq!(cached.datasets, fresh.datasets);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 3));

        // Second pass over the same index lists: all hits.
        for b in schedule.iter().take(3) {
            let _ = cache.get_or_collate(&dl, b, &obs);
        }
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
        assert_eq!(obs.counter(DATA_COLLATE_HIT), 3);
        assert_eq!(obs.counter(DATA_COLLATE_MISS), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn collate_cache_evicts_least_recently_used() {
        use matsciml_datasets::{DataLoader, Split};
        let ds = SyntheticMaterialsProject::new(24, 5);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 9);
        let schedule = dl.epoch_batches(0);
        assert!(schedule.len() >= 4);
        let obs = matsciml_obs::Obs::null();
        let mut cache = CollateCache::new(2);

        // Fill: [0, 1]. Touch 0 so 1 becomes the LRU victim.
        let _ = cache.get_or_collate(&dl, &schedule[0], &obs);
        let _ = cache.get_or_collate(&dl, &schedule[1], &obs);
        let _ = cache.get_or_collate(&dl, &schedule[0], &obs);
        // Insert 2: evicts 1, keeps 0 — the cache stays full, not cleared.
        let _ = cache.get_or_collate(&dl, &schedule[2], &obs);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(obs.counter(DATA_COLLATE_EVICT), 1);

        // 0 survived (hit); 1 was the victim (miss, evicting again).
        let hits_before = cache.hits();
        let _ = cache.get_or_collate(&dl, &schedule[0], &obs);
        assert_eq!(cache.hits(), hits_before + 1, "recently used entry survived");
        let _ = cache.get_or_collate(&dl, &schedule[1], &obs);
        assert_eq!(cache.evictions(), 2, "victim re-entry is a miss + eviction");
        assert_eq!(cache.len(), 2, "LRU keeps the cache bounded and full");
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn collate_cache_stays_bounded_over_a_long_stream() {
        use matsciml_datasets::{DataLoader, Split};
        let ds = SyntheticMaterialsProject::new(64, 5);
        let dl = DataLoader::new(&ds, None, Split::Train, 0.0, 4, 9);
        let obs = matsciml_obs::Obs::disabled();
        let mut cache = CollateCache::new(4);
        // Two epochs of distinct schedules — the long-eval-stream shape
        // that previously grew the map without limit.
        for epoch in 0..2 {
            for b in dl.epoch_batches(epoch) {
                let _ = cache.get_or_collate(&dl, &b, &obs);
            }
        }
        assert_eq!(cache.len(), 4, "never exceeds capacity");
        assert_eq!(cache.misses(), cache.evictions() + 4);
    }
}
