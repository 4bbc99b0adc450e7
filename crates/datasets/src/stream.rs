//! Sharded corpus directories and the [`StreamingDataset`] that reads
//! them without ever materializing an epoch.
//!
//! A corpus directory is a `manifest.json` plus one or more `.mshard`
//! files (see [`crate::shard`] and `docs/SHARD_FORMAT.md`). The writer
//! streams samples from any source — a generator, a `.jsonl` parse, an
//! iterator — through one bounded [`ShardWriter`] at a time, so writing a
//! 10M-structure corpus costs one shard of memory, not ten million
//! samples. The reader side is a [`Dataset`] implementation over the
//! shard set: global index → (shard, local index) via binary search,
//! shards opened lazily and held in a small LRU of memory maps, records
//! decoded on demand. Every downstream consumer — trainer, collate
//! cache, serve path — works unchanged.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::sample::{Dataset, DatasetId, Sample};
use crate::shard::{ShardError, ShardReader, ShardWriter};
use matsciml_ckpt::write_durable;

/// Manifest format identifier (bumped only on incompatible change).
pub const MANIFEST_FORMAT: &str = "matsciml-shard/v1";

/// Counter name: shard files opened (mapped or buffered).
pub const DATA_SHARD_OPEN: &str = "data/shard_open";

/// Counter name: encoded record bytes decoded from shard storage.
pub const DATA_STREAM_BYTES: &str = "data/stream_bytes";

/// One shard file as listed in `manifest.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardEntry {
    /// File name relative to the corpus directory.
    pub file: String,
    /// Records in the shard.
    pub samples: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// The shard's trailing whole-file CRC-32.
    pub crc32: u32,
}

/// The corpus directory's `manifest.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Always [`MANIFEST_FORMAT`].
    pub format: String,
    /// Dataset name ([`DatasetId::name`]; `"mixed"` for blended corpora).
    pub dataset: String,
    /// Total records across all shards.
    pub total_samples: u64,
    /// Target records per shard the writer was configured with (the last
    /// shard may hold fewer).
    pub shard_samples: u64,
    /// The shard files, in global index order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Parse `manifest.json` from a corpus directory.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        let path = dir.as_ref().join("manifest.json");
        let text = std::fs::read_to_string(&path)?;
        let m: ShardManifest = serde_json::from_str(&text)
            .map_err(|e| ShardError::Malformed(format!("{}: {e}", path.display())))?;
        if m.format != MANIFEST_FORMAT {
            return Err(ShardError::Malformed(format!(
                "{}: manifest format `{}` is not `{MANIFEST_FORMAT}`",
                path.display(),
                m.format
            )));
        }
        if m.shards.is_empty() {
            return Err(ShardError::Malformed(format!(
                "{}: manifest lists no shards",
                path.display()
            )));
        }
        let sum: u64 = m.shards.iter().map(|s| s.samples).sum();
        if sum != m.total_samples {
            return Err(ShardError::Malformed(format!(
                "{}: shard sample counts sum to {sum}, manifest claims {}",
                path.display(),
                m.total_samples
            )));
        }
        Ok(m)
    }

    /// Write `manifest.json` into `dir` through [`write_durable`].
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), ShardError> {
        let path = dir.as_ref().join("manifest.json");
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| ShardError::Malformed(format!("manifest serialization: {e}")))?;
        write_durable(&path, (text + "\n").as_bytes())?;
        Ok(())
    }
}

/// Knobs for [`write_corpus`] / [`write_corpus_iter`].
#[derive(Debug, Clone, Copy)]
pub struct CorpusWriteOptions {
    /// Records per shard (the last shard holds the remainder).
    pub shard_samples: usize,
    /// Re-open and CRC-verify every shard after writing it.
    pub verify: bool,
    /// Shard write workers. `1` (the default) writes serially on the
    /// calling thread. With more, full shards are handed to a bounded
    /// worker pool that encodes, writes, and verifies them while the
    /// producer keeps filling the next shard. Output is byte-identical
    /// to the serial writer — each shard's bytes and file name depend
    /// only on its own records and position — at the cost of holding up
    /// to roughly `workers + 2` shards in memory instead of one.
    pub workers: usize,
}

impl Default for CorpusWriteOptions {
    fn default() -> Self {
        // 64k LiPS-sized records ≈ 40 MB per shard: large enough that a
        // million-structure corpus stays in the tens of files, small
        // enough that the writer's working set is trivial.
        CorpusWriteOptions { shard_samples: 65_536, verify: false, workers: 1 }
    }
}

fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.{}", crate::shard::SHARD_EXT)
}

/// Write `dataset` into `dir` as a sharded corpus (directory created;
/// an existing `manifest.json` is overwritten). Returns the manifest.
pub fn write_corpus(
    dataset: &dyn Dataset,
    dir: impl AsRef<Path>,
    options: CorpusWriteOptions,
) -> Result<ShardManifest, ShardError> {
    let n = dataset.len();
    write_corpus_iter((0..n).map(|i| dataset.sample(i)), dir, options)
}

/// Stream any sample iterator into `dir` as a sharded corpus. Memory is
/// bounded by one shard regardless of corpus size; the manifest's
/// dataset id is derived from the samples themselves (`"mixed"` when
/// provenance varies). Errors on an empty iterator (a corpus must hold
/// at least one sample).
pub fn write_corpus_iter(
    samples: impl IntoIterator<Item = Sample>,
    dir: impl AsRef<Path>,
    options: CorpusWriteOptions,
) -> Result<ShardManifest, ShardError> {
    assert!(options.shard_samples > 0, "shard_samples must be positive");
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let shards = fill_shards(samples, options.shard_samples);
    let written = if options.workers > 1 {
        write_shards_parallel(shards, dir, options)?
    } else {
        shards
            .enumerate()
            .map(|(index, shard)| flush_shard(&shard, dir, index, options.verify))
            .collect::<Result<Vec<_>, _>>()?
    };
    let corpus_id = written.iter().fold(None, |set, &(id, _)| Some(DatasetId::merge(set, id)));
    let shards: Vec<ShardEntry> = written.into_iter().map(|(_, entry)| entry).collect();
    let Some(corpus_id) = corpus_id else {
        return Err(ShardError::Malformed(
            "refusing to write an empty corpus (no samples)".into(),
        ));
    };
    let manifest = ShardManifest {
        format: MANIFEST_FORMAT.into(),
        dataset: corpus_id.name().into(),
        total_samples: shards.iter().map(|s| s.samples).sum(),
        shard_samples: options.shard_samples as u64,
        shards,
    };
    manifest.save(dir)?;
    Ok(manifest)
}

/// Cut `samples` into shards of `shard_samples` records, the last one
/// holding the remainder. Shards are filled one at a time, as they are
/// consumed, so memory is bounded by the shards in flight.
fn fill_shards(
    samples: impl IntoIterator<Item = Sample>,
    shard_samples: usize,
) -> impl Iterator<Item = ShardWriter> {
    let mut samples = samples.into_iter().fuse();
    std::iter::from_fn(move || {
        let mut shard = ShardWriter::new();
        for sample in samples.by_ref() {
            shard.push(&sample);
            if shard.len() >= shard_samples {
                break;
            }
        }
        (!shard.is_empty()).then_some(shard)
    })
}

/// Write a non-empty shard as corpus file number `index`, re-open and
/// CRC-verify it when `verify` is set, and return its provenance and
/// manifest entry.
fn flush_shard(
    writer: &ShardWriter,
    dir: &Path,
    index: usize,
    verify: bool,
) -> Result<(DatasetId, ShardEntry), ShardError> {
    let shard_id = writer.dataset().expect("only non-empty shards are flushed");
    let file = shard_file_name(index);
    let path = dir.join(&file);
    let info = writer.write(&path)?;
    if verify {
        ShardReader::open(&path)?.verify()?;
    }
    let entry = ShardEntry { file, samples: info.samples, bytes: info.bytes, crc32: info.crc32 };
    Ok((shard_id, entry))
}

/// The `workers > 1` body of [`write_corpus_iter`]: a producer/pool
/// pipeline over whole shards. The producer (the calling thread) fills
/// one shard at a time from `shards` and hands each, tagged with its
/// index, to the pool; workers run [`flush_shard`] concurrently.
/// Shard contents are independent and file names are positional, so the
/// on-disk corpus is byte-identical to the serial writer's. Returns the
/// flushed shards in index order, or the first error in that order.
fn write_shards_parallel(
    shards: impl Iterator<Item = ShardWriter>,
    dir: &Path,
    options: CorpusWriteOptions,
) -> Result<Vec<(DatasetId, ShardEntry)>, ShardError> {
    use std::sync::mpsc;

    type ShardResult = Result<(DatasetId, ShardEntry), ShardError>;

    // Capacity 1 keeps memory bounded: at most `workers` shards in
    // flight plus one queued plus the one being filled.
    let (job_tx, job_rx) = mpsc::sync_channel::<(usize, ShardWriter)>(1);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (res_tx, res_rx) = mpsc::channel::<(usize, ShardResult)>();

    let results = std::thread::scope(|scope| {
        for _ in 0..options.workers {
            let job_rx = Arc::clone(&job_rx);
            let res_tx = res_tx.clone();
            scope.spawn(move || loop {
                let job = job_rx.lock().expect("shard job lock").recv();
                let Ok((index, writer)) = job else { break };
                let result = flush_shard(&writer, dir, index, options.verify);
                if res_tx.send((index, result)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx);

        let mut next = 0usize;
        for (index, shard) in shards.enumerate() {
            // Send fails only when every worker died; their error
            // reports are in the result channel.
            if job_tx.send((index, shard)).is_err() {
                break;
            }
            next = index + 1;
        }
        drop(job_tx);

        let mut results: Vec<Option<ShardResult>> = (0..next).map(|_| None).collect();
        for (index, result) in res_rx {
            results[index] = Some(result);
        }
        results
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every dispatched shard reports a result"))
        .collect()
}

/// How many shards a [`StreamingDataset`] keeps open at once by default.
/// Each open shard is a memory map (cheap) or a buffered file (one
/// allocation), so the bound exists to cap file descriptors and buffered
/// memory, not map count.
pub const DEFAULT_MAX_OPEN: usize = 8;

/// Sample interval between `madvise(MADV_DONTNEED)` residency hints: after
/// every this many decoded samples, the shard that served the sample gets
/// [`ShardReader::advise_dontneed`], bounding mapped-page residency over
/// long streams.
pub const DEFAULT_ADVISE_EVERY: u64 = 65_536;

struct OpenShards {
    /// `readers[i]` is shard `i` when open.
    readers: Vec<Option<Arc<ShardReader>>>,
    /// Open shard indices, least recently used first.
    lru: Vec<usize>,
}

/// A [`Dataset`] over a sharded corpus directory: random access by global
/// index, shards opened lazily into a bounded LRU, records decoded on
/// demand from (usually memory-mapped) storage. Cloning is cheap and the
/// clone shares the open-shard cache, so reader threads spawned by the
/// read-ahead pipeline amortize shard opens.
#[derive(Clone)]
pub struct StreamingDataset {
    inner: Arc<StreamingInner>,
}

struct StreamingInner {
    dir: PathBuf,
    manifest: ShardManifest,
    dataset: DatasetId,
    /// `starts[i]` = global index of shard `i`'s first record;
    /// `starts[n]` = total.
    starts: Vec<u64>,
    open: Mutex<OpenShards>,
    max_open: usize,
    obs: matsciml_obs::Obs,
    /// Samples decoded since the last residency hint.
    since_advise: AtomicU64,
}

impl StreamingDataset {
    /// Open a corpus directory (validates the manifest; shards open
    /// lazily on first access, so this is O(manifest)).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        Self::open_with(dir, DEFAULT_MAX_OPEN, matsciml_obs::Obs::disabled())
    }

    /// [`StreamingDataset::open`] with an explicit open-shard bound and an
    /// observability handle for the `data/*` streaming counters.
    pub fn open_with(
        dir: impl AsRef<Path>,
        max_open: usize,
        obs: matsciml_obs::Obs,
    ) -> Result<Self, ShardError> {
        assert!(max_open > 0, "max_open must be positive");
        let dir = dir.as_ref().to_path_buf();
        let manifest = ShardManifest::load(&dir)?;
        let dataset = DatasetId::from_name(&manifest.dataset).ok_or_else(|| {
            ShardError::Malformed(format!("unknown dataset name `{}`", manifest.dataset))
        })?;
        let mut starts = Vec::with_capacity(manifest.shards.len() + 1);
        let mut acc = 0u64;
        for s in &manifest.shards {
            starts.push(acc);
            acc += s.samples;
        }
        starts.push(acc);
        let nshards = manifest.shards.len();
        Ok(StreamingDataset {
            inner: Arc::new(StreamingInner {
                dir,
                manifest,
                dataset,
                starts,
                open: Mutex::new(OpenShards {
                    readers: (0..nshards).map(|_| None).collect(),
                    lru: Vec::new(),
                }),
                max_open,
                obs,
                since_advise: AtomicU64::new(0),
            }),
        })
    }

    /// The corpus manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.inner.manifest
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Number of shard files.
    pub fn num_shards(&self) -> usize {
        self.inner.manifest.shards.len()
    }

    /// Map a global index to `(shard, local index)`.
    fn locate(&self, index: usize) -> (usize, usize) {
        let starts = &self.inner.starts;
        let idx = index as u64;
        assert!(
            idx < *starts.last().expect("nonempty starts"),
            "index {index} out of range for {} samples",
            starts.last().expect("nonempty starts")
        );
        let shard = match starts.binary_search(&idx) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        (shard, (idx - starts[shard]) as usize)
    }

    /// Fetch shard `i` from the LRU, opening (and possibly evicting) under
    /// the lock. Open errors panic: the manifest promised this shard, so a
    /// failure mid-run is corruption, not a recoverable condition.
    fn reader(&self, shard: usize) -> Arc<ShardReader> {
        let inner = &self.inner;
        let mut open = inner.open.lock().expect("shard cache lock");
        if let Some(r) = &open.readers[shard] {
            let r = Arc::clone(r);
            // Refresh recency.
            if let Some(pos) = open.lru.iter().position(|&s| s == shard) {
                open.lru.remove(pos);
            }
            open.lru.push(shard);
            return r;
        }
        if open.lru.len() >= inner.max_open {
            let evict = open.lru.remove(0);
            open.readers[evict] = None;
        }
        let path = inner.dir.join(&inner.manifest.shards[shard].file);
        let reader = ShardReader::open(&path).unwrap_or_else(|e| {
            panic!("failed to open shard {}: {e}", path.display());
        });
        inner.obs.count(DATA_SHARD_OPEN, 1);
        let reader = Arc::new(reader);
        open.readers[shard] = Some(Arc::clone(&reader));
        open.lru.push(shard);
        reader
    }

    /// [`Dataset::sample`] with typed errors instead of panics — the
    /// probe-friendly path for tools (`shard-write --verify`, tests).
    pub fn try_sample(&self, index: usize) -> Result<Sample, ShardError> {
        let (shard, local) = self.locate(index);
        let reader = self.reader(shard);
        let bytes = reader.record_bytes(local)?;
        let n = bytes.len() as u64;
        let sample = crate::shard::decode_record(bytes)?;
        let inner = &self.inner;
        inner.obs.count(DATA_STREAM_BYTES, n);
        let prev = inner.since_advise.fetch_add(1, Ordering::Relaxed);
        if prev + 1 >= DEFAULT_ADVISE_EVERY {
            inner.since_advise.store(0, Ordering::Relaxed);
            reader.advise_dontneed();
        }
        Ok(sample)
    }
}

impl Dataset for StreamingDataset {
    fn id(&self) -> DatasetId {
        self.inner.dataset
    }

    fn len(&self) -> usize {
        *self.inner.starts.last().expect("nonempty starts") as usize
    }

    fn sample(&self, index: usize) -> Sample {
        self.try_sample(index)
            .unwrap_or_else(|e| panic!("streaming sample {index}: {e}"))
    }
}

/// Cross-check a precomputed-edge corpus against a fresh graph rebuild.
///
/// Visits up to `max_checks` records spread evenly across the corpus;
/// for each, strips the stored edge list, re-runs `graph_stage` (the
/// same [`crate::GraphTransform`] the corpus was written with) on the
/// stored positions, and requires the rebuilt `src`/`dst` vectors to
/// match the stored ones exactly. Returns the number of records
/// checked; the first disagreement aborts with
/// [`ShardError::EdgeMismatch`].
///
/// Only the graph stage re-runs: stored positions already went through
/// the full write-time pipeline (centering included), and re-centering
/// an already-centered cloud shifts positions by f32 rounding, which
/// would defeat the exact comparison this check exists to make.
pub fn verify_precomputed_edges(
    dir: impl AsRef<Path>,
    graph_stage: &dyn crate::transform::Transform,
    max_checks: usize,
) -> Result<usize, ShardError> {
    let ds = StreamingDataset::open(dir)?;
    let total = ds.len();
    if total == 0 || max_checks == 0 {
        return Ok(0);
    }
    let stride = total.div_ceil(max_checks).max(1);
    let mut checked = 0;
    let mut index = 0;
    while index < total {
        let stored = ds.try_sample(index)?;
        let mut stripped = stored.clone();
        stripped.graph.src.clear();
        stripped.graph.dst.clear();
        let rebuilt = graph_stage.apply(stripped);
        if rebuilt.graph.src != stored.graph.src || rebuilt.graph.dst != stored.graph.dst {
            return Err(ShardError::EdgeMismatch {
                index,
                stored_edges: stored.graph.num_edges(),
                rebuilt_edges: rebuilt.graph.num_edges(),
            });
        }
        checked += 1;
        index += stride;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticLips, SyntheticMaterialsProject};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("matsciml-stream-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn corpus_roundtrips_through_shards() {
        let dir = tmp("roundtrip");
        let ds = SyntheticMaterialsProject::new(23, 5);
        let opts = CorpusWriteOptions { shard_samples: 10, verify: true, workers: 1 };
        let manifest = write_corpus(&ds, &dir, opts).unwrap();
        assert_eq!(manifest.total_samples, 23);
        assert_eq!(manifest.shards.len(), 3, "23 samples at 10/shard → 10+10+3");
        assert_eq!(manifest.shards[2].samples, 3);

        let stream = StreamingDataset::open(&dir).unwrap();
        assert_eq!(stream.len(), 23);
        assert_eq!(stream.id(), DatasetId::MaterialsProject);
        assert_eq!(stream.num_shards(), 3);
        for i in 0..23 {
            assert_eq!(
                serde_json::to_string(&ds.sample(i)).unwrap(),
                serde_json::to_string(&stream.sample(i)).unwrap(),
                "streamed sample {i} must equal the generator's"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_bounds_open_shards_and_counts_opens() {
        let dir = tmp("lru");
        let ds = SyntheticLips::new(12, 9);
        write_corpus(&ds, &dir, CorpusWriteOptions { shard_samples: 2, verify: false, workers: 1 }).unwrap();
        let obs = matsciml_obs::Obs::null();
        let stream = StreamingDataset::open_with(&dir, 2, obs.clone()).unwrap();
        assert_eq!(stream.num_shards(), 6);
        // Forward sweep touches every shard once: 6 opens.
        for i in 0..12 {
            stream.sample(i);
        }
        assert_eq!(obs.counter(DATA_SHARD_OPEN), 6);
        // Re-reading the last two shards hits the LRU: no new opens.
        stream.sample(11);
        stream.sample(8);
        assert_eq!(obs.counter(DATA_SHARD_OPEN), 6);
        // Reading shard 0 again evicts and reopens: one more.
        stream.sample(0);
        assert_eq!(obs.counter(DATA_SHARD_OPEN), 7);
        assert!(obs.counter(DATA_STREAM_BYTES) > 0, "byte counter advances");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_writer_is_byte_identical_to_serial() {
        let serial_dir = tmp("par-serial");
        let parallel_dir = tmp("par-pool");
        // 23 samples at 4/shard → 6 shards, last one ragged.
        let ds = SyntheticMaterialsProject::new(23, 11);
        let serial = write_corpus(
            &ds,
            &serial_dir,
            CorpusWriteOptions { shard_samples: 4, verify: true, workers: 1 },
        )
        .unwrap();
        let parallel = write_corpus(
            &ds,
            &parallel_dir,
            CorpusWriteOptions { shard_samples: 4, verify: true, workers: 3 },
        )
        .unwrap();
        assert_eq!(serial.shards.len(), 6);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "manifests must match field for field"
        );
        for entry in &serial.shards {
            let a = std::fs::read(serial_dir.join(&entry.file)).unwrap();
            let b = std::fs::read(parallel_dir.join(&entry.file)).unwrap();
            assert_eq!(a, b, "{}: parallel bytes differ from serial", entry.file);
        }
        // And the parallel corpus reads back exactly.
        let stream = StreamingDataset::open(&parallel_dir).unwrap();
        for i in 0..23 {
            assert_eq!(
                serde_json::to_string(&ds.sample(i)).unwrap(),
                serde_json::to_string(&stream.sample(i)).unwrap(),
            );
        }
        std::fs::remove_dir_all(&serial_dir).ok();
        std::fs::remove_dir_all(&parallel_dir).ok();
    }

    #[test]
    fn manifest_validation_rejects_tampering() {
        let dir = tmp("tamper");
        let ds = SyntheticMaterialsProject::new(4, 1);
        write_corpus(&ds, &dir, CorpusWriteOptions { shard_samples: 2, verify: false, workers: 1 }).unwrap();
        let path = dir.join("manifest.json");
        let good = std::fs::read_to_string(&path).unwrap();

        // Wrong format string.
        std::fs::write(&path, good.replace(MANIFEST_FORMAT, "matsciml-shard/v9")).unwrap();
        assert!(matches!(StreamingDataset::open(&dir), Err(ShardError::Malformed(_))));

        // Sample-count sum mismatch.
        std::fs::write(&path, good.replace("\"total_samples\": 4", "\"total_samples\": 5")).unwrap();
        assert!(matches!(StreamingDataset::open(&dir), Err(ShardError::Malformed(_))));

        // Missing manifest.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(StreamingDataset::open(&dir), Err(ShardError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn precomputed_corpus_roundtrips_and_cross_checks() {
        use crate::transform::{Compose, GraphTransform, Transform};
        let dir = tmp("precomp");
        let ds = SyntheticLips::new(14, 7);
        let pipeline = Compose::standard(9.0, Some(12));
        let opts = CorpusWriteOptions { shard_samples: 5, verify: true, workers: 1 };
        let samples = (0..ds.len()).map(|i| pipeline.apply(ds.sample(i)));
        let manifest = write_corpus_iter(samples, &dir, opts).unwrap();
        assert_eq!(manifest.total_samples, 14);

        // Stored records carry edges and equal the transform-at-load result.
        let stream = StreamingDataset::open(&dir).unwrap();
        for i in 0..14 {
            let stored = stream.sample(i);
            assert!(stored.graph.num_edges() > 0, "record {i} must carry edges");
            let fresh = pipeline.apply(ds.sample(i));
            assert_eq!(
                serde_json::to_string(&stored).unwrap(),
                serde_json::to_string(&fresh).unwrap(),
                "stored record {i} must equal write-time transform output"
            );
        }

        // The cross-check passes against the matching graph stage
        // (14 records at stride ceil(14/8)=2 → 7 visited)...
        let graph_stage = GraphTransform::radius(9.0, Some(12));
        assert_eq!(verify_precomputed_edges(&dir, &graph_stage, 8).unwrap(), 7);
        // ...checks every record when the cap allows...
        assert_eq!(verify_precomputed_edges(&dir, &graph_stage, 100).unwrap(), 14);
        // ...and rejects a corpus written with different parameters.
        let wrong = GraphTransform::radius(1.0, Some(2));
        match verify_precomputed_edges(&dir, &wrong, 8) {
            Err(ShardError::EdgeMismatch { index, .. }) => assert_eq!(index, 0),
            other => panic!("expected EdgeMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_share_the_shard_cache() {
        let dir = tmp("clone");
        let ds = SyntheticMaterialsProject::new(6, 2);
        write_corpus(&ds, &dir, CorpusWriteOptions { shard_samples: 3, verify: false, workers: 1 }).unwrap();
        let obs = matsciml_obs::Obs::null();
        let a = StreamingDataset::open_with(&dir, 4, obs.clone()).unwrap();
        let b = a.clone();
        a.sample(0);
        b.sample(1); // same shard, opened once
        assert_eq!(obs.counter(DATA_SHARD_OPEN), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
