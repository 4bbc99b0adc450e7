//! Zero-recompute batch-pipeline acceptance: worker-side collation, the
//! cross-epoch graph cache, and precomputed-edge shards are *schedules*,
//! not math — every combination must train bit-identically to the
//! all-recompute baseline (synchronous loads, per-load graph builds,
//! inline collation).
//!
//! The matrix covers {raw corpus, precomputed-edge corpus} × {graph
//! cache on, off} × read-ahead threads {1, 4} over a ≥3-epoch run with
//! SIMD lanes and overlapped communication on, comparing per-step
//! loss/grad-norm/lr/val bitwise and the final parameters bitwise. It
//! also proves the cache and the precomputed path actually engage: a
//! cache-on raw-corpus run records hits from the second epoch onward,
//! and a precomputed-corpus run produces *zero* cache traffic (the
//! transform never runs).
//!
//! One `#[test]` on purpose: the SIMD toggle and the graph cache are
//! process-global, so the arms must run serially.

use std::path::PathBuf;

use matsciml_datasets::{
    write_corpus, write_corpus_iter, Compose, CorpusWriteOptions, DataLoader, Dataset, DatasetId,
    ShuffleMode, Split, StreamingDataset, SyntheticLips, Transform,
};
use matsciml_graph::{graph_cache_stats, reset_graph_cache, set_graph_cache};
use matsciml_models::EgnnConfig;
use matsciml_tensor::set_simd_enabled;
use matsciml_train::{TargetKind, TaskHeadConfig, TaskModel, TrainConfig, TrainLog, Trainer};

const SAMPLES: usize = 40;
const SEED: u64 = 29;
const BATCH: usize = 8;
/// 40 samples → 32 train → 4 batches/epoch, so 12 steps = 3 full epochs.
const STEPS: u64 = 12;
const RADIUS: f32 = 4.5;
const MAX_NEIGHBORS: usize = 12;

fn corpus(tag: &str, precompute: bool) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("matsciml-pipeline-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = SyntheticLips::new(SAMPLES, SEED);
    let opts = CorpusWriteOptions { verify: true, ..Default::default() };
    if precompute {
        // What `shard-write --precompute-edges` does: run the training
        // pipeline at corpus-build time so the shards carry edges.
        let pipeline = Compose::standard(RADIUS, Some(MAX_NEIGHBORS));
        let samples = (0..ds.len()).map(|i| pipeline.apply(ds.sample(i)));
        write_corpus_iter(samples, &dir, opts).unwrap();
    } else {
        write_corpus(&ds, &dir, opts).unwrap();
    }
    dir
}

fn run(ds: &dyn Dataset, threads: usize) -> (TrainLog, TaskModel) {
    let pipeline = Compose::standard(RADIUS, Some(MAX_NEIGHBORS));
    let train_dl = DataLoader::new(ds, Some(&pipeline), Split::Train, 0.2, BATCH, SEED)
        .with_shuffle_mode(ShuffleMode::Blocked(20));
    let val_dl = DataLoader::new(ds, Some(&pipeline), Split::Val, 0.2, BATCH, SEED);
    let mut model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::regression(DatasetId::Lips, TargetKind::Energy, 16, 1)],
        SEED,
    );
    let trainer = Trainer::new(TrainConfig {
        world_size: 2,
        per_rank_batch: BATCH / 2,
        steps: STEPS,
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        seed: SEED,
        overlap_comm: true,
        readahead_threads: threads,
        readahead_depth: 2,
        ..Default::default()
    });
    let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
    (log, model)
}

fn assert_same_trajectory(a: &(TrainLog, TaskModel), b: &(TrainLog, TaskModel), what: &str) {
    assert_eq!(a.0.records.len(), b.0.records.len(), "{what}: step count");
    for (ra, rb) in a.0.records.iter().zip(&b.0.records) {
        assert_eq!(ra.train.get("loss"), rb.train.get("loss"), "{what}: step {}", ra.step);
        assert_eq!(ra.grad_norm, rb.grad_norm, "{what}: step {}", ra.step);
        assert_eq!(ra.lr, rb.lr, "{what}: step {}", ra.step);
        match (&ra.val, &rb.val) {
            (Some(va), Some(vb)) => assert_eq!(va.0, vb.0, "{what}: step {} val", ra.step),
            (None, None) => {}
            _ => panic!("{what}: step {}: eval schedule diverged", ra.step),
        }
    }
    assert_eq!(a.1.params.len(), b.1.params.len(), "{what}: param count");
    for i in 0..a.1.params.len() {
        assert_eq!(
            a.1.params.value(matsciml_nn::ParamId(i)).as_slice(),
            b.1.params.value(matsciml_nn::ParamId(i)).as_slice(),
            "{what}: final parameter {i} diverged"
        );
    }
}

#[test]
fn pipeline_arms_match_all_recompute_baseline_bitwise() {
    set_simd_enabled(true);

    // All-recompute baseline: in-memory dataset, synchronous loads, graph
    // rebuilt on every load, collation inline in the DDP step.
    set_graph_cache(false);
    let in_memory = SyntheticLips::new(SAMPLES, SEED);
    let want = run(&in_memory, 0);
    assert!(
        want.0.records.last().unwrap().epoch >= 2,
        "run must span at least 3 epochs for cross-epoch reuse to engage"
    );

    let raw_dir = corpus("raw", false);
    let pre_dir = corpus("pre", true);
    let raw = StreamingDataset::open(&raw_dir).unwrap();
    let pre = StreamingDataset::open(&pre_dir).unwrap();

    for threads in [1usize, 4] {
        for cache in [false, true] {
            set_graph_cache(cache);
            reset_graph_cache();

            let before = graph_cache_stats();
            let got = run(&raw, threads);
            let gc = graph_cache_stats().since(&before);
            assert_same_trajectory(
                &want,
                &got,
                &format!("raw corpus, cache {cache}, {threads} thread(s)"),
            );
            if cache {
                assert!(
                    gc.hits > 0,
                    "cross-epoch cache never hit over {STEPS} steps ({threads} thread(s))"
                );
            } else {
                assert_eq!(gc.hits + gc.misses, 0, "disabled cache saw traffic");
            }

            let before = graph_cache_stats();
            let got = run(&pre, threads);
            let gc = graph_cache_stats().since(&before);
            assert_same_trajectory(
                &want,
                &got,
                &format!("precomputed corpus, cache {cache}, {threads} thread(s)"),
            );
            // Stored edges skip the whole transform pipeline, so the graph
            // cache must see no traffic at all — zero recompute.
            assert_eq!(
                gc.hits + gc.misses,
                0,
                "precomputed-edge corpus still built graphs (cache {cache}, {threads} thread(s))"
            );
        }
    }

    set_graph_cache(true);
    reset_graph_cache();
    std::fs::remove_dir_all(&raw_dir).ok();
    std::fs::remove_dir_all(&pre_dir).ok();
}
