//! Streaming-determinism acceptance: the sharded corpus is a storage
//! layout, not a schedule. For the same seed, the delivered sample order
//! and the full training trajectory must be identical across
//!
//! * shard layouts — one monolithic shard, three uneven shards, eight
//!   uniform shards — of the *same* 160-sample corpus, and
//! * read-ahead worker counts (1 vs 4 threads), including the
//!   synchronous in-memory baseline with no read-ahead at all.
//!
//! Order identity is checked fingerprint-by-fingerprint over two epochs
//! of blocked-shuffle batches; trajectory identity is a 5-step run
//! compared loss/grad-norm/lr/val-metric/final-parameter bitwise, with
//! the SIMD lane tier enabled.

use std::path::PathBuf;

use matsciml_datasets::{
    write_corpus, CorpusWriteOptions, DataLoader, Dataset, DatasetId, ShuffleMode, Split,
    StreamingDataset, SyntheticLips,
};
use matsciml_models::EgnnConfig;
use matsciml_tensor::set_simd_enabled;
use matsciml_train::{TargetKind, TaskHeadConfig, TaskModel, TrainConfig, TrainLog, Trainer};

const SAMPLES: usize = 160;
const SEED: u64 = 23;
const BLOCK: usize = 20;
const BATCH: usize = 8;
const STEPS: u64 = 5;

/// (shard_samples, human tag): 160 → 1 shard, 70 → 70+70+20 uneven,
/// 20 → 8 uniform shards.
const LAYOUTS: [(usize, &str); 3] = [(160, "one"), (70, "uneven"), (20, "eight")];

fn corpus(shard_samples: usize, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("matsciml-stream-det-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = SyntheticLips::new(SAMPLES, SEED);
    write_corpus(&ds, &dir, CorpusWriteOptions { shard_samples, verify: true, workers: 1 }).unwrap();
    dir
}

/// A bit-exact identity for one delivered sample: species plus the raw
/// f32 bit patterns of its positions (NaN-proof, rounding-proof).
fn fingerprint(s: &matsciml_datasets::Sample) -> (Vec<u32>, Vec<u32>) {
    let bits = s
        .graph
        .positions
        .iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect();
    (s.graph.species.clone(), bits)
}

/// Two epochs of delivered fingerprints through `threads` read-ahead
/// workers (0 = plain synchronous loads).
fn delivered_order(ds: &dyn Dataset, threads: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    let dl = DataLoader::new(ds, None, Split::Train, 0.2, BATCH, SEED)
        .with_shuffle_mode(ShuffleMode::Blocked(BLOCK));
    let obs = matsciml_obs::Obs::disabled();
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let mut ra = (threads > 0).then(|| dl.spawn_readahead(scope, threads, 4));
        for epoch in 0..2u64 {
            let batches = dl.epoch_batches(epoch);
            if let Some(ra) = &mut ra {
                for b in &batches {
                    ra.request(b);
                }
            }
            for b in &batches {
                let samples = match &mut ra {
                    Some(ra) => ra.take_observed(&dl, b, &obs),
                    None => dl.load(b),
                };
                out.extend(samples.iter().map(fingerprint));
            }
        }
    });
    out
}

#[test]
fn delivered_order_is_independent_of_layout_and_threads() {
    let in_memory = SyntheticLips::new(SAMPLES, SEED);
    let want = delivered_order(&in_memory, 0);
    assert_eq!(want.len(), 2 * (SAMPLES - SAMPLES / 5), "two epochs of the 80% train split");

    for (shard_samples, tag) in LAYOUTS {
        let dir = corpus(shard_samples, &format!("order-{tag}"));
        let streaming = StreamingDataset::open(&dir).unwrap();
        for threads in [1usize, 4] {
            let got = delivered_order(&streaming, threads);
            assert_eq!(
                got, want,
                "delivered order diverged: layout {tag} ({shard_samples}/shard), \
                 {threads} read-ahead thread(s)"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn run(ds: &dyn Dataset, threads: usize) -> (TrainLog, TaskModel) {
    let pipeline = matsciml_datasets::Compose::standard(4.5, Some(12));
    let train_dl = DataLoader::new(ds, Some(&pipeline), Split::Train, 0.2, BATCH, SEED)
        .with_shuffle_mode(ShuffleMode::Blocked(BLOCK));
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
fn streamed_training_matches_in_memory_across_layouts_and_threads() {
    // SIMD on: storage and read-ahead must compose with the lane tier
    // without touching the numbers.
    set_simd_enabled(true);

    let in_memory = SyntheticLips::new(SAMPLES, SEED);
    let want = run(&in_memory, 0);

    for (shard_samples, tag) in LAYOUTS {
        let dir = corpus(shard_samples, &format!("train-{tag}"));
        let streaming = StreamingDataset::open(&dir).unwrap();
        for threads in [1usize, 4] {
            let got = run(&streaming, threads);
            assert_same_trajectory(
                &want,
                &got,
                &format!("layout {tag} ({shard_samples}/shard), {threads} thread(s)"),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
