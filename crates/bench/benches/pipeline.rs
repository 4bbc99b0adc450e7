//! Zero-recompute batch pipeline vs the all-recompute baseline.
//!
//! Times the *data pipeline* — shard decode, transform (center + radius
//! graph), and per-rank collation — over a multi-epoch delivery
//! schedule, since that is exactly the work the pipeline tiers remove:
//!
//! * **off** — the baseline: every load decodes the stored structure,
//!   re-centers it, rebuilds the radius graph, and collates inline, every
//!   epoch (graph cache disabled).
//! * **cached** — same raw corpus, but `radius_graph` is memoized across
//!   epochs by the structure-level graph cache: epoch 1 misses, epochs
//!   2+ hit.
//! * **on** — the full pipeline: a precomputed-edge corpus
//!   (`shard-write --precompute-edges`) whose records skip the transform
//!   entirely, plus worker-side collation through the read-ahead tier
//!   when the host has threads to spare (single-core hosts collate
//!   inline — the win there is pure work elimination, which is
//!   thread-independent).
//!
//! The workload is paper-shaped: LiPS-like frames tiled to a 2×2×2
//! supercell (88 atoms, the size of the real LiPS cells) prepared for a
//! hidden-256 E(n)-GNN (`EgnnConfig::paper()`), which consumes one
//! prepared step per rep — untimed — to pin **per-rep loss
//! bit-identity** across all three arms: the pipeline may only change
//! *when* work happens, never the numbers. Arms run in rotating order
//! within each rep so background load perturbs all three equally.
//!
//! Run with `cargo bench --bench pipeline`. Emits `BENCH_pipeline.json`
//! at the repo root; `steps_per_sec` counts delivered optimizer-step
//! batch sets (world × per-rank batches), and each arm's block holds the
//! quantiles of its per-rep seconds per batch set.

use matsciml::datasets::{
    write_corpus_iter, Compose, CorpusWriteOptions, DataLoader, Dataset, ShuffleMode, Split,
    StreamingDataset, SyntheticLips, Transform,
};
use matsciml::graph::{reset_graph_cache, set_graph_cache, MaterialGraph};
use matsciml::models::EgnnConfig;
use matsciml::nn::ForwardCtx;
use matsciml::tensor::Vec3;
use matsciml::train::{collate_ranks, Batch, TargetKind, TaskHeadConfig, TaskModel};
use matsciml::datasets::{DatasetId, Sample, Targets};
use matsciml_bench::harness::{rotate, timed, write_report, ArmStats};
use serde::Serialize;

const WORLD: usize = 4;
const PER_RANK: usize = 2;
const CORPUS: usize = 64;
const EPOCHS: u64 = 3;
const RADIUS: f32 = 4.5;
const CAP: usize = 12;
const REPS: usize = 5;

/// Tile a LiPS frame into a 2×2×2 supercell: 88 atoms, the size of the
/// real LiPS simulation cells the paper trains force fields on.
fn supercell(base: Sample) -> Sample {
    const A: f32 = 8.0; // Å lattice step, wider than the 4.5 Å cutoff
    let mut species = Vec::with_capacity(base.graph.species.len() * 8);
    let mut positions = Vec::with_capacity(species.capacity());
    for ix in 0..2 {
        for iy in 0..2 {
            for iz in 0..2 {
                let shift = Vec3::new(ix as f32 * A, iy as f32 * A, iz as f32 * A);
                species.extend_from_slice(&base.graph.species);
                positions.extend(base.graph.positions.iter().map(|&p| p + shift));
            }
        }
    }
    Sample {
        dataset: DatasetId::Lips,
        graph: MaterialGraph::new(species, positions),
        targets: Targets {
            energy: base.targets.energy.map(|e| e * 8.0),
            ..Default::default()
        },
        forces: None,
    }
}

#[derive(Serialize)]
struct Report {
    hidden: usize,
    world: usize,
    per_rank_batch: usize,
    atoms_per_structure: usize,
    epochs: u64,
    steps_per_rep: usize,
    threads: usize,
    worker_collate: bool,
    off_steps_per_sec: f64,
    cached_steps_per_sec: f64,
    on_steps_per_sec: f64,
    off: ArmStats,
    cached: ArmStats,
    on: ArmStats,
    /// Graph-cache arm vs baseline.
    speedup_cached: f64,
    /// Full pipeline (precomputed edges) vs baseline.
    speedup: f64,
    speedup_asserted: bool,
    loss_bits_match: bool,
}

/// One rep: walk `EPOCHS` epochs of the loader's schedule, timing batch
/// preparation only; feed the first prepared step to `probe` (untimed)
/// for the bit-identity check. Returns (elapsed seconds, steps).
fn run_arm(
    dl: &DataLoader<'_>,
    ra_threads: usize,
    probe: &mut dyn FnMut(&[Batch]),
) -> (f64, usize) {
    let obs = matsciml::obs::Obs::disabled();
    let mut elapsed = 0.0;
    let mut steps = 0;
    let stage = |samples: Vec<Sample>| collate_ranks(&samples, PER_RANK);
    std::thread::scope(|scope| {
        let mut ra =
            (ra_threads > 0).then(|| dl.spawn_readahead_with(scope, ra_threads, 4, &stage));
        for epoch in 0..EPOCHS {
            let sched = dl.epoch_batches(epoch);
            if let Some(ra) = &mut ra {
                for b in &sched {
                    ra.request(b);
                }
            }
            for b in &sched {
                let (secs, batches) = timed(|| match &mut ra {
                    Some(ra) => ra.take_observed(dl, b, &obs),
                    None => collate_ranks(&dl.load(b), PER_RANK),
                });
                elapsed += secs;
                if steps == 0 {
                    probe(&batches);
                }
                steps += 1;
            }
        }
    });
    (elapsed, steps)
}

fn main() {
    let base = SyntheticLips::new(CORPUS, 31);
    let samples: Vec<Sample> = (0..CORPUS).map(|i| supercell(base.sample(i))).collect();
    let atoms = samples[0].graph.species.len();
    let pipeline = Compose::standard(RADIUS, Some(CAP));

    let tmp = std::env::temp_dir().join(format!("matsciml-bench-pipeline-{}", std::process::id()));
    let raw_dir = tmp.join("raw");
    let pre_dir = tmp.join("pre");
    std::fs::remove_dir_all(&tmp).ok();
    let opts = CorpusWriteOptions::default();
    write_corpus_iter(samples.iter().cloned(), &raw_dir, opts).expect("write raw corpus");
    write_corpus_iter(samples.iter().cloned().map(|s| pipeline.apply(s)), &pre_dir, opts)
        .expect("write precomputed corpus");
    drop(samples);

    let raw = StreamingDataset::open(&raw_dir).expect("open raw corpus");
    let pre = StreamingDataset::open(&pre_dir).expect("open precomputed corpus");
    fn mk<'a>(ds: &'a StreamingDataset, pipeline: &'a Compose) -> DataLoader<'a> {
        DataLoader::new(ds, Some(pipeline), Split::Train, 0.2, WORLD * PER_RANK, 31)
            .with_shuffle_mode(ShuffleMode::Blocked(16))
    }
    let dl_raw = mk(&raw, &pipeline);
    let dl_pre = mk(&pre, &pipeline);

    // The paper-shape consumer: hidden-256 E(n)-GNN with an energy head.
    // It runs one untimed forward per rep per arm to pin bit-identity.
    let model = TaskModel::egnn(
        EgnnConfig::paper(),
        &[TaskHeadConfig::regression(DatasetId::Lips, TargetKind::Energy, 256, 3)],
        31,
    );
    let mut graph = matsciml::autograd::Graph::new();
    let mut loss_of = |batches: &[Batch]| -> u32 {
        graph.reset();
        let mut ctx = ForwardCtx::eval();
        let (_, metrics) = model.forward_into(&mut graph, &batches[0], &mut ctx);
        metrics.get("loss").expect("loss metric").to_bits()
    };

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Worker-side collation needs a spare thread to overlap into; on a
    // single-core host the on-arm collates inline and its advantage is
    // the (thread-independent) removal of transform work.
    let ra_threads = if threads >= 2 { 2 } else { 0 };

    // Arms: 0 all-recompute (cache off), 1 graph cache, 2 precomputed
    // edges. Each rep returns seconds per batch set, steps and probe bits.
    let runs = rotate(3, REPS, |arm, _| {
        let mut bits = 0;
        let (t, steps) = match arm {
            0 => {
                set_graph_cache(false);
                run_arm(&dl_raw, 0, &mut |b| bits = loss_of(b))
            }
            1 => {
                set_graph_cache(true);
                reset_graph_cache();
                run_arm(&dl_raw, 0, &mut |b| bits = loss_of(b))
            }
            _ => run_arm(&dl_pre, ra_threads, &mut |b| bits = loss_of(b)),
        };
        (t / steps as f64, steps, bits)
    });
    set_graph_cache(true);
    reset_graph_cache();
    let steps_per_rep = runs[0][0].1;
    for rep in 0..REPS {
        let bits: Vec<u32> = runs.iter().map(|arm| arm[rep].2).collect();
        assert!(runs.iter().all(|arm| arm[rep].1 == steps_per_rep));
        assert!(bits.iter().all(|&b| b == bits[0]), "arms diverged: probe losses {bits:x?}");
    }
    let stats = |arm: usize| {
        let secs: Vec<f64> = runs[arm].iter().map(|r| r.0).collect();
        ArmStats::of("s/batch set", &secs)
    };
    let (off, cached, on) = (stats(0), stats(1), stats(2));
    let (t_off, t_cached, t_on) = (off.median, cached.median, on.median);
    let speedup_cached = t_off / t_cached;
    let speedup = t_off / t_on;

    println!(
        "pipeline bench ({atoms}-atom structures, world={WORLD}, B={PER_RANK}, {threads} thread(s)): \
         off {:.0} us/step, cached {:.0} us/step ({speedup_cached:.2}x), \
         precomputed {:.0} us/step ({speedup:.2}x)",
        t_off * 1e6,
        t_cached * 1e6,
        t_on * 1e6,
    );
    // Work elimination does not depend on spare threads, so the bound
    // holds on any host.
    assert!(
        speedup >= 1.25,
        "zero-recompute pipeline must deliver batches >= 1.25x faster, got {speedup:.2}x"
    );

    write_report(
        "pipeline",
        &Report {
            hidden: 256,
            world: WORLD,
            per_rank_batch: PER_RANK,
            atoms_per_structure: atoms,
            epochs: EPOCHS,
            steps_per_rep,
            threads,
            worker_collate: ra_threads > 0,
            off_steps_per_sec: 1.0 / t_off,
            cached_steps_per_sec: 1.0 / t_cached,
            on_steps_per_sec: 1.0 / t_on,
            off,
            cached,
            on,
            speedup_cached,
            speedup,
            speedup_asserted: true,
            loss_bits_match: true,
        },
    );
    std::fs::remove_dir_all(&tmp).ok();
}
