//! CLI subcommand implementations.

use std::io::Write;

use matsciml::datasets::elements;
use matsciml::prelude::*;

use crate::args::Args;

/// Build a dataset by CLI name.
pub fn dataset_by_name(name: &str, size: usize, seed: u64) -> Result<Box<dyn Dataset>, String> {
    Ok(match name {
        "mp" | "materials-project" => Box::new(SyntheticMaterialsProject::new(size, seed)),
        "cmd" | "carolina" => Box::new(SyntheticCarolina::new(size, seed)),
        "oc20" => Box::new(SyntheticOc20::new(size, seed)),
        "oc22" => Box::new(SyntheticOc22::new(size, seed)),
        "lips" => Box::new(SyntheticLips::new(size, seed)),
        "symmetry" | "sym" => Box::new(SymmetryDataset::new(size, seed)),
        other => return Err(format!("unknown dataset `{other}` (mp|cmd|oc20|oc22|lips|symmetry)")),
    })
}

/// Target selector by CLI name (with its natural loss).
pub fn target_by_name(name: &str) -> Result<TargetKind, String> {
    Ok(match name {
        "band_gap" | "gap" => TargetKind::BandGap,
        "fermi" => TargetKind::FermiEnergy,
        "e_form" | "formation_energy" => TargetKind::FormationEnergy,
        "stability" | "stable" => TargetKind::Stability,
        "energy" => TargetKind::Energy,
        "sym" | "symmetry" => TargetKind::SymmetryLabel,
        other => {
            return Err(format!(
                "unknown target `{other}` (band_gap|fermi|e_form|stability|energy|sym)"
            ))
        }
    })
}

/// `matsciml groups` — list the 32 crystallographic point groups.
pub fn cmd_groups(args: &Args) -> Result<(), String> {
    args.reject_unknown()?;
    println!("{:<6} {:>5}  example elements", "name", "order");
    for g in all_point_groups() {
        let improper = g.ops.iter().filter(|o| o.det() < 0.0).count();
        println!(
            "{:<6} {:>5}  {} proper / {} improper operations",
            g.name,
            g.order(),
            g.order() - improper,
            improper
        );
    }
    Ok(())
}

/// `matsciml info` — toolkit summary.
pub fn cmd_info(args: &Args) -> Result<(), String> {
    args.reject_unknown()?;
    println!("Open MatSci ML Toolkit (Rust reproduction)");
    println!("  species vocabulary : {} elements", elements::NUM_SPECIES);
    println!("  point groups       : {}", all_point_groups().len());
    println!("  datasets           : mp, cmd, oc20, oc22, lips, symmetry");
    println!("  encoders           : egnn (default), mpnn, attention");
    println!(
        "  prototypes         : {}",
        matsciml::datasets::ALL_PROTOTYPES()
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

/// `matsciml generate <dataset>` — dump samples as JSON lines.
pub fn cmd_generate(args: &Args) -> Result<(), String> {
    let name = args.positional(1).ok_or("usage: matsciml generate <dataset> [--size N] [--seed S] [--out FILE]")?;
    let size = args.num_or("size", 16usize)?;
    let seed = args.num_or("seed", 0u64)?;
    let out = args.str_or("out", "-");
    let ds = dataset_by_name(name, size, seed)?;
    args.reject_unknown()?;

    let mut buffer = String::new();
    for i in 0..size {
        let s = ds.sample(i);
        buffer.push_str(&serde_json::to_string(&s).map_err(|e| e.to_string())?);
        buffer.push('\n');
    }
    if out == "-" {
        print!("{buffer}");
    } else {
        std::fs::write(&out, buffer).map_err(|e| e.to_string())?;
        eprintln!("wrote {size} samples to {out}");
    }
    Ok(())
}

/// `matsciml shard-write` — convert a synthetic generator or a `.jsonl`
/// export into a sharded corpus directory (`manifest.json` + `.mshard`
/// files per `docs/SHARD_FORMAT.md`) that `train --data-dir` streams
/// without materializing an epoch.
///
/// `--precompute-edges` runs the training transform pipeline (center +
/// radius graph, `--radius`/`--max-neighbors`, defaulting to the values
/// `train` uses) at corpus-build time: the shards then carry edge arrays
/// (the format's `F_EDGES` codec flag) and the streaming loader skips
/// graph construction entirely. With `--verify` on top, a sampled subset
/// of stored records is cross-checked against a fresh `radius_graph`
/// rebuild after writing.
pub fn cmd_shard_write(args: &Args) -> Result<(), String> {
    let out = args
        .get("out")
        .ok_or("usage: matsciml shard-write --out DIR [--dataset D --size N --seed S | --from FILE.jsonl] [--shard-samples K] [--precompute-edges [--radius R --max-neighbors M]] [--verify]")?
        .to_string();
    let ds_name = args.str_or("dataset", "mp");
    let size = args.num_or("size", 4096usize)?;
    let seed = args.num_or("seed", 0u64)?;
    let from = args.get("from").map(str::to_string);
    let shard_samples = args.num_or("shard-samples", CorpusWriteOptions::default().shard_samples)?;
    let verify = args.flag("verify");
    let workers = args.num_or("write-workers", 1usize)?;
    let precompute = args.flag("precompute-edges");
    // Defaults match cmd_train's Compose::standard(4.5, Some(12)) so a
    // flagless precomputed corpus trains bit-identically to a raw one.
    let radius = args.num_or("radius", 4.5f32)?;
    let max_neighbors = args.num_or("max-neighbors", 12usize)?;
    let verify_samples = args.num_or("verify-samples", 64usize)?;
    args.reject_unknown()?;
    if workers == 0 {
        return Err("--write-workers must be at least 1".into());
    }
    let options = CorpusWriteOptions { shard_samples, verify, workers };
    let pipeline = precompute.then(|| Compose::standard(radius, Some(max_neighbors)));
    let transform = |s: Sample| match &pipeline {
        Some(p) => p.apply(s),
        None => s,
    };

    let manifest = match &from {
        Some(path) => {
            // Stream the .jsonl through one shard at a time — the
            // conversion never holds more than a shard in memory, so
            // MPtrj-scale exports convert in bounded space.
            let mut parse_err: Option<String> = None;
            let samples = JsonlStream::open(path)
                .map_err(|e| e.to_string())?
                .map_while(|r| match r {
                    Ok(s) => Some(s),
                    Err(e) => {
                        parse_err = Some(e.to_string());
                        None
                    }
                })
                .map(transform);
            let result = write_corpus_iter(samples, &out, options);
            // A parse failure trumps whatever the truncated write did
            // (including its "empty corpus" complaint on line-1 errors).
            if let Some(e) = parse_err {
                return Err(e);
            }
            result.map_err(|e| e.to_string())?
        }
        None => {
            let ds = dataset_by_name(&ds_name, size, seed)?;
            if precompute {
                let samples = (0..ds.len()).map(|i| transform(ds.sample(i)));
                write_corpus_iter(samples, &out, options).map_err(|e| e.to_string())?
            } else {
                write_corpus(ds.as_ref(), &out, options).map_err(|e| e.to_string())?
            }
        }
    };
    let bytes: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
    let mut cross_checked = 0usize;
    if precompute && verify {
        // CRC told us the bytes round-trip; this tells us the *edges* in
        // those bytes are what a fresh graph build would produce.
        let graph_stage = GraphTransform::radius(radius, Some(max_neighbors));
        cross_checked = verify_precomputed_edges(&out, &graph_stage, verify_samples)
            .map_err(|e| e.to_string())?;
    }
    eprintln!(
        "wrote {} samples ({} dataset) into {} shard(s), {:.1} MiB total, at {out}{}{}",
        manifest.total_samples,
        manifest.dataset,
        manifest.shards.len(),
        bytes as f64 / (1024.0 * 1024.0),
        if precompute { " (edges precomputed)" } else { "" },
        if verify {
            if cross_checked > 0 {
                format!(" (CRC-verified; {cross_checked} records edge-checked)")
            } else {
                " (CRC-verified)".to_string()
            }
        } else {
            String::new()
        }
    );
    Ok(())
}

/// `matsciml quantize` — convert a checkpoint into a reduced-precision
/// inference artifact: a `matsciml-ckpt/v1` file whose parameters live
/// in a `PRMH` section as f16/bf16 bit patterns
/// (docs/CHECKPOINT_FORMAT.md). The output is what `serve --ckpt`
/// loads for the reduced-precision tier; it is not resumable for
/// training.
pub fn cmd_quantize(args: &Args) -> Result<(), String> {
    let usage = "usage: matsciml quantize --ckpt IN.mckpt --out OUT.mckpt [--precision f16|bf16]";
    let path = args.get("ckpt").ok_or(usage)?.to_string();
    let out = args.get("out").ok_or(usage)?.to_string();
    let precision_arg = args.str_or("precision", "f16");
    args.reject_unknown()?;
    let precision = Precision::parse(&precision_arg)
        .ok_or_else(|| format!("--precision: unknown precision `{precision_arg}` (f16|bf16)"))?;

    let model = load_infer_model(&path).map_err(|e| e.to_string())?.model;
    let in_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let out_bytes = save_model(&out, &model, precision).map_err(|e| e.to_string())?;
    // Re-read the artifact: proves round-trip and surfaces the stored
    // per-tensor quantization errors.
    let back = load_infer_model(&out).map_err(|e| e.to_string())?;
    let worst = back.max_abs_errors.iter().cloned().fold(0.0f32, f32::max);
    eprintln!(
        "wrote {out}: {} params in {} storage, {out_bytes} bytes (input {in_bytes}), \
         worst per-scalar quantization error {worst:.3e}",
        model.params.len(),
        precision.name(),
    );
    Ok(())
}

/// `matsciml train` — single-task training run.
pub fn cmd_train(args: &Args) -> Result<(), String> {
    let ds_name = args.str_or("dataset", "mp");
    let target_name = args.str_or("target", "band_gap");
    let size = args.num_or("size", 512usize)?;
    let seed = args.num_or("seed", 0u64)?;
    let steps = args.num_or("steps", 100u64)?;
    let hidden = args.num_or("hidden", 16usize)?;
    let world = args.num_or("world", 2usize)?;
    let per_rank = args.num_or("batch", 8usize)?;
    let lr = args.num_or("lr", 1e-3f32)?;
    let save = args.get("save").map(str::to_string);
    // --constant-lr disables the Goyal world-size scaling rule.
    let constant_lr = args.flag("constant-lr");
    // --from FILE trains on a JSON-lines dataset exported by `generate`.
    let from = args.get("from").map(str::to_string);
    // --data-dir DIR streams a sharded corpus written by `shard-write`
    // (docs/SHARD_FORMAT.md) instead of materializing the dataset.
    let data_dir = args.get("data-dir").map(str::to_string);
    // Multi-shard read-ahead: N loader threads decoding --readahead-depth
    // batches ahead of the optimizer (0, the default, loads synchronously;
    // the trajectory is the same either way).
    let readahead = args.num_or("readahead", 0usize)?;
    let readahead_depth = args.num_or("readahead-depth", 0usize)?;
    // --shuffle-block B shuffles shard-sized blocks, then within each
    // block, keeping epoch order deterministic while preserving locality.
    let shuffle_block = args.num_or("shuffle-block", 0usize)?;
    // --run-dir DIR writes the JSONL run record (docs/RUN_RECORD.md) plus
    // the CSV training log there; --trace prints a phase-timing summary
    // (works alone via the no-op sink, no artifact written).
    let run_dir = args.get("run-dir").map(str::to_string);
    let trace = args.flag("trace");
    // Mid-run checkpointing (docs/CHECKPOINT_FORMAT.md): write
    // `stepN.mckpt` into --ckpt-dir every --ckpt-every steps; --resume
    // restarts a run from such a file, bit-identically.
    let ckpt_every = args.num_or("ckpt-every", 0u64)?;
    let ckpt_dir = args.get("ckpt-dir").map(str::to_string);
    let resume = args.get("resume").map(str::to_string);
    args.reject_unknown()?;
    if ckpt_every > 0 && ckpt_dir.is_none() {
        return Err("--ckpt-every needs --ckpt-dir DIR".into());
    }
    if from.is_some() && data_dir.is_some() {
        return Err("--from and --data-dir are mutually exclusive".into());
    }

    let ds: Box<dyn Dataset> = match (&from, &data_dir) {
        (Some(path), _) => Box::new(JsonlDataset::open(path).map_err(|e| e.to_string())?),
        (None, Some(dir)) => {
            let streaming = StreamingDataset::open(dir).map_err(|e| e.to_string())?;
            eprintln!(
                "streaming {} samples from {} shard(s) at {dir}",
                streaming.len(),
                streaming.num_shards()
            );
            Box::new(streaming)
        }
        (None, None) => dataset_by_name(&ds_name, size, seed)?,
    };
    let pipeline = Compose::standard(4.5, Some(12));
    let shuffle = if shuffle_block > 0 {
        ShuffleMode::Blocked(shuffle_block)
    } else {
        ShuffleMode::Global
    };

    if let Some(path) = &resume {
        // Resume branch: model + config + optimizer state all come from
        // the checkpoint; the CLI dataset flags must describe the same
        // data the original run saw (the schedule is derived from the
        // checkpointed seed). --steps is the new total step budget.
        let ckpt = TrainCheckpoint::load(path).map_err(|e| e.to_string())?;
        let mut cfg = ckpt.config.clone();
        eprintln!(
            "resuming {path} at step {} (original budget {}, new budget {steps})",
            ckpt.progress.step, cfg.steps
        );
        cfg.steps = steps;
        cfg.checkpoint_every = ckpt_every;
        cfg.checkpoint_dir = ckpt_dir.clone();
        // Read-ahead is an execution detail, not part of the trajectory,
        // so the resumed run may pick its own loader concurrency.
        cfg.readahead_threads = readahead;
        cfg.readahead_depth = readahead_depth;
        let batch = cfg.world_size * cfg.per_rank_batch;
        let train_dl =
            DataLoader::new(ds.as_ref(), Some(&pipeline), Split::Train, 0.2, batch, cfg.seed)
                .with_shuffle_mode(shuffle);
        let val_dl =
            DataLoader::new(ds.as_ref(), Some(&pipeline), Split::Val, 0.2, 32.min(batch), cfg.seed);
        let obs = train_obs(&run_dir, trace)?;
        let trainer = Trainer::new(cfg);
        let (model, log) = trainer.resume_observed(ckpt, &train_dl, Some(&val_dl), &obs);
        return report_train(&log, &model, &run_dir, trace, &obs, &save);
    }

    let target = target_by_name(&target_name)?;
    let batch = world * per_rank;
    let train_dl = DataLoader::new(ds.as_ref(), Some(&pipeline), Split::Train, 0.2, batch, seed)
        .with_shuffle_mode(shuffle);
    let val_dl = DataLoader::new(ds.as_ref(), Some(&pipeline), Split::Val, 0.2, 32.min(batch), seed);

    let head = match target {
        TargetKind::Stability => TaskHeadConfig::binary(ds.sample(0).dataset, target, 2 * hidden, 3),
        TargetKind::SymmetryLabel => TaskHeadConfig::symmetry(2 * hidden, 3, 32),
        _ => {
            let cfg = TaskHeadConfig::regression(ds.sample(0).dataset, target, 2 * hidden, 3);
            match target_stats(ds.as_ref(), target, 256) {
                Some((mu, sigma)) => cfg.with_normalization(mu, sigma),
                None => cfg,
            }
        }
    };
    let mut model = TaskModel::egnn(EgnnConfig::small(hidden), &[head], seed);
    eprintln!(
        "training {} / {} for {steps} steps (N={world}, B={per_rank}, {} params)",
        ds_name,
        target_name,
        model.params.num_scalars()
    );
    let trainer = Trainer::new(TrainConfig {
        world_size: world,
        per_rank_batch: per_rank,
        steps,
        base_lr: lr,
        scale_lr_by_world: !constant_lr,
        eval_every: (steps / 10).max(1),
        clip_norm: Some(10.0),
        seed,
        checkpoint_every: ckpt_every,
        checkpoint_dir: ckpt_dir.clone(),
        readahead_threads: readahead,
        readahead_depth,
        ..Default::default()
    });
    let obs = train_obs(&run_dir, trace)?;
    let log = trainer.train_observed(&mut model, &train_dl, Some(&val_dl), &obs);
    report_train(&log, &model, &run_dir, trace, &obs, &save)
}

/// The training observability handle: a JSONL run record under
/// `--run-dir`, the aggregating no-op sink under `--trace`, else nothing.
fn train_obs(run_dir: &Option<String>, trace: bool) -> Result<Obs, String> {
    match run_dir {
        Some(dir) => Obs::jsonl(std::path::Path::new(dir).join("run.jsonl"))
            .map_err(|e| format!("cannot create run record in {dir}: {e}")),
        None if trace => Ok(Obs::null()),
        None => Ok(Obs::disabled()),
    }
}

/// Post-run reporting shared by the fresh-run and resume paths of
/// [`cmd_train`]: eval table, run-record artifacts, trace summary, and
/// the optional `--save` model artifact.
fn report_train(
    log: &TrainLog,
    model: &TaskModel,
    run_dir: &Option<String>,
    trace: bool,
    obs: &Obs,
    save: &Option<String>,
) -> Result<(), String> {
    for r in log.records.iter().filter(|r| r.val.is_some()) {
        println!(
            "step {:>5}  lr {:.2e}  train {}  |  val {}",
            r.step,
            r.lr,
            r.train.render(),
            r.val.as_ref().unwrap().render()
        );
    }
    if let Some(dir) = run_dir {
        log.write_csv(std::path::Path::new(dir).join("train.csv"))
            .map_err(|e| e.to_string())?;
        eprintln!("run record: {dir}/run.jsonl  csv: {dir}/train.csv");
    }
    if trace {
        if let Some(rec) = obs.recorder() {
            eprintln!("phase timings (µs per step):");
            eprintln!("  {:<22} {:>10} {:>10} {:>10} {:>10}", "phase", "p50", "p95", "p99", "mean");
            for (name, q) in rec.quantiles() {
                eprintln!(
                    "  {:<22} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                    name, q.p50, q.p95, q.p99, q.mean
                );
            }
            for (name, v) in rec.counters() {
                eprintln!("  {name:<22} {v}");
            }
        }
    }
    if let Some(path) = save {
        save_model(path, model, Precision::F32).map_err(|e| e.to_string())?;
        eprintln!("saved model to {path}");
    }
    Ok(())
}

/// `matsciml embed` — encoder embeddings to CSV.
pub fn cmd_embed(args: &Args) -> Result<(), String> {
    let ds_name = args.str_or("dataset", "mp");
    let count = args.num_or("count", 64usize)?;
    let seed = args.num_or("seed", 0u64)?;
    let hidden = args.num_or("hidden", 16usize)?;
    let out = args.str_or("out", "-");
    let load = args.get("load").map(str::to_string);
    args.reject_unknown()?;

    let ds = dataset_by_name(&ds_name, count, seed)?;
    let model = match load {
        Some(path) => {
            let m = load_infer_model(&path).map_err(|e| e.to_string())?.model;
            eprintln!("loaded model from {path}");
            m
        }
        None => TaskModel::egnn(
            EgnnConfig::small(hidden),
            &[TaskHeadConfig::symmetry(2 * hidden, 1, 32)],
            seed,
        ),
    };
    let pipeline = Compose::standard(4.5, Some(12));
    let samples: Vec<Sample> = (0..count).map(|i| pipeline.apply(ds.sample(i))).collect();
    let emb = model.embed(&samples);

    let mut csv = String::new();
    for r in 0..emb.rows() {
        let row: Vec<String> = emb.row(r).iter().map(|v| v.to_string()).collect();
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    if out == "-" {
        print!("{csv}");
    } else {
        std::fs::write(&out, csv).map_err(|e| e.to_string())?;
        eprintln!("wrote {} x {} embeddings to {out}", emb.rows(), emb.cols());
    }
    Ok(())
}

/// `matsciml bench` — quick single-rank throughput probe.
pub fn cmd_bench(args: &Args) -> Result<(), String> {
    let hidden = args.num_or("hidden", 24usize)?;
    let batch = args.num_or("batch", 32usize)?;
    args.reject_unknown()?;
    let ds = SymmetryDataset::new(256, 0);
    let pipeline = Compose::standard(1.2, Some(16));
    let dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.0, batch, 0);
    let samples = dl.load(&(0..batch).collect::<Vec<_>>());
    let model = TaskModel::egnn(
        EgnnConfig::small(hidden),
        &[TaskHeadConfig::symmetry(2 * hidden, 3, 32)],
        0,
    );
    let cost = throughput::measure_rank_cost(&model, &samples, 7);
    println!(
        "per-rank step (B={batch}, hidden {hidden}): {:.2} ms → {:.0} samples/s/rank",
        cost.step_seconds * 1e3,
        batch as f64 / cost.step_seconds
    );
    println!("gradient payload: {} KiB", cost.grad_bytes / 1024);
    let model = throughput::ThroughputModel {
        cost,
        net: throughput::Interconnect::hdr200(),
    };
    for n in [16usize, 64, 256, 512] {
        let p = model.at(n, 2_000_000);
        println!(
            "  N={n:>4}: {:>10.0} samples/s, 2M-sample epoch in {:.1} min",
            p.samples_per_sec,
            p.epoch_seconds / 60.0
        );
    }
    Ok(())
}

/// Print top-level usage.
pub fn usage(out: &mut impl Write) {
    let _ = writeln!(
        out,
        "matsciml-cli — Open MatSci ML Toolkit (Rust reproduction)

USAGE: matsciml-cli <command> [flags]

COMMANDS:
  info                      toolkit summary
  groups                    list the 32 crystallographic point groups
  generate <dataset>        emit samples as JSON lines
      --size N --seed S --out FILE
  shard-write               write a sharded streaming corpus (docs/SHARD_FORMAT.md)
      --out DIR  (required; writes manifest.json + shard-NNNNN.mshard)
      --dataset D --size N --seed S | --from FILE.jsonl
      --shard-samples K --verify --write-workers N
      --precompute-edges  (store the training graph in the shards so the
                      streaming loader skips graph construction;
                      --radius R --max-neighbors M, defaults 4.5/12 match
                      `train`; with --verify, --verify-samples records
                      are cross-checked against a fresh rebuild)
  train                     train a single-task model
      --dataset mp|cmd|oc20|oc22|lips|symmetry --target band_gap|fermi|e_form|stability|energy|sym
      --steps N --hidden H --world N --batch B --lr LR --constant-lr
      --save FILE.mckpt  (write the trained model, docs/CHECKPOINT_FORMAT.md)
      --from FILE.jsonl  (train on a dataset exported by `generate`)
      --data-dir DIR     (stream a corpus written by `shard-write`)
      --readahead N --readahead-depth D  (N loader threads decoding D
                      batches ahead; 0, the default, loads synchronously)
      --shuffle-block B  (shard-local shuffle: blocks of B, then within)
      --run-dir DIR  (write run.jsonl per docs/RUN_RECORD.md + train.csv)
      --trace        (print per-phase timing quantiles after the run)
      --ckpt-every N --ckpt-dir DIR  (write stepN.mckpt checkpoints,
                      docs/CHECKPOINT_FORMAT.md)
      --resume FILE.mckpt  (continue a checkpointed run bit-identically;
                      --steps is the new total budget)
  embed                     encoder embeddings as CSV
      --dataset D --count N --hidden H --load FILE.mckpt --out FILE
  quantize                  write a reduced-precision inference artifact
      --ckpt IN.mckpt --out OUT.mckpt
      --precision f16|bf16  (PRMH section, docs/CHECKPOINT_FORMAT.md)
  serve                     batched property-prediction server (docs/SERVING.md)
      --ckpt FILE.mckpt  (what to serve: a `train --save` model, a
                      training checkpoint or a `quantize` artifact)
      --addr HOST:PORT --workers N --max-batch B --queue-cap Q --head H
      --precision f32|f16|bf16  (reduced-precision inference tier)
      --dataset D --size N --seed S  (dataset behind index requests)
      --run-dir DIR  (write serve.jsonl run record)
  query                     client for a running `serve`
      --addr HOST:PORT --index N | --indices A,B,C | --file FILE.jsonl
      --reload CKPT | --stats | --shutdown
  bench                     quick throughput probe
      --hidden H --batch B"
    );
}
