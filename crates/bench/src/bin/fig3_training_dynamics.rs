//! **Figure 3 reproduction** — early validation error of symmetry
//! pretraining as a function of DDP world size N (effective batch grows
//! proportionally), at a high base learning rate (1e-3: stagnation at high
//! error) and a low one (1e-5: convergence, but with loss spikes that grow
//! with N and divergence at the largest scale).
//!
//! World sizes are realized as virtual ranks (gradient accumulation —
//! optimizer-identical to MPI ranks, DESIGN.md §1), with the paper's
//! η_base·N scaling rule (Goyal et al.) in effect throughout.

use matsciml::prelude::*;
use matsciml_bench::{encoder_config, experiment_dir, render_table, write_artifact, Scale};

struct RunResult {
    world: usize,
    lr: f32,
    series: Vec<(u64, f32)>, // (step, val CE)
    spikes: usize,
    final_ce: f32,
}

fn run(world: usize, base_lr: f32, steps: u64, scale: Scale) -> RunResult {
    let cfg = encoder_config();
    // Dataset must exceed one effective batch even at quick scale.
    let dataset = SymmetryDataset::new(scale.samples(4096).max(1024 + 2 * world), 29);
    let heads = [TaskHeadConfig::symmetry(
        2 * cfg.hidden,
        3,
        dataset.num_classes(),
    )];
    let mut model = TaskModel::egnn(cfg, &heads, 42); // same init across configs
    let pipeline = Compose::standard(1.2, Some(16));
    // Per-rank batch 1: N is the effective-batch knob, exactly Fig. 3's x.
    let train_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Train, 0.1, world, 11);
    let val_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Val, 0.1, 32, 11);
    let trainer = Trainer::new(TrainConfig {
        world_size: world,
        per_rank_batch: 1,
        steps,
        base_lr,
        scale_lr_by_world: true,
        warmup_epochs: 0, // Fig. 3 probes the raw early dynamics
        gamma: 1.0,
        weight_decay: 0.0,
        eps: 1e-8,
        clip_norm: None,
        eval_every: (steps / 24).max(1),
        eval_batches: 2,
        parallel_ranks: true,
        seed: 3,
        early_stop: None,
        skip_nonfinite_updates: false,
        overlap_comm: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        readahead_threads: 0,
        readahead_depth: 0,
    });
    let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
    let series = log.val_series("symmetry/sym/ce");
    let final_ce = series.last().map(|&(_, v)| v).unwrap_or(f32::NAN);
    RunResult {
        world,
        lr: base_lr,
        series,
        spikes: log.spike_steps.len(),
        final_ce,
    }
}

fn main() {
    let scale = Scale::from_env();
    let dir = experiment_dir("fig3_training_dynamics");
    let steps = scale.steps(120);
    let worlds = [16usize, 64, 256, 512];
    let lrs = [1e-3f32, 1e-5];

    let mut results: Vec<RunResult> = Vec::new();
    for &lr in &lrs {
        for &w in &worlds {
            eprintln!("[fig3] N={w} η_base={lr:.0e} ({steps} steps)...");
            results.push(run(w, lr, steps, scale));
        }
    }

    // Console report per frame.
    for &lr in &lrs {
        println!(
            "\nFigure 3 ({} frame) — η_base = {lr:.0e}, validation cross-entropy",
            if lr > 1e-4 { "top" } else { "bottom" }
        );
        let rows: Vec<Vec<String>> = results
            .iter()
            .filter(|r| r.lr == lr)
            .map(|r| {
                let first = r.series.first().map(|&(_, v)| v).unwrap_or(f32::NAN);
                vec![
                    r.world.to_string(),
                    format!("{:.3}", first),
                    format!("{:.3}", r.final_ce),
                    r.spikes.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["workers", "initial CE", "final CE", "spikes"], &rows)
        );
    }

    // Paper-shape checks.
    let at = |lr: f32, w: usize| results.iter().find(|r| r.lr == lr && r.world == w).unwrap();
    let first_ce = |r: &RunResult| r.series.first().map(|&(_, v)| v).unwrap_or(f32::NAN);
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    // NaN-tolerant: a diverged (NaN/huge) final CE counts as stagnation.
    let high_stagnates = worlds.iter().all(|&w| {
        let r = at(1e-3, w);
        let bar = 0.8 * first_ce(r).min(3.47);
        !(r.final_ce < bar)
    });
    let low_16_converges = at(1e-5, 16).final_ce < first_ce(at(1e-5, 16));
    let spikes_grow = at(1e-5, 512).spikes >= at(1e-5, 16).spikes;
    println!("shape checks:");
    println!("  high-lr stagnation at large error: {high_stagnates}");
    println!("  low-lr single-node convergence:    {low_16_converges}");
    println!("  spike count grows with N:          {spikes_grow}");

    // CSV: long format (lr, workers, step, val_ce).
    let mut csv = String::from("base_lr,workers,step,val_ce\n");
    for r in &results {
        for &(s, v) in &r.series {
            csv.push_str(&format!("{},{},{},{}\n", r.lr, r.world, s, v));
        }
    }
    write_artifact(&dir, "fig3.csv", &csv);
    println!("\nartifacts: {}", dir.display());
}
