//! **Figure 5 reproduction** — validation curves for band-gap regression
//! on the Materials Project surrogate, comparing a model fine-tuned from
//! the symmetry-pretrained encoder (red in the paper) against training
//! from random initialization (gray-blue).
//!
//! Per the paper's Section 4.2, the fine-tuned run scales η_base down by a
//! factor of ten "to mitigate forgetting"; the from-scratch run uses the
//! full rate. The paper's observed shape: pretraining converges to lower
//! error *faster early*, but the from-scratch model overtakes it by the
//! end of training.

use matsciml::prelude::*;
use matsciml_bench::{
    encoder_config, experiment_dir, pretrained_model, render_table, write_artifact, Scale,
};

fn train_run(
    pretrained: Option<&TaskModel>,
    steps: u64,
    base_lr: f32,
    dataset: &SyntheticMaterialsProject,
) -> TrainLog {
    let cfg = encoder_config();
    let (mu, sigma) = target_stats(dataset, TargetKind::BandGap, 256).expect("band gap stats");
    let heads = [TaskHeadConfig::regression(
        DatasetId::MaterialsProject,
        TargetKind::BandGap,
        2 * cfg.hidden,
        3, // paper: three output blocks in the single-task setting
    )
    .with_normalization(mu, sigma)];
    let mut model = TaskModel::egnn(cfg, &heads, 77);
    if let Some(pre) = pretrained {
        model.load_pretrained_encoder(pre);
    }
    let pipeline = Compose::standard(4.5, Some(12));
    let (world, per_rank) = (4usize, 8usize);
    let train_dl = DataLoader::new(
        dataset,
        Some(&pipeline),
        Split::Train,
        0.2,
        world * per_rank,
        21,
    );
    let val_dl = DataLoader::new(dataset, Some(&pipeline), Split::Val, 0.2, 32, 21);
    let trainer = Trainer::new(TrainConfig {
        world_size: world,
        per_rank_batch: per_rank,
        steps,
        base_lr,
        scale_lr_by_world: true,
        warmup_epochs: 1,
        gamma: 0.9,
        weight_decay: 0.01,
        eps: 1e-8,
        clip_norm: Some(10.0),
        eval_every: (steps / 30).max(1),
        eval_batches: 3,
        parallel_ranks: true,
        seed: 13,
        early_stop: None,
        skip_nonfinite_updates: false,
        overlap_comm: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        readahead_threads: 0,
        readahead_depth: 0,
    });
    trainer.train(&mut model, &train_dl, Some(&val_dl))
}

fn main() {
    let scale = Scale::from_env();
    let dir = experiment_dir("fig5_bandgap");
    let steps = scale.steps(300);
    let base_lr = 1e-3f32;
    let dataset = SyntheticMaterialsProject::new(scale.samples(2048), 55);

    eprintln!("[fig5] obtaining pretrained encoder...");
    let (pre, _) = pretrained_model(scale);

    eprintln!("[fig5] fine-tuning from pretrained encoder (η = η_base/10)...");
    let log_pre = train_run(Some(&pre), steps, base_lr / 10.0, &dataset);
    eprintln!("[fig5] training from random initialization (η = η_base)...");
    let log_scratch = train_run(None, steps, base_lr, &dataset);

    let key = "materials-project/band_gap/mae";
    let s_pre = log_pre.val_series(key);
    let s_scr = log_scratch.val_series(key);

    println!("Figure 5 — band-gap validation MAE (eV), pretrained vs from scratch");
    let quarters = [0.0f32, 0.25, 0.5, 0.75, 1.0];
    let pick = |s: &[(u64, f32)], f: f32| {
        let i = ((s.len() - 1) as f32 * f) as usize;
        s[i]
    };
    let rows: Vec<Vec<String>> = quarters
        .iter()
        .map(|&f| {
            let (step, p) = pick(&s_pre, f);
            let (_, q) = pick(&s_scr, f);
            vec![step.to_string(), format!("{p:.3}"), format!("{q:.3}")]
        })
        .collect();
    println!(
        "{}",
        render_table(&["step", "pretrained", "scratch"], &rows)
    );

    // Paper-shape checks.
    let early_idx = (s_pre.len() / 4).max(1);
    let early_pre: f32 = s_pre[..early_idx].iter().map(|&(_, v)| v).sum::<f32>() / early_idx as f32;
    let early_scr: f32 = s_scr[..early_idx].iter().map(|&(_, v)| v).sum::<f32>() / early_idx as f32;
    let final_pre = s_pre.last().unwrap().1;
    let final_scr = s_scr.last().unwrap().1;
    println!("shape checks:");
    println!(
        "  early (first quarter mean): pretrained {early_pre:.3} vs scratch {early_scr:.3} — pretrained faster early: {}",
        early_pre < early_scr
    );
    println!(
        "  final: pretrained {final_pre:.3} vs scratch {final_scr:.3} — scratch wins by the end: {}",
        final_scr <= final_pre
    );

    // The paper's early-stopping interpretation: under a fixed compute
    // budget with best-checkpoint selection, which init wins?
    println!("\nearly-stopping view (best val MAE within a budget of steps):");
    for frac in [0.1f32, 0.25, 0.5, 1.0] {
        let best_within = |s: &[(u64, f32)]| {
            let cut = (steps as f32 * frac) as u64;
            s.iter()
                .filter(|&&(step, _)| step <= cut)
                .map(|&(_, v)| v)
                .fold(f32::INFINITY, f32::min)
        };
        let p = best_within(&s_pre);
        let q = best_within(&s_scr);
        println!(
            "  {:>4.0}% budget: pretrained {p:.3} vs scratch {q:.3} → {}",
            frac * 100.0,
            if p < q { "pretrained" } else { "scratch" }
        );
    }

    let mut csv = String::from("init,step,val_mae\n");
    for &(s, v) in &s_pre {
        csv.push_str(&format!("pretrained,{s},{v}\n"));
    }
    for &(s, v) in &s_scr {
        csv.push_str(&format!("scratch,{s},{v}\n"));
    }
    write_artifact(&dir, "fig5.csv", &csv);
    println!("\nartifacts: {}", dir.display());
}
