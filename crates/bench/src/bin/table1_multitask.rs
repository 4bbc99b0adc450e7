//! **Table 1 + Figure 7 reproduction** — the multi-task, multi-dataset
//! experiment: joint training of band gap, Fermi energy ζ, formation
//! energy and stability classification on the Materials Project surrogate,
//! plus formation energy on the Carolina surrogate, comparing a
//! symmetry-pretrained encoder against random initialization.
//!
//! Paper configuration mirrored here: six residual blocks per output head
//! (vs three in the single-task case), a shared encoder updated by all
//! heads jointly, fine-tuning at η_base/10. Table 1's reported metrics:
//! MAE for the four regressions, binary cross-entropy for stability.
//! Figure 7 is the per-metric validation curve set from the same runs,
//! emitted as CSV.

use matsciml::prelude::*;
use matsciml_bench::{
    encoder_config, experiment_dir, pretrained_model, render_table, write_artifact, Scale,
};

const METRICS: [(&str, &str); 5] = [
    ("materials-project/band_gap/mae", "MP band gap (eV)"),
    ("materials-project/fermi/mae", "MP ζ (eV)"),
    ("materials-project/e_form/mae", "MP E_form (eV/atom)"),
    ("materials-project/stability/bce", "MP stability (BCE)"),
    ("carolina/e_form/mae", "CMD E_form (eV/atom)"),
];

fn train_run(pretrained: Option<&TaskModel>, steps: u64, base_lr: f32, scale: Scale) -> TrainLog {
    let cfg = encoder_config();
    let hidden = 2 * cfg.hidden;
    // Paper: six output blocks per head in the multi-task setting.
    let blocks = 6;
    // Target standardization statistics from probe samples.
    let n = scale.samples(1536).max(512);
    let mp_probe = SyntheticMaterialsProject::new(n, 71);
    let cmd_probe = SyntheticCarolina::new(n / 2, 72);
    let stats = |ds: &dyn Dataset, t: TargetKind| target_stats(ds, t, 256).expect("stats");
    let (g_mu, g_s) = stats(&mp_probe, TargetKind::BandGap);
    let (f_mu, f_s) = stats(&mp_probe, TargetKind::FermiEnergy);
    let (e_mu, e_s) = stats(&mp_probe, TargetKind::FormationEnergy);
    let (c_mu, c_s) = stats(&cmd_probe, TargetKind::FormationEnergy);
    let heads = [
        TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::BandGap,
            hidden,
            blocks,
        )
        .with_normalization(g_mu, g_s),
        TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::FermiEnergy,
            hidden,
            blocks,
        )
        .with_normalization(f_mu, f_s),
        TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::FormationEnergy,
            hidden,
            blocks,
        )
        .with_normalization(e_mu, e_s),
        TaskHeadConfig::binary(
            DatasetId::MaterialsProject,
            TargetKind::Stability,
            hidden,
            blocks,
        ),
        TaskHeadConfig::regression(
            DatasetId::Carolina,
            TargetKind::FormationEnergy,
            hidden,
            blocks,
        )
        .with_normalization(c_mu, c_s),
    ];
    let mut model = TaskModel::egnn(cfg, &heads, 99);
    if let Some(pre) = pretrained {
        model.load_pretrained_encoder(pre);
    }

    let merged = ConcatDataset::new(vec![
        Box::new(SyntheticMaterialsProject::new(n, 71)),
        Box::new(SyntheticCarolina::new(n / 2, 72)),
    ]);
    let pipeline = Compose::standard(4.5, Some(12));
    let (world, per_rank) = (64usize, 2usize);
    let train_dl = DataLoader::new(
        &merged,
        Some(&pipeline),
        Split::Train,
        0.2,
        world * per_rank,
        31,
    );
    let val_dl = DataLoader::new(&merged, Some(&pipeline), Split::Val, 0.2, 32, 31);
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
        seed: 23,
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
    let dir = experiment_dir("table1_multitask");
    let steps = scale.steps(150);
    let base_lr = 1e-3f32;

    eprintln!("[table1] obtaining pretrained encoder...");
    let (pre, _) = pretrained_model(scale);

    eprintln!("[table1] multi-task training from pretrained encoder (η = η_base/10)...");
    let log_pre = train_run(Some(&pre), steps, base_lr / 10.0, scale);
    eprintln!("[table1] multi-task training from random initialization...");
    let log_scratch = train_run(None, steps, base_lr, scale);

    let final_pre = log_pre.final_val().expect("validation ran");
    let final_scr = log_scratch.final_val().expect("validation ran");

    println!("Table 1 — multi-task, multi-data validation metrics (final)");
    let mut pretrained_wins = 0;
    let rows: Vec<Vec<String>> = METRICS
        .iter()
        .map(|(key, label)| {
            let p = final_pre.get(key).unwrap_or(f32::NAN);
            let s = final_scr.get(key).unwrap_or(f32::NAN);
            if p < s {
                pretrained_wins += 1;
            }
            let star = if p < s { "pretrained" } else { "scratch" };
            vec![
                label.to_string(),
                format!("{p:.3}"),
                format!("{s:.3}"),
                star.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["metric", "pretrained", "from scratch", "best"], &rows)
    );
    println!(
        "pretrained wins {pretrained_wins}/5 metrics (paper: 3/5, with the remaining two comparable)"
    );

    // Figure 7: per-metric validation curves, long CSV.
    let mut csv = String::from("init,metric,step,value\n");
    for (name, log) in [("pretrained", &log_pre), ("scratch", &log_scratch)] {
        for (key, _) in METRICS {
            for (s, v) in log.val_series(key) {
                csv.push_str(&format!("{name},{key},{s},{v}\n"));
            }
        }
    }
    write_artifact(&dir, "fig7_curves.csv", &csv);

    // Table 1 CSV.
    let mut t1 = String::from("metric,pretrained,scratch\n");
    for (key, _) in METRICS {
        t1.push_str(&format!(
            "{key},{},{}\n",
            final_pre.get(key).unwrap_or(f32::NAN),
            final_scr.get(key).unwrap_or(f32::NAN)
        ));
    }
    write_artifact(&dir, "table1.csv", &t1);

    // The paper's Fig. 7 footnote: the CMD E_form loss spikes and recovers.
    let cmd_curve = log_scratch.val_series("carolina/e_form/mae");
    if let Some(peak) = cmd_curve.iter().map(|&(_, v)| v).reduce(f32::max) {
        let last = cmd_curve.last().map(|&(_, v)| v).unwrap_or(f32::NAN);
        println!(
            "CMD E_form (scratch): peak {peak:.3}, final {last:.3} — spike-and-recover: {}",
            peak > 2.0 * last
        );
    }
    println!("\nartifacts: {}", dir.display());
}
