//! **Ablation suite** (DESIGN.md §5) — the design choices the paper
//! motivates but does not sweep, each isolated on the symmetry task:
//!
//! 1. **LR scaling rule** (Goyal et al.): η·N vs constant η under growing N
//!    — the trade-off behind both frames of Fig. 3.
//! 2. **AdamW ε sensitivity** (Molybog et al.): spike frequency vs ε at a
//!    large effective batch.
//! 3. **Encoder representations**: E(n)-GNN (graph, equivariant) vs plain
//!    MPNN (graph, non-equivariant) vs point-cloud attention (dense,
//!    invariant — the paper's §2.1 alternative) at matched width, on
//!    randomly oriented clouds.
//! 4. **Warmup length**: 0 vs 8 epochs at large N.
//! 5. **Norm choice in output heads** (paper Appendix A): RMSNorm vs
//!    BatchNorm under the irregular batches of multi-task multi-dataset
//!    training — the instability that made the authors pick RMSNorm.

use matsciml::prelude::*;
use matsciml_bench::{encoder_config, experiment_dir, render_table, write_artifact, Scale};

struct Outcome {
    name: String,
    final_ce: f32,
    final_acc: f32,
    spikes: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Arch {
    Egnn,
    Mpnn,
    Attention,
}

#[allow(clippy::too_many_arguments)]
fn run_symmetry(
    name: &str,
    arch: Arch,
    world: usize,
    steps: u64,
    base_lr: f32,
    scale_lr: bool,
    warmup_epochs: u64,
    eps: f32,
    scale: Scale,
) -> Outcome {
    let cfg = encoder_config();
    let dataset = SymmetryDataset::new(scale.samples(3072).max(1024 + 2 * world), 61);
    let heads = [TaskHeadConfig::symmetry(
        2 * cfg.hidden,
        3,
        dataset.num_classes(),
    )];
    let mut model = match arch {
        Arch::Egnn => TaskModel::egnn(cfg, &heads, 50),
        Arch::Mpnn => TaskModel::mpnn(MpnnConfig::small(cfg.hidden), &heads, 50),
        Arch::Attention => TaskModel::attention(AttentionConfig::small(cfg.hidden), &heads, 50),
    };
    // The attention encoder consumes the dense all-pairs representation;
    // graph encoders get the standard radius pipeline.
    let pipeline = if arch == Arch::Attention {
        Compose::new(vec![
            Box::new(CenterTransform),
            Box::new(GraphTransform::complete()),
        ])
    } else {
        Compose::standard(1.2, Some(16))
    };
    let per_rank = 2;
    let train_dl = DataLoader::new(
        &dataset,
        Some(&pipeline),
        Split::Train,
        0.1,
        world * per_rank,
        41,
    );
    let val_dl = DataLoader::new(&dataset, Some(&pipeline), Split::Val, 0.1, 32, 41);
    let trainer = Trainer::new(TrainConfig {
        world_size: world,
        per_rank_batch: per_rank,
        steps,
        base_lr,
        scale_lr_by_world: scale_lr,
        warmup_epochs,
        gamma: 0.9,
        weight_decay: 0.0,
        eps,
        clip_norm: None,
        eval_every: (steps / 10).max(1),
        eval_batches: 2,
        parallel_ranks: true,
        seed: 51,
        early_stop: None,
        skip_nonfinite_updates: false,
        overlap_comm: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        readahead_threads: 0,
        readahead_depth: 0,
    });
    let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
    let fv = log.final_val().cloned().unwrap_or_default();
    Outcome {
        name: name.to_string(),
        final_ce: fv.get("symmetry/sym/ce").unwrap_or(f32::NAN),
        final_acc: fv.get("symmetry/sym/acc").unwrap_or(f32::NAN),
        spikes: log.spike_steps.len(),
    }
}

/// Multi-task run for the norm ablation: MP (4 targets) + CMD, mixed
/// batches, so BatchNorm's batch statistics fluctuate with batch
/// composition — the paper's stated failure mode.
fn run_multitask_norm(name: &str, norm: NormKind, steps: u64, scale: Scale) -> Outcome {
    let cfg = encoder_config();
    let hidden = 2 * cfg.hidden;
    let with = |mut c: TaskHeadConfig| {
        c.norm = norm;
        c
    };
    let heads = [
        with(TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::BandGap,
            hidden,
            3,
        )),
        with(TaskHeadConfig::regression(
            DatasetId::MaterialsProject,
            TargetKind::FermiEnergy,
            hidden,
            3,
        )),
        with(TaskHeadConfig::binary(
            DatasetId::MaterialsProject,
            TargetKind::Stability,
            hidden,
            3,
        )),
        with(TaskHeadConfig::regression(
            DatasetId::Carolina,
            TargetKind::FormationEnergy,
            hidden,
            3,
        )),
    ];
    let mut model = TaskModel::egnn(cfg, &heads, 52);
    let n = scale.samples(1024).max(512);
    let merged = ConcatDataset::new(vec![
        Box::new(SyntheticMaterialsProject::new(n, 81)),
        Box::new(SyntheticCarolina::new(n / 2, 82)),
    ]);
    let pipeline = Compose::standard(4.5, Some(12));
    let train_dl = DataLoader::new(&merged, Some(&pipeline), Split::Train, 0.2, 32, 42);
    let val_dl = DataLoader::new(&merged, Some(&pipeline), Split::Val, 0.2, 32, 42);
    let trainer = Trainer::new(TrainConfig {
        world_size: 4,
        per_rank_batch: 8,
        steps,
        base_lr: 5e-4,
        scale_lr_by_world: true,
        warmup_epochs: 1,
        gamma: 0.9,
        weight_decay: 0.0,
        eps: 1e-8,
        clip_norm: None,
        eval_every: (steps / 10).max(1),
        eval_batches: 2,
        parallel_ranks: true,
        seed: 53,
        early_stop: None,
        skip_nonfinite_updates: false,
        overlap_comm: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        readahead_threads: 0,
        readahead_depth: 0,
    });
    let log = trainer.train(&mut model, &train_dl, Some(&val_dl));
    let fv = log.final_val().cloned().unwrap_or_default();
    Outcome {
        name: name.to_string(),
        final_ce: fv.get("loss").unwrap_or(f32::NAN),
        final_acc: fv
            .get("materials-project/stability/acc")
            .unwrap_or(f32::NAN),
        spikes: log.spike_steps.len(),
    }
}

fn print_outcomes_multitask(title: &str, outcomes: &[Outcome]) {
    println!("\n{title}");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.name.clone(),
                format!("{:.3}", o.final_ce),
                format!("{:.3}", o.final_acc),
                o.spikes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["config", "val loss", "stability acc", "spikes"], &rows)
    );
}

fn print_outcomes(title: &str, outcomes: &[Outcome]) {
    println!("\n{title}");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.name.clone(),
                format!("{:.3}", o.final_ce),
                format!("{:.3}", o.final_acc),
                o.spikes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["config", "val CE", "val acc", "spikes"], &rows)
    );
}

fn main() {
    let scale = Scale::from_env();
    let dir = experiment_dir("ablations");
    let steps = scale.steps(400);
    let mut all: Vec<(String, f32, f32, usize)> = Vec::new();

    // 1. LR scaling rule.
    let mut a1 = Vec::new();
    for &world in &[4usize, 32] {
        for &scaled in &[true, false] {
            let name = format!("N={world} {}", if scaled { "η·N" } else { "η const" });
            eprintln!("[ablation 1] {name}");
            a1.push(run_symmetry(
                &name,
                Arch::Egnn,
                world,
                steps,
                1e-4,
                scaled,
                1,
                1e-8,
                scale,
            ));
        }
    }
    print_outcomes(
        "Ablation 1 — learning-rate scaling rule (Goyal et al.)",
        &a1,
    );

    // 2. AdamW ε sensitivity at large effective batch.
    let mut a2 = Vec::new();
    for &eps in &[1e-8f32, 1e-6, 1e-4] {
        let name = format!("N=128 η·N ε={eps:.0e}");
        eprintln!("[ablation 2] {name}");
        a2.push(run_symmetry(
            &name,
            Arch::Egnn,
            128,
            scale.steps(150),
            1e-3,
            true,
            0,
            eps,
            scale,
        ));
    }
    print_outcomes(
        "Ablation 2 — AdamW ε at large effective batch (Molybog et al.)",
        &a2,
    );

    // 3. Encoder representations.
    let mut a3 = Vec::new();
    for (arch, name) in [
        (Arch::Egnn, "E(n)-GNN (graph, equivariant)"),
        (Arch::Mpnn, "MPNN (graph, non-equivariant)"),
        (Arch::Attention, "attention (point cloud, invariant)"),
    ] {
        eprintln!("[ablation 3] {name}");
        a3.push(run_symmetry(
            name,
            arch,
            4,
            scale.steps(500),
            5e-4,
            true,
            1,
            1e-8,
            scale,
        ));
    }
    print_outcomes("Ablation 3 — encoder representations", &a3);
    if a3[0].final_acc > a3[1].final_acc {
        println!("→ symmetry-aware encoders win on randomly-oriented clouds, as designed");
    }

    // 4. Warmup length at large N.
    let mut a4 = Vec::new();
    for &warmup in &[0u64, 8] {
        let name = format!("N=64 warmup={warmup} epochs");
        eprintln!("[ablation 4] {name}");
        a4.push(run_symmetry(
            &name,
            Arch::Egnn,
            64,
            scale.steps(300),
            5e-4,
            true,
            warmup,
            1e-8,
            scale,
        ));
    }
    print_outcomes("Ablation 4 — warmup length at large N", &a4);

    // 5. Norm choice under irregular multi-task batches (Appendix A).
    let mut a5 = Vec::new();
    for (norm, name) in [
        (NormKind::Rms, "RMSNorm heads"),
        (NormKind::Batch, "BatchNorm heads"),
    ] {
        eprintln!("[ablation 5] {name}");
        a5.push(run_multitask_norm(name, norm, scale.steps(200), scale));
    }
    print_outcomes_multitask(
        "Ablation 5 — head normalization under multi-task batches (Appendix A)",
        &a5,
    );

    for group in [&a1, &a2, &a3, &a4, &a5] {
        for o in group.iter() {
            all.push((o.name.clone(), o.final_ce, o.final_acc, o.spikes));
        }
    }
    let mut csv = String::from("config,val_ce,val_acc,spikes\n");
    for (name, ce, acc, spikes) in &all {
        csv.push_str(&format!("{name},{ce},{acc},{spikes}\n"));
    }
    write_artifact(&dir, "ablations.csv", &csv);
    println!("\nartifacts: {}", dir.display());
}
