//! Train a machine-learned interatomic potential on the LiPS trajectory
//! surrogate: per-frame energies plus per-atom forces, with forces read
//! from the E(n)-GNN's equivariant coordinate stream.
//!
//! ```text
//! cargo run --release --example md_potential
//! ```

use matsciml::prelude::*;

fn main() {
    // LiPS: thermal-jitter frames around a fixed Li₆PS₄ cluster, labeled
    // with harmonic energies and analytic forces F = −k Δx.
    let ds = SyntheticLips::new(512, 0);
    let pipeline = Compose::standard(4.5, Some(12));

    let train: Vec<Sample> = (0..384).map(|i| pipeline.apply(ds.sample(i))).collect();
    let test: Vec<Sample> = (384..448).map(|i| pipeline.apply(ds.sample(i))).collect();
    println!(
        "LiPS trajectory: {} training frames, {} test frames, {} atoms each",
        train.len(),
        test.len(),
        train[0].graph.num_nodes()
    );

    let mut model = ForceFieldModel::new(EgnnConfig::small(16), 32, 2, 0);
    println!("model: {} parameters\n", model.params.num_scalars());

    let batches: Vec<Vec<Sample>> = train.chunks(16).map(|c| c.to_vec()).collect();
    let eval = |model: &ForceFieldModel, samples: &[Sample]| -> (f32, f32) {
        let mut ctx = ForwardCtx::eval();
        let (_g, _loss, m) = model.loss(samples, &mut ctx);
        (
            m.get("lips/energy/mae").unwrap(),
            m.get("lips/force/mae").unwrap(),
        )
    };

    let (e0, f0) = eval(&model, &test);
    println!("before training: energy MAE {e0:.4} eV   force MAE {f0:.4} eV/Å");

    for round in 1..=4 {
        model.fit(&batches, 2e-3, 2);
        let (e, f) = eval(&model, &test);
        println!("after {:>2} epochs:  energy MAE {e:.4} eV   force MAE {f:.4} eV/Å", round * 2);
    }

    // Show predicted vs true forces on one held-out atom.
    let (_, forces) = model.predict(&test[..1]);
    let truth = test[0].forces.as_ref().unwrap();
    println!("\nper-atom forces of one held-out frame (eV/Å):");
    println!("{:>4} {:>24} {:>24}", "atom", "predicted", "true");
    for (i, t) in truth.iter().enumerate().take(5) {
        println!(
            "{:>4} ({:>6.2},{:>6.2},{:>6.2}) ({:>6.2},{:>6.2},{:>6.2})",
            i,
            forces.at2(i, 0),
            forces.at2(i, 1),
            forces.at2(i, 2),
            t.x,
            t.y,
            t.z,
        );
    }
    let (ef, ff) = eval(&model, &test);
    assert!(ef.is_finite() && ff.is_finite());
}
