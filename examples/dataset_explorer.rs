//! Semantic dataset exploration (the paper's Section 5.3 workflow): embed
//! structures from every supported dataset with a shared encoder, project
//! with UMAP, and quantify which datasets overlap and which cover unique
//! regions of structure space — the analysis that tells you *what data a
//! foundation model is missing*.
//!
//! ```text
//! cargo run --release --example dataset_explorer
//! ```

use matsciml::prelude::*;

fn main() {
    // An untrained encoder already induces a geometry-sensitive embedding;
    // the fig4 bench binary uses the pretrained one. Examples stay fast.
    let model = TaskModel::egnn(
        EgnnConfig::small(16),
        &[TaskHeadConfig::symmetry(32, 1, 32)],
        0,
    );
    let pipeline = Compose::standard(4.5, Some(12));

    let per_dataset = 80usize;
    let sources: Vec<(&str, Box<dyn Dataset>)> = vec![
        ("materials-project", Box::new(SyntheticMaterialsProject::new(per_dataset, 1))),
        ("carolina", Box::new(SyntheticCarolina::new(per_dataset, 2))),
        ("oc20", Box::new(SyntheticOc20::new(per_dataset, 3))),
        ("oc22", Box::new(SyntheticOc22::new(per_dataset, 4))),
        ("lips", Box::new(SyntheticLips::new(per_dataset, 5))),
    ];

    println!("embedding {per_dataset} structures from each of 5 datasets…");
    let mut all: Vec<f32> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for (li, (name, ds)) in sources.iter().enumerate() {
        let samples: Vec<Sample> = (0..per_dataset).map(|i| pipeline.apply(ds.sample(i))).collect();
        let emb = model.embed(&samples);
        println!("  {name}: {} structures → {}-d embeddings", emb.rows(), emb.cols());
        all.extend_from_slice(emb.as_slice());
        labels.extend(std::iter::repeat_n(li, per_dataset));
    }
    let n = labels.len();
    let dim = all.len() / n;
    let data = Tensor::from_vec(&[n, dim], all).unwrap();

    println!("\nprojecting with UMAP (min_dist = 0.05, as in the paper)…");
    let umap = Umap::new(UmapConfig {
        n_neighbors: 15,
        min_dist: 0.05,
        n_epochs: 100,
        seed: 9,
        ..UmapConfig::default()
    });
    let fitted = umap.fit(&data);
    let emb2d = fitted.embedding().clone();

    let sil = silhouette(&emb2d, &labels);
    let sep = centroid_separation(&emb2d, &labels);
    println!("silhouette over dataset labels: {sil:.3}");
    println!("min inter-centroid / max spread: {sep:.3}");

    // Which dataset is most isolated? Nearest-centroid analysis.
    let names = ["materials-project", "carolina", "oc20", "oc22", "lips"];
    let mut centroids = [(0.0f32, 0.0f32); 5];
    for (i, &l) in labels.iter().enumerate() {
        centroids[l].0 += emb2d.at2(i, 0) / per_dataset as f32;
        centroids[l].1 += emb2d.at2(i, 1) / per_dataset as f32;
    }
    println!("\nnearest neighbor in embedding space:");
    for a in 0..5 {
        let (mut best, mut bd) = (a, f32::INFINITY);
        for b in 0..5 {
            if a != b {
                let d = ((centroids[a].0 - centroids[b].0).powi(2)
                    + (centroids[a].1 - centroids[b].1).powi(2))
                .sqrt();
                if d < bd {
                    bd = d;
                    best = b;
                }
            }
        }
        println!("  {:<18} ↔ {:<18} (distance {bd:.2})", names[a], names[best]);
    }
    // Out-of-sample: drop a *new* candidate structure onto the map.
    let candidate_ds = SyntheticCarolina::new(200, 77);
    let candidate = pipeline.apply(candidate_ds.sample(199));
    let cand_emb = model.embed(std::slice::from_ref(&candidate));
    let placed = fitted.transform(&cand_emb);
    let (mut best, mut bd) = (0usize, f32::INFINITY);
    for (l, c) in centroids.iter().enumerate() {
        let d = ((placed.at2(0, 0) - c.0).powi(2) + (placed.at2(0, 1) - c.1).powi(2)).sqrt();
        if d < bd {
            bd = d;
            best = l;
        }
    }
    println!(
        "\nout-of-sample: a fresh Carolina candidate lands at ({:.2}, {:.2}), nearest dataset region: {}",
        placed.at2(0, 0),
        placed.at2(0, 1),
        names[best]
    );

    println!("\ninterpretation: overlapping datasets are redundant for foundation-model\ntraining; isolated clusters mark coverage a balanced data mix must keep.");
}
