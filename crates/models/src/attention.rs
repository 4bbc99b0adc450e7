//! An E(3)-invariant point-cloud attention encoder.
//!
//! The paper's Section 2.1 motivates attention over point clouds (citing
//! Spellings' geometric-algebra attention networks) as the toolkit's
//! alternative to graph message passing: no imposed connectivity, dense
//! compute instead of sparse kernels. This encoder is that representation
//! in invariant form: every ordered pair of atoms attends, attention
//! logits combine a scaled dot product of learned queries/keys with a
//! radial-basis encoding of the pair distance, and values are mixed by
//! grouped softmax (`edge_softmax`) per receiving atom.
//!
//! Geometry enters *only* through pairwise distances, so graph embeddings
//! are exactly E(3)-invariant (property-tested alongside the E(n)-GNN).
//! Inputs must carry complete-graph edges
//! (`GraphTransform::complete()` / `complete_graph`); any edge list works,
//! in which case attention is masked to the given pairs.

use std::sync::Arc;

use matsciml_autograd::{Graph, Var};
use matsciml_nn::{Activation, Embedding, ForwardCtx, Linear, Mlp, ParamSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::input::ModelInput;
use crate::Encoder;

/// Point-cloud attention hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AttentionConfig {
    /// Species vocabulary size.
    pub num_species: usize,
    /// Embedding width.
    pub hidden: usize,
    /// Attention rounds.
    pub layers: usize,
    /// Radial-basis functions encoding the pair distance.
    pub rbf_size: usize,
    /// Largest distance covered by the radial basis (Å).
    pub rbf_cutoff: f32,
}

impl AttentionConfig {
    /// Small configuration matched to [`crate::EgnnConfig::small`].
    pub fn small(hidden: usize) -> Self {
        AttentionConfig {
            num_species: crate::input_vocab_default(),
            hidden,
            layers: 3,
            rbf_size: 16,
            rbf_cutoff: 6.0,
        }
    }
}

/// One attention round's parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AttentionLayer {
    query: Linear,
    key: Linear,
    value: Linear,
    /// Maps the RBF distance encoding to an additive logit bias.
    dist_bias: Mlp,
    /// Post-aggregation update MLP (residual).
    update: Mlp,
}

/// The invariant point-cloud attention encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttentionEncoder {
    /// Architecture hyperparameters.
    pub config: AttentionConfig,
    embedding: Embedding,
    layers: Vec<AttentionLayer>,
    rbf_centers: Vec<f32>,
    rbf_gamma: f32,
}

impl AttentionEncoder {
    /// Register the encoder's parameters.
    pub fn new<R: Rng + ?Sized>(ps: &mut ParamSet, config: AttentionConfig, rng: &mut R) -> Self {
        let h = config.hidden;
        let embedding = Embedding::new(ps, "attn.embed", config.num_species, h, rng);
        let layers = (0..config.layers)
            .map(|i| AttentionLayer {
                query: Linear::new_no_bias(ps, &format!("attn.{i}.q"), h, h, rng),
                key: Linear::new_no_bias(ps, &format!("attn.{i}.k"), h, h, rng),
                value: Linear::new_no_bias(ps, &format!("attn.{i}.v"), h, h, rng),
                dist_bias: Mlp::new(
                    ps,
                    &format!("attn.{i}.dist"),
                    &[config.rbf_size, h / 2, 1],
                    Activation::Silu,
                    false,
                    rng,
                ),
                update: Mlp::new(
                    ps,
                    &format!("attn.{i}.update"),
                    &[2 * h, h, h],
                    Activation::Silu,
                    false,
                    rng,
                ),
            })
            .collect();
        // Evenly spaced Gaussian centers; γ set so neighbors overlap at
        // half height.
        let k = config.rbf_size;
        let spacing = config.rbf_cutoff / k as f32;
        let rbf_centers = (0..k).map(|i| (i as f32 + 0.5) * spacing).collect();
        let rbf_gamma = 1.0 / (2.0 * spacing * spacing);
        AttentionEncoder {
            config,
            embedding,
            layers,
            rbf_centers,
            rbf_gamma,
        }
    }
}

impl Encoder for AttentionEncoder {
    fn out_dim(&self) -> usize {
        self.config.hidden
    }

    fn encode(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        _ctx: &mut ForwardCtx,
        input: &ModelInput,
    ) -> Var {
        let n = input.num_nodes();
        let mut h = self.embedding.forward(g, ps, input.species.clone());

        if input.num_edges() > 0 {
            // Pair distances are layer-independent: compute once.
            let coords = g.input(input.coords_tensor());
            let xi = g.gather_rows(coords, input.src.clone());
            let xj = g.gather_rows(coords, input.dst.clone());
            let rel = g.sub(xi, xj);
            let relsq = g.mul(rel, rel);
            let d2 = g.row_sum(relsq);
            let d2c = g.clamp(d2, 1e-8, f32::MAX);
            let dist = g.sqrt(d2c);
            let centers: Arc<Vec<f32>> = Arc::new(self.rbf_centers.clone());
            let rbf = g.rbf_expand(dist, centers, self.rbf_gamma);
            let scale = 1.0 / (self.config.hidden as f32).sqrt();

            for layer in &self.layers {
                let q = layer.query.forward(g, ps, h);
                let k = layer.key.forward(g, ps, h);
                let v = layer.value.forward(g, ps, h);
                let qi = g.gather_rows(q, input.src.clone());
                let kj = g.gather_rows(k, input.dst.clone());
                let qk = g.mul(qi, kj);
                let dot = g.row_sum(qk);
                let dot = g.scale(dot, scale);
                let bias = layer.dist_bias.forward(g, ps, rbf);
                let logits = g.add(dot, bias);
                let alpha = g.edge_softmax(logits, input.src.clone(), n);
                let vj = g.gather_rows(v, input.dst.clone());
                let weighted = g.mul_col(vj, alpha);
                let agg = g.scatter_add_rows(weighted, input.src.clone(), n);
                let cat = g.concat_cols(&[h, agg]);
                let dh = layer.update.forward(g, ps, cat);
                h = g.add(h, dh);
            }
        }
        g.segment_sum(h, input.graph_ids.clone(), input.num_graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_graph::{complete_graph, BatchedGraph};
    use matsciml_tensor::{Mat3, Tensor, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input_from(species: Vec<u32>, pts: Vec<Vec3>) -> ModelInput {
        let graph = complete_graph(species, pts);
        ModelInput::from_batched(&BatchedGraph::from_graphs(&[graph]))
    }

    fn build(seed: u64) -> (ParamSet, AttentionEncoder) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let enc = AttentionEncoder::new(&mut ps, AttentionConfig::small(12), &mut rng);
        (ps, enc)
    }

    fn embed(enc: &AttentionEncoder, ps: &ParamSet, input: &ModelInput) -> Tensor {
        let mut g = Graph::new();
        let mut ctx = ForwardCtx::eval();
        let e = enc.encode(&mut g, ps, &mut ctx, input);
        g.value(e).clone()
    }

    fn cloud() -> (Vec<u32>, Vec<Vec3>) {
        (
            vec![0, 1, 2, 1],
            vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.1, 0.0, 0.0),
                Vec3::new(0.0, 1.3, 0.2),
                Vec3::new(0.4, 0.5, 1.0),
            ],
        )
    }

    #[test]
    fn emits_one_row_per_graph_and_is_finite() {
        let (ps, enc) = build(1);
        let (species, pts) = cloud();
        let out = embed(&enc, &ps, &input_from(species, pts));
        assert_eq!(out.shape(), &[1, 12]);
        assert!(out.all_finite());
    }

    #[test]
    fn embedding_is_rotation_and_translation_invariant() {
        let (ps, enc) = build(2);
        let (species, pts) = cloud();
        let base = embed(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let rot = Mat3::rotation(Vec3::new(0.4, 1.0, -0.3), 1.3);
        let t = Vec3::new(2.0, -1.0, 0.7);
        let moved: Vec<Vec3> = pts.iter().map(|p| rot.apply(*p) + t).collect();
        let out = embed(&enc, &ps, &input_from(species, moved));
        for (a, b) in base.as_slice().iter().zip(out.as_slice()) {
            assert!(
                (a - b).abs() < 2e-3 * (1.0 + a.abs()),
                "attention embedding not invariant: {a} vs {b}"
            );
        }
    }

    #[test]
    fn attention_depends_on_geometry() {
        // Stretching the cloud must change the embedding (distances feed
        // the logits): the encoder is not composition-only.
        let (ps, enc) = build(3);
        let (species, pts) = cloud();
        let base = embed(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let stretched: Vec<Vec3> = pts.iter().map(|p| *p * 1.8).collect();
        let out = embed(&enc, &ps, &input_from(species, stretched));
        let diff: f32 = base
            .as_slice()
            .iter()
            .zip(out.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "geometry change did not affect embedding");
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let (mut ps, enc) = build(4);
        let (species, pts) = cloud();
        let input = input_from(species, pts);
        let mut g = Graph::new();
        let mut ctx = ForwardCtx::eval();
        let e = enc.encode(&mut g, &ps, &mut ctx, &input);
        let sq = g.mul(e, e);
        let loss = g.sum_all(sq);
        g.backward(loss);
        ps.absorb_grads(&g, 1.0);
        let touched = (0..ps.len())
            .filter(|&i| ps.grad(matsciml_nn::ParamId(i)).iter().any(|&g| g != 0.0))
            .count();
        assert_eq!(touched, ps.len(), "{touched}/{} params received gradient", ps.len());
    }

    #[test]
    fn isolated_atom_passes_through() {
        let (ps, enc) = build(5);
        let out = embed(&enc, &ps, &input_from(vec![3], vec![Vec3::zero()]));
        let row = ps.value(enc.embedding.table).row(3).to_vec();
        for (a, b) in out.as_slice().iter().zip(&row) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
