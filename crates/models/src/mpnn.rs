//! A non-equivariant message-passing baseline.
//!
//! Architecturally parallel to the E(n)-GNN (same widths, same residual
//! layout, same readout) but it consumes *raw Cartesian coordinates* as
//! node features and never updates them — so its predictions change under
//! rotation of the input. It exists for the DESIGN.md §5 ablation:
//! equivariant vs plain encoder at a fixed parameter budget.

use matsciml_autograd::{Graph, Var};
use matsciml_nn::{Activation, Embedding, ForwardCtx, Linear, Mlp, ParamSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::input::ModelInput;
use crate::Encoder;

/// MPNN hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MpnnConfig {
    /// Species vocabulary size.
    pub num_species: usize,
    /// Node/message width.
    pub hidden: usize,
    /// Message-passing rounds.
    pub layers: usize,
}

impl MpnnConfig {
    /// Small configuration matching [`crate::EgnnConfig::small`].
    pub fn small(hidden: usize) -> Self {
        MpnnConfig {
            num_species: crate::input_vocab_default(),
            hidden,
            layers: 3,
        }
    }
}

/// One plain message-passing layer: `m_ij = φ(h_i ‖ h_j)`,
/// `h_i' = h_i + ψ(h_i ‖ Σ_j m_ij)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MpnnLayer {
    phi: Mlp,
    psi: Mlp,
}

/// The non-equivariant encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpnnEncoder {
    /// Architecture hyperparameters.
    pub config: MpnnConfig,
    embedding: Embedding,
    coord_proj: Linear,
    layers: Vec<MpnnLayer>,
}

impl MpnnEncoder {
    /// Register the encoder's parameters.
    pub fn new<R: Rng + ?Sized>(ps: &mut ParamSet, config: MpnnConfig, rng: &mut R) -> Self {
        let embedding = Embedding::new(ps, "mpnn.embed", config.num_species, config.hidden, rng);
        // Raw xyz is projected and *added into* the species embedding —
        // this is exactly the step that breaks E(3) invariance.
        let coord_proj = Linear::new(ps, "mpnn.coord", 3, config.hidden, rng);
        let layers = (0..config.layers)
            .map(|i| MpnnLayer {
                phi: Mlp::new(
                    ps,
                    &format!("mpnn.layer{i}.phi"),
                    &[2 * config.hidden, config.hidden, config.hidden],
                    Activation::Silu,
                    true,
                    rng,
                ),
                psi: Mlp::new(
                    ps,
                    &format!("mpnn.layer{i}.psi"),
                    &[2 * config.hidden, config.hidden, config.hidden],
                    Activation::Silu,
                    false,
                    rng,
                ),
            })
            .collect();
        MpnnEncoder {
            config,
            embedding,
            coord_proj,
            layers,
        }
    }
}

impl Encoder for MpnnEncoder {
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
        let species = self.embedding.forward(g, ps, input.species.clone());
        let coords = g.input(input.coords.clone());
        let pos_feat = self.coord_proj.forward(g, ps, coords);
        let mut h = g.add(species, pos_feat);

        for layer in &self.layers {
            if input.num_edges() == 0 {
                break;
            }
            // One tape node assembling [h_i ‖ h_j] per edge, bit-identical
            // to the gather×2+concat composition (pinned by the tests below).
            let msg_in = g.edge_concat(h, None, input.src.clone(), input.dst.clone());
            let m = layer.phi.forward(g, ps, msg_in);
            let agg = g.scatter_add_rows(m, input.src.clone(), n);
            let upd_in = g.concat_cols(&[h, agg]);
            let dh = layer.psi.forward(g, ps, upd_in);
            h = g.add(h, dh);
        }
        g.segment_sum(h, input.graph_ids.clone(), input.num_graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_graph::{radius_graph, BatchedGraph};
    use matsciml_tensor::{Mat3, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input_from(pts: Vec<Vec3>) -> ModelInput {
        let graph = radius_graph(vec![0, 1, 2], pts, 2.5, None);
        ModelInput::from_batched(&BatchedGraph::from_graphs(&[graph]))
    }

    #[test]
    fn produces_graph_embeddings() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let enc = MpnnEncoder::new(&mut ps, MpnnConfig::small(8), &mut rng);
        let input = input_from(vec![
            Vec3::zero(),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.5),
        ]);
        let mut g = Graph::new();
        let mut ctx = ForwardCtx::eval();
        let e = enc.encode(&mut g, &ps, &mut ctx, &input);
        assert_eq!(g.value(e).shape(), &[1, 8]);
        assert!(g.value(e).all_finite());
    }

    #[test]
    fn is_not_rotation_invariant() {
        // The defining (anti-)property of the baseline: a rotation of the
        // input changes the embedding.
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let enc = MpnnEncoder::new(&mut ps, MpnnConfig::small(8), &mut rng);
        let pts = vec![
            Vec3::zero(),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.5),
        ];
        let rot = Mat3::rotation(Vec3::new(0.3, 1.0, 0.2), 1.2);
        let rotated: Vec<Vec3> = pts.iter().map(|p| rot.apply(*p)).collect();

        let embed = |pts: Vec<Vec3>, ps: &ParamSet| {
            let input = input_from(pts);
            let mut g = Graph::new();
            let mut ctx = ForwardCtx::eval();
            let e = enc.encode(&mut g, ps, &mut ctx, &input);
            g.value(e).clone()
        };
        let a = embed(pts, &ps);
        let b = embed(rotated, &ps);
        let diff: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-3, "baseline should NOT be rotation invariant (diff {diff})");
    }

    /// [`MpnnEncoder::encode`] with each fused `edge_concat` replaced by the
    /// generic gather×2 + concat composition it lowers.
    fn generic_encode(enc: &MpnnEncoder, g: &mut Graph, ps: &ParamSet, input: &ModelInput) -> Var {
        let n = input.num_nodes();
        let species = enc.embedding.forward(g, ps, input.species.clone());
        let coords = g.input(input.coords.clone());
        let pos_feat = enc.coord_proj.forward(g, ps, coords);
        let mut h = g.add(species, pos_feat);
        for layer in &enc.layers {
            let hi = g.gather_rows(h, input.src.clone());
            let hj = g.gather_rows(h, input.dst.clone());
            let msg_in = g.concat_cols(&[hi, hj]);
            let m = layer.phi.forward(g, ps, msg_in);
            let agg = g.scatter_add_rows(m, input.src.clone(), n);
            let upd_in = g.concat_cols(&[h, agg]);
            let dh = layer.psi.forward(g, ps, upd_in);
            h = g.add(h, dh);
        }
        g.segment_sum(h, input.graph_ids.clone(), input.num_graphs)
    }

    #[test]
    fn fused_edge_concat_matches_generic_composition() {
        // A capped-neighbour helix: every node keeps at most 4 edges.
        let species: Vec<u32> = (0..9).map(|i| i % 5).collect();
        let pts = (0..9)
            .map(|i| {
                let t = i as f32 * 1.3;
                Vec3::new(t.cos() * 1.2, t.sin() * 1.2, i as f32 * 0.4)
            })
            .collect();
        let graph = radius_graph(species, pts, 3.0, Some(4));
        let input = ModelInput::from_batched(&BatchedGraph::from_graphs(&[graph]));
        assert!(input.num_edges() > 0);
        let mut rng = StdRng::seed_from_u64(25);
        let mut ps = ParamSet::new();
        let enc = MpnnEncoder::new(&mut ps, MpnnConfig::small(10), &mut rng);

        let bits = |t: &matsciml_tensor::Tensor| -> Vec<u32> {
            t.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let run = |fused: bool| {
            let mut g = Graph::new();
            let emb = if fused {
                enc.encode(&mut g, &ps, &mut ForwardCtx::eval(), &input)
            } else {
                generic_encode(&enc, &mut g, &ps, &input)
            };
            let len = g.len();
            let loss = g.sum_all(emb);
            g.backward(loss);
            let grads: Vec<_> = g.param_grads().map(|(id, t)| (id, bits(t))).collect();
            (len, bits(g.value(emb)), grads)
        };
        let (fused_len, fused_emb, fused_grads) = run(true);
        let (generic_len, emb, grads) = run(false);
        assert_eq!(fused_emb, emb, "embedding bits diverged");
        assert_eq!(fused_grads, grads, "parameter gradient bits diverged");
        assert!(fused_len < generic_len, "fused tape {fused_len} vs generic {generic_len}");
    }
}
