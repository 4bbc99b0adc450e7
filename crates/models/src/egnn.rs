//! The E(n)-equivariant graph neural network (Satorras et al. 2022),
//! configured as in the paper's Appendix A.
//!
//! Per layer, for each edge (i, j):
//!
//! ```text
//! m_ij   = φ_e(h_i, h_j, ‖x_i − x_j‖²)
//! x_i'   = x_i + C · Σ_j (x_i − x_j) · φ_x(m_ij)
//! h_i'   = h_i + φ_h(h_i, Σ_j m_ij)
//! ```
//!
//! Node embeddings consume only E(3)-invariants (squared distances), and
//! coordinates move only along relative vectors — giving invariant
//! embeddings and equivariant coordinates by construction (property-tested
//! in `tests/equivariance.rs`). `C` is mean aggregation (`1/(deg+1)`), and
//! φ_x's output passes through `tanh` to bound per-layer coordinate
//! updates — the standard stabilization from the reference implementation.

use matsciml_autograd::{Graph, Var};
use matsciml_nn::{Activation, Embedding, ForwardCtx, Mlp, ParamSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::input::ModelInput;
use crate::Encoder;

/// E(n)-GNN hyperparameters. Paper defaults (Appendix A): three layers,
/// SiLU activations, hidden/message width 256, positional width 64,
/// residual connections, sum readout. The experiment binaries shrink
/// `hidden` to fit the simulation budget; shapes are fully configurable.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EgnnConfig {
    /// Species vocabulary size for the input embedding table.
    pub num_species: usize,
    /// Node/message embedding width (paper: 256).
    pub hidden: usize,
    /// Hidden width of the positional MLP φ_x (paper: 64).
    pub pos_width: usize,
    /// Number of E(n)-GNN layers (paper: 3).
    pub layers: usize,
}

impl EgnnConfig {
    /// The paper's nominal architecture over our 48-species vocabulary.
    pub fn paper() -> Self {
        EgnnConfig {
            num_species: crate::input_vocab_default(),
            hidden: 256,
            pos_width: 64,
            layers: 3,
        }
    }

    /// A scaled-down configuration for laptop-scale experiments.
    pub fn small(hidden: usize) -> Self {
        EgnnConfig {
            num_species: crate::input_vocab_default(),
            hidden,
            pos_width: (hidden / 4).max(8),
            layers: 3,
        }
    }
}

/// One equivariant graph convolutional layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EgnnLayer {
    phi_e: Mlp,
    phi_x: Mlp,
    phi_h: Mlp,
}

impl EgnnLayer {
    /// Register one layer's parameters.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        hidden: usize,
        pos_width: usize,
        rng: &mut R,
    ) -> Self {
        EgnnLayer {
            // φ_e ends in an activation (messages are post-nonlinearity in
            // Satorras et al.).
            phi_e: Mlp::new(
                ps,
                &format!("{name}.phi_e"),
                &[2 * hidden + 1, hidden, hidden],
                Activation::Silu,
                true,
                rng,
            ),
            phi_x: Mlp::new(
                ps,
                &format!("{name}.phi_x"),
                &[hidden, pos_width, 1],
                Activation::Silu,
                false,
                rng,
            ),
            phi_h: Mlp::new(
                ps,
                &format!("{name}.phi_h"),
                &[2 * hidden, hidden, hidden],
                Activation::Silu,
                false,
                rng,
            ),
        }
    }

    /// Transform `(h, x)` for one message-passing round. Returns the
    /// updated `(h, x)` pair; both carry residual structure.
    pub fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        input: &ModelInput,
        h: Var,
        x: Var,
    ) -> (Var, Var) {
        // An edge-free batch still takes the node update h' = h + φ_h(h ‖ 0),
        // as its atoms would in a batch with edges elsewhere: a structure's
        // output must not depend on what it is batched with.
        let n = input.num_nodes();

        // Each edge stage is one fused tape node: `rel` (gather×2 + sub),
        // the φ_e input h_i ‖ h_j ‖ d² (gather×2 + mul + row_sum +
        // concat), and the coordinate update (mul_col + scatter +
        // mul_col). The tests below pin them bit for bit to that generic
        // composition.
        let rel = g.edge_rel(x, input.src.clone(), input.dst.clone());
        // m_ij = φ_e(h_i ‖ h_j ‖ d²)
        let msg_in = g.edge_concat(h, Some(rel), input.src.clone(), input.dst.clone());
        let m = self.phi_e.forward(g, ps, msg_in);

        // x_i' = x_i + C Σ_j (x_i − x_j) tanh(φ_x(m_ij))
        let w_raw = self.phi_x.forward(g, ps, m);
        let w = g.tanh(w_raw);
        let inv_degree = Some(input.inv_degree_tensor());
        let agg_x = g.weighted_scatter(rel, w, input.src.clone(), n, inv_degree);
        let x_new = g.add(x, agg_x);

        // h_i' = h_i + φ_h(h_i ‖ Σ_j m_ij)
        let agg_m = g.scatter_add_rows(m, input.src.clone(), n);
        let upd_in = g.concat_cols(&[h, agg_m]);
        let dh = self.phi_h.forward(g, ps, upd_in);
        let h_new = g.add(h, dh);
        (h_new, x_new)
    }
}

/// The full encoder: species embedding → `layers` E(n)-GNN rounds →
/// size-extensive sum readout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EgnnEncoder {
    /// Architecture hyperparameters.
    pub config: EgnnConfig,
    embedding: Embedding,
    layers: Vec<EgnnLayer>,
}

impl EgnnEncoder {
    /// Register the encoder's parameters.
    pub fn new<R: Rng + ?Sized>(ps: &mut ParamSet, config: EgnnConfig, rng: &mut R) -> Self {
        let embedding = Embedding::new(ps, "egnn.embed", config.num_species, config.hidden, rng);
        let layers = (0..config.layers)
            .map(|i| {
                EgnnLayer::new(
                    ps,
                    &format!("egnn.layer{i}"),
                    config.hidden,
                    config.pos_width,
                    rng,
                )
            })
            .collect();
        EgnnEncoder {
            config,
            embedding,
            layers,
        }
    }

    /// Node-level embeddings after all layers, `[n, hidden]` (used by tests
    /// and by analyses that need per-atom features).
    pub fn node_embeddings(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        input: &ModelInput,
    ) -> (Var, Var) {
        let (h, x, _x0) = self.node_embeddings_with_initial(g, ps, input);
        (h, x)
    }

    /// Like [`Self::node_embeddings`] but also returns the initial
    /// coordinate leaf, so callers can form the equivariant displacement
    /// field `x' − x₀` (the force-prediction readout).
    pub fn node_embeddings_with_initial(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        input: &ModelInput,
    ) -> (Var, Var, Var) {
        let mut h = self.embedding.forward(g, ps, input.species.clone());
        let x0 = g.input(input.coords_tensor());
        let mut x = x0;
        for layer in &self.layers {
            let (h2, x2) = layer.forward(g, ps, input, h, x);
            h = h2;
            x = x2;
        }
        (h, x, x0)
    }
}

impl Encoder for EgnnEncoder {
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
        let (h, _x) = self.node_embeddings(g, ps, input);
        g.segment_sum(h, input.graph_ids.clone(), input.num_graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_graph::{radius_graph, BatchedGraph, MaterialGraph};
    use matsciml_tensor::Vec3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_input() -> ModelInput {
        let pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.2, 0.0),
            Vec3::new(0.5, 0.5, 0.9),
        ];
        let graph = radius_graph(vec![0, 1, 2, 1], pts, 2.0, None);
        ModelInput::from_batched(&BatchedGraph::from_graphs(&[graph]))
    }

    #[test]
    fn encoder_emits_one_row_per_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let enc = EgnnEncoder::new(&mut ps, EgnnConfig::small(16), &mut rng);
        let input = toy_input();
        let mut g = Graph::new();
        let mut ctx = ForwardCtx::eval();
        let emb = enc.encode(&mut g, &ps, &mut ctx, &input);
        assert_eq!(g.value(emb).shape(), &[1, 16]);
        assert!(g.value(emb).all_finite());
    }

    #[test]
    fn readout_is_size_extensive() {
        // Two disjoint copies of the same graph must embed to exactly twice
        // the single-copy embedding (sum pooling).
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let enc = EgnnEncoder::new(&mut ps, EgnnConfig::small(8), &mut rng);
        let pts = vec![Vec3::zero(), Vec3::new(1.0, 0.0, 0.0)];
        let g1 = radius_graph(vec![0, 1], pts.clone(), 2.0, None);
        let single =
            ModelInput::from_batched(&BatchedGraph::from_graphs(std::slice::from_ref(&g1)));
        let pair = ModelInput::from_batched(&BatchedGraph::from_graphs(&[g1.clone(), g1]));

        let embed = |input: &ModelInput, ps: &ParamSet| {
            let mut g = Graph::new();
            let mut ctx = ForwardCtx::eval();
            let e = enc.encode(&mut g, ps, &mut ctx, input);
            g.value(e).clone()
        };
        let s = embed(&single, &ps);
        let p = embed(&pair, &ps);
        for c in 0..8 {
            assert!((p.at2(0, c) - s.at2(0, c)).abs() < 1e-4);
            assert!((p.at2(1, c) - s.at2(0, c)).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_to_all_parameter_tensors() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let enc = EgnnEncoder::new(&mut ps, EgnnConfig::small(8), &mut rng);
        let input = toy_input();
        let mut g = Graph::new();
        // Loss over both streams: the pooled node embedding (what `encode`
        // returns) and the final coordinates (so the last layer's φ_x —
        // which only feeds the coordinate stream — is exercised too).
        let (h, x) = enc.node_embeddings(&mut g, &ps, &input);
        let pooled = g.segment_sum(h, input.graph_ids.clone(), input.num_graphs);
        let hsq = g.mul(pooled, pooled);
        let xsq = g.mul(x, x);
        let lh = g.sum_all(hsq);
        let lx = g.sum_all(xsq);
        let loss = g.add(lh, lx);
        g.backward(loss);
        ps.absorb_grads(&g, 1.0);
        let touched = (0..ps.len())
            .filter(|&i| ps.grad(matsciml_nn::ParamId(i)).iter().any(|&g| g != 0.0))
            .count();
        assert_eq!(
            touched,
            ps.len(),
            "only {touched}/{} parameter tensors received gradient",
            ps.len()
        );
    }

    #[test]
    fn edge_free_structure_alone_matches_its_batched_row() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let enc = EgnnEncoder::new(&mut ps, EgnnConfig::small(8), &mut rng);
        // Two atoms 5 Å apart: no edge within the 2 Å cutoff.
        let edge_free = radius_graph(
            vec![2, 3],
            vec![Vec3::zero(), Vec3::new(5.0, 0.0, 0.0)],
            2.0,
            None,
        );
        assert_eq!(edge_free.num_edges(), 0);
        let connected = radius_graph(
            vec![0, 1, 2],
            vec![Vec3::zero(), Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.1, 0.0)],
            2.0,
            None,
        );
        let embed = |graphs: &[matsciml_graph::MaterialGraph]| -> Vec<u32> {
            let input = ModelInput::from_batched(&BatchedGraph::from_graphs(graphs));
            let mut g = Graph::new();
            let emb = enc.encode(&mut g, &ps, &mut ForwardCtx::eval(), &input);
            g.value(emb).as_slice().iter().map(|v| v.to_bits()).collect()
        };

        let alone = embed(std::slice::from_ref(&edge_free));
        let batched = embed(&[edge_free.clone(), connected]);
        assert_eq!(alone, batched[..alone.len()]);
        // The node update ran: the readout is not the raw embedding sum.
        let table = ps.value(enc.embedding.table);
        let raw: Vec<u32> = table
            .row(2)
            .iter()
            .zip(table.row(3))
            .map(|(a, b)| (a + b).to_bits())
            .collect();
        assert_ne!(alone, raw);
    }

    #[test]
    fn deeper_config_changes_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps1 = ParamSet::new();
        let mut cfg = EgnnConfig::small(8);
        cfg.layers = 1;
        let shallow = EgnnEncoder::new(&mut ps1, cfg, &mut rng);
        let input = toy_input();
        let mut g = Graph::new();
        let mut ctx = ForwardCtx::eval();
        let e1 = shallow.encode(&mut g, &ps1, &mut ctx, &input);
        assert!(g.value(e1).all_finite());
        assert_eq!(shallow.layers.len(), 1);
    }

    /// The generic gather/sub/mul/concat/scatter composition that the
    /// fused edge ops in [`EgnnLayer::forward`] replace, built from the
    /// kept autograd ops.
    fn generic_forward(
        layer: &EgnnLayer,
        g: &mut Graph,
        ps: &ParamSet,
        input: &ModelInput,
        h: Var,
        x: Var,
    ) -> (Var, Var) {
        let n = input.num_nodes();
        let hi = g.gather_rows(h, input.src.clone());
        let hj = g.gather_rows(h, input.dst.clone());
        let xi = g.gather_rows(x, input.src.clone());
        let xj = g.gather_rows(x, input.dst.clone());
        let rel = g.sub(xi, xj);
        let relsq = g.mul(rel, rel);
        let d2 = g.row_sum(relsq);
        let msg_in = g.concat_cols(&[hi, hj, d2]);
        let m = layer.phi_e.forward(g, ps, msg_in);

        let w_raw = layer.phi_x.forward(g, ps, m);
        let w = g.tanh(w_raw);
        let moved = g.mul_col(rel, w);
        let agg_x = g.scatter_add_rows(moved, input.src.clone(), n);
        let inv_deg = g.input(input.inv_degree_tensor());
        let agg_x = g.mul_col(agg_x, inv_deg);
        let x_new = g.add(x, agg_x);

        let agg_m = g.scatter_add_rows(m, input.src.clone(), n);
        let upd_in = g.concat_cols(&[h, agg_m]);
        let dh = layer.phi_h.forward(g, ps, upd_in);
        (g.add(h, dh), x_new)
    }

    /// What one lowering produced: forward tape length, graph-embedding
    /// bits, final-coordinate bits and every parameter gradient's bits.
    type Lowered = (usize, Vec<u32>, Vec<u32>, Vec<(usize, Vec<u32>)>);

    /// Forward + backward of `Σ embedding + Σ x'` through the encoder with
    /// the fused or the generic edge lowering.
    fn lowered(enc: &EgnnEncoder, ps: &ParamSet, input: &ModelInput, fused: bool) -> Lowered {
        let bits = |t: &matsciml_tensor::Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut g = Graph::new();
        let mut h = enc.embedding.forward(&mut g, ps, input.species.clone());
        let mut x = g.input(input.coords_tensor());
        for layer in &enc.layers {
            (h, x) = if fused {
                layer.forward(&mut g, ps, input, h, x)
            } else {
                generic_forward(layer, &mut g, ps, input, h, x)
            };
        }
        let emb = g.segment_sum(h, input.graph_ids.clone(), input.num_graphs);
        let len = g.len();
        let emb_sum = g.sum_all(emb);
        let x_sum = g.sum_all(x);
        let loss = g.add(emb_sum, x_sum);
        g.backward(loss);
        let grads = g.param_grads().map(|(id, t)| (id, bits(t))).collect();
        (len, bits(g.value(emb)), bits(g.value(x)), grads)
    }

    /// The fused lowering reproduces the generic one bit for bit and
    /// records a shorter tape; returns the two tape lengths.
    fn assert_lowerings_bit_identical(input: &ModelInput, seed: u64) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let enc = EgnnEncoder::new(&mut ps, EgnnConfig::small(12), &mut rng);
        let (fused_len, fused_emb, fused_x, fused_grads) = lowered(&enc, &ps, input, true);
        let (generic_len, emb, x, grads) = lowered(&enc, &ps, input, false);
        assert_eq!(fused_emb, emb, "embedding bits diverged");
        assert_eq!(fused_x, x, "coordinate bits diverged");
        assert_eq!(fused_grads.len(), grads.len(), "gradient population diverged");
        for ((id, f), (gid, b)) in fused_grads.iter().zip(&grads) {
            assert_eq!(id, gid, "gradient population diverged");
            assert_eq!(f, b, "param {id} gradient bits diverged");
        }
        assert!(fused_len < generic_len, "fused tape {fused_len} vs generic {generic_len}");
        (fused_len, generic_len)
    }

    /// A helix point cloud with varied inter-atom distances.
    fn cloud(n: usize) -> (Vec<u32>, Vec<Vec3>) {
        let species = (0..n as u32).map(|i| i % 5).collect();
        let pts = (0..n)
            .map(|i| {
                let t = i as f32 * 1.3;
                Vec3::new(t.cos() * 1.2, t.sin() * 1.2, i as f32 * 0.4)
            })
            .collect();
        (species, pts)
    }

    fn batch(graphs: &[MaterialGraph]) -> ModelInput {
        ModelInput::from_batched(&BatchedGraph::from_graphs(graphs))
    }

    #[test]
    fn fused_matches_generic_on_odd_edge_count() {
        // Hand-built graph with an odd number of directed edges (7).
        let (species, pts) = cloud(5);
        let mut graph = MaterialGraph::new(species, pts);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 0)] {
            graph.add_edge(a, b);
        }
        let input = batch(&[graph]);
        assert_eq!(input.num_edges() % 2, 1, "edge count must be odd");
        assert_lowerings_bit_identical(&input, 21);
    }

    #[test]
    fn fused_matches_generic_on_zero_edge_graph() {
        // Atoms far beyond any cutoff: no edges, only node updates.
        let pts = vec![Vec3::zero(), Vec3::new(50.0, 0.0, 0.0), Vec3::new(0.0, 50.0, 0.0)];
        let input = batch(&[radius_graph(vec![1, 2, 3], pts, 2.5, None)]);
        assert_eq!(input.num_edges(), 0);
        assert_lowerings_bit_identical(&input, 22);
    }

    #[test]
    fn fused_matches_generic_on_capped_neighbor_graph() {
        let (species, pts) = cloud(12);
        let input = batch(&[radius_graph(species, pts, 4.0, Some(3))]);
        assert!(input.num_edges() > 0);
        assert_lowerings_bit_identical(&input, 23);
    }

    #[test]
    fn fused_matches_generic_on_multi_graph_batch() {
        // A connected graph batched with an isolated atom, so the fused
        // scatter sees rows with zero contributors.
        let (species, pts) = cloud(6);
        let connected = radius_graph(species, pts, 2.5, None);
        let isolated = MaterialGraph::new(vec![4], vec![Vec3::zero()]);
        assert_lowerings_bit_identical(&batch(&[connected, isolated]), 24);
    }

    #[test]
    fn fused_tape_is_at_least_nine_nodes_per_layer_shorter() {
        let (species, pts) = cloud(10);
        let input = batch(&[radius_graph(species, pts, 3.5, None)]);
        let (fused, generic) = assert_lowerings_bit_identical(&input, 26);
        assert!(
            fused + 9 * 3 <= generic,
            "fused tape {fused} vs generic {generic}: expected ≥ 9 fewer nodes per layer"
        );
    }
}
