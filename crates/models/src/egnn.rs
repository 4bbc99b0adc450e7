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
use matsciml_nn::{fused_edges, Activation, Embedding, ForwardCtx, Mlp, ParamSet};
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

        if fused_edges() {
            // Fused edge pipeline: the same math in one sweep per stage —
            // rel in one node instead of gather×2+sub, the φ_e input in
            // one node instead of gather×2+mul+row_sum+concat, and the
            // coordinate update in one node instead of
            // mul_col+scatter+mul_col. Bit-identical to the generic
            // lowering below (asserted by tests/fused_edges.rs).
            let rel = g.edge_rel(x, input.src.clone(), input.dst.clone());
            let msg_in = g.edge_concat(h, Some(rel), input.src.clone(), input.dst.clone());
            let m = self.phi_e.forward(g, ps, msg_in);

            let w_raw = self.phi_x.forward(g, ps, m);
            let w = g.tanh(w_raw);
            let agg_x = g.weighted_scatter(
                rel,
                w,
                input.src.clone(),
                n,
                Some(input.inv_degree.clone()),
            );
            let x_new = g.add(x, agg_x);

            let agg_m = g.scatter_add_rows(m, input.src.clone(), n);
            let upd_in = g.concat_cols(&[h, agg_m]);
            let dh = self.phi_h.forward(g, ps, upd_in);
            let h_new = g.add(h, dh);
            return (h_new, x_new);
        }

        let hi = g.gather_rows(h, input.src.clone());
        let hj = g.gather_rows(h, input.dst.clone());
        let xi = g.gather_rows(x, input.src.clone());
        let xj = g.gather_rows(x, input.dst.clone());
        let rel = g.sub(xi, xj);
        let relsq = g.mul(rel, rel);
        let d2 = g.row_sum(relsq);

        // m_ij = φ_e(h_i ‖ h_j ‖ d²)
        let msg_in = g.concat_cols(&[hi, hj, d2]);
        let m = self.phi_e.forward(g, ps, msg_in);

        // x_i' = x_i + C Σ_j (x_i − x_j) tanh(φ_x(m_ij))
        let w_raw = self.phi_x.forward(g, ps, m);
        let w = g.tanh(w_raw);
        let moved = g.mul_col(rel, w);
        let agg_x = g.scatter_add_rows(moved, input.src.clone(), n);
        let inv_deg = g.input(input.inv_degree.clone());
        let agg_x = g.mul_col(agg_x, inv_deg);
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
        let x0 = g.input(input.coords.clone());
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
    use matsciml_graph::{radius_graph, BatchedGraph};
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

        // Both lowerings: the generic composition, then the fused default
        // (left on afterwards). The two are bit-exact, so flipping the
        // process-wide switch cannot change another test's results.
        for fused in [false, true] {
            matsciml_nn::set_fused_edges(fused);
            let alone = embed(std::slice::from_ref(&edge_free));
            let batched = embed(&[edge_free.clone(), connected.clone()]);
            assert_eq!(alone, batched[..alone.len()], "fused = {fused}");
            // The node update ran: the readout is not the raw embedding sum.
            let table = ps.value(enc.embedding.table);
            let raw: Vec<u32> = table
                .row(2)
                .iter()
                .zip(table.row(3))
                .map(|(a, b)| (a + b).to_bits())
                .collect();
            assert_ne!(alone, raw, "fused = {fused}");
        }
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
}
