//! Multilayer perceptrons and the paper's residual output-head blocks.

use matsciml_autograd::{Graph, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layers::{Activation, BatchNorm, ForwardCtx, Linear, NormKind, RmsNorm};
use crate::params::ParamSet;

/// A plain MLP: a chain of [`Linear`] layers with an activation between
/// them (none after the last). Used for the E(n)-GNN's φ functions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    /// Apply the activation after the final layer too (φ_e in the E(n)-GNN
    /// ends with a nonlinearity; regression heads must not).
    activate_last: bool,
}

impl Mlp {
    /// Build an MLP through the given widths, e.g. `[in, hidden, out]`.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        widths: &[usize],
        activation: Activation,
        activate_last: bool,
        rng: &mut R,
    ) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(ps, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            activation,
            activate_last,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Forward through all layers. Each `Linear → activation` pair is
    /// emitted as one fused dense node (see [`Linear::forward_act`]), so a
    /// φ-MLP's tape is one node per layer instead of three.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last || self.activate_last {
                self.activation
            } else {
                Activation::Identity
            };
            h = layer.forward_act(g, ps, h, act);
        }
        h
    }
}

/// One output-head block from the paper's Appendix A:
/// `Linear → activation → RMSNorm → Dropout`, added to its input
/// (residual). Width-preserving.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualBlock {
    linear: Linear,
    norm: BlockNorm,
    activation: Activation,
    dropout_p: f32,
}

/// The block's normalization layer (paper Appendix A compares the two).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum BlockNorm {
    Rms(RmsNorm),
    Batch(BatchNorm),
}

impl BlockNorm {
    fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        match self {
            BlockNorm::Rms(n) => n.forward(g, ps, x),
            BlockNorm::Batch(n) => n.forward(g, ps, x),
        }
    }
}

impl ResidualBlock {
    /// Register a width-`dim` residual block with RMSNorm (paper default).
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        activation: Activation,
        dropout_p: f32,
        rng: &mut R,
    ) -> Self {
        Self::with_norm(ps, name, dim, activation, dropout_p, NormKind::Rms, rng)
    }

    /// Register a block with an explicit normalization choice.
    pub fn with_norm<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        activation: Activation,
        dropout_p: f32,
        norm: NormKind,
        rng: &mut R,
    ) -> Self {
        // Registration order (linear before norm) is part of the
        // checkpoint layout — do not reorder.
        let linear = Linear::new(ps, &format!("{name}.lin"), dim, dim, rng);
        let norm = match norm {
            NormKind::Rms => BlockNorm::Rms(RmsNorm::new(ps, &format!("{name}.norm"), dim)),
            NormKind::Batch => BlockNorm::Batch(BatchNorm::new(ps, &format!("{name}.norm"), dim)),
        };
        ResidualBlock {
            linear,
            norm,
            activation,
            dropout_p,
        }
    }

    /// `x + Dropout(Norm(act(Linear(x))))`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, ctx: &mut ForwardCtx, x: Var) -> Var {
        let h = self.linear.forward_act(g, ps, x, self.activation);
        let h = self.norm.forward(g, ps, h);
        let h = g.dropout(h, self.dropout_p, ctx.training, &mut ctx.rng);
        g.add(x, h)
    }
}

/// A task output head: an input projection, a stack of [`ResidualBlock`]s,
/// and a final linear map to the target width.
///
/// Paper defaults (Appendix A): hidden 256, SELU, RMSNorm, dropout 0.2;
/// three blocks for single-task heads, six for the multi-task setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutputHead {
    input_proj: Option<Linear>,
    blocks: Vec<ResidualBlock>,
    output: Linear,
}

impl OutputHead {
    /// Register a head mapping `in_dim -> out_dim` through `n_blocks`
    /// residual blocks of width `hidden`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        n_blocks: usize,
        dropout_p: f32,
        rng: &mut R,
    ) -> Self {
        Self::with_norm(
            ps, name, in_dim, hidden, out_dim, n_blocks, dropout_p, NormKind::Rms, rng,
        )
    }

    /// Register a head with an explicit block-normalization choice
    /// (paper Appendix A norm comparison).
    #[allow(clippy::too_many_arguments)]
    pub fn with_norm<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        n_blocks: usize,
        dropout_p: f32,
        norm: NormKind,
        rng: &mut R,
    ) -> Self {
        let input_proj = (in_dim != hidden)
            .then(|| Linear::new(ps, &format!("{name}.proj"), in_dim, hidden, rng));
        let blocks = (0..n_blocks)
            .map(|i| {
                ResidualBlock::with_norm(
                    ps,
                    &format!("{name}.block{i}"),
                    hidden,
                    Activation::Selu,
                    dropout_p,
                    norm,
                    rng,
                )
            })
            .collect();
        let output = Linear::new(ps, &format!("{name}.out"), hidden, out_dim, rng);
        // Zero-init the final projection (residual-branch convention): the
        // head starts as the zero function, so untrained logits don't
        // inherit the scale of size-extensive sum-pooled embeddings and
        // classification CE starts at ln(classes).
        ps.value_mut(output.w).fill_inplace(0.0);
        OutputHead {
            input_proj,
            blocks,
            output,
        }
    }

    /// Forward `[batch, in_dim] -> [batch, out_dim]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, ctx: &mut ForwardCtx, x: Var) -> Var {
        let mut h = match &self.input_proj {
            Some(proj) => proj.forward(g, ps, x),
            None => x,
        };
        for block in &self.blocks {
            h = block.forward(g, ps, ctx, h);
        }
        self.output.forward(g, ps, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes_flow_through_widths() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(&mut ps, "m", &[6, 16, 3], Activation::Silu, false, &mut rng);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 3);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[5, 6], 0.0, 1.0, &mut rng));
        let y = mlp.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), &[5, 3]);
    }

    #[test]
    fn mlp_without_last_activation_can_be_negative() {
        // A SiLU-activated last layer could never output values < -0.28.
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(&mut ps, "m", &[4, 8, 1], Activation::Silu, false, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[64, 4], 0.0, 2.0, &mut rng));
        let y = mlp.forward(&mut g, &ps, x);
        assert!(g.value(y).min() < -0.3 || g.value(y).max() > 0.3);
    }

    #[test]
    fn fused_emission_shrinks_tape_and_matches_unfused() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(&mut ps, "m", &[6, 16, 16, 3], Activation::Silu, false, &mut rng);
        let input = Tensor::randn(&[10, 6], 0.0, 1.0, &mut rng);

        let run = |ps: &ParamSet| {
            let mut g = Graph::new();
            let x = g.input(input.clone());
            let y = mlp.forward(&mut g, ps, x);
            (g.len(), g.value(y).clone())
        };

        assert!(crate::layers::fused_linear(), "fused emission is the default");
        let (fused_len, fused_out) = run(&ps);
        crate::layers::set_fused_linear(false);
        let (plain_len, plain_out) = run(&ps);
        crate::layers::set_fused_linear(true);

        // 3 fused layers + input + 6 param leaves vs matmul/add_row/act
        // triples (last layer has no activation).
        assert!(
            fused_len + 5 <= plain_len,
            "fused tape ({fused_len}) should be well short of unfused ({plain_len})"
        );
        assert_eq!(fused_out, plain_out, "the two emissions must agree bit for bit");
    }

    #[test]
    fn residual_block_is_identity_plus_update() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let block = ResidualBlock::new(&mut ps, "b", 8, Activation::Selu, 0.0, &mut rng);
        // Zero the linear weight: then act(0)=0 (SELU), norm(0)=0, so the
        // block must be the identity.
        ps.value_mut(block.linear.w).fill_inplace(0.0);
        let mut g = Graph::new();
        let input = Tensor::randn(&[3, 8], 0.0, 1.0, &mut rng);
        let x = g.input(input.clone());
        let mut ctx = ForwardCtx::eval();
        let y = block.forward(&mut g, &ps, &mut ctx, x);
        for (a, b) in g.value(y).as_slice().iter().zip(input.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn output_head_projects_and_maps() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let head = OutputHead::new(&mut ps, "h", 32, 64, 1, 3, 0.2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[7, 32], 0.0, 1.0, &mut rng));
        let mut ctx = ForwardCtx::eval();
        let y = head.forward(&mut g, &ps, &mut ctx, x);
        assert_eq!(g.value(y).shape(), &[7, 1]);
    }

    #[test]
    fn dropout_changes_training_forward_but_not_eval() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let head = OutputHead::new(&mut ps, "h", 8, 8, 2, 2, 0.5, &mut rng);
        // The final projection is zero-initialized (output would be
        // identically zero); give it weight so dropout noise is visible.
        ps.value_mut(head.output.w).fill_inplace(0.3);
        let input = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);

        let run = |ctx: &mut ForwardCtx, ps: &ParamSet| {
            let mut g = Graph::new();
            let x = g.input(input.clone());
            let y = head.forward(&mut g, ps, ctx, x);
            g.value(y).clone()
        };

        let eval1 = run(&mut ForwardCtx::eval(), &ps);
        let eval2 = run(&mut ForwardCtx::eval(), &ps);
        assert_eq!(eval1, eval2, "eval must be deterministic");

        let train1 = run(&mut ForwardCtx::train(10), &ps);
        let train2 = run(&mut ForwardCtx::train(11), &ps);
        assert_ne!(train1, train2, "different dropout seeds must differ");
    }

    #[test]
    fn whole_head_trains_toward_target() {
        // Smoke test that gradients flow end to end: a few SGD steps must
        // reduce the loss on a fixed batch.
        let mut rng = StdRng::seed_from_u64(6);
        let mut ps = ParamSet::new();
        let head = OutputHead::new(&mut ps, "h", 4, 16, 1, 2, 0.0, &mut rng);
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut rng);
        let target = Tensor::randn(&[16, 1], 0.0, 1.0, &mut rng);

        let loss_of = |ps: &ParamSet| {
            let mut g = Graph::new();
            let input = g.input(x.clone());
            let mut ctx = ForwardCtx::eval();
            let y = head.forward(&mut g, ps, &mut ctx, input);
            let loss = g.mse_loss(y, &target, None);
            (g.value(loss).item(), g, loss)
        };

        let (initial, _, _) = loss_of(&ps);
        for _ in 0..50 {
            ps.zero_grads();
            let (_, mut g, loss) = loss_of(&ps);
            g.backward(loss);
            ps.absorb_grads(&g, 1.0);
            let lr = 0.05;
            for (v, grad) in ps.pairs_mut() {
                matsciml_tensor::kernels::axpy(v.as_mut_slice(), grad, -lr);
            }
        }
        let (fin, _, _) = loss_of(&ps);
        assert!(
            fin < initial * 0.5,
            "loss should halve under SGD: {initial} -> {fin}"
        );
    }
}
