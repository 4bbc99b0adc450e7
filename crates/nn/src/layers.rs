//! Primitive layers: [`Linear`], [`RmsNorm`], activations, and the
//! per-forward context.

use matsciml_autograd::{Graph, Var};
use matsciml_tensor::{Act, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::params::{ParamId, ParamSet};

/// Per-forward-pass context: training/eval mode and the RNG that feeds
/// stochastic layers (dropout). One per rank per step; seeding it from
/// `(global_seed, rank, step)` keeps DDP runs reproducible.
pub struct ForwardCtx {
    /// True during training (enables dropout).
    pub training: bool,
    /// RNG for stochastic layers.
    pub rng: StdRng,
}

impl ForwardCtx {
    /// Training-mode context with the given seed.
    pub fn train(seed: u64) -> Self {
        ForwardCtx {
            training: true,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Evaluation-mode context (dropout disabled; RNG still available).
    pub fn eval() -> Self {
        ForwardCtx {
            training: false,
            rng: StdRng::seed_from_u64(0),
        }
    }
}

/// Supported nonlinearities. The paper uses SiLU inside the E(n)-GNN
/// encoder and SELU inside output heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `x * sigmoid(x)`.
    Silu,
    /// Self-normalizing ELU (Klambauer et al. 2017).
    Selu,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    /// The scalar kernel used when this activation runs inside a fused
    /// dense layer.
    pub fn kernel(self) -> Act {
        match self {
            Activation::Silu => Act::Silu,
            Activation::Selu => Act::Selu,
            Activation::Relu => Act::Relu,
            Activation::Tanh => Act::Tanh,
            Activation::Sigmoid => Act::Sigmoid,
            Activation::Identity => Act::Identity,
        }
    }
}

/// A fully-connected layer `y = x W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight parameter, shape `[in_dim, out_dim]`.
    pub w: ParamId,
    /// Optional bias parameter, shape `[out_dim]`.
    pub b: Option<ParamId>,
    /// Input feature width.
    pub in_dim: usize,
    /// Output feature width.
    pub out_dim: usize,
}

impl Linear {
    /// Register a Kaiming-initialized linear layer with bias.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = ps.register(format!("{name}.w"), Tensor::kaiming(in_dim, out_dim, rng));
        let b = ps.register(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Linear {
            w,
            b: Some(b),
            in_dim,
            out_dim,
        }
    }

    /// Register a bias-free linear layer.
    pub fn new_no_bias<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = ps.register(format!("{name}.w"), Tensor::kaiming(in_dim, out_dim, rng));
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// `x [batch, in_dim] -> [batch, out_dim]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        self.forward_act(g, ps, x, Activation::Identity)
    }

    /// `act(x W + b)` as one fused `Linear` tape node: the matmul, bias
    /// row and activation in one sweep.
    pub fn forward_act(&self, g: &mut Graph, ps: &ParamSet, x: Var, act: Activation) -> Var {
        let w = ps.leaf(g, self.w);
        let bias = self.b.map(|b| ps.leaf(g, b));
        g.linear(x, w, bias, act.kernel())
    }
}

/// Root-mean-square layer normalization with a learnable gain
/// (Zhang & Sennrich 2019). The paper chose RMSNorm over BatchNorm for its
/// robustness to the irregular batches of multi-task multi-dataset runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RmsNorm {
    /// Learnable per-feature gain, shape `[dim]`.
    pub gain: ParamId,
    /// Numerical-stability epsilon added to the mean square.
    pub eps: f32,
}

impl RmsNorm {
    /// Register an RMSNorm with unit gain.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gain = ps.register(format!("{name}.gain"), Tensor::ones(&[dim]));
        RmsNorm { gain, eps: 1e-6 }
    }

    /// Normalize rows and apply the gain.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let normed = g.rms_norm(x, self.eps);
        let gain = ps.leaf(g, self.gain);
        g.mul_row(normed, gain)
    }
}

/// Per-feature batch normalization with learnable gain, using batch
/// statistics (see `Graph::batch_norm`). Included for the paper's
/// Appendix A norm comparison: with the irregular batches of multi-task
/// multi-dataset training, batch statistics fluctuate with batch
/// composition — the failure mode that led the authors to RMSNorm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm {
    /// Learnable per-feature gain, shape `[dim]`.
    pub gain: ParamId,
    /// Learnable per-feature shift, shape `[dim]`.
    pub bias: ParamId,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNorm {
    /// Register a BatchNorm with unit gain and zero shift.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gain = ps.register(format!("{name}.gain"), Tensor::ones(&[dim]));
        let bias = ps.register(format!("{name}.bias"), Tensor::zeros(&[dim]));
        BatchNorm { gain, bias, eps: 1e-5 }
    }

    /// Normalize columns by batch statistics and apply γ/β.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let normed = g.batch_norm(x, self.eps);
        let gain = ps.leaf(g, self.gain);
        let scaled = g.mul_row(normed, gain);
        let bias = ps.leaf(g, self.bias);
        g.add_row(scaled, bias)
    }
}

/// Which normalization a residual block applies (paper Appendix A
/// compares these in the multi-task setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NormKind {
    /// RMSNorm — the paper's choice.
    Rms,
    /// BatchNorm with batch statistics — the unreliable-under-irregular-
    /// batches alternative.
    Batch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_autograd::gradcheck::assert_gradients_close;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 5, &mut rng);
        // Set bias to a known value to verify it lands on every row.
        ps.value_mut(lin.b.unwrap()).fill_inplace(0.25);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[4, 3]));
        let y = lin.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), &[4, 5]);
        assert!(g.value(y).as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn linear_gradcheck_through_store() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, &mut rng);
        let x = Tensor::randn(&[5, 3], 0.0, 1.0, &mut rng);
        let target = Tensor::randn(&[5, 2], 0.0, 1.0, &mut rng);
        let params = vec![ps.value(lin.w).clone(), ps.value(lin.b.unwrap()).clone()];
        assert_gradients_close(&params, 1e-2, 2e-2, move |g, p| {
            let input = g.input(x.clone());
            let w = g.param(0, p[0].clone());
            let b = g.param(1, p[1].clone());
            let y = g.matmul(input, w);
            let y = g.add_row(y, b);
            g.mse_loss(y, &target, None)
        });
    }

    #[test]
    fn rmsnorm_rows_have_unit_rms_with_unit_gain() {
        let mut ps = ParamSet::new();
        let norm = RmsNorm::new(&mut ps, "n", 8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[4, 8], 2.0, 3.0, &mut rng));
        let y = norm.forward(&mut g, &ps, x);
        let out = g.value(y);
        for r in 0..4 {
            let rms = (out.row(r).iter().map(|&v| (v as f64).powi(2)).sum::<f64>() / 8.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3, "row {r} rms = {rms}");
        }
    }

    #[test]
    fn activations_match_reference_points() {
        let at = |act: Activation, x: f32| act.kernel().eval(x);
        assert!((at(Activation::Silu, -1.0) + 0.26894).abs() < 1e-4);
        assert_eq!(at(Activation::Silu, 0.0), 0.0);
        assert!((at(Activation::Silu, 1.0) - 0.73106).abs() < 1e-4);

        // SELU(1) = 1.0507, SELU(-1) = 1.0507*1.6733*(e^-1 - 1) = -1.1113
        assert!((at(Activation::Selu, 1.0) - 1.0507).abs() < 1e-3);
        assert!((at(Activation::Selu, -1.0) + 1.1113).abs() < 1e-3);

        assert_eq!(at(Activation::Identity, -1.0), -1.0);
    }

    #[test]
    fn forward_ctx_modes() {
        let t = ForwardCtx::train(1);
        assert!(t.training);
        let e = ForwardCtx::eval();
        assert!(!e.training);
    }
}
