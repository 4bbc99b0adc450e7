//! Plain SGD with momentum — the non-adaptive baseline for the Adam
//! instability ablation.

use matsciml_nn::ParamSet;
use matsciml_tensor::Tensor;

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Initialize zero velocity matching the store's layout.
    pub fn new(params: &ParamSet, lr: f32, momentum: f32) -> Self {
        let velocity = (0..params.len())
            .map(|i| Tensor::zeros(params.value(matsciml_nn::ParamId(i)).shape()))
            .collect();
        Sgd {
            lr,
            momentum,
            velocity,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Set the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update: `v ← μv + g; p ← p − lr·v`.
    pub fn step(&mut self, params: &mut ParamSet) {
        let (lr, mu) = (self.lr, self.momentum);
        for (i, (value, grad)) in params.pairs_mut().enumerate() {
            let v = self.velocity[i].as_mut_slice();
            let p = value.as_mut_slice();
            for j in 0..p.len() {
                v[j] = mu * v[j] + grad[j];
                p[j] -= lr * v[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_autograd::Graph;
    use matsciml_nn::ParamId;

    fn quadratic_step(ps: &mut ParamSet, target: &Tensor) -> f32 {
        ps.zero_grads();
        let mut g = Graph::new();
        let p = ps.leaf(&mut g, ParamId(0));
        let loss = g.mse_loss(p, target, None);
        let val = g.value(loss).item();
        g.backward(loss);
        ps.absorb_grads(&g, 1.0);
        val
    }

    #[test]
    fn converges_on_quadratic() {
        let mut ps = ParamSet::new();
        ps.register("p", Tensor::from_vec(&[3], vec![4.0, -2.0, 1.0]).unwrap());
        let target = Tensor::zeros(&[3]);
        let mut opt = Sgd::new(&ps, 0.1, 0.9);
        let first = quadratic_step(&mut ps, &target);
        opt.step(&mut ps);
        for _ in 0..200 {
            quadratic_step(&mut ps, &target);
            opt.step(&mut ps);
        }
        let last = quadratic_step(&mut ps, &target);
        assert!(last < first * 1e-4, "{first} -> {last}");
    }

    #[test]
    fn without_momentum_matches_hand_computed_update() {
        let mut ps = ParamSet::new();
        ps.register("p", Tensor::from_vec(&[1], vec![2.0]).unwrap());
        let target = Tensor::zeros(&[1]);
        let mut opt = Sgd::new(&ps, 0.25, 0.0);
        quadratic_step(&mut ps, &target); // grad = 2*(2-0) = 4
        opt.step(&mut ps);
        let v = ps.value(ParamId(0)).item();
        assert!((v - 1.0).abs() < 1e-6, "2 - 0.25*4 = 1, got {v}");
    }

    #[test]
    fn momentum_accelerates_along_persistent_gradient() {
        // With a constant gradient, two momentum steps move farther than
        // two plain steps.
        let run = |mu: f32| {
            let mut ps = ParamSet::new();
            ps.register("p", Tensor::from_vec(&[1], vec![0.0]).unwrap());
            let mut opt = Sgd::new(&ps, 0.1, mu);
            for _ in 0..2 {
                ps.zero_grads();
                let mut g = Graph::new();
                let p = ps.leaf(&mut g, ParamId(0));
                let lin = g.scale(p, 1.0);
                let loss = g.sum_all(lin); // d/dp = 1 always
                g.backward(loss);
                ps.absorb_grads(&g, 1.0);
                opt.step(&mut ps);
            }
            ps.value(ParamId(0)).item()
        };
        assert!(run(0.9) < run(0.0), "momentum should have moved farther downhill");
    }
}
