//! AdamW: Adam with decoupled weight decay (Loshchilov & Hutter 2019).

use matsciml_nn::ParamSet;
use matsciml_tensor::{kernels, Tensor};
use serde::{Deserialize, Serialize};

use crate::InstabilityProbe;

/// Hyperparameters for [`AdamW`]. Defaults match the paper's Section 4.2:
/// β₁ = 0.9, β₂ = 0.999 ("default momentum values"), ε = 1e-8.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdamWConfig {
    /// Learning rate (mutable per step via [`AdamW::set_lr`]).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Division-by-zero guard. Molybog et al. identify gradients decaying
    /// to O(ε) as the trigger for Adam's large-batch instability; the
    /// ablation bench sweeps this knob.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
        }
    }
}

/// AdamW optimizer state over a [`ParamSet`].
#[derive(Debug, Clone)]
pub struct AdamW {
    cfg: AdamWConfig,
    /// First-moment estimates, one per parameter tensor.
    m: Vec<Tensor>,
    /// Second-moment estimates.
    v: Vec<Tensor>,
    /// Step counter for bias correction.
    t: u64,
}

/// A complete, owned snapshot of an [`AdamW`] instance — everything
/// needed to reconstruct the optimizer mid-run with bit-identical future
/// updates. This is the checkpointing surface: the `OPTADAMW` section
/// codec in `matsciml-train` encodes and decodes this struct, never the
/// optimizer's private fields.
#[derive(Debug, Clone)]
pub struct AdamWState {
    /// Hyperparameters at snapshot time (including the scheduler-mutated
    /// learning rate, which the trainer overwrites each step anyway).
    pub cfg: AdamWConfig,
    /// First-moment estimates, one per parameter tensor.
    pub m: Vec<Tensor>,
    /// Second-moment estimates, aligned with `m`.
    pub v: Vec<Tensor>,
    /// Completed update count (drives bias correction).
    pub t: u64,
}

impl AdamW {
    /// Initialize zero moment state matching the store's layout.
    pub fn new(params: &ParamSet, cfg: AdamWConfig) -> Self {
        let m = (0..params.len())
            .map(|i| Tensor::zeros(params.value(matsciml_nn::ParamId(i)).shape()))
            .collect::<Vec<_>>();
        let v = m.clone();
        AdamW { cfg, m, v, t: 0 }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Set the learning rate (called by the scheduler each step).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Step count so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the full optimizer state for checkpointing. Tensor clones
    /// are O(1) handle copies, so this is cheap to call mid-run.
    pub fn export_state(&self) -> AdamWState {
        AdamWState {
            cfg: self.cfg,
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
        }
    }

    /// Rebuild an optimizer from a snapshot. The next
    /// [`AdamW::step`] continues the bias-correction and moment
    /// trajectories exactly where the snapshotted instance would have.
    pub fn from_state(state: AdamWState) -> Self {
        assert_eq!(
            state.m.len(),
            state.v.len(),
            "AdamW state: m/v moment counts differ"
        );
        for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
            assert_eq!(
                m.shape(),
                v.shape(),
                "AdamW state: moment {i} has mismatched m/v shapes"
            );
        }
        AdamW {
            cfg: state.cfg,
            m: state.m,
            v: state.v,
            t: state.t,
        }
    }

    /// Apply one update from the gradients currently held in `params`.
    pub fn step(&mut self, params: &mut ParamSet) {
        self.sweep(params, None, None, true);
    }

    /// The training step's optimizer epilogue in one sweep over the
    /// gradient arena: `probe` observes `loss` and the gradient, the
    /// global gradient norm is taken, the gradient is clipped to
    /// `clip_norm`, and the update is applied unless `skip_nonfinite` is
    /// set and the norm is not finite. Returns the pre-clip norm and
    /// whether the update was applied.
    ///
    /// The result is bit-identical to `probe.observe`, then
    /// `params.clip_grad_norm` (or `grad_norm`), then [`AdamW::step`]: the
    /// sweep walks each parameter's span in
    /// [`SUMSQ_BLOCK`](kernels::SUMSQ_BLOCK)-scalar blocks, so the norm
    /// folds the same per-block partials in the same order, the probe's
    /// chains see the gradient in arena order, and clipping and AdamW are
    /// elementwise. Each block is read once while it is in cache. When
    /// the update depends on the norm (`clip_norm` or `skip_nonfinite`),
    /// the sweep is a norm and probe pass followed by a scale and update
    /// pass.
    pub fn step_observed(
        &mut self,
        params: &mut ParamSet,
        probe: &mut InstabilityProbe,
        loss: f32,
        clip_norm: Option<f32>,
        skip_nonfinite: bool,
    ) -> (f32, bool) {
        if clip_norm.is_none() && !skip_nonfinite {
            return (self.sweep(params, Some((probe, loss)), None, true), true);
        }
        let norm = self.sweep(params, Some((probe, loss)), None, false);
        let scale = clip_norm.filter(|&max| norm > max && norm > 0.0).map(|max| max / norm);
        let apply = !skip_nonfinite || norm.is_finite();
        if scale.is_some() || apply {
            self.sweep(params, None, scale, apply);
        }
        (norm, apply)
    }

    /// One pass over the gradient arena in `SUMSQ_BLOCK`-scalar blocks.
    /// With `probe`, each block feeds the probe and the norm, whose value
    /// is returned (0 without); then it is scaled by `scale`; then, with
    /// `update`, AdamW updates the matching values.
    fn sweep(
        &mut self,
        params: &mut ParamSet,
        mut probe: Option<(&mut InstabilityProbe, f32)>,
        scale: Option<f32>,
        update: bool,
    ) -> f32 {
        // Count the update and take its bias corrections.
        self.t += u64::from(update);
        let t = self.t as i32;
        let bc = (1.0 - self.cfg.beta1.powi(t), 1.0 - self.cfg.beta2.powi(t));
        let mut chains = probe.as_mut().map(|(p, _)| p.begin(params.num_scalars()));
        let mut sumsq = -0.0f64;
        for (i, (value, grad)) in params.pairs_mut().enumerate() {
            let mut span = -0.0f64;
            let p = if update { value.as_mut_slice() } else { &mut [] };
            for (b, g) in grad.chunks_mut(kernels::SUMSQ_BLOCK).enumerate() {
                if let (Some((probe, _)), Some(chains)) = (&probe, &mut chains) {
                    span += kernels::sumsq_partial(g);
                    probe.feed(chains, g);
                }
                if let Some(s) = scale {
                    kernels::scale(g, s);
                }
                if update {
                    self.update(i, p, g, b * kernels::SUMSQ_BLOCK, bc);
                }
            }
            sumsq += span;
        }
        if let (Some((probe, loss)), Some(chains)) = (probe, chains) {
            probe.finish(chains, loss);
        }
        sumsq.sqrt() as f32
    }

    /// The fused AdamW update of parameter `i`'s scalars `at..at +
    /// g.len()`: `value` is the whole tensor, `g` the matching gradient
    /// block.
    fn update(&mut self, i: usize, value: &mut [f32], g: &[f32], at: usize, bc: (f32, f32)) {
        let AdamWConfig { lr, beta1, beta2, eps, weight_decay } = self.cfg;
        let r = at..at + g.len();
        kernels::adamw_update(
            &mut value[r.clone()],
            &mut self.m[i].as_mut_slice()[r.clone()],
            &mut self.v[i].as_mut_slice()[r],
            g,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            bc.0,
            bc.1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_autograd::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Quadratic bowl: loss = mean((p - target)^2).
    fn quadratic_step(ps: &mut ParamSet, target: &Tensor) -> f32 {
        ps.zero_grads();
        let mut g = Graph::new();
        let p = ps.leaf(&mut g, matsciml_nn::ParamId(0));
        let loss = g.mse_loss(p, target, None);
        let val = g.value(loss).item();
        g.backward(loss);
        ps.absorb_grads(&g, 1.0);
        val
    }

    #[test]
    fn converges_on_quadratic() {
        let mut ps = ParamSet::new();
        ps.register("p", Tensor::from_vec(&[4], vec![5.0, -3.0, 2.0, 8.0]).unwrap());
        let target = Tensor::zeros(&[4]);
        let mut opt = AdamW::new(
            &ps,
            AdamWConfig {
                lr: 0.1,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let first = quadratic_step(&mut ps, &target);
        opt.step(&mut ps);
        for _ in 0..300 {
            quadratic_step(&mut ps, &target);
            opt.step(&mut ps);
        }
        let last = quadratic_step(&mut ps, &target);
        assert!(last < first * 1e-3, "AdamW failed to converge: {first} -> {last}");
    }

    #[test]
    fn first_step_moves_by_lr_regardless_of_gradient_scale() {
        // Adam's signature: the very first update is ~lr * sign(g).
        for scale in [1.0f32, 100.0] {
            let mut ps = ParamSet::new();
            ps.register("p", Tensor::from_vec(&[1], vec![0.0]).unwrap());
            let target = Tensor::from_vec(&[1], vec![-scale]).unwrap();
            let mut opt = AdamW::new(
                &ps,
                AdamWConfig {
                    lr: 0.01,
                    weight_decay: 0.0,
                    ..Default::default()
                },
            );
            quadratic_step(&mut ps, &target);
            opt.step(&mut ps);
            let moved = ps.value(matsciml_nn::ParamId(0)).item();
            assert!(
                (moved + 0.01).abs() < 1e-4,
                "scale {scale}: first step should be ≈ -lr, got {moved}"
            );
        }
    }

    #[test]
    fn weight_decay_is_decoupled_from_gradient() {
        // With zero gradient, AdamW must still shrink weights by lr*wd.
        let mut ps = ParamSet::new();
        ps.register("p", Tensor::from_vec(&[1], vec![1.0]).unwrap());
        let mut opt = AdamW::new(
            &ps,
            AdamWConfig {
                lr: 0.1,
                weight_decay: 0.5,
                ..Default::default()
            },
        );
        // Gradients are zero (freshly registered).
        opt.step(&mut ps);
        let v = ps.value(matsciml_nn::ParamId(0)).item();
        assert!((v - 0.95).abs() < 1e-6, "expected 1 - lr*wd = 0.95, got {v}");
    }

    #[test]
    fn set_lr_takes_effect_next_step() {
        let mut ps = ParamSet::new();
        ps.register("p", Tensor::from_vec(&[1], vec![1.0]).unwrap());
        let target = Tensor::zeros(&[1]);
        let mut opt = AdamW::new(
            &ps,
            AdamWConfig {
                lr: 0.0,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        quadratic_step(&mut ps, &target);
        opt.step(&mut ps);
        assert_eq!(ps.value(matsciml_nn::ParamId(0)).item(), 1.0, "lr=0 must not move");
        opt.set_lr(0.05);
        quadratic_step(&mut ps, &target);
        opt.step(&mut ps);
        assert!(ps.value(matsciml_nn::ParamId(0)).item() < 1.0);
    }

    #[test]
    fn step_observed_matches_the_separate_calls_bitwise() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cfg = AdamWConfig::default;
        // Spans longer than one 4096-scalar block, an empty span, a NaN
        // gradient at step 4, and every clip/skip mode.
        for (clip, skip) in [(None, false), (Some(20.0), false), (None, true), (Some(20.0), true)] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut a = ParamSet::new();
            for (i, n) in [5000usize, 3, 9000, 0, 17].into_iter().enumerate() {
                a.register(format!("p{i}"), Tensor::randn(&[n], 0.0, 1.0, &mut rng));
            }
            let mut b = a.clone();
            let (mut oa, mut ob) = (AdamW::new(&a, cfg()), AdamW::new(&b, cfg()));
            let (mut pa, mut pb) = (InstabilityProbe::new(4, 3.0), InstabilityProbe::new(4, 3.0));
            for step in 0..8 {
                for ps in [&mut a, &mut b] {
                    let mut g = ps.take_grads();
                    for (j, x) in g.iter_mut().enumerate() {
                        *x = ((j * 7919 + step * 104_729) % 1000) as f32 / 1000.0 - 0.5;
                    }
                    if step == 4 {
                        g[4100] = f32::NAN;
                    }
                    ps.restore_grads(g);
                }
                let loss = 1.0 + step as f32;
                let (norm, applied) = oa.step_observed(&mut a, &mut pa, loss, clip, skip);
                pb.observe(loss, &b);
                let want = match clip {
                    Some(max) => b.clip_grad_norm(max),
                    None => b.grad_norm(),
                };
                let want_applied = !skip || want.is_finite();
                if want_applied {
                    ob.step(&mut b);
                }
                let tag = format!("clip {clip:?} skip {skip} step {step}");
                assert_eq!((norm.to_bits(), applied), (want.to_bits(), want_applied), "{tag}");
                assert_eq!(bits(a.grads()), bits(b.grads()), "{tag}: gradients");
                for i in 0..a.len() {
                    let id = matsciml_nn::ParamId(i);
                    assert_eq!(bits(a.value(id).as_slice()), bits(b.value(id).as_slice()), "{tag}");
                }
                assert_eq!(bits(&pa.grad_norms), bits(&pb.grad_norms), "{tag}: probe norms");
                assert_eq!(
                    bits(&pa.grad_time_correlation),
                    bits(&pb.grad_time_correlation),
                    "{tag}: probe correlation"
                );
                assert_eq!(oa.steps(), ob.steps(), "{tag}");
            }
        }
    }

    #[test]
    fn trains_a_small_network_better_than_chance() {
        // End-to-end: AdamW on a 2-layer net fits y = x1 - x2.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let lin = matsciml_nn::Linear::new(&mut ps, "l", 2, 1, &mut rng);
        let x = Tensor::randn(&[32, 2], 0.0, 1.0, &mut rng);
        let target = Tensor::from_fn(&[32, 1], |i| x.at2(i, 0) - x.at2(i, 1));
        let mut opt = AdamW::new(
            &ps,
            AdamWConfig {
                lr: 0.05,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            ps.zero_grads();
            let mut g = Graph::new();
            let input = g.input(x.clone());
            let y = lin.forward(&mut g, &ps, input);
            let loss = g.mse_loss(y, &target, None);
            last = g.value(loss).item();
            g.backward(loss);
            ps.absorb_grads(&g, 1.0);
            opt.step(&mut ps);
        }
        assert!(last < 1e-3, "final loss {last}");
    }
}
