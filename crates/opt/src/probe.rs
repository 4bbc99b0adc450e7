//! Training-stability diagnostics.
//!
//! Molybog et al. ("A Theory on Adam Instability in Large-Scale Machine
//! Learning", 2023) tie Adam's large-batch loss spikes to (a) gradient
//! norms decaying toward the optimizer's ε and (b) violated Markovian
//! (time-uncorrelated) update dynamics. The [`InstabilityProbe`] records
//! exactly those observables — gradient norms, the cosine time-correlation
//! of consecutive gradients, and loss-spike events — so the Fig. 3 / Fig. 6
//! reproductions can report *why* a configuration destabilized, not just
//! that it did.

use matsciml_nn::ParamSet;
use serde::{Deserialize, Serialize};

/// A detected loss spike.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpikeEvent {
    /// Optimizer step at which the spike was observed.
    pub step: u64,
    /// The spiking loss value.
    pub loss: f32,
    /// The running median it was compared against.
    pub baseline: f32,
}

/// One step's running probe state: the gradient copied so far and the
/// two `f64` chains over it.
pub(crate) struct ProbeChains {
    flat: Vec<f32>,
    paired: bool,
    sumsq: f64,
    dot: f64,
}

/// Rolling recorder of gradient norms, gradient time-correlation, and loss
/// spikes.
#[derive(Debug, Clone)]
pub struct InstabilityProbe {
    window: usize,
    spike_factor: f32,
    recent_losses: Vec<f32>,
    /// The previous step's flattened gradient (empty before the first
    /// step) and its L2 norm.
    prev_grad: Vec<f32>,
    prev_norm: Option<f64>,
    /// The gradient buffer retired two steps ago, refilled in place so a
    /// steady run allocates nothing per step.
    spare: Vec<f32>,
    /// Per-step gradient L2 norms.
    pub grad_norms: Vec<f32>,
    /// Per-step cosine similarity between consecutive gradient directions
    /// (first entry is 0). Sustained positive values indicate the
    /// non-Markovian regime Molybog et al. associate with divergence.
    pub grad_time_correlation: Vec<f32>,
    /// Detected spikes.
    pub spikes: Vec<SpikeEvent>,
    step: u64,
}

impl InstabilityProbe {
    /// A probe using a rolling window of `window` losses and flagging a
    /// spike when loss exceeds `spike_factor ×` the window median.
    pub fn new(window: usize, spike_factor: f32) -> Self {
        InstabilityProbe {
            window: window.max(2),
            spike_factor,
            recent_losses: Vec::new(),
            prev_grad: Vec::new(),
            prev_norm: None,
            spare: Vec::new(),
            grad_norms: Vec::new(),
            grad_time_correlation: Vec::new(),
            spikes: Vec::new(),
            step: 0,
        }
    }

    /// Record one optimizer step: the loss value and the gradients
    /// currently held in `params`.
    ///
    /// One pass over the gradient arena copies it into the probe's buffer
    /// and runs the norm and the dot product with the previous step as two
    /// sequential `f64` chains seeded at `-0.0` (the order `Sum<f64>`
    /// uses); the previous norm is carried over rather than recomputed
    /// from the same data, so the recorded series are bit-identical to
    /// three separate sums. [`crate::AdamW::step_observed`] feeds the same
    /// chains block by block from inside its sweep.
    pub fn observe(&mut self, loss: f32, params: &ParamSet) {
        let mut chains = self.begin(params.grads().len());
        self.feed(&mut chains, params.grads());
        self.finish(chains, loss);
    }

    /// Start observing a gradient of `len` scalars.
    pub(crate) fn begin(&mut self, len: usize) -> ProbeChains {
        let mut flat = std::mem::take(&mut self.spare);
        flat.clear();
        let paired = self.prev_norm.is_some() && self.prev_grad.len() == len;
        ProbeChains { flat, paired, sumsq: -0.0, dot: -0.0 }
    }

    /// Copy the gradient's next block into the step's buffer and extend
    /// both chains over it.
    pub(crate) fn feed(&self, c: &mut ProbeChains, g: &[f32]) {
        let at = c.flat.len();
        c.flat.extend_from_slice(g);
        if c.paired {
            for (&x, &p) in g.iter().zip(&self.prev_grad[at..]) {
                let v = x as f64;
                c.sumsq += v * v;
                c.dot += (p as f64) * v;
            }
        } else {
            for &x in g {
                let v = x as f64;
                c.sumsq += v * v;
            }
        }
    }

    /// Close the step: record its norm, correlation and any loss spike.
    pub(crate) fn finish(&mut self, c: ProbeChains, loss: f32) {
        let ProbeChains { flat, paired, sumsq, dot } = c;
        let norm = sumsq.sqrt();
        self.grad_norms.push(norm as f32);

        let corr = match self.prev_norm {
            Some(pn) if paired && pn > 0.0 && norm > 0.0 => (dot / (pn * norm)) as f32,
            _ => 0.0,
        };
        self.grad_time_correlation.push(corr);
        self.spare = std::mem::replace(&mut self.prev_grad, flat);
        self.prev_norm = Some(norm);

        // Spike detection against the rolling median.
        if self.recent_losses.len() >= self.window {
            let mut sorted = self.recent_losses.clone();
            sorted.sort_by(f32::total_cmp);
            let median = sorted[sorted.len() / 2];
            if loss.is_finite() && median > 0.0 && loss > self.spike_factor * median {
                self.spikes.push(SpikeEvent {
                    step: self.step,
                    loss,
                    baseline: median,
                });
            }
            if !loss.is_finite() {
                self.spikes.push(SpikeEvent {
                    step: self.step,
                    loss,
                    baseline: median,
                });
            }
        }
        self.recent_losses.push(loss);
        if self.recent_losses.len() > self.window {
            self.recent_losses.remove(0);
        }
        self.step += 1;
    }

    /// Number of spike events so far.
    pub fn spike_count(&self) -> usize {
        self.spikes.len()
    }

    /// Mean gradient time-correlation over the recorded run (excluding the
    /// seed entry).
    pub fn mean_time_correlation(&self) -> f32 {
        if self.grad_time_correlation.len() <= 1 {
            return 0.0;
        }
        let tail = &self.grad_time_correlation[1..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }

    /// Fraction of recorded steps whose gradient norm is below `threshold`
    /// (the "gradients at the order of ε" symptom).
    pub fn fraction_below(&self, threshold: f32) -> f32 {
        if self.grad_norms.is_empty() {
            return 0.0;
        }
        self.grad_norms.iter().filter(|&&n| n < threshold).count() as f32
            / self.grad_norms.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_autograd::Graph;
    use matsciml_nn::ParamId;
    use matsciml_tensor::Tensor;

    fn store_with_grad(grad: &[f32]) -> ParamSet {
        store_with_grads(&[grad])
    }

    /// One parameter per slice, whose gradient is that slice.
    fn store_with_grads(grads: &[&[f32]]) -> ParamSet {
        let mut ps = ParamSet::new();
        for (i, grad) in grads.iter().enumerate() {
            ps.register(format!("p{i}"), Tensor::zeros(&[grad.len()]));
        }
        // Drive the gradient accumulator through a tape so we exercise the
        // real path: loss = Σ sum(p_i * g_i).
        let mut g = Graph::new();
        let mut loss = None;
        for (i, grad) in grads.iter().enumerate() {
            let p = ps.leaf(&mut g, ParamId(i));
            let weights = g.input(Tensor::from_vec(&[grad.len()], grad.to_vec()).unwrap());
            let prod = g.mul(p, weights);
            let term = g.sum_all(prod);
            loss = Some(match loss {
                Some(acc) => g.add(acc, term),
                None => term,
            });
        }
        g.backward(loss.expect("at least one parameter"));
        ps.absorb_grads(&g, 1.0);
        ps
    }

    #[test]
    fn records_norms_and_correlation() {
        let mut probe = InstabilityProbe::new(4, 3.0);
        let a = store_with_grad(&[1.0, 0.0]);
        let b = store_with_grad(&[0.0, 1.0]);
        probe.observe(1.0, &a);
        probe.observe(1.0, &b);
        probe.observe(1.0, &b);
        assert!((probe.grad_norms[0] - 1.0).abs() < 1e-6);
        assert_eq!(probe.grad_time_correlation[0], 0.0);
        // Orthogonal then identical gradients.
        assert!(probe.grad_time_correlation[1].abs() < 1e-6);
        assert!((probe.grad_time_correlation[2] - 1.0).abs() < 1e-6);
        assert!((probe.mean_time_correlation() - 0.5).abs() < 1e-6);
    }

    /// The three-pass formulas the one-pass `observe` replaced: the
    /// norm, the dot product and the previous norm as separate
    /// `Sum<f64>` chains.
    fn three_pass(prev: Option<&[f32]>, flat: &[f32]) -> (f32, f32) {
        let norm = flat
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt();
        let corr = match prev {
            Some(prev) if prev.len() == flat.len() => {
                let dot: f64 = prev
                    .iter()
                    .zip(flat)
                    .map(|(&a, &b)| (a as f64) * (b as f64))
                    .sum();
                let pn = prev
                    .iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum::<f64>()
                    .sqrt();
                if pn > 0.0 && norm > 0.0 {
                    (dot / (pn * norm)) as f32
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };
        (norm as f32, corr)
    }

    #[test]
    fn one_pass_observe_matches_three_pass_formulas_bitwise() {
        // Deterministic gradients with awkward magnitudes; the layout
        // grows at step 4 and shrinks at step 6, and step 7 is all zero.
        let grad = |step: u32, len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let x = (i as u32)
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(step * 40_503);
                    ((x >> 9) as f32 / (1u32 << 23) as f32 - 0.5) * 10f32.powi((i % 7) as i32 - 3)
                })
                .collect()
        };
        let lens = [37usize, 37, 37, 37, 53, 53, 37, 37, 37];
        let mut probe = InstabilityProbe::new(4, 3.0);
        let mut prev: Option<Vec<f32>> = None;
        for (step, &len) in lens.iter().enumerate() {
            let g = if step == 7 {
                vec![0.0; len]
            } else {
                grad(step as u32, len)
            };
            // Three tensors, so the chains run across tensor boundaries.
            let (head, rest) = g.split_at(len / 3);
            let (mid, tail) = rest.split_at(len / 3);
            probe.observe(1.0, &store_with_grads(&[head, mid, tail]));
            let (norm, corr) = three_pass(prev.as_deref(), &g);
            assert_eq!(
                probe.grad_norms[step].to_bits(),
                norm.to_bits(),
                "norm, step {step}"
            );
            assert_eq!(
                probe.grad_time_correlation[step].to_bits(),
                corr.to_bits(),
                "correlation, step {step}"
            );
            prev = Some(g);
        }
        // Paired steps really produced non-trivial correlations.
        assert!(probe.grad_time_correlation[1..4].iter().all(|c| *c != 0.0));
        assert_eq!(probe.grad_time_correlation[4], 0.0, "layout change");
    }

    #[test]
    fn flags_spikes_against_rolling_median() {
        let mut probe = InstabilityProbe::new(3, 2.0);
        let ps = store_with_grad(&[1.0]);
        for _ in 0..5 {
            probe.observe(1.0, &ps);
        }
        assert_eq!(probe.spike_count(), 0);
        probe.observe(5.0, &ps); // 5 > 2 * median(1.0)
        assert_eq!(probe.spike_count(), 1);
        assert_eq!(probe.spikes[0].loss, 5.0);
    }

    #[test]
    fn non_finite_loss_counts_as_spike() {
        let mut probe = InstabilityProbe::new(2, 10.0);
        let ps = store_with_grad(&[1.0]);
        probe.observe(1.0, &ps);
        probe.observe(1.0, &ps);
        probe.observe(f32::NAN, &ps);
        assert_eq!(probe.spike_count(), 1);
    }

    #[test]
    fn fraction_below_threshold() {
        let mut probe = InstabilityProbe::new(4, 3.0);
        probe.observe(1.0, &store_with_grad(&[10.0]));
        probe.observe(1.0, &store_with_grad(&[0.001]));
        probe.observe(1.0, &store_with_grad(&[0.002]));
        assert!((probe.fraction_below(0.01) - 2.0 / 3.0).abs() < 1e-6);
    }
}
