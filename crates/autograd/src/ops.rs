//! Forward builders: each method computes the op's value eagerly and records
//! it (plus any cached state the adjoint needs) on the tape.

use std::sync::Arc;

use matsciml_tensor::{edge, fused, Act, Tensor};
use rand::Rng;

use crate::graph::{Graph, Op, Var};

// The activation scalar formulas live in `matsciml_tensor::fused`, and
// their `exp` is `matsciml_tensor::expf`, so the fused kernels and the
// op-by-op forward ops and VJPs here share one source and stay
// bit-identical.
pub(crate) use matsciml_tensor::expf;
pub(crate) use matsciml_tensor::fused::{sigmoid, SELU_ALPHA, SELU_SCALE};

impl Graph {
    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product. `a` and `b` may be the same variable (squaring).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).neg();
        self.push(v, Op::Neg(a))
    }

    /// Multiply by a constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Matrix product `[m,k] @ [k,n]`, at the tape's precision: the
    /// [`Act::Identity`] forward of [`fused::linear`], bit-identical to
    /// [`Tensor::matmul`] at [`Precision::F32`](matsciml_tensor::Precision::F32).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (v, _) = fused::linear(self.value(a), self.value(b), None, Act::Identity, self.precision, None);
        self.push(v, Op::Matmul(a, b))
    }

    /// Fused dense layer `act(x @ w + b)` as a single tape node.
    ///
    /// Bit-identical to composing [`Graph::matmul`], [`Graph::add_row`],
    /// and the activation builder, but records one node instead of three
    /// and backpropagates with one VJP (the register-blocked kernels in
    /// [`matsciml_tensor::fused`] preserve the unfused accumulation order
    /// exactly). The forward sweep also writes the activation derivative
    /// `act'(z)` over the pre-activation's buffer and the node caches it,
    /// so the backward pass multiplies instead of re-evaluating the
    /// activation; [`Act::Identity`] caches nothing. The gemm runs at
    /// the tape's precision ([`Graph::set_precision`]).
    ///
    /// When `x` is an [`Graph::edge_concat`] node, whose rows begin with
    /// `h[src[e]]`, and [`fused::source_split_pays`] for its shape, the
    /// forward hands [`fused::linear`] that source half, so the
    /// `h[src] · w` part of every row is computed once per node and
    /// gathered (same bits). The rule weighs the saved multiply-adds
    /// against the gather, so it needs more edges per node at small
    /// widths: at the benchmark's ≈ 3.6 edges per node the layer measured
    /// 0.97× the unsplit one at hidden 16, 0.79× at 64 and 0.71× at 256.
    /// The tape records the same node either way, and the backward does
    /// not change.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>, act: Act) -> Var {
        let (y, dact) = {
            let vx = self.value(x);
            let vw = self.value(w);
            let vb = b.map(|bv| self.value(bv));
            let source = match &self.nodes[x.0].op {
                Op::EdgeConcat { h, src, .. } => {
                    let h = self.value(*h);
                    fused::source_split_pays(h.rows(), src.len(), h.cols()).then_some((h, src.as_slice()))
                }
                _ => None,
            };
            fused::linear(vx, vw, vb, act, self.precision, source)
        };
        self.push(y, Op::Linear { x, w, b, dact })
    }

    /// Add a `[n]` bias row-broadcast over `[m,n]`.
    pub fn add_row(&mut self, x: Var, bias: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddRow(x, bias))
    }

    /// Multiply by a `[n]` gain row-broadcast over `[m,n]`.
    pub fn mul_row(&mut self, x: Var, gain: Var) -> Var {
        let v = self.value(x).mul_row_broadcast(self.value(gain));
        self.push(v, Op::MulRow(x, gain))
    }

    /// Multiply `[m,n]` by a `[m]`/`[m,1]` column broadcast across columns.
    pub fn mul_col(&mut self, x: Var, col: Var) -> Var {
        let v = self.value(x).mul_col_broadcast(self.value(col));
        self.push(v, Op::MulCol(x, col))
    }

    /// Multiply every element of `x` by a *learnable* scalar `s` (a
    /// 1-element variable). Unlike [`Graph::scale`], gradient flows into
    /// the scalar too — used for the force-field output gain, where a
    /// per-axis gain would break equivariance.
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        assert_eq!(self.value(s).numel(), 1, "mul_scalar_var needs a 1-element scalar");
        let sv = self.value(s).item();
        let v = self.value(x).scale(sv);
        self.push(v, Op::MulScalarVar(x, s))
    }

    /// SiLU (a.k.a. swish): `x * sigmoid(x)`.
    pub fn silu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|a| a * sigmoid(a));
        self.push(v, Op::Silu(x))
    }

    /// Elementwise square root. Inputs must be strictly positive (guard
    /// with [`Graph::clamp`]): the derivative 1/(2√x) diverges at zero.
    pub fn sqrt(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f32::sqrt);
        debug_assert!(v.all_finite(), "sqrt of negative input");
        self.push(v, Op::Sqrt(x))
    }

    /// SELU (Klambauer et al. 2017).
    pub fn selu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|a| {
            if a > 0.0 {
                SELU_SCALE * a
            } else {
                SELU_SCALE * SELU_ALPHA * (expf(a) - 1.0)
            }
        });
        self.push(v, Op::Selu(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.value(x).map(sigmoid);
        self.push(v, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f32::tanh);
        self.push(v, Op::Tanh(x))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|a| a.max(0.0));
        self.push(v, Op::Relu(x))
    }

    /// Row-wise RMS normalization (Zhang & Sennrich 2019) without gain;
    /// compose with [`Graph::mul_row`] for the learnable gain.
    pub fn rms_norm(&mut self, x: Var, eps: f32) -> Var {
        let t = self.value(x);
        let (m, n) = (t.rows(), t.cols());
        let src = t.as_slice();
        let mut inv_rms = Vec::with_capacity(m);
        for r in 0..m {
            let row = &src[r * n..(r + 1) * n];
            let ms = row.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>() / n as f64;
            inv_rms.push(1.0 / (ms + eps as f64).sqrt() as f32);
        }
        let mut out = t.clone();
        let dst = out.as_mut_slice();
        for r in 0..m {
            let s = inv_rms[r];
            dst[r * n..(r + 1) * n].iter_mut().for_each(|v| *v *= s);
        }
        self.push(out, Op::RmsNorm { x, inv_rms })
    }

    /// Per-feature batch normalization over the batch (row) dimension,
    /// without affine parameters (compose with [`Graph::mul_row`] /
    /// [`Graph::add_row`] for γ/β). Always uses the *batch statistics* of
    /// the current tape — which is exactly the property the paper's
    /// Appendix A flags as unreliable under irregular multi-task batches
    /// (the norm ablation measures this).
    pub fn batch_norm(&mut self, x: Var, eps: f32) -> Var {
        let t = self.value(x);
        let (m, n) = (t.rows(), t.cols());
        assert!(m > 0, "batch_norm over an empty batch");
        let src = t.as_slice();
        let mut mean = vec![0.0f64; n];
        for r in 0..m {
            for c in 0..n {
                mean[c] += src[r * n + c] as f64;
            }
        }
        mean.iter_mut().for_each(|v| *v /= m as f64);
        let mut var = vec![0.0f64; n];
        for r in 0..m {
            for c in 0..n {
                let d = src[r * n + c] as f64 - mean[c];
                var[c] += d * d;
            }
        }
        let inv_std: Vec<f32> = var
            .iter()
            .map(|v| (1.0 / (v / m as f64 + eps as f64).sqrt()) as f32)
            .collect();
        let xhat = Tensor::from_fn(&[m, n], |idx| {
            let (r, c) = (idx / n, idx % n);
            (src[r * n + c] - mean[c] as f32) * inv_std[c]
        });
        let out = xhat.clone();
        self.push(out, Op::BatchNorm { x, xhat, inv_std })
    }

    /// Inverted dropout: when `training`, zero each element with probability
    /// `p` and scale survivors by `1/(1-p)`; identity in eval mode.
    pub fn dropout<R: Rng + ?Sized>(&mut self, x: Var, p: f32, training: bool, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        if !training || p == 0.0 {
            // Identity with mask of ones keeps the backward path uniform.
            let v = self.value(x).clone();
            let mask = Tensor::ones(v.shape());
            return self.push(v, Op::Dropout { x, mask });
        }
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let t = self.value(x);
        let mask = Tensor::from_fn(t.shape(), |_| if rng.gen::<f32>() < keep { scale } else { 0.0 });
        let v = t.mul(&mask);
        self.push(v, Op::Dropout { x, mask })
    }

    /// Sum of all elements, producing a `[1]` tensor.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).sum());
        self.push(v, Op::SumAll(x))
    }

    /// Mean of all elements, producing a `[1]` tensor.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).mean());
        self.push(v, Op::MeanAll(x))
    }

    /// Row sums `[m,n] -> [m,1]`.
    pub fn row_sum(&mut self, x: Var) -> Var {
        let v = self.value(x).sum_axis1();
        self.push(v, Op::RowSum(x))
    }

    /// Gather rows by index (node → edge in message passing, and embedding
    /// lookup when `x` is an embedding table parameter).
    pub fn gather_rows(&mut self, x: Var, idx: Arc<Vec<u32>>) -> Var {
        let v = self.value(x).gather_rows(&idx);
        self.push(v, Op::GatherRows { x, idx })
    }

    /// Scatter rows with addition into `out_rows` rows (edge → node).
    pub fn scatter_add_rows(&mut self, x: Var, idx: Arc<Vec<u32>>, out_rows: usize) -> Var {
        let v = self.value(x).scatter_add_rows(&idx, out_rows);
        self.push(v, Op::ScatterAddRows { x, idx })
    }

    /// Segment sum (graph pooling): alias of scatter-add with segment ids.
    pub fn segment_sum(&mut self, x: Var, seg: Arc<Vec<u32>>, n_segments: usize) -> Var {
        self.scatter_add_rows(x, seg, n_segments)
    }

    /// Horizontal concatenation of equal-row-count matrices.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let widths: Vec<usize> = tensors.iter().map(|t| t.cols()).collect();
        let v = Tensor::concat_cols(&tensors);
        self.push(
            v,
            Op::ConcatCols { parts: parts.to_vec(), widths },
        )
    }

    /// Fused relative edge vectors `rel[e] = x[src[e]] − x[dst[e]]` — one
    /// tape node replacing the `gather_rows ×2 → sub` triple, bit-identical
    /// to that composition in both value and gradient.
    pub fn edge_rel(&mut self, x: Var, src: Arc<Vec<u32>>, dst: Arc<Vec<u32>>) -> Var {
        let v = edge::edge_rel(self.value(x), &src, &dst);
        self.push(v, Op::EdgeRel { x, src, dst })
    }

    /// Fused message-input assembly: with `rel`, row `e` is
    /// `[h[src[e]] ‖ h[dst[e]] ‖ d²[e]]` with `d² = Σ_c rel[e,c]²`
    /// (the E(n)-GNN φ_e input); without `rel` it is `[h[src] ‖ h[dst]]`
    /// (the MPNN message input). One tape node replacing up to five
    /// (`gather ×2`, `mul`, `row_sum`, `concat_cols`), bit-identical to
    /// that composition in both value and gradient.
    pub fn edge_concat(
        &mut self,
        h: Var,
        rel: Option<Var>,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
    ) -> Var {
        let v = edge::gather_concat(self.value(h), rel.map(|r| self.value(r)), &src, &dst);
        self.push(v, Op::EdgeConcat { h, rel, src, dst })
    }

    /// Fused mean aggregation: scatter-add rows by `idx` into `out_rows`
    /// rows, then scale row `j` by the constant `inv[j]` — one node
    /// replacing `scatter_add_rows → mul_col(input(inv))`, bit-identical
    /// to that composition. `inv` is data, not a variable: the unfused
    /// input leaf's gradient is dead.
    pub fn scatter_mean_rows(
        &mut self,
        x: Var,
        idx: Arc<Vec<u32>>,
        out_rows: usize,
        inv: Tensor,
    ) -> Var {
        let v = edge::scatter_mean_rows(self.value(x), &idx, out_rows, &inv);
        self.push(v, Op::ScatterMeanRows { x, idx, inv })
    }

    /// Fused weighted mean aggregation `out[j] = inv[j] · Σ_{idx[e]=j}
    /// x[e]·w[e]` (the E(n)-GNN coordinate update) — one node replacing
    /// `mul_col(x, w) → scatter_add_rows → mul_col(·, input(inv))`,
    /// bit-identical to that composition in both value and gradient.
    /// `inv = None` skips the normalization (plain weighted scatter-add).
    pub fn weighted_scatter(
        &mut self,
        x: Var,
        w: Var,
        idx: Arc<Vec<u32>>,
        out_rows: usize,
        inv: Option<Tensor>,
    ) -> Var {
        let v =
            edge::weighted_scatter_mean(self.value(x), self.value(w), &idx, out_rows, inv.as_ref());
        self.push(v, Op::WeightedScatterMean { x, w, idx, inv })
    }

    /// Clamp into `[lo, hi]`; the gradient is passed through only where the
    /// input was strictly inside the interval.
    pub fn clamp(&mut self, x: Var, lo: f32, hi: f32) -> Var {
        let t = self.value(x);
        let mask = t.map(|a| if a > lo && a < hi { 1.0 } else { 0.0 });
        let v = t.clamp(lo, hi);
        self.push(v, Op::Clamp { x, mask })
    }

    /// Mean-squared-error loss against a constant target. With a 0/1 `mask`
    /// the mean runs over unmasked entries only (multi-task batches where
    /// some samples lack a target).
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor, mask: Option<&Tensor>) -> Var {
        let p = self.value(pred);
        let diff = p.sub(target);
        let val = match mask {
            None => Tensor::scalar(diff.map(|d| d * d).mean()),
            Some(m) => {
                let denom = m.sum().max(1.0);
                Tensor::scalar(diff.map(|d| d * d).mul(m).sum() / denom)
            }
        };
        self.push(
            val,
            Op::MseLoss { pred, target: target.clone(), mask: mask.cloned() },
        )
    }

    /// Mean-absolute-error loss against a constant target, optionally masked.
    pub fn l1_loss(&mut self, pred: Var, target: &Tensor, mask: Option<&Tensor>) -> Var {
        let p = self.value(pred);
        let diff = p.sub(target);
        let val = match mask {
            None => Tensor::scalar(diff.map(f32::abs).mean()),
            Some(m) => {
                let denom = m.sum().max(1.0);
                Tensor::scalar(diff.map(f32::abs).mul(m).sum() / denom)
            }
        };
        self.push(
            val,
            Op::L1Loss { pred, target: target.clone(), mask: mask.cloned() },
        )
    }

    /// Numerically-stable binary cross-entropy on logits, optionally masked.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &Tensor, mask: Option<&Tensor>) -> Var {
        let z = self.value(logits);
        let per = z.zip_map(targets, |z, t| z.max(0.0) - z * t + (-z.abs()).exp().ln_1p());
        let val = match mask {
            None => Tensor::scalar(per.mean()),
            Some(m) => {
                let denom = m.sum().max(1.0);
                Tensor::scalar(per.mul(m).sum() / denom)
            }
        };
        self.push(
            val,
            Op::BceWithLogits { logits, targets: targets.clone(), mask: mask.cloned() },
        )
    }

    /// Multi-class cross-entropy over `[batch, classes]` logits with integer
    /// labels; fused log-softmax for stability.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: Arc<Vec<u32>>) -> Var {
        let z = self.value(logits);
        let (m, n) = (z.rows(), z.cols());
        assert_eq!(labels.len(), m, "softmax_cross_entropy: {m} rows but {} labels", labels.len());
        let src = z.as_slice();
        let mut probs = Tensor::zeros(&[m, n]);
        let pdata = probs.as_mut_slice();
        let mut total = 0.0f64;
        for r in 0..m {
            let row = &src[r * n..(r + 1) * n];
            let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f64;
            for &v in row {
                denom += ((v - maxv) as f64).exp();
            }
            let log_denom = denom.ln();
            let label = labels[r] as usize;
            assert!(label < n, "label {label} out of range for {n} classes");
            total += log_denom - ((row[label] - maxv) as f64);
            let prow = &mut pdata[r * n..(r + 1) * n];
            for (p, &v) in prow.iter_mut().zip(row) {
                *p = (((v - maxv) as f64).exp() / denom) as f32;
            }
        }
        let val = Tensor::scalar((total / m as f64) as f32);
        self.push(val, Op::SoftmaxCrossEntropy { logits, labels, probs })
    }

    /// Softmax over edge groups (DGL's `edge_softmax`): logits `[E, 1]`
    /// are exponentiated and normalized within each group of edges that
    /// share `seg[e]` (typically the destination node), so each node's
    /// incoming attention weights sum to one. `n_segments` bounds the ids.
    pub fn edge_softmax(&mut self, logits: Var, seg: Arc<Vec<u32>>, n_segments: usize) -> Var {
        let z = self.value(logits);
        assert_eq!(z.cols(), 1, "edge_softmax expects [E, 1] logits");
        let e = z.rows();
        assert_eq!(seg.len(), e, "edge_softmax: {e} logits but {} segment ids", seg.len());
        let src = z.as_slice();
        // Per-group max for numerical stability.
        let mut maxes = vec![f32::NEG_INFINITY; n_segments];
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            assert!(s < n_segments, "segment id {s} out of range");
            maxes[s] = maxes[s].max(src[i]);
        }
        let mut denoms = vec![0.0f64; n_segments];
        let mut out = Tensor::zeros(&[e, 1]);
        {
            let dst = out.as_mut_slice();
            for (i, &s) in seg.iter().enumerate() {
                let v = ((src[i] - maxes[s as usize]) as f64).exp();
                dst[i] = v as f32;
                denoms[s as usize] += v;
            }
            for (i, &s) in seg.iter().enumerate() {
                dst[i] = (dst[i] as f64 / denoms[s as usize].max(f64::MIN_POSITIVE)) as f32;
            }
        }
        let cached = out.clone();
        self.push(out, Op::EdgeSoftmax { logits, seg, out: cached })
    }

    /// Gaussian radial-basis expansion (SchNet-style): distances `[E, 1]`
    /// become `[E, K]` features `exp(-γ (d - c_k)²)` over the given centers.
    pub fn rbf_expand(&mut self, x: Var, centers: Arc<Vec<f32>>, gamma: f32) -> Var {
        let d = self.value(x);
        assert_eq!(d.cols(), 1, "rbf_expand expects [E, 1] distances");
        let (e, k) = (d.rows(), centers.len());
        assert!(k > 0 && gamma > 0.0, "rbf_expand needs centers and positive gamma");
        let src = d.as_slice();
        let out = Tensor::from_fn(&[e, k], |idx| {
            let (r, c) = (idx / k, idx % k);
            let diff = src[r] - centers[c];
            (-gamma * diff * diff).exp()
        });
        let cached = out.clone();
        self.push(out, Op::RbfExpand { x, centers, gamma, out: cached })
    }

    /// Fraction of rows whose argmax equals the label (no gradient; metric).
    pub fn accuracy(&self, logits: Var, labels: &[u32]) -> f32 {
        let preds = self.value(logits).argmax_rows();
        if preds.is_empty() {
            return 0.0;
        }
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|&(p, &l)| *p == l as usize)
            .count();
        correct as f32 / preds.len() as f32
    }
}
