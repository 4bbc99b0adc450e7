//! The reverse sweep: vector–Jacobian products for every op.

use matsciml_tensor::{edge, fused, Tensor};

use crate::graph::{Graph, Op, Var};
use crate::ops::{expf, sigmoid, SELU_ALPHA, SELU_SCALE};

impl Graph {
    /// Run reverse-mode accumulation from `loss` (seeded with ones) back to
    /// every reachable leaf. Call once per tape; gradients accumulate into
    /// each node's grad slot and are read with [`Graph::grad`] /
    /// [`Graph::param_grads`].
    pub fn backward(&mut self, loss: Var) {
        self.backward_with_hook(loss, |_, _| {});
    }

    /// [`Graph::backward`] with a grad-finalization hook.
    ///
    /// Nodes are recorded in topological order, so the reverse index sweep
    /// visits a node only after every one of its consumers: when the sweep
    /// reaches index `i`, no later accumulation can touch node `i`'s
    /// gradient — it is **final**. For parameter leaves that moment is the
    /// earliest a DDP reduction may ship the gradient, so the hook fires
    /// right there: `hook(param_id, grad)` for every parameter leaf at
    /// tape positions `0..=loss`, in reverse recording order (`grad` is
    /// `None` when the leaf did not participate in the loss).
    ///
    /// The hook only observes finalized gradients — it cannot mutate the
    /// tape — so `backward` and `backward_with_hook` produce identical
    /// gradients; overlap schedulers change *when* a gradient is consumed,
    /// never its value.
    pub fn backward_with_hook<F>(&mut self, loss: Var, mut hook: F)
    where
        F: FnMut(usize, Option<&Tensor>),
    {
        let seed = Tensor::ones(self.nodes[loss.0].value.shape());
        self.accum(loss, seed);
        // Nodes are recorded in topological order, so a reverse index sweep
        // visits every node after all of its consumers.
        for i in (0..=loss.0).rev() {
            if let Some(g) = self.nodes[i].grad.clone() {
                let deltas = self.vjp(i, &g);
                for (parent, delta) in deltas {
                    let fitted = fit(delta, self.nodes[parent.0].value.shape());
                    self.accum(parent, fitted);
                }
            }
            // All consumers (indices > i) are processed: node i's gradient
            // is final. Report parameter leaves the moment this happens.
            if let Op::Leaf { param: Some(id) } = self.nodes[i].op {
                hook(id, self.nodes[i].grad.as_ref());
            }
        }
    }

    /// Vector–Jacobian product of node `i` given its output gradient `g`:
    /// the contributions to each parent's gradient.
    fn vjp(&self, i: usize, g: &Tensor) -> Vec<(Var, Tensor)> {
        let node = &self.nodes[i];
        let y = &node.value;
        match &node.op {
            Op::Leaf { .. } => vec![],
            Op::Add(a, b) => vec![(*a, g.clone()), (*b, g.clone())],
            Op::Sub(a, b) => vec![(*a, g.clone()), (*b, g.neg())],
            Op::Mul(a, b) => vec![
                (*a, g.mul(self.value(*b))),
                (*b, g.mul(self.value(*a))),
            ],
            Op::Neg(a) => vec![(*a, g.neg())],
            Op::Scale(a, s) => vec![(*a, g.scale(*s))],
            Op::Matmul(a, b) => vec![
                (*a, g.matmul_nt(self.value(*b))),
                (*b, self.value(*a).matmul_tn(g)),
            ],
            Op::Linear { x, w, b, dact } => {
                // One fused VJP for the matmul→add_row→activation triple.
                // dz multiplies g by the act'(z) the forward saved; the
                // blocked nt/tn kernels then reproduce the unfused
                // Matmul VJP bit-for-bit, and the bias adjoint is the
                // same column sum AddRow uses.
                let dz = fused::act_backward(g, dact.as_ref());
                let mut deltas = vec![
                    (*x, fused::matmul_nt_blocked(&dz, self.value(*w))),
                    (*w, fused::matmul_tn_blocked(self.value(*x), &dz)),
                ];
                if let Some(bias) = b {
                    deltas.push((*bias, dz.sum_axis0()));
                }
                deltas
            }
            Op::AddRow(x, bias) => vec![(*x, g.clone()), (*bias, g.sum_axis0())],
            Op::MulRow(x, gain) => vec![
                (*x, g.mul_row_broadcast(self.value(*gain))),
                (*gain, g.mul(self.value(*x)).sum_axis0()),
            ],
            Op::MulCol(x, col) => vec![
                (*x, g.mul_col_broadcast(self.value(*col))),
                (*col, g.mul(self.value(*x)).sum_axis1()),
            ],
            Op::MulScalarVar(x, s) => {
                let sv = self.value(*s).item();
                let ds = g.mul(self.value(*x)).sum();
                vec![(*x, g.scale(sv)), (*s, Tensor::scalar(ds))]
            }
            Op::Silu(x) => {
                let d = self.value(*x).map(|a| {
                    let s = sigmoid(a);
                    s * (1.0 + a * (1.0 - s))
                });
                vec![(*x, g.mul(&d))]
            }
            Op::Sqrt(x) => {
                // d√x = 1/(2√x) = 1/(2y).
                let d = y.map(|v| 0.5 / v.max(1e-12));
                vec![(*x, g.mul(&d))]
            }
            Op::Selu(x) => {
                let d = self.value(*x).map(|a| {
                    if a > 0.0 {
                        SELU_SCALE
                    } else {
                        SELU_SCALE * SELU_ALPHA * expf(a)
                    }
                });
                vec![(*x, g.mul(&d))]
            }
            Op::Sigmoid(x) => {
                let d = y.map(|s| s * (1.0 - s));
                vec![(*x, g.mul(&d))]
            }
            Op::Tanh(x) => {
                let d = y.map(|t| 1.0 - t * t);
                vec![(*x, g.mul(&d))]
            }
            Op::Relu(x) => {
                let d = self.value(*x).map(|a| if a > 0.0 { 1.0 } else { 0.0 });
                vec![(*x, g.mul(&d))]
            }
            Op::RmsNorm { x, inv_rms } => {
                // dx = r * (g - y * mean_k(g_k y_k)) per row, r = 1/rms.
                let (m, n) = (y.rows(), y.cols());
                let gy = g.mul(y);
                let gsrc = g.as_slice();
                let ysrc = y.as_slice();
                let gysrc = gy.as_slice();
                let mut dx = Tensor::zeros(&[m, n]);
                let dst = dx.as_mut_slice();
                for r in 0..m {
                    let mean_gy = gysrc[r * n..(r + 1) * n]
                        .iter()
                        .map(|&v| v as f64)
                        .sum::<f64>() as f32
                        / n as f32;
                    let s = inv_rms[r];
                    for c in 0..n {
                        let idx = r * n + c;
                        dst[idx] = s * (gsrc[idx] - ysrc[idx] * mean_gy);
                    }
                }
                vec![(*x, dx)]
            }
            Op::BatchNorm { x, xhat, inv_std } => {
                // Per column c: dx = s_c (g − mean_r g − x̂ · mean_r(g·x̂)).
                let (m, n) = (xhat.rows(), xhat.cols());
                let gs = g.as_slice();
                let xs = xhat.as_slice();
                let mut mean_g = vec![0.0f64; n];
                let mut mean_gx = vec![0.0f64; n];
                for r in 0..m {
                    for c in 0..n {
                        let idx = r * n + c;
                        mean_g[c] += gs[idx] as f64;
                        mean_gx[c] += (gs[idx] as f64) * (xs[idx] as f64);
                    }
                }
                mean_g.iter_mut().for_each(|v| *v /= m as f64);
                mean_gx.iter_mut().for_each(|v| *v /= m as f64);
                let dx = Tensor::from_fn(&[m, n], |idx| {
                    let (r, c) = (idx / n, idx % n);
                    let i = r * n + c;
                    inv_std[c] * (gs[i] - mean_g[c] as f32 - xs[i] * mean_gx[c] as f32)
                });
                vec![(*x, dx)]
            }
            Op::Dropout { x, mask } => vec![(*x, g.mul(mask))],
            Op::SumAll(x) => {
                let shape = self.value(*x).shape().to_vec();
                vec![(*x, Tensor::full(&shape, g.item()))]
            }
            Op::MeanAll(x) => {
                let t = self.value(*x);
                let shape = t.shape().to_vec();
                let n = t.numel().max(1) as f32;
                vec![(*x, Tensor::full(&shape, g.item() / n))]
            }
            Op::RowSum(x) => {
                let t = self.value(*x);
                let (m, n) = (t.rows(), t.cols());
                let gs = g.as_slice();
                vec![(*x, Tensor::from_fn(&[m, n], |idx| gs[idx / n]))]
            }
            Op::GatherRows { x, idx } => {
                let rows = self.value(*x).rows();
                vec![(*x, g.scatter_add_rows(idx, rows))]
            }
            Op::ScatterAddRows { x, idx } => vec![(*x, g.gather_rows(idx))],
            Op::ConcatCols { parts, widths } => {
                let splits = g.split_cols(widths);
                parts.iter().copied().zip(splits).collect()
            }
            Op::EdgeRel { x, src, dst } => {
                // The unfused chain accumulates into x in reverse tape
                // order: the `xj` gather (recorded later) scatters −g by
                // dst before the `xi` gather scatters g by src. Returning
                // the deltas in that order replays the exact accumulation
                // sequence.
                let rows = self.value(*x).rows();
                vec![
                    (*x, g.neg().scatter_add_rows(dst, rows)),
                    (*x, g.scatter_add_rows(src, rows)),
                ]
            }
            Op::EdgeConcat { h, rel, src, dst } => {
                // h-blocks: the split_cols copies of the unfused ConcatCols
                // VJP feed plain scatter-adds; scatter_cols_add produces the
                // same values with the same per-row fold order, straight
                // from the strided gradient. hj (cols H..2H, by dst) lands
                // before hi (cols 0..H, by src), as on the unfused tape.
                let hv = self.value(*h);
                let (rows, hw) = (hv.rows(), hv.cols());
                let mut deltas = vec![
                    (*h, edge::scatter_cols_add(g, hw, hw, dst, rows)),
                    (*h, edge::scatter_cols_add(g, 0, hw, src, rows)),
                ];
                if let Some(r) = rel {
                    // d² unfuses to RowSum(Mul(rel, rel)): RowSum broadcasts
                    // the last gradient column over rel's columns, and the
                    // same-operand Mul then contributes the identical delta
                    // twice — replayed here as two pushes of one tensor.
                    let rv = self.value(*r);
                    let (e, c) = (rv.rows(), rv.cols());
                    let (gs, rs) = (g.as_slice(), rv.as_slice());
                    let width = 2 * hw + 1;
                    let d =
                        Tensor::from_fn(&[e, c], |i| gs[(i / c) * width + 2 * hw] * rs[i]);
                    deltas.push((*r, d.clone()));
                    deltas.push((*r, d));
                }
                deltas
            }
            Op::ScatterMeanRows { x, idx, inv } => {
                vec![(*x, edge::scatter_mean_backward(g, idx, inv))]
            }
            Op::WeightedScatterMean { x, w, idx, inv } => {
                let (dx, dw) = edge::weighted_scatter_backward(
                    g,
                    self.value(*x),
                    self.value(*w),
                    idx,
                    inv.as_ref(),
                );
                vec![(*x, dx), (*w, dw)]
            }
            Op::Clamp { x, mask } => vec![(*x, g.mul(mask))],
            Op::MseLoss { pred, target, mask } => {
                let p = self.value(*pred);
                let diff = p.sub(target);
                let d = match mask {
                    None => diff.scale(2.0 / p.numel().max(1) as f32),
                    Some(m) => diff.mul(m).scale(2.0 / m.sum().max(1.0)),
                };
                vec![(*pred, d.scale(g.item()))]
            }
            Op::L1Loss { pred, target, mask } => {
                let p = self.value(*pred);
                let sign = p.sub(target).map(|d| {
                    if d > 0.0 {
                        1.0
                    } else if d < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                });
                let d = match mask {
                    None => sign.scale(1.0 / p.numel().max(1) as f32),
                    Some(m) => sign.mul(m).scale(1.0 / m.sum().max(1.0)),
                };
                vec![(*pred, d.scale(g.item()))]
            }
            Op::BceWithLogits { logits, targets, mask } => {
                let z = self.value(*logits);
                let d = z.zip_map(targets, |z, t| sigmoid(z) - t);
                let d = match mask {
                    None => d.scale(1.0 / z.numel().max(1) as f32),
                    Some(m) => d.mul(m).scale(1.0 / m.sum().max(1.0)),
                };
                vec![(*logits, d.scale(g.item()))]
            }
            Op::EdgeSoftmax { logits, seg, out } => {
                // Grouped softmax adjoint: dl_e = y_e (g_e − Σ_{e'∈group} g_{e'} y_{e'}).
                let e = out.rows();
                let ys = out.as_slice();
                let gs = g.as_slice();
                let n_seg = seg.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
                let mut group_dot = vec![0.0f64; n_seg];
                for i in 0..e {
                    group_dot[seg[i] as usize] += (gs[i] as f64) * (ys[i] as f64);
                }
                let d = Tensor::from_fn(&[e, 1], |i| {
                    ys[i] * (gs[i] - group_dot[seg[i] as usize] as f32)
                });
                vec![(*logits, d)]
            }
            Op::RbfExpand { x, centers, gamma, out } => {
                // dL/dd_e = Σ_k g[e,k] · y[e,k] · (−2γ (d_e − c_k)).
                let d_in = self.value(*x);
                let (e, k) = (out.rows(), out.cols());
                let ds = d_in.as_slice();
                let ys = out.as_slice();
                let gs = g.as_slice();
                let dx = Tensor::from_fn(&[e, 1], |r| {
                    let mut acc = 0.0f64;
                    for c in 0..k {
                        let idx = r * k + c;
                        acc += (gs[idx] as f64)
                            * (ys[idx] as f64)
                            * (-2.0 * *gamma as f64 * (ds[r] - centers[c]) as f64);
                    }
                    acc as f32
                });
                vec![(*x, dx)]
            }
            Op::SoftmaxCrossEntropy { logits, labels, probs } => {
                let (m, n) = (probs.rows(), probs.cols());
                let mut d = probs.clone();
                let dst = d.as_mut_slice();
                for (r, &label) in labels.iter().enumerate() {
                    dst[r * n + label as usize] -= 1.0;
                }
                let scale = g.item() / m.max(1) as f32;
                dst.iter_mut().for_each(|v| *v *= scale);
                vec![(*logits, d)]
            }
        }
    }
}

/// Reshape `delta` to the parent's shape when the element counts agree
/// (covers `[m] ↔ [m,1]` and `[n] ↔ [1,n]` leaf-shape mismatches).
fn fit(delta: Tensor, parent_shape: &[usize]) -> Tensor {
    if delta.shape() == parent_shape {
        delta
    } else {
        delta.reshape(parent_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_through_scalar_ops() {
        // loss = mean((3x)^2) for x = [1, 2]; dloss/dx = 9x.
        let mut g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap());
        let y = g.scale(x, 3.0);
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let dx = g.grad(x).unwrap();
        assert!((dx.at(0) - 9.0).abs() < 1e-5);
        assert!((dx.at(1) - 18.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradients_match_closed_form() {
        // loss = sum(A @ B): dA = row-sums of B broadcast, dB = col-sums of A.
        let mut g = Graph::new();
        let a = g.param(0, Tensor::from_fn(&[2, 3], |i| i as f32));
        let b = g.param(1, Tensor::from_fn(&[3, 2], |i| (i as f32) * 0.5));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        let da = g.grad(a).unwrap();
        let db = g.grad(b).unwrap();
        // dA[i,p] = sum_j B[p,j]
        for i in 0..2 {
            for p in 0..3 {
                let expect: f32 = (0..2).map(|j| g.value(b).at2(p, j)).sum();
                assert!((da.at2(i, p) - expect).abs() < 1e-5);
            }
        }
        // dB[p,j] = sum_i A[i,p]
        for p in 0..3 {
            for j in 0..2 {
                let expect: f32 = (0..2).map(|i| g.value(a).at2(i, p)).sum();
                assert!((db.at2(p, j) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn squaring_via_repeated_operand_doubles_gradient() {
        let mut g = Graph::new();
        let x = g.param(0, Tensor::scalar(3.0));
        let sq = g.mul(x, x);
        let loss = g.sum_all(sq);
        g.backward(loss);
        assert!((g.grad(x).unwrap().item() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x) + sum(2x) => d/dx = 3.
        let mut g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap());
        let x2 = g.scale(x, 2.0);
        let s1 = g.sum_all(x);
        let s2 = g.sum_all(x2);
        let loss = g.add(s1, s2);
        g.backward(loss);
        assert!(g.grad(x).unwrap().as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn softmax_ce_gradient_rows_sum_to_zero() {
        let mut g = Graph::new();
        let z = g.param(0, Tensor::from_fn(&[4, 3], |i| ((i * 7 % 5) as f32) * 0.3 - 0.6));
        let labels = std::sync::Arc::new(vec![0u32, 2, 1, 1]);
        let loss = g.softmax_cross_entropy(z, labels);
        g.backward(loss);
        let dz = g.grad(z).unwrap();
        for r in 0..4 {
            let s: f32 = (0..3).map(|c| dz.at2(r, c)).sum();
            assert!(s.abs() < 1e-5, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn gather_scatter_roundtrip_gradient() {
        // loss = sum(gather(x, idx)); dx counts index multiplicity.
        let mut g = Graph::new();
        let x = g.param(0, Tensor::from_fn(&[3, 2], |i| i as f32));
        let idx = std::sync::Arc::new(vec![1u32, 1, 2]);
        let gathered = g.gather_rows(x, idx);
        let loss = g.sum_all(gathered);
        g.backward(loss);
        let dx = g.grad(x).unwrap();
        assert_eq!(dx.row(0), &[0.0, 0.0]);
        assert_eq!(dx.row(1), &[2.0, 2.0]);
        assert_eq!(dx.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let y = g.dropout(x, 0.5, false, &mut rng);
        assert_eq!(g.value(y).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(x).unwrap().as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn hook_fires_per_leaf_in_reverse_touch_order_with_final_grads() {
        // Tape touches params 3, then 1, then 5 (id order deliberately
        // scrambled vs touch order); param 9 is recorded but unused.
        let mut g = Graph::new();
        let a = g.param(3, Tensor::scalar(2.0));
        let b = g.param(1, Tensor::scalar(4.0));
        let _unused = g.param(9, Tensor::scalar(7.0));
        let c = g.param(5, Tensor::scalar(3.0));
        let ab = g.mul(a, b); // d/da = 4, d/db = 2
        let abc = g.mul(ab, c); // d/dc = 8, grads of a,b scale by 3
        let loss = g.sum_all(abc);

        let mut fired: Vec<(usize, Option<f32>)> = Vec::new();
        g.backward_with_hook(loss, |id, grad| {
            fired.push((id, grad.map(|t| t.item())));
        });
        // Reverse recording order: last-touched finalizes first; the
        // unused leaf still fires (with no gradient) so countdowns close.
        assert_eq!(
            fired,
            vec![(5, Some(8.0)), (9, None), (1, Some(6.0)), (3, Some(12.0))]
        );
        // The hook saw exactly the final gradients backward() reports.
        assert_eq!(g.grad(a).unwrap().item(), 12.0);
        assert_eq!(g.grad(c).unwrap().item(), 8.0);
        // And the forward-scan helper enumerates the same population in
        // touch order.
        let leaves: Vec<usize> = g.param_leaves_upto(loss).collect();
        assert_eq!(leaves, vec![3, 1, 9, 5]);
    }

    #[test]
    fn masked_mse_ignores_masked_entries() {
        let mut g = Graph::new();
        let p = g.param(0, Tensor::from_vec(&[3], vec![1.0, 5.0, 2.0]).unwrap());
        let target = Tensor::from_vec(&[3], vec![0.0, 0.0, 0.0]).unwrap();
        let mask = Tensor::from_vec(&[3], vec![1.0, 0.0, 1.0]).unwrap();
        let loss = g.mse_loss(p, &target, Some(&mask));
        // (1 + 4) / 2 = 2.5
        assert!((g.value(loss).item() - 2.5).abs() < 1e-6);
        g.backward(loss);
        let dp = g.grad(p).unwrap();
        assert_eq!(dp.at(1), 0.0, "masked entry must get zero gradient");
        assert!((dp.at(0) - 1.0).abs() < 1e-6); // 2*(1)/2
    }
}
