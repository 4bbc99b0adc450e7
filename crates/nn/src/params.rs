//! The parameter store shared by layers, tapes, and optimizers.

use matsciml_autograd::{Graph, Var};
use matsciml_tensor::{kernels, Tensor};
use serde::{Deserialize, Serialize};

use crate::bucket::BucketLayout;

/// Handle to one parameter tensor in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// A named collection of parameter tensors and their gradients.
///
/// This is the durable state of a model: layers register parameters at
/// construction time, each training step inserts them into a fresh tape,
/// and optimizers walk values and gradients in lock-step. Values are
/// per-tensor handles; gradients live in one flat arena in registration
/// order ([`ParamSet::bucket_layout`]), so a run of consecutive
/// parameters is one contiguous range. On disk a store lives inside a
/// `.mckpt` file (the `PARAMS` section codec in `matsciml-train`),
/// bit-exact.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    values: Vec<Tensor>,
    layout: BucketLayout,
    grads: Vec<f32>,
    names: Vec<String>,
}

impl ParamSet {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter, returning its handle. Names are diagnostic
    /// (duplicates allowed) and appear in checkpoint files.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.layout.push(value.numel());
        self.grads.resize(self.layout.total_scalars(), 0.0);
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.layout.total_scalars()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and weight surgery).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Gradient of a parameter: its span of the arena.
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.grads[self.layout.range(id.0)]
    }

    /// The whole gradient arena, in registration order.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Move the gradient arena out, leaving the store without one until
    /// [`ParamSet::restore_grads`] — so a DDP step can write it while
    /// ranks read the values through a shared borrow.
    pub fn take_grads(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.grads)
    }

    /// Put back an arena taken by [`ParamSet::take_grads`].
    pub fn restore_grads(&mut self, grads: Vec<f32>) {
        assert_eq!(grads.len(), self.num_scalars(), "restore_grads: arena length");
        self.grads = grads;
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate over `(value, grad)` pairs — the optimizer's view.
    pub fn pairs_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &mut [f32])> {
        let mut rest = self.grads.as_mut_slice();
        self.values.iter_mut().map(move |value| {
            let (grad, tail) = std::mem::take(&mut rest).split_at_mut(value.numel());
            rest = tail;
            (value, grad)
        })
    }

    /// Insert parameter `id` into a tape as a tagged leaf.
    pub fn leaf(&self, g: &mut Graph, id: ParamId) -> Var {
        g.param(id.0, self.values[id.0].clone())
    }

    /// Zero every gradient in place.
    pub fn zero_grads(&mut self) {
        kernels::fill(&mut self.grads, 0.0);
    }

    /// Accumulate the parameter gradients recorded on a finished tape,
    /// scaled by `scale`.
    pub fn absorb_grads(&mut self, graph: &Graph, scale: f32) {
        for (id, grad) in graph.param_grads() {
            kernels::axpy(&mut self.grads[self.layout.range(id)], grad.as_slice(), scale);
        }
    }

    /// The arena's span table: span `i` covers parameter `i`'s scalars,
    /// packed contiguously in registration order.
    pub fn bucket_layout(&self) -> &BucketLayout {
        &self.layout
    }

    /// Global L2 norm over all gradients: one `f64` sum of squares per
    /// parameter, added in registration order.
    pub fn grad_norm(&self) -> f32 {
        (0..self.len())
            .map(|i| kernels::sumsq(self.grad(ParamId(i))))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Global L2 norm over all parameter values.
    pub fn value_norm(&self) -> f32 {
        self.values.iter().map(Tensor::sumsq).sum::<f64>().sqrt() as f32
    }

    /// Clip gradients to a maximum global norm; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            kernels::scale(&mut self.grads, max_norm / norm);
        }
        norm
    }

    /// Copy parameter values from another store with an identical layout
    /// (loading a pretrained encoder into a fresh model).
    pub fn copy_values_from(&mut self, other: &ParamSet) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "copy_values_from: parameter layouts differ"
        );
        for (mine, theirs) in self.values.iter_mut().zip(&other.values) {
            assert_eq!(
                mine.shape(),
                theirs.shape(),
                "copy_values_from: shape mismatch"
            );
            *mine = theirs.clone();
        }
    }

    /// Copy a prefix of parameters from `other` (transferring a pretrained
    /// encoder into a model whose heads differ). `count` is the number of
    /// leading parameter tensors to copy.
    pub fn copy_prefix_from(&mut self, other: &ParamSet, count: usize) {
        assert!(count <= self.values.len() && count <= other.values.len());
        for i in 0..count {
            assert_eq!(
                self.values[i].shape(),
                other.values[i].shape(),
                "copy_prefix_from: shape mismatch at param {i} ({})",
                self.names[i]
            );
            self.values[i] = other.values[i].clone();
        }
    }

    /// True when every parameter and gradient is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Tensor::all_finite) && self.grads.iter().all(|g| g.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_store() -> (ParamSet, ParamId, ParamId) {
        let mut ps = ParamSet::new();
        let a = ps.register("a", Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap());
        let b = ps.register("b", Tensor::from_vec(&[3], vec![3.0, 4.0, 5.0]).unwrap());
        (ps, a, b)
    }

    #[test]
    fn register_and_inspect() {
        let (ps, a, b) = simple_store();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_scalars(), 5);
        assert_eq!(ps.name(a), "a");
        assert_eq!(ps.value(b).as_slice(), &[3.0, 4.0, 5.0]);
        assert_eq!(ps.grad(a), &[0.0, 0.0]);
    }

    #[test]
    fn absorb_grads_from_tape_scales() {
        let (mut ps, a, _) = simple_store();
        let mut g = Graph::new();
        let va = ps.leaf(&mut g, a);
        let doubled = g.scale(va, 2.0);
        let loss = g.sum_all(doubled);
        g.backward(loss);
        ps.absorb_grads(&g, 0.5);
        assert_eq!(ps.grad(a), &[1.0, 1.0]);
        // Absorbing again accumulates.
        ps.absorb_grads(&g, 0.5);
        assert_eq!(ps.grad(a), &[2.0, 2.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(a), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_caps_global_norm() {
        let (mut ps, a, b) = simple_store();
        let mut g = Graph::new();
        let va = ps.leaf(&mut g, a);
        let vb = ps.leaf(&mut g, b);
        let sa = g.scale(va, 3.0);
        let sb = g.scale(vb, 4.0);
        let la = g.sum_all(sa);
        let lb = g.sum_all(sb);
        let loss = g.add(la, lb);
        g.backward(loss);
        ps.absorb_grads(&g, 1.0);
        let pre = ps.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn copy_prefix_transfers_encoder_weights() {
        let (mut dst, _, _) = simple_store();
        let (mut src, sa, _) = simple_store();
        src.value_mut(sa).fill_inplace(9.0);
        dst.copy_prefix_from(&src, 1);
        assert_eq!(dst.value(ParamId(0)).as_slice(), &[9.0, 9.0]);
        assert_eq!(dst.value(ParamId(1)).as_slice(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn bucket_layout_matches_registration_order() {
        let (ps, _, _) = simple_store();
        let layout = ps.bucket_layout();
        assert_eq!(layout.num_spans(), 2);
        assert_eq!(layout.span(0), (0, 2));
        assert_eq!(layout.span(1), (2, 3));
        assert_eq!(layout.total_scalars(), ps.num_scalars());
    }
}
