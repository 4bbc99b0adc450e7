//! The parameter store shared by layers, tapes, and optimizers.

use matsciml_autograd::{Graph, Var};
use matsciml_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::bucket::{BucketLayout, GradBucket};

/// Handle to one parameter tensor in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// A named collection of parameter tensors and their gradient accumulators.
///
/// This is the durable state of a model: layers register parameters at
/// construction time, each training step inserts them into a fresh tape,
/// and optimizers walk `values`/`grads` in lock-step. Serializable for
/// checkpointing pretrained weights between experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamSet {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl Default for ParamSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamSet {
    /// An empty store.
    pub fn new() -> Self {
        ParamSet {
            values: Vec::new(),
            grads: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Register a parameter, returning its handle. Names are diagnostic
    /// (duplicates allowed) and appear in checkpoint files.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.shape()));
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
        self.values.iter().map(Tensor::numel).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and weight surgery).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate over `(value, grad)` pairs — the optimizer's view.
    pub fn pairs_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.values.iter_mut().zip(self.grads.iter())
    }

    /// Insert parameter `id` into a tape as a tagged leaf.
    pub fn leaf(&self, g: &mut Graph, id: ParamId) -> Var {
        g.param(id.0, self.values[id.0].clone())
    }

    /// Zero every gradient accumulator in place.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_inplace(0.0);
        }
    }

    /// Accumulate the parameter gradients recorded on a finished tape,
    /// scaled by `scale` (DDP averaging passes `1/world_size`).
    pub fn absorb_grads(&mut self, graph: &Graph, scale: f32) {
        for (id, grad) in graph.param_grads() {
            self.grads[id].add_scaled_inplace(grad, scale);
        }
    }

    /// Accumulate one gradient tensor (by raw parameter index) scaled by
    /// `scale` — the DDP allreduce primitive.
    pub fn accumulate_grad(&mut self, index: usize, grad: &Tensor, scale: f32) {
        self.grads[index].add_scaled_inplace(grad, scale);
    }

    /// The flat-bucket span table for this store: span `i` covers parameter
    /// `i`'s scalars, packed contiguously in registration order.
    pub fn bucket_layout(&self) -> BucketLayout {
        let numels: Vec<usize> = self.grads.iter().map(Tensor::numel).collect();
        BucketLayout::from_numels(&numels)
    }

    /// Accumulate one reduced bucket of a partitioned layout into the
    /// per-parameter accumulators, scaled — the final scatter of the
    /// bucketed allreduce: span `i` of `bucket` lands in parameter
    /// `param_ids[i]` as one `axpy`.
    pub fn absorb_flat_part(&mut self, param_ids: &[usize], bucket: &GradBucket, scale: f32) {
        assert_eq!(
            bucket.layout().num_spans(),
            param_ids.len(),
            "absorb_flat_part: bucket layout does not match part span count"
        );
        for (i, &id) in param_ids.iter().enumerate() {
            let src = bucket.span_slice(i);
            let g = &mut self.grads[id];
            assert_eq!(
                src.len(),
                g.numel(),
                "absorb_flat_part: span {i} (param {id}) size mismatch"
            );
            matsciml_tensor::kernels::axpy(g.as_mut_slice(), src, scale);
        }
    }

    /// Add another store's gradients into this one, scaled. Both stores
    /// must have identical layouts (clones of the same model).
    pub fn absorb_grads_from(&mut self, other: &ParamSet, scale: f32) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "absorb_grads_from: parameter layouts differ"
        );
        for (mine, theirs) in self.grads.iter_mut().zip(&other.grads) {
            mine.add_scaled_inplace(theirs, scale);
        }
    }

    /// Scale every gradient in place (fused slice kernel).
    pub fn scale_grads(&mut self, scale: f32) {
        for g in &mut self.grads {
            matsciml_tensor::kernels::scale(g.as_mut_slice(), scale);
        }
    }

    /// Global L2 norm over all gradients (f64 accumulation).
    pub fn grad_norm(&self) -> f32 {
        self.grads.iter().map(Tensor::sumsq).sum::<f64>().sqrt() as f32
    }

    /// Global L2 norm over all parameter values.
    pub fn value_norm(&self) -> f32 {
        self.values.iter().map(Tensor::sumsq).sum::<f64>().sqrt() as f32
    }

    /// Clip gradients to a maximum global norm; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale_grads(max_norm / norm);
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
        self.values.iter().all(Tensor::all_finite) && self.grads.iter().all(Tensor::all_finite)
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
        assert_eq!(ps.grad(a).as_slice(), &[0.0, 0.0]);
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
        assert_eq!(ps.grad(a).as_slice(), &[1.0, 1.0]);
        // Absorbing again accumulates.
        ps.absorb_grads(&g, 0.5);
        assert_eq!(ps.grad(a).as_slice(), &[2.0, 2.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(a).as_slice(), &[0.0, 0.0]);
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
    #[should_panic(expected = "layouts differ")]
    fn absorb_from_mismatched_layout_panics() {
        let (mut ps, _, _) = simple_store();
        let other = ParamSet::new();
        ps.absorb_grads_from(&other, 1.0);
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

    #[test]
    fn absorb_flat_part_scatters_spans_into_grads() {
        let (mut ps, a, b) = simple_store();
        // One part holding both parameters in reverse order.
        let mut bucket = GradBucket::zeros(BucketLayout::from_numels(&[3, 2]));
        bucket.copy_span(0, &[6.0, 8.0, 10.0]);
        bucket.copy_span(1, &[2.0, 4.0]);
        ps.absorb_flat_part(&[1, 0], &bucket, 0.5);
        assert_eq!(ps.grad(a).as_slice(), &[1.0, 2.0]);
        assert_eq!(ps.grad(b).as_slice(), &[3.0, 4.0, 5.0]);
        // Accumulates on a second absorb rather than overwriting.
        ps.absorb_flat_part(&[1, 0], &bucket, 0.5);
        assert_eq!(ps.grad(a).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn checkpoint_roundtrip_via_serde() {
        let (ps, _, _) = simple_store();
        let json = serde_json::to_string(&ps).unwrap();
        let back: ParamSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.value(ParamId(1)).as_slice(), &[3.0, 4.0, 5.0]);
    }
}
