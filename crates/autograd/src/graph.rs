//! The tape arena: [`Graph`], [`Var`], and the op record.

use std::sync::Arc;

use matsciml_tensor::{Precision, Tensor};

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Recorded operation together with the cached state its vector–Jacobian
/// product needs. Variants reference parents by [`Var`].
pub(crate) enum Op {
    /// Input or parameter leaf. `param` carries the external parameter id
    /// used by `Graph::param_grads`.
    Leaf { param: Option<usize> },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    Matmul(Var, Var),
    /// Fused dense layer `y = act(x @ w + b)`: one node (and one VJP)
    /// replacing the `Matmul → AddRow → activation` triple. Caches the
    /// activation derivative `act'(z)` the forward sweep wrote in place
    /// of the pre-activation (`None` for [`Act::Identity`]), so the VJP's
    /// activation step is a single multiply.
    ///
    /// [`Act::Identity`]: matsciml_tensor::Act::Identity
    Linear { x: Var, w: Var, b: Option<Var>, dact: Option<Tensor> },
    /// `x [m,n] + bias [n]` broadcast over rows.
    AddRow(Var, Var),
    /// `x [m,n] * gain [n]` broadcast over rows.
    MulRow(Var, Var),
    /// `x [m,n] * col [m]` broadcast over columns.
    MulCol(Var, Var),
    /// `x * s` where `s` is a 1-element variable broadcast everywhere.
    MulScalarVar(Var, Var),
    Silu(Var),
    /// Elementwise square root (inputs must be positive).
    Sqrt(Var),
    Selu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    /// Row-wise RMS normalization; caches 1/rms per row.
    RmsNorm { x: Var, inv_rms: Vec<f32> },
    /// Column-wise (per-feature) batch normalization using batch
    /// statistics; caches the normalized output and per-column 1/std.
    BatchNorm { x: Var, xhat: Tensor, inv_std: Vec<f32> },
    /// Inverted dropout; caches the 0/scale mask applied in forward.
    Dropout { x: Var, mask: Tensor },
    SumAll(Var),
    MeanAll(Var),
    /// Row sums `[m,n] -> [m,1]`.
    RowSum(Var),
    GatherRows { x: Var, idx: Arc<Vec<u32>> },
    ScatterAddRows { x: Var, idx: Arc<Vec<u32>> },
    ConcatCols { parts: Vec<Var>, widths: Vec<usize> },
    /// Fused `rel = x[src] − x[dst]` edge-vector assembly: one node
    /// replacing the `GatherRows ×2 → Sub` triple, VJP scattering `∓g`
    /// straight back into `x`'s gradient (dst block first, matching the
    /// unfused reverse-tape order).
    EdgeRel { x: Var, src: Arc<Vec<u32>>, dst: Arc<Vec<u32>> },
    /// Fused message-input assembly `[h[src] ‖ h[dst] ‖ d²(rel)]`
    /// (`rel = None` drops the squared-distance column — the MPNN form):
    /// one node replacing `GatherRows ×2 (→ Mul → RowSum) → ConcatCols`.
    EdgeConcat { h: Var, rel: Option<Var>, src: Arc<Vec<u32>>, dst: Arc<Vec<u32>> },
    /// Fused scatter-add + per-row scale by the constant mean normalizer
    /// `inv` (not a tape node: the unfused input leaf's gradient is never
    /// consumed).
    ScatterMeanRows { x: Var, idx: Arc<Vec<u32>>, inv: Tensor },
    /// Fused weighted scatter `out[j] = inv[j] · Σ_{idx[e]=j} x[e]·w[e]`
    /// replacing `MulCol → ScatterAddRows → MulCol`; `inv = None` skips
    /// the mean normalization.
    WeightedScatterMean { x: Var, w: Var, idx: Arc<Vec<u32>>, inv: Option<Tensor> },
    /// Clamp; caches pass-through mask (1 where un-clamped).
    Clamp { x: Var, mask: Tensor },
    /// Mean squared error against a constant target, with optional 0/1 mask.
    MseLoss { pred: Var, target: Tensor, mask: Option<Tensor> },
    /// Mean absolute error against a constant target, with optional mask.
    L1Loss { pred: Var, target: Tensor, mask: Option<Tensor> },
    /// Binary cross-entropy on logits, with optional mask.
    BceWithLogits { logits: Var, targets: Tensor, mask: Option<Tensor> },
    /// Multi-class cross-entropy on logits with integer labels; caches the
    /// softmax probabilities from forward.
    SoftmaxCrossEntropy { logits: Var, labels: Arc<Vec<u32>>, probs: Tensor },
    /// Softmax over edge groups: normalizes `[E, 1]` logits within the
    /// group of edges sharing a segment id (DGL's `edge_softmax`); caches
    /// the output probabilities.
    EdgeSoftmax { logits: Var, seg: Arc<Vec<u32>>, out: Tensor },
    /// Gaussian radial-basis expansion of `[E, 1]` distances into
    /// `[E, K]` features; caches the expansion.
    RbfExpand { x: Var, centers: Arc<Vec<f32>>, gamma: f32, out: Tensor },
}

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
}

/// A define-by-run tape. See the crate docs for the lifecycle.
///
/// The tape carries the [`Precision`] its forward gemms run at
/// ([`Graph::linear`], [`Graph::matmul`]). A new or [reset](Graph::reset)
/// tape runs at [`Precision::F32`], the exact pinned-order kernels, so
/// training is bit-exact by construction; only a caller that records a
/// quantized model's inference forward raises it
/// ([`Graph::set_precision`]), and the choice ends with that tape.
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) precision: Precision,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::with_capacity(256), precision: Precision::F32 }
    }

    /// Run this tape's forward gemms at `precision`. Anything but
    /// [`Precision::F32`] hands them to the reduced-precision wide tier,
    /// whose outputs are tolerance-checked, never bit-compared — meant
    /// for the inference forward of a model quantized to that precision.
    /// Lasts until the next [`Graph::reset`].
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// Clear the tape for reuse without releasing its node arena.
    ///
    /// Every node (value, cached VJP state, gradient) is dropped — which
    /// returns the tensors' buffers to the
    /// [buffer pool](matsciml_tensor::pool) — while the `Vec` of nodes
    /// keeps its capacity. A long-lived graph `reset` between
    /// micro-batches therefore records its next tape with zero allocator
    /// traffic: node slots reuse the arena, tensor buffers reuse the
    /// pool. The precision returns to [`Precision::F32`].
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.precision = Precision::F32;
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, grad: None, op });
        Var(self.nodes.len() - 1)
    }

    /// Insert a non-parameter leaf (input data).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Insert a parameter leaf tagged with an external id. The tensor is an
    /// `Arc` clone, so no data is copied.
    pub fn param(&mut self, id: usize, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: Some(id) })
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Graph::backward`]; `None` when the node
    /// did not participate in the loss.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Iterate over `(param_id, gradient)` for every parameter leaf that
    /// received a gradient.
    pub fn param_grads(&self) -> impl Iterator<Item = (usize, &Tensor)> {
        self.nodes.iter().filter_map(|n| match n.op {
            Op::Leaf { param: Some(id) } => n.grad.as_ref().map(|g| (id, g)),
            _ => None,
        })
    }

    /// Parameter ids of every parameter leaf recorded at tape positions
    /// `0..=upto`, in recording (forward-touch) order, one entry per leaf
    /// occurrence — whether or not the leaf will receive a gradient.
    ///
    /// This is the exact population [`Graph::backward_with_hook`] fires
    /// over (in reverse), which is what lets an overlap scheduler size its
    /// per-bucket readiness countdowns from a forward-only tape scan.
    pub fn param_leaves_upto(&self, upto: Var) -> impl Iterator<Item = usize> + '_ {
        self.nodes[..=upto.0].iter().filter_map(|n| match n.op {
            Op::Leaf { param: Some(id) } => Some(id),
            _ => None,
        })
    }

    /// Accumulate `delta` into the gradient slot of `v`.
    pub(crate) fn accum(&mut self, v: Var, delta: Tensor) {
        let slot = &mut self.nodes[v.0].grad;
        match slot {
            Some(g) => g.add_scaled_inplace(&delta, 1.0),
            None => *slot = Some(delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_and_values() {
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(3.0));
        let w = g.param(7, Tensor::scalar(2.0));
        assert_eq!(g.value(x).item(), 3.0);
        assert_eq!(g.value(w).item(), 2.0);
        assert_eq!(g.len(), 2);
        assert!(g.grad(x).is_none());
    }

    #[test]
    fn param_grads_only_reports_touched_params() {
        let mut g = Graph::new();
        let w = g.param(0, Tensor::scalar(2.0));
        let _unused = g.param(1, Tensor::scalar(5.0));
        let y = g.scale(w, 3.0);
        let loss = g.sum_all(y);
        g.backward(loss);
        let grads: Vec<_> = g.param_grads().collect();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, 0);
        assert_eq!(grads[0].1.item(), 3.0);
    }
}
