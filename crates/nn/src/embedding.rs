//! Learnable embedding tables (atomic-species embeddings).

use std::sync::Arc;

use matsciml_autograd::{Graph, Var};
use matsciml_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::params::{ParamId, ParamSet};

/// A `[vocab, dim]` lookup table. Row `i` is the embedding of token `i`
/// (for the toolkit: atomic species index).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    /// The table parameter.
    pub table: ParamId,
    /// Number of rows (distinct tokens).
    pub vocab: usize,
    /// Embedding width.
    pub dim: usize,
}

impl Embedding {
    /// Register a table with `N(0, 1/sqrt(dim))` entries.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamSet,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let std = 1.0 / (dim as f32).sqrt();
        let table = ps.register(
            format!("{name}.table"),
            Tensor::randn(&[vocab, dim], 0.0, std, rng),
        );
        Embedding { table, vocab, dim }
    }

    /// Look up a batch of tokens: returns `[tokens.len(), dim]`.
    /// Lowered to a differentiable row gather, so only the rows that were
    /// looked up receive gradient.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, tokens: Arc<Vec<u32>>) -> Var {
        debug_assert!(
            tokens.iter().all(|&t| (t as usize) < self.vocab),
            "embedding token out of range"
        );
        let table = ps.leaf(g, self.table);
        g.gather_rows(table, tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_table_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let emb = Embedding::new(&mut ps, "atom", 10, 4, &mut rng);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &ps, Arc::new(vec![3, 3, 7]));
        let v = g.value(out);
        assert_eq!(v.shape(), &[3, 4]);
        assert_eq!(v.row(0), v.row(1));
        assert_eq!(v.row(0), ps.value(emb.table).row(3));
        assert_eq!(v.row(2), ps.value(emb.table).row(7));
    }

    #[test]
    fn only_looked_up_rows_receive_gradient() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ps = ParamSet::new();
        let emb = Embedding::new(&mut ps, "atom", 5, 2, &mut rng);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &ps, Arc::new(vec![1, 1, 4]));
        let loss = g.sum_all(out);
        g.backward(loss);
        ps.absorb_grads(&g, 1.0);
        let grad = ps.grad(emb.table);
        assert_eq!(&grad[0..2], &[0.0, 0.0]);
        assert_eq!(&grad[2..4], &[2.0, 2.0], "row 1 looked up twice");
        assert_eq!(&grad[8..10], &[1.0, 1.0]);
    }
}
