//! The batched model input: index vectors + coordinate matrix extracted
//! from a [`BatchedGraph`].

use std::sync::Arc;

use matsciml_graph::BatchedGraph;
use matsciml_tensor::Tensor;

/// Everything an encoder needs from a batch: `Arc`'d index vectors
/// (shared into gather/scatter ops without copying) and the per-node
/// float data.
///
/// The float data is kept as plain vectors, not tensors: a `ModelInput`
/// is usually built on a read-ahead worker and consumed on a rank thread,
/// and a tensor's buffer returns to the buffer pool of the thread that
/// drops it. The encoder builds its tensors with [`Self::coords_tensor`]
/// and [`Self::inv_degree_tensor`] on the thread that records the tape,
/// whose pool the tape's reset refills.
#[derive(Debug, Clone)]
pub struct ModelInput {
    /// Species token per node.
    pub species: Arc<Vec<u32>>,
    /// Node coordinates, row-major `[n, 3]`.
    pub coords: Arc<Vec<f32>>,
    /// Edge sources.
    pub src: Arc<Vec<u32>>,
    /// Edge destinations.
    pub dst: Arc<Vec<u32>>,
    /// Node → graph segment ids.
    pub graph_ids: Arc<Vec<u32>>,
    /// `1 / (in-degree + 1)` per node — the mean-aggregation normalizer
    /// for the E(n)-GNN coordinate update.
    pub inv_degree: Arc<Vec<f32>>,
    /// Number of graphs in the batch.
    pub num_graphs: usize,
}

impl ModelInput {
    /// Extract from a batched graph.
    pub fn from_batched(batch: &BatchedGraph) -> Self {
        let n = batch.num_nodes();
        let mut degree = vec![0u32; n];
        for &s in &batch.merged.src {
            degree[s as usize] += 1;
        }
        let inv_degree = degree.iter().map(|&d| 1.0 / (d + 1) as f32).collect();
        ModelInput {
            species: Arc::new(batch.merged.species.clone()),
            coords: Arc::new(batch.merged.positions_flat()),
            src: Arc::new(batch.merged.src.clone()),
            dst: Arc::new(batch.merged.dst.clone()),
            graph_ids: Arc::new(batch.graph_ids.clone()),
            inv_degree: Arc::new(inv_degree),
            num_graphs: batch.num_graphs,
        }
    }

    /// The `[n, 3]` coordinate matrix as a tensor drawn from the calling
    /// thread's buffer pool.
    pub fn coords_tensor(&self) -> Tensor {
        Tensor::from_fn(&[self.num_nodes(), 3], |i| self.coords[i])
    }

    /// The `[n, 1]` inverse-degree column as a tensor drawn from the
    /// calling thread's buffer pool.
    pub fn inv_degree_tensor(&self) -> Tensor {
        Tensor::from_fn(&[self.num_nodes(), 1], |i| self.inv_degree[i])
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.species.len()
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matsciml_graph::MaterialGraph;
    use matsciml_tensor::Vec3;

    #[test]
    fn extraction_matches_batch() {
        let mut g1 = MaterialGraph::new(vec![1, 2], vec![Vec3::zero(), Vec3::new(1.0, 0.0, 0.0)]);
        g1.add_edge(0, 1);
        g1.add_edge(1, 0);
        let g2 = MaterialGraph::new(vec![3], vec![Vec3::new(0.0, 2.0, 0.0)]);
        let batch = BatchedGraph::from_graphs(&[g1, g2]);
        let input = ModelInput::from_batched(&batch);
        assert_eq!(input.num_nodes(), 3);
        assert_eq!(input.num_edges(), 2);
        assert_eq!(input.num_graphs, 2);
        let coords = input.coords_tensor();
        assert_eq!(coords.shape(), &[3, 3]);
        assert_eq!(coords.at2(2, 1), 2.0);
        // Degrees: nodes 0 and 1 have one out-edge, node 2 none.
        let inv_degree = input.inv_degree_tensor();
        assert_eq!(inv_degree.shape(), &[3, 1]);
        assert_eq!(inv_degree.at(0), 0.5);
        assert_eq!(inv_degree.at(2), 1.0);
        assert_eq!(&*input.graph_ids, &[0, 0, 1]);
    }
}
