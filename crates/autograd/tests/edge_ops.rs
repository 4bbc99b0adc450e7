//! The fused edge ops (`edge_rel`, `edge_concat`, `scatter_mean_rows`,
//! `weighted_scatter`) checked two ways: against central finite
//! differences, and **bit for bit** against the generic op-by-op
//! composition they replace — values, and every gradient after a full
//! backward pass, including the accumulation order when one buffer
//! receives several deltas.

use std::sync::Arc;

use matsciml_autograd::gradcheck::assert_gradients_close;
use matsciml_autograd::{Graph, Var};
use matsciml_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn seeded(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
}

/// Edge list with repeated sources (collisions) and self-avoiding dsts.
fn edge_lists(e: usize, nodes: usize) -> (Arc<Vec<u32>>, Arc<Vec<u32>>) {
    let src: Vec<u32> = (0..e).map(|i| ((i * 13 + 1) % nodes) as u32).collect();
    let dst: Vec<u32> = (0..e).map(|i| ((i * 7 + i * i + 3) % nodes) as u32).collect();
    (Arc::new(src), Arc::new(dst))
}

fn inv_from(src: &[u32], nodes: usize) -> Tensor {
    let mut deg = vec![0u32; nodes];
    for &s in src {
        deg[s as usize] += 1;
    }
    Tensor::from_fn(&[nodes, 1], |i| 1.0 / (deg[i] + 1) as f32)
}

const EPS: f32 = 1e-2;
const TOL: f64 = 2e-2;

#[test]
fn grad_edge_rel_and_concat() {
    let (src, dst) = edge_lists(9, 5);
    let params = vec![seeded(&[5, 4], 1), seeded(&[5, 3], 2)];
    assert_gradients_close(&params, EPS, TOL, |g, ps| {
        let h = g.param(0, ps[0].clone());
        let x = g.param(1, ps[1].clone());
        let rel = g.edge_rel(x, src.clone(), dst.clone());
        let cat = g.edge_concat(h, Some(rel), src.clone(), dst.clone());
        let sq = g.mul(cat, cat);
        g.mean_all(sq)
    });
}

#[test]
fn grad_edge_concat_without_rel() {
    let (src, dst) = edge_lists(7, 4);
    let params = vec![seeded(&[4, 3], 3)];
    assert_gradients_close(&params, EPS, TOL, |g, ps| {
        let h = g.param(0, ps[0].clone());
        let cat = g.edge_concat(h, None, src.clone(), dst.clone());
        let t = g.tanh(cat);
        g.sum_all(t)
    });
}

#[test]
fn grad_scatter_mean_and_weighted_scatter() {
    let (src, _) = edge_lists(11, 6);
    let inv = inv_from(&src, 6);
    let params = vec![seeded(&[11, 3], 4), seeded(&[11, 1], 5)];
    let src2 = src.clone();
    let inv2 = inv.clone();
    assert_gradients_close(&params, EPS, TOL, move |g, ps| {
        let x = g.param(0, ps[0].clone());
        let w = g.param(1, ps[1].clone());
        let mean = g.scatter_mean_rows(x, src2.clone(), 6, inv2.clone());
        let wmean = g.weighted_scatter(x, w, src2.clone(), 6, Some(inv2.clone()));
        let both = g.add(mean, wmean);
        let sq = g.mul(both, both);
        g.mean_all(sq)
    });
}

/// The full E(n)-GNN edge pipeline, once with the generic ops and once
/// with the fused ops, on the same parameter values. Everything —
/// forward value, h/x/w gradients — must agree bitwise.
#[allow(clippy::too_many_arguments)]
fn egnn_edge_pipeline(
    g: &mut Graph,
    fused: bool,
    h0: &Tensor,
    x0: &Tensor,
    wcol: &Tensor,
    src: &Arc<Vec<u32>>,
    dst: &Arc<Vec<u32>>,
    inv: &Tensor,
    n: usize,
) -> (Var, Var, Var, Var) {
    let h = g.param(0, h0.clone());
    let x = g.param(1, x0.clone());
    let w = g.param(2, wcol.clone());
    if fused {
        let rel = g.edge_rel(x, src.clone(), dst.clone());
        let msg_in = g.edge_concat(h, Some(rel), src.clone(), dst.clone());
        let agg_x = g.weighted_scatter(rel, w, src.clone(), n, Some(inv.clone()));
        let x_new = g.add(x, agg_x);
        let agg_m = g.scatter_mean_rows(msg_in, src.clone(), n, inv.clone());
        let loss = {
            let sx = g.sum_all(x_new);
            let sm = g.sum_all(agg_m);
            let t = g.add(sx, sm);
            let sq = g.mul(t, t);
            g.sum_all(sq)
        };
        (h, x, w, loss)
    } else {
        let hi = g.gather_rows(h, src.clone());
        let hj = g.gather_rows(h, dst.clone());
        let xi = g.gather_rows(x, src.clone());
        let xj = g.gather_rows(x, dst.clone());
        let rel = g.sub(xi, xj);
        let relsq = g.mul(rel, rel);
        let d2 = g.row_sum(relsq);
        let msg_in = g.concat_cols(&[hi, hj, d2]);
        let moved = g.mul_col(rel, w);
        let agg_raw = g.scatter_add_rows(moved, src.clone(), n);
        let inv_var = g.input(inv.clone());
        let agg_x = g.mul_col(agg_raw, inv_var);
        let x_new = g.add(x, agg_x);
        let agg_m_raw = g.scatter_add_rows(msg_in, src.clone(), n);
        let inv_var2 = g.input(inv.clone());
        let agg_m = g.mul_col(agg_m_raw, inv_var2);
        let loss = {
            let sx = g.sum_all(x_new);
            let sm = g.sum_all(agg_m);
            let t = g.add(sx, sm);
            let sq = g.mul(t, t);
            g.sum_all(sq)
        };
        (h, x, w, loss)
    }
}

#[test]
fn fused_pipeline_matches_generic_composition_bitwise() {
    // Odd edge count, repeated sources, a node with no out-edges.
    for (e, nodes) in [(1usize, 2usize), (9, 5), (57, 13), (301, 40)] {
        let (src, dst) = edge_lists(e, nodes);
        let inv = inv_from(&src, nodes);
        let h0 = seeded(&[nodes, 6], e as u64);
        let x0 = seeded(&[nodes, 3], e as u64 + 1);
        let wcol = seeded(&[e, 1], e as u64 + 2);

        let mut ga = Graph::new();
        let (ha, xa, wa, la) =
            egnn_edge_pipeline(&mut ga, false, &h0, &x0, &wcol, &src, &dst, &inv, nodes);
        ga.backward(la);

        let mut gb = Graph::new();
        let (hb, xb, wb, lb) =
            egnn_edge_pipeline(&mut gb, true, &h0, &x0, &wcol, &src, &dst, &inv, nodes);
        gb.backward(lb);

        assert_eq!(
            ga.value(la).item().to_bits(),
            gb.value(lb).item().to_bits(),
            "e={e}: loss diverged"
        );
        for (name, a, b) in [("h", ha, hb), ("x", xa, xb), ("w", wa, wb)] {
            let da = ga.grad(a).expect("generic grad");
            let db = gb.grad(b).expect("fused grad");
            for (i, (&p, &q)) in da.as_slice().iter().zip(db.as_slice()).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "e={e}: grad {name}[{i}] diverged: {p} vs {q}"
                );
            }
        }
        // The fused tape is strictly shorter.
        assert!(
            gb.len() < ga.len(),
            "fused tape ({}) not shorter than generic ({})",
            gb.len(),
            ga.len()
        );
    }
}

#[test]
fn mpnn_concat_matches_generic_composition_bitwise() {
    let (src, dst) = edge_lists(23, 7);
    let h0 = seeded(&[7, 5], 9);

    let mut ga = Graph::new();
    let h = ga.param(0, h0.clone());
    let hi = ga.gather_rows(h, src.clone());
    let hj = ga.gather_rows(h, dst.clone());
    let cat = ga.concat_cols(&[hi, hj]);
    let agg = ga.scatter_add_rows(cat, src.clone(), 7);
    let la = ga.sum_all(agg);
    ga.backward(la);

    let mut gb = Graph::new();
    let h2 = gb.param(0, h0.clone());
    let cat2 = gb.edge_concat(h2, None, src.clone(), dst.clone());
    let agg2 = gb.scatter_add_rows(cat2, src.clone(), 7);
    let lb = gb.sum_all(agg2);
    gb.backward(lb);

    assert_eq!(ga.value(la).item().to_bits(), gb.value(lb).item().to_bits());
    let (da, db) = (ga.grad(h).unwrap(), gb.grad(h2).unwrap());
    for (i, (&p, &q)) in da.as_slice().iter().zip(db.as_slice()).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "grad h[{i}]: {p} vs {q}");
    }
}

#[test]
fn zero_edge_fused_ops_are_well_defined() {
    let empty: Arc<Vec<u32>> = Arc::new(vec![]);
    let mut g = Graph::new();
    let h = g.param(0, seeded(&[4, 3], 11));
    let x = g.param(1, seeded(&[4, 3], 12));
    let rel = g.edge_rel(x, empty.clone(), empty.clone());
    let cat = g.edge_concat(h, Some(rel), empty.clone(), empty.clone());
    assert_eq!(g.value(cat).shape(), &[0, 7]);
    let inv = Tensor::ones(&[4, 1]);
    let agg = g.scatter_mean_rows(cat, empty.clone(), 4, inv);
    let loss = g.sum_all(agg);
    assert_eq!(g.value(loss).item(), 0.0);
    g.backward(loss);
    assert!(g.grad(h).unwrap().as_slice().iter().all(|&v| v == 0.0));
}

/// `edge_concat → linear` computes the source half `h[src] · w[..H]` once
/// per node and gathers it. The tape must not be able to tell: the same
/// `linear` over an input leaf holding the concat's values gives the same
/// value and every gradient bit (weight, bias, and the input's).
#[test]
fn linear_over_edge_concat_matches_linear_over_a_leaf_bitwise() {
    use matsciml_tensor::Act;
    // Hidden 16: the first two shapes take the split, the third (E < N)
    // does not.
    let hd = 16;
    for (rel, e, nodes, split) in [(true, 23usize, 7usize, true), (false, 11, 5, true), (true, 3, 6, false)] {
        assert_eq!(matsciml_tensor::fused::source_split_pays(nodes, e, hd), split, "E {e} N {nodes}");
        let (src, dst) = edge_lists(e, nodes);
        let mut h0 = seeded(&[nodes, hd], 13);
        h0.as_mut_slice().iter_mut().step_by(4).for_each(|v| *v = -0.0);
        let x0 = seeded(&[nodes, 3], 14);
        let k = 2 * hd + usize::from(rel);
        let (w0, b0) = (seeded(&[k, 9], 15), seeded(&[9], 16));

        let mut ga = Graph::new();
        let h = ga.param(0, h0.clone());
        let x = ga.param(1, x0.clone());
        let r = rel.then(|| ga.edge_rel(x, src.clone(), dst.clone()));
        let cat = ga.edge_concat(h, r, src.clone(), dst.clone());
        let (w, b) = (ga.param(2, w0.clone()), ga.param(3, b0.clone()));
        let ya = ga.linear(cat, w, Some(b), Act::Silu);
        let sq = ga.mul(ya, ya);
        let la = ga.sum_all(sq);
        ga.backward(la);

        let mut gb = Graph::new();
        let leaf = gb.input(ga.value(cat).clone());
        let (w2, b2) = (gb.param(2, w0.clone()), gb.param(3, b0.clone()));
        let yb = gb.linear(leaf, w2, Some(b2), Act::Silu);
        let sq2 = gb.mul(yb, yb);
        let lb = gb.sum_all(sq2);
        gb.backward(lb);

        let same = |p: &Tensor, q: &Tensor, what: &str| {
            assert_eq!(p.shape(), q.shape(), "{what} shape (rel {rel})");
            for (i, (&u, &v)) in p.as_slice().iter().zip(q.as_slice()).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}[{i}] (rel {rel}): {u} vs {v}");
            }
        };
        same(ga.value(ya), gb.value(yb), "y");
        same(ga.grad(w).unwrap(), gb.grad(w2).unwrap(), "dw");
        same(ga.grad(b).unwrap(), gb.grad(b2).unwrap(), "db");
        same(ga.grad(cat).unwrap(), gb.grad(leaf).unwrap(), "dx");
    }
}
