//! Property-based verification of the E(n)-GNN's defining symmetry
//! guarantees: graph embeddings are invariant — and per-layer coordinate
//! updates equivariant — under E(3) (rotations, translations, reflections).

use matsciml_autograd::Graph;
use matsciml_graph::{radius_graph, BatchedGraph};
use matsciml_models::{EgnnConfig, EgnnEncoder, Encoder, ModelInput};
use matsciml_nn::{ForwardCtx, ParamSet};
use matsciml_tensor::{Mat3, Tensor, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_encoder(seed: u64) -> (ParamSet, EgnnEncoder) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let enc = EgnnEncoder::new(&mut ps, EgnnConfig::small(12), &mut rng);
    (ps, enc)
}

fn input_from(species: Vec<u32>, pts: Vec<Vec3>) -> ModelInput {
    let graph = radius_graph(species, pts, 2.5, None);
    ModelInput::from_batched(&BatchedGraph::from_graphs(&[graph]))
}

fn graph_embedding(enc: &EgnnEncoder, ps: &ParamSet, input: &ModelInput) -> Tensor {
    let mut g = Graph::new();
    let mut ctx = ForwardCtx::eval();
    let e = enc.encode(&mut g, ps, &mut ctx, input);
    g.value(e).clone()
}

fn final_coords(enc: &EgnnEncoder, ps: &ParamSet, input: &ModelInput) -> Tensor {
    let mut g = Graph::new();
    let (_h, x) = enc.node_embeddings(&mut g, ps, input);
    g.value(x).clone()
}

/// Point clouds that keep the radius graph stable under the perturbations
/// below: pairwise distances bounded away from the 2.5 Å cutoff.
fn stable_cloud() -> impl Strategy<Value = Vec<Vec3>> {
    proptest::collection::vec((-0.9f32..0.9, -0.9f32..0.9, -0.9f32..0.9), 3..7).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            // Spread points on a loose helix plus jitter so no pair sits
            // exactly at the cutoff.
            .map(|(i, (x, y, z))| {
                Vec3::new(
                    x * 0.4 + (i as f32 * 1.9).cos(),
                    y * 0.4 + (i as f32 * 1.9).sin(),
                    z * 0.4 + i as f32 * 0.35,
                )
            })
            .collect()
    })
}

fn arb_rotation() -> impl Strategy<Value = Mat3> {
    (
        -1.0f32..1.0,
        -1.0f32..1.0,
        -1.0f32..1.0,
        0.0f32..std::f32::consts::TAU,
    )
        .prop_filter_map("degenerate axis", |(x, y, z, t)| {
            let axis = Vec3::new(x, y, z);
            (axis.norm() > 0.2).then(|| Mat3::rotation(axis, t))
        })
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn embedding_invariant_under_rotation(pts in stable_cloud(), rot in arb_rotation()) {
        let (ps, enc) = build_encoder(7);
        let species: Vec<u32> = (0..pts.len() as u32).map(|i| i % 5).collect();
        let base = graph_embedding(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let rotated: Vec<Vec3> = pts.iter().map(|p| rot.apply(*p)).collect();
        let out = graph_embedding(&enc, &ps, &input_from(species, rotated));
        let scale = base.as_slice().iter().map(|v| v.abs()).fold(0.1f32, f32::max);
        prop_assert!(max_abs_diff(&base, &out) < 1e-3 * scale.max(1.0),
            "rotation changed embedding by {}", max_abs_diff(&base, &out));
    }

    #[test]
    fn embedding_invariant_under_translation(
        pts in stable_cloud(),
        tx in -5.0f32..5.0, ty in -5.0f32..5.0, tz in -5.0f32..5.0,
    ) {
        let (ps, enc) = build_encoder(8);
        let species: Vec<u32> = vec![1; pts.len()];
        let base = graph_embedding(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let t = Vec3::new(tx, ty, tz);
        let moved: Vec<Vec3> = pts.iter().map(|p| *p + t).collect();
        let out = graph_embedding(&enc, &ps, &input_from(species, moved));
        prop_assert!(max_abs_diff(&base, &out) < 2e-3 * (1.0 + base.norm()),
            "translation changed embedding by {}", max_abs_diff(&base, &out));
    }

    #[test]
    fn embedding_invariant_under_reflection(pts in stable_cloud()) {
        let (ps, enc) = build_encoder(9);
        let species: Vec<u32> = vec![2; pts.len()];
        let base = graph_embedding(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let mirror = Mat3::reflection(Vec3::new(0.0, 0.0, 1.0));
        let reflected: Vec<Vec3> = pts.iter().map(|p| mirror.apply(*p)).collect();
        let out = graph_embedding(&enc, &ps, &input_from(species, reflected));
        prop_assert!(max_abs_diff(&base, &out) < 1e-3 * (1.0 + base.norm()));
    }

    #[test]
    fn coordinates_are_rotation_equivariant(pts in stable_cloud(), rot in arb_rotation()) {
        // f(R x) == R f(x) for the coordinate stream.
        let (ps, enc) = build_encoder(10);
        let species: Vec<u32> = vec![0; pts.len()];
        let out_then = final_coords(&enc, &ps, &input_from(species.clone(), pts.clone()));
        // Rotate the *output* of the unrotated pass.
        let n = out_then.rows();
        let rotated_out = Tensor::from_fn(&[n, 3], |idx| {
            let (r, c) = (idx / 3, idx % 3);
            let p = Vec3::new(out_then.at2(r, 0), out_then.at2(r, 1), out_then.at2(r, 2));
            rot.apply(p).to_array()[c]
        });
        // Pass rotated input through the network.
        let rotated_in: Vec<Vec3> = pts.iter().map(|p| rot.apply(*p)).collect();
        let out_rotated = final_coords(&enc, &ps, &input_from(species, rotated_in));
        prop_assert!(max_abs_diff(&rotated_out, &out_rotated) < 2e-3,
            "coordinate stream not equivariant: {}", max_abs_diff(&rotated_out, &out_rotated));
    }

    #[test]
    fn coordinates_are_translation_equivariant(
        pts in stable_cloud(),
        tx in -3.0f32..3.0, ty in -3.0f32..3.0, tz in -3.0f32..3.0,
    ) {
        let (ps, enc) = build_encoder(11);
        let species: Vec<u32> = vec![3; pts.len()];
        let base = final_coords(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let t = Vec3::new(tx, ty, tz);
        let moved: Vec<Vec3> = pts.iter().map(|p| *p + t).collect();
        let out = final_coords(&enc, &ps, &input_from(species, moved));
        // f(x + t) == f(x) + t
        let n = base.rows();
        let expected = Tensor::from_fn(&[n, 3], |idx| {
            let (r, c) = (idx / 3, idx % 3);
            base.at2(r, c) + t.to_array()[c]
        });
        prop_assert!(max_abs_diff(&expected, &out) < 2e-3);
    }

    #[test]
    fn rotation_keeps_embedding_invariant_and_coordinates_equivariant(
        pts in stable_cloud(),
        rot in arb_rotation(),
    ) {
        // Both symmetry proofs on one mixed-species cloud.
        let (ps, enc) = build_encoder(13);
        let species: Vec<u32> = (0..pts.len() as u32).map(|i| i % 4).collect();
        let rotated: Vec<Vec3> = pts.iter().map(|p| rot.apply(*p)).collect();
        let base = graph_embedding(&enc, &ps, &input_from(species.clone(), pts.clone()));
        let out = graph_embedding(&enc, &ps, &input_from(species.clone(), rotated.clone()));
        prop_assert!(max_abs_diff(&base, &out) < 1e-3 * (1.0 + base.norm()));
        let out_then = final_coords(&enc, &ps, &input_from(species.clone(), pts));
        let n = out_then.rows();
        let rotated_out = Tensor::from_fn(&[n, 3], |idx| {
            let (r, c) = (idx / 3, idx % 3);
            let p = Vec3::new(out_then.at2(r, 0), out_then.at2(r, 1), out_then.at2(r, 2));
            rot.apply(p).to_array()[c]
        });
        let out_rotated = final_coords(&enc, &ps, &input_from(species, rotated));
        prop_assert!(max_abs_diff(&rotated_out, &out_rotated) < 2e-3);
    }

    #[test]
    fn permutation_invariance_of_graph_embedding(pts in stable_cloud()) {
        // Relabeling atoms must not change the pooled embedding.
        let (ps, enc) = build_encoder(12);
        let species: Vec<u32> = (0..pts.len() as u32).collect();
        let base = graph_embedding(&enc, &ps, &input_from(species.clone(), pts.clone()));
        // Reverse the atom order.
        let rev_species: Vec<u32> = species.iter().rev().copied().collect();
        let rev_pts: Vec<Vec3> = pts.iter().rev().copied().collect();
        let out = graph_embedding(&enc, &ps, &input_from(rev_species, rev_pts));
        prop_assert!(max_abs_diff(&base, &out) < 1e-3 * (1.0 + base.norm()));
    }
}
