//! Property-based tests for the tensor substrate.

use matsciml_tensor::{Mat3, Tensor, Vec3};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(&[rows, cols], v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(a in tensor_strategy(3, 5), b in tensor_strategy(3, 5)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates_within_tolerance(
        a in tensor_strategy(2, 4),
        b in tensor_strategy(2, 4),
        c in tensor_strategy(2, 4),
    ) {
        let lhs = a.add(&b).add(&c);
        let rhs = a.add(&b.add(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(3, 5),
        c in tensor_strategy(3, 5),
    ) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_transpose_identity(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(3, 5),
    ) {
        // (AB)^T == B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn scale_then_sum_is_linear(a in tensor_strategy(3, 3), s in -5.0f32..5.0) {
        let lhs = a.scale(s).sum();
        let rhs = a.sum() * s;
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn gather_scatter_adjoint(
        x in tensor_strategy(6, 4),
        idx in proptest::collection::vec(0u32..6, 1..12),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let y = Tensor::randn(&[idx.len(), 4], 0.0, 1.0, &mut rng);
        let lhs = x.gather_rows(&idx).mul(&y).sum();
        let rhs = x.mul(&y.scatter_add_rows(&idx, 6)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn segment_sum_conserves_mass(
        x in tensor_strategy(8, 2),
        seg in proptest::collection::vec(0u32..4, 8),
    ) {
        let pooled = x.segment_sum(&seg, 4);
        prop_assert!((pooled.sum() - x.sum()).abs() < 1e-3 * (1.0 + x.sum().abs()));
    }

    #[test]
    fn concat_split_roundtrip(a in tensor_strategy(3, 2), b in tensor_strategy(3, 4)) {
        let cat = Tensor::concat_cols(&[&a, &b]);
        let parts = cat.split_cols(&[2, 4]);
        prop_assert_eq!(&parts[0], &a);
        prop_assert_eq!(&parts[1], &b);
    }

    #[test]
    fn rotations_compose_orthogonally(
        ax in -1.0f32..1.0, ay in -1.0f32..1.0, az in -1.0f32..1.0,
        t1 in 0.0f32..std::f32::consts::TAU, t2 in 0.0f32..std::f32::consts::TAU,
    ) {
        prop_assume!(ax.abs() + ay.abs() + az.abs() > 0.1);
        let axis = Vec3::new(ax, ay, az);
        let r = Mat3::rotation(axis, t1) * Mat3::rotation(axis, t2);
        prop_assert!(r.is_orthogonal(1e-4));
        // Same-axis rotations compose additively.
        let direct = Mat3::rotation(axis, t1 + t2);
        prop_assert!(r.max_abs_diff(&direct) < 1e-4);
    }

    #[test]
    fn reflection_preserves_norm(
        nx in -1.0f32..1.0, ny in -1.0f32..1.0, nz in -1.0f32..1.0,
        vx in -5.0f32..5.0, vy in -5.0f32..5.0, vz in -5.0f32..5.0,
    ) {
        prop_assume!(nx.abs() + ny.abs() + nz.abs() > 0.1);
        let m = Mat3::reflection(Vec3::new(nx, ny, nz));
        let v = Vec3::new(vx, vy, vz);
        prop_assert!((m.apply(v).norm() - v.norm()).abs() < 1e-3);
    }
}
