//! Integration tests for the normalization layers and the norm-selectable
//! output heads (the paper's Appendix A RMSNorm-vs-BatchNorm comparison).

use matsciml_autograd::Graph;
use matsciml_nn::{Activation, BatchNorm, ForwardCtx, NormKind, OutputHead, ParamSet, ResidualBlock};
use matsciml_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn batchnorm_layer_standardizes_then_applies_affine() {
    let mut ps = ParamSet::new();
    let bn = BatchNorm::new(&mut ps, "bn", 4);
    ps.value_mut(bn.gain).fill_inplace(2.0);
    ps.value_mut(bn.bias).fill_inplace(1.0);
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = Graph::new();
    let x = g.input(Tensor::randn(&[128, 4], 5.0, 3.0, &mut rng));
    let y = bn.forward(&mut g, &ps, x);
    let out = g.value(y);
    for c in 0..4 {
        let col: Vec<f32> = (0..128).map(|r| out.at2(r, c)).collect();
        let mean: f32 = col.iter().sum::<f32>() / 128.0;
        let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 128.0;
        assert!((mean - 1.0).abs() < 1e-3, "col {c}: β should set the mean, got {mean}");
        assert!((var - 4.0).abs() < 0.05, "col {c}: γ² should set the variance, got {var}");
    }
}

#[test]
fn batchnorm_output_depends_on_batch_composition() {
    // The paper's complaint, reduced to a unit test: the *same sample*
    // normalizes differently depending on its batch mates.
    let mut ps = ParamSet::new();
    let bn = BatchNorm::new(&mut ps, "bn", 2);
    let mut rng = StdRng::seed_from_u64(2);
    let base = Tensor::randn(&[4, 2], 0.0, 1.0, &mut rng);
    let other_a = Tensor::randn(&[4, 2], 0.0, 1.0, &mut rng);
    let other_b = Tensor::randn(&[4, 2], 10.0, 5.0, &mut rng);

    let first_rows = |mates: &Tensor, ps: &ParamSet| {
        let batch = Tensor::concat_rows(&[&base, mates]);
        let mut g = Graph::new();
        let x = g.input(batch);
        let y = bn.forward(&mut g, ps, x);
        g.value(y).as_slice()[..8].to_vec()
    };
    let with_a = first_rows(&other_a, &ps);
    let with_b = first_rows(&other_b, &ps);
    let diff: f32 = with_a.iter().zip(&with_b).map(|(x, y)| (x - y).abs()).sum();
    assert!(diff > 0.5, "batch statistics must leak batch composition (diff {diff})");
}

#[test]
fn rms_blocks_do_not_depend_on_batch_composition() {
    // The contrast: RMSNorm is row-wise, so the same sample embeds
    // identically regardless of batch mates.
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let block = ResidualBlock::with_norm(&mut ps, "b", 4, Activation::Selu, 0.0, NormKind::Rms, &mut rng);
    let base = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
    let mates_a = Tensor::randn(&[6, 4], 0.0, 1.0, &mut rng);
    let mates_b = Tensor::randn(&[6, 4], 9.0, 4.0, &mut rng);

    let first_rows = |mates: &Tensor| {
        let batch = Tensor::concat_rows(&[&base, mates]);
        let mut g = Graph::new();
        let mut ctx = ForwardCtx::eval();
        let x = g.input(batch);
        let y = block.forward(&mut g, &ps, &mut ctx, x);
        g.value(y).as_slice()[..8].to_vec()
    };
    assert_eq!(first_rows(&mates_a), first_rows(&mates_b));
}

#[test]
fn heads_train_with_either_norm() {
    // Both norm kinds must produce trainable heads (gradients flow, loss
    // falls on a fixed batch).
    for norm in [NormKind::Rms, NormKind::Batch] {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamSet::new();
        let head = OutputHead::with_norm(&mut ps, "h", 4, 16, 1, 2, 0.0, norm, &mut rng);
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut rng);
        let target = Tensor::randn(&[16, 1], 0.0, 1.0, &mut rng);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            ps.zero_grads();
            let mut g = Graph::new();
            let input = g.input(x.clone());
            let mut ctx = ForwardCtx::train(0);
            let y = head.forward(&mut g, &ps, &mut ctx, input);
            let loss = g.mse_loss(y, &target, None);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss);
            ps.absorb_grads(&g, 1.0);
            // Step small enough that plain SGD converges for any init draw;
            // larger steps can oscillate through the BatchNorm head.
            for (v, grad) in ps.pairs_mut() {
                matsciml_tensor::kernels::axpy(v.as_mut_slice(), grad, -0.02);
            }
        }
        assert!(
            last < first.unwrap() * 0.6,
            "{norm:?}: loss should fall, {:?} -> {last}",
            first
        );
    }
}
