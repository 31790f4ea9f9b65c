//! Property-based gradient checks: for random layer shapes and random
//! inputs, the analytic input gradient must match central finite
//! differences. This is the strongest single invariant a hand-written
//! backprop library can carry. A readout transformer layer (last-row
//! queries) must also match the same layer run on every row, bit for bit.

use mpgraph_ml::layers::{LayerNorm, Linear, Module, Sigmoid};
use mpgraph_ml::lstm::Lstm;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::transformer::TransformerLayer;
use mpgraph_ml::{ScratchArena, SelfAttention};
use proptest::prelude::*;

/// L = sum(f(x) ⊙ w); returns |numeric - analytic| max over sampled coords.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(t: &TransformerLayer) -> Vec<u32> {
    let mut g = Vec::new();
    t.for_each_param_ref(&mut |p| g.extend(bits(&p.g.data)));
    g
}

fn check(
    x: &Matrix,
    w: &Matrix,
    dx: &Matrix,
    mut f: impl FnMut(&Matrix) -> Matrix,
    coords: &[usize],
) -> f32 {
    let eps = 1e-2f32;
    let loss = |m: &Matrix, f: &mut dyn FnMut(&Matrix) -> Matrix| -> f32 {
        f(m).data
            .iter()
            .zip(w.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    };
    let mut worst = 0.0f32;
    for &i in coords {
        let mut xp = x.clone();
        xp.data[i] += eps;
        let mut xm = x.clone();
        xm.data[i] -= eps;
        let num = (loss(&xp, &mut f) - loss(&xm, &mut f)) / (2.0 * eps);
        worst = worst.max((num - dx.data[i]).abs());
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn linear_grad(seed in 0u64..1000, rows in 1usize..4, din in 1usize..6, dout in 1usize..6) {
        let mut r = rng(seed);
        let mut l = Linear::new(din, dout, &mut r);
        let x = Matrix::xavier(rows, din, &mut r);
        let w = Matrix::xavier(rows, dout, &mut r);
        let _ = l.forward(&x);
        let dx = l.backward(&w);
        let l2 = l.clone();
        let coords: Vec<usize> = (0..x.data.len()).collect();
        let worst = check(&x, &w, &dx, |m| l2.infer(m), &coords);
        prop_assert!(worst < 2e-2, "worst {}", worst);
    }

    #[test]
    fn sigmoid_grad(seed in 0u64..1000, n in 1usize..8) {
        let mut r = rng(seed);
        let x = Matrix::xavier(1, n, &mut r);
        let w = Matrix::xavier(1, n, &mut r);
        let mut s = Sigmoid::default();
        let _ = s.forward(&x);
        let dx = s.backward(&w);
        let coords: Vec<usize> = (0..n).collect();
        let worst = check(&x, &w, &dx, |m| Sigmoid::infer(m), &coords);
        prop_assert!(worst < 1e-2, "worst {}", worst);
    }

    #[test]
    fn layernorm_grad(seed in 0u64..1000, rows in 1usize..3, dim in 2usize..7) {
        let mut r = rng(seed);
        let mut ln = LayerNorm::new(dim);
        // random gain/bias to exercise the full backward
        ln.gamma.w = Matrix::xavier(1, dim, &mut r);
        ln.beta.w = Matrix::xavier(1, dim, &mut r);
        let x = Matrix::xavier(rows, dim, &mut r);
        let w = Matrix::xavier(rows, dim, &mut r);
        let _ = ln.forward(&x);
        let dx = ln.backward(&w);
        let ln2 = ln.clone();
        let coords: Vec<usize> = (0..x.data.len()).collect();
        let worst = check(&x, &w, &dx, |m| ln2.infer(m), &coords);
        prop_assert!(worst < 6e-2, "worst {}", worst);
    }

    #[test]
    fn attention_grad(seed in 0u64..1000, s in 2usize..5, din in 2usize..5, dh in 1usize..4) {
        let mut r = rng(seed);
        let mut a = SelfAttention::new(din, dh, &mut r);
        let x = Matrix::xavier(s, din, &mut r);
        let w = Matrix::xavier(s, dh, &mut r);
        let _ = a.forward(&x, &x);
        let dx = a.backward(&w);
        let coords: Vec<usize> = (0..x.data.len()).step_by(2).collect();
        let worst = check(&x, &w, &dx, |m| a.infer_batch_in(m, m, 1, &mut ScratchArena::new()), &coords);
        prop_assert!(worst < 5e-2, "worst {}", worst);
    }

    #[test]
    fn lstm_grad(seed in 0u64..1000, s in 1usize..4, din in 1usize..4, h in 1usize..4) {
        let mut r = rng(seed);
        let mut l = Lstm::new(din, h, &mut r);
        let x = Matrix::xavier(s, din, &mut r);
        let w = Matrix::xavier(s, h, &mut r);
        let _ = l.forward(&x);
        let dx = l.backward(&w);
        let coords: Vec<usize> = (0..x.data.len()).collect();
        let worst = check(&x, &w, &dx, |m| l.infer_batch_in(m, 1, &mut ScratchArena::new()), &coords);
        prop_assert!(worst < 3e-2, "worst {}", worst);
    }

    #[test]
    fn transformer_grad(seed in 0u64..500, s in 2usize..4) {
        // LayerNorm + ReLU kinks make pointwise f32 finite differences
        // noisy; require directional agreement (cosine similarity) of the
        // full gradient vectors instead.
        let mut r = rng(seed);
        let dim = 4;
        let mut t = TransformerLayer::new(dim, 2, &mut r);
        let x = Matrix::xavier(s, dim, &mut r);
        let w = Matrix::xavier(s, dim, &mut r);
        let _ = t.forward(&x, &x);
        let dx = t.backward(&w);
        let eps = 1e-2f32;
        let loss = |m: &Matrix| -> f32 {
            t.infer_batch_in(m, m, 1, &mut ScratchArena::new()).data.iter().zip(w.data.iter()).map(|(a, b)| a * b).sum()
        };
        let mut numeric = vec![0.0f32; x.data.len()];
        for (i, n) in numeric.iter_mut().enumerate() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            *n = (loss(&xp) - loss(&xm)) / (2.0 * eps);
        }
        let dot: f32 = numeric.iter().zip(dx.data.iter()).map(|(a, b)| a * b).sum();
        let na: f32 = numeric.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = dx.data.iter().map(|v| v * v).sum::<f32>().sqrt();
        if na > 1e-3 && nb > 1e-3 {
            let cos = dot / (na * nb);
            prop_assert!(cos > 0.95, "cosine {}", cos);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A readout layer — queries only at each sequence's last row, keys and
    /// values over every row — equals the full-sequence layer bit for bit:
    /// its output is the full output's last rows (f32 and int8), and after
    /// backward every parameter gradient and the input gradient equal the
    /// full pass's when the full pass gets `dy` zero-padded to every row.
    #[test]
    fn readout_layer_matches_full_layer_bit_for_bit(
        seed in 0u64..10_000,
        batch in 1usize..6,
        seq in 1usize..11,
        heads in 1usize..4,
        head_dim in 1usize..6,
    ) {
        let dim = heads * head_dim;
        let mut r = rng(seed);
        let layer = TransformerLayer::new(dim, heads, &mut r);
        let x = Matrix::xavier(batch * seq, dim, &mut r);
        let mut s = ScratchArena::new();
        let q = s.last_rows(&x, batch);
        let int8 = layer.quantized();
        let readout = layer.infer_batch_in(&q, &x, batch, &mut s);
        let full = layer.infer_batch_in(&x, &x, batch, &mut s);
        prop_assert_eq!(bits(&readout.data), bits(&s.last_rows(&full, batch).data));
        let readout = int8.infer_batch_in(&q, &x, batch, &mut s);
        let full = int8.infer_batch_in(&x, &x, batch, &mut s);
        prop_assert_eq!(bits(&readout.data), bits(&s.last_rows(&full, batch).data));

        // Training runs one sequence at a time; gradients accumulate over
        // the batch.
        let (mut pruned, mut whole) = (layer.clone(), layer);
        for b in 0..batch {
            let xb = Matrix::from_vec(seq, dim, x.data[b * seq * dim..(b + 1) * seq * dim].to_vec());
            let y = pruned.forward(&s.last_rows(&xb, 1), &xb);
            let y_full = whole.forward(&xb, &xb);
            prop_assert_eq!(bits(&y.data), bits(y_full.row(seq - 1)));
            let dy = Matrix::xavier(1, dim, &mut r);
            let mut dy_full = Matrix::zeros(seq, dim);
            dy_full.row_mut(seq - 1).copy_from_slice(&dy.data);
            let dx = pruned.backward(&dy);
            let dx_full = whole.backward(&dy_full);
            prop_assert_eq!(bits(&dx.data), bits(&dx_full.data));
        }
        prop_assert_eq!(grad_bits(&pruned), grad_bits(&whole));
    }
}
