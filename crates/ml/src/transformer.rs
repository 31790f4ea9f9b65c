//! Transformer encoder layer (Eq. 9-10): multi-head self-attention and a
//! point-wise feed-forward network, each wrapped in a residual connection
//! and layer normalization (post-norm, as in the original architecture the
//! paper cites).

use crate::arena::ScratchArena;
use crate::attention::MultiHeadAttention;
use crate::layers::{LayerNorm, Linear, Module, Param, Project, Relu};
use crate::quant::QuantizedLinear;
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// Point-wise feed-forward network `FFN(x) = max(0, x W1 + b1) W2 + b2`.
/// `L` is the dense-layer weight type ([`Linear`], or [`QuantizedLinear`]
/// in the int8 snapshot).
#[derive(Debug, Clone)]
pub struct FeedForward<L = Linear> {
    pub fc1: L,
    pub fc2: L,
    relu: Relu,
}

impl FeedForward {
    pub fn new(dim: usize, hidden: usize, rng: &mut ChaCha8Rng) -> Self {
        FeedForward {
            fc1: Linear::new(dim, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
            relu: Relu::default(),
        }
    }

    pub fn quantized(&self) -> FeedForward<QuantizedLinear> {
        FeedForward {
            fc1: QuantizedLinear::from_linear(&self.fc1),
            fc2: QuantizedLinear::from_linear(&self.fc2),
            relu: Relu::default(),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let h = self.fc1.forward(x);
        let h = self.relu.forward(&h);
        self.fc2.forward(&h)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let dh = self.fc2.backward(dy);
        let dh = self.relu.backward(&dh);
        self.fc1.backward(&dh)
    }
}

impl<L: Project> FeedForward<L> {
    pub fn storage_bytes(&self) -> usize {
        self.fc1.storage_bytes() + self.fc2.storage_bytes()
    }

    /// Inference through arena-owned scratch. Row-wise, so any stack of
    /// sequences runs as one product.
    pub fn infer_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut h = self.fc1.project_in(x, s);
        Relu::infer_inplace(&mut h);
        let y = self.fc2.project_in(&h, s);
        s.give(h);
        y
    }
}

impl Module for FeedForward {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.for_each_param(f);
        self.fc2.for_each_param(f);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.fc1.for_each_param_ref(f);
        self.fc2.for_each_param_ref(f);
    }
}

/// One Transformer encoder layer:
/// `y = LN2(h + FFN(h))`, `h = LN1(x + MSA(x))`. `P` is the attention
/// projection weight type, `L` the FFN's dense-layer type; the layer norms
/// stay f32 in either instantiation.
#[derive(Debug, Clone)]
pub struct TransformerLayer<P = Param, L = Linear> {
    pub msa: MultiHeadAttention<P>,
    pub ffn: FeedForward<L>,
    pub ln1: LayerNorm,
    pub ln2: LayerNorm,
}

impl TransformerLayer {
    /// `dim` must divide by `heads`; the FFN hidden size is `2 × dim`.
    pub fn new(dim: usize, heads: usize, rng: &mut ChaCha8Rng) -> Self {
        TransformerLayer {
            msa: MultiHeadAttention::new(dim, heads, rng),
            ffn: FeedForward::new(dim, 2 * dim, rng),
            ln1: LayerNorm::new(dim),
            ln2: LayerNorm::new(dim),
        }
    }

    /// Int8 snapshot. The layer norms keep their f32 gain/bias (vectors,
    /// not matrices — quantizing them saves nothing and costs accuracy).
    pub fn quantized(&self) -> TransformerLayer<QuantizedLinear, QuantizedLinear> {
        TransformerLayer {
            msa: self.msa.quantized(),
            ffn: self.ffn.quantized(),
            ln1: self.ln1.clone(),
            ln2: self.ln2.clone(),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = self.msa.forward(x);
        h.add_assign(x);
        let h = self.ln1.forward(&h);
        let mut y = self.ffn.forward(&h);
        y.add_assign(&h);
        self.ln2.forward(&y)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d = self.ln2.backward(dy);
        // y = ffn(h) + h
        let mut dh = self.ffn.backward(&d);
        dh.add_assign(&d);
        let d = self.ln1.backward(&dh);
        // h = msa(x) + x
        let mut dx = self.msa.backward(&d);
        dx.add_assign(&d);
        dx
    }
}

impl<P: Project, L: Project> TransformerLayer<P, L> {
    pub fn storage_bytes(&self) -> usize {
        // LayerNorm gain/bias stay f32: 2 vectors × 2 norms × 4 bytes.
        let ln = 2 * 2 * 4 * self.ln1.gamma.w.cols;
        self.msa.storage_bytes() + self.ffn.storage_bytes() + ln
    }

    /// Inference over `batch` stacked sequences: attention is confined per
    /// sequence (see [`MultiHeadAttention::infer_batch_in`]); the FFN and
    /// layer norms are row-wise, so they fuse across the whole stack.
    pub fn infer_batch_in(&self, x: &Matrix, batch: usize, s: &mut ScratchArena) -> Matrix {
        let mut h = self.msa.infer_batch_in(x, batch, s);
        h.add_assign(x);
        self.ln1.infer_inplace(&mut h);
        let mut y = self.ffn.infer_in(&h, s);
        y.add_assign(&h);
        self.ln2.infer_inplace(&mut y);
        s.give(h);
        y
    }
}

impl Module for TransformerLayer {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.msa.for_each_param(f);
        self.ffn.for_each_param(f);
        self.ln1.for_each_param(f);
        self.ln2.for_each_param(f);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.msa.for_each_param_ref(f);
        self.ffn.for_each_param_ref(f);
        self.ln1.for_each_param_ref(f);
        self.ln2.for_each_param_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;
    use crate::testutil::{assert_batch_rows_match_single, max_abs_diff};

    fn infer(t: &TransformerLayer, x: &Matrix) -> Matrix {
        t.infer_batch_in(x, 1, &mut ScratchArena::new())
    }

    #[test]
    fn feed_forward_shapes() {
        let mut r = rng(1);
        let mut ffn = FeedForward::new(8, 16, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = ffn.forward(&x);
        assert_eq!((y.rows, y.cols), (5, 8));
    }

    #[test]
    fn transformer_layer_preserves_shape() {
        let mut r = rng(2);
        let mut t = TransformerLayer::new(8, 2, &mut r);
        let x = Matrix::xavier(4, 8, &mut r);
        let y = t.forward(&x);
        assert_eq!((y.rows, y.cols), (4, 8));
        // Output is layer-normalized per row.
        for row in 0..4 {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 0.2, "post-LN mean {mean}");
        }
    }

    #[test]
    fn transformer_gradient_matches_finite_difference() {
        let mut r = rng(3);
        let mut t = TransformerLayer::new(4, 2, &mut r);
        let x = Matrix::xavier(3, 4, &mut r);
        let w = Matrix::xavier(3, 4, &mut r);
        let _ = t.forward(&x);
        let dx = t.backward(&w);
        let loss = |m: &Matrix| -> f32 {
            infer(&t, m)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2f32;
        for i in [0usize, 2, 5, 9, 11] {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 0.1,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn inference_tracks_training_forward() {
        let mut r = rng(4);
        let mut t = TransformerLayer::new(8, 4, &mut r);
        let mut ffn = FeedForward::new(8, 16, &mut r);
        let x = Matrix::xavier(3, 8, &mut r);
        let a = t.forward(&x);
        assert!(max_abs_diff(&a.data, &infer(&t, &x).data) < 1e-6);
        let a = ffn.forward(&x);
        let b = ffn.infer_in(&x, &mut ScratchArena::new());
        assert!(max_abs_diff(&a.data, &b.data) < 1e-6);
    }

    #[test]
    fn batched_rows_match_single_for_f32_and_int8() {
        let mut r = rng(7);
        let t = TransformerLayer::new(8, 2, &mut r);
        let qt = t.quantized();
        let ffn = FeedForward::new(8, 16, &mut r);
        let qffn = ffn.quantized();
        assert_batch_rows_match_single(5, 8, 20, |x, b, s| t.infer_batch_in(x, b, s));
        assert_batch_rows_match_single(5, 8, 21, |x, b, s| qt.infer_batch_in(x, b, s));
        assert_batch_rows_match_single(5, 8, 22, |x, _, s| ffn.infer_in(x, s));
        assert_batch_rows_match_single(5, 8, 23, |x, _, s| qffn.infer_in(x, s));
    }

    #[test]
    fn int8_snapshot_tracks_f32_and_shrinks() {
        let mut r = rng(32);
        let t = TransformerLayer::new(16, 4, &mut r);
        let qt = t.quantized();
        let x = Matrix::xavier(9, 16, &mut r);
        let mut s = ScratchArena::new();
        let exact = t.infer_batch_in(&x, 1, &mut s);
        let quant = qt.infer_batch_in(&x, 1, &mut s);
        // Post-LN activations are O(1); the residual+LN structure keeps
        // quantization error from compounding.
        let diff = max_abs_diff(&exact.data, &quant.data);
        assert!(diff < 0.35 && diff > 0.0, "diff {diff}");
        let f32_bytes = t.num_params() * 4;
        assert!(
            qt.storage_bytes() * 3 < f32_bytes * 2,
            "{} vs {f32_bytes}",
            qt.storage_bytes()
        );
    }

    #[test]
    fn ffn_gradient_matches_finite_difference() {
        let mut r = rng(5);
        let mut ffn = FeedForward::new(4, 8, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let w = Matrix::xavier(2, 4, &mut r);
        let _ = ffn.forward(&x);
        let dx = ffn.backward(&w);
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let f = |m: &Matrix| -> f32 {
                ffn.infer_in(m, &mut ScratchArena::new())
                    .data
                    .iter()
                    .zip(w.data.iter())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 5e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn param_count_is_consistent() {
        let mut r = rng(6);
        let t = TransformerLayer::new(8, 2, &mut r);
        // MSA: 2 heads × 3 × (8×4) + Wo 64 = 192 + 64 = 256.
        // FFN: 8×16 + 16 + 16×8 + 8 = 280. LN ×2: 32.
        assert_eq!(t.num_params(), 256 + 280 + 32);
    }
}
