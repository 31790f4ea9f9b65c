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

    /// Training forward over one sequence. Keys and values cover every
    /// row of `xkv`; the queries `xq` are its trailing rows — the whole
    /// sequence for a full layer (pass the same matrix twice), its last row
    /// for a readout layer, whose output is then that row alone. Returns
    /// `[xq.rows, dim]`.
    pub fn forward(&mut self, xq: &Matrix, xkv: &Matrix) -> Matrix {
        let mut h = self.msa.forward(xq, xkv);
        h.add_assign(xq);
        let h = self.ln1.forward(&h);
        let mut y = self.ffn.forward(&h);
        y.add_assign(&h);
        self.ln2.forward(&y)
    }

    /// Backward from `dy` (`[xq.rows, dim]`). Returns the gradient with
    /// respect to the whole sequence, `[xkv.rows, dim]`; which rows were
    /// queries follows from the two cached shapes.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d = self.ln2.backward(dy);
        // y = ffn(h) + h
        let mut dh = self.ffn.backward(&d);
        dh.add_assign(&d);
        let d = self.ln1.backward(&dh);
        // h = msa(xq, xkv) + xq: the residual lands on the query rows.
        let mut dx = self.msa.backward(&d);
        let query_rows = dx.data.len() - d.data.len();
        for (a, b) in dx.data[query_rows..].iter_mut().zip(&d.data) {
            *a += b;
        }
        dx
    }
}

impl<P: Project, L: Project> TransformerLayer<P, L> {
    pub fn storage_bytes(&self) -> usize {
        // LayerNorm gain/bias stay f32: 2 vectors × 2 norms × 4 bytes.
        let ln = 2 * 2 * 4 * self.ln1.gamma.w.cols;
        self.msa.storage_bytes() + self.ffn.storage_bytes() + ln
    }

    /// Inference over `batch` stacked sequences `xkv`, computing the rows
    /// of `xq`: the whole stack (`xq` is `xkv`) or each sequence's last row
    /// (a readout layer). Attention is confined per sequence (see
    /// [`MultiHeadAttention::infer_batch_in`]); the FFN and layer norms are
    /// row-wise, so they fuse across the whole stack and a row nobody
    /// queries costs nothing. Returns `[xq.rows, dim]`.
    pub fn infer_batch_in(
        &self,
        xq: &Matrix,
        xkv: &Matrix,
        batch: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let mut h = self.msa.infer_batch_in(xq, xkv, batch, s);
        h.add_assign(xq);
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

/// Runs an encoder stack over `batch` stacked sequences `h` and returns the
/// last-position readout of each sequence, `[batch, dim]`. Every layer but
/// the last runs the full sequence; the last takes only each sequence's
/// last row as its query, over keys and values from every row, so the rows
/// nobody reads are never computed. Each output row is computed from its
/// own input rows alone in every step (projections, scores, softmax, layer
/// norm, FFN), so the readout is bit-identical to running the last layer
/// in full and keeping its last rows. `h` goes back to `s`.
pub fn readout_infer_batch_in<P: Project, L: Project>(
    layers: &[TransformerLayer<P, L>],
    mut h: Matrix,
    batch: usize,
    s: &mut ScratchArena,
) -> Matrix {
    let (last, full) = layers.split_last().expect("a readout needs a layer");
    for t in full {
        let h2 = t.infer_batch_in(&h, &h, batch, s);
        s.give(h);
        h = h2;
    }
    let q = s.last_rows(&h, batch);
    let y = last.infer_batch_in(&q, &h, batch, s);
    s.give(q);
    s.give(h);
    y
}

/// Training counterpart of [`readout_infer_batch_in`] for one sequence:
/// returns its `[1, dim]` last-position readout.
pub fn readout_forward(layers: &mut [TransformerLayer], mut h: Matrix) -> Matrix {
    let (last, full) = layers.split_last_mut().expect("a readout needs a layer");
    for t in full {
        h = t.forward(&h, &h);
    }
    let q = Matrix::from_vec(1, h.cols, h.row(h.rows - 1).to_vec());
    last.forward(&q, &h)
}

/// Backward through [`readout_forward`] from the readout gradient
/// `[1, dim]`; returns the gradient with respect to the stack's input,
/// `[T, dim]`. The rows the readout never computed only ever carried
/// exact-zero gradient, so every parameter gradient is bit-identical to
/// the full-sequence backward's.
pub fn readout_backward(layers: &mut [TransformerLayer], d: &Matrix) -> Matrix {
    let (last, full) = layers.split_last_mut().expect("a readout needs a layer");
    let mut dh = last.backward(d);
    for t in full.iter_mut().rev() {
        dh = t.backward(&dh);
    }
    dh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;
    use crate::testutil::{assert_batch_rows_match_single, max_abs_diff};

    fn infer(t: &TransformerLayer, x: &Matrix) -> Matrix {
        t.infer_batch_in(x, x, 1, &mut ScratchArena::new())
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
        let y = t.forward(&x, &x);
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
        let _ = t.forward(&x, &x);
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
        let a = t.forward(&x, &x);
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
        assert_batch_rows_match_single(5, 8, 20, |x, b, s| t.infer_batch_in(x, x, b, s));
        assert_batch_rows_match_single(5, 8, 21, |x, b, s| qt.infer_batch_in(x, x, b, s));
        assert_batch_rows_match_single(5, 8, 22, |x, _, s| ffn.infer_in(x, s));
        assert_batch_rows_match_single(5, 8, 23, |x, _, s| qffn.infer_in(x, s));
    }

    /// Last rows of every sequence after running `layers` in full.
    fn full_stack_last_rows<P: Project, L: Project>(
        layers: &[TransformerLayer<P, L>],
        x: &Matrix,
        batch: usize,
    ) -> Vec<f32> {
        let mut s = ScratchArena::new();
        let mut h = x.clone();
        for t in layers {
            h = t.infer_batch_in(&h, &h, batch, &mut s);
        }
        s.last_rows(&h, batch).data
    }

    #[test]
    fn readout_matches_full_stack_last_rows_for_f32_and_int8() {
        let mut r = rng(8);
        let layers = vec![
            TransformerLayer::new(8, 2, &mut r),
            TransformerLayer::new(8, 2, &mut r),
        ];
        let qlayers: Vec<_> = layers.iter().map(TransformerLayer::quantized).collect();
        let mut s = ScratchArena::new();
        for (batch, seq) in [(1usize, 5usize), (3, 4), (8, 9)] {
            let x = Matrix::xavier(batch * seq, 8, &mut r);
            let y = readout_infer_batch_in(&layers, x.clone(), batch, &mut s);
            let want = full_stack_last_rows(&layers, &x, batch);
            assert_eq!(y.data, want, "f32 B={batch} T={seq}");
            let y = readout_infer_batch_in(&qlayers, x.clone(), batch, &mut s);
            let want = full_stack_last_rows(&qlayers, &x, batch);
            assert_eq!(y.data, want, "int8 B={batch} T={seq}");
        }
    }

    #[test]
    fn int8_snapshot_tracks_f32_and_shrinks() {
        let mut r = rng(32);
        let t = TransformerLayer::new(16, 4, &mut r);
        let qt = t.quantized();
        let x = Matrix::xavier(9, 16, &mut r);
        let mut s = ScratchArena::new();
        let exact = t.infer_batch_in(&x, &x, 1, &mut s);
        let quant = qt.infer_batch_in(&x, &x, 1, &mut s);
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
