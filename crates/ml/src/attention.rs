//! Scaled dot-product attention (Eq. 7 of the paper) in single-head and
//! multi-head (Eq. 9) forms, with full backward passes.

use crate::arena::ScratchArena;
use crate::layers::{Module, Param, Project};
use crate::quant::QuantizedLinear;
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// Single-head self-attention: `Y = softmax(Q K^T / sqrt(d)) V` with
/// `Q = Xq Wq`, `K = X Wk`, `V = X Wv`, where the query rows `Xq` are `X`
/// itself or, in a readout layer, the last row of each sequence. This is
/// the "self-attention layer" AMMA applies to each input modality. `W` is the projection weight type:
/// [`Param`] for the trained model, [`QuantizedLinear`] for its int8
/// snapshot.
#[derive(Debug, Clone)]
pub struct SelfAttention<W = Param> {
    pub wq: W,
    pub wk: W,
    pub wv: W,
    head_dim: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    xq: Matrix,
    xkv: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: Matrix, // post-softmax weights
}

impl SelfAttention {
    pub fn new(in_dim: usize, head_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        SelfAttention {
            wq: Param::xavier(in_dim, head_dim, rng),
            wk: Param::xavier(in_dim, head_dim, rng),
            wv: Param::xavier(in_dim, head_dim, rng),
            head_dim,
            cache: None,
        }
    }

    /// Int8 snapshot: the three projections quantized per output channel.
    pub fn quantized(&self) -> SelfAttention<QuantizedLinear> {
        SelfAttention {
            wq: QuantizedLinear::from_param(&self.wq),
            wk: QuantizedLinear::from_param(&self.wk),
            wv: QuantizedLinear::from_param(&self.wv),
            head_dim: self.head_dim,
            cache: None,
        }
    }

    /// Training forward over one sequence. Keys and values cover every
    /// row of `xkv`; the queries `xq` are its trailing `xq.rows` rows — all
    /// of them for a full-sequence layer (pass the same matrix twice), the
    /// last one for a readout layer. Returns `[xq.rows, head_dim]`.
    pub fn forward(&mut self, xq: &Matrix, xkv: &Matrix) -> Matrix {
        assert!(xq.rows <= xkv.rows, "queries are rows of the sequence");
        let q = xq.matmul(&self.wq.w);
        let k = xkv.matmul(&self.wk.w);
        let v = xkv.matmul(&self.wv.w);
        let mut scores = q.matmul_bt(&k);
        scores.scale(1.0 / (self.head_dim as f32).sqrt());
        let attn = scores.softmax_rows();
        let y = attn.matmul(&v);
        self.cache = Some(AttnCache {
            xq: xq.clone(),
            xkv: xkv.clone(),
            q,
            k,
            v,
            attn,
        });
        y
    }

    /// Backward from `dy` (`[xq.rows, head_dim]`). Returns the gradient
    /// with respect to the whole sequence, `[xkv.rows, in_dim]`: the query
    /// term lands on the trailing query rows, the key and value terms on
    /// every row.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let c = self.cache.as_ref().expect("forward before backward");
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Y = A V
        let d_attn = dy.matmul_bt(&c.v);
        let dv = c.attn.matmul_at(dy);
        // A = softmax(S)
        let mut ds = Matrix::softmax_rows_backward(&c.attn, &d_attn);
        ds.scale(scale);
        // S = Q K^T (scaled already folded into ds)
        let dq = ds.matmul(&c.k);
        let dk = ds.matmul_at(&c.q);
        // Parameter grads.
        self.wq.g.add_assign(&c.xq.matmul_at(&dq));
        self.wk.g.add_assign(&c.xkv.matmul_at(&dk));
        self.wv.g.add_assign(&c.xkv.matmul_at(&dv));
        // Input grad.
        let mut dx = Matrix::zeros(c.xkv.rows, c.xkv.cols);
        let dxq = dq.matmul_bt(&self.wq.w);
        let query_rows = dx.data.len() - dxq.data.len();
        dx.data[query_rows..].copy_from_slice(&dxq.data);
        dx.add_assign(&dk.matmul_bt(&self.wk.w));
        dx.add_assign(&dv.matmul_bt(&self.wv.w));
        dx
    }
}

impl<W: Project> SelfAttention<W> {
    pub fn out_dim(&self) -> usize {
        self.head_dim
    }

    pub fn storage_bytes(&self) -> usize {
        self.wq.storage_bytes() + self.wk.storage_bytes() + self.wv.storage_bytes()
    }

    /// Inference over `batch` stacked sequences: `xkv` is
    /// `[batch * seq, in_dim]` with each sequence occupying a contiguous
    /// block of rows (a single window is `batch = 1`), and `xq` holds the
    /// query rows of each sequence, `[batch * nq, in_dim]` — the whole
    /// sequence (`xq` is `xkv`) or its last row (a readout layer). The
    /// Q/K/V projections — shared by every row — run as single fused
    /// products over the whole stack; attention itself is confined to each
    /// sequence's own `[nq, seq]` score block. Every output row depends on
    /// its own query row and its sequence's keys and values alone, so it is
    /// bit-identical whether its sequence runs alone or in a batch, and
    /// whether the other query rows run or not. Returns `[batch * nq,
    /// head_dim]`. Scratch comes from `s`; the caller gives the result
    /// back.
    pub fn infer_batch_in(
        &self,
        xq: &Matrix,
        xkv: &Matrix,
        batch: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        assert!(
            batch > 0 && xkv.rows.is_multiple_of(batch) && xq.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        let (seq, nq) = (xkv.rows / batch, xq.rows / batch);
        let hd = self.head_dim;
        let q = self.wq.project_in(xq, s);
        let k = self.wk.project_in(xkv, s);
        let v = self.wv.project_in(xkv, s);
        let mut y = s.take(xq.rows, hd);
        let mut qb = s.take(nq, hd);
        let mut kb = s.take(seq, hd);
        let mut vb = s.take(seq, hd);
        let mut yb = s.take(nq, hd);
        let mut scores = s.take(nq, seq);
        for b in 0..batch {
            let q_span = b * nq * hd..(b + 1) * nq * hd;
            let kv_span = b * seq * hd..(b + 1) * seq * hd;
            qb.data.copy_from_slice(&q.data[q_span.clone()]);
            kb.data.copy_from_slice(&k.data[kv_span.clone()]);
            vb.data.copy_from_slice(&v.data[kv_span]);
            qb.matmul_bt_into(&kb, &mut scores);
            scores.scale(1.0 / (hd as f32).sqrt());
            scores.softmax_rows_inplace();
            scores.matmul_into(&vb, &mut yb);
            y.data[q_span].copy_from_slice(&yb.data);
        }
        for m in [qb, kb, vb, yb, scores, q, k, v] {
            s.give(m);
        }
        y
    }
}

impl Module for SelfAttention {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wq);
        f(&self.wk);
        f(&self.wv);
    }
}

/// Multi-head self-attention (Eq. 9): H parallel heads of dimension
/// `dim / heads`, concatenated and projected by `Wo`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention<W = Param> {
    pub heads: Vec<SelfAttention<W>>,
    pub wo: W,
    dim: usize,
    cache_concat: Option<Matrix>,
}

impl MultiHeadAttention {
    pub fn new(dim: usize, num_heads: usize, rng: &mut ChaCha8Rng) -> Self {
        assert!(dim.is_multiple_of(num_heads), "dim must divide by heads");
        let head_dim = dim / num_heads;
        MultiHeadAttention {
            heads: (0..num_heads)
                .map(|_| SelfAttention::new(dim, head_dim, rng))
                .collect(),
            wo: Param::xavier(dim, dim, rng),
            dim,
            cache_concat: None,
        }
    }

    /// Int8 snapshot: quantized heads plus a quantized `Wo`.
    pub fn quantized(&self) -> MultiHeadAttention<QuantizedLinear> {
        MultiHeadAttention {
            heads: self.heads.iter().map(SelfAttention::quantized).collect(),
            wo: QuantizedLinear::from_param(&self.wo),
            dim: self.dim,
            cache_concat: None,
        }
    }

    /// Training forward over one sequence; `xq`/`xkv` as in
    /// [`SelfAttention::forward`]. Returns `[xq.rows, dim]`.
    pub fn forward(&mut self, xq: &Matrix, xkv: &Matrix) -> Matrix {
        let s = xq.rows;
        let head_dim = self.dim / self.heads.len();
        let mut concat = Matrix::zeros(s, self.dim);
        for (h, head) in self.heads.iter_mut().enumerate() {
            let y = head.forward(xq, xkv);
            for r in 0..s {
                concat.row_mut(r)[h * head_dim..(h + 1) * head_dim].copy_from_slice(y.row(r));
            }
        }
        let out = concat.matmul(&self.wo.w);
        self.cache_concat = Some(concat);
        out
    }

    /// Backward from `dy` (`[xq.rows, dim]`); returns the gradient with
    /// respect to the whole sequence, as [`SelfAttention::backward`].
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let concat = self.cache_concat.as_ref().expect("forward before backward");
        self.wo.g.add_assign(&concat.matmul_at(dy));
        let d_concat = dy.matmul_bt(&self.wo.w);
        let head_dim = self.dim / self.heads.len();
        let mut dx: Option<Matrix> = None;
        for (h, head) in self.heads.iter_mut().enumerate() {
            let mut d_head = Matrix::zeros(d_concat.rows, head_dim);
            for r in 0..d_concat.rows {
                d_head
                    .row_mut(r)
                    .copy_from_slice(&d_concat.row(r)[h * head_dim..(h + 1) * head_dim]);
            }
            let g = head.backward(&d_head);
            match &mut dx {
                None => dx = Some(g),
                Some(acc) => acc.add_assign(&g),
            }
        }
        dx.expect("at least one head")
    }
}

impl<W: Project> MultiHeadAttention<W> {
    pub fn storage_bytes(&self) -> usize {
        self.heads
            .iter()
            .map(SelfAttention::storage_bytes)
            .sum::<usize>()
            + self.wo.storage_bytes()
    }

    /// Inference over `batch` stacked sequences, queries `xq` over keys
    /// and values `xkv`; see [`SelfAttention::infer_batch_in`].
    pub fn infer_batch_in(
        &self,
        xq: &Matrix,
        xkv: &Matrix,
        batch: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let rows = xq.rows;
        let head_dim = self.dim / self.heads.len();
        let mut concat = s.take(rows, self.dim);
        for (h, head) in self.heads.iter().enumerate() {
            let y = head.infer_batch_in(xq, xkv, batch, s);
            for r in 0..rows {
                concat.row_mut(r)[h * head_dim..(h + 1) * head_dim].copy_from_slice(y.row(r));
            }
            s.give(y);
        }
        let out = self.wo.project_in(&concat, s);
        s.give(concat);
        out
    }
}

impl Module for MultiHeadAttention {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for h in &mut self.heads {
            h.for_each_param(f);
        }
        f(&mut self.wo);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        for h in &self.heads {
            h.for_each_param_ref(f);
        }
        f(&self.wo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;
    use crate::testutil::{assert_batch_rows_match_single, max_abs_diff};

    fn infer(a: &SelfAttention, x: &Matrix) -> Matrix {
        a.infer_batch_in(x, x, 1, &mut ScratchArena::new())
    }

    fn infer_mha(m: &MultiHeadAttention, x: &Matrix) -> Matrix {
        m.infer_batch_in(x, x, 1, &mut ScratchArena::new())
    }

    fn weighted_sum(y: &Matrix, w: &Matrix) -> f32 {
        y.data.iter().zip(w.data.iter()).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn self_attention_shapes() {
        let mut r = rng(1);
        let mut a = SelfAttention::new(8, 4, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = a.forward(&x, &x);
        assert_eq!((y.rows, y.cols), (5, 4));
        assert_eq!(a.out_dim(), 4);
    }

    #[test]
    fn self_attention_rows_are_convex_combinations() {
        // With Wv = identity-ish small test: attention output of row r is a
        // convex combination of V rows, so it is bounded by V's extremes.
        let mut r = rng(2);
        let mut a = SelfAttention::new(4, 4, &mut r);
        // Force Wv = I to check convexity directly on X-projected values.
        a.wv.w = Matrix::from_vec(
            4,
            4,
            (0..16)
                .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
                .collect(),
        );
        let x = Matrix::xavier(6, 4, &mut r);
        let y = a.forward(&x, &x);
        for c in 0..4 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for row in 0..6 {
                lo = lo.min(x.at(row, c));
                hi = hi.max(x.at(row, c));
            }
            for row in 0..6 {
                assert!(y.at(row, c) >= lo - 1e-5 && y.at(row, c) <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn self_attention_input_gradient_matches_finite_difference() {
        let mut r = rng(3);
        let mut a = SelfAttention::new(4, 3, &mut r);
        let x = Matrix::xavier(3, 4, &mut r);
        let w = Matrix::xavier(3, 3, &mut r);
        let _ = a.forward(&x, &x);
        let dx = a.backward(&w);
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (weighted_sum(&infer(&a, &xp), &w) - weighted_sum(&infer(&a, &xm), &w))
                / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 3e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn self_attention_weight_gradient_matches_finite_difference() {
        let mut r = rng(4);
        let mut a = SelfAttention::new(3, 2, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let w = Matrix::xavier(4, 2, &mut r);
        let _ = a.forward(&x, &x);
        let _ = a.backward(&w);
        let eps = 1e-2f32;
        for (pi, get) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let mut ap = a.clone();
            let mut am = a.clone();
            // Perturb wq[pi][get].
            *ap.wq.w.at_mut(pi, get) += eps;
            *am.wq.w.at_mut(pi, get) -= eps;
            let num = (weighted_sum(&infer(&ap, &x), &w) - weighted_sum(&infer(&am, &x), &w))
                / (2.0 * eps);
            let analytic = a.wq.g.at(pi, get);
            assert!(
                (num - analytic).abs() < 3e-2,
                "wq[{pi}][{get}]: {num} vs {analytic}"
            );
        }
    }

    #[test]
    fn multi_head_shapes_and_params() {
        let mut r = rng(5);
        let mut mha = MultiHeadAttention::new(8, 4, &mut r);
        let x = Matrix::xavier(6, 8, &mut r);
        let y = mha.forward(&x, &x);
        assert_eq!((y.rows, y.cols), (6, 8));
        // 4 heads × 3 matrices × 8×2 + Wo 8×8.
        assert_eq!(mha.num_params(), 4 * 3 * 16 + 64);
    }

    #[test]
    fn multi_head_gradient_matches_finite_difference() {
        let mut r = rng(6);
        let mut mha = MultiHeadAttention::new(4, 2, &mut r);
        let x = Matrix::xavier(3, 4, &mut r);
        let w = Matrix::xavier(3, 4, &mut r);
        let _ = mha.forward(&x, &x);
        let dx = mha.backward(&w);
        let eps = 1e-2f32;
        for i in [0usize, 3, 7, 11] {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (weighted_sum(&infer_mha(&mha, &xp), &w)
                - weighted_sum(&infer_mha(&mha, &xm), &w))
                / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 3e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn multi_head_rejects_indivisible_dims() {
        let mut r = rng(7);
        let _ = MultiHeadAttention::new(6, 4, &mut r);
    }

    #[test]
    fn inference_tracks_training_forward() {
        let mut r = rng(8);
        let mut a = SelfAttention::new(8, 4, &mut r);
        let mut mha = MultiHeadAttention::new(8, 2, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = a.forward(&x, &x);
        assert!(max_abs_diff(&y.data, &infer(&a, &x).data) < 1e-6);
        let y = mha.forward(&x, &x);
        assert!(max_abs_diff(&y.data, &infer_mha(&mha, &x).data) < 1e-6);
    }

    #[test]
    fn batched_rows_match_single_for_f32_and_int8() {
        let mut r = rng(9);
        let a = SelfAttention::new(8, 4, &mut r);
        let qa = a.quantized();
        let mha = MultiHeadAttention::new(8, 2, &mut r);
        let qmha = mha.quantized();
        assert_batch_rows_match_single(5, 8, 10, |x, b, s| a.infer_batch_in(x, x, b, s));
        assert_batch_rows_match_single(5, 8, 11, |x, b, s| qa.infer_batch_in(x, x, b, s));
        assert_batch_rows_match_single(5, 8, 12, |x, b, s| mha.infer_batch_in(x, x, b, s));
        assert_batch_rows_match_single(5, 8, 13, |x, b, s| qmha.infer_batch_in(x, x, b, s));
    }

    #[test]
    fn int8_snapshot_tracks_f32() {
        let mut r = rng(31);
        let a = SelfAttention::new(16, 8, &mut r);
        let x = Matrix::xavier(9, 16, &mut r);
        let mut s = ScratchArena::new();
        let exact = a.infer_batch_in(&x, &x, 1, &mut s);
        let quant = a.quantized().infer_batch_in(&x, &x, 1, &mut s);
        // Attention outputs are convex mixes of projected rows; int8 error
        // stays well under the activation magnitude.
        let diff = max_abs_diff(&exact.data, &quant.data);
        assert!(diff < 0.05 && diff > 0.0, "diff {diff}");
    }
}
