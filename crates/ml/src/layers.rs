//! Trainable layers with explicit forward/backward passes.
//!
//! Every layer owns its [`Param`]s (weights + gradient + Adam moments) and
//! caches whatever activations its backward pass needs. Models are composed
//! by calling the layers in order and backpropagating in reverse — no tape,
//! no dynamic graph: the model shapes in this project are small and fixed,
//! so explicit composition is simpler and faster.

use crate::arena::ScratchArena;
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// One trainable tensor together with its gradient accumulator and Adam
/// moment estimates.
#[derive(Debug, Clone)]
pub struct Param {
    pub w: Matrix,
    pub g: Matrix,
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment.
    pub v: Vec<f32>,
}

impl Param {
    pub fn new(w: Matrix) -> Self {
        let n = w.data.len();
        Param {
            g: Matrix::zeros(w.rows, w.cols),
            m: vec![0.0; n],
            v: vec![0.0; n],
            w,
        }
    }

    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::new(Matrix::zeros(rows, cols))
    }

    pub fn xavier(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Self {
        Self::new(Matrix::xavier(rows, cols, rng))
    }

    pub fn len(&self) -> usize {
        self.w.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.w.data.is_empty()
    }
}

/// Anything that owns trainable parameters.
pub trait Module {
    /// Visits every parameter (for the optimizer / introspection).
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Read-only parameter visit, in the same order as
    /// [`Module::for_each_param`] — for introspection (param counts,
    /// storage accounting, quantization snapshots) that must not demand
    /// `&mut` access.
    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param));

    /// Zeroes all gradient accumulators.
    fn zero_grad(&mut self) {
        self.for_each_param(&mut |p| p.g.data.fill(0.0));
    }

    /// Total trainable parameter count (Table 8's "Param" column).
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.for_each_param_ref(&mut |p| n += p.len());
        n
    }
}

/// A weight-side product `y = x W (+ b)`: the one operation the inference
/// forwards depend on the weight type for. Every layer's `infer_batch_in`
/// is written once against this trait, so the f32 model (weights in
/// [`Param`]/[`Linear`], run by `matmul_into`) and its int8 snapshot
/// (weights in [`crate::quant::QuantizedLinear`], run by the i8 kernels)
/// are two monomorphised instantiations of the same code.
pub trait Project {
    /// `x W (+ b)` in an arena buffer the caller gives back.
    fn project_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix;

    /// Deployed size of the weights, in bytes.
    fn storage_bytes(&self) -> usize;
}

/// A bare weight matrix projects without a bias.
impl Project for Param {
    fn project_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut y = s.take(x.rows, self.w.cols);
        x.matmul_into(&self.w, &mut y);
        y
    }

    fn storage_bytes(&self) -> usize {
        4 * self.len()
    }
}

impl Project for Linear {
    fn project_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        self.infer_in(x, s)
    }

    fn storage_bytes(&self) -> usize {
        4 * (self.w.len() + self.b.len())
    }
}

/// An embedding table read as a tied output layer: `x · tableᵀ` scores
/// every token against `x` (the page predictor's Softmax head).
impl Project for Embedding {
    fn project_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut y = s.take(x.rows, self.table.w.rows);
        x.matmul_bt_into(&self.table.w, &mut y);
        y
    }

    fn storage_bytes(&self) -> usize {
        4 * self.table.len()
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: Param,
    pub b: Param,
    cache_x: Option<Matrix>,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Linear {
            w: Param::xavier(in_dim, out_dim, rng),
            b: Param::zeros(1, out_dim),
            cache_x: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.w);
        y.add_bias(&self.b.w.data);
        self.cache_x = Some(x.clone());
        y
    }

    /// Inference-only forward (no cache).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.w);
        y.add_bias(&self.b.w.data);
        y
    }

    /// Inference-only forward into an arena-owned buffer (no allocation
    /// after warmup). The caller is responsible for `give`-ing the result
    /// back once it is done with it.
    pub fn infer_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut y = s.take(x.rows, self.w.w.cols);
        x.matmul_into(&self.w.w, &mut y);
        y.add_bias(&self.b.w.data);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("forward before backward");
        self.w.g.add_assign(&x.matmul_at(dy));
        for r in 0..dy.rows {
            for c in 0..dy.cols {
                self.b.g.data[c] += dy.at(r, c);
            }
        }
        dy.matmul_bt(&self.w.w)
    }
}

impl Module for Linear {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

/// Token-id → vector lookup table.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Param,
    cache_tokens: Vec<usize>,
}

impl Embedding {
    pub fn new(vocab: usize, dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Embedding {
            table: Param::xavier(vocab, dim, rng),
            cache_tokens: Vec::new(),
        }
    }

    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        self.cache_tokens = tokens.to_vec();
        self.infer(tokens)
    }

    pub fn infer(&self, tokens: &[usize]) -> Matrix {
        let dim = self.table.w.cols;
        let mut out = Matrix::zeros(tokens.len(), dim);
        self.lookup_into(tokens, &mut out);
        out
    }

    /// Inference-only lookup into an arena-owned buffer.
    pub fn infer_in(&self, tokens: &[usize], s: &mut ScratchArena) -> Matrix {
        let mut out = s.take(tokens.len(), self.table.w.cols);
        self.lookup_into(tokens, &mut out);
        out
    }

    fn lookup_into(&self, tokens: &[usize], out: &mut Matrix) {
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.table.w.rows, "token {t} out of vocab");
            out.row_mut(i).copy_from_slice(self.table.w.row(t));
        }
    }

    /// Adds the embedding row for `token` to every row of `m` — the
    /// broadcast form AMMA-PI uses to mix a phase embedding into a fused
    /// sequence without materializing the repeated-token matrix.
    pub fn add_row_broadcast(&self, token: usize, m: &mut Matrix) {
        assert!(token < self.table.w.rows, "token {token} out of vocab");
        let row = self.table.w.row(token);
        assert_eq!(row.len(), m.cols, "embedding dim mismatch");
        for r in 0..m.rows {
            for (a, b) in m.row_mut(r).iter_mut().zip(row.iter()) {
                *a += b;
            }
        }
    }

    pub fn backward(&mut self, dy: &Matrix) {
        let dim = self.table.w.cols;
        for (i, &t) in self.cache_tokens.iter().enumerate() {
            let g = &mut self.table.g.data[t * dim..(t + 1) * dim];
            for (gv, dv) in g.iter_mut().zip(dy.row(i).iter()) {
                *gv += dv;
            }
        }
    }
}

impl Module for Embedding {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.table);
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// ReLU with cached mask.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.mask = x.data.iter().map(|&v| v > 0.0).collect();
        let mut y = x.clone();
        for v in y.data.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    pub fn infer(x: &Matrix) -> Matrix {
        let mut y = x.clone();
        Self::infer_inplace(&mut y);
        y
    }

    /// In-place ReLU for the allocation-free inference path.
    pub fn infer_inplace(x: &mut Matrix) {
        for v in x.data.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    pub fn backward(&self, dy: &Matrix) -> Matrix {
        let mut dx = dy.clone();
        for (v, &m) in dx.data.iter_mut().zip(self.mask.iter()) {
            if !m {
                *v = 0.0;
            }
        }
        dx
    }
}

/// Elementwise logistic sigmoid with cached output.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    y: Option<Matrix>,
}

impl Sigmoid {
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = Self::infer(x);
        self.y = Some(y.clone());
        y
    }

    pub fn infer(x: &Matrix) -> Matrix {
        let mut y = x.clone();
        Self::infer_inplace(&mut y);
        y
    }

    /// In-place sigmoid for the allocation-free inference path.
    pub fn infer_inplace(x: &mut Matrix) {
        for v in x.data.iter_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
    }

    pub fn backward(&self, dy: &Matrix) -> Matrix {
        let y = self.y.as_ref().expect("forward before backward");
        let mut dx = dy.clone();
        for (d, &s) in dx.data.iter_mut().zip(y.data.iter()) {
            *d *= s * (1.0 - s);
        }
        dx
    }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Row-wise layer normalization with learnable gain/bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
    eps: f32,
    cache: Option<(Matrix, Vec<f32>, Vec<f32>)>, // (normalized x̂, mean, inv_std)
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::from_vec(1, dim, vec![1.0; dim])),
            beta: Param::zeros(1, dim),
            eps: 1e-5,
            cache: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let d = x.cols;
        let mut xhat = Matrix::zeros(x.rows, d);
        let mut means = Vec::with_capacity(x.rows);
        let mut inv_stds = Vec::with_capacity(x.rows);
        for r in 0..x.rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for (c, &v) in row.iter().enumerate() {
                xhat.data[r * d + c] = (v - mean) * inv;
            }
            means.push(mean);
            inv_stds.push(inv);
        }
        let mut y = xhat.clone();
        for r in 0..y.rows {
            for c in 0..d {
                y.data[r * d + c] = y.data[r * d + c] * self.gamma.w.data[c] + self.beta.w.data[c];
            }
        }
        self.cache = Some((xhat, means, inv_stds));
        y
    }

    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        self.infer_inplace(&mut y);
        y
    }

    /// In-place layer norm: row statistics are computed before the row is
    /// overwritten, so normalizing in place is exact (allocation-free
    /// inference path).
    pub fn infer_inplace(&self, x: &mut Matrix) {
        let d = x.cols;
        for r in 0..x.rows {
            let row = x.row_mut(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for (c, v) in row.iter_mut().enumerate() {
                *v = (*v - mean) * inv * self.gamma.w.data[c] + self.beta.w.data[c];
            }
        }
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (xhat, _means, inv_stds) = self.cache.as_ref().expect("forward before backward");
        let d = dy.cols as f32;
        let cols = dy.cols;
        let mut dx = Matrix::zeros(dy.rows, cols);
        for (r, &inv) in inv_stds.iter().enumerate() {
            // Accumulate parameter grads.
            for c in 0..cols {
                self.gamma.g.data[c] += dy.at(r, c) * xhat.at(r, c);
                self.beta.g.data[c] += dy.at(r, c);
            }
            // dxhat = dy * gamma
            let dxhat: Vec<f32> = (0..cols)
                .map(|c| dy.at(r, c) * self.gamma.w.data[c])
                .collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat
                .iter()
                .zip(xhat.row(r).iter())
                .map(|(a, b)| a * b)
                .sum();
            for (c, &dxh) in dxhat.iter().enumerate() {
                dx.data[r * cols + c] =
                    inv / d * (d * dxh - sum_dxhat - xhat.at(r, c) * sum_dxhat_xhat);
            }
        }
        dx
    }
}

impl Module for LayerNorm {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;

    /// Generic finite-difference gradient check on a scalar loss
    /// `L = sum(forward(x) ⊙ w)` for a random weighting `w`.
    fn check_input_grad(
        x: &Matrix,
        mut fwd: impl FnMut(&Matrix) -> Matrix,
        dx: &Matrix,
        weights: &Matrix,
        tol: f32,
    ) {
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let lp: f32 = fwd(&xp)
                .data
                .iter()
                .zip(weights.data.iter())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = fwd(&xm)
                .data
                .iter()
                .zip(weights.data.iter())
                .map(|(a, b)| a * b)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < tol,
                "idx {i}: numeric {num} vs analytic {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn linear_forward_known() {
        let mut r = rng(1);
        let mut l = Linear::new(2, 2, &mut r);
        l.w.w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        l.b.w = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let y = l.forward(&Matrix::from_vec(1, 2, vec![1., 1.]));
        assert_eq!(y.data, vec![4.5, 5.5]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut r = rng(2);
        let mut l = Linear::new(3, 2, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let w = Matrix::xavier(4, 2, &mut r); // loss weighting
        let _y = l.forward(&x);
        let dx = l.backward(&w);
        let l2 = l.clone();
        check_input_grad(&x, |xx| l2.infer(xx), &dx, &w, 2e-2);
        // Weight gradient check on one entry.
        let eps = 1e-2f32;
        let (wi, wj) = (1, 0);
        let mut lp = l.clone();
        *lp.w.w.at_mut(wi, wj) += eps;
        let mut lm = l.clone();
        *lm.w.w.at_mut(wi, wj) -= eps;
        let f = |m: &Linear| -> f32 {
            m.infer(&x)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let num = (f(&lp) - f(&lm)) / (2.0 * eps);
        assert!((num - l.w.g.at(wi, wj)).abs() < 2e-2);
    }

    #[test]
    fn embedding_lookup_and_backward() {
        let mut r = rng(3);
        let mut e = Embedding::new(10, 4, &mut r);
        let y = e.forward(&[3, 3, 7]);
        assert_eq!(y.rows, 3);
        assert_eq!(y.row(0), y.row(1));
        let mut dy = Matrix::zeros(3, 4);
        dy.data.fill(1.0);
        e.backward(&dy);
        // Token 3 appears twice: gradient 2.0 per element; token 7 once.
        assert!(e.table.g.row(3).iter().all(|&g| (g - 2.0).abs() < 1e-6));
        assert!(e.table.g.row(7).iter().all(|&g| (g - 1.0).abs() < 1e-6));
        assert!(e.table.g.row(0).iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_rejects_oov() {
        let mut r = rng(4);
        let e = Embedding::new(4, 2, &mut r);
        let _ = e.infer(&[4]);
    }

    #[test]
    fn relu_masks_negative() {
        let mut relu = Relu::default();
        let y = relu.forward(&Matrix::from_vec(1, 4, vec![-1., 0., 2., -3.]));
        assert_eq!(y.data, vec![0., 0., 2., 0.]);
        let dx = relu.backward(&Matrix::from_vec(1, 4, vec![1., 1., 1., 1.]));
        assert_eq!(dx.data, vec![0., 0., 1., 0.]);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        let x = Matrix::from_vec(1, 3, vec![-0.5, 0.2, 1.3]);
        let w = Matrix::from_vec(1, 3, vec![0.7, -0.4, 0.9]);
        let mut s = Sigmoid::default();
        let _ = s.forward(&x);
        let dx = s.backward(&w);
        check_input_grad(&x, |xx| Sigmoid::infer(xx), &dx, &w, 1e-3);
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut ln = LayerNorm::new(8);
        let mut r = rng(5);
        let x = Matrix::xavier(3, 8, &mut r);
        let y = ln.forward(&x);
        for row in 0..3 {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 8.0;
            let var: f32 = y.row(row).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_difference() {
        let mut ln = LayerNorm::new(5);
        let mut r = rng(6);
        // Non-trivial gamma/beta.
        ln.gamma.w = Matrix::from_vec(1, 5, vec![1.1, 0.9, 1.3, 0.7, 1.0]);
        ln.beta.w = Matrix::from_vec(1, 5, vec![0.1, -0.2, 0.0, 0.3, -0.1]);
        let x = Matrix::xavier(2, 5, &mut r);
        let w = Matrix::xavier(2, 5, &mut r);
        let _ = ln.forward(&x);
        let dx = ln.backward(&w);
        let ln2 = ln.clone();
        check_input_grad(&x, |xx| ln2.infer(xx), &dx, &w, 3e-2);
    }

    #[test]
    fn module_param_counts() {
        let mut r = rng(7);
        let l = Linear::new(10, 20, &mut r);
        assert_eq!(l.num_params(), 10 * 20 + 20);
        let e = Embedding::new(100, 8, &mut r);
        assert_eq!(e.num_params(), 800);
        let ln = LayerNorm::new(16);
        assert_eq!(ln.num_params(), 32);
    }

    #[test]
    fn zero_grad_clears() {
        let mut r = rng(8);
        let mut l = Linear::new(2, 2, &mut r);
        let x = Matrix::from_vec(1, 2, vec![1., 2.]);
        let _ = l.forward(&x);
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1., 1.]));
        assert!(l.w.g.norm() > 0.0);
        l.zero_grad();
        assert_eq!(l.w.g.norm(), 0.0);
    }
}
