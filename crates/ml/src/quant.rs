//! Int8 symmetric quantization (§6.1 "Quantization"): weights are stored as
//! `i8` with a scale, shrinking model storage 4× on top of the architectural
//! compression, at a small accuracy cost that the paper (and our Figure 13
//! harness) measures.
//!
//! Two tiers live here:
//!
//! * [`QuantizedTensor`] — per-tensor scale, used by [`quantize_module`] for
//!   *simulated* quantization (weights replaced by their dequantized int8
//!   values, inference stays f32). This is the storage-accounting tier.
//! * [`QuantizedLinear`] plus the `matmul_i8*` kernels — per-output-channel
//!   (per-row) scales and a real i8×i8→i32 inference path: activations are
//!   quantized on the fly per row, the dot products run entirely in
//!   integers, and the f32 result is reconstructed as
//!   `acc · scale_x[row] · scale_w[channel] + bias`. Per-row weight scales
//!   mean one outlier weight no longer crushes the resolution of every
//!   other output channel.
//!
//! Products are bounded by `127·127 = 16129`, so an `i32` accumulator is
//! exact up to `k > 130 000` — far beyond any model dimension here — and
//! integer addition is associative, so the register-tiled kernels match
//! their `_ref` twins *bit-exactly* (the property tests assert `==`, not a
//! tolerance).

use crate::arena::ScratchArena;
use crate::layers::{Linear, Module, Param, Project};
use crate::tensor::Matrix;

/// Symmetric quantization scale for a tensor with magnitude `max`, with the
/// edge cases fixed:
///
/// * `max == 0` → scale 1.0 (all q = 0; any positive scale works);
/// * subnormal `max` (< ~1.8e-43) makes `max / 127` round to 0.0, and
///   dividing by that scale would produce ±inf clamped to ±127 garbage —
///   guarded the same way (all values quantize to 0, which is within any
///   reasonable error bound of values that small);
/// * the returned scale is driven to a fixed point of requantization
///   (`scale == (127·scale)/127` in f32), so dequantize → quantize
///   reproduces the same `(q, scale)` pair exactly — [`quantize_module`]
///   applied twice is a bit-exact no-op.
fn stable_scale(max: f32) -> f32 {
    let mut scale = max / 127.0;
    if scale == 0.0 {
        return 1.0;
    }
    // max|q| is 127 after quantization, so requantization sees a new max of
    // fl(127·scale) and derives fl(fl(127·scale)/127). Iterate that map to
    // a fixed point (monotone, converges within a couple of 1-ulp steps;
    // the bound is just a safety net).
    for _ in 0..8 {
        let next = (127.0 * scale) / 127.0;
        if next == scale {
            break;
        }
        scale = next;
    }
    scale
}

/// Quantizes `src` against `scale` into `dst`.
fn quantize_into(src: &[f32], scale: f32, dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(src.iter()) {
        *d = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
}

/// On-the-fly activation quantization for one row; returns the row scale.
/// Zero and subnormal rows quantize to all-zero with scale 0.0, making the
/// dequantized product exactly 0.0 — which is also the exact f32 result for
/// a zero row.
pub fn quantize_row(src: &[f32], dst: &mut [i8]) -> f32 {
    let max = src.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let scale = max / 127.0;
    if scale == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    quantize_into(src, scale, dst);
    scale
}

/// A quantized tensor: `w ≈ q * scale` with `q ∈ [-127, 127]`.
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    pub q: Vec<i8>,
    pub scale: f32,
    pub rows: usize,
    pub cols: usize,
}

impl QuantizedTensor {
    /// Quantizes symmetric per-tensor: scale = max|w| / 127 (see
    /// `stable_scale` for the zero/subnormal/idempotency guards).
    pub fn quantize(w: &Matrix) -> Self {
        let max = w.data.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = stable_scale(max);
        let mut q = vec![0i8; w.data.len()];
        quantize_into(&w.data, scale, &mut q);
        QuantizedTensor {
            q,
            scale,
            rows: w.rows,
            cols: w.cols,
        }
    }

    /// Reconstructs the float tensor.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.q.iter().map(|&v| v as f32 * self.scale).collect(),
        )
    }

    /// Storage in bytes: int8 payload + the f32 scale + the two u32 shape
    /// fields a deployed blob needs to reconstruct the matrix. (The seed
    /// omitted the shape metadata, flattering every compression ratio.)
    pub fn storage_bytes(&self) -> usize {
        self.q.len() + 4 + 2 * 4
    }

    /// Worst-case absolute reconstruction error bound: scale / 2.
    pub fn error_bound(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Quantizes every parameter of a module in place (simulated quantization:
/// the weights are replaced by their dequantized int8 values, so inference
/// behaves exactly as int8 storage would). Returns total int8 storage bytes.
/// Applying this twice is a bit-exact no-op (see `stable_scale`).
pub fn quantize_module(module: &mut dyn Module) -> usize {
    let mut bytes = 0usize;
    module.for_each_param(&mut |p: &mut Param| {
        let q = QuantizedTensor::quantize(&p.w);
        bytes += q.storage_bytes();
        p.w = q.dequantize();
    });
    bytes
}

/// Float storage bytes of a module (4 bytes per weight).
pub fn float_storage_bytes(module: &dyn Module) -> usize {
    module.num_params() * 4
}

// ---------------------------------------------------------------------------
// i8 × i8 → i32 kernels
// ---------------------------------------------------------------------------

/// Integer dot product over i8 operands with exact i32 accumulation.
///
/// Deliberately a plain iterator reduction, *not* a manual unroll: integer
/// addition is associative, so LLVM is free to vectorize the whole
/// reduction however it likes — a hand-tiled version (the f32 `dot4`
/// pattern, which exists only to pin FP summation order) pins the integer
/// order too and blocks that, measuring ~4× slower. Products are computed
/// in i16 (exact: |i8×i8| ≤ 127² < 2¹⁵) so the multiply stays 16-bit wide.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x as i16 * y as i16) as i32)
        .sum()
}

/// Dot product of pre-widened i16 operands (each holding an i8 value) with
/// exact i32 accumulation — the serve-path hot dot. With both sides already
/// sign-extended, the kernel is a pure widening multiply-add that LLVM
/// lowers to `vpmaddwd` (32 products per instruction on AVX-512); widening
/// inside the loop instead costs ~35% at AMMA shapes.
#[inline]
pub fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum()
}

/// Sign-extends an i8 slice into an i16 slice (panics on length mismatch).
#[inline]
pub fn widen_i8_into(src: &[i8], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len(), "widen_i8 shape");
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s as i16;
    }
}

/// `a [m,k] @ b [k,n] → out [m,n]`, all row-major i8 with exact i32
/// accumulation. Register-tiled like the f32 `matmul_into`: 4 output rows ×
/// 4 k-steps per inner iteration.
pub fn matmul_i8_into(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "matmul_i8 a shape");
    assert_eq!(b.len(), k * n, "matmul_i8 b shape");
    assert_eq!(out.len(), m * n, "matmul_i8 out shape");
    out.fill(0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let mut i = 0;
    while i + 4 <= m {
        let a_block = &a[i * k..(i + 4) * k];
        let (ar0, rest) = a_block.split_at(k);
        let (ar1, rest) = rest.split_at(k);
        let (ar2, ar3) = rest.split_at(k);
        let o_block = &mut out[i * n..(i + 4) * n];
        let (o0, rest) = o_block.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut kk = 0;
        while kk + 4 <= k {
            let (a00, a01, a02, a03) = (
                ar0[kk] as i16,
                ar0[kk + 1] as i16,
                ar0[kk + 2] as i16,
                ar0[kk + 3] as i16,
            );
            let (a10, a11, a12, a13) = (
                ar1[kk] as i16,
                ar1[kk + 1] as i16,
                ar1[kk + 2] as i16,
                ar1[kk + 3] as i16,
            );
            let (a20, a21, a22, a23) = (
                ar2[kk] as i16,
                ar2[kk + 1] as i16,
                ar2[kk + 2] as i16,
                ar2[kk + 3] as i16,
            );
            let (a30, a31, a32, a33) = (
                ar3[kk] as i16,
                ar3[kk + 1] as i16,
                ar3[kk + 2] as i16,
                ar3[kk + 3] as i16,
            );
            let panel = &b[kk * n..(kk + 4) * n];
            let (b0, rest) = panel.split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, b3) = rest.split_at(n);
            // Products in i16 (exact for i8 operands) so the j-loop
            // vectorizes with 16-bit multiplies instead of scalar i32 ones.
            for j in 0..n {
                let (p0, p1, p2, p3) = (b0[j] as i16, b1[j] as i16, b2[j] as i16, b3[j] as i16);
                o0[j] +=
                    (a00 * p0) as i32 + (a01 * p1) as i32 + (a02 * p2) as i32 + (a03 * p3) as i32;
                o1[j] +=
                    (a10 * p0) as i32 + (a11 * p1) as i32 + (a12 * p2) as i32 + (a13 * p3) as i32;
                o2[j] +=
                    (a20 * p0) as i32 + (a21 * p1) as i32 + (a22 * p2) as i32 + (a23 * p3) as i32;
                o3[j] +=
                    (a30 * p0) as i32 + (a31 * p1) as i32 + (a32 * p2) as i32 + (a33 * p3) as i32;
            }
            kk += 4;
        }
        while kk < k {
            let (a0, a1, a2, a3) = (
                ar0[kk] as i16,
                ar1[kk] as i16,
                ar2[kk] as i16,
                ar3[kk] as i16,
            );
            let b0 = &b[kk * n..(kk + 1) * n];
            for j in 0..n {
                let p = b0[j] as i16;
                o0[j] += (a0 * p) as i32;
                o1[j] += (a1 * p) as i32;
                o2[j] += (a2 * p) as i32;
                o3[j] += (a3 * p) as i32;
            }
            kk += 1;
        }
        i += 4;
    }
    while i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let o0 = &mut out[i * n..(i + 1) * n];
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (
                a_row[kk] as i16,
                a_row[kk + 1] as i16,
                a_row[kk + 2] as i16,
                a_row[kk + 3] as i16,
            );
            let panel = &b[kk * n..(kk + 4) * n];
            let (b0, rest) = panel.split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, b3) = rest.split_at(n);
            for j in 0..n {
                o0[j] += (a0 * b0[j] as i16) as i32
                    + (a1 * b1[j] as i16) as i32
                    + (a2 * b2[j] as i16) as i32
                    + (a3 * b3[j] as i16) as i32;
            }
            kk += 4;
        }
        while kk < k {
            let a0 = a_row[kk] as i16;
            let b0 = &b[kk * n..(kk + 1) * n];
            for j in 0..n {
                o0[j] += (a0 * b0[j] as i16) as i32;
            }
            kk += 1;
        }
        i += 1;
    }
}

/// Naive `ikj` reference for [`matmul_i8_into`]; bit-exact equal.
pub fn matmul_i8_ref(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "matmul_i8 a shape");
    assert_eq!(b.len(), k * n, "matmul_i8 b shape");
    assert_eq!(out.len(), m * n, "matmul_i8 out shape");
    out.fill(0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk] as i32;
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j] as i32;
            }
        }
    }
}

/// `a [m,k] @ b^T` with `b` stored `[n,k]` row-major — the orientation the
/// quantized inference path uses (weights live transposed, one output
/// channel per contiguous row). Each output element is one [`dot_i8`].
/// Unlike the f32 `matmul_bt`, whose per-element dot cannot be vectorized
/// without changing FP summation order, the integer dot reassociates
/// freely, so this orientation is where int8 wins: contiguous k-major
/// rows on both sides feed the 16-bit multiply-add directly.
pub fn matmul_i8_bt_into(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "matmul_i8_bt a shape");
    assert_eq!(b.len(), n * k, "matmul_i8_bt b shape");
    assert_eq!(out.len(), m * n, "matmul_i8_bt out shape");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            *o = dot_i8(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Strictly sequential reference for [`matmul_i8_bt_into`]; bit-exact equal.
pub fn matmul_i8_bt_ref(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "matmul_i8_bt a shape");
    assert_eq!(b.len(), n * k, "matmul_i8_bt b shape");
    assert_eq!(out.len(), m * n, "matmul_i8_bt out shape");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for kk in 0..k {
                acc += a[i * k + kk] as i32 * b[j * k + kk] as i32;
            }
            out[i * n + j] = acc;
        }
    }
}

/// The serve-path bt kernel: i8 activations against weights pre-widened to
/// i16 ([`QuantizedLinear::qw16`]). Each activation row is sign-extended
/// once into `xw` (caller scratch, len ≥ `k`) and reused across all `n`
/// output channels, so the inner loop is a pure i16×i16→i32 multiply-add
/// ([`dot_i16`]) with no per-dot widening. Bit-exact equal to
/// [`matmul_i8_bt_ref`] on the un-widened weights.
pub fn matmul_i8w16_bt_into(
    a: &[i8],
    b16: &[i16],
    m: usize,
    k: usize,
    n: usize,
    xw: &mut [i16],
    out: &mut [i32],
) {
    assert_eq!(a.len(), m * k, "matmul_i8w16_bt a shape");
    assert_eq!(b16.len(), n * k, "matmul_i8w16_bt b shape");
    assert_eq!(out.len(), m * n, "matmul_i8w16_bt out shape");
    assert!(xw.len() >= k, "matmul_i8w16_bt scratch too small");
    let xw = &mut xw[..k];
    for i in 0..m {
        widen_i8_into(&a[i * k..(i + 1) * k], xw);
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            *o = dot_i16(xw, &b16[j * k..(j + 1) * k]);
        }
    }
}

// ---------------------------------------------------------------------------
// QuantizedLinear
// ---------------------------------------------------------------------------

/// A dense layer held entirely in int8: weights stored transposed
/// (`[out, in]` row-major, one output channel per row) with **per-row
/// scales**, f32 bias. Inference quantizes each activation row on the fly,
/// runs the i8×i8→i32 dot kernels, and reconstructs
/// `y[r,o] = acc · sx[r] · sw[o] + bias[o]`.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    /// `[out_dim, in_dim]` row-major quantized weights (transposed). This
    /// is the canonical stored form — what gets serialized/shipped and what
    /// [`QuantizedLinear::storage_bytes`] counts.
    pub qw: Vec<i8>,
    /// `qw` sign-extended to i16 — a derived decode mirror built at
    /// construction, never stored or shipped. The hot dot over pre-widened
    /// operands is a pure 16-bit multiply-add (`vpmaddwd`); widening i8
    /// rows inside the inner loop instead costs ~35% at AMMA shapes.
    pub qw16: Vec<i16>,
    /// Per-output-channel scale.
    pub scales: Vec<f32>,
    /// f32 bias, added after dequantization (zeros when the source layer
    /// had none).
    pub bias: Vec<f32>,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl QuantizedLinear {
    /// Quantizes a dense layer (weights `[in, out]`, transposed here).
    pub fn from_linear(l: &Linear) -> Self {
        Self::from_weight(&l.w.w, Some(&l.b.w.data))
    }

    /// Quantizes a bias-free projection `Param` (e.g. an attention Q/K/V
    /// weight).
    pub fn from_param(p: &Param) -> Self {
        Self::from_weight(&p.w, None)
    }

    /// Quantizes a bare weight matrix `[in, out]` (e.g. an attention
    /// projection `Param`), transposing into channel-major layout.
    pub fn from_weight(w: &Matrix, bias: Option<&[f32]>) -> Self {
        let (in_dim, out_dim) = (w.rows, w.cols);
        let mut qw = vec![0i8; in_dim * out_dim];
        let mut scales = vec![0.0f32; out_dim];
        for o in 0..out_dim {
            let mut max = 0.0f32;
            for i in 0..in_dim {
                max = max.max(w.at(i, o).abs());
            }
            let scale = stable_scale(max);
            scales[o] = scale;
            for i in 0..in_dim {
                qw[o * in_dim + i] = (w.at(i, o) / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        let bias = bias.map_or_else(|| vec![0.0; out_dim], <[f32]>::to_vec);
        let qw16 = qw.iter().map(|&v| v as i16).collect();
        QuantizedLinear {
            qw,
            qw16,
            scales,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Quantizes a matrix already laid out one output channel per row
    /// (`[out, in]` row-major) — e.g. an embedding table reused as a tied
    /// output head, where `logits = h @ table^T`.
    pub fn from_rows(w: &Matrix, bias: Option<&[f32]>) -> Self {
        let (out_dim, in_dim) = (w.rows, w.cols);
        let mut qw = vec![0i8; in_dim * out_dim];
        let mut scales = vec![0.0f32; out_dim];
        for o in 0..out_dim {
            let row = w.row(o);
            let max = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let scale = stable_scale(max);
            scales[o] = scale;
            quantize_into(row, scale, &mut qw[o * in_dim..(o + 1) * in_dim]);
        }
        let bias = bias.map_or_else(|| vec![0.0; out_dim], <[f32]>::to_vec);
        let qw16 = qw.iter().map(|&v| v as i16).collect();
        QuantizedLinear {
            qw,
            qw16,
            scales,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Deployed size: int8 weights + f32 per-row scales + f32 bias + shape.
    /// The i16 decode mirror is derived at load time and not counted — it
    /// is working memory, not model storage.
    pub fn storage_bytes(&self) -> usize {
        self.qw.len() + 4 * self.scales.len() + 4 * self.bias.len() + 2 * 4
    }

    /// Quantized forward through arena-owned scratch (the activation int8
    /// row and its widened i16 copy come from — and return to — the arena,
    /// so the steady state allocates nothing). Each row is quantized,
    /// widened once, then dotted against the pre-widened weight mirror.
    pub fn infer_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        assert_eq!(x.cols, self.in_dim, "quantized linear shape");
        let rows = x.rows;
        let mut qx = s.take_i8(self.in_dim);
        let mut xw = s.take_i16(self.in_dim);
        let mut out = s.take(rows, self.out_dim);
        for r in 0..rows {
            let sxr = quantize_row(x.row(r), &mut qx);
            widen_i8_into(&qx, &mut xw);
            let o_row = out.row_mut(r);
            for (o, ov) in o_row.iter_mut().enumerate() {
                let acc = dot_i16(&xw, &self.qw16[o * self.in_dim..(o + 1) * self.in_dim]);
                *ov = acc as f32 * (sxr * self.scales[o]) + self.bias[o];
            }
        }
        s.give_i8(qx);
        s.give_i16(xw);
        out
    }

    /// Allocating convenience wrapper around [`QuantizedLinear::infer_in`].
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut s = ScratchArena::new();
        self.infer_in(x, &mut s)
    }
}

impl Project for QuantizedLinear {
    fn project_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        self.infer_in(x, s)
    }

    fn storage_bytes(&self) -> usize {
        QuantizedLinear::storage_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::tensor::rng;

    #[test]
    fn roundtrip_error_bounded() {
        let mut r = rng(1);
        let w = Matrix::xavier(16, 16, &mut r);
        let q = QuantizedTensor::quantize(&w);
        let back = q.dequantize();
        let bound = q.error_bound() + 1e-6;
        for (a, b) in w.data.iter().zip(back.data.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let w = Matrix::zeros(3, 3);
        let q = QuantizedTensor::quantize(&w);
        assert!(q.dequantize().data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extremes_map_to_127() {
        let w = Matrix::from_vec(1, 2, vec![-2.0, 2.0]);
        let q = QuantizedTensor::quantize(&w);
        assert_eq!(q.q, vec![-127, 127]);
    }

    #[test]
    fn subnormal_weights_quantize_to_zero_not_inf() {
        // max/127 rounds to 0.0 for subnormal max; the seed then computed
        // v/0.0 = ±inf and clamped to ±127 garbage. Fixed: treated as zero.
        let tiny = 1.0e-44f32; // subnormal, tiny/127 == 0.0 in f32
        assert_eq!(tiny / 127.0, 0.0);
        let w = Matrix::from_vec(1, 3, vec![tiny, -tiny, 0.0]);
        let q = QuantizedTensor::quantize(&w);
        assert_eq!(q.q, vec![0, 0, 0], "subnormals must not clamp to ±127");
        assert!(q.dequantize().data.iter().all(|&v| v == 0.0));
        // Error bound still honest: |tiny - 0| << scale/2.
        assert!(tiny <= q.error_bound());
    }

    #[test]
    fn storage_bytes_include_shape_metadata() {
        let w = Matrix::zeros(4, 8);
        let q = QuantizedTensor::quantize(&w);
        // 32 int8 weights + 4-byte scale + two 4-byte shape fields.
        assert_eq!(q.storage_bytes(), 32 + 4 + 8);
    }

    #[test]
    fn quantize_is_idempotent_bit_exactly() {
        let mut r = rng(9);
        for seed in 0..20 {
            let w = Matrix::xavier(7, 13, &mut r);
            let q1 = QuantizedTensor::quantize(&w);
            let d1 = q1.dequantize();
            let q2 = QuantizedTensor::quantize(&d1);
            assert_eq!(q1.q, q2.q, "seed {seed}: q drifted");
            assert_eq!(
                q1.scale.to_bits(),
                q2.scale.to_bits(),
                "seed {seed}: scale drifted"
            );
            assert_eq!(d1.data, q2.dequantize().data, "seed {seed}: values drifted");
        }
    }

    #[test]
    fn quantize_module_twice_is_noop() {
        let mut r = rng(2);
        let mut l = Linear::new(16, 16, &mut r);
        let bytes1 = quantize_module(&mut l);
        let after_once: Vec<f32> = l.w.w.data.clone();
        let bytes2 = quantize_module(&mut l);
        assert_eq!(l.w.w.data, after_once, "second quantization drifted");
        assert_eq!(bytes1, bytes2);
    }

    #[test]
    fn quantize_module_shrinks_storage_4x() {
        let mut r = rng(2);
        let mut l = Linear::new(32, 32, &mut r);
        let float_bytes = float_storage_bytes(&l);
        let int_bytes = quantize_module(&mut l);
        assert!(int_bytes * 3 < float_bytes, "{int_bytes} vs {float_bytes}");
    }

    #[test]
    fn quantized_linear_output_stays_close() {
        let mut r = rng(3);
        let mut l = Linear::new(8, 8, &mut r);
        let x = Matrix::xavier(4, 8, &mut r);
        let before = l.infer(&x);
        quantize_module(&mut l);
        let after = l.infer(&x);
        for (a, b) in before.data.iter().zip(after.data.iter()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    // --- i8 kernels ---

    fn random_i8(len: usize, r: &mut rand_chacha::ChaCha8Rng) -> Vec<i8> {
        use rand::Rng;
        (0..len).map(|_| r.gen_range(-127i32..=127) as i8).collect()
    }

    #[test]
    fn i8_kernels_match_reference_bit_exactly_on_odd_shapes() {
        let mut r = rng(11);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (2, 4, 4),
            (9, 64, 64),
            (9, 128, 128),
            (5, 17, 3),
            (4, 33, 8),
            (0, 4, 4),
            (4, 0, 4),
        ] {
            let a = random_i8(m * k, &mut r);
            let b = random_i8(k * n, &mut r);
            let mut fast = vec![7i32; m * n];
            let mut slow = vec![-7i32; m * n];
            matmul_i8_into(&a, &b, m, k, n, &mut fast);
            matmul_i8_ref(&a, &b, m, k, n, &mut slow);
            assert_eq!(fast, slow, "matmul_i8 ({m},{k},{n})");
            let bt = random_i8(n * k, &mut r);
            let mut fast_bt = vec![1i32; m * n];
            let mut slow_bt = vec![2i32; m * n];
            matmul_i8_bt_into(&a, &bt, m, k, n, &mut fast_bt);
            matmul_i8_bt_ref(&a, &bt, m, k, n, &mut slow_bt);
            assert_eq!(fast_bt, slow_bt, "matmul_i8_bt ({m},{k},{n})");
            let bt16: Vec<i16> = bt.iter().map(|&v| v as i16).collect();
            let mut fast_w16 = vec![3i32; m * n];
            let mut xw = vec![0i16; k.max(1)];
            matmul_i8w16_bt_into(&a, &bt16, m, k, n, &mut xw, &mut fast_w16);
            assert_eq!(fast_w16, slow_bt, "matmul_i8w16_bt ({m},{k},{n})");
        }
    }

    #[test]
    fn i8_accumulation_is_exact_at_extremes() {
        // 127·127·k must not saturate or wrap for any realistic k.
        let k = 512usize;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        let mut out = vec![0i32; 1];
        matmul_i8_bt_into(&a, &b, 1, k, 1, &mut out);
        assert_eq!(out[0], 127 * 127 * k as i32);
        let an = vec![-127i8; k];
        matmul_i8_bt_into(&an, &b, 1, k, 1, &mut out);
        assert_eq!(out[0], -127 * 127 * k as i32);
        let b16 = vec![127i16; k];
        let mut xw = vec![0i16; k];
        matmul_i8w16_bt_into(&an, &b16, 1, k, 1, &mut xw, &mut out);
        assert_eq!(out[0], -127 * 127 * k as i32);
    }

    // --- QuantizedLinear ---

    #[test]
    fn quantized_linear_tracks_f32_linear() {
        let mut r = rng(21);
        for &(rows, in_dim, out_dim) in &[(1usize, 8usize, 8usize), (9, 64, 64), (5, 32, 16)] {
            let l = Linear::new(in_dim, out_dim, &mut r);
            let ql = QuantizedLinear::from_linear(&l);
            let x = Matrix::xavier(rows, in_dim, &mut r);
            let exact = l.infer(&x);
            let quant = ql.infer(&x);
            // Error bound: each of the k products carries at most
            // |x|max·sw/2 + |w|max·sx/2 + sw·sx/4 of quantization error;
            // with s = max/127 that is ≈ k·|x|max·|w|max/127.
            let xmax = x.data.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let wmax = l.w.w.data.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let bound = in_dim as f32 * xmax * wmax / 100.0;
            for (a, b) in exact.data.iter().zip(quant.data.iter()) {
                assert!(
                    (a - b).abs() <= bound,
                    "({rows},{in_dim},{out_dim}): {a} vs {b} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn per_row_scales_isolate_outlier_channels() {
        // One output channel with a 100× outlier weight: per-tensor scaling
        // would crush every other channel's resolution; per-row scaling
        // keeps them accurate.
        let mut r = rng(22);
        let mut l = Linear::new(16, 4, &mut r);
        *l.w.w.at_mut(0, 3) = 100.0; // outlier in channel 3 only
        let ql = QuantizedLinear::from_linear(&l);
        let x = Matrix::xavier(2, 16, &mut r);
        let exact = l.infer(&x);
        let quant = ql.infer(&x);
        // Channels 0..3 must stay tight despite channel 3's outlier.
        for row in 0..2 {
            for c in 0..3 {
                let (a, b) = (exact.at(row, c), quant.at(row, c));
                assert!((a - b).abs() < 0.05, "ch {c}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantized_linear_zero_rows_give_exact_bias() {
        let mut r = rng(23);
        let l = Linear::new(8, 4, &mut r);
        let ql = QuantizedLinear::from_linear(&l);
        let x = Matrix::zeros(3, 8);
        let y = ql.infer(&x);
        for row in 0..3 {
            assert_eq!(y.row(row), &ql.bias[..], "zero row must yield bias");
        }
    }

    #[test]
    fn quantized_linear_from_rows_matches_from_weight() {
        let mut r = rng(24);
        let w = Matrix::xavier(8, 6, &mut r); // [in, out]
        let a = QuantizedLinear::from_weight(&w, None);
        let b = QuantizedLinear::from_rows(&w.transpose(), None);
        assert_eq!(a.qw, b.qw);
        assert_eq!(a.scales, b.scales);
    }

    #[test]
    fn quantized_linear_arena_steady_state_is_allocation_free() {
        let mut r = rng(25);
        let l = Linear::new(16, 16, &mut r);
        let ql = QuantizedLinear::from_linear(&l);
        let x = Matrix::xavier(4, 16, &mut r);
        let mut s = ScratchArena::new();
        let w = ql.infer_in(&x, &mut s);
        let baseline = w.data.clone();
        s.give(w);
        let (_, misses_warm) = s.stats();
        for _ in 0..5 {
            let y = ql.infer_in(&x, &mut s);
            assert_eq!(y.data, baseline);
            s.give(y);
        }
        let (_, misses) = s.stats();
        assert_eq!(misses, misses_warm, "steady state must not allocate");
    }
}
