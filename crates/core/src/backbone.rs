//! Unified sequence-model backbone used by the Table 6/7 comparisons: the
//! same predictor heads can run on an LSTM (the Hashemi-style baseline row),
//! a vanilla attention stack (the TransFetch-style row), or AMMA — so the
//! only difference measured is exactly what the paper varies.

use crate::amma::{Amma, AmmaConfig, ModalInput};
use mpgraph_ml::arena::ScratchArena;
use mpgraph_ml::layers::{Embedding, Linear, Module, Param, Project};
use mpgraph_ml::lstm::{Lstm, LstmGates};
use mpgraph_ml::quant::QuantizedLinear;
use mpgraph_ml::tensor::Matrix;
use mpgraph_ml::transformer::{
    readout_backward, readout_forward, readout_infer_batch_in, TransformerLayer,
};
use rand_chacha::ChaCha8Rng;

/// Which sequence model extracts features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackboneKind {
    /// Concatenated-modality LSTM (Tables 6-7 "LSTM" row; hidden = fusion
    /// dim for parameter parity).
    Lstm,
    /// Vanilla Transformer over concatenated modalities with the PC as
    /// plain side features (Tables 6-7 "Attention" row; 2 layers).
    Attention,
    /// The paper's multi-modality attention fusion network.
    Amma,
}

impl BackboneKind {
    pub fn name(&self) -> &'static str {
        match self {
            BackboneKind::Lstm => "LSTM",
            BackboneKind::Attention => "Attention",
            BackboneKind::Amma => "AMMA",
        }
    }
}

/// A backbone instance. All variants map a [`ModalInput`] (addr features
/// `[T, Fa]`, pc features `[T, Fp]`) to a pooled `[1, out_dim]` vector.
/// `P`/`L` are the projection and dense-layer weight types, as in
/// [`Amma`]: `Backbone` is the trained f32 model and
/// [`Backbone::quantized`] its int8 snapshot.
#[derive(Debug, Clone)]
pub enum Backbone<P = Param, L = Linear> {
    Lstm {
        lstm: Lstm<P>,
        cache_rows: usize,
        pc_feats: usize,
    },
    Attention {
        proj: L,
        layers: Vec<TransformerLayer<P, L>>,
        dim: usize,
        pc_feats: usize,
    },
    Amma(Box<Amma<P, L>>),
}

impl Backbone {
    pub fn new(
        kind: BackboneKind,
        addr_feats: usize,
        pc_feats: usize,
        cfg: AmmaConfig,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        match kind {
            BackboneKind::Lstm => Backbone::Lstm {
                lstm: Lstm::new(addr_feats + pc_feats, cfg.fusion_dim, rng),
                cache_rows: 0,
                pc_feats,
            },
            BackboneKind::Attention => Backbone::Attention {
                proj: Linear::new(addr_feats + pc_feats, cfg.fusion_dim, rng),
                layers: (0..2)
                    .map(|_| TransformerLayer::new(cfg.fusion_dim, cfg.heads, rng))
                    .collect(),
                dim: cfg.fusion_dim,
                pc_feats,
            },
            BackboneKind::Amma => {
                Backbone::Amma(Box::new(Amma::new(addr_feats, pc_feats, cfg, rng)))
            }
        }
    }

    /// Enables phase-informed mode (only meaningful for AMMA).
    pub fn with_phase_embedding(self, num_phases: usize, rng: &mut ChaCha8Rng) -> Self {
        match self {
            Backbone::Amma(a) => Backbone::Amma(Box::new(a.with_phase_embedding(num_phases, rng))),
            other => other,
        }
    }

    /// Int8 snapshot of the current weights: the same
    /// [`Backbone::infer_batch_in`], instantiated with [`QuantizedLinear`].
    pub fn quantized(&self) -> Backbone<QuantizedLinear, QuantizedLinear> {
        match self {
            Backbone::Lstm {
                lstm,
                cache_rows,
                pc_feats,
            } => Backbone::Lstm {
                lstm: lstm.quantized(),
                cache_rows: *cache_rows,
                pc_feats: *pc_feats,
            },
            Backbone::Attention {
                proj,
                layers,
                dim,
                pc_feats,
            } => Backbone::Attention {
                proj: QuantizedLinear::from_linear(proj),
                layers: layers.iter().map(TransformerLayer::quantized).collect(),
                dim: *dim,
                pc_feats: *pc_feats,
            },
            Backbone::Amma(a) => Backbone::Amma(Box::new(a.quantized())),
        }
    }

    fn concat(x: &ModalInput) -> Matrix {
        let rows = x.addr.rows;
        let mut out = Matrix::zeros(rows, x.addr.cols + x.pc.cols);
        for r in 0..rows {
            out.row_mut(r)[..x.addr.cols].copy_from_slice(x.addr.row(r));
            out.row_mut(r)[x.addr.cols..].copy_from_slice(x.pc.row(r));
        }
        out
    }

    pub fn forward(&mut self, x: &ModalInput, phase: usize) -> Matrix {
        match self {
            Backbone::Lstm {
                lstm, cache_rows, ..
            } => {
                *cache_rows = x.addr.rows;
                let h = lstm.forward(&Self::concat(x));
                Matrix::from_vec(1, h.cols, h.row(h.rows - 1).to_vec())
            }
            Backbone::Attention { proj, layers, .. } => {
                let mut h = proj.forward(&Self::concat(x));
                h.add_assign(&mpgraph_ml::tensor::positional_encoding(h.rows, h.cols));
                readout_forward(layers, h)
            }
            Backbone::Amma(a) => a.forward(x, phase),
        }
    }

    /// Backward pass; returns gradients w.r.t. the modality inputs
    /// `(d_addr, d_pc)` so upstream embeddings can train.
    pub fn backward(&mut self, d_out: &Matrix) -> (Matrix, Matrix) {
        match self {
            Backbone::Lstm {
                lstm,
                cache_rows,
                pc_feats,
            } => {
                let rows = *cache_rows;
                let mut dh = Matrix::zeros(rows, d_out.cols);
                dh.row_mut(rows - 1).copy_from_slice(d_out.row(0));
                let dx = lstm.backward(&dh);
                Self::split_concat(&dx, *pc_feats)
            }
            Backbone::Attention {
                proj,
                layers,
                pc_feats,
                ..
            } => {
                let dh = readout_backward(layers, d_out);
                let dx = proj.backward(&dh);
                Self::split_concat(&dx, *pc_feats)
            }
            Backbone::Amma(a) => a.backward(d_out),
        }
    }

    /// Splits a concatenated-input gradient back into (addr, pc) parts;
    /// the pc modality occupies the trailing `pc_cols` columns.
    fn split_concat(dx: &Matrix, pc_cols: usize) -> (Matrix, Matrix) {
        let a_cols = dx.cols - pc_cols;
        let mut da = Matrix::zeros(dx.rows, a_cols);
        let mut dp = Matrix::zeros(dx.rows, pc_cols);
        for r in 0..dx.rows {
            da.row_mut(r).copy_from_slice(&dx.row(r)[..a_cols]);
            dp.row_mut(r).copy_from_slice(&dx.row(r)[a_cols..]);
        }
        (da, dp)
    }
}

impl<P: Project + LstmGates, L: Project> Backbone<P, L> {
    pub fn out_dim(&self) -> usize {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.hidden_dim(),
            Backbone::Attention { dim, .. } => *dim,
            Backbone::Amma(a) => a.out_dim(),
        }
    }

    /// Deployed size of the weights, in bytes.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.storage_bytes(),
            Backbone::Attention { proj, layers, .. } => {
                proj.storage_bytes()
                    + layers
                        .iter()
                        .map(TransformerLayer::storage_bytes)
                        .sum::<usize>()
            }
            Backbone::Amma(a) => a.storage_bytes(),
        }
    }

    /// Inference over `batch` stacked sequences (`[batch * T, F]` per
    /// modality, each sequence contiguous; a single window is
    /// `batch = 1`). Returns `[batch, out_dim]` with row `b` bit-identical
    /// to sequence `b` run alone; the whole batch shares one `phase`.
    /// Allocation-free once `s` is warm, for every kind.
    pub fn infer_batch_in(
        &self,
        x: &ModalInput,
        batch: usize,
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        assert!(
            batch > 0 && x.addr.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        match self {
            Backbone::Lstm { lstm, .. } => {
                let cat = concat_in(x, s);
                let h = lstm.infer_batch_in(&cat, batch, s);
                s.give(cat);
                let pooled = s.last_rows(&h, batch);
                s.give(h);
                pooled
            }
            Backbone::Attention { proj, layers, .. } => {
                let cat = concat_in(x, s);
                let mut h = proj.project_in(&cat, s);
                s.give(cat);
                s.add_positional_per_seq(&mut h, x.addr.rows / batch);
                readout_infer_batch_in(layers, h, batch, s)
            }
            Backbone::Amma(a) => a.infer_batch_in(x, batch, phase, s),
        }
    }
}

/// Feature-wise concatenation of the two modalities into an arena buffer.
fn concat_in(x: &ModalInput, s: &mut ScratchArena) -> Matrix {
    let rows = x.addr.rows;
    let mut out = s.take(rows, x.addr.cols + x.pc.cols);
    for r in 0..rows {
        out.row_mut(r)[..x.addr.cols].copy_from_slice(x.addr.row(r));
        out.row_mut(r)[x.addr.cols..].copy_from_slice(x.pc.row(r));
    }
    out
}

/// Int8 snapshot of one trained phase model: the backbone, the output
/// head, and — for a page predictor's tied Softmax head — the vocabulary
/// product, each embedding-table row one quantized output channel with
/// its own scale (so one hot page with a large embedding norm cannot wash
/// out the rest of the vocabulary).
#[derive(Debug, Clone)]
pub(crate) struct Int8Model {
    backbone: Backbone<QuantizedLinear, QuantizedLinear>,
    head: QuantizedLinear,
    vocab: Option<QuantizedLinear>,
}

impl Int8Model {
    pub(crate) fn new(backbone: &Backbone, head: &Linear, tied: Option<&Embedding>) -> Self {
        Int8Model {
            backbone: backbone.quantized(),
            head: QuantizedLinear::from_linear(head),
            vocab: tied.map(|e| QuantizedLinear::from_rows(&e.table.w, None)),
        }
    }

    /// Int8 weights plus f32 scales and biases.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.backbone.storage_bytes()
            + self.head.storage_bytes()
            + self
                .vocab
                .as_ref()
                .map_or(0, QuantizedLinear::storage_bytes)
    }
}

/// One phase model as a predictor serves it: the trained f32 backbone and
/// head, the embedding table when the head is tied to it, and the int8
/// snapshot once `quantize` has built one. [`Served::logits_in`] is the
/// one place that chooses between the two weight sets.
pub(crate) struct Served<'a> {
    pub(crate) backbone: &'a Backbone,
    pub(crate) head: &'a Linear,
    pub(crate) tied: Option<&'a Embedding>,
    pub(crate) int8: Option<&'a Int8Model>,
}

impl Served<'_> {
    /// Head logits `[batch, out]` for `batch` stacked windows, through the
    /// int8 snapshot when one exists and the f32 weights otherwise. The
    /// caller gives the result back to `s`.
    pub(crate) fn logits_in(
        &self,
        x: &ModalInput,
        batch: usize,
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        match self.int8 {
            Some(q) => head_logits_in(&q.backbone, &q.head, q.vocab.as_ref(), x, batch, phase, s),
            None => head_logits_in(self.backbone, self.head, self.tied, x, batch, phase, s),
        }
    }
}

/// Backbone, then head, then (tied heads) the vocabulary product.
fn head_logits_in<P: Project + LstmGates, L: Project, V: Project>(
    backbone: &Backbone<P, L>,
    head: &L,
    vocab: Option<&V>,
    x: &ModalInput,
    batch: usize,
    phase: usize,
    s: &mut ScratchArena,
) -> Matrix {
    let pooled = backbone.infer_batch_in(x, batch, phase, s);
    let z = head.project_in(&pooled, s);
    s.give(pooled);
    match vocab {
        Some(v) => {
            let logits = v.project_in(&z, s);
            s.give(z);
            logits
        }
        None => z,
    }
}

impl Module for Backbone {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.for_each_param(f),
            Backbone::Attention { proj, layers, .. } => {
                proj.for_each_param(f);
                for l in layers {
                    l.for_each_param(f);
                }
            }
            Backbone::Amma(a) => a.for_each_param(f),
        }
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.for_each_param_ref(f),
            Backbone::Attention { proj, layers, .. } => {
                proj.for_each_param_ref(f);
                for l in layers {
                    l.for_each_param_ref(f);
                }
            }
            Backbone::Amma(a) => a.for_each_param_ref(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_batch_rows_match_single, max_abs_diff};
    use mpgraph_ml::tensor::rng;

    const KINDS: [BackboneKind; 3] = [
        BackboneKind::Lstm,
        BackboneKind::Attention,
        BackboneKind::Amma,
    ];

    fn tiny_cfg() -> AmmaConfig {
        AmmaConfig {
            history: 4,
            attn_dim: 8,
            fusion_dim: 16,
            layers: 1,
            heads: 2,
        }
    }

    fn input(seed: u64) -> ModalInput {
        let mut r = rng(seed);
        ModalInput {
            addr: Matrix::xavier(4, 3, &mut r),
            pc: Matrix::xavier(4, 1, &mut r),
        }
    }

    fn infer(b: &Backbone, x: &ModalInput, phase: usize) -> Matrix {
        b.infer_batch_in(x, 1, phase, &mut ScratchArena::new())
    }

    #[test]
    fn inference_tracks_training_forward_for_every_kind() {
        let mut r = rng(1);
        for kind in KINDS {
            let mut b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r);
            let y = b.forward(&input(2), 0);
            assert_eq!((y.rows, y.cols), (1, 16), "{}", kind.name());
            assert_eq!(b.out_dim(), 16);
            let y2 = infer(&b, &input(2), 0);
            assert!(max_abs_diff(&y.data, &y2.data) < 1e-6, "{}", kind.name());
        }
    }

    #[test]
    fn batched_rows_match_single_for_f32_and_int8() {
        let mut r = rng(7);
        for kind in KINDS {
            // Phase embedding on (AMMA-PI) exercises the broadcast path.
            let b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r).with_phase_embedding(2, &mut r);
            let q = b.quantized();
            assert_batch_rows_match_single(4, 3, 2, |x, n, p, s| b.infer_batch_in(x, n, p, s));
            assert_batch_rows_match_single(4, 3, 2, |x, n, p, s| q.infer_batch_in(x, n, p, s));
        }
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        let mut r = rng(3);
        for kind in KINDS {
            let mut b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r);
            let _ = b.forward(&input(4), 0);
            let mut d = Matrix::zeros(1, 16);
            d.data.fill(1.0);
            b.backward(&d);
            let mut total = 0.0f32;
            b.for_each_param(&mut |p| total += p.g.norm());
            assert!(total > 0.0, "{} has zero gradients", kind.name());
        }
    }

    #[test]
    fn phase_embedding_only_affects_amma() {
        let mut r = rng(5);
        let b = Backbone::new(BackboneKind::Lstm, 3, 1, tiny_cfg(), &mut r)
            .with_phase_embedding(2, &mut r);
        // LSTM backbone ignores the request (stays phase-blind).
        let x = input(6);
        assert_eq!(infer(&b, &x, 0), infer(&b, &x, 1));
        let a = Backbone::new(BackboneKind::Amma, 3, 1, tiny_cfg(), &mut r)
            .with_phase_embedding(2, &mut r);
        assert_ne!(infer(&a, &x, 0), infer(&a, &x, 1));
    }

    #[test]
    fn int8_snapshot_tracks_f32_and_shrinks_for_every_kind() {
        let mut r = rng(31);
        for kind in KINDS {
            let b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r);
            let q = b.quantized();
            let x = input(32);
            let mut s = ScratchArena::new();
            let exact = b.infer_batch_in(&x, 1, 0, &mut s);
            let quant = q.infer_batch_in(&x, 1, 0, &mut s);
            let diff = max_abs_diff(&exact.data, &quant.data);
            assert!(diff < 0.35, "{}: diff {diff}", kind.name());
            assert!(diff > 0.0, "{}: quant path identical to f32", kind.name());
            // The snapshot actually compresses: under a third of f32 bytes.
            let (qb, fb) = (q.storage_bytes(), b.num_params() * 4);
            assert!(qb * 3 < fb * 2, "{}: {qb} vs {fb}", kind.name());
        }
    }

    #[test]
    fn kind_names_match_tables() {
        assert_eq!(BackboneKind::Lstm.name(), "LSTM");
        assert_eq!(BackboneKind::Attention.name(), "Attention");
        assert_eq!(BackboneKind::Amma.name(), "AMMA");
    }
}
