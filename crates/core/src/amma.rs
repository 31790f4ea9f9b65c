//! AMMA — Attention-based network with Multi-Modality Attention fusion
//! (§4.3.2, Figure 7): the backbone of both MPGraph predictors.
//!
//! Architecture, exactly as the paper lays it out:
//!
//! 1. each modality (address features, PC features) is embedded and passed
//!    through its own **self-attention layer** (Eq. 7, attention dim 64 in
//!    Table 5);
//! 2. the per-modality representations are concatenated feature-wise and
//!    fused by the **multi-modality attention fusion** layer (Eq. 8, fusion
//!    dim 128);
//! 3. `L` **Transformer layers** (Eq. 9-10, one layer, 4 heads, dim 128)
//!    refine the fused sequence;
//! 4. mean-pooling produces the sequence representation consumed by the
//!    task head (MLP + sigmoid or softmax).
//!
//! Default dimensions here are half of Table 5's (attention 32, fusion 64)
//! so that the full per-phase × per-app training sweeps finish on a CPU in
//! minutes; [`AmmaConfig::paper`] restores the published configuration
//! (used for the Table 8 complexity accounting).

use mpgraph_ml::arena::ScratchArena;
use mpgraph_ml::attention::SelfAttention;
use mpgraph_ml::layers::{Embedding, Linear, Module, Param, Project};
use mpgraph_ml::quant::QuantizedLinear;
use mpgraph_ml::tensor::Matrix;
use mpgraph_ml::transformer::TransformerLayer;
use rand_chacha::ChaCha8Rng;

/// AMMA dimensions (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmmaConfig {
    /// History length T.
    pub history: usize,
    /// Per-modality attention dimension.
    pub attn_dim: usize,
    /// Fusion / Transformer dimension (2 × attn_dim by construction).
    pub fusion_dim: usize,
    /// Transformer layers L.
    pub layers: usize,
    /// Transformer heads.
    pub heads: usize,
}

impl Default for AmmaConfig {
    fn default() -> Self {
        AmmaConfig {
            history: 9,
            attn_dim: 32,
            fusion_dim: 64,
            layers: 1,
            heads: 4,
        }
    }
}

impl AmmaConfig {
    /// The exact Table 5 configuration.
    pub fn paper() -> Self {
        AmmaConfig {
            history: 9,
            attn_dim: 64,
            fusion_dim: 128,
            layers: 1,
            heads: 4,
        }
    }

    /// A compressed student configuration at `factor`× smaller dims
    /// (knowledge-distillation targets of §6.1).
    pub fn student(attn_dim: usize) -> Self {
        AmmaConfig {
            history: 9,
            attn_dim,
            fusion_dim: 2 * attn_dim,
            layers: 1,
            heads: if 2 * attn_dim >= 4 { 4 } else { 1 },
        }
    }
}

/// One modality's input: a `[T, feat]` matrix.
#[derive(Debug, Clone)]
pub struct ModalInput {
    pub addr: Matrix,
    pub pc: Matrix,
}

/// The AMMA backbone (feature extractor). `P` is the projection weight
/// type of the attention layers and `L` the dense-layer type of the
/// modality embeddings and FFNs: the trained model is `Amma` (f32), and
/// [`Amma::quantized`] builds the `Amma<QuantizedLinear, QuantizedLinear>`
/// int8 snapshot. Positional encodings, residual adds, softmax, layer norms
/// and the phase embedding stay f32 in both.
#[derive(Debug, Clone)]
pub struct Amma<P = Param, L = Linear> {
    pub cfg: AmmaConfig,
    embed_addr: L,
    embed_pc: L,
    attn_addr: SelfAttention<P>,
    attn_pc: SelfAttention<P>,
    /// Multi-modality attention fusion over the concatenated embeddings.
    fusion: SelfAttention<P>,
    trans: Vec<TransformerLayer<P, L>>,
    /// Optional phase-informed side input (AMMA-PI): one embedding per
    /// phase, added to the fused representation after the MMAF layer.
    phase_embed: Option<Embedding>,
    cache_rows: usize,
}

impl Amma {
    pub fn new(addr_feats: usize, pc_feats: usize, cfg: AmmaConfig, rng: &mut ChaCha8Rng) -> Self {
        assert_eq!(cfg.fusion_dim, 2 * cfg.attn_dim, "fusion = 2 × attention");
        Amma {
            embed_addr: Linear::new(addr_feats, cfg.attn_dim, rng),
            embed_pc: Linear::new(pc_feats, cfg.attn_dim, rng),
            attn_addr: SelfAttention::new(cfg.attn_dim, cfg.attn_dim, rng),
            attn_pc: SelfAttention::new(cfg.attn_dim, cfg.attn_dim, rng),
            fusion: SelfAttention::new(cfg.fusion_dim, cfg.fusion_dim, rng),
            trans: (0..cfg.layers)
                .map(|_| TransformerLayer::new(cfg.fusion_dim, cfg.heads, rng))
                .collect(),
            phase_embed: None,
            cache_rows: 0,
            cfg,
        }
    }

    /// Enables the phase-informed variant (AMMA-PI) for `num_phases`.
    pub fn with_phase_embedding(mut self, num_phases: usize, rng: &mut ChaCha8Rng) -> Self {
        self.phase_embed = Some(Embedding::new(num_phases, self.cfg.fusion_dim, rng));
        self
    }

    /// Int8 snapshot of the current weights: every weight-side product
    /// runs through [`QuantizedLinear`] with per-output-channel scales.
    pub fn quantized(&self) -> Amma<QuantizedLinear, QuantizedLinear> {
        Amma {
            cfg: self.cfg,
            embed_addr: QuantizedLinear::from_linear(&self.embed_addr),
            embed_pc: QuantizedLinear::from_linear(&self.embed_pc),
            attn_addr: self.attn_addr.quantized(),
            attn_pc: self.attn_pc.quantized(),
            fusion: self.fusion.quantized(),
            trans: self.trans.iter().map(TransformerLayer::quantized).collect(),
            phase_embed: self.phase_embed.clone(),
            cache_rows: 0,
        }
    }

    fn fuse(a: &Matrix, b: &Matrix) -> Matrix {
        // Feature-wise concatenation: [T, A] ++ [T, A] → [T, 2A].
        assert_eq!(a.rows, b.rows);
        let mut out = Matrix::zeros(a.rows, a.cols + b.cols);
        for r in 0..a.rows {
            out.row_mut(r)[..a.cols].copy_from_slice(a.row(r));
            out.row_mut(r)[a.cols..].copy_from_slice(b.row(r));
        }
        out
    }

    fn unfuse(d: &Matrix, a_cols: usize) -> (Matrix, Matrix) {
        let b_cols = d.cols - a_cols;
        let mut da = Matrix::zeros(d.rows, a_cols);
        let mut db = Matrix::zeros(d.rows, b_cols);
        for r in 0..d.rows {
            da.row_mut(r).copy_from_slice(&d.row(r)[..a_cols]);
            db.row_mut(r).copy_from_slice(&d.row(r)[a_cols..]);
        }
        (da, db)
    }

    /// Training forward: pooled `[1, fusion_dim]` representation — the
    /// last position's row (the standard next-token readout; with
    /// attention underneath, the last position already aggregates the
    /// whole history, and mean pooling would dilute it). `phase` is
    /// consumed only by the phase-informed variant.
    pub fn forward(&mut self, x: &ModalInput, phase: usize) -> Matrix {
        self.cache_rows = x.addr.rows;
        let pe = mpgraph_ml::tensor::positional_encoding(x.addr.rows, self.cfg.attn_dim);
        let mut ea = self.embed_addr.forward(&x.addr);
        ea.add_assign(&pe);
        let mut ep = self.embed_pc.forward(&x.pc);
        ep.add_assign(&pe);
        // Residual connections around each attention keep a direct path
        // from the embeddings to the readout (gradient flow; standard
        // practice even where Figure 7 leaves it implicit).
        let mut ha = self.attn_addr.forward(&ea);
        ha.add_assign(&ea);
        let mut hp = self.attn_pc.forward(&ep);
        hp.add_assign(&ep);
        let fused_in = Self::fuse(&ha, &hp);
        let mut h = self.fusion.forward(&fused_in);
        h.add_assign(&fused_in);
        if let Some(pe) = &mut self.phase_embed {
            let e = pe.forward(&vec![phase; h.rows]);
            h.add_assign(&e);
        }
        for t in self.trans.iter_mut() {
            h = t.forward(&h);
        }
        Matrix::from_vec(1, h.cols, h.row(h.rows - 1).to_vec())
    }

    /// Backward from the pooled gradient `[1, fusion_dim]`. Returns the
    /// gradients w.r.t. the two modality inputs `(d_addr, d_pc)` so that
    /// upstream embeddings (the page tokenizer) can train through AMMA.
    pub fn backward(&mut self, d_pooled: &Matrix) -> (Matrix, Matrix) {
        let rows = self.cache_rows;
        let dim = self.cfg.fusion_dim;
        // Last-position readout: the gradient enters at the final row only.
        let mut dh = Matrix::zeros(rows, dim);
        dh.row_mut(rows - 1).copy_from_slice(d_pooled.row(0));
        for t in self.trans.iter_mut().rev() {
            dh = t.backward(&dh);
        }
        if let Some(pe) = &mut self.phase_embed {
            pe.backward(&dh);
        }
        // h = fusion(f) + f
        let mut d_fused_in = self.fusion.backward(&dh);
        d_fused_in.add_assign(&dh);
        let (d_ha, d_hp) = Self::unfuse(&d_fused_in, self.cfg.attn_dim);
        // ha = attn(ea) + ea
        let mut d_ea = self.attn_addr.backward(&d_ha);
        d_ea.add_assign(&d_ha);
        let mut d_ep = self.attn_pc.backward(&d_hp);
        d_ep.add_assign(&d_hp);
        let d_addr = self.embed_addr.backward(&d_ea);
        let d_pc = self.embed_pc.backward(&d_ep);
        (d_addr, d_pc)
    }
}

impl<P: Project, L: Project> Amma<P, L> {
    pub fn is_phase_informed(&self) -> bool {
        self.phase_embed.is_some()
    }

    /// Output dimension of the pooled representation.
    pub fn out_dim(&self) -> usize {
        self.cfg.fusion_dim
    }

    /// Deployed size: the projections plus the f32 phase-embedding table
    /// (small, accuracy-critical).
    pub fn storage_bytes(&self) -> usize {
        self.embed_addr.storage_bytes()
            + self.embed_pc.storage_bytes()
            + self.attn_addr.storage_bytes()
            + self.attn_pc.storage_bytes()
            + self.fusion.storage_bytes()
            + self
                .trans
                .iter()
                .map(TransformerLayer::storage_bytes)
                .sum::<usize>()
            + self.phase_embed.as_ref().map_or(0, Project::storage_bytes)
    }

    /// Inference over `batch` stacked sequences: `x.addr`/`x.pc` are
    /// `[batch * T, F]` with each sequence contiguous (a single window is
    /// `batch = 1`). The linear embeddings, fusion concat, phase broadcast,
    /// and transformer FFNs fuse across the whole stack; self-attention and
    /// the positional encoding stay per-sequence. Returns
    /// `[batch, fusion_dim]`, the last-position readout of each sequence,
    /// with row `b` bit-identical to sequence `b` run alone (the whole
    /// batch shares one `phase`). Allocation-free once `s` is warm — this
    /// is the prefetcher hot path.
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
        let seq = x.addr.rows / batch;
        let mut ea = self.embed_addr.project_in(&x.addr, s);
        s.add_positional_per_seq(&mut ea, seq);
        let mut ep = self.embed_pc.project_in(&x.pc, s);
        s.add_positional_per_seq(&mut ep, seq);
        let mut ha = self.attn_addr.infer_batch_in(&ea, batch, s);
        ha.add_assign(&ea);
        s.give(ea);
        let mut hp = self.attn_pc.infer_batch_in(&ep, batch, s);
        hp.add_assign(&ep);
        s.give(ep);
        let mut fused_in = s.take(ha.rows, ha.cols + hp.cols);
        let a_cols = ha.cols;
        for r in 0..ha.rows {
            fused_in.row_mut(r)[..a_cols].copy_from_slice(ha.row(r));
            fused_in.row_mut(r)[a_cols..].copy_from_slice(hp.row(r));
        }
        s.give(ha);
        s.give(hp);
        let mut h = self.fusion.infer_batch_in(&fused_in, batch, s);
        h.add_assign(&fused_in);
        s.give(fused_in);
        if let Some(pe) = &self.phase_embed {
            // Same values as adding the repeated-token embedding matrix,
            // without materializing it.
            pe.add_row_broadcast(phase, &mut h);
        }
        for t in &self.trans {
            let h2 = t.infer_batch_in(&h, batch, s);
            s.give(h);
            h = h2;
        }
        let mut pooled = s.take(batch, h.cols);
        for b in 0..batch {
            pooled.row_mut(b).copy_from_slice(h.row((b + 1) * seq - 1));
        }
        s.give(h);
        pooled
    }
}

impl Module for Amma {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed_addr.for_each_param(f);
        self.embed_pc.for_each_param(f);
        self.attn_addr.for_each_param(f);
        self.attn_pc.for_each_param(f);
        self.fusion.for_each_param(f);
        for t in &mut self.trans {
            t.for_each_param(f);
        }
        if let Some(pe) = &mut self.phase_embed {
            pe.for_each_param(f);
        }
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.embed_addr.for_each_param_ref(f);
        self.embed_pc.for_each_param_ref(f);
        self.attn_addr.for_each_param_ref(f);
        self.attn_pc.for_each_param_ref(f);
        self.fusion.for_each_param_ref(f);
        for t in &self.trans {
            t.for_each_param_ref(f);
        }
        if let Some(pe) = &self.phase_embed {
            pe.for_each_param_ref(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_batch_rows_match_single, max_abs_diff};
    use mpgraph_ml::optim::Adam;
    use mpgraph_ml::tensor::rng;

    fn infer(amma: &Amma, x: &ModalInput, phase: usize) -> Matrix {
        amma.infer_batch_in(x, 1, phase, &mut ScratchArena::new())
    }

    fn tiny_cfg() -> AmmaConfig {
        AmmaConfig {
            history: 5,
            attn_dim: 8,
            fusion_dim: 16,
            layers: 1,
            heads: 2,
        }
    }

    fn input(seed: u64, rows: usize) -> ModalInput {
        let mut r = rng(seed);
        ModalInput {
            addr: Matrix::xavier(rows, 4, &mut r),
            pc: Matrix::xavier(rows, 1, &mut r),
        }
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng(1);
        let mut amma = Amma::new(4, 1, tiny_cfg(), &mut r);
        let y = amma.forward(&input(2, 5), 0);
        assert_eq!((y.rows, y.cols), (1, 16));
        assert_eq!(amma.out_dim(), 16);
    }

    #[test]
    fn inference_tracks_training_forward() {
        let mut r = rng(3);
        let mut amma = Amma::new(4, 1, tiny_cfg(), &mut r);
        let x = input(4, 5);
        let a = amma.forward(&x, 0);
        assert!(max_abs_diff(&a.data, &infer(&amma, &x, 0).data) < 1e-6);
    }

    #[test]
    fn batched_rows_match_single_for_f32_and_int8() {
        let mut r = rng(11);
        // Phase-informed variant exercises the broadcast path too.
        let amma = Amma::new(4, 1, tiny_cfg(), &mut r).with_phase_embedding(3, &mut r);
        let q = amma.quantized();
        assert_batch_rows_match_single(5, 4, 3, |x, b, p, s| amma.infer_batch_in(x, b, p, s));
        assert_batch_rows_match_single(5, 4, 3, |x, b, p, s| q.infer_batch_in(x, b, p, s));
    }

    #[test]
    fn phase_informed_variant_distinguishes_phases() {
        let mut r = rng(5);
        let amma = Amma::new(4, 1, tiny_cfg(), &mut r).with_phase_embedding(2, &mut r);
        let x = input(6, 5);
        let y0 = infer(&amma, &x, 0);
        let y1 = infer(&amma, &x, 1);
        assert!(amma.is_phase_informed());
        let diff: f32 = y0
            .data
            .iter()
            .zip(y1.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "phase embedding has no effect");
    }

    #[test]
    fn plain_variant_ignores_phase_argument() {
        let mut r = rng(6);
        let mut amma = Amma::new(4, 1, tiny_cfg(), &mut r);
        let x = input(7, 5);
        assert_eq!(amma.forward(&x, 0), amma.forward(&x, 1));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut r = rng(7);
        let mut amma = Amma::new(4, 1, tiny_cfg(), &mut r);
        let x = input(8, 4);
        let w = Matrix::xavier(1, 16, &mut r);
        let _y = amma.forward(&x, 0);
        amma.backward(&w);
        // Check one embed_addr weight gradient numerically.
        let eps = 1e-2f32;
        let analytic = amma.embed_addr.w.g.at(1, 2);
        let loss = |m: &Amma| -> f32 {
            infer(m, &x, 0)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let mut p = amma.clone();
        *p.embed_addr.w.w.at_mut(1, 2) += eps;
        let mut m = amma.clone();
        *m.embed_addr.w.w.at_mut(1, 2) -= eps;
        let num = (loss(&p) - loss(&m)) / (2.0 * eps);
        assert!(
            (num - analytic).abs() < 5e-2,
            "numeric {num} vs analytic {analytic}"
        );
    }

    #[test]
    fn amma_trains_to_separate_two_patterns() {
        // Binary task: pooled→linear→which of two synthetic input patterns.
        let mut r = rng(8);
        let mut amma = Amma::new(2, 1, tiny_cfg(), &mut r);
        let mut head = mpgraph_ml::layers::Linear::new(16, 2, &mut r);
        let mut opt = Adam::new(5e-3);
        let make = |class: usize, jitter: f32| -> ModalInput {
            let rows = 5;
            let mut addr = Matrix::zeros(rows, 2);
            for t in 0..rows {
                addr.data[t * 2] = if class == 0 {
                    t as f32 / 5.0
                } else {
                    1.0 - t as f32 / 5.0
                };
                addr.data[t * 2 + 1] = jitter;
            }
            ModalInput {
                addr,
                pc: Matrix::zeros(rows, 1),
            }
        };
        for step in 0..300 {
            let class = step % 2;
            let x = make(class, (step % 7) as f32 * 0.01);
            let pooled = amma.forward(&x, 0);
            let logits = head.forward(&pooled);
            let (_, d) = mpgraph_ml::loss::softmax_cross_entropy(&logits, &[class]);
            let dp = head.backward(&d);
            amma.backward(&dp);
            opt.step(&mut amma);
            opt.step(&mut head);
        }
        // Both patterns classified correctly.
        for class in 0..2 {
            let x = make(class, 0.02);
            let logits = head.infer(&infer(&amma, &x, 0));
            let pred = if logits.data[0] > logits.data[1] {
                0
            } else {
                1
            };
            assert_eq!(pred, class, "misclassified pattern {class}");
        }
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = AmmaConfig::paper();
        assert_eq!(cfg.history, 9);
        assert_eq!(cfg.attn_dim, 64);
        assert_eq!(cfg.fusion_dim, 128);
        assert_eq!(cfg.layers, 1);
        assert_eq!(cfg.heads, 4);
    }

    #[test]
    fn student_config_scales_down() {
        let s = AmmaConfig::student(4);
        assert_eq!(s.fusion_dim, 8);
        let mut r = rng(9);
        let big = Amma::new(4, 1, AmmaConfig::paper(), &mut r);
        let small = Amma::new(4, 1, s, &mut r);
        assert!(big.num_params() > 20 * small.num_params());
    }

    #[test]
    fn int8_snapshot_tracks_f32_and_shrinks() {
        let mut r = rng(21);
        let amma = Amma::new(4, 1, tiny_cfg(), &mut r).with_phase_embedding(3, &mut r);
        let q = amma.quantized();
        let x = input(22, 5);
        let mut s = ScratchArena::new();
        for phase in 0..3 {
            let exact = amma.infer_batch_in(&x, 1, phase, &mut s);
            let quant = q.infer_batch_in(&x, 1, phase, &mut s);
            // Post-LN output is O(1); int8 error stays well below it but
            // must not be zero (the paths really are different).
            let diff = max_abs_diff(&exact.data, &quant.data);
            assert!(diff < 0.35, "phase {phase}: diff {diff}");
            assert!(diff > 0.0, "quant path identical to f32 — not quantized?");
        }
        let (qbytes, fbytes) = (q.storage_bytes(), amma.num_params() * 4);
        assert!(qbytes * 3 < fbytes * 2, "{qbytes} vs {fbytes}");
    }

    #[test]
    #[should_panic(expected = "fusion = 2")]
    fn inconsistent_dims_panic() {
        let mut r = rng(10);
        let _ = Amma::new(
            4,
            1,
            AmmaConfig {
                history: 5,
                attn_dim: 8,
                fusion_dim: 20,
                layers: 1,
                heads: 2,
            },
            &mut r,
        );
    }
}
