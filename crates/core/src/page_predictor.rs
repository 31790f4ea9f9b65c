//! Temporal page predictor (§4.3.4, Figure 7b): tokenized page sequence and
//! hashed-PC modalities → backbone → MLP head with softmax over the page
//! vocabulary, trained with categorical cross-entropy on the next future
//! page. Also hosts the binary-encoded compressed output head of §6.1.
//!
//! Histories are *per core* (the LLC knows the requesting CPU): a core's
//! own page stream carries the iterative temporal structure the predictor
//! exploits, while the globally interleaved stream's next-page distribution
//! is close to uniform across the four cores' positions.

use crate::amma::{AmmaConfig, ModalInput};
use crate::backbone::{Backbone, Int8Model, Served};
use crate::delta_predictor::FUSED_BATCH_WINDOWS;
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::{GuardAction, TrainGuard};
use mpgraph_ml::layers::{Embedding, Linear, Module, Project, Sigmoid};
use mpgraph_ml::loss::{bce_with_logits, softmax_cross_entropy};
use mpgraph_ml::metrics::top_k_indices;
use mpgraph_ml::optim::Adam;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::mlcommon::{dedup_lanes, pc_feature, PageVocab};
use mpgraph_prefetchers::TrainCfg;
use rayon::prelude::*;

/// Output head style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageHead {
    /// Softmax over the full vocabulary (the uncompressed design).
    Softmax,
    /// Binary encoding (§6.1): class ids predicted as `ceil(log2 vocab)`
    /// independent bits, shrinking the head from `dim × vocab` to
    /// `dim × log2(vocab)`.
    BinaryEncoded,
}

/// Page-predictor hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PagePredictorConfig {
    pub amma: AmmaConfig,
    /// Page vocabulary capacity (paper discusses 2^16; scaled default).
    pub page_vocab: usize,
    /// Page-token embedding width (the address modality's feature size).
    pub embed_dim: usize,
    pub head: PageHead,
}

impl Default for PagePredictorConfig {
    fn default() -> Self {
        PagePredictorConfig {
            amma: AmmaConfig::default(),
            page_vocab: 1024,
            embed_dim: 16,
            head: PageHead::Softmax,
        }
    }
}

#[derive(Clone)]
pub(crate) struct PageModel {
    pub(crate) embed: Embedding,
    pub(crate) backbone: Backbone,
    /// Softmax head: projection to the embedding space — logits come from
    /// the dot product with the (tied) embedding table, which makes the
    /// pointer-like "one of the recently seen pages" prediction that page
    /// streams demand easy to express. BinaryEncoded head: a plain linear
    /// layer to `log2(vocab)` bits.
    pub(crate) head: Linear,
    pub(crate) tied: bool,
    /// Int8 snapshot, filled by [`PagePredictor::quantize`]. `None`
    /// means the f32 weights serve.
    pub(crate) int8: Option<Int8Model>,
}

impl PageModel {
    fn served(&self) -> Served<'_> {
        Served {
            backbone: &self.backbone,
            head: &self.head,
            tied: self.tied.then_some(&self.embed),
            int8: self.int8.as_ref(),
        }
    }
}

/// The temporal page predictor, in any of the five Table 7 variants.
/// `Clone` duplicates the trained weights and vocabulary, so a serving
/// layer can stamp out per-stream prefetchers from one trained instance.
#[derive(Clone)]
pub struct PagePredictor {
    pub variant: Variant,
    pub cfg: PagePredictorConfig,
    pub vocab: PageVocab,
    pub(crate) models: Vec<PageModel>,
    pub(crate) num_phases: usize,
    /// Bits used by the binary-encoded head.
    bits: usize,
    pub final_loss: f32,
    /// Optimizer steps taken across all phase models and epochs.
    pub train_steps: u64,
    /// `TrainGuard` weight rollbacks during training (0 on clean runs).
    pub train_rollbacks: u64,
}

impl PagePredictor {
    /// Binary target for token `t` with `bits` bits (LSB first).
    fn binary_target(token: usize, bits: usize) -> Matrix {
        let mut m = Matrix::zeros(1, bits);
        for b in 0..bits {
            m.data[b] = ((token >> b) & 1) as f32;
        }
        m
    }

    /// Decodes thresholded bit probabilities back to a token id, clamped to
    /// the vocabulary.
    pub(crate) fn decode_bits(probs: &[f32], vocab_len: usize) -> usize {
        let mut token = 0usize;
        for (b, &p) in probs.iter().enumerate() {
            if p >= 0.5 {
                token |= 1 << b;
            }
        }
        token.min(vocab_len.saturating_sub(1))
    }

    pub fn train(
        records: &[MemRecord],
        num_phases: usize,
        variant: Variant,
        cfg: PagePredictorConfig,
        tc: &TrainCfg,
    ) -> Self {
        Self::train_with_events(records, num_phases, variant, cfg, tc, None)
    }

    /// [`Self::train`] with a live rollback-event channel attached: every
    /// `TrainGuard` rollback / exhaustion pushes a structured event into
    /// `sink` at the moment it fires (see [`crate::TrainEventSink`]).
    pub fn train_with_events(
        records: &[MemRecord],
        num_phases: usize,
        variant: Variant,
        cfg: PagePredictorConfig,
        tc: &TrainCfg,
        sink: Option<&crate::TrainEventSink>,
    ) -> Self {
        let vocab = PageVocab::build(records, cfg.page_vocab);
        let bits = (usize::BITS - (cfg.page_vocab - 1).leading_zeros()) as usize;
        let out_dim = match cfg.head {
            PageHead::Softmax => cfg.page_vocab,
            PageHead::BinaryEncoded => bits,
        };
        let model_count = if variant.is_phase_specific() {
            num_phases
        } else {
            1
        };
        let mut r = rng(tc.seed ^ 0x9A6E);
        let mut models: Vec<PageModel> = (0..model_count)
            .map(|_| {
                let embed = Embedding::new(cfg.page_vocab, cfg.embed_dim, &mut r);
                let mut backbone =
                    Backbone::new(variant.backbone_kind(), cfg.embed_dim, 1, cfg.amma, &mut r);
                if variant.is_phase_informed() {
                    backbone = backbone.with_phase_embedding(num_phases, &mut r);
                }
                let tied = cfg.head == PageHead::Softmax;
                let head = if tied {
                    // Project to the embedding space for the tied product.
                    Linear::new(backbone.out_dim(), cfg.embed_dim, &mut r)
                } else {
                    Linear::new(backbone.out_dim(), out_dim, &mut r)
                };
                PageModel {
                    embed,
                    backbone,
                    head,
                    tied,
                    int8: None,
                }
            })
            .collect();
        let mut opts: Vec<Adam> = (0..model_count).map(|_| Adam::new(tc.lr)).collect();
        let mut guards: Vec<TrainGuard> = (0..model_count)
            .map(|_| TrainGuard::new(crate::prefetcher::TRAIN_CHECKPOINT_INTERVAL))
            .collect();

        // Per-core token/pc/phase subsequences (see module docs).
        let mut per_core: Vec<Vec<(usize, u64, u8)>> = vec![Vec::new(); 8];
        for rec in records {
            per_core[(rec.core as usize) % 8].push((vocab.token_of(rec.page()), rec.pc, rec.phase));
        }
        let t = tc.history;
        let seqs: Vec<Vec<(usize, u64, u8)>> =
            per_core.into_iter().filter(|s| s.len() > t + 1).collect();
        let total: usize = seqs.iter().map(|s| s.len()).sum();
        let usable = total.saturating_sub((t + 1) * seqs.len().max(1));
        let stride = (usable / tc.max_samples.max(1)).max(1);

        // Serial data-only walk over the per-core cursors: assign every
        // (sequence, window) sample to its phase model, in the exact order
        // the old interleaved loop visited them.
        let mut schedules: Vec<Vec<(usize, usize)>> = vec![Vec::new(); model_count];
        {
            let mut count = 0usize;
            let mut cursors: Vec<usize> = vec![0; seqs.len()];
            let mut which = 0usize;
            while count < tc.max_samples && !seqs.is_empty() {
                let sidx = which % seqs.len();
                which += 1;
                let seq = &seqs[sidx];
                let i = cursors[sidx];
                if i + t >= seq.len() {
                    if cursors
                        .iter()
                        .zip(seqs.iter())
                        .all(|(c, s)| c + t >= s.len())
                    {
                        break;
                    }
                    continue;
                }
                cursors[sidx] += stride;
                let phase = seq[i + t - 1].2 as usize % num_phases.max(1);
                let midx = if variant.is_phase_specific() {
                    phase
                } else {
                    0
                };
                schedules[midx].push((sidx, i));
                count += 1;
            }
        }

        // Per-model training fanned out over threads (see
        // [`DeltaPredictor::train`] for the determinism argument).
        type Job<'a> = (
            (usize, &'a mut PageModel, &'a mut Adam),
            (&'a mut TrainGuard, &'a Vec<(usize, usize)>),
        );
        let jobs: Vec<Job<'_>> = models
            .iter_mut()
            .zip(opts.iter_mut())
            .zip(guards.iter_mut().zip(schedules.iter()))
            .enumerate()
            .map(|(midx, ((m, opt), rest))| ((midx, m, opt), rest))
            .collect();
        let stats: Vec<(f32, usize, u64)> = jobs
            .into_par_iter()
            .map(|((midx, m, opt), (guard, schedule))| {
                Self::train_one_model(
                    &seqs, num_phases, bits, tc, m, opt, guard, schedule, midx, sink,
                )
            })
            .collect();
        let loss_sum: f32 = stats.iter().map(|&(l, _, _)| l).sum();
        let count: usize = stats.iter().map(|&(_, c, _)| c).sum();
        let train_steps: u64 = stats.iter().map(|&(_, _, s)| s).sum();
        let train_rollbacks: u64 = guards.iter().map(|g| g.rollbacks as u64).sum();
        let final_loss = if count > 0 {
            loss_sum / count as f32
        } else {
            f32::NAN
        };
        PagePredictor {
            variant,
            cfg,
            vocab,
            models,
            num_phases: num_phases.max(1),
            bits,
            final_loss,
            train_steps,
            train_rollbacks,
        }
    }

    /// Trains one phase model over its precomputed (sequence, window)
    /// schedule for all epochs. Returns the last completed epoch's
    /// (loss sum, sample count).
    #[allow(clippy::too_many_arguments)]
    fn train_one_model(
        seqs: &[Vec<(usize, u64, u8)>],
        num_phases: usize,
        bits: usize,
        tc: &TrainCfg,
        m: &mut PageModel,
        opt: &mut Adam,
        guard: &mut TrainGuard,
        schedule: &[(usize, usize)],
        midx: usize,
        sink: Option<&crate::TrainEventSink>,
    ) -> (f32, usize, u64) {
        let t = tc.history;
        let mut last = (0.0f32, 0usize);
        let mut steps = 0u64;
        'epochs: for _ in 0..tc.epochs {
            let mut count = 0usize;
            let mut loss_sum = 0.0f32;
            for &(sidx, i) in schedule {
                let seq = &seqs[sidx];
                let phase = seq[i + t - 1].2 as usize % num_phases.max(1);
                let target_tok = seq[i + t].0;
                let hist: Vec<(usize, u64)> = seq[i..i + t]
                    .iter()
                    .map(|&(tok, pc, _)| (tok, pc))
                    .collect();
                let tokens: Vec<usize> = hist.iter().map(|&(tk, _)| tk).collect();
                let addr = m.embed.forward(&tokens);
                let mut pc = Matrix::zeros(hist.len(), 1);
                for (j, &(_, pcv)) in hist.iter().enumerate() {
                    pc.data[j] = pc_feature(pcv);
                }
                let x = ModalInput { addr, pc };
                let pooled = m.backbone.forward(&x, phase);
                let (loss, dp) = if m.tied {
                    // logits = proj(pooled) · E^T (tied with the embedding).
                    let z = m.head.forward(&pooled); // [1, e]
                    let logits = z.matmul_bt(&m.embed.table.w); // [1, vocab]
                    let (loss, dl) = softmax_cross_entropy(&logits, &[target_tok]);
                    // d_z = dl · E ; dE[v] += dl[v] · z.
                    let d_z = dl.matmul(&m.embed.table.w);
                    let e_dim = m.embed.table.w.cols;
                    for v in 0..m.embed.table.w.rows {
                        let g = dl.data[v];
                        if g != 0.0 {
                            let row = &mut m.embed.table.g.data[v * e_dim..(v + 1) * e_dim];
                            for (gv, &zv) in row.iter_mut().zip(z.data.iter()) {
                                *gv += g * zv;
                            }
                        }
                    }
                    (loss, m.head.backward(&d_z))
                } else {
                    let logits = m.head.forward(&pooled);
                    let (loss, dl) =
                        bce_with_logits(&logits, &Self::binary_target(target_tok, bits));
                    (loss, m.head.backward(&dl))
                };
                let (d_addr, _d_pc) = m.backbone.backward(&dp);
                m.embed.backward(&d_addr);
                opt.step(&mut m.embed);
                opt.step(&mut m.backbone);
                opt.step(&mut m.head);
                count += 1;
                steps += 1;
                match guard.observe(
                    loss,
                    &mut [
                        &mut m.embed as &mut dyn Module,
                        &mut m.backbone as &mut dyn Module,
                        &mut m.head as &mut dyn Module,
                    ],
                    &mut opt.lr,
                ) {
                    GuardAction::Continue => loss_sum += loss,
                    GuardAction::RolledBack { new_lr } => {
                        count -= 1;
                        if let Some(sink) = sink {
                            sink.record(crate::obs::TrainRollbackMetrics {
                                predictor: "page".to_string(),
                                model: midx as u64,
                                step: steps,
                                new_lr: new_lr as f64,
                                exhausted: false,
                            });
                        }
                    }
                    GuardAction::Exhausted => {
                        if let Some(sink) = sink {
                            sink.record(crate::obs::TrainRollbackMetrics {
                                predictor: "page".to_string(),
                                model: midx as u64,
                                step: steps,
                                new_lr: 0.0,
                                exhausted: true,
                            });
                        }
                        break 'epochs;
                    }
                }
            }
            last = (loss_sum, count);
        }
        (last.0, last.1, steps)
    }

    fn model_for(&self, phase: usize) -> &PageModel {
        if self.variant.is_phase_specific() {
            &self.models[phase % self.models.len()]
        } else {
            &self.models[0]
        }
    }

    /// Builds int8 snapshots of every phase model (backbone, head, and —
    /// for tied Softmax heads — the vocabulary product over the embedding
    /// table). Serving then runs through the i8×i8→i32 kernels.
    pub fn quantize(&mut self) {
        for m in &mut self.models {
            m.int8 = Some(Int8Model::new(
                &m.backbone,
                &m.head,
                m.tied.then_some(&m.embed),
            ));
        }
    }

    pub fn is_quantized(&self) -> bool {
        !self.models.is_empty() && self.models.iter().all(|m| m.int8.is_some())
    }

    /// Int8 model size across all phase models. The token-embedding lookup
    /// table stays f32 (it is indexed, never multiplied on the input side)
    /// and is counted at full width.
    pub fn quant_storage_bytes(&self) -> Option<usize> {
        self.models
            .iter()
            .map(|m| Some(m.int8.as_ref()?.storage_bytes() + m.embed.storage_bytes()))
            .sum()
    }

    /// Raw head logits `[batch, out]` for `hists.len()` same-length
    /// (token, pc) windows sharing one phase: the windows are stacked into
    /// a single `(B·T, ·)` modal input so the embedding, backbone, head,
    /// and tied vocabulary product each run exactly once. Every row is
    /// bit-identical to its window run alone.
    fn logits_batch_in(
        &self,
        hists: &[&[(usize, u64)]],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let batch = hists.len();
        let t = hists[0].len();
        assert!(
            hists.iter().all(|h| h.len() == t),
            "fused page batch requires equal-length histories"
        );
        let m = self.model_for(phase);
        let tokens: Vec<usize> = hists
            .iter()
            .flat_map(|h| h.iter().map(|&(tk, _)| tk))
            .collect();
        let addr = m.embed.infer_in(&tokens, s);
        let mut pc = s.take(batch * t, 1);
        for (i, &(_, pcv)) in hists.iter().flat_map(|h| h.iter()).enumerate() {
            pc.data[i] = pc_feature(pcv);
        }
        let x = ModalInput { addr, pc };
        let logits = m.served().logits_in(&x, batch, phase, s);
        s.give(x.addr);
        s.give(x.pc);
        logits
    }

    /// Raw head logits (pre-softmax / pre-sigmoid) for one window — the KD
    /// target. The caller `give`s the result back.
    pub fn predict_logits_in(
        &self,
        hist: &[(usize, u64)],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        self.logits_batch_in(&[hist], phase, s)
    }

    /// Top predicted *page numbers* (tokens resolved through the vocab) —
    /// the steady-state hot path of
    /// [`crate::prefetcher::MpGraphPrefetcher`].
    pub fn predict_pages_in(
        &self,
        hist: &[(usize, u64)],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<u64> {
        self.predict_pages_batch_in(&[hist], phase, k, s)
            .pop()
            .unwrap_or_default()
    }

    /// Batched [`Self::predict_pages_in`] over `hists.len()` same-length
    /// (token, pc) windows sharing one phase, run as one fused forward.
    /// Per-window outputs are bit-identical to calling
    /// [`Self::predict_pages_in`] per window.
    pub fn predict_pages_batch_in(
        &self,
        hists: &[&[(usize, u64)]],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<Vec<u64>> {
        let batch = hists.len();
        if batch == 0 {
            return Vec::new();
        }
        // Dedup identical windows before stacking (see
        // [`DeltaPredictor::predict_deltas_batch_in`]): one computed lane
        // serves every duplicate bit-exactly.
        if batch > 1 {
            let (unique, lane_of) = dedup_lanes(hists);
            if unique.len() < batch {
                let uniq = self.predict_pages_batch_in(&unique, phase, k, s);
                return lane_of.iter().map(|&i| uniq[i].clone()).collect();
            }
        }
        if batch > FUSED_BATCH_WINDOWS {
            return hists
                .chunks(FUSED_BATCH_WINDOWS)
                .flat_map(|c| self.predict_pages_batch_in(c, phase, k, s))
                .collect();
        }
        let mut logits = self.logits_batch_in(hists, phase, s);
        let out = match self.cfg.head {
            PageHead::Softmax => {
                // Head capacity is `page_vocab`, but only `vocab.len()`
                // slots were ever trained. Slots past that are random-init
                // weights whose logits can win top-k, and since they
                // resolve to no page they would starve downstream
                // consumers (the CSTP temporal chain breaks before its
                // PBOT lookup when no page comes back).
                let valid = self.vocab.len().min(logits.cols).max(1);
                (0..batch)
                    .map(|b| {
                        top_k_indices(&logits.row(b)[..valid], k + 1)
                            .into_iter()
                            .filter_map(|tk| self.vocab.page_of(tk))
                            .take(k)
                            .collect()
                    })
                    .collect()
            }
            PageHead::BinaryEncoded => {
                Sigmoid::infer_inplace(&mut logits);
                (0..batch)
                    .map(|b| {
                        let tok = Self::decode_bits(logits.row(b), self.vocab.len());
                        self.vocab.page_of(tok).into_iter().take(k).collect()
                    })
                    .collect()
            }
        };
        s.give(logits);
        out
    }

    /// Table 7 metric: accuracy@`k` — the top-1 predicted page counts as
    /// correct if it occurs within the core's next `k` accesses (histories
    /// and windows follow the per-core streams the predictor models).
    pub fn evaluate_accuracy_at(
        &self,
        records: &[MemRecord],
        tc: &TrainCfg,
        k: usize,
        max_samples: usize,
    ) -> f64 {
        let t = tc.history;
        let mut per_core: Vec<Vec<&MemRecord>> = vec![Vec::new(); 8];
        for rec in records {
            per_core[(rec.core as usize) % 8].push(rec);
        }
        let total_len: usize = per_core.iter().map(|s| s.len()).sum();
        let stride = (total_len.saturating_sub(t + k) / max_samples.max(1)).max(1);
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut s = ScratchArena::new();
        for seq in per_core.iter().filter(|s| s.len() > t + k) {
            let mut i = 0usize;
            while i + t + k < seq.len() && total < max_samples {
                let phase = seq[i + t - 1].phase as usize % self.num_phases;
                let hist: Vec<(usize, u64)> = seq[i..i + t]
                    .iter()
                    .map(|rec| (self.vocab.token_of(rec.page()), rec.pc))
                    .collect();
                let preds = self.predict_pages_in(&hist, phase, 1, &mut s);
                if let Some(&p) = preds.first() {
                    if seq[i + t..i + t + k].iter().any(|r| r.page() == p) {
                        hits += 1;
                    }
                }
                total += 1;
                i += stride;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Number of bits in the binary-encoded head (16 for a 2^16 vocab).
    pub fn encoded_bits(&self) -> usize {
        self.bits
    }

    /// Frees every phase model's gradients and Adam moments once training
    /// is over ([`Module::finish_training`]); inference is unaffected.
    pub fn finish_training(&mut self) {
        for m in &mut self.models {
            m.embed.finish_training();
            m.backbone.finish_training();
            m.head.finish_training();
        }
    }

    pub fn num_params(&self) -> usize {
        self.models
            .iter()
            .map(|m| m.embed.num_params() + m.backbone.num_params() + m.head.num_params())
            .sum()
    }

    /// Little-endian bytes of every trainable weight in traversal order —
    /// the byte-level fingerprint the determinism tests compare.
    pub fn weight_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut push = |p: &mpgraph_ml::layers::Param| {
            for v in &p.w.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        for m in self.models.iter() {
            m.embed.for_each_param_ref(&mut push);
            m.backbone.for_each_param_ref(&mut push);
            m.head.for_each_param_ref(&mut push);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(page: u64, pc: u64, phase: u8) -> MemRecord {
        MemRecord {
            pc,
            vaddr: page * 4096,
            core: 0,
            is_write: false,
            phase,
            gap: 1,
            dep: false,
        }
    }

    /// Phase 0 cycles pages 10→11→12; phase 1 cycles 50→60→70→80.
    fn two_phase_trace(reps: usize) -> Vec<MemRecord> {
        let mut v = Vec::new();
        for _ in 0..reps {
            for _ in 0..30 {
                for p in [10u64, 11, 12] {
                    v.push(rec(p, 0x400000, 0));
                }
            }
            for _ in 0..30 {
                for p in [50u64, 60, 70, 80] {
                    v.push(rec(p, 0x401000, 1));
                }
            }
        }
        v
    }

    fn quick_cfg() -> (PagePredictorConfig, TrainCfg) {
        (
            PagePredictorConfig {
                amma: AmmaConfig {
                    history: 5,
                    attn_dim: 8,
                    fusion_dim: 16,
                    layers: 1,
                    heads: 2,
                },
                page_vocab: 64,
                embed_dim: 8,
                head: PageHead::Softmax,
            },
            TrainCfg {
                history: 5,
                max_samples: 300,
                epochs: 4,
                lr: 4e-3,
                seed: 21,
            },
        )
    }

    #[test]
    fn binary_target_and_decode_roundtrip() {
        for token in [0usize, 1, 5, 13, 63] {
            let t = PagePredictor::binary_target(token, 6);
            let back = PagePredictor::decode_bits(&t.data, 64);
            assert_eq!(back, token);
        }
    }

    #[test]
    fn amma_ps_learns_cyclic_pages_per_phase() {
        let trace = two_phase_trace(3);
        let (cfg, tc) = quick_cfg();
        let model = PagePredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        assert!(model.final_loss < 1.0, "loss {}", model.final_loss);
        let acc = model.evaluate_accuracy_at(&trace, &tc, 10, 200);
        assert!(acc > 0.8, "accuracy@10 {acc}");
        // Phase-0 history ending at page 12 → next page 10.
        let hist: Vec<(usize, u64)> = [11u64, 12, 10, 11, 12]
            .iter()
            .map(|&p| (model.vocab.token_of(p), 0x400000))
            .collect();
        let pages = model.predict_pages_in(&hist, 0, 1, &mut ScratchArena::new());
        assert_eq!(pages, vec![10]);
    }

    #[test]
    fn binary_encoded_head_shrinks_and_still_learns() {
        let trace = two_phase_trace(3);
        let (mut cfg, tc) = quick_cfg();
        cfg.head = PageHead::BinaryEncoded;
        let bin = PagePredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        cfg.head = PageHead::Softmax;
        let soft = PagePredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        assert_eq!(bin.encoded_bits(), 6); // log2(64)
        assert!(bin.num_params() < soft.num_params());
        let acc = bin.evaluate_accuracy_at(&trace, &tc, 10, 150);
        assert!(acc > 0.3, "binary-encoded accuracy {acc}");
    }

    #[test]
    fn batched_page_inference_is_bit_identical_for_f32_and_int8() {
        let trace = two_phase_trace(2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 80,
            epochs: 1,
            ..tc
        };
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig { head, ..cfg };
            for v in [Variant::Lstm, Variant::Attention, Variant::AmmaPs] {
                let mut model = PagePredictor::train(&trace, 2, v, cfg, &tc);
                // Distinct equal-length token histories over the trained
                // working set, one per batch lane.
                let pages = [10u64, 11, 12, 50, 60, 70, 80];
                let hists: Vec<Vec<(usize, u64)>> = (0..16usize)
                    .map(|b| {
                        (0..5)
                            .map(|i| {
                                let p = pages[(b + 2 * i) % pages.len()];
                                (model.vocab.token_of(p), 0x400000 + 4 * b as u64)
                            })
                            .collect()
                    })
                    .collect();
                for quantized in [false, true] {
                    if quantized {
                        model.quantize();
                    }
                    let mut s = ScratchArena::new();
                    for batch in [1usize, 2, 5, 16] {
                        let refs: Vec<&[(usize, u64)]> =
                            hists[..batch].iter().map(Vec::as_slice).collect();
                        for phase in 0..2 {
                            let fused = model.predict_pages_batch_in(&refs, phase, 3, &mut s);
                            assert_eq!(fused.len(), batch);
                            for (b, h) in refs.iter().enumerate() {
                                let solo = model.predict_pages_in(h, phase, 3, &mut s);
                                assert_eq!(
                                    fused[b],
                                    solo,
                                    "{} {head:?} int8={quantized} batch={batch} lane={b} \
                                     phase={phase}",
                                    v.name(),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prediction_is_allocation_free_for_both_heads_f32_and_int8() {
        let trace = two_phase_trace(2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 80,
            epochs: 1,
            ..tc
        };
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig { head, ..cfg };
            let mut model = PagePredictor::train(&trace, 2, Variant::AmmaPi, cfg, &tc);
            let hist: Vec<(usize, u64)> = [11u64, 12, 10, 11, 12]
                .iter()
                .map(|&p| (model.vocab.token_of(p), 0x400000))
                .collect();
            for quantized in [false, true] {
                if quantized {
                    model.quantize();
                }
                let mut s = ScratchArena::new();
                for phase in [0usize, 1] {
                    let w = model.predict_logits_in(&hist, phase, &mut s);
                    let baseline = w.data.clone();
                    s.give(w);
                    let pages = model.predict_pages_in(&hist, phase, 2, &mut s);
                    let (_, misses_after_warmup) = s.stats();
                    for _ in 0..4 {
                        let y = model.predict_logits_in(&hist, phase, &mut s);
                        assert_eq!(y.data, baseline);
                        s.give(y);
                        assert_eq!(model.predict_pages_in(&hist, phase, 2, &mut s), pages);
                    }
                    let (_, misses) = s.stats();
                    assert_eq!(misses, misses_after_warmup, "{head:?} int8={quantized}");
                }
            }
        }
    }

    #[test]
    fn quantized_page_prediction_keeps_the_learned_cycle() {
        let trace = two_phase_trace(3);
        let (cfg, tc) = quick_cfg();
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig { head, ..cfg };
            let mut model = PagePredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
            assert!(!model.is_quantized());
            model.quantize();
            assert!(model.is_quantized(), "{head:?}");
            assert!(model.quant_storage_bytes().unwrap() > 0);
            // Phase-0 history ending at page 12 → next page 10 survives
            // quantization for both head styles.
            let hist: Vec<(usize, u64)> = [11u64, 12, 10, 11, 12]
                .iter()
                .map(|&p| (model.vocab.token_of(p), 0x400000))
                .collect();
            let mut s = ScratchArena::new();
            let pages = model.predict_pages_in(&hist, 0, 1, &mut s);
            assert_eq!(pages, vec![10], "{head:?}");
        }
    }

    #[test]
    fn all_variants_train() {
        let trace = two_phase_trace(2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 100,
            epochs: 2,
            ..tc
        };
        for v in Variant::ALL {
            let model = PagePredictor::train(&trace, 2, v, cfg, &tc);
            assert!(model.final_loss.is_finite(), "{}", v.name());
            let acc = model.evaluate_accuracy_at(&trace, &tc, 10, 50);
            assert!((0.0..=1.0).contains(&acc), "{}", v.name());
        }
    }
}
