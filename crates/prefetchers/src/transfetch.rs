//! TransFetch (Zhang et al., CF 2022): an attention-based prefetcher with
//! fine-grained address segmentation input and a multi-label delta-bitmap
//! output covering a spatial range — the state-of-the-art ML baseline the
//! paper reports highest accuracy (but lower coverage) for.

use crate::delta_lstm::TrainCfg;
use crate::mlcommon::{pc_feature, segment_block, History};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::layers::{Linear, Module, Sigmoid};
use mpgraph_ml::loss::bce_with_logits;
use mpgraph_ml::metrics::top_k_indices;
use mpgraph_ml::optim::Adam;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::transformer::TransformerLayer;
use mpgraph_ml::ScratchArena;
use mpgraph_sim::{LlcAccess, Prefetcher};

/// TransFetch model dimensions.
#[derive(Debug, Clone, Copy)]
pub struct TransFetchConfig {
    /// Address segments per block address (4-bit nibbles).
    pub segments: usize,
    /// Model width.
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
    /// Delta range: labels cover [-delta_range, +delta_range] \ {0}.
    pub delta_range: i64,
    /// Future window F whose deltas form the training bitmap.
    pub look_forward: usize,
    pub degree: usize,
    pub latency: u64,
    /// Classification threshold on the sigmoid output.
    pub threshold: f32,
}

impl Default for TransFetchConfig {
    fn default() -> Self {
        TransFetchConfig {
            segments: 9,
            dim: 32,
            heads: 4,
            layers: 2,
            delta_range: 63,
            look_forward: 16,
            degree: 6,
            latency: 0,
            threshold: 0.5,
        }
    }
}

impl TransFetchConfig {
    /// Output bitmap width: 2 × delta_range (delta 0 excluded).
    pub fn num_labels(&self) -> usize {
        2 * self.delta_range as usize
    }

    /// Bitmap index of `delta` (None when out of range or 0).
    pub fn label_of(&self, delta: i64) -> Option<usize> {
        if delta == 0 || delta.abs() > self.delta_range {
            return None;
        }
        Some(if delta > 0 {
            (self.delta_range + delta - 1) as usize
        } else {
            (self.delta_range + delta) as usize
        })
    }

    /// Inverse of [`Self::label_of`].
    pub fn delta_of(&self, label: usize) -> i64 {
        let l = label as i64;
        if l >= self.delta_range {
            l - self.delta_range + 1
        } else {
            l - self.delta_range
        }
    }
}

/// The trained TransFetch prefetcher.
pub struct TransFetch {
    cfg: TransFetchConfig,
    embed: Linear,
    blocks: Vec<TransformerLayer>,
    head: Linear,
    hist: History<(u64, u64)>, // (block, pc)
    pub final_loss: f32,
}

impl TransFetch {
    fn encode(cfg: &TransFetchConfig, hist: &[(u64, u64)]) -> Matrix {
        let feat_dim = cfg.segments + 1;
        let mut x = Matrix::zeros(hist.len(), feat_dim);
        for (i, &(block, pc)) in hist.iter().enumerate() {
            let segs = segment_block(block, cfg.segments);
            x.row_mut(i)[..cfg.segments].copy_from_slice(&segs);
            x.row_mut(i)[cfg.segments] = pc_feature(pc);
        }
        x
    }

    fn forward_logits(
        embed: &mut Linear,
        blocks: &mut [TransformerLayer],
        head: &mut Linear,
        x: &Matrix,
    ) -> Matrix {
        let mut h = embed.forward(x);
        for b in blocks.iter_mut() {
            h = b.forward(&h, &h);
        }
        // Mean-pool over the sequence.
        let mut pooled = Matrix::zeros(1, h.cols);
        for r in 0..h.rows {
            for c in 0..h.cols {
                pooled.data[c] += h.at(r, c) / h.rows as f32;
            }
        }
        head.forward(&pooled)
    }

    fn infer_logits(&self, hist: &[(u64, u64)]) -> Matrix {
        let x = Self::encode(&self.cfg, hist);
        let mut h = self.embed.infer(&x);
        let mut s = ScratchArena::new();
        for b in &self.blocks {
            h = b.infer_batch_in(&h, &h, 1, &mut s);
        }
        let mut pooled = Matrix::zeros(1, h.cols);
        for r in 0..h.rows {
            for c in 0..h.cols {
                pooled.data[c] += h.at(r, c) / h.rows as f32;
            }
        }
        self.head.infer(&pooled)
    }

    pub fn train(records: &[MemRecord], cfg: TransFetchConfig, tc: &TrainCfg) -> Self {
        let mut r = rng(tc.seed ^ 0x7F47C4);
        let mut embed = Linear::new(cfg.segments + 1, cfg.dim, &mut r);
        let mut blocks: Vec<TransformerLayer> = (0..cfg.layers)
            .map(|_| TransformerLayer::new(cfg.dim, cfg.heads, &mut r))
            .collect();
        let mut head = Linear::new(cfg.dim, cfg.num_labels(), &mut r);
        let mut opt = Adam::new(tc.lr);

        let t = tc.history;
        let usable = records.len().saturating_sub(t + cfg.look_forward);
        let stride = (usable / tc.max_samples.max(1)).max(1);
        let mut final_loss = 0.0f32;
        for _ in 0..tc.epochs {
            let mut i = 0usize;
            let mut count = 0usize;
            let mut loss_sum = 0.0f32;
            while i + t + cfg.look_forward < records.len() && count < tc.max_samples {
                let hist: Vec<(u64, u64)> = records[i..i + t]
                    .iter()
                    .map(|rec| (rec.block(), rec.pc))
                    .collect();
                let cur = records[i + t - 1].block() as i64;
                let mut target = Matrix::zeros(1, cfg.num_labels());
                for fut in &records[i + t..i + t + cfg.look_forward] {
                    if let Some(l) = cfg.label_of(fut.block() as i64 - cur) {
                        target.data[l] = 1.0;
                    }
                }
                let x = Self::encode(&cfg, &hist);
                let logits = Self::forward_logits(&mut embed, &mut blocks, &mut head, &x);
                let (loss, dl) = bce_with_logits(&logits, &target);
                loss_sum += loss;
                // Backward through head, pooling, transformer stack, embed.
                let d_pooled = head.backward(&dl);
                let rows = t;
                let mut dh = Matrix::zeros(rows, cfg.dim);
                for rr in 0..rows {
                    for c in 0..cfg.dim {
                        dh.data[rr * cfg.dim + c] = d_pooled.data[c] / rows as f32;
                    }
                }
                for b in blocks.iter_mut().rev() {
                    dh = b.backward(&dh);
                }
                let _ = embed.backward(&dh);
                opt.step(&mut embed);
                for b in blocks.iter_mut() {
                    opt.step(b);
                }
                opt.step(&mut head);
                i += stride;
                count += 1;
            }
            final_loss = if count > 0 {
                loss_sum / count as f32
            } else {
                f32::NAN
            };
        }
        TransFetch {
            hist: History::new(tc.history),
            cfg,
            embed,
            blocks,
            head,
            final_loss,
        }
    }

    /// Predicted deltas, strongest first, up to `k`, above threshold.
    pub fn predict_deltas(&self, hist: &[(u64, u64)], k: usize) -> Vec<i64> {
        let logits = self.infer_logits(hist);
        let probs = Sigmoid::infer(&logits);
        top_k_indices(probs.row(0), k)
            .into_iter()
            .filter(|&i| probs.data[i] >= self.cfg.threshold)
            .map(|i| self.cfg.delta_of(i))
            .collect()
    }

    pub fn num_params(&mut self) -> usize {
        let mut n = self.embed.num_params() + self.head.num_params();
        for b in &mut self.blocks {
            n += b.num_params();
        }
        n
    }
}

impl Prefetcher for TransFetch {
    fn name(&self) -> String {
        "TransFetch".into()
    }

    fn latency(&self) -> u64 {
        self.cfg.latency
    }

    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        self.hist.push((a.block, a.pc));
        if !self.hist.is_full() {
            return;
        }
        for d in self.predict_deltas(self.hist.items(), self.cfg.degree) {
            let t = a.block as i64 + d;
            if t >= 0 {
                out.push(t as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vaddr: u64, pc: u64) -> MemRecord {
        MemRecord {
            pc,
            vaddr,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 1,
            dep: false,
        }
    }

    fn stride_trace(n: usize) -> Vec<MemRecord> {
        // Two interleaved strided streams under two PCs: +2 and +5 blocks.
        let mut v = Vec::new();
        for i in 0..n as u64 {
            v.push(rec((1 << 20) + i * 2 * 64, 0x400000));
            v.push(rec((1 << 24) + i * 5 * 64, 0x400100));
        }
        v
    }

    fn quick_cfg() -> (TransFetchConfig, TrainCfg) {
        (
            TransFetchConfig {
                segments: 6,
                dim: 16,
                heads: 2,
                layers: 1,
                delta_range: 15,
                look_forward: 8,
                degree: 3,
                latency: 0,
                threshold: 0.3,
            },
            TrainCfg {
                history: 6,
                max_samples: 300,
                epochs: 5,
                lr: 3e-3,
                seed: 3,
            },
        )
    }

    #[test]
    fn label_mapping_is_a_bijection() {
        let cfg = TransFetchConfig::default();
        for d in (-cfg.delta_range..=cfg.delta_range).filter(|&d| d != 0) {
            let l = cfg.label_of(d).unwrap();
            assert!(l < cfg.num_labels());
            assert_eq!(cfg.delta_of(l), d);
        }
        assert_eq!(cfg.label_of(0), None);
        assert_eq!(cfg.label_of(cfg.delta_range + 1), None);
    }

    #[test]
    fn learns_interleaved_strides() {
        let trace = stride_trace(400);
        let (cfg, tc) = quick_cfg();
        let model = TransFetch::train(&trace, cfg, &tc);
        assert!(model.final_loss < 0.3, "loss {}", model.final_loss);
        // From a history ending in the +2 stream, predicted deltas should
        // include small positive values consistent with the interleaving
        // (+2 for self, +5-ish for the other stream re-interleaved, etc.).
        let hist: Vec<(u64, u64)> = trace[100..106].iter().map(|r| (r.block(), r.pc)).collect();
        let deltas = model.predict_deltas(&hist, 3);
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|&d| d != 0 && d.abs() <= 15));
    }

    #[test]
    fn online_interface_respects_degree() {
        let trace = stride_trace(300);
        let (cfg, tc) = quick_cfg();
        let mut model = TransFetch::train(&trace, cfg, &tc);
        let mut out = Vec::new();
        for r in &trace[..50] {
            out.clear();
            model.on_access(
                &LlcAccess {
                    pc: r.pc,
                    block: r.block(),
                    core: 0,
                    is_write: false,
                    hit: false,
                    cycle: 0,
                },
                &mut out,
            );
            assert!(out.len() <= 3);
        }
    }

    #[test]
    fn param_count_reported() {
        let trace = stride_trace(100);
        let (cfg, tc) = quick_cfg();
        let mut model = TransFetch::train(&trace, cfg, &tc);
        assert!(model.num_params() > 500);
    }
}
