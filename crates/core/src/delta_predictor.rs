//! Spatial delta predictor (§4.3.3, Figure 7a): segmented block-address
//! and hashed-PC modalities → backbone (AMMA by default) → MLP head with
//! sigmoid, trained as multi-label classification over the bitmap of
//! future block deltas within one page (BCE loss).

use crate::amma::{AmmaConfig, ModalInput};
use crate::backbone::Backbone;
use crate::phase_models::{dedup_chunked, PhaseModel, PhaseModels};
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::layers::{Linear, Sigmoid};
use mpgraph_ml::loss::bce_with_logits;
use mpgraph_ml::metrics::{multilabel_f1, top_k_indices, Prf};
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::mlcommon::{pc_feature, segment_block};
use mpgraph_prefetchers::TrainCfg;

/// Bidirectional delta↔label mapping over `[-range, +range] \ {0}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRange {
    pub range: i64,
}

impl DeltaRange {
    pub fn num_labels(&self) -> usize {
        2 * self.range as usize
    }

    pub fn label_of(&self, delta: i64) -> Option<usize> {
        if delta == 0 || delta.abs() > self.range {
            return None;
        }
        Some(if delta > 0 {
            (self.range + delta - 1) as usize
        } else {
            (self.range + delta) as usize
        })
    }

    pub fn delta_of(&self, label: usize) -> i64 {
        let l = label as i64;
        if l >= self.range {
            l - self.range + 1
        } else {
            l - self.range
        }
    }
}

/// Delta-predictor hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeltaPredictorConfig {
    pub amma: AmmaConfig,
    /// 4-bit address segments per block address.
    pub segments: usize,
    /// Spatial range: one page = ±63 blocks.
    pub delta_range: i64,
    /// Future accesses scanned for labels (Table 5: F = 256; scaled).
    pub look_forward: usize,
    /// Sigmoid threshold for emitting a positive label.
    pub threshold: f32,
}

impl Default for DeltaPredictorConfig {
    fn default() -> Self {
        DeltaPredictorConfig {
            amma: AmmaConfig::default(),
            segments: 9,
            delta_range: 63,
            // Table 5 uses F = 256; 96 at our ~3× shorter per-iteration
            // LLC streams preserves the look-ahead horizon that makes the
            // predicted deltas timely.
            look_forward: 96,
            threshold: 0.5,
        }
    }
}

/// The spatial delta predictor, in any of the five Table 6 variants.
/// `Clone` duplicates the trained weights, so a serving layer can stamp
/// out per-stream prefetchers from one trained instance.
#[derive(Clone)]
pub struct DeltaPredictor {
    pub cfg: DeltaPredictorConfig,
    /// One model per phase for AMMA-PS, otherwise one.
    pub(crate) models: PhaseModels,
    pub final_loss: f32,
    /// Optimizer steps taken across all phase models and epochs.
    pub train_steps: u64,
    /// `TrainGuard` weight rollbacks during training (0 on clean runs).
    pub train_rollbacks: u64,
}

impl DeltaPredictor {
    pub(crate) fn encode(cfg: &DeltaPredictorConfig, hist: &[(u64, u64)]) -> ModalInput {
        let mut addr = Matrix::zeros(hist.len(), cfg.segments);
        let mut pc = Matrix::zeros(hist.len(), 1);
        for (i, &(block, pcv)) in hist.iter().enumerate() {
            addr.row_mut(i)
                .copy_from_slice(&segment_block(block, cfg.segments));
            pc.data[i] = pc_feature(pcv);
        }
        ModalInput { addr, pc }
    }

    /// The `(block, pc)` history window of `t` records starting at `i`.
    pub(crate) fn window(records: &[MemRecord], i: usize, t: usize) -> Vec<(u64, u64)> {
        records[i..i + t]
            .iter()
            .map(|rec| (rec.block(), rec.pc))
            .collect()
    }

    /// Builds the label bitmap for the access at `pos` (deltas of the next
    /// `look_forward` accesses relative to `records[pos]`'s block).
    fn label_bitmap(cfg: &DeltaPredictorConfig, records: &[MemRecord], pos: usize) -> Matrix {
        let dr = DeltaRange {
            range: cfg.delta_range,
        };
        let cur = records[pos].block() as i64;
        let mut target = Matrix::zeros(1, dr.num_labels());
        for fut in records.iter().skip(pos + 1).take(cfg.look_forward) {
            if let Some(l) = dr.label_of(fut.block() as i64 - cur) {
                target.data[l] = 1.0;
            }
        }
        target
    }

    /// An untrained predictor drawn from `seed`. `phase_informed` gives
    /// the models a phase embedding (AMMA only).
    pub(crate) fn untrained(
        variant: Variant,
        num_phases: usize,
        cfg: DeltaPredictorConfig,
        seed: u64,
        phase_informed: bool,
    ) -> Self {
        let labels = DeltaRange {
            range: cfg.delta_range,
        }
        .num_labels();
        let mut r = rng(seed);
        let models = PhaseModels::new(variant, num_phases, |phases| {
            let mut b = Backbone::new(variant.backbone_kind(), cfg.segments, 1, cfg.amma, &mut r);
            if phase_informed {
                b = b.with_phase_embedding(phases, &mut r);
            }
            let head = Linear::new(b.out_dim(), labels, &mut r);
            PhaseModel::new(None, b, head, false)
        });
        DeltaPredictor {
            cfg,
            models,
            final_loss: f32::NAN,
            train_steps: 0,
            train_rollbacks: 0,
        }
    }

    /// The strided sample walk over `records`: up to `max_samples`
    /// `(phase, window start)` pairs, evenly spaced over the accesses that
    /// have a full history window and label look-ahead.
    pub(crate) fn walk(
        &self,
        records: &[MemRecord],
        t: usize,
        max_samples: usize,
    ) -> Vec<(usize, usize)> {
        let usable = records.len().saturating_sub(t + self.cfg.look_forward);
        let stride = (usable / max_samples.max(1)).max(1);
        (0..usable)
            .step_by(stride)
            .take(max_samples)
            .map(|i| (self.models.phase_of(records[i + t - 1].phase), i))
            .collect()
    }

    /// Trains the predictor on `records` (one framework iteration, with
    /// ground-truth phase labels available offline per Figure 6). Each
    /// phase model trains on its share of the strided walk, on its own
    /// thread (`PhaseModels::fit`).
    pub fn train(
        records: &[MemRecord],
        num_phases: usize,
        variant: Variant,
        cfg: DeltaPredictorConfig,
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
        cfg: DeltaPredictorConfig,
        tc: &TrainCfg,
        sink: Option<&crate::TrainEventSink>,
    ) -> Self {
        let phase_informed = variant.is_phase_informed();
        let mut p = Self::untrained(variant, num_phases, cfg, tc.seed ^ 0xDE17A, phase_informed);
        let t = tc.history;
        let samples = p.walk(records, t, tc.max_samples);
        (p.final_loss, p.train_steps, p.train_rollbacks) = p.models.fit(
            samples,
            tc.epochs,
            tc.lr,
            "delta",
            sink,
            |m, phase, &i, _| {
                let x = Self::encode(&cfg, &Self::window(records, i, t));
                let target = Self::label_bitmap(&cfg, records, i + t - 1);
                let (loss, dl) = bce_with_logits(&m.forward(&x, phase), &target);
                m.backward(&dl);
                loss
            },
        );
        p
    }

    /// Builds int8 snapshots of every phase model (backbones + heads).
    /// Serving then runs through the i8×i8→i32 kernels; call on a trained
    /// (typically distilled, §6.1) predictor.
    pub fn quantize(&mut self) {
        self.models.quantize();
    }

    pub fn is_quantized(&self) -> bool {
        self.models.is_quantized()
    }

    /// Int8 model size across all phase models (weights + scales/biases).
    pub fn quant_storage_bytes(&self) -> Option<usize> {
        self.models.quant_storage_bytes()
    }

    /// Raw head logits `[batch, labels]` for `hists.len()` same-length
    /// windows sharing one phase (and therefore one model): the windows
    /// are stacked into a single `(B·T, ·)` modal input so the backbone
    /// and head each run exactly once. Every row is bit-identical to its
    /// window run alone, because every kernel on the path computes each
    /// output row from its own input rows alone.
    fn logits_batch_in(
        &self,
        hists: &[&[(u64, u64)]],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let batch = hists.len();
        let t = hists[0].len();
        assert!(
            hists.iter().all(|h| h.len() == t),
            "fused delta batch requires equal-length histories"
        );
        let mut addr = s.take(batch * t, self.cfg.segments);
        let mut pc = s.take(batch * t, 1);
        for (b, hist) in hists.iter().enumerate() {
            for (i, &(block, pcv)) in hist.iter().enumerate() {
                addr.row_mut(b * t + i)
                    .copy_from_slice(&segment_block(block, self.cfg.segments));
                pc.data[b * t + i] = pc_feature(pcv);
            }
        }
        let x = ModalInput { addr, pc };
        let logits = self.models.model_for(phase).logits_in(&x, batch, phase, s);
        s.give(x.addr);
        s.give(x.pc);
        logits
    }

    /// Raw head logits `[1, labels]` (pre-sigmoid) for one window — the
    /// knowledge-distillation target. The caller `give`s the result back.
    pub fn predict_logits_in(
        &self,
        hist: &[(u64, u64)],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        self.logits_batch_in(&[hist], phase, s)
    }

    /// Top-`k` predicted deltas above the confidence threshold — the
    /// steady-state hot path of [`crate::prefetcher::MpGraphPrefetcher`].
    /// Allocation-free tensor work once `s` is warm.
    pub fn predict_deltas_in(
        &self,
        hist: &[(u64, u64)],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<i64> {
        self.predict_deltas_batch_in(&[hist], phase, k, s)
            .pop()
            .unwrap_or_default()
    }

    /// Batched [`Self::predict_deltas_in`] over `hists.len()` same-length
    /// history windows sharing one phase, run as fused, deduplicated
    /// forwards (`dedup_chunked`). Per-window outputs are bit-identical
    /// to calling [`Self::predict_deltas_in`] per window.
    pub fn predict_deltas_batch_in(
        &self,
        hists: &[&[(u64, u64)]],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<Vec<i64>> {
        let dr = DeltaRange {
            range: self.cfg.delta_range,
        };
        dedup_chunked(hists, |hists| {
            let mut scores = self.logits_batch_in(hists, phase, s);
            Sigmoid::infer_inplace(&mut scores);
            let out = (0..hists.len())
                .map(|b| {
                    let row = scores.row(b);
                    top_k_indices(row, k)
                        .into_iter()
                        .filter(|&i| row[i] >= self.cfg.threshold)
                        .map(|i| dr.delta_of(i))
                        .collect()
                })
                .collect();
            s.give(scores);
            out
        })
    }

    /// Table 6 metric: micro-F1 of the thresholded bitmap against the
    /// ground-truth future-delta bitmap over a test trace.
    pub fn evaluate_f1(&self, records: &[MemRecord], tc: &TrainCfg, max_samples: usize) -> Prf {
        let t = tc.history;
        let mut preds = Vec::new();
        let mut targs = Vec::new();
        let mut s = ScratchArena::new();
        for (phase, i) in self.walk(records, t, max_samples) {
            let hist = Self::window(records, i, t);
            let mut scores = self.predict_logits_in(&hist, phase, &mut s);
            Sigmoid::infer_inplace(&mut scores);
            let target = Self::label_bitmap(&self.cfg, records, i + t - 1);
            preds.push(
                scores
                    .data
                    .iter()
                    .map(|&p| p >= self.cfg.threshold)
                    .collect(),
            );
            targs.push(target.data.iter().map(|&v| v > 0.5).collect());
            s.give(scores);
        }
        multilabel_f1(&preds, &targs)
    }

    /// Frees every phase model's gradients and Adam moments once training
    /// is over ([`mpgraph_ml::layers::Module::finish_training`]); inference
    /// is unaffected.
    pub fn finish_training(&mut self) {
        self.models.finish_training();
    }

    /// Total trainable parameters across all phase models (Table 8).
    pub fn num_params(&self) -> usize {
        self.models.num_params()
    }

    /// Little-endian bytes of every trainable weight in traversal order —
    /// the byte-level fingerprint the determinism tests compare.
    pub fn weight_bytes(&self) -> Vec<u8> {
        self.models.weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sigmoid scores for one window through the serving path.
    fn scores(model: &DeltaPredictor, hist: &[(u64, u64)], phase: usize) -> Vec<f32> {
        let mut logits = model.predict_logits_in(hist, phase, &mut ScratchArena::new());
        Sigmoid::infer_inplace(&mut logits);
        logits.data
    }

    fn rec(vaddr: u64, pc: u64, phase: u8) -> MemRecord {
        MemRecord {
            pc,
            vaddr,
            core: 0,
            is_write: false,
            phase,
            gap: 1,
            dep: false,
        }
    }

    /// Two-phase trace: phase 0 strides +1 block, phase 1 strides +4.
    fn two_phase_trace(n_per_phase: usize, reps: usize) -> Vec<MemRecord> {
        let mut v = Vec::new();
        for _rep in 0..reps {
            let mut a0 = 1u64 << 22;
            for _ in 0..n_per_phase {
                v.push(rec(a0, 0x400000, 0));
                a0 += 64;
            }
            let mut a1 = 1u64 << 26;
            for _ in 0..n_per_phase {
                v.push(rec(a1, 0x401000, 1));
                a1 += 4 * 64;
            }
        }
        v
    }

    fn quick_cfg() -> (DeltaPredictorConfig, TrainCfg) {
        (
            DeltaPredictorConfig {
                amma: AmmaConfig {
                    history: 5,
                    attn_dim: 8,
                    fusion_dim: 16,
                    layers: 1,
                    heads: 2,
                },
                segments: 6,
                delta_range: 15,
                look_forward: 6,
                threshold: 0.5,
            },
            TrainCfg {
                history: 5,
                max_samples: 250,
                epochs: 4,
                lr: 4e-3,
                seed: 11,
            },
        )
    }

    #[test]
    fn delta_range_bijection() {
        let dr = DeltaRange { range: 63 };
        assert_eq!(dr.num_labels(), 126);
        for d in (-63i64..=63).filter(|&d| d != 0) {
            assert_eq!(dr.delta_of(dr.label_of(d).unwrap()), d);
        }
        assert_eq!(dr.label_of(0), None);
        assert_eq!(dr.label_of(64), None);
        assert_eq!(dr.label_of(-64), None);
    }

    #[test]
    fn amma_ps_learns_both_phases() {
        let trace = two_phase_trace(120, 3);
        let (cfg, tc) = quick_cfg();
        let model = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        assert!(model.final_loss < 0.4, "loss {}", model.final_loss);
        let f1 = model.evaluate_f1(&trace, &tc, 200);
        assert!(f1.f1 > 0.5, "f1 {:?}", f1);
        // Phase 0 history → deltas dominated by +1..+look_forward pattern.
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let mut s = ScratchArena::new();
        let deltas = model.predict_deltas_in(&hist, 0, 3, &mut s);
        assert!(deltas.contains(&1), "phase-0 deltas {deltas:?}");
        // Phase 1 history → stride 4.
        let hist1: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 18) + 4 * i, 0x401000)).collect();
        let deltas1 = model.predict_deltas_in(&hist1, 1, 3, &mut s);
        assert!(deltas1.contains(&4), "phase-1 deltas {deltas1:?}");
    }

    #[test]
    fn all_variants_train_and_evaluate() {
        let trace = two_phase_trace(80, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 120,
            epochs: 2,
            ..tc
        };
        for v in Variant::ALL {
            let model = DeltaPredictor::train(&trace, 2, v, cfg, &tc);
            assert!(model.final_loss.is_finite(), "{}", v.name());
            let f1 = model.evaluate_f1(&trace, &tc, 60);
            assert!(f1.f1 >= 0.0 && f1.f1 <= 1.0, "{}", v.name());
        }
    }

    #[test]
    fn batched_delta_inference_is_bit_identical_for_f32_and_int8() {
        let trace = two_phase_trace(60, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 50,
            epochs: 1,
            ..tc
        };
        // Distinct equal-length histories, one per batch lane.
        let hists: Vec<Vec<(u64, u64)>> = (0..16u64)
            .map(|b| {
                (0..5)
                    .map(|i| ((1 << 16) + 97 * b + i * (1 + b % 3), 0x400000 + 4 * b))
                    .collect()
            })
            .collect();
        for v in Variant::ALL {
            let mut model = DeltaPredictor::train(&trace, 2, v, cfg, &tc);
            for quantized in [false, true] {
                if quantized {
                    model.quantize();
                }
                let mut s = ScratchArena::new();
                for batch in [1usize, 2, 5, 16] {
                    let refs: Vec<&[(u64, u64)]> =
                        hists[..batch].iter().map(Vec::as_slice).collect();
                    for phase in 0..2 {
                        let fused = model.predict_deltas_batch_in(&refs, phase, 4, &mut s);
                        assert_eq!(fused.len(), batch);
                        for (b, h) in refs.iter().enumerate() {
                            let solo = model.predict_deltas_in(h, phase, 4, &mut s);
                            assert_eq!(
                                fused[b],
                                solo,
                                "{} int8={quantized} batch={batch} lane={b} phase={phase}",
                                v.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pathological_lr_cannot_poison_the_weights() {
        // An absurd learning rate drives the loss toward divergence; the
        // TrainGuard must keep rolling the weights back to a finite
        // checkpoint, so inference after training never emits NaN.
        let trace = two_phase_trace(80, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            lr: 1e4,
            epochs: 3,
            max_samples: 120,
            ..tc
        };
        let model = DeltaPredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let scores = scores(&model, &hist, 0);
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "NaN leaked into inference"
        );
    }

    #[test]
    fn prediction_is_allocation_free_at_steady_state_for_f32_and_int8() {
        let trace = two_phase_trace(60, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 50,
            epochs: 1,
            ..tc
        };
        let mut model = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        for quantized in [false, true] {
            if quantized {
                model.quantize();
            }
            let mut s = ScratchArena::new();
            for phase in [0usize, 1] {
                let w = model.predict_logits_in(&hist, phase, &mut s);
                let baseline = w.data.clone();
                s.give(w);
                let (_, misses_warm) = s.stats();
                for _ in 0..4 {
                    let y = model.predict_logits_in(&hist, phase, &mut s);
                    assert_eq!(y.data, baseline);
                    s.give(y);
                }
                let (_, misses) = s.stats();
                assert_eq!(
                    misses, misses_warm,
                    "int8={quantized} phase {phase} allocated"
                );
            }
        }
    }

    #[test]
    fn quantized_prediction_keeps_the_learned_pattern() {
        let trace = two_phase_trace(120, 3);
        let (cfg, tc) = quick_cfg();
        let mut model = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        assert!(!model.is_quantized());
        let f32_model = model.clone();
        model.quantize();
        assert!(model.is_quantized());
        // Int8 weights shrink storage well below f32 even at test-sized
        // dims, where per-row scales and f32 biases are a big fraction.
        let qb = model.quant_storage_bytes().unwrap();
        let fb = model.num_params() * 4;
        assert!(qb * 3 < fb * 2, "{qb} quant bytes vs {fb} f32 bytes");
        let mut s = ScratchArena::new();
        // The learned stride patterns survive quantization.
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let deltas = model.predict_deltas_in(&hist, 0, 3, &mut s);
        assert!(deltas.contains(&1), "phase-0 deltas {deltas:?}");
        let hist1: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 18) + 4 * i, 0x401000)).collect();
        let deltas1 = model.predict_deltas_in(&hist1, 1, 3, &mut s);
        assert!(deltas1.contains(&4), "phase-1 deltas {deltas1:?}");
        // And the scores track the f32 path closely.
        for (hist, phase) in [(&hist, 0usize), (&hist1, 1)] {
            let exact = scores(&f32_model, hist, phase);
            let quant = scores(&model, hist, phase);
            let diff = exact
                .iter()
                .zip(quant.iter())
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(diff < 0.12, "phase {phase}: sigmoid diff {diff}");
        }
    }

    #[test]
    fn phase_specific_has_n_models() {
        let trace = two_phase_trace(60, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 50,
            epochs: 1,
            ..tc
        };
        let ps = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        let single = DeltaPredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        assert_eq!(ps.models.models.len(), 2);
        assert_eq!(single.models.models.len(), 1);
        assert_eq!(ps.num_params(), 2 * single.num_params());
    }
}
