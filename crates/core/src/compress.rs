//! Model compression (§6.1): knowledge distillation of the predictors into
//! smaller students (optionally folding the N phase-specific teachers into
//! a single student for a further N× reduction), plus int8 quantization and
//! storage accounting — the machinery behind Figure 13 and the "87×
//! compressed" headline configuration.

use crate::amma::AmmaConfig;
use crate::backbone::Backbone;
use crate::delta_predictor::{DeltaPredictor, DeltaRange};
use crate::page_predictor::{PageHead, PagePredictor};
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::{GuardAction, TrainGuard};
use mpgraph_ml::layers::{Linear, Module};
use mpgraph_ml::loss::{binary_distillation_loss, distillation_loss};
use mpgraph_ml::optim::Adam;
use mpgraph_ml::quant::quantize_module;
use mpgraph_ml::tensor::rng;
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::TrainCfg;

/// Distillation hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DistillCfg {
    /// Student AMMA dimensions.
    pub student_amma: AmmaConfig,
    /// Softmax temperature for the page head (delta uses the binary KD
    /// loss, which has no temperature).
    pub temperature: f32,
    /// Fold all phase-specific teachers into ONE student (extra N×).
    pub single_student: bool,
    /// Override the student page head (e.g. `PageHead::BinaryEncoded` to
    /// stack binary-encoding compression on top of KD).
    pub student_head: Option<PageHead>,
}

impl Default for DistillCfg {
    fn default() -> Self {
        DistillCfg {
            student_amma: AmmaConfig::student(8),
            temperature: 3.0,
            single_student: false,
            student_head: None,
        }
    }
}

/// Distills a trained delta predictor into a smaller student, matching the
/// teacher's per-label probabilities on the training stream.
pub fn distill_delta(
    teacher: &DeltaPredictor,
    records: &[MemRecord],
    dc: &DistillCfg,
    tc: &TrainCfg,
) -> DeltaPredictor {
    let mut cfg = teacher.cfg;
    cfg.amma = dc.student_amma;
    let dr = DeltaRange {
        range: cfg.delta_range,
    };
    let num_phases = teacher.num_phases;
    let (variant, model_count) = if dc.single_student {
        (Variant::Amma, 1)
    } else {
        (teacher.variant, teacher.models.len())
    };
    let mut r = rng(tc.seed ^ 0xD157);
    let mut models: Vec<(Backbone, Linear)> = (0..model_count)
        .map(|_| {
            let b = Backbone::new(variant.backbone_kind(), cfg.segments, 1, cfg.amma, &mut r);
            let head = Linear::new(b.out_dim(), dr.num_labels(), &mut r);
            (b, head)
        })
        .collect();
    let mut opts: Vec<Adam> = (0..model_count).map(|_| Adam::new(tc.lr)).collect();
    let mut guards: Vec<TrainGuard> = (0..model_count)
        .map(|_| TrainGuard::new(crate::prefetcher::TRAIN_CHECKPOINT_INTERVAL))
        .collect();

    let t = tc.history;
    let usable = records.len().saturating_sub(t + cfg.look_forward);
    let stride = (usable / tc.max_samples.max(1)).max(1);
    let mut final_loss = 0.0f32;
    // The teacher runs inference-only: its logits come out of one arena
    // reused across every distillation step.
    let mut teacher_arena = ScratchArena::new();
    'epochs: for _ in 0..tc.epochs {
        let mut i = 0usize;
        let mut count = 0usize;
        let mut loss_sum = 0.0f32;
        while i + t + cfg.look_forward < records.len() && count < tc.max_samples {
            let pos = i + t - 1;
            let phase = records[pos].phase as usize % num_phases.max(1);
            let midx = if dc.single_student {
                0
            } else {
                phase % model_count
            };
            let hist: Vec<(u64, u64)> = records[i..i + t]
                .iter()
                .map(|rec| (rec.block(), rec.pc))
                .collect();
            // Teacher's soft targets (phase-appropriate teacher model).
            let teacher_logits = teacher.predict_logits_in(&hist, phase, &mut teacher_arena);
            let x = DeltaPredictor::encode_hist(&cfg, &hist);
            let (backbone, head) = &mut models[midx];
            let pooled = backbone.forward(&x, phase);
            let logits = head.forward(&pooled);
            let (loss, dl) = binary_distillation_loss(&logits, &teacher_logits);
            teacher_arena.give(teacher_logits);
            let dp = head.backward(&dl);
            backbone.backward(&dp);
            opts[midx].step(backbone);
            opts[midx].step(head);
            i += stride;
            count += 1;
            match guards[midx].observe(
                loss,
                &mut [backbone as &mut dyn Module, head as &mut dyn Module],
                &mut opts[midx].lr,
            ) {
                GuardAction::Continue => loss_sum += loss,
                GuardAction::RolledBack { .. } => count -= 1,
                GuardAction::Exhausted => break 'epochs,
            }
        }
        final_loss = if count > 0 {
            loss_sum / count as f32
        } else {
            f32::NAN
        };
    }
    DeltaPredictor {
        variant,
        cfg,
        models,
        num_phases,
        final_loss,
        train_steps: 0,
        train_rollbacks: 0,
        int8: Vec::new(),
    }
}

/// Distills a trained page predictor into a smaller student. The student
/// uses the binary-encoded head when the teacher does; KD runs on the
/// temperature-softened token distribution otherwise.
pub fn distill_page(
    teacher: &PagePredictor,
    records: &[MemRecord],
    dc: &DistillCfg,
    tc: &TrainCfg,
) -> PagePredictor {
    let mut cfg = teacher.cfg;
    cfg.amma = dc.student_amma;
    if let Some(h) = dc.student_head {
        cfg.head = h;
    }
    let num_phases = teacher.num_phases;
    let (variant, model_count) = if dc.single_student {
        (Variant::Amma, 1)
    } else {
        (teacher.variant, teacher.models.len())
    };
    // The student is trained against teacher logits, so construct it via
    // the regular constructor path and then re-train its weights.
    let mut student = PagePredictor::train(
        records,
        num_phases,
        variant,
        cfg,
        &TrainCfg {
            epochs: 0, // build architecture + vocab only; no hard-label training
            ..*tc
        },
    );
    let mut opts: Vec<Adam> = (0..model_count).map(|_| Adam::new(tc.lr)).collect();
    let mut guards: Vec<TrainGuard> = (0..model_count)
        .map(|_| TrainGuard::new(crate::prefetcher::TRAIN_CHECKPOINT_INTERVAL))
        .collect();
    let seq: Vec<(usize, u64, u8)> = records
        .iter()
        .map(|rec| (student.vocab.token_of(rec.page()), rec.pc, rec.phase))
        .collect();
    let t = tc.history;
    let usable = seq.len().saturating_sub(t + 1);
    let stride = (usable / tc.max_samples.max(1)).max(1);
    let mut final_loss = 0.0f32;
    let mut teacher_arena = ScratchArena::new();
    'epochs: for _ in 0..tc.epochs {
        let mut i = 0usize;
        let mut count = 0usize;
        let mut loss_sum = 0.0f32;
        while i + t < seq.len() && count < tc.max_samples {
            let phase = seq[i + t - 1].2 as usize % num_phases.max(1);
            let midx = if dc.single_student {
                0
            } else {
                phase % model_count
            };
            let hist: Vec<(usize, u64)> = seq[i..i + t]
                .iter()
                .map(|&(tok, pc, _)| (tok, pc))
                .collect();
            // Teacher history uses the teacher's own vocabulary.
            let t_hist: Vec<(usize, u64)> = records[i..i + t]
                .iter()
                .map(|rec| (teacher.vocab.token_of(rec.page()), rec.pc))
                .collect();
            let teacher_logits = teacher.predict_logits_in(&t_hist, phase, &mut teacher_arena);
            let (loss, dl) = {
                let m = &mut student.models[midx];
                let tokens: Vec<usize> = hist.iter().map(|&(tk, _)| tk).collect();
                let addr = m.embed.forward(&tokens);
                let mut pc = mpgraph_ml::tensor::Matrix::zeros(hist.len(), 1);
                for (j, &(_, pcv)) in hist.iter().enumerate() {
                    pc.data[j] = mpgraph_prefetchers::mlcommon::pc_feature(pcv);
                }
                let x = crate::amma::ModalInput { addr, pc };
                let pooled = m.backbone.forward(&x, phase);
                let logits = m.head.forward(&pooled);
                let (loss, dl) = match (teacher.cfg.head, cfg.head) {
                    (PageHead::Softmax, PageHead::Softmax) => {
                        // Softmax student heads are tied: `logits` is the
                        // embedding-space projection, not the vocab-wide
                        // row. Expand through the student's table for the
                        // KD loss and pull the gradient back through the
                        // same (frozen-for-this-product) table.
                        let full = logits.matmul_bt(&m.embed.table.w);
                        let (loss, d_full) =
                            distillation_loss(&full, &teacher_logits, dc.temperature);
                        (loss, d_full.matmul(&m.embed.table.w))
                    }
                    (PageHead::BinaryEncoded, PageHead::Softmax) => {
                        // Bits-wide teacher vs vocab-wide student: decode
                        // the teacher's token and distill it as a hard
                        // label through the student's tied softmax.
                        let probs = mpgraph_ml::layers::Sigmoid::infer(&teacher_logits);
                        let top =
                            PagePredictor::decode_bits(probs.row(0), student.vocab.len().max(1));
                        let full = logits.matmul_bt(&m.embed.table.w);
                        let (loss, d_full) = mpgraph_ml::loss::softmax_cross_entropy(&full, &[top]);
                        (loss, d_full.matmul(&m.embed.table.w))
                    }
                    (PageHead::BinaryEncoded, PageHead::BinaryEncoded) => {
                        binary_distillation_loss(&logits, &teacher_logits)
                    }
                    (PageHead::Softmax, PageHead::BinaryEncoded) => {
                        // Head widths differ: distill the teacher's argmax
                        // token through the student's binary target.
                        let top = mpgraph_ml::metrics::top_k_indices(teacher_logits.row(0), 1)[0];
                        let bits = logits.cols;
                        let mut target = mpgraph_ml::tensor::Matrix::zeros(1, bits);
                        for b in 0..bits {
                            target.data[b] = ((top >> b) & 1) as f32;
                        }
                        mpgraph_ml::loss::bce_with_logits(&logits, &target)
                    }
                };
                let dp = m.head.backward(&dl);
                let (d_addr, _) = m.backbone.backward(&dp);
                m.embed.backward(&d_addr);
                (loss, dl)
            };
            let _ = dl;
            teacher_arena.give(teacher_logits);
            let m = &mut student.models[midx];
            opts[midx].step(&mut m.embed);
            opts[midx].step(&mut m.backbone);
            opts[midx].step(&mut m.head);
            i += stride;
            count += 1;
            match guards[midx].observe(
                loss,
                &mut [
                    &mut m.embed as &mut dyn Module,
                    &mut m.backbone as &mut dyn Module,
                    &mut m.head as &mut dyn Module,
                ],
                &mut opts[midx].lr,
            ) {
                GuardAction::Continue => loss_sum += loss,
                GuardAction::RolledBack { .. } => count -= 1,
                GuardAction::Exhausted => break 'epochs,
            }
        }
        final_loss = if count > 0 {
            loss_sum / count as f32
        } else {
            f32::NAN
        };
    }
    student.final_loss = final_loss;
    student
}

/// In-place int8 quantization of every model in a delta predictor.
/// Rounds the f32 weights onto their int8 grid (for storage accounting)
/// and installs the real int8 serving snapshot, so subsequent inference
/// runs the i8×i8→i32 kernels. Rounding first makes the snapshot an exact
/// representation of the stored weights (quantization is fixpoint-stable).
/// Returns (float bytes before, int8 bytes after).
pub fn quantize_delta(p: &mut DeltaPredictor) -> (usize, usize) {
    let mut before = 0usize;
    let mut after = 0usize;
    for (b, h) in p.models.iter_mut() {
        before += b.num_params() * 4 + h.num_params() * 4;
        after += quantize_module(b) + quantize_module(h);
    }
    p.quantize();
    (before, after)
}

/// In-place int8 quantization of every model in a page predictor. Same
/// contract as [`quantize_delta`]: weights round onto the int8 grid and
/// the int8 serving snapshot is installed.
pub fn quantize_page(p: &mut PagePredictor) -> (usize, usize) {
    let mut before = 0usize;
    let mut after = 0usize;
    for m in p.models.iter_mut() {
        before += (m.embed.num_params() + m.backbone.num_params() + m.head.num_params()) * 4;
        after += quantize_module(&mut m.embed)
            + quantize_module(&mut m.backbone)
            + quantize_module(&mut m.head);
    }
    p.quantize();
    (before, after)
}

/// Compression factor between a teacher/student pair (by parameter count).
pub fn compression_factor(teacher_params: usize, student_params: usize) -> f64 {
    teacher_params as f64 / student_params.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_predictor::DeltaPredictorConfig;
    use crate::page_predictor::PagePredictorConfig;
    use mpgraph_frameworks::MemRecord;

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

    fn trace() -> Vec<MemRecord> {
        let mut v = Vec::new();
        for rep in 0..3 {
            let mut a = (4 + rep) * 4096u64;
            for _ in 0..150 {
                v.push(rec(a, 0x400000, 0));
                a += 64;
            }
            for i in 0..150 {
                let page = [40u64, 80, 120][i % 3];
                v.push(rec(page * 4096 + (i % 60) as u64 * 64, 0x401000, 1));
            }
        }
        v
    }

    fn teacher_cfgs() -> (DeltaPredictorConfig, PagePredictorConfig, TrainCfg) {
        let amma = AmmaConfig {
            history: 5,
            attn_dim: 16,
            fusion_dim: 32,
            layers: 1,
            heads: 2,
        };
        (
            DeltaPredictorConfig {
                amma,
                segments: 6,
                delta_range: 15,
                look_forward: 8,
                threshold: 0.5,
            },
            PagePredictorConfig {
                amma,
                page_vocab: 64,
                embed_dim: 8,
                head: PageHead::Softmax,
            },
            TrainCfg {
                history: 5,
                max_samples: 200,
                epochs: 3,
                lr: 4e-3,
                seed: 5,
            },
        )
    }

    #[test]
    fn delta_distillation_shrinks_and_tracks_teacher() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let teacher = DeltaPredictor::train(&tr, 2, Variant::AmmaPs, dcfg, &tc);
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            temperature: 3.0,
            single_student: false,
            student_head: None,
        };
        let student = distill_delta(&teacher, &tr, &dc, &tc);
        let factor = compression_factor(teacher.num_params(), student.num_params());
        assert!(factor > 3.0, "compression only {factor:.1}x");
        // Student should still beat chance on the training distribution.
        let f1_t = teacher.evaluate_f1(&tr, &tc, 100);
        let f1_s = student.evaluate_f1(&tr, &tc, 100);
        assert!(f1_s.f1 > 0.2, "student f1 {:?}", f1_s);
        assert!(
            f1_s.f1 <= f1_t.f1 + 0.2,
            "student unexpectedly above teacher"
        );
    }

    #[test]
    fn single_student_folds_phases() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let teacher = DeltaPredictor::train(&tr, 2, Variant::AmmaPs, dcfg, &tc);
        let dc = DistillCfg {
            single_student: true,
            ..DistillCfg::default()
        };
        let student = distill_delta(&teacher, &tr, &dc, &tc);
        assert_eq!(student.models.len(), 1);
        assert_eq!(teacher.models.len(), 2);
    }

    #[test]
    fn page_distillation_runs_and_shrinks() {
        let tr = trace();
        let (_, pcfg, tc) = teacher_cfgs();
        let teacher = PagePredictor::train(&tr, 2, Variant::AmmaPs, pcfg, &tc);
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            temperature: 2.0,
            single_student: true,
            student_head: Some(PageHead::BinaryEncoded),
        };
        let student = distill_page(&teacher, &tr, &dc, &tc);
        assert!(student.final_loss.is_finite());
        assert!(student.num_params() < teacher.num_params());
        let acc = student.evaluate_accuracy_at(&tr, &tc, 10, 80);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn softmax_teacher_distills_into_binary_student_via_argmax_labels() {
        // Head widths differ (softmax teacher over the vocab, binary
        // student over log2(vocab) bits), so KD cannot match logits
        // directly: the mismatch branch distills the teacher's argmax
        // token through the student's binary target instead.
        let tr = trace();
        let (_, pcfg, tc) = teacher_cfgs();
        let teacher = PagePredictor::train(&tr, 2, Variant::AmmaPs, pcfg, &tc);
        assert!(matches!(teacher.cfg.head, PageHead::Softmax));
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            temperature: 2.0,
            single_student: false,
            student_head: Some(PageHead::BinaryEncoded),
        };
        let student = distill_page(&teacher, &tr, &dc, &tc);
        assert!(matches!(student.cfg.head, PageHead::BinaryEncoded));
        // The student head is bit-width narrow (log2 of the configured
        // vocab), not vocab-wide like the teacher's softmax.
        let vocab_bits = (student.cfg.page_vocab as f32).log2().ceil() as usize;
        let mut s = ScratchArena::new();
        let phase = 1 % student.num_phases.max(1);
        let logits = student.predict_logits_in(&[(0usize, 0x401000u64); 5], phase, &mut s);
        assert_eq!(logits.cols, vocab_bits.max(1));
        assert!(
            student.final_loss.is_finite(),
            "argmax fallback produced non-finite loss: {}",
            student.final_loss
        );
        // Hard-label KD still transfers the learned behaviour: on the
        // phase-1 page cycle the student reproduces the teacher's top-1.
        let cycle = [40u64, 80, 120, 40, 80];
        let t_hist: Vec<(usize, u64)> = cycle
            .iter()
            .map(|&p| (teacher.vocab.token_of(p), 0x401000))
            .collect();
        let s_hist: Vec<(usize, u64)> = cycle
            .iter()
            .map(|&p| (student.vocab.token_of(p), 0x401000))
            .collect();
        let t_top = teacher.predict_pages_in(&t_hist, 1, 1, &mut s);
        let s_top = student.predict_pages_in(&s_hist, 1, 1, &mut s);
        assert_eq!(
            s_top, t_top,
            "student diverged from the teacher's argmax on the trained cycle"
        );
    }

    #[test]
    fn quantization_shrinks_4x_and_preserves_behaviour() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let mut model = DeltaPredictor::train(&tr, 2, Variant::Amma, dcfg, &tc);
        let f1_before = model.evaluate_f1(&tr, &tc, 80);
        let (before, after) = quantize_delta(&mut model);
        assert!(after * 3 < before, "{after} vs {before}");
        let f1_after = model.evaluate_f1(&tr, &tc, 80);
        assert!(
            (f1_before.f1 - f1_after.f1).abs() < 0.15,
            "quantization changed F1 too much: {} → {}",
            f1_before.f1,
            f1_after.f1
        );
    }
}
