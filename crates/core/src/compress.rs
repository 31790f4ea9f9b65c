//! Model compression (§6.1): knowledge distillation of the predictors into
//! smaller students (optionally folding the N phase-specific teachers into
//! a single student for a further N× reduction), plus int8 quantization and
//! storage accounting — the machinery behind Figure 13 and the "87×
//! compressed" headline configuration.

use crate::amma::AmmaConfig;
use crate::delta_predictor::DeltaPredictor;
use crate::page_predictor::{PageHead, PagePredictor};
use crate::phase_models::PhaseModel;
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::layers::{Param, Sigmoid};
use mpgraph_ml::loss::{
    bce_with_logits, binary_distillation_loss, distillation_loss, softmax_cross_entropy,
};
use mpgraph_ml::metrics::top_k_indices;
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
/// teacher's per-label probabilities on the teacher's strided training
/// walk. Each student model trains on its phases' samples, like
/// [`DeltaPredictor::train`]. Students carry no phase embedding, even for
/// an AMMA-PI teacher.
pub fn distill_delta(
    teacher: &DeltaPredictor,
    records: &[MemRecord],
    dc: &DistillCfg,
    tc: &TrainCfg,
) -> DeltaPredictor {
    let mut cfg = teacher.cfg;
    cfg.amma = dc.student_amma;
    let num_phases = teacher.models.num_phases;
    let variant = student_variant(teacher.models.variant, dc);
    let mut st = DeltaPredictor::untrained(variant, num_phases, cfg, tc.seed ^ 0xD157, false);
    let t = tc.history;
    let samples = st.walk(records, t, tc.max_samples);
    (st.final_loss, st.train_steps, st.train_rollbacks) = st.models.fit(
        samples,
        tc.epochs,
        tc.lr,
        "delta",
        None,
        |m, phase, &i, s| {
            let hist = DeltaPredictor::window(records, i, t);
            // The phase-appropriate teacher model's soft targets.
            let teacher_logits = teacher.predict_logits_in(&hist, phase, s);
            let logits = m.forward(&DeltaPredictor::encode(&cfg, &hist), phase);
            let (loss, dl) = binary_distillation_loss(&logits, &teacher_logits);
            s.give(teacher_logits);
            m.backward(&dl);
            loss
        },
    );
    st
}

/// Distills a trained page predictor into a smaller student. The student
/// uses the binary-encoded head when the teacher does; KD runs on the
/// temperature-softened token distribution otherwise.
///
/// The samples are a strided walk over the globally interleaved record
/// stream, while page training and serving use per-core histories: a
/// student sees windows that mix the cores' page streams. Changing the
/// walk would change every distilled page student.
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
    let num_phases = teacher.models.num_phases;
    let variant = student_variant(teacher.models.variant, dc);
    let mut st = PagePredictor::untrained(records, num_phases, variant, cfg, tc.seed ^ 0x9A6E);
    let seq: Vec<(usize, u64, u8)> = records
        .iter()
        .map(|rec| (st.vocab.token_of(rec.page()), rec.pc, rec.phase))
        .collect();
    let t = tc.history;
    let stride = (seq.len().saturating_sub(t + 1) / tc.max_samples.max(1)).max(1);
    let samples: Vec<(usize, usize)> = (0..seq.len().saturating_sub(t))
        .step_by(stride)
        .take(tc.max_samples)
        .map(|i| (st.models.phase_of(seq[i + t - 1].2), i))
        .collect();
    let vocab_len = st.vocab.len().max(1);
    (st.final_loss, st.train_steps, st.train_rollbacks) = st.models.fit(
        samples,
        tc.epochs,
        tc.lr,
        "page",
        None,
        |m, phase, &i, s| {
            // Teacher history uses the teacher's own vocabulary.
            let t_hist: Vec<(usize, u64)> = records[i..i + t]
                .iter()
                .map(|rec| (teacher.vocab.token_of(rec.page()), rec.pc))
                .collect();
            let teacher_logits = teacher.predict_logits_in(&t_hist, phase, s);
            let logits = PagePredictor::forward_window(m, &seq[i..i + t], phase);
            let (loss, d_head) = match (teacher.cfg.head, cfg.head) {
                (PageHead::Softmax, PageHead::Softmax) => {
                    // Softmax student heads are tied: `logits` is the
                    // embedding-space projection, not the vocab-wide
                    // row. Expand through the student's table for the
                    // KD loss and pull the gradient back through the
                    // same (frozen-for-this-product) table.
                    let table = &tied_table(m).w;
                    let full = logits.matmul_bt(table);
                    let (loss, d_full) = distillation_loss(&full, &teacher_logits, dc.temperature);
                    (loss, d_full.matmul(table))
                }
                (PageHead::BinaryEncoded, PageHead::Softmax) => {
                    // Bits-wide teacher vs vocab-wide student: decode
                    // the teacher's token and distill it as a hard
                    // label through the student's tied softmax.
                    let probs = Sigmoid::infer(&teacher_logits);
                    let top = PagePredictor::decode_bits(probs.row(0), vocab_len);
                    let table = &tied_table(m).w;
                    let (loss, d_full) = softmax_cross_entropy(&logits.matmul_bt(table), &[top]);
                    (loss, d_full.matmul(table))
                }
                (PageHead::BinaryEncoded, PageHead::BinaryEncoded) => {
                    binary_distillation_loss(&logits, &teacher_logits)
                }
                (PageHead::Softmax, PageHead::BinaryEncoded) => {
                    // Head widths differ: distill the teacher's argmax
                    // token through the student's binary target.
                    let top = top_k_indices(teacher_logits.row(0), 1)[0];
                    let target = PagePredictor::binary_target(top, logits.cols);
                    bce_with_logits(&logits, &target)
                }
            };
            s.give(teacher_logits);
            m.backward(&d_head);
            loss
        },
    );
    st
}

/// The student's variant: the teacher's, or plain AMMA when all phase
/// teachers fold into one student.
fn student_variant(teacher: Variant, dc: &DistillCfg) -> Variant {
    if dc.single_student {
        Variant::Amma
    } else {
        teacher
    }
}

/// A Softmax page student's tied embedding table.
fn tied_table(m: &PhaseModel) -> &Param {
    &m.tied_embed().expect("Softmax page heads are tied").table
}

/// In-place int8 quantization of every model in a delta predictor.
/// Rounds the f32 weights onto their int8 grid (for storage accounting)
/// and installs the real int8 serving snapshot, so subsequent inference
/// runs the i8×i8→i32 kernels. Rounding first makes the snapshot an exact
/// representation of the stored weights (quantization is fixpoint-stable).
/// Returns (float bytes before, int8 bytes after).
pub fn quantize_delta(p: &mut DeltaPredictor) -> (usize, usize) {
    p.models.round_and_quantize()
}

/// In-place int8 quantization of every model in a page predictor. Same
/// contract as [`quantize_delta`]: weights round onto the int8 grid and
/// the int8 serving snapshot is installed.
pub fn quantize_page(p: &mut PagePredictor) -> (usize, usize) {
    p.models.round_and_quantize()
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
    use mpgraph_ml::ScratchArena;

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
        assert_eq!(student.models.models.len(), 1);
        assert_eq!(teacher.models.models.len(), 2);
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
        let phase = 1 % student.models.num_phases;
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

    #[test]
    fn distilled_students_report_their_training() {
        let tr = trace();
        let (dcfg, pcfg, tc) = teacher_cfgs();
        let dt = DeltaPredictor::train(&tr, 2, Variant::AmmaPs, dcfg, &tc);
        let pt = PagePredictor::train(&tr, 2, Variant::AmmaPs, pcfg, &tc);
        let dc = DistillCfg::default();
        let sd = distill_delta(&dt, &tr, &dc, &tc);
        let sp = distill_page(&pt, &tr, &dc, &tc);
        // Both walks are longer than `max_samples`, so each schedule holds
        // exactly `max_samples` samples.
        assert_eq!(
            sd.walk(&tr, tc.history, tc.max_samples).len(),
            tc.max_samples
        );
        let full = (tc.epochs * tc.max_samples) as u64;
        assert_eq!((sd.train_steps, sd.train_rollbacks), (full, 0));
        assert_eq!((sp.train_steps, sp.train_rollbacks), (full, 0));
    }

    #[test]
    fn pathological_lr_distillation_stays_finite_and_stops_only_the_exhausted_model() {
        // Only three windows end in phase 1, too few steps for that
        // student model to spend the guard's 8-rollback budget; the absurd
        // learning rate exhausts the phase-0 model within its first steps.
        let mut tr: Vec<MemRecord> = (0..400u64)
            .map(|i| rec(4096 + i * 64, 0x400000, 0))
            .collect();
        for r in &mut tr[200..203] {
            r.phase = 1;
        }
        let (dcfg, _, tc) = teacher_cfgs();
        let teacher = DeltaPredictor::train(&tr, 2, Variant::AmmaPs, dcfg, &tc);
        let tc = TrainCfg {
            lr: 1e4,
            epochs: 2,
            max_samples: 1000,
            ..tc
        };
        let dc = DistillCfg::default();
        let st = distill_delta(&teacher, &tr, &dc, &tc);
        let init = distill_delta(&teacher, &tr, &dc, &TrainCfg { epochs: 0, ..tc });
        let (w, w0) = (st.weight_bytes(), init.weight_bytes());
        assert!(w
            .chunks(4)
            .all(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]).is_finite()));
        // The phase-0 model spent its rollback budget and stopped early...
        let walk = st.walk(&tr, tc.history, tc.max_samples).len();
        assert!(st.train_rollbacks >= 8, "{} rollbacks", st.train_rollbacks);
        assert!(st.train_steps < (tc.epochs * walk) as u64);
        // ...while the phase-1 model, whose windows come after the point
        // where its sibling gave up, still trained. The two models have
        // the same shape, so the second half of the bytes is model 1.
        let half = w.len() / 2;
        assert_ne!(
            w[half..],
            w0[half..],
            "the phase-1 model stopped with its sibling"
        );
    }
}
