//! Golden fingerprints of every inference forward.
//!
//! Each check hashes the exact output bits of one forward family with
//! fixed seeds and compares against a constant recorded from the code as
//! it stood before the inference stack was unified. The bit-identity
//! property tests pin batched paths to per-item paths and int8 kernels to
//! their references, but they compare two live code paths with each
//! other; a one-ulp drift that moves both sides together would slip past
//! them. These constants do not move.
//!
//! Covered: every backbone kind (LSTM, Attention, AMMA, AMMA-PI) at
//! B = 1 and B = 5, and small trained delta and page predictors on the
//! f32 and int8 paths through `predict_logits_in` (raw logits bits),
//! `predict_deltas_in` / `predict_pages_in`, and the B = 5 batch entry
//! points (full score rankings). Two-layer AMMA, AMMA-PI and Attention
//! backbones (f32 and int8) and a trained two-layer AMMA delta predictor
//! pin the stacks where a non-final transformer layer feeds the final one.
//!
//! The constants were recorded on x86_64 Linux. `exp`/`tanh` come from
//! the platform libm, so other targets may differ in the last ulp; the
//! checks only run on x86_64.
#![cfg(target_arch = "x86_64")]

use mpgraph_core::{
    AmmaConfig, Backbone, BackboneKind, DeltaPredictor, DeltaPredictorConfig, ModalInput, PageHead,
    PagePredictor, PagePredictorConfig, Variant,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::TrainCfg;

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.bytes(&(m.rows as u64).to_le_bytes());
        self.bytes(&(m.cols as u64).to_le_bytes());
        for v in &m.data {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn ints<T: Copy + Into<i128>>(&mut self, xs: &[T]) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for &x in xs {
            self.bytes(&x.into().to_le_bytes());
        }
    }
}

fn cfg() -> AmmaConfig {
    cfg_layers(1)
}

fn cfg_layers(layers: usize) -> AmmaConfig {
    AmmaConfig {
        history: 5,
        attn_dim: 8,
        fusion_dim: 16,
        layers,
        heads: 2,
    }
}

fn tc() -> TrainCfg {
    TrainCfg {
        history: 5,
        max_samples: 120,
        epochs: 2,
        lr: 4e-3,
        seed: 91,
    }
}

fn rec(vaddr: u64, pc: u64, phase: u8, core: u8) -> MemRecord {
    MemRecord {
        pc,
        vaddr,
        core,
        is_write: false,
        phase,
        gap: 1,
        dep: false,
    }
}

/// Two-phase trace: a streaming phase and a three-page cycle, on two
/// cores so the page predictor sees per-core streams.
fn trace() -> Vec<MemRecord> {
    let mut v = Vec::new();
    for rep in 0..2u64 {
        let mut a = (4 + rep) * 4096;
        for i in 0..160u64 {
            v.push(rec(a, 0x400000 + (i % 3) * 4, 0, (i % 2) as u8));
            a += 64;
        }
        for i in 0..160u64 {
            let page = [40u64, 80, 120][(i % 3) as usize];
            v.push(rec(page * 4096 + (i % 60) * 64, 0x401000, 1, (i % 2) as u8));
        }
    }
    v
}

/// `batch` random windows stacked `[batch * T, F]`, sequence-contiguous.
fn stacked(seed: u64, batch: usize, t: usize) -> ModalInput {
    let mut r = rng(seed);
    ModalInput {
        addr: Matrix::xavier(batch * t, 3, &mut r),
        pc: Matrix::xavier(batch * t, 1, &mut r),
    }
}

fn backbone(kind: BackboneKind, phase_informed: bool, layers: usize, seed: u64) -> Backbone {
    let mut r = rng(seed);
    let b = Backbone::new(kind, 3, 1, cfg_layers(layers), &mut r);
    if phase_informed {
        b.with_phase_embedding(3, &mut r)
    } else {
        b
    }
}

/// Hashes one backbone forward over B = 1 and B = 5 stacks, three phases.
fn hash_forwards(infer: impl Fn(&ModalInput, usize, usize, &mut ScratchArena) -> Matrix) -> u64 {
    let mut h = Fnv::new();
    let mut s = ScratchArena::new();
    for batch in [1usize, 5] {
        let x = stacked(100 + batch as u64, batch, 5);
        for phase in 0..3 {
            let y = infer(&x, batch, phase, &mut s);
            h.matrix(&y);
            s.give(y);
        }
    }
    h.0
}

fn backbone_fingerprint(kind: BackboneKind, phase_informed: bool) -> u64 {
    let b = backbone(kind, phase_informed, 1, 17);
    hash_forwards(|x, n, p, s| b.infer_batch_in(x, n, p, s))
}

/// `(f32, int8)` hashes of a backbone built with `layers` transformer
/// layers.
fn layered_backbone_fingerprint(
    kind: BackboneKind,
    phase_informed: bool,
    layers: usize,
) -> (u64, u64) {
    let b = backbone(kind, phase_informed, layers, 23);
    let q = b.quantized();
    (
        hash_forwards(|x, n, p, s| b.infer_batch_in(x, n, p, s)),
        hash_forwards(|x, n, p, s| q.infer_batch_in(x, n, p, s)),
    )
}

/// Five distinct delta windows from the trace.
fn delta_windows(tr: &[MemRecord]) -> Vec<Vec<(u64, u64)>> {
    (0..5)
        .map(|i| {
            tr[i * 61..i * 61 + 5]
                .iter()
                .map(|r| (r.block(), r.pc))
                .collect()
        })
        .collect()
}

fn delta_fingerprint(variant: Variant) -> (u64, u64) {
    delta_fingerprint_layers(variant, 1)
}

fn delta_fingerprint_layers(variant: Variant, layers: usize) -> (u64, u64) {
    let tr = trace();
    let dcfg = DeltaPredictorConfig {
        amma: cfg_layers(layers),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.5,
    };
    let mut dp = DeltaPredictor::train(&tr, 2, variant, dcfg, &tc());
    let windows = delta_windows(&tr);
    let refs: Vec<&[(u64, u64)]> = windows.iter().map(Vec::as_slice).collect();
    let labels = 2 * dcfg.delta_range as usize;
    let run = |dp: &mut DeltaPredictor| {
        let mut h = Fnv::new();
        let mut s = ScratchArena::new();
        dp.cfg.threshold = 0.5;
        for phase in 0..2 {
            for w in &refs {
                let logits = dp.predict_logits_in(w, phase, &mut s);
                h.matrix(&logits);
                s.give(logits);
                h.ints(&dp.predict_deltas_in(w, phase, 4, &mut s));
            }
            // Threshold below every sigmoid: the batch returns each
            // window's full label ranking.
            dp.cfg.threshold = -1.0;
            for d in dp.predict_deltas_batch_in(&refs, phase, labels, &mut s) {
                h.ints(&d);
            }
            dp.cfg.threshold = 0.5;
        }
        h.0
    };
    let f32_hash = run(&mut dp);
    dp.quantize();
    let int8_hash = run(&mut dp);
    (f32_hash, int8_hash)
}

fn page_fingerprint(variant: Variant, head: PageHead) -> (u64, u64) {
    let tr = trace();
    let pcfg = PagePredictorConfig {
        amma: cfg(),
        page_vocab: 64,
        embed_dim: 8,
        head,
    };
    let mut pp = PagePredictor::train(&tr, 2, variant, pcfg, &tc());
    let windows: Vec<Vec<(usize, u64)>> = (0..5)
        .map(|i| {
            tr[i * 67 + 3..i * 67 + 8]
                .iter()
                .map(|r| (pp.vocab.token_of(r.page()), r.pc))
                .collect()
        })
        .collect();
    let refs: Vec<&[(usize, u64)]> = windows.iter().map(Vec::as_slice).collect();
    let run = |pp: &PagePredictor| {
        let mut h = Fnv::new();
        let mut s = ScratchArena::new();
        for phase in 0..2 {
            for w in &refs {
                let logits = pp.predict_logits_in(w, phase, &mut s);
                h.matrix(&logits);
                s.give(logits);
                h.ints(&pp.predict_pages_in(w, phase, 1, &mut s));
            }
            for p in pp.predict_pages_batch_in(&refs, phase, 8, &mut s) {
                h.ints(&p);
            }
        }
        h.0
    };
    let f32_hash = run(&pp);
    pp.quantize();
    let int8_hash = run(&pp);
    (f32_hash, int8_hash)
}

#[test]
fn backbone_forwards_match_golden_bits() {
    let got = [
        backbone_fingerprint(BackboneKind::Lstm, false),
        backbone_fingerprint(BackboneKind::Attention, false),
        backbone_fingerprint(BackboneKind::Amma, false),
        backbone_fingerprint(BackboneKind::Amma, true),
    ];
    let want: [u64; 4] = [
        0x0f51_90e2_4e1e_4506,
        0xd050_6a47_0a1e_71d6,
        0x9874_9d61_d64f_3e81,
        0xf26d_2662_a674_0390,
    ];
    assert_eq!(got, want, "backbone forward bits drifted: {got:#x?}");
}

#[test]
fn delta_predictor_forwards_match_golden_bits() {
    let got = [
        delta_fingerprint(Variant::Lstm),
        delta_fingerprint(Variant::Attention),
        delta_fingerprint(Variant::Amma),
        delta_fingerprint(Variant::AmmaPi),
    ];
    let want: [(u64, u64); 4] = [
        (0x2e29_abb8_459d_c9b1, 0x197f_9bc0_62b5_9f99),
        (0x2fd8_e1a7_2988_0a75, 0xf34f_fb2e_3801_69c5),
        (0x8e92_b363_735e_3981, 0xa03c_247a_046f_aa79),
        (0x91e3_88a5_6b7e_ddae, 0x395e_4539_e511_8d67),
    ];
    assert_eq!(got, want, "delta predictor bits drifted: {got:#x?}");
}

#[test]
fn page_predictor_forwards_match_golden_bits() {
    let got = [
        page_fingerprint(Variant::Lstm, PageHead::Softmax),
        page_fingerprint(Variant::Attention, PageHead::Softmax),
        page_fingerprint(Variant::Amma, PageHead::BinaryEncoded),
        page_fingerprint(Variant::AmmaPi, PageHead::Softmax),
    ];
    let want: [(u64, u64); 4] = [
        (0x8fda_a207_61ff_72c1, 0x1783_4768_87b7_dff1),
        (0xf226_37f0_2d9b_a5c9, 0x3dd8_b225_b854_b331),
        (0x4807_21a9_3163_0509, 0xe1e5_93cd_4505_dcb5),
        (0xdf25_4a6d_9f17_40a8, 0xb504_0980_e6eb_ef6a),
    ];
    assert_eq!(got, want, "page predictor bits drifted: {got:#x?}");
}

#[test]
fn two_layer_forwards_match_golden_bits() {
    // The Attention backbone always stacks two layers; `layers` sizes the
    // AMMA transformer stack.
    let got = [
        layered_backbone_fingerprint(BackboneKind::Attention, false, 2),
        layered_backbone_fingerprint(BackboneKind::Amma, false, 2),
        layered_backbone_fingerprint(BackboneKind::Amma, true, 2),
        delta_fingerprint_layers(Variant::Amma, 2),
    ];
    let want: [(u64, u64); 4] = [
        (0xd30d_9268_ef35_a85f, 0x91d6_3620_a7cb_39e7),
        (0x1ff9_506d_b797_6528, 0xb899_d7a5_7708_f500),
        (0x7396_c43f_4f3a_c344, 0x8071_562e_77bd_a075),
        (0x7177_305d_973b_e4a5, 0x795e_6885_104e_9c8d),
    ];
    assert_eq!(got, want, "two-layer forward bits drifted: {got:#x?}");
}
