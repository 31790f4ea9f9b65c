//! Determinism of the parallel AMMA-PS training fan-out: two runs with the
//! same seed must produce byte-identical weights, regardless of how the
//! per-phase model jobs were scheduled across threads. Training and
//! distillation share the fan-out, so phase-specific students are checked
//! too.

use mpgraph_core::{
    distill_delta, distill_page, AmmaConfig, DeltaPredictor, DeltaPredictorConfig, DistillCfg,
    PageHead, PagePredictor, PagePredictorConfig, Variant,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_prefetchers::TrainCfg;

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

/// Three-phase trace with distinct stride/page behaviour per phase, spread
/// over two cores so the page predictor exercises its per-core streams.
fn trace() -> Vec<MemRecord> {
    let mut v = Vec::new();
    for rep in 0..2 {
        let mut a = (4 + rep) * 4096u64;
        for i in 0..200 {
            v.push(rec(a, 0x400000 + (i % 3) * 4, 0, (i % 2) as u8));
            a += 64;
        }
        for i in 0..200 {
            let page = [40u64, 80, 120][i % 3];
            v.push(rec(
                page * 4096 + (i % 60) as u64 * 64,
                0x401000,
                1,
                (i % 2) as u8,
            ));
        }
        let mut b = 1u64 << 26;
        for i in 0..200 {
            v.push(rec(b, 0x402000, 2, (i % 2) as u8));
            b += 4 * 64;
        }
    }
    v
}

fn amma() -> AmmaConfig {
    AmmaConfig {
        history: 5,
        attn_dim: 8,
        fusion_dim: 16,
        layers: 1,
        heads: 2,
    }
}

fn tc() -> TrainCfg {
    TrainCfg {
        history: 5,
        max_samples: 200,
        epochs: 2,
        lr: 4e-3,
        seed: 77,
    }
}

#[test]
fn parallel_amma_ps_delta_training_is_byte_identical() {
    let tr = trace();
    let cfg = DeltaPredictorConfig {
        amma: amma(),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.5,
    };
    let a = DeltaPredictor::train(&tr, 3, Variant::AmmaPs, cfg, &tc());
    let b = DeltaPredictor::train(&tr, 3, Variant::AmmaPs, cfg, &tc());
    assert_eq!(
        a.final_loss.to_bits(),
        b.final_loss.to_bits(),
        "final loss diverged between same-seed runs"
    );
    assert_eq!(
        a.weight_bytes(),
        b.weight_bytes(),
        "weights diverged between same-seed runs"
    );
}

#[test]
fn parallel_amma_ps_page_training_is_byte_identical() {
    let tr = trace();
    for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
        let cfg = PagePredictorConfig {
            amma: amma(),
            page_vocab: 64,
            embed_dim: 8,
            head,
        };
        let a = PagePredictor::train(&tr, 3, Variant::AmmaPs, cfg, &tc());
        let b = PagePredictor::train(&tr, 3, Variant::AmmaPs, cfg, &tc());
        assert_eq!(
            a.final_loss.to_bits(),
            b.final_loss.to_bits(),
            "{head:?}: final loss diverged between same-seed runs"
        );
        assert_eq!(
            a.weight_bytes(),
            b.weight_bytes(),
            "{head:?}: weights diverged between same-seed runs"
        );
    }
}

#[test]
fn parallel_phase_specific_distillation_is_byte_identical() {
    let tr = trace();
    let dcfg = DeltaPredictorConfig {
        amma: amma(),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.5,
    };
    let pcfg = PagePredictorConfig {
        amma: amma(),
        page_vocab: 64,
        embed_dim: 8,
        head: PageHead::Softmax,
    };
    let dt = DeltaPredictor::train(&tr, 3, Variant::AmmaPs, dcfg, &tc());
    let pt = PagePredictor::train(&tr, 3, Variant::AmmaPs, pcfg, &tc());
    let dc = DistillCfg::default();
    let (a, b) = (
        distill_delta(&dt, &tr, &dc, &tc()),
        distill_delta(&dt, &tr, &dc, &tc()),
    );
    assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
    assert_eq!(
        a.weight_bytes(),
        b.weight_bytes(),
        "delta students diverged"
    );
    let (a, b) = (
        distill_page(&pt, &tr, &dc, &tc()),
        distill_page(&pt, &tr, &dc, &tc()),
    );
    assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
    assert_eq!(a.weight_bytes(), b.weight_bytes(), "page students diverged");
}

#[test]
fn different_seeds_actually_change_the_weights() {
    // Guard against the fingerprint accessor trivially returning equal
    // bytes: a different seed must produce different weights.
    let tr = trace();
    let cfg = DeltaPredictorConfig {
        amma: amma(),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.5,
    };
    let a = DeltaPredictor::train(&tr, 3, Variant::AmmaPs, cfg, &tc());
    let b = DeltaPredictor::train(&tr, 3, Variant::AmmaPs, cfg, &TrainCfg { seed: 78, ..tc() });
    assert_ne!(a.weight_bytes(), b.weight_bytes());
}
