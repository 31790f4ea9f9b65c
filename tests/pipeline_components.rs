//! Second integration suite: component interactions that the end-to-end
//! tests don't isolate — trace persistence through the full pipeline, the
//! LLC filter's consistency with the simulator, CSTP chaining against
//! trained predictors, and the compression path on framework traces.

use mpgraph::core::{
    chain_prefetch, AmmaConfig, CstpConfig, DeltaPredictor, DeltaPredictorConfig, PageHead,
    PagePredictor, PagePredictorConfig, Pbot, Variant,
};
use mpgraph::frameworks::{generate_trace, io, App, Framework, TraceConfig};
use mpgraph::graph::{rmat, RmatConfig};
use mpgraph::ml::{ScratchArena, Sigmoid};
use mpgraph::prefetchers::TrainCfg;
use mpgraph::sim::{llc_filter, simulate, NullPrefetcher};

fn small_trace() -> mpgraph::frameworks::Trace {
    let g = rmat(RmatConfig::new(9, 6000, 17));
    generate_trace(
        Framework::Gpop,
        App::Pr,
        &g,
        &TraceConfig {
            iterations: 3,
            record_limit: 400_000,
            ..TraceConfig::default()
        },
    )
    .trace
}

#[test]
fn saved_trace_simulates_identically() {
    let t = small_trace();
    let dir = std::env::temp_dir().join("mpgraph_pipeline_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.mpgtrc");
    io::save(&t, &path).unwrap();
    let back = io::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let cfg = mpgraph::scaled_sim_config();
    let a = simulate(&t.records, &mut NullPrefetcher, &cfg);
    let b = simulate(&back.records, &mut NullPrefetcher, &cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.llc.misses, b.llc.misses);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn llc_filter_is_consistent_with_engine_counters() {
    let t = small_trace();
    let cfg = mpgraph::scaled_sim_config();
    let filtered = llc_filter(&t.records, &cfg);
    let sim = simulate(&t.records, &mut NullPrefetcher, &cfg);
    assert_eq!(filtered.len() as u64, sim.llc.accesses());
    // Filtering is idempotent in *length* terms only if caches are cold
    // again — instead check the filtered stream is strictly sparser.
    assert!(filtered.len() < t.records.len());
    // Phase labels and dep flags survive filtering.
    assert!(filtered.iter().any(|r| r.phase == 1));
    assert!(filtered.iter().any(|r| r.dep));
}

fn tiny_amma() -> AmmaConfig {
    AmmaConfig {
        history: 5,
        attn_dim: 8,
        fusion_dim: 16,
        layers: 1,
        heads: 2,
    }
}

#[test]
fn cstp_chain_respects_degree_bound_on_real_trace() {
    let t = small_trace();
    let cfg = mpgraph::scaled_sim_config();
    let train = llc_filter(&t.records[..t.iteration_starts[1]], &cfg);
    let tc = TrainCfg {
        history: 5,
        max_samples: 300,
        epochs: 1,
        lr: 3e-3,
        seed: 4,
    };
    let dcfg = DeltaPredictorConfig {
        amma: tiny_amma(),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.2,
    };
    let pcfg = PagePredictorConfig {
        amma: tiny_amma(),
        page_vocab: 256,
        embed_dim: 8,
        head: PageHead::Softmax,
    };
    let delta = DeltaPredictor::train(&train, 2, Variant::AmmaPs, dcfg, &tc);
    let page = PagePredictor::train(&train, 2, Variant::AmmaPs, pcfg, &tc);
    // Warm a PBOT from the training stream, then chain at many points.
    let mut pbot = Pbot::new(1024);
    for r in &train {
        pbot.update(r.page(), r.page_offset(), r.pc);
    }
    let cstp = CstpConfig {
        spatial_degree: 2,
        temporal_degree: 3,
    };
    let mut any_chained = false;
    let mut stats = mpgraph::core::CstpStats::default();
    for window in train.windows(5).skip(50).step_by(97).take(60) {
        let bh: Vec<(u64, u64)> = window.iter().map(|r| (r.block(), r.pc)).collect();
        let ph: Vec<(usize, u64)> = window
            .iter()
            .map(|r| (page.vocab.token_of(r.page()), r.pc))
            .collect();
        let phase = window.last().unwrap().phase as usize;
        let batch = chain_prefetch(&delta, &page, &pbot, &bh, &ph, phase, &cstp, &mut stats);
        assert!(
            batch.len() <= cstp.max_degree(),
            "batch {} > Eq.11 bound {}",
            batch.len(),
            cstp.max_degree()
        );
        if batch.len() > cstp.spatial_degree {
            any_chained = true; // the temporal chain fired at least once
        }
    }
    assert!(any_chained, "temporal chain never fired");
}

#[test]
fn distillation_pipeline_runs_on_framework_trace() {
    use mpgraph::core::{compress, DistillCfg};
    let t = small_trace();
    let cfg = mpgraph::scaled_sim_config();
    let train = llc_filter(&t.records[..t.iteration_starts[1]], &cfg);
    let tc = TrainCfg {
        history: 5,
        max_samples: 250,
        epochs: 1,
        lr: 3e-3,
        seed: 5,
    };
    let dcfg = DeltaPredictorConfig {
        amma: tiny_amma(),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.3,
    };
    let teacher = DeltaPredictor::train(&train, 2, Variant::AmmaPs, dcfg, &tc);
    let dc = DistillCfg {
        student_amma: AmmaConfig {
            history: 5,
            attn_dim: 4,
            fusion_dim: 8,
            layers: 1,
            heads: 2,
        },
        temperature: 3.0,
        single_student: true,
        student_head: None,
    };
    let mut student = compress::distill_delta(&teacher, &train, &dc, &tc);
    assert!(student.final_loss.is_finite());
    let (before, after) = compress::quantize_delta(&mut student);
    assert!(after < before);
    // Quantized student still produces bounded predictions.
    let hist: Vec<(u64, u64)> = train[..5].iter().map(|r| (r.block(), r.pc)).collect();
    let mut scores = student.predict_logits_in(&hist, 0, &mut ScratchArena::new());
    Sigmoid::infer_inplace(&mut scores);
    assert!(scores.data.iter().all(|s| (0.0..=1.0).contains(s)));
}

#[test]
fn detectors_generalize_across_apps_same_framework() {
    // The paper's premise: phases are a property of the *framework*, so a
    // detector trained on one app's trace transfers to another app of the
    // same framework (same code pages).
    use mpgraph::core::{build_detector, DetectorChoice};
    use mpgraph::phase::evaluate_transitions;
    let g = rmat(RmatConfig::new(9, 6000, 21));
    let mk = |app| {
        generate_trace(
            Framework::Gpop,
            app,
            &g,
            &TraceConfig {
                iterations: 3,
                record_limit: 400_000,
                ..TraceConfig::default()
            },
        )
        .trace
    };
    let cfg = mpgraph::scaled_sim_config();
    let pr = mk(App::Pr);
    let cc = mk(App::Cc);
    let train = llc_filter(&pr.records[..pr.iteration_starts[1]], &cfg);
    let mut det = build_detector(&train, 2, DetectorChoice::SoftDt);
    let test = llc_filter(&cc.records, &cfg);
    let pcs: Vec<u64> = test.iter().map(|r| r.pc).collect();
    let phases: Vec<u8> = test.iter().map(|r| r.phase).collect();
    let truths: Vec<usize> = (1..phases.len())
        .filter(|&i| phases[i] != phases[i - 1])
        .collect();
    assert!(!truths.is_empty());
    let detections: Vec<usize> = pcs
        .iter()
        .enumerate()
        .filter_map(|(i, &pc)| det.update(pc).then_some(i))
        .collect();
    let min_gap = truths
        .windows(2)
        .map(|w| w[1] - w[0])
        .min()
        .unwrap_or(500)
        .max(64);
    let prf = evaluate_transitions(&detections, &truths, 16, min_gap / 2);
    assert!(
        prf.recall > 0.6,
        "cross-app transfer recall {} (detections {:?})",
        prf.recall,
        detections.len()
    );
}
