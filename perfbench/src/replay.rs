//! `replay-quick`: the 12-combo `mpgraph run --all --quick` matrix on two
//! shard workers, f32 (`shard::run_matrix(&ExpScale::quick(), 2)`).
//!
//! Untraced, it times whole matrix runs. Traced, it runs the matrix once
//! untraced for reference, then once more through a copy of
//! `shard::run_combo` whose calls into each layer are timed from here
//! (MPGraph wrapped in a timing `Prefetcher`), checks that both runs
//! computed the same thing, and finally times single model forwards,
//! CSTP chains and detector updates on windows of each workload's own
//! LLC access stream.

use crate::refkernel::RefKernel;
use crate::spans::{self, Open, Recorder, Span};
use crate::stats::{median, p50_p99, ratio};
use crate::{Args, Outcome};
use mpgraph_bench::runners::prefetching::{mpgraph_cfg, sim_config};
use mpgraph_bench::shard::{full_matrix, run_matrix, Combo, MatrixResult, SEGMENT_LEN};
use mpgraph_bench::workload::build_workload;
use mpgraph_bench::ExpScale;
use mpgraph_core::trace::TraceConfig as TelemetryConfig;
use mpgraph_core::{
    build_detector, chain_prefetch_in, train_mpgraph, CstpStats, MpGraphPrefetcher, Pbot,
    PrefetchScoreboard,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{
    simulate, LlcAccess, NullPrefetcher, PrefetchObserver, PrefetchTag, Prefetcher, SimResult,
    SimSession, TraceEvent,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shard workers, as `mpgraph run --all --quick --shards 2`.
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Windows per combo for the direct forward / chain timings.
const PROBE_WINDOWS: usize = 100;
/// Accesses per combo for the detector-update timing.
const DETECTOR_ACCESSES: usize = 2_000;
/// How often the reference kernel is sampled while a matrix runs.
const REFERENCE_PERIOD: Duration = Duration::from_millis(100);

/// The quick scale with the benchmark's seed as the training seed. The
/// graph seed is fixed inside `workload::build_graph` and cannot be varied
/// from outside, so the seed moves training and nothing upstream of it.
fn scale(seed: u64) -> ExpScale {
    let mut s = ExpScale::quick();
    s.train.seed = seed;
    s
}

/// What each combo's output must match: its place in the matrix and the
/// length of its evaluation stream.
struct Reference {
    label: String,
    test_len: u64,
}

/// Set-up: builds every combo's workload to learn the stream length the
/// replay must cover. Repeated; returns the references and each build's
/// seconds.
fn setup(scale: &ExpScale, rec: &mut Recorder) -> (Vec<Reference>, Vec<f64>) {
    let mut times = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (r, secs) = rec.time_s("setup", || {
            full_matrix(scale)
                .into_iter()
                .map(|c| {
                    let w = build_workload(c.framework, c.app, c.dataset, scale);
                    Reference {
                        label: c.label(),
                        test_len: w.test.len() as u64,
                    }
                })
                .collect()
        });
        refs = r;
        times.push(secs);
    }
    (refs, times)
}

/// The three results of one combo, as text: `SimResult` has no
/// `PartialEq`, and its `Debug` form covers every field.
fn fingerprint(base: &SimResult, bo: &SimResult, mp: &SimResult) -> String {
    format!("{base:?}|{bo:?}|{mp:?}")
}

/// Checks one matrix run against the references; returns the combos'
/// fingerprints in canonical order.
fn check_matrix(m: &MatrixResult, refs: &[Reference], out: &mut Outcome) -> Vec<String> {
    if m.combos.len() != refs.len() {
        out.fail(
            refs.len() as u64,
            format!(
                "matrix ran {} combos, expected {}",
                m.combos.len(),
                refs.len()
            ),
        );
    }
    let mut prints = Vec::new();
    for (c, r) in m.combos.iter().zip(refs) {
        let label = c.combo.label();
        let mut problems = Vec::new();
        if label != r.label {
            problems.push(format!("order: expected {}", r.label));
        }
        if c.records == 0 {
            problems.push("records == 0".into());
        }
        if c.records != r.test_len {
            problems.push(format!("records {} != stream {}", c.records, r.test_len));
        }
        if c.snapshot.issued != c.mpgraph.prefetches_issued {
            problems.push(format!(
                "snapshot issued {} != simulator {}",
                c.snapshot.issued, c.mpgraph.prefetches_issued
            ));
        }
        if c.snapshot.untracked_completions != 0 {
            problems.push(format!(
                "{} untracked completions",
                c.snapshot.untracked_completions
            ));
        }
        if !problems.is_empty() {
            out.fail(1, format!("{label}: {}", problems.join("; ")));
        }
        prints.push(fingerprint(&c.base, &c.bo, &c.mpgraph));
    }
    prints
}

fn run_matrix_caught(scale: &ExpScale) -> Option<MatrixResult> {
    catch_unwind(AssertUnwindSafe(|| run_matrix(scale, SHARDS))).ok()
}

/// Runs the matrix while a sampler thread times the reference kernel
/// every [`REFERENCE_PERIOD`]. Returns the matrix, its host seconds and
/// the kernel's median sample over the same stretch.
fn matrix_with_reference(scale: &ExpScale) -> (Option<MatrixResult>, f64, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut kernel = RefKernel::new();
            let mut samples = Vec::new();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(REFERENCE_PERIOD);
                samples.push(kernel.sample_s());
            }
            samples
        });
        let t = Instant::now();
        let m = run_matrix_caught(scale);
        let wall = t.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let samples = sampler.join().expect("reference sampler panicked");
        (m, wall, median(&samples))
    })
}

pub fn run(args: &Args, env: &[(&'static str, String)]) -> Outcome {
    let scale = scale(args.seed);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0, None);
    let (refs, setup_times) = setup(&scale, &mut rec);
    out.set("setup_s", median(&setup_times));
    if args.trace {
        traced(args, env, &scale, &refs, epoch, rec, &mut out);
    } else {
        untraced(args, &scale, &refs, &mut out);
    }
    out
}

/// Whole matrix runs until the next one would overrun `--seconds` (at
/// least one). Simulated metrics come from the first run; every later run
/// must reproduce it exactly.
fn untraced(args: &Args, scale: &ExpScale, refs: &[Reference], out: &mut Outcome) {
    let started = Instant::now();
    let (mut walls, mut references, mut norms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Vec<String>, MatrixResult)> = None;
    loop {
        let (m, wall, reference) = matrix_with_reference(scale);
        out.attempted += refs.len() as u64;
        let Some(m) = m else {
            out.fail(refs.len() as u64, "matrix run panicked".into());
            break;
        };
        walls.push(wall);
        references.push(reference);
        norms.push(ratio(wall, reference));
        let prints = check_matrix(&m, refs, out);
        match &first {
            None => first = Some((prints, m)),
            Some((p0, _)) => {
                let differing = p0.iter().zip(&prints).filter(|(a, b)| a != b).count();
                if differing > 0 {
                    out.fail(
                        differing as u64,
                        format!("{differing} combos differ from the run's first matrix"),
                    );
                }
            }
        }
        if started.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    let Some((_, m)) = first else { return };
    let records: u64 = m.combos.iter().map(|c| c.records).sum();
    let llc: u64 = m.combos.iter().map(|c| c.mpgraph.llc.accesses()).sum();
    out.set("wall_norm", median(&norms));
    out.set("accuracy", m.merged.accuracy);
    out.set("coverage", m.merged.coverage);
    out.set(
        "ml_served_fraction",
        ratio(m.merged.cstp.batches as f64, llc as f64),
    );
    // The mean, not the p50: the merged p50 is a count-weighted mean of
    // per-combo bucket midpoints and jumps by about 17% between seeds.
    out.set("mean_latency_cycles", m.merged.memory_latency.mean);
    out.set("p99_latency_cycles", m.merged.memory_latency.p99 as f64);
    out.notes.push(format!(
        "replay-quick: {} matrix run(s) of {} combos on {SHARDS} shard workers; wall {:?} s \
         (median {:.3} s = {:.0} records/s); reference kernel median {:.2} us",
        walls.len(),
        m.combos.len(),
        crate::stats::millis(&walls),
        median(&walls),
        ratio(records as f64, median(&walls)),
        median(&references) * 1e6,
    ));
}

/// Forwards every `Prefetcher` method to MPGraph, timing `on_access`.
struct TimedPrefetcher<'a> {
    inner: &'a mut MpGraphPrefetcher,
    on_access_ns: Vec<u64>,
}

impl Prefetcher for TimedPrefetcher<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_access(&mut self, access: &LlcAccess, out: &mut Vec<u64>) {
        let t = Instant::now();
        self.inner.on_access(access, out);
        self.on_access_ns.push(t.elapsed().as_nanos() as u64);
    }
    fn latency(&self) -> u64 {
        self.inner.latency()
    }
    fn effective_latency(&mut self, injected_stall: u64) -> u64 {
        self.inner.effective_latency(injected_stall)
    }
    fn last_batch_tags(&self) -> &[PrefetchTag] {
        self.inner.last_batch_tags()
    }
    fn current_phase_id(&self) -> u8 {
        self.inner.current_phase_id()
    }
    fn enable_trace_events(&mut self, on: bool) {
        self.inner.enable_trace_events(on)
    }
    fn pending_trace_events(&self) -> &[TraceEvent] {
        self.inner.pending_trace_events()
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

/// One combo of the traced matrix: its results plus what the probes need.
struct TracedCombo {
    fingerprint: String,
    /// LLC demand accesses the simulator counted; `on_access` must have
    /// seen each one.
    llc_accesses: u64,
    ipc_gain_pct: f64,
    on_access_ns: Vec<u64>,
    train_tokens: u64,
    cstp: CstpStats,
    controller_observations: u64,
    mp: MpGraphPrefetcher,
    num_phases: usize,
    train_llc: Vec<MemRecord>,
    probe_llc: Vec<MemRecord>,
}

/// `shard::run_combo` with the default segment length, the same calls in
/// the same order, each inside a span.
fn traced_combo(combo: Combo, scale: &ExpScale, rec: &mut Recorder) -> TracedCombo {
    let whole = rec.begin("combo");
    let w = rec.time("workload.build", || {
        build_workload(combo.framework, combo.app, combo.dataset, scale)
    });
    let cfg = sim_config();
    let base = rec.time("sim.base", || simulate(&w.test, &mut NullPrefetcher, &cfg));
    let bo = rec.time("sim.bo", || {
        let mut bo_pf = BestOffset::new(BoConfig::default());
        simulate(&w.test, &mut bo_pf, &cfg)
    });
    let mut mp = rec.time("core.train", || {
        train_mpgraph(&w.train_llc, w.num_phases, mpgraph_cfg(), &scale.train)
    });
    let mut sb =
        PrefetchScoreboard::with_trace(w.num_phases.max(1), 4096, TelemetryConfig::default());
    let replay: Open = rec.begin("sim.replay");
    let mut timed = TimedPrefetcher {
        inner: &mut mp,
        on_access_ns: Vec::new(),
    };
    let mut session = SimSession::new(&cfg);
    for segment in w.test.chunks(SEGMENT_LEN) {
        session.run_segment(
            segment,
            &mut timed,
            None,
            Some(&mut sb as &mut dyn PrefetchObserver),
        );
    }
    let mpgraph = session.finish(&timed, None);
    let on_access_ns = timed.on_access_ns;
    rec.charge(replay, on_access_ns.iter().sum());
    rec.end(replay);
    let mut snapshot = sb.snapshot();
    mp.enrich_snapshot(&mut snapshot);
    rec.end(whole);
    TracedCombo {
        fingerprint: fingerprint(&base, &bo, &mpgraph),
        llc_accesses: mpgraph.llc.accesses(),
        ipc_gain_pct: mpgraph.ipc_improvement(&base),
        on_access_ns,
        train_tokens: (mp.delta.train_steps + mp.page.train_steps) * scale.train.history as u64,
        cstp: mp.cstp_stats,
        controller_observations: snapshot.controller.observations,
        num_phases: w.num_phases,
        probe_llc: w.test_llc[..w.test_llc.len().min(DETECTOR_ACCESSES)].to_vec(),
        train_llc: w.train_llc,
        mp,
    }
}

/// The traced matrix on `SHARDS` workers claiming combos in canonical
/// order, as `shard::run_matrix` does. Returns the combos in canonical
/// order and every worker's spans.
fn traced_matrix(
    scale: &ExpScale,
    epoch: Instant,
    parent: u64,
) -> (Vec<Option<TracedCombo>>, Vec<Vec<Span>>) {
    let combos = full_matrix(scale);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TracedCombo>>> = combos.iter().map(|_| Mutex::new(None)).collect();
    let worker_spans = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS.min(combos.len()))
            .map(|worker| {
                let (next, combos, slots) = (&next, &combos, &slots);
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, worker + 1, Some(parent));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&combo) = combos.get(i) else { break };
                        let r =
                            catch_unwind(AssertUnwindSafe(|| traced_combo(combo, scale, &mut rec)));
                        *slots[i].lock().expect("no worker panics holding a slot") = r.ok();
                    }
                    rec.into_spans()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().expect("no worker panics holding a slot"))
        .collect();
    (results, worker_spans)
}

/// Direct timings on one combo's trained model: single delta and page
/// forwards and whole CSTP chains on windows of the combo's LLC stream,
/// and detector updates over that stream.
#[derive(Default)]
struct Probes {
    delta_ns: Vec<u64>,
    page_ns: Vec<u64>,
    chain_ns: Vec<u64>,
    detector_ns: Vec<u64>,
}

fn probe(c: &TracedCombo, history: usize, p: &mut Probes) {
    let mp = &c.mp;
    let stream = &c.probe_llc;
    if stream.len() <= history {
        return;
    }
    let cstp = mp.cfg.cstp;
    let mut pbot = Pbot::new(mp.cfg.pbot_capacity);
    let mut block_hist: Vec<(u64, u64)> = Vec::new();
    // Page histories are per core, as in `on_access`.
    let mut page_hists: Vec<Vec<(usize, u64)>> = vec![Vec::new(); 8];
    let every = (stream.len() / PROBE_WINDOWS).max(1);
    let (mut sa, mut ta) = (ScratchArena::new(), ScratchArena::new());
    let mut lanes = Vec::new();
    let mut stats = CstpStats::default();
    let mut taken = 0usize;
    for (i, r) in stream.iter().enumerate() {
        let page = r.page();
        block_hist.push((r.block(), r.pc));
        if block_hist.len() > history {
            block_hist.remove(0);
        }
        let ph = &mut page_hists[(r.core as usize) % 8];
        ph.push((mp.page.vocab.token_of(page), r.pc));
        if ph.len() > history {
            ph.remove(0);
        }
        pbot.update(page, r.page_offset(), r.pc);
        if i % every != 0 || block_hist.len() < history || ph.len() < history {
            continue;
        }
        if taken == PROBE_WINDOWS {
            break;
        }
        taken += 1;
        let phase = taken % c.num_phases.max(1);
        let t = Instant::now();
        std::hint::black_box(mp.delta.predict_deltas_in(
            std::hint::black_box(&block_hist),
            phase,
            cstp.spatial_degree,
            &mut sa,
        ));
        p.delta_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(
            mp.page
                .predict_pages_in(std::hint::black_box(ph), phase, 1, &mut ta),
        );
        p.page_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(chain_prefetch_in(
            &mp.delta,
            &mp.page,
            &pbot,
            std::hint::black_box(&block_hist),
            ph,
            phase,
            &cstp,
            &mut sa,
            &mut ta,
            &mut lanes,
            &mut stats,
        ));
        p.chain_ns.push(t.elapsed().as_nanos() as u64);
    }
    let mut detector = build_detector(&c.train_llc, c.num_phases, mp.cfg.detector);
    for r in stream {
        let t = Instant::now();
        std::hint::black_box(detector.update(std::hint::black_box(r.pc)));
        p.detector_ns.push(t.elapsed().as_nanos() as u64);
    }
}

fn traced(
    args: &Args,
    env: &[(&'static str, String)],
    scale: &ExpScale,
    refs: &[Reference],
    epoch: Instant,
    mut main_rec: Recorder,
    out: &mut Outcome,
) {
    // Reference: the untraced matrix, for the equality check and the
    // tracing overhead.
    let (reference, untraced_wall) =
        main_rec.time_s("matrix.untraced", || run_matrix_caught(scale));
    out.attempted += refs.len() as u64;
    let Some(reference) = reference else {
        out.fail(refs.len() as u64, "untraced matrix run panicked".into());
        return;
    };
    let ref_prints = check_matrix(&reference, refs, out);

    let matrix = main_rec.begin("matrix.traced");
    let (combos, worker_spans) = traced_matrix(scale, epoch, main_rec.id(matrix));
    let traced_wall = main_rec.end(matrix);

    out.attempted += refs.len() as u64;
    let mut ok = Vec::new();
    for (i, c) in combos.into_iter().enumerate() {
        let label = refs.get(i).map_or("?", |r| r.label.as_str());
        match c {
            None => out.fail(1, format!("{label}: traced combo panicked")),
            Some(c) => {
                if ref_prints.get(i) != Some(&c.fingerprint) {
                    out.fail(
                        1,
                        format!("{label}: traced SimResults differ from run_matrix's"),
                    );
                }
                if c.on_access_ns.len() as u64 != c.llc_accesses {
                    out.fail(
                        1,
                        format!(
                            "{label}: timing wrapper saw {} on_access calls for {} LLC accesses",
                            c.on_access_ns.len(),
                            c.llc_accesses
                        ),
                    );
                }
                ok.push(c);
            }
        }
    }

    // Attribution: named layer spans inside each worker's combo spans
    // must cover at least 90% of that busy time.
    let all: Vec<Span> = worker_spans.iter().flatten().cloned().collect();
    let busy = spans::total_ns(&all, "combo") as f64;
    let named: f64 = [
        "workload.build",
        "sim.base",
        "sim.bo",
        "core.train",
        "sim.replay",
    ]
    .iter()
    .map(|n| spans::total_ns(&all, n) as f64)
    .sum();
    let attributed = ratio(named, busy);
    if attributed < 0.9 {
        out.fail(
            0,
            format!(
                "layer spans cover {:.1}% of worker busy time (< 90%)",
                attributed * 100.0
            ),
        );
    }

    // Probes, serially after the matrix so they do not disturb it.
    let mut probes = Probes::default();
    let probe_span = main_rec.begin("probes");
    for c in &ok {
        probe(c, scale.train.history, &mut probes);
    }
    main_rec.end(probe_span);

    let secs = |name: &str| spans::total_ns(&all, name) as f64 / 1e9;
    let mut on_access: Vec<u64> = ok
        .iter()
        .flat_map(|c| c.on_access_ns.iter().copied())
        .collect();
    let on_access_s = on_access.iter().sum::<u64>() as f64 / 1e9;
    let train_tokens: u64 = ok.iter().map(|c| c.train_tokens).sum();
    let mut cstp = CstpStats::default();
    for c in &ok {
        cstp.merge(&c.cstp);
    }
    out.set("workload.build_s", secs("workload.build"));
    out.set("sim.base_s", secs("sim.base"));
    out.set("sim.bo_s", secs("sim.bo"));
    out.set("core.train_s", secs("core.train"));
    out.set(
        "core.train_tokens_per_s",
        ratio(train_tokens as f64, secs("core.train")),
    );
    out.set("sim.replay_s", secs("sim.replay"));
    out.set("core.on_access_calls", on_access.len() as f64);
    let (p50, p99) = p50_p99(&mut on_access);
    out.set("core.on_access_ns.p50", p50);
    out.set("core.on_access_ns.p99", p99);
    out.set("sim.engine_self_s", secs("sim.replay") - on_access_s);
    out.set(
        "sim.ipc_gain_pct",
        ok.iter().map(|c| c.ipc_gain_pct).sum::<f64>() / ok.len().max(1) as f64,
    );
    let (p50, p99) = p50_p99(&mut probes.delta_ns);
    out.set("ml.delta_forward_ns.p50", p50);
    out.set("ml.delta_forward_ns.p99", p99);
    let (p50, p99) = p50_p99(&mut probes.page_ns);
    out.set("ml.page_forward_ns.p50", p50);
    out.set("ml.page_forward_ns.p99", p99);
    let (p50, p99) = p50_p99(&mut probes.chain_ns);
    out.set("core.cstp_chain_ns.p50", p50);
    out.set("core.cstp_chain_ns.p99", p99);
    // One spatial forward per chain, a page and a delta forward per chain
    // step, and one more page forward for each step that missed the PBOT.
    out.set(
        "core.forwards_per_access",
        ratio(
            (cstp.batches + 2 * cstp.chain_steps + cstp.pbot_misses) as f64,
            cstp.batches as f64,
        ),
    );
    out.set(
        "phase.detector_update_ns.p50",
        p50_p99(&mut probes.detector_ns).0,
    );
    out.set("core.cstp.pbot_hit_rate", cstp.pbot_hit_rate());
    out.set(
        "core.controller.observations",
        ok.iter().map(|c| c.controller_observations).sum::<u64>() as f64,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
    );
    out.set("trace.attributed_fraction", attributed);

    // The stage split of the workers' busy time.
    let split = [
        ("workload build", secs("workload.build")),
        ("base + BO replay", secs("sim.base") + secs("sim.bo")),
        ("training", secs("core.train")),
        ("MPGraph on_access", on_access_s),
        ("engine outside on_access", secs("sim.replay") - on_access_s),
    ];
    let busy_s = busy / 1e9;
    out.notes.push(format!(
        "stage split of {busy_s:.3} s worker busy time: {}",
        split
            .iter()
            .map(|(name, s)| format!("{name} {:.2}%", 100.0 * ratio(*s, busy_s)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut spans_all = main_rec.into_spans();
    spans_all.extend(all);
    out.notes.extend(spans::summary_lines(&spans_all));
    let path = crate::spans_path(args);
    match spans::write_json(&path, env, &spans_all) {
        Ok(()) => out.notes.push(format!("spans: {}", path.display())),
        Err(e) => out.fail(0, format!("cannot write spans to {}: {e}", path.display())),
    }
    out.notes.push(format!(
        "replay-quick traced: untraced matrix {untraced_wall:.3} s, traced matrix {traced_wall:.3} s"
    ));
}
