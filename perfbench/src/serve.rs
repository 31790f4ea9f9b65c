//! The two serve workloads: 8 streams through one `PrefetchService`,
//! driven open-loop on the service's simulated clock.
//!
//! - `serve-fused`: the f32 model from `LoadgenSetup::prepare`, all streams
//!   replaying the same record sequence in lockstep at 1x saturation, so
//!   the fused (BxTxd) pump batches and deduplicates across streams.
//! - `serve-int8-overload`: the distilled int8 student
//!   (`LoadgenSetup::quantize`), streams at offset cursors, Zipf(1)
//!   arrivals at 2x saturation, so the overload ladder sheds to the
//!   Best-Offset fallback and fused batches stay small.
//!
//! The schedule advances one tick per `pump` no matter how long the host
//! takes, so host speed shows only in the host-time figures; every latency
//! is in service cycles. A run repeats identical episodes (a fresh service
//! each) until `--seconds` is spent.

use crate::refkernel::RefKernel;
use crate::spans::{self, Recorder};
use crate::stats::{median, p50_p99, percentile, ratio};
use crate::{Args, Outcome};
use mpgraph_bench::serve_load::{saturation_rate, zipf_weights, LoadgenSetup};
use mpgraph_bench::ExpScale;
use mpgraph_core::{MpGraphPrefetcher, Prediction, PrefetchService, ServeConfig, ServeMetrics};
use mpgraph_ml::ScratchArena;
use mpgraph_sim::LlcAccess;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fused,
    Int8Overload,
}

const STREAMS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A candidate is useful when its stream demands it within this many of
/// the stream's own next accesses; an access is covered when a candidate
/// for it was emitted at most this many stream accesses earlier.
const WINDOW: u32 = 32;
/// Direct forward timings on the served model.
const PROBE_WINDOWS: usize = 1_000;
/// Ticks between reference-kernel samples in an untraced episode.
const REFERENCE_EVERY: u64 = 20;

impl Kind {
    /// Pump ticks per episode, sized for a few host seconds each. In
    /// lockstep every stream replays the whole record sequence exactly
    /// twice, so where the seed starts the cursor does not change how much
    /// of each phase an episode covers.
    fn ticks(self, records: usize, saturation: usize) -> u64 {
        match self {
            Kind::Fused => (2 * records * STREAMS).div_ceil(saturation) as u64,
            Kind::Int8Overload => 1_000,
        }
    }
}

/// One repetition of the set-up: train (and for int8, distill + quantize).
struct Prepared {
    setup: LoadgenSetup,
    train_s: f64,
    quantize_s: f64,
}

fn prepare(kind: Kind, scale: &ExpScale, rec: &mut Recorder) -> Prepared {
    let (mut setup, train_s) = rec.time_s("setup.train", || LoadgenSetup::prepare(scale));
    let quantize_s = match kind {
        Kind::Int8Overload => {
            rec.time_s("setup.distill_quantize", || setup.quantize(scale))
                .1
        }
        Kind::Fused => 0.0,
    };
    Prepared {
        setup,
        train_s,
        quantize_s,
    }
}

fn access_of(r: &mpgraph_frameworks::MemRecord) -> LlcAccess {
    LlcAccess {
        pc: r.pc,
        block: r.block(),
        core: r.core,
        is_write: r.is_write,
        hit: false,
        cycle: 0,
    }
}

/// Everything one episode produced.
struct Episode {
    /// Length of the replayed record sequence: each stream's first pass
    /// over it is warm-up and stays out of the quality figures.
    warmup: u32,
    ticks: u64,
    offered: u64,
    out: Vec<Prediction>,
    /// Per prediction: how many accesses its stream had ingested when the
    /// prediction was returned (the index of the stream's next access).
    emit_pos: Vec<u32>,
    /// Per stream: the blocks it ingested, in order.
    blocks: Vec<Vec<u64>>,
    /// Host seconds of the drive loop, reference samples excluded.
    wall_s: f64,
    /// Reference-kernel samples taken between ticks (seconds each).
    reference_s: Vec<f64>,
    metrics: ServeMetrics,
    ingest_ns: Vec<u64>,
    pump_ns: Vec<u64>,
}

impl Episode {
    /// Hash of every prediction, to compare episodes exactly.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for p in &self.out {
            (p.stream, &p.candidates, p.latency, p.via_fallback, p.phase).hash(&mut h);
        }
        h.finish()
    }
}

/// The service plus what the drive loop records about its input.
struct Feed {
    svc: PrefetchService,
    blocks: Vec<Vec<u64>>,
    offered: u64,
    timed: bool,
    ingest_ns: Vec<u64>,
}

impl Feed {
    fn ingest(&mut self, s: usize, r: &mpgraph_frameworks::MemRecord) {
        let a = access_of(r);
        self.blocks[s].push(a.block);
        self.offered += 1;
        if self.timed {
            let t = Instant::now();
            self.svc.ingest(s as u32, &a, 0);
            self.ingest_ns.push(t.elapsed().as_nanos() as u64);
        } else {
            self.svc.ingest(s as u32, &a, 0);
        }
    }

    /// Appends each new prediction's emission position.
    fn note_emitted(&self, new: &[Prediction], emit_pos: &mut Vec<u32>) {
        emit_pos.extend(
            new.iter()
                .map(|p| self.blocks[p.stream as usize].len() as u32),
        );
    }
}

/// Drives one fresh service for [`Kind::ticks`] ticks. With a recorder,
/// every `ingest` is timed and every `pump` is a span. With a reference
/// kernel, it is sampled every [`REFERENCE_EVERY`] ticks, off the clock.
fn episode(
    kind: Kind,
    setup: &LoadgenSetup,
    seed: u64,
    mut rec: Option<&mut Recorder>,
    mut reference: Option<&mut RefKernel>,
) -> Episode {
    let cfg = ServeConfig::default();
    let mut svc = PrefetchService::new(cfg);
    for s in 0..STREAMS {
        svc.register_stream(s as u32, setup.stream_prefetcher());
    }
    let mut d = Feed {
        svc,
        blocks: vec![Vec::new(); STREAMS],
        offered: 0,
        timed: rec.is_some(),
        ingest_ns: Vec::new(),
    };
    let records = setup.accesses();
    let len = records.len();
    let start = (seed as usize).wrapping_mul(7_919) % len;
    let saturation = saturation_rate(&cfg);
    let weights = zipf_weights(STREAMS);
    // Lockstep streams share cursor 0; offset streams each keep their own,
    // spread evenly over the record sequence from the seed's start.
    let mut cursors: Vec<usize> = (0..STREAMS)
        .map(|s| match kind {
            Kind::Fused => start,
            Kind::Int8Overload => (start + s * len / STREAMS) % len,
        })
        .collect();
    let mut credit = [0.0f64; STREAMS];
    let mut next_stream = 0usize;
    let mut out = Vec::new();
    let mut emit_pos = Vec::new();
    let mut pump_ns = Vec::new();
    let drive = rec.as_deref_mut().map(|r| r.begin("serve.drive"));

    let ticks = kind.ticks(len, saturation);
    let mut reference_s = Vec::new();
    let mut paused = Duration::ZERO;
    let started = Instant::now();
    for tick in 0..ticks {
        if let Some(k) = reference.as_deref_mut() {
            if tick % REFERENCE_EVERY == 0 {
                let t = Instant::now();
                reference_s.push(k.sample_s());
                paused += t.elapsed();
            }
        }
        match kind {
            Kind::Fused => {
                for _ in 0..saturation {
                    let s = next_stream % STREAMS;
                    next_stream += 1;
                    d.ingest(s, &records[cursors[0]]);
                    // Advance once per full round: every stream sees
                    // every record.
                    if s == STREAMS - 1 {
                        cursors[0] = (cursors[0] + 1) % len;
                    }
                }
            }
            Kind::Int8Overload => {
                let rate = 2 * saturation;
                for s in 0..STREAMS {
                    credit[s] += rate as f64 * weights[s];
                    while credit[s] >= 1.0 {
                        credit[s] -= 1.0;
                        d.ingest(s, &records[cursors[s]]);
                        cursors[s] = (cursors[s] + 1) % len;
                    }
                }
            }
        }
        let before = out.len();
        match rec.as_deref_mut() {
            Some(r) => {
                let span = r.begin("serve.pump");
                let t = Instant::now();
                d.svc.pump(&mut out);
                pump_ns.push(t.elapsed().as_nanos() as u64);
                r.end(span);
            }
            None => {
                d.svc.pump(&mut out);
            }
        }
        d.note_emitted(&out[before..], &mut emit_pos);
    }
    let before = out.len();
    d.svc.flush(&mut out);
    let wall_s = (started.elapsed() - paused).as_secs_f64();
    d.note_emitted(&out[before..], &mut emit_pos);
    if let (Some(r), Some(span)) = (rec, drive) {
        r.charge(span, d.ingest_ns.iter().sum());
        r.end(span);
    }
    Episode {
        warmup: len as u32,
        ticks,
        offered: d.offered,
        metrics: d.svc.metrics(),
        out,
        emit_pos,
        blocks: d.blocks,
        wall_s,
        reference_s,
        ingest_ns: d.ingest_ns,
        pump_ns,
    }
}

/// Windowed prefetch quality of the served predictions, ML and fallback
/// alike: (accuracy, coverage) as defined at [`WINDOW`].
fn quality(e: &Episode) -> (f64, f64) {
    // Per stream: block -> ascending positions where the stream demanded
    // it, and block -> ascending positions where a prediction named it.
    let mut demanded: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); STREAMS];
    for (s, blocks) in e.blocks.iter().enumerate() {
        for (i, &b) in blocks.iter().enumerate() {
            demanded[s].entry(b).or_default().push(i as u32);
        }
    }
    let mut named: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); STREAMS];
    let (mut issued, mut useful) = (0u64, 0u64);
    for (p, &pos) in e.out.iter().zip(&e.emit_pos) {
        let s = p.stream as usize;
        for &c in &p.candidates {
            named[s].entry(c).or_default().push(pos);
            if pos < e.warmup {
                continue;
            }
            issued += 1;
            if let Some(at) = demanded[s].get(&c) {
                let next = at.partition_point(|&i| i < pos);
                if at.get(next).is_some_and(|&i| i < pos + WINDOW) {
                    useful += 1;
                }
            }
        }
    }
    let (mut accesses, mut covered) = (0u64, 0u64);
    for (s, blocks) in e.blocks.iter().enumerate() {
        for (i, b) in blocks.iter().enumerate().skip(e.warmup as usize) {
            let i = i as u32;
            accesses += 1;
            if let Some(at) = named[s].get(b) {
                let upto = at.partition_point(|&p| p <= i);
                if upto > 0 && at[upto - 1] + WINDOW > i {
                    covered += 1;
                }
            }
        }
    }
    (
        ratio(useful as f64, issued as f64),
        ratio(covered as f64, accesses as f64),
    )
}

/// Correctness checks on one episode: every access answered, and in
/// lockstep every stream given the same candidates for each record.
fn check(kind: Kind, e: &Episode, out: &mut Outcome) {
    out.attempted += e.offered;
    let answered = e.out.len() as u64;
    if answered != e.offered {
        out.fail(
            e.offered.abs_diff(answered),
            format!("{answered} predictions for {} accesses", e.offered),
        );
    }
    if kind == Kind::Fused {
        let mut per_stream: Vec<Vec<&Vec<u64>>> = vec![Vec::new(); STREAMS];
        for p in &e.out {
            per_stream[p.stream as usize].push(&p.candidates);
        }
        let longest = per_stream.iter().map(Vec::len).max().unwrap_or(0);
        let mismatched = (0..longest)
            .filter(|&j| {
                let first = per_stream[0].get(j);
                per_stream.iter().any(|l| l.get(j) != first)
            })
            .count();
        if mismatched > 0 {
            out.fail(
                mismatched as u64 * STREAMS as u64,
                format!("{mismatched} lockstep records got differing candidates across streams"),
            );
        }
    }
}

/// ML-served admission-to-prediction latencies (service cycles), sorted.
fn ml_latencies(e: &Episode) -> Vec<u64> {
    let mut l: Vec<u64> = e
        .out
        .iter()
        .filter(|p| !p.via_fallback)
        .map(|p| p.latency)
        .collect();
    l.sort_unstable();
    l
}

pub fn run(args: &Args, env: &[(&'static str, String)], kind: Kind) -> Outcome {
    // The served model trains with the quick scale's fixed seed: the seed
    // argument moves the streams' cursors, not the model.
    let scale = ExpScale::quick();
    let mut out = Outcome::default();
    let mut rec = Recorder::new(Instant::now(), 0, None);
    let mut reps: Vec<Prepared> = (0..SETUP_REPS)
        .map(|_| prepare(kind, &scale, &mut rec))
        .collect();
    let totals: Vec<f64> = reps.iter().map(|p| p.train_s + p.quantize_s).collect();
    out.set("setup_s", median(&totals));
    let train: Vec<f64> = reps.iter().map(|p| p.train_s).collect();
    let quant: Vec<f64> = reps.iter().map(|p| p.quantize_s).collect();
    out.set("setup.train_s", median(&train));
    out.set("setup.distill_quantize_s", median(&quant));
    let setup = reps.pop().expect("at least one set-up").setup;

    if args.trace {
        traced(args, env, kind, &setup, scale.train.history, rec, &mut out);
    } else {
        untraced(args, kind, &setup, &mut out);
    }
    out.notes.push(format!(
        "{}: open loop on the simulated service clock; the host never throttles the \
         schedule, so host speed shows only in wall_norm and the host-time notes",
        args.workload
    ));
    out
}

fn untraced(args: &Args, kind: Kind, setup: &LoadgenSetup, out: &mut Outcome) {
    let started = Instant::now();
    let mut first: Option<(u64, Episode)> = None;
    let (mut walls, mut references, mut norms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kernel = RefKernel::new();
    loop {
        let e = episode(kind, setup, args.seed, None, Some(&mut kernel));
        check(kind, &e, out);
        walls.push(e.wall_s);
        // Each episode against the kernel's median over the same stretch.
        let reference = median(&e.reference_s);
        references.push(reference);
        norms.push(ratio(e.wall_s, reference));
        let print = e.fingerprint();
        match &first {
            None => first = Some((print, e)),
            Some((p0, _)) if *p0 != print => out.fail(
                e.offered,
                "episode differs from the run's first episode".into(),
            ),
            Some(_) => {}
        }
        if started.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    let Some((_, e)) = first else { return };
    let (accuracy, coverage) = quality(&e);
    let lat = ml_latencies(&e);
    out.set("wall_norm", median(&norms));
    out.set("accuracy", accuracy);
    out.set("coverage", coverage);
    out.set(
        "ml_served_fraction",
        ratio(e.metrics.ml_processed as f64, e.offered as f64),
    );
    out.set(
        "mean_latency_cycles",
        ratio(lat.iter().sum::<u64>() as f64, lat.len() as f64),
    );
    out.set("p99_latency_cycles", percentile(&lat, 0.99) as f64);
    out.notes.push(format!(
        "{}: {} episode(s) of {} ticks, {} accesses each over {STREAMS} streams; \
         {} ML-served latency samples; episode wall {:?} s (median {:.4} s = {:.0} \
         accesses/s); reference kernel median {:.2} us",
        args.workload,
        walls.len(),
        e.ticks,
        e.offered,
        lat.len(),
        crate::stats::millis(&walls),
        median(&walls),
        ratio(e.offered as f64, median(&walls)),
        median(&references) * 1e6,
    ));
}

/// Single delta and page forwards of the served model on windows of the
/// served record sequence.
fn probe_forwards(setup: &LoadgenSetup, history: usize) -> (Vec<u64>, Vec<u64>) {
    let pf = setup.stream_prefetcher();
    let Some(mp) = pf
        .as_any()
        .and_then(|a| a.downcast_ref::<MpGraphPrefetcher>())
    else {
        return (Vec::new(), Vec::new());
    };
    let records = setup.accesses();
    let (mut delta_ns, mut page_ns) = (Vec::new(), Vec::new());
    if records.len() <= history {
        return (delta_ns, page_ns);
    }
    let phases = setup.num_phases.max(1);
    let step = ((records.len() - history) / PROBE_WINDOWS).max(1);
    let mut arena = ScratchArena::new();
    for (n, end) in (history..records.len())
        .step_by(step)
        .take(PROBE_WINDOWS)
        .enumerate()
    {
        let window = &records[end - history..end];
        let blocks: Vec<(u64, u64)> = window.iter().map(|r| (r.block(), r.pc)).collect();
        let pages: Vec<(usize, u64)> = window
            .iter()
            .map(|r| (mp.page.vocab.token_of(r.page()), r.pc))
            .collect();
        let phase = n % phases;
        let t = Instant::now();
        std::hint::black_box(mp.delta.predict_deltas_in(
            std::hint::black_box(&blocks),
            phase,
            mp.cfg.cstp.spatial_degree,
            &mut arena,
        ));
        delta_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(mp.page.predict_pages_in(
            std::hint::black_box(&pages),
            phase,
            1,
            &mut arena,
        ));
        page_ns.push(t.elapsed().as_nanos() as u64);
    }
    (delta_ns, page_ns)
}

fn traced(
    args: &Args,
    env: &[(&'static str, String)],
    kind: Kind,
    setup: &LoadgenSetup,
    history: usize,
    mut rec: Recorder,
    out: &mut Outcome,
) {
    let reference = episode(kind, setup, args.seed, None, None);
    check(kind, &reference, out);
    let mut e = episode(kind, setup, args.seed, Some(&mut rec), None);
    check(kind, &e, out);
    if e.fingerprint() != reference.fingerprint() {
        out.fail(
            e.offered,
            "traced episode differs from the untraced one".into(),
        );
    }
    let (mut delta_ns, mut page_ns) = rec.time("probes", || probe_forwards(setup, history));

    let m = &e.metrics;
    let (p50, p99) = p50_p99(&mut e.ingest_ns);
    out.set("serve.ingest_ns.p50", p50);
    out.set("serve.ingest_ns.p99", p99);
    let pump_s = e.pump_ns.iter().sum::<u64>() as f64 / 1e9;
    let ingest_s = e.ingest_ns.iter().sum::<u64>() as f64 / 1e9;
    let (p50, p99) = p50_p99(&mut e.pump_ns);
    out.set("serve.pump_ns.p50", p50);
    out.set("serve.pump_ns.p99", p99);
    out.set("serve.pump_s", pump_s);
    out.set("serve.fused_batches", m.fused_batches as f64);
    out.set("serve.fused_items", m.fused_items as f64);
    out.set("serve.fused_forwards", m.fused_forwards as f64);
    out.set(
        "serve.items_per_forward",
        ratio(m.fused_items as f64, m.fused_forwards as f64),
    );
    out.set("serve.ml_processed", m.ml_processed as f64);
    out.set("serve.fallback_processed", m.fallback_processed as f64);
    out.set("serve.max_queue_depth", m.max_queue_depth as f64);
    out.set("serve.escalations", m.escalations as f64);
    out.set("serve.deferred", m.deferred_fallback_processed as f64);
    let (p50, p99) = p50_p99(&mut delta_ns);
    out.set("ml.delta_forward_ns.p50", p50);
    out.set("ml.delta_forward_ns.p99", p99);
    let (p50, p99) = p50_p99(&mut page_ns);
    out.set("ml.page_forward_ns.p50", p50);
    out.set("ml.page_forward_ns.p99", p99);
    out.set(
        "trace.overhead_pct",
        100.0 * (e.wall_s - reference.wall_s) / reference.wall_s,
    );
    let attributed = ratio(ingest_s + pump_s, e.wall_s);
    out.set("trace.attributed_fraction", attributed);
    if attributed < 0.9 {
        out.fail(
            0,
            format!(
                "ingest + pump cover {:.1}% of the drive loop (< 90%)",
                attributed * 100.0
            ),
        );
    }

    let spans = rec.into_spans();
    out.notes.extend(spans::summary_lines(&spans));
    let path = crate::spans_path(args);
    match spans::write_json(&path, env, &spans) {
        Ok(()) => out.notes.push(format!("spans: {}", path.display())),
        Err(e) => out.fail(0, format!("cannot write spans to {}: {e}", path.display())),
    }
    out.notes.push(format!(
        "{} traced: untraced episode {:.3} s, traced episode {:.3} s",
        args.workload, reference.wall_s, e.wall_s
    ));
}
