//! The complete MPGraph prefetcher (Figure 4): phase-transition detector +
//! phase-specific multi-modality predictors + chain spatio-temporal
//! prefetching controller, implementing [`mpgraph_sim::Prefetcher`] so it
//! drops into the simulator exactly where BO/ISB/Voyager/TransFetch do.

use crate::controller::Controller;
use crate::cstp::{
    chain_prefetch_fused, CstpConfig, CstpStats, FusedChainItem, FusedChainResult, Pbot,
    PbotLookup, PbotTimeline,
};
use crate::delta_predictor::{DeltaPredictor, DeltaPredictorConfig};
use crate::error::MpGraphError;
use crate::page_predictor::{PagePredictor, PagePredictorConfig};
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::ScratchArena;
use mpgraph_phase::{
    build_training_set, DecisionTree, DtDetector, Kswin, KswinConfig, SoftDtDetector, SoftKswin,
    TransitionDetector,
};
use mpgraph_prefetchers::mlcommon::History;
use mpgraph_prefetchers::TrainCfg;
use mpgraph_sim::{LlcAccess, PrefetchTag, Prefetcher, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Announced LLC accesses planned per look-ahead window (DESIGN.md §19).
/// Each window's model forwards run fused and deduplicated; a larger
/// window finds more repeats and fuller batches but plans further ahead
/// of the engine. Chosen by measurement on the quick matrix.
pub const LOOKAHEAD_WINDOW: usize = 256;

/// Steps between [`mpgraph_ml::TrainGuard`] weight checkpoints in the
/// predictor training loops: frequent enough that a rollback loses little
/// progress, rare enough that cloning the (small, Table 5-sized) weights
/// stays off the profile.
pub const TRAIN_CHECKPOINT_INTERVAL: usize = 32;

/// Which phase-transition detector drives the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorChoice {
    /// Unsupervised Soft-KSWIN (phase labels inaccessible, §4.2.1).
    SoftKswin,
    /// Supervised Soft-DT trained offline on labelled PCs (§4.2.2).
    SoftDt,
    /// Hard baselines, for ablations.
    Kswin,
    Dt,
}

/// Full MPGraph configuration.
#[derive(Debug, Clone, Copy)]
pub struct MpGraphConfig {
    pub delta: DeltaPredictorConfig,
    pub page: PagePredictorConfig,
    pub cstp: CstpConfig,
    pub detector: DetectorChoice,
    /// Variant for both predictors (the full system uses AMMA-PS).
    pub variant: Variant,
    /// Accesses monitored after a transition before a model is selected.
    pub probe_window: usize,
    /// PBOT entries.
    pub pbot_capacity: usize,
    /// Inference latency injected by the simulator (Eq. 12 estimate; 0 in
    /// the main Figure 10-12 runs, swept in Figure 14).
    pub latency: u64,
}

impl Default for MpGraphConfig {
    fn default() -> Self {
        MpGraphConfig {
            delta: DeltaPredictorConfig::default(),
            page: PagePredictorConfig::default(),
            cstp: CstpConfig::default(),
            detector: DetectorChoice::SoftDt,
            variant: Variant::AmmaPs,
            probe_window: 32,
            pbot_capacity: 4096,
            latency: 0,
        }
    }
}

impl MpGraphConfig {
    /// Validates the configuration, returning it unchanged when sound.
    /// Catches the degenerate values that would otherwise surface as
    /// panics or silent misbehaviour deep inside training or replay.
    pub fn try_new(self) -> Result<Self, MpGraphError> {
        if self.probe_window == 0 {
            return Err(MpGraphError::config("mpgraph", "probe_window must be > 0"));
        }
        if self.pbot_capacity == 0 {
            return Err(MpGraphError::config("mpgraph", "pbot_capacity must be > 0"));
        }
        if self.delta.segments == 0 {
            return Err(MpGraphError::config(
                "mpgraph",
                "delta.segments must be > 0",
            ));
        }
        if self.delta.delta_range == 0 {
            return Err(MpGraphError::config(
                "mpgraph",
                "delta.delta_range must be > 0",
            ));
        }
        if !(0.0..=1.0).contains(&self.delta.threshold) {
            return Err(MpGraphError::config(
                "mpgraph",
                format!(
                    "delta.threshold must be in [0, 1], got {}",
                    self.delta.threshold
                ),
            ));
        }
        if self.page.page_vocab == 0 {
            return Err(MpGraphError::config(
                "mpgraph",
                "page.page_vocab must be > 0",
            ));
        }
        Ok(self)
    }
}

/// The deployed prefetcher.
pub struct MpGraphPrefetcher {
    pub cfg: MpGraphConfig,
    pub delta: DeltaPredictor,
    pub page: PagePredictor,
    detector: Box<dyn TransitionDetector + Send>,
    controller: Controller,
    pbot: Pbot,
    block_hist: History<(u64, u64)>,
    /// Per-core page histories (the temporal stream is core-local).
    page_hists: Vec<History<(usize, u64)>>,
    num_phases: usize,
    /// Distance prefetching (§6.2): skip the next `dp_distance` predicted
    /// deltas/pages by offsetting the spatial predictions one step ahead.
    /// 0 disables. Implemented as doubling the predicted deltas' reach.
    pub dp_distance: i64,
    /// Malformed prediction batches the controller rejected (each one is
    /// dropped and replay continues — introspection for health reports).
    pub observe_errors: u64,
    /// Rolling CSTP counters (chain lengths, PBOT hit rate, duplicates
    /// suppressed), folded into the pipeline metrics snapshot.
    pub cstp_stats: CstpStats,
    /// Scratch buffers for every forward this prefetcher runs: the probe
    /// forwards and the fused CSTP chains. One arena, kept for the
    /// prefetcher's life, so steady-state inference allocates nothing.
    arena: ScratchArena,
    /// The planned window's PBOT updates, so each chain looks the PBOT up
    /// as it stood right after its own access's update.
    pbot_timeline: PbotTimeline,
    /// Announced LLC accesses not planned yet
    /// ([`Prefetcher::announce_llc_stream`]).
    upcoming: VecDeque<LlcAccess>,
    /// Planned accesses awaiting their `on_access`, in stream order.
    planned: VecDeque<Planned>,
    /// History windows of the planned accesses that run a chain, one
    /// `block_hist.capacity()`-long slot each ([`Planned::slot`]).
    block_windows: Vec<(u64, u64)>,
    /// Page-history windows, parallel to `block_windows`.
    page_windows: Vec<(usize, u64)>,
    /// The phase model selected as of the last *served* access — what
    /// [`Prefetcher::current_phase_id`] reports while the controller runs
    /// ahead on planned accesses.
    served_phase: usize,
    /// Tags the engine reads back via [`Prefetcher::last_batch_tags`].
    tag_scratch: Vec<PrefetchTag>,
    /// Structured trace-event buffering, engine-controlled
    /// ([`Prefetcher::enable_trace_events`]). Off by default; while off
    /// nothing below touches `trace_events`, so untraced runs take the
    /// exact pre-instrumentation path.
    trace_on: bool,
    /// Events from the current `on_access` (reused scratch; the engine
    /// drains it via [`Prefetcher::pending_trace_events`]).
    trace_events: Vec<TraceEvent>,
    /// Whether the first traced access already reported the train-time
    /// rollback summary (training predates the replay clock). Set once per
    /// prefetcher, so a replay cut into segments reports it once.
    trace_started: bool,
    /// Structured rollback events drained from the training-side event
    /// channel ([`crate::TrainEventSink`]) at the end of `train_mpgraph`,
    /// in deterministic (predictor, model, step) order. Empty when the
    /// prefetcher was assembled via [`MpGraphPrefetcher::from_parts`].
    pub train_rollback_events: Vec<crate::obs::TrainRollbackMetrics>,
}

/// One LLC access planned ahead of its `on_access` (DESIGN.md §19): the
/// stages of [`MpGraphPrefetcher::plan_window`] and
/// [`MpGraphPrefetcher::chain_window`] fill it in, and
/// [`MpGraphPrefetcher::serve_planned`] emits it.
#[derive(Debug)]
struct Planned {
    /// (pc, block, core) of the access, checked against the one served.
    key: (u64, u64, u8),
    /// Slot of its history windows when both histories were full — i.e.
    /// when a chain runs for it.
    slot: Option<usize>,
    /// Whether it scores the phase models in a probe window.
    probes: bool,
    /// Whether the detector confirmed a transition on it.
    confirmed: bool,
    /// Phase model selected once it is processed (its chain's phase).
    phase: usize,
    /// Its trace events, in emission order, minus the `CstpChain` summary.
    events: Vec<TraceEvent>,
    /// Its chain's outcome.
    chain: FusedChainResult,
}

/// [`PbotLookup`] for one planned access: moves the window's shared
/// timeline to just after that access's PBOT update, then looks up.
struct PbotAt<'t, 'p> {
    table: &'t RefCell<(&'p mut Pbot, &'p mut PbotTimeline)>,
    after: usize,
}

impl PbotLookup for PbotAt<'_, '_> {
    fn lookup(&self, page: u64) -> Option<(u64, u64)> {
        let mut guard = self.table.borrow_mut();
        let (pbot, timeline) = &mut *guard;
        timeline.seek(pbot, self.after);
        pbot.get(page)
    }
}

/// Shared borrows of one prefetcher's models and chain state, handed to
/// the serving layer so [`crate::cstp::chain_prefetch_fused`] can batch
/// several streams' chains through one set of model forwards. Produced by
/// [`MpGraphPrefetcher::fused_view`] after `begin_access` has updated the
/// histories for the access being served.
pub(crate) struct FusedAccessView<'a> {
    pub delta: &'a crate::delta_predictor::DeltaPredictor,
    pub page: &'a crate::page_predictor::PagePredictor,
    pub pbot: &'a Pbot,
    pub block_hist: &'a [(u64, u64)],
    pub page_hist: &'a [(usize, u64)],
    pub phase: usize,
    pub cstp: CstpConfig,
}

/// Trains the full MPGraph stack on the training records (the first
/// framework iteration, phase labels available offline per Figure 6).
/// The returned prefetcher's models keep their weights only
/// ([`DeltaPredictor::finish_training`]).
pub fn train_mpgraph(
    records: &[MemRecord],
    num_phases: usize,
    cfg: MpGraphConfig,
    tc: &TrainCfg,
) -> MpGraphPrefetcher {
    let sink = crate::TrainEventSink::new();
    let mut delta = DeltaPredictor::train_with_events(
        records,
        num_phases,
        cfg.variant,
        cfg.delta,
        tc,
        Some(&sink),
    );
    delta.finish_training();
    let mut page = PagePredictor::train_with_events(
        records,
        num_phases,
        cfg.variant,
        cfg.page,
        tc,
        Some(&sink),
    );
    page.finish_training();
    let detector = build_detector(records, num_phases, cfg.detector);
    MpGraphPrefetcher {
        train_rollback_events: sink.drain(),
        ..MpGraphPrefetcher::from_parts(delta, page, detector, cfg, num_phases, tc.history)
    }
}

/// Builds (and where supervised, trains) the chosen transition detector.
pub fn build_detector(
    records: &[MemRecord],
    num_phases: usize,
    choice: DetectorChoice,
) -> Box<dyn TransitionDetector + Send> {
    match choice {
        DetectorChoice::SoftKswin => Box::new(SoftKswin::new(KswinConfig::default())),
        DetectorChoice::Kswin => Box::new(Kswin::new(KswinConfig::default())),
        DetectorChoice::SoftDt | DetectorChoice::Dt => {
            let pcs: Vec<u64> = records.iter().map(|r| r.pc).collect();
            let phases: Vec<u8> = records.iter().map(|r| r.phase).collect();
            let window = 8;
            let (xs, ys) = build_training_set(&pcs, &phases, window, 7);
            let tree = DecisionTree::fit(&xs, &ys, num_phases, 8);
            if choice == DetectorChoice::SoftDt {
                Box::new(SoftDtDetector::new(tree, window, 64))
            } else {
                Box::new(DtDetector::new(tree, window))
            }
        }
    }
}

impl MpGraphPrefetcher {
    /// Assembles a prefetcher from already-trained (possibly distilled or
    /// quantized) predictors — the Figure 13/14 compressed configurations.
    /// Their gradients and Adam moments are freed: a prefetcher only
    /// serves.
    pub fn from_parts(
        mut delta: DeltaPredictor,
        mut page: PagePredictor,
        detector: Box<dyn TransitionDetector + Send>,
        cfg: MpGraphConfig,
        num_phases: usize,
        history: usize,
    ) -> Self {
        delta.finish_training();
        page.finish_training();
        MpGraphPrefetcher {
            controller: Controller::new(num_phases, cfg.probe_window),
            pbot: Pbot::new(cfg.pbot_capacity),
            block_hist: History::new(history),
            page_hists: (0..8).map(|_| History::new(history)).collect(),
            delta,
            page,
            detector,
            num_phases,
            dp_distance: 0,
            observe_errors: 0,
            cstp_stats: CstpStats::default(),
            arena: ScratchArena::new(),
            pbot_timeline: PbotTimeline::default(),
            upcoming: VecDeque::new(),
            planned: VecDeque::new(),
            block_windows: Vec::new(),
            page_windows: Vec::new(),
            served_phase: 0,
            tag_scratch: Vec::new(),
            trace_on: false,
            trace_events: Vec::new(),
            trace_started: false,
            train_rollback_events: Vec::new(),
            cfg,
        }
    }

    /// Phase model selected as of the last served access (introspection).
    pub fn current_phase(&self) -> usize {
        self.served_phase
    }

    /// Transitions the controller has acted on.
    pub fn transitions_handled(&self) -> usize {
        self.controller.transitions_handled
    }

    /// Everything the fused serving path needs to run this stream's CSTP
    /// chain *between* [`Self::begin_access`] and
    /// [`Self::apply_fused_chain`]: shared borrows of the models, PBOT and
    /// histories, plus the phase the controller has already selected for
    /// this access. `core` picks the per-core page history, exactly as
    /// `on_access` does.
    pub(crate) fn fused_view(&self, core: u8) -> FusedAccessView<'_> {
        FusedAccessView {
            delta: &self.delta,
            page: &self.page,
            pbot: &self.pbot,
            block_hist: self.block_hist.items(),
            page_hist: self.page_hists[(core as usize) % 8].items(),
            phase: self.controller.current_phase(),
            cstp: self.cfg.cstp,
        }
    }

    /// Batch-compatibility signature: two prefetchers with equal signatures
    /// produce bit-identical inference for identical inputs, so the serving
    /// layer may fuse their accesses into one batched forward. The hash
    /// covers every trainable weight byte of both predictors plus the
    /// inference-relevant configuration (degrees, encoding shape, history
    /// length, vocabulary) — anything that could steer a model call,
    /// including whether each predictor serves its int8 snapshot (a
    /// quantized and an f32 stream must never share a fused forward).
    pub(crate) fn batch_signature(&self) -> u64 {
        fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv1a(h, &self.delta.weight_bytes());
        h = fnv1a(h, &self.page.weight_bytes());
        for scalar in [
            self.cfg.cstp.spatial_degree as u64,
            self.cfg.cstp.temporal_degree as u64,
            self.delta.cfg.segments as u64,
            self.delta.cfg.delta_range as u64,
            u64::from(self.delta.cfg.threshold.to_bits()),
            self.page.cfg.page_vocab as u64,
            self.page.cfg.embed_dim as u64,
            matches!(
                self.page.cfg.head,
                crate::page_predictor::PageHead::BinaryEncoded
            ) as u64,
            self.page.vocab.len() as u64,
            self.block_hist.capacity() as u64,
            self.num_phases as u64,
            self.delta.is_quantized() as u64,
            self.page.is_quantized() as u64,
        ] {
            h = fnv1a(h, &scalar.to_le_bytes());
        }
        h
    }

    /// Switches both predictors to int8 serving: every weight-side matmul
    /// from here on runs through the i8×i8→i32 kernels against a frozen
    /// quantized snapshot of the trained weights. Idempotent; training is
    /// already finished by the time a prefetcher exists, so the snapshot
    /// cannot go stale.
    pub fn quantize(&mut self) {
        self.delta.quantize();
        self.page.quantize();
    }

    /// True when both predictors serve from their int8 snapshots.
    pub fn is_quantized(&self) -> bool {
        self.delta.is_quantized() && self.page.is_quantized()
    }

    /// Commits one stream's share of a fused CSTP batch through the same
    /// epilogue every access takes ([`Self::serve_planned`]): stats merge,
    /// lane attribution, the `CstpChain` trace event, distance-prefetch
    /// shift, and the append to `out`. Must follow the
    /// [`Self::begin_access`] that opened this access, with no other calls
    /// on this prefetcher in between.
    pub(crate) fn apply_fused_chain(
        &mut self,
        a: &LlcAccess,
        res: FusedChainResult,
        out: &mut Vec<u64>,
    ) {
        if let Some(p) = self.planned.front_mut() {
            p.chain = res;
        }
        self.serve_planned(a, out);
    }

    /// Folds the counters this prefetcher owns — CSTP, detector,
    /// controller, predictor training — into a snapshot produced by a
    /// [`crate::obs::PrefetchScoreboard`]. The caller adds guard metrics
    /// separately when a degradation wrapper is in play.
    pub fn enrich_snapshot(&self, snap: &mut crate::obs::MetricsSnapshot) {
        snap.cstp = crate::obs::CstpMetrics::from(&self.cstp_stats);
        snap.detector =
            crate::obs::DetectorMetrics::from_stats(self.detector.name(), &self.detector.stats());
        snap.controller = crate::obs::ControllerMetrics {
            transitions_handled: self.controller.transitions_handled as u64,
            observations: self.controller.observations,
            observe_errors: self.observe_errors,
        };
        snap.training = crate::obs::TrainMetrics {
            steps: self.delta.train_steps + self.page.train_steps,
            rollbacks: self.delta.train_rollbacks + self.page.train_rollbacks,
            rollback_events: self.train_rollback_events.clone(),
        };
    }
}

impl Prefetcher for MpGraphPrefetcher {
    fn name(&self) -> String {
        "MPGraph".into()
    }

    fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// MPGraph's predictions come off a model-inference path, so injected
    /// inference stalls are paid in full (a degradation wrapper can shed
    /// them — see `degradation::DegradationGuard`).
    fn effective_latency(&mut self, injected_stall: u64) -> u64 {
        self.cfg.latency + injected_stall
    }

    fn last_batch_tags(&self) -> &[PrefetchTag] {
        &self.tag_scratch
    }

    fn current_phase_id(&self) -> u8 {
        self.served_phase as u8
    }

    fn enable_trace_events(&mut self, on: bool) {
        self.trace_on = on;
        self.trace_events.clear();
    }

    fn announce_llc_stream(&mut self, upcoming: &[MemRecord]) {
        self.upcoming.extend(upcoming.iter().map(|r| LlcAccess {
            pc: r.pc,
            block: r.block(),
            core: r.core,
            is_write: r.is_write,
            hit: false,
            cycle: 0,
        }));
    }

    fn pending_trace_events(&self) -> &[TraceEvent] {
        &self.trace_events
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// Serves the next planned access, planning a window first when none
    /// is queued: the next [`LOOKAHEAD_WINDOW`] announced accesses, or —
    /// with nothing announced — this access alone. Both run the same
    /// staged code (DESIGN.md §19); inference never reads `hit` or `cycle`,
    /// so planning ahead changes no output.
    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        if self.planned.is_empty() {
            let window: Vec<LlcAccess> = if self.upcoming.is_empty() {
                vec![*a]
            } else {
                let n = LOOKAHEAD_WINDOW.min(self.upcoming.len());
                self.upcoming.drain(..n).collect()
            };
            self.plan_window(&window);
            self.chain_window();
        }
        self.serve_planned(a, out);
    }
}

impl MpGraphPrefetcher {
    /// Opens one access for the serving layer, which runs its chain fused
    /// with other streams' between this call and
    /// [`Self::apply_fused_chain`]: stages a–b of a one-access window.
    /// Returns whether a chain should run (the histories are full); when
    /// not, the access is already served.
    pub(crate) fn begin_access(&mut self, a: &LlcAccess) -> bool {
        self.plan_window(std::slice::from_ref(a));
        let ready = self.planned.back().is_some_and(|p| p.slot.is_some());
        if ready {
            self.served_phase = self.controller.current_phase();
        } else {
            self.serve_planned(a, &mut Vec::new());
        }
        ready
    }

    /// Stages a and b of the look-ahead replay over `window`, queueing one
    /// [`Planned`] per access. Stage a takes the sequential cheap state
    /// access by access — detector, histories, PBOT updates (through the
    /// timeline) — and decides which accesses probe, which depends only on
    /// detector confirmations and full histories, never on probe outputs.
    /// Stage b batches the probe forwards per phase model, then re-drives
    /// the controller in access order to fix each access's phase.
    fn plan_window(&mut self, window: &[LlcAccess]) {
        debug_assert!(self.planned.is_empty(), "previous window not served");
        self.pbot_timeline.reset();
        self.block_windows.clear();
        self.page_windows.clear();
        let mut slots = 0;
        let mut probes_left = self.controller.probes_remaining();
        for a in window {
            let mut events = Vec::new();
            if self.trace_on && !self.trace_started {
                // Training happened before the replay clock existed, so
                // its rollback summary is stamped on the first traced
                // access (DESIGN.md §13).
                self.trace_started = true;
                events.push(TraceEvent::TrainRollback {
                    count: self.delta.train_rollbacks + self.page.train_rollbacks,
                });
            }
            // Phase detection on the PC stream. When tracing, soft-detector
            // arms are derived from the stats delta so all four detector
            // implementations report them without individual instrumentation.
            let prev_soft_arms = if self.trace_on {
                self.detector.stats().soft_arms
            } else {
                0
            };
            let confirmed = self.detector.update(a.pc);
            if self.trace_on && self.detector.stats().soft_arms > prev_soft_arms {
                events.push(TraceEvent::PhaseArmed);
            }
            self.block_hist.push((a.block, a.pc));
            let page_hist = &mut self.page_hists[(a.core as usize) % 8];
            page_hist.push((self.page.vocab.token_of(a.page()), a.pc));
            self.pbot_timeline
                .push(&mut self.pbot, a.page(), a.offset(), a.pc);
            let slot = (self.block_hist.is_full() && page_hist.is_full()).then(|| {
                self.block_windows
                    .extend_from_slice(self.block_hist.items());
                self.page_windows.extend_from_slice(page_hist.items());
                slots += 1;
                slots - 1
            });
            if confirmed {
                probes_left = self.controller.probe_window();
            }
            let probes = slot.is_some() && probes_left > 0;
            if probes {
                probes_left -= 1;
            }
            self.planned.push_back(Planned {
                key: (a.pc, a.block, a.core),
                slot,
                probes,
                confirmed,
                phase: 0,
                events,
                chain: FusedChainResult::default(),
            });
        }

        // Stage b. During a probe window every phase model's predictions
        // are scored against the demand stream: per phase model, one
        // batched forward over all of the window's probing accesses.
        let bt = self.block_hist.capacity();
        let probing: Vec<(&[(u64, u64)], u64)> = self
            .planned
            .iter()
            .filter(|p| p.probes)
            .filter_map(|p| Some((&self.block_windows[p.slot? * bt..][..bt], p.key.1)))
            .collect();
        let hists: Vec<&[(u64, u64)]> = probing.iter().map(|&(h, _)| h).collect();
        let mut per_phase: Vec<Vec<Vec<u64>>> = Vec::new();
        if !probing.is_empty() {
            for phase in 0..self.num_phases {
                let ds = self.delta.predict_deltas_batch_in(
                    &hists,
                    phase,
                    self.cfg.cstp.spatial_degree,
                    &mut self.arena,
                );
                per_phase.push(
                    ds.into_iter()
                        .zip(&probing)
                        .map(|(ds, &(_, block))| {
                            ds.into_iter()
                                .filter_map(|d| {
                                    let t = block as i64 + d;
                                    (t >= 0).then_some(t as u64)
                                })
                                .collect()
                        })
                        .collect(),
                );
            }
        }
        let mut next_probe = 0;
        for p in self.planned.iter_mut() {
            if p.confirmed {
                if self.trace_on {
                    p.events.push(TraceEvent::PhaseConfirmed {
                        prev_phase: self.controller.current_phase() as u8,
                    });
                }
                self.controller.on_transition();
            }
            debug_assert_eq!(p.probes, p.slot.is_some() && self.controller.probing());
            if p.probes {
                let preds: Vec<Vec<u64>> = per_phase
                    .iter_mut()
                    .map(|ph| std::mem::take(&mut ph[next_probe]))
                    .collect();
                next_probe += 1;
                match self.controller.observe(p.key.1, &preds) {
                    Ok(Some(_)) => {
                        // Probe window complete: a phase model was selected.
                        if self.trace_on {
                            p.events.push(TraceEvent::PhaseSelected {
                                phase: self.controller.current_phase() as u8,
                            });
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        // Malformed batch (possible only if predictor and
                        // controller shapes drift): drop it, keep replaying.
                        self.observe_errors += 1;
                    }
                }
            }
            p.phase = self.controller.current_phase();
        }
    }

    /// Stage c: the planned window's CSTP chains, grouped by phase and run
    /// through [`chain_prefetch_fused`] — fused, deduplicated forwards
    /// whose rows each depend on their own inputs alone. Every chain's
    /// PBOT lookups see the table as it stood right after its own access's
    /// update; the table ends the window fully updated.
    fn chain_window(&mut self) {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, p) in self.planned.iter().enumerate() {
            if p.slot.is_none() {
                continue;
            }
            match groups.iter_mut().find(|(phase, _)| *phase == p.phase) {
                Some((_, members)) => members.push(i),
                None => groups.push((p.phase, vec![i])),
            }
        }
        let (bt, pt) = (self.block_hist.capacity(), self.page_hists[0].capacity());
        let end = self.pbot_timeline.len();
        let table = RefCell::new((&mut self.pbot, &mut self.pbot_timeline));
        let mut forwards = 0u64;
        for (phase, members) in &groups {
            let lookups: Vec<PbotAt<'_, '_>> = members
                .iter()
                .map(|&i| PbotAt {
                    table: &table,
                    after: i + 1,
                })
                .collect();
            let items: Vec<FusedChainItem<'_>> = members
                .iter()
                .zip(&lookups)
                .filter_map(|(&i, pbot)| {
                    let s = self.planned[i].slot?;
                    Some(FusedChainItem {
                        pbot,
                        block_hist: &self.block_windows[s * bt..][..bt],
                        page_hist: &self.page_windows[s * pt..][..pt],
                    })
                })
                .collect();
            let results = chain_prefetch_fused(
                &self.delta,
                &self.page,
                &items,
                *phase,
                &self.cfg.cstp,
                &mut self.arena,
                &mut forwards,
            );
            for (&i, r) in members.iter().zip(results) {
                self.planned[i].chain = r;
            }
        }
        let (pbot, timeline) = table.into_inner();
        timeline.seek(pbot, end);
    }

    /// Stage d: pops the next planned access and emits it — its trace
    /// events, the `CstpChain` summary, stats, lane tags, distance shift
    /// and candidates. `a` must be the access it was planned for.
    fn serve_planned(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        let Some(mut p) = self.planned.pop_front() else {
            return;
        };
        assert_eq!(
            p.key,
            (a.pc, a.block, a.core),
            "MPGraph was served an access other than the one announced next"
        );
        self.tag_scratch.clear();
        self.trace_events.clear();
        self.trace_events.append(&mut p.events);
        self.served_phase = p.phase;
        if p.slot.is_none() {
            return;
        }
        let FusedChainResult {
            mut batch,
            lanes,
            stats,
        } = p.chain;
        if self.trace_on && stats.chain_steps | stats.pbot_hits | stats.pbot_misses != 0 {
            self.trace_events.push(TraceEvent::CstpChain {
                steps: stats.chain_steps.min(255) as u8,
                pbot_hits: stats.pbot_hits.min(255) as u8,
                pbot_misses: stats.pbot_misses.min(255) as u8,
            });
        }
        self.cstp_stats.merge(&stats);
        // The dp_distance shift below rewrites targets but never reorders
        // or drops candidates, so the lane attribution stays aligned.
        self.tag_scratch
            .extend(lanes.iter().map(|&lane| PrefetchTag {
                phase: p.phase as u8,
                lane,
            }));
        if self.dp_distance != 0 {
            // Distance prefetching: project each prediction further ahead
            // to land beyond the inference latency.
            for b in batch.iter_mut() {
                let d = *b as i64 - a.block as i64;
                let shifted = a.block as i64 + d * (1 + self.dp_distance);
                if shifted >= 0 {
                    *b = shifted as u64;
                }
            }
        }
        out.append(&mut batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amma::AmmaConfig;
    use crate::page_predictor::PageHead;

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

    /// Two-phase synthetic workload: phase 0 walks pages 4..12 with +1
    /// block strides, phase 1 cycles widely-spread pages.
    fn workload(reps: usize) -> Vec<MemRecord> {
        let mut v = Vec::new();
        for _ in 0..reps {
            let mut addr = 4 * 4096u64;
            for i in 0..400 {
                v.push(rec(addr, 0x40_0000 + (i % 5) * 4, 0));
                addr += 64;
            }
            for i in 0..400 {
                let page = [50u64, 90, 130, 170][i % 4];
                v.push(rec(
                    page * 4096 + (i % 64) as u64 * 64,
                    0x40_1000 + (i % 5) as u64 * 4,
                    1,
                ));
            }
        }
        v
    }

    fn quick_cfg() -> (MpGraphConfig, TrainCfg) {
        let amma = AmmaConfig {
            history: 5,
            attn_dim: 8,
            fusion_dim: 16,
            layers: 1,
            heads: 2,
        };
        (
            MpGraphConfig {
                delta: DeltaPredictorConfig {
                    amma,
                    segments: 6,
                    delta_range: 15,
                    look_forward: 8,
                    threshold: 0.3,
                },
                page: PagePredictorConfig {
                    amma,
                    page_vocab: 64,
                    embed_dim: 8,
                    head: PageHead::Softmax,
                },
                cstp: CstpConfig::default(),
                detector: DetectorChoice::SoftDt,
                variant: Variant::AmmaPs,
                probe_window: 16,
                pbot_capacity: 512,
                latency: 0,
            },
            TrainCfg {
                history: 5,
                max_samples: 250,
                epochs: 3,
                lr: 4e-3,
                seed: 33,
            },
        )
    }

    #[test]
    fn trains_and_prefetches_end_to_end() {
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&train, 2, cfg, &tc);
        assert_eq!(pf.name(), "MPGraph");
        // Replay a test workload and collect prefetches.
        let test = workload(2);
        let mut out = Vec::new();
        let mut total = 0usize;
        for r in &test {
            out.clear();
            pf.on_access(
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
            assert!(out.len() <= cfg.cstp.max_degree());
            total += out.len();
        }
        assert!(total > 100, "only {total} prefetches issued");
        // The detector fired and the controller reacted at least once
        // (the workload has 3 internal transitions in 2 reps).
        assert!(pf.transitions_handled() >= 1);
    }

    #[test]
    fn zero_phase_training_builds_one_model_per_predictor() {
        // `num_phases == 0` (a trace header that declares no phases) must
        // not leave a phase-specific model set empty: both predictors
        // train one model, and the prefetcher serves from it. The
        // unsupervised detector needs no phase labels.
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let cfg = MpGraphConfig {
            detector: DetectorChoice::SoftKswin,
            ..cfg
        };
        let tc = TrainCfg {
            epochs: 1,
            max_samples: 60,
            ..tc
        };
        let mut pf = train_mpgraph(&train, 0, cfg, &tc);
        assert_eq!(pf.delta.models.models.len(), 1);
        assert_eq!(pf.page.models.models.len(), 1);
        assert!(pf.delta.train_steps > 0 && pf.page.train_steps > 0);
        let mut out = Vec::new();
        for r in &train[..200] {
            out.clear();
            pf.on_access(
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
        }
    }

    #[test]
    fn quantized_prefetcher_still_prefetches_and_resignatures() {
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&train, 2, cfg, &tc);
        let f32_sig = pf.batch_signature();
        assert!(!pf.is_quantized());
        pf.quantize();
        assert!(pf.is_quantized());
        // A quantized model computes different logits from the same
        // weights, so it must never fuse with an f32 twin.
        assert_ne!(
            pf.batch_signature(),
            f32_sig,
            "quantization must change the batch signature"
        );
        let test = workload(2);
        let mut out = Vec::new();
        let mut total = 0usize;
        for r in &test {
            out.clear();
            pf.on_access(
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
            assert!(out.len() <= cfg.cstp.max_degree());
            total += out.len();
        }
        assert!(total > 100, "only {total} prefetches issued after quantize");
        assert!(pf.transitions_handled() >= 1);
    }

    #[test]
    fn controller_tracks_phase_after_transition() {
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&train, 2, cfg, &tc);
        let test = workload(2);
        let mut out = Vec::new();
        let (mut probed, mut warm_misses) = (0usize, None);
        for r in &test {
            out.clear();
            let observations = pf.controller.observations;
            pf.on_access(
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
            if pf.controller.observations > observations {
                // A probing access: after the first, the prefetcher's
                // arena serves every forward from its pools.
                probed += 1;
                let misses = pf.arena.stats().1;
                match warm_misses {
                    None => warm_misses = Some(misses),
                    Some(w) => assert_eq!(misses, w, "probe arena allocated at probe {probed}"),
                }
            }
        }
        assert!(probed > cfg.probe_window, "only {probed} probing accesses");
        // After running through phase 1's region the controller should have
        // settled on a phase id (either, but it must have probed).
        assert!(pf.transitions_handled() >= 1);
        assert!(pf.current_phase() < 2);
    }

    /// Forwards every call but the stream announcement, so the wrapped
    /// prefetcher serves each access through a window of one.
    struct PerAccess(MpGraphPrefetcher);

    impl Prefetcher for PerAccess {
        fn name(&self) -> String {
            self.0.name()
        }
        fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
            self.0.on_access(a, out)
        }
        fn last_batch_tags(&self) -> &[PrefetchTag] {
            self.0.last_batch_tags()
        }
        fn current_phase_id(&self) -> u8 {
            self.0.current_phase_id()
        }
        fn enable_trace_events(&mut self, on: bool) {
            self.0.enable_trace_events(on)
        }
        fn pending_trace_events(&self) -> &[TraceEvent] {
            self.0.pending_trace_events()
        }
    }

    /// What a host sees of one access: the phase reported before it (the
    /// engine attributes demand misses with it), then the batch, its tags
    /// and its trace events.
    type Served = (u8, Vec<u64>, Vec<PrefetchTag>, Vec<TraceEvent>);

    /// Announces `stream` in chunks cut at `cuts`, serving each chunk
    /// before announcing the next, as the engine does per segment.
    fn drive(pf: &mut dyn Prefetcher, stream: &[MemRecord], cuts: &[usize]) -> Vec<Served> {
        pf.enable_trace_events(true);
        let mut served = Vec::new();
        let mut start = 0;
        for &end in cuts.iter().chain(std::iter::once(&stream.len())) {
            pf.announce_llc_stream(&stream[start..end]);
            for r in &stream[start..end] {
                let phase = pf.current_phase_id();
                let mut out = Vec::new();
                pf.on_access(
                    &LlcAccess {
                        pc: r.pc,
                        block: r.block(),
                        core: r.core,
                        is_write: r.is_write,
                        hit: false,
                        cycle: 0,
                    },
                    &mut out,
                );
                served.push((
                    phase,
                    out,
                    pf.last_batch_tags().to_vec(),
                    pf.pending_trace_events().to_vec(),
                ));
            }
            start = end;
        }
        served
    }

    #[test]
    fn lookahead_windows_match_per_access_replay() {
        // PBOT capacity 8 against the workload's 11 distinct pages keeps
        // evictions landing inside windows; two cores give the per-core
        // page histories different fill times.
        let train = workload(1);
        let (mut cfg, tc) = quick_cfg();
        cfg.pbot_capacity = 8;
        // Training is deterministic: each call builds an identical twin.
        let fresh = || train_mpgraph(&train, 2, cfg, &tc);
        let mut stream = workload(3);
        for (i, r) in stream.iter_mut().enumerate() {
            r.core = (i % 7 == 0) as u8;
        }
        let mut reference = PerAccess(fresh());
        let expected = drive(&mut reference, &stream, &[]);
        // Transitions, and a window edge inside the probe window after the
        // first of them.
        let confirmed: Vec<usize> = (0..expected.len())
            .filter(|&i| {
                expected[i]
                    .3
                    .iter()
                    .any(|e| matches!(e, TraceEvent::PhaseConfirmed { .. }))
            })
            .collect();
        assert!(confirmed.len() >= 2, "transitions at {confirmed:?}");
        let straddle = confirmed[0] + cfg.probe_window / 2;
        for cuts in [vec![], vec![straddle], vec![5, 130, straddle, straddle + 1]] {
            let mut windowed = fresh();
            let got = drive(&mut windowed, &stream, &cuts);
            assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g, e, "access {i}, cuts {cuts:?}");
            }
            let r = &reference.0;
            assert_eq!(windowed.cstp_stats, r.cstp_stats, "cuts {cuts:?}");
            let (mut a, mut b) = Default::default();
            windowed.enrich_snapshot(&mut a);
            r.enrich_snapshot(&mut b);
            assert_eq!(
                format!("{:?}", (&a.detector, &a.controller, &a.cstp)),
                format!("{:?}", (&b.detector, &b.controller, &b.cstp)),
                "cuts {cuts:?}"
            );
            assert_eq!(windowed.pbot.len(), r.pbot.len());
            assert!(r.cstp_stats.pbot_hits > 0 && r.cstp_stats.pbot_misses > 0);
        }
    }

    #[test]
    fn distance_prefetching_shifts_targets() {
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&train, 2, cfg, &tc);
        let mut near = Vec::new();
        let mut far = Vec::new();
        let test = workload(1);
        // Warm up histories.
        for r in &test[..50] {
            near.clear();
            pf.on_access(
                &LlcAccess {
                    pc: r.pc,
                    block: r.block(),
                    core: 0,
                    is_write: false,
                    hit: false,
                    cycle: 0,
                },
                &mut near,
            );
        }
        let probe = &test[50];
        let acc = LlcAccess {
            pc: probe.pc,
            block: probe.block(),
            core: 0,
            is_write: false,
            hit: false,
            cycle: 0,
        };
        near.clear();
        pf.on_access(&acc, &mut near);
        pf.dp_distance = 1;
        far.clear();
        pf.on_access(&acc, &mut far);
        if !near.is_empty() && !far.is_empty() {
            let near_d: i64 = near
                .iter()
                .map(|&b| (b as i64 - acc.block as i64).abs())
                .sum();
            let far_d: i64 = far
                .iter()
                .map(|&b| (b as i64 - acc.block as i64).abs())
                .sum();
            assert!(far_d >= near_d, "distance prefetch did not reach further");
        }
    }

    #[test]
    fn parallel_cstp_matches_serial_chain_bit_exactly() {
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&train, 2, cfg, &tc);
        // Warm up histories and the PBOT with real replay.
        let test = workload(1);
        let mut out = Vec::new();
        for r in &test[..120] {
            out.clear();
            pf.on_access(
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
        }
        // The joined two-lane path must reproduce the serial batch exactly,
        // for both phase models, steady-state arenas included.
        let page_items: Vec<(usize, u64)> = pf.page_hists[0].items().to_vec();
        let mut lanes = Vec::new();
        let (mut spatial_arena, mut temporal_arena) = (ScratchArena::new(), ScratchArena::new());
        for phase in [0usize, 1] {
            for _ in 0..3 {
                let mut serial_stats = CstpStats::default();
                let serial = crate::cstp::chain_prefetch(
                    &pf.delta,
                    &pf.page,
                    &pf.pbot,
                    pf.block_hist.items(),
                    &page_items,
                    phase,
                    &cfg.cstp,
                    &mut serial_stats,
                );
                let mut parallel_stats = CstpStats::default();
                let parallel = crate::cstp::chain_prefetch_in(
                    &pf.delta,
                    &pf.page,
                    &pf.pbot,
                    pf.block_hist.items(),
                    &page_items,
                    phase,
                    &cfg.cstp,
                    &mut spatial_arena,
                    &mut temporal_arena,
                    &mut lanes,
                    &mut parallel_stats,
                );
                assert_eq!(parallel, serial, "phase {phase}");
                // Same predictions → same counters, dedup included.
                assert_eq!(parallel_stats, serial_stats, "phase {phase}");
                // Lane attribution stays parallel to the batch.
                assert_eq!(lanes.len(), parallel.len(), "phase {phase}");
            }
        }
    }

    #[test]
    fn cstp_batches_duplicate_free_and_bounded() {
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&train, 2, cfg, &tc);
        let test = workload(2);
        let mut out = Vec::new();
        for r in &test {
            out.clear();
            pf.on_access(
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
            // Eq. 11: Dp ≤ Ds * (Dt + 1).
            assert!(out.len() <= cfg.cstp.max_degree());
            // Post-dedup batches carry no repeated block address.
            for (i, b) in out.iter().enumerate() {
                assert!(!out[..i].contains(b), "duplicate {b} in batch {out:?}");
            }
            // Attribution is batch-aligned on every access.
            assert_eq!(pf.last_batch_tags().len(), out.len());
        }
        assert!(pf.cstp_stats.batches > 0);
        assert!(pf.cstp_stats.pbot_hits + pf.cstp_stats.pbot_misses > 0);
    }

    #[test]
    fn single_page_workload_triggers_duplicate_suppression() {
        // Regression trace for the CSTP duplication bug: every access walks
        // one page, so the temporal chain re-predicts that same page and the
        // PBOT hands back the same base block on consecutive chain steps —
        // the exact duplicate the old path passed through to truncation.
        let mut v = Vec::new();
        for i in 0..800u64 {
            v.push(rec(4 * 4096 + (i % 64) * 64, 0x40_0000 + (i % 5) * 4, 0));
        }
        let (cfg, tc) = quick_cfg();
        let mut pf = train_mpgraph(&v, 1, cfg, &tc);
        let mut out = Vec::new();
        for r in &v {
            out.clear();
            pf.on_access(
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
        }
        assert!(
            pf.cstp_stats.duplicates_suppressed > 0,
            "single-page trace failed to trigger the duplication path: {:?}",
            pf.cstp_stats
        );
    }

    #[test]
    fn all_detector_choices_construct() {
        let train = workload(1);
        for choice in [
            DetectorChoice::SoftKswin,
            DetectorChoice::Kswin,
            DetectorChoice::SoftDt,
            DetectorChoice::Dt,
        ] {
            let det = build_detector(&train, 2, choice);
            drop(det);
        }
    }
}
