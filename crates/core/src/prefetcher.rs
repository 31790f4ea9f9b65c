//! The complete MPGraph prefetcher (Figure 4): phase-transition detector +
//! phase-specific multi-modality predictors + chain spatio-temporal
//! prefetching controller, implementing [`mpgraph_sim::Prefetcher`] so it
//! drops into the simulator exactly where BO/ISB/Voyager/TransFetch do.

use crate::controller::Controller;
use crate::cstp::{chain_prefetch_in, CstpConfig, CstpStats, FusedChainResult, Pbot};
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
use mpgraph_sim::{LlcAccess, PrefetchLane, PrefetchTag, Prefetcher, TraceEvent};
use rayon::prelude::*;

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
    /// Scratch buffers for the CSTP spatial lane. Two arenas (not one) so
    /// `rayon::join` can hand each concurrent lane a disjoint `&mut`.
    spatial_arena: ScratchArena,
    /// Scratch buffers for the CSTP temporal-chain lane.
    temporal_arena: ScratchArena,
    /// Per-candidate lane attribution of the last batch (reused scratch).
    lane_scratch: Vec<PrefetchLane>,
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
    /// rollback summary (training predates the replay clock).
    trace_started: bool,
    /// Structured rollback events drained from the training-side event
    /// channel ([`crate::TrainEventSink`]) at the end of `train_mpgraph`,
    /// in deterministic (predictor, model, step) order. Empty when the
    /// prefetcher was assembled via [`MpGraphPrefetcher::from_parts`].
    pub train_rollback_events: Vec<crate::obs::TrainRollbackMetrics>,
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
        controller: Controller::new(num_phases, cfg.probe_window),
        pbot: Pbot::new(cfg.pbot_capacity),
        block_hist: History::new(tc.history),
        page_hists: (0..8).map(|_| History::new(tc.history)).collect(),
        delta,
        page,
        detector,
        num_phases,
        dp_distance: 0,
        observe_errors: 0,
        cstp_stats: CstpStats::default(),
        spatial_arena: ScratchArena::new(),
        temporal_arena: ScratchArena::new(),
        lane_scratch: Vec::new(),
        tag_scratch: Vec::new(),
        trace_on: false,
        trace_events: Vec::new(),
        trace_started: false,
        cfg,
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
            spatial_arena: ScratchArena::new(),
            temporal_arena: ScratchArena::new(),
            lane_scratch: Vec::new(),
            tag_scratch: Vec::new(),
            trace_on: false,
            trace_events: Vec::new(),
            trace_started: false,
            train_rollback_events: Vec::new(),
            cfg,
        }
    }

    /// Selected phase model (introspection).
    pub fn current_phase(&self) -> usize {
        self.controller.current_phase()
    }

    /// Transitions the controller has acted on.
    pub fn transitions_handled(&self) -> usize {
        self.controller.transitions_handled
    }

    /// Everything the fused serving path needs to run this stream's CSTP
    /// chain *between* [`Self::begin_access`] and
    /// [`Self::apply_fused_chain`]: shared borrows of the models, PBOT and
    /// histories, plus the phase the controller has already selected for
    /// this access. `core` picks the per-core page history, exactly as the
    /// inline path does.
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

    /// Commits one stream's share of a fused CSTP batch, reproducing the
    /// inline path's epilogue exactly: stats merge, lane attribution, the
    /// `CstpChain` trace event, distance-prefetch shift, and the append to
    /// `out`. Must follow the [`Self::begin_access`] that opened this
    /// access, with no other calls on this prefetcher in between.
    pub(crate) fn apply_fused_chain(
        &mut self,
        a: &LlcAccess,
        res: FusedChainResult,
        out: &mut Vec<u64>,
    ) {
        let before = self.trace_on.then_some(self.cstp_stats);
        self.cstp_stats.merge(&res.stats);
        self.lane_scratch.clear();
        self.lane_scratch.extend(res.lanes);
        self.finish_access(a, res.batch, before, out);
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
        self.controller.current_phase() as u8
    }

    fn enable_trace_events(&mut self, on: bool) {
        self.trace_on = on;
        self.trace_started = false;
        self.trace_events.clear();
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

    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        // The access is split into begin (detector, histories, probing) /
        // chain / finish (attribution, events, distance shift) so the
        // serving layer can interleave many streams' chains into one fused
        // forward between the same begin and finish steps. Composing the
        // three here IS the inline path — the two routes cannot drift.
        if !self.begin_access(a) {
            return;
        }
        let phase = self.controller.current_phase();
        // `CstpStats` is `Copy`: snapshot before the chain call so the
        // per-batch deltas can be emitted as one summary event.
        let cstp_before = self.trace_on.then_some(self.cstp_stats);
        let batch = chain_prefetch_in(
            &self.delta,
            &self.page,
            &self.pbot,
            self.block_hist.items(),
            self.page_hists[(a.core as usize) % 8].items(),
            phase,
            &self.cfg.cstp,
            &mut self.spatial_arena,
            &mut self.temporal_arena,
            &mut self.lane_scratch,
            &mut self.cstp_stats,
        );
        self.finish_access(a, batch, cstp_before, out);
    }
}

impl MpGraphPrefetcher {
    /// Steps a–d of an access — everything up to (but excluding) the CSTP
    /// chain: trace-buffer reset, phase detection, history/PBOT updates,
    /// and probe-window scoring. Returns whether the histories are full,
    /// i.e. whether a chain should run for this access.
    pub(crate) fn begin_access(&mut self, a: &LlcAccess) -> bool {
        // Invalidate the previous batch's attribution up front so early
        // returns never leave tags aligned with a stale batch.
        self.tag_scratch.clear();
        if self.trace_on {
            self.trace_events.clear();
            if !self.trace_started {
                // Training happened before the replay clock existed, so
                // its rollback summary is stamped on the first traced
                // access (DESIGN.md §13).
                self.trace_started = true;
                self.trace_events.push(TraceEvent::TrainRollback {
                    count: self.delta.train_rollbacks + self.page.train_rollbacks,
                });
            }
        }

        // 1. Phase detection on the PC stream. When tracing, soft-detector
        //    arms are derived from the stats delta so all four detector
        //    implementations report them without individual instrumentation.
        let prev_soft_arms = if self.trace_on {
            self.detector.stats().soft_arms
        } else {
            0
        };
        let confirmed = self.detector.update(a.pc);
        if self.trace_on && self.detector.stats().soft_arms > prev_soft_arms {
            self.trace_events.push(TraceEvent::PhaseArmed);
        }
        if confirmed {
            if self.trace_on {
                self.trace_events.push(TraceEvent::PhaseConfirmed {
                    prev_phase: self.controller.current_phase() as u8,
                });
            }
            self.controller.on_transition();
        }

        // 2. Histories and PBOT.
        self.block_hist.push((a.block, a.pc));
        let page_hist = &mut self.page_hists[(a.core as usize) % 8];
        page_hist.push((self.page.vocab.token_of(a.page()), a.pc));
        self.pbot.update(a.page(), a.offset(), a.pc);
        if !self.block_hist.is_full() || !page_hist.is_full() {
            return false;
        }

        // 3. During a probe window, score every phase model's predictions
        //    against the demand stream and let the controller pick. Every
        //    phase model runs concurrently (`par_iter` preserves phase
        //    order); probing is rare — a short window after each detected
        //    transition — so each closure takes a fresh throwaway arena
        //    rather than pre-warming one per phase.
        if self.controller.probing() {
            let phases: Vec<usize> = (0..self.num_phases).collect();
            let delta = &self.delta;
            let block_hist = self.block_hist.items();
            let spatial_degree = self.cfg.cstp.spatial_degree;
            let block = a.block;
            let preds: Vec<Vec<u64>> = phases
                .par_iter()
                .map(move |&p| {
                    let mut arena = ScratchArena::new();
                    delta
                        .predict_deltas_in(block_hist, p, spatial_degree, &mut arena)
                        .into_iter()
                        .filter_map(|d| {
                            let t = block as i64 + d;
                            (t >= 0).then_some(t as u64)
                        })
                        .collect()
                })
                .collect();
            match self.controller.observe(a.block, &preds) {
                Ok(Some(_)) => {
                    // Probe window complete: a phase model was selected.
                    if self.trace_on {
                        self.trace_events.push(TraceEvent::PhaseSelected {
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

        true
    }

    /// Epilogue of an access, with the chain already run: `batch` is the
    /// chain's candidate list, `self.lane_scratch` its lane attribution,
    /// and `before` the `cstp_stats` snapshot taken before the chain (only
    /// when tracing). Emits the `CstpChain` event, stamps the batch tags,
    /// applies the distance-prefetch shift, and appends to `out`.
    pub(crate) fn finish_access(
        &mut self,
        a: &LlcAccess,
        mut batch: Vec<u64>,
        before: Option<CstpStats>,
        out: &mut Vec<u64>,
    ) {
        if let Some(b) = before {
            let steps = self.cstp_stats.chain_steps - b.chain_steps;
            let hits = self.cstp_stats.pbot_hits - b.pbot_hits;
            let misses = self.cstp_stats.pbot_misses - b.pbot_misses;
            if steps | hits | misses != 0 {
                self.trace_events.push(TraceEvent::CstpChain {
                    steps: steps.min(255) as u8,
                    pbot_hits: hits.min(255) as u8,
                    pbot_misses: misses.min(255) as u8,
                });
            }
        }
        // Nothing between the chain and here touches the controller, so
        // this is the same phase the chain ran with.
        let phase = self.controller.current_phase();
        // The dp_distance shift below rewrites targets but never reorders
        // or drops candidates, so the lane attribution stays aligned.
        self.tag_scratch
            .extend(self.lane_scratch.iter().map(|&l| PrefetchTag {
                phase: phase as u8,
                lane: l,
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
        let test = workload(1);
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
        }
        // After running through phase 1's region the controller should have
        // settled on a phase id (either, but it must have probed).
        assert!(pf.transitions_handled() >= 1);
        assert!(pf.current_phase() < 2);
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
                let parallel = chain_prefetch_in(
                    &pf.delta,
                    &pf.page,
                    &pf.pbot,
                    pf.block_hist.items(),
                    &page_items,
                    phase,
                    &cfg.cstp,
                    &mut pf.spatial_arena,
                    &mut pf.temporal_arena,
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
