//! The per-phase model set both predictors share (§4.3, AMMA-PS: one
//! model per phase; one model for every other variant), and the one
//! guarded training loop that fits it. Delta training, page training and
//! both distillations (§6.1) differ only in their model init, their sample
//! schedule and their per-sample loss; everything else lives here.

use crate::amma::ModalInput;
use crate::backbone::Backbone;
use crate::variants::Variant;
use mpgraph_ml::arena::ScratchArena;
use mpgraph_ml::guard::{GuardAction, TrainGuard};
use mpgraph_ml::layers::{Embedding, Linear, Module, Param, Project};
use mpgraph_ml::lstm::LstmGates;
use mpgraph_ml::optim::Adam;
use mpgraph_ml::quant::{quantize_module, QuantizedLinear};
use mpgraph_ml::tensor::Matrix;
use mpgraph_prefetchers::mlcommon::dedup_lanes;
use rayon::prelude::*;

/// Most windows one batched forward stacks, for both predictors: a
/// larger (already deduplicated) batch runs as consecutive forwards of at
/// most this many, which keeps each forward's activations cache-resident.
/// Rows are independent, so the cut changes no output bit.
pub(crate) const FUSED_BATCH_WINDOWS: usize = 8;

/// One phase model: an optional token embedding (page models embed page
/// tokens; delta models read segmented addresses directly), the backbone
/// and the output head, plus its int8 snapshot once one is built.
#[derive(Clone)]
pub(crate) struct PhaseModel {
    pub(crate) embed: Option<Embedding>,
    pub(crate) backbone: Backbone,
    /// A tied head projects into the embedding space and its logits are
    /// the product with the embedding table, which makes the pointer-like
    /// "one of the recently seen pages" prediction easy to express.
    pub(crate) head: Linear,
    pub(crate) tied: bool,
    /// `None` means the f32 weights serve.
    pub(crate) int8: Option<Int8Model>,
}

impl PhaseModel {
    pub(crate) fn new(
        embed: Option<Embedding>,
        backbone: Backbone,
        head: Linear,
        tied: bool,
    ) -> Self {
        PhaseModel {
            embed,
            backbone,
            head,
            tied,
            int8: None,
        }
    }

    /// The trainable modules in their fixed order: embedding, backbone,
    /// head. Adam steps them in this order (its timestep advances per
    /// module) and the guard checkpoints them together.
    fn parts(&self) -> impl Iterator<Item = &dyn Module> {
        let embed = self.embed.iter().map(|e| e as &dyn Module);
        embed.chain([&self.backbone as &dyn Module, &self.head as &dyn Module])
    }

    fn parts_mut(&mut self) -> Vec<&mut dyn Module> {
        let mut parts: Vec<&mut dyn Module> = Vec::with_capacity(3);
        if let Some(e) = &mut self.embed {
            parts.push(e);
        }
        parts.push(&mut self.backbone);
        parts.push(&mut self.head);
        parts
    }

    /// The embedding a tied head multiplies with, if the head is tied.
    pub(crate) fn tied_embed(&self) -> Option<&Embedding> {
        self.embed.as_ref().filter(|_| self.tied)
    }

    /// Training forward of one window to the head output.
    pub(crate) fn forward(&mut self, x: &ModalInput, phase: usize) -> Matrix {
        let pooled = self.backbone.forward(x, phase);
        self.head.forward(&pooled)
    }

    /// Training backward from the head-output gradient through the
    /// backbone and, when there is one, into the token embedding.
    pub(crate) fn backward(&mut self, d_head: &Matrix) {
        let dp = self.head.backward(d_head);
        let (d_addr, _) = self.backbone.backward(&dp);
        if let Some(e) = &mut self.embed {
            e.backward(&d_addr);
        }
    }

    /// Head logits `[batch, out]` for `batch` stacked windows, through the
    /// int8 snapshot when one exists and the f32 weights otherwise — the
    /// one place that chooses between the two. The caller gives the
    /// result back to `s`.
    pub(crate) fn logits_in(
        &self,
        x: &ModalInput,
        batch: usize,
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        match &self.int8 {
            Some(q) => head_logits_in(&q.backbone, &q.head, q.vocab.as_ref(), x, batch, phase, s),
            None => {
                let tied = self.tied_embed();
                head_logits_in(&self.backbone, &self.head, tied, x, batch, phase, s)
            }
        }
    }
}

/// Backbone, then head, then (tied heads) the vocabulary product.
fn head_logits_in<P: Project + LstmGates, L: Project, V: Project>(
    backbone: &Backbone<P, L>,
    head: &L,
    vocab: Option<&V>,
    x: &ModalInput,
    batch: usize,
    phase: usize,
    s: &mut ScratchArena,
) -> Matrix {
    let pooled = backbone.infer_batch_in(x, batch, phase, s);
    let z = head.project_in(&pooled, s);
    s.give(pooled);
    match vocab {
        Some(v) => {
            let logits = v.project_in(&z, s);
            s.give(z);
            logits
        }
        None => z,
    }
}

/// Int8 snapshot of one trained phase model: the backbone, the output
/// head, and — for a tied head — the vocabulary product, each
/// embedding-table row one quantized output channel with its own scale
/// (so one hot page with a large embedding norm cannot wash out the rest
/// of the vocabulary).
#[derive(Debug, Clone)]
pub(crate) struct Int8Model {
    backbone: Backbone<QuantizedLinear, QuantizedLinear>,
    head: QuantizedLinear,
    vocab: Option<QuantizedLinear>,
}

impl Int8Model {
    fn new(m: &PhaseModel) -> Self {
        Int8Model {
            backbone: m.backbone.quantized(),
            head: QuantizedLinear::from_linear(&m.head),
            vocab: m
                .tied_embed()
                .map(|e| QuantizedLinear::from_rows(&e.table.w, None)),
        }
    }

    /// Int8 weights plus f32 scales and biases.
    fn storage_bytes(&self) -> usize {
        self.backbone.storage_bytes()
            + self.head.storage_bytes()
            + self
                .vocab
                .as_ref()
                .map_or(0, QuantizedLinear::storage_bytes)
    }
}

/// A predictor's phase models: one per phase for phase-specific variants
/// (AMMA-PS), otherwise one shared model.
#[derive(Clone)]
pub(crate) struct PhaseModels {
    pub(crate) variant: Variant,
    /// Phases the predictor distinguishes, at least 1.
    pub(crate) num_phases: usize,
    pub(crate) models: Vec<PhaseModel>,
}

/// Per-model training outcome: last completed epoch's loss sum and sample
/// count, optimizer steps and guard rollbacks.
type ModelFit = (f32, usize, u64, u64);

impl PhaseModels {
    /// Draws the models from `init` in model order; `init` gets the
    /// phase count (`num_phases`, at least 1).
    pub(crate) fn new(
        variant: Variant,
        num_phases: usize,
        mut init: impl FnMut(usize) -> PhaseModel,
    ) -> Self {
        let num_phases = num_phases.max(1);
        let count = if variant.is_phase_specific() {
            num_phases
        } else {
            1
        };
        PhaseModels {
            variant,
            num_phases,
            models: (0..count).map(|_| init(num_phases)).collect(),
        }
    }

    /// Phase label of a record, folded into the model's phase range.
    pub(crate) fn phase_of(&self, label: u8) -> usize {
        label as usize % self.num_phases
    }

    fn index(&self, phase: usize) -> usize {
        if self.variant.is_phase_specific() {
            phase % self.models.len()
        } else {
            0
        }
    }

    pub(crate) fn model_for(&self, phase: usize) -> &PhaseModel {
        &self.models[self.index(phase)]
    }

    /// Fits the models on `samples`, `(phase, sample)` pairs in walk
    /// order, for `epochs` passes. The walk is split into one fixed
    /// schedule per model (each model's samples in walk order), then every
    /// model trains on its own thread with its own Adam optimizer and
    /// `TrainGuard`: `step` runs one sample's forward and backward and
    /// returns its loss, and `fit` applies the update and consults the
    /// guard. A rollback drops that sample from the epoch's loss; a guard
    /// that gives up stops its own model only. Each rollback and
    /// exhaustion is recorded to `sink` under `predictor` as it fires.
    ///
    /// Each model's update sequence depends on nothing outside it, and the
    /// ordered fan-out reduces in model order, so the result is
    /// bit-identical run to run. Returns the last epoch's mean loss, the
    /// optimizer steps and the guard rollbacks, summed over models.
    pub(crate) fn fit<S: Send + Sync>(
        &mut self,
        samples: impl IntoIterator<Item = (usize, S)>,
        epochs: usize,
        lr: f32,
        predictor: &str,
        sink: Option<&crate::TrainEventSink>,
        step: impl Fn(&mut PhaseModel, usize, &S, &mut ScratchArena) -> f32 + Sync,
    ) -> (f32, u64, u64) {
        let mut schedules: Vec<Vec<(usize, S)>> = self.models.iter().map(|_| Vec::new()).collect();
        for (phase, sample) in samples {
            schedules[self.index(phase)].push((phase, sample));
        }
        let jobs: Vec<_> = self.models.iter_mut().zip(schedules).enumerate().collect();
        let fits: Vec<ModelFit> = jobs
            .into_par_iter()
            .map(|(midx, (model, schedule))| {
                let mut opt = Adam::new(lr);
                let mut guard = TrainGuard::new(crate::prefetcher::TRAIN_CHECKPOINT_INTERVAL);
                let mut s = ScratchArena::new();
                let (mut last, mut steps) = ((0.0f32, 0usize), 0u64);
                'epochs: for _ in 0..epochs {
                    let (mut loss_sum, mut count) = (0.0f32, 0usize);
                    for (phase, sample) in &schedule {
                        let loss = step(model, *phase, sample, &mut s);
                        let mut parts = model.parts_mut();
                        for part in parts.iter_mut() {
                            opt.step(&mut **part);
                        }
                        steps += 1;
                        let action = guard.observe(loss, &mut parts, &mut opt.lr);
                        let (new_lr, exhausted) = match action {
                            GuardAction::Continue => {
                                loss_sum += loss;
                                count += 1;
                                continue;
                            }
                            GuardAction::RolledBack { new_lr } => (new_lr, false),
                            GuardAction::Exhausted => (0.0, true),
                        };
                        if let Some(sink) = sink {
                            sink.record(crate::obs::TrainRollbackMetrics {
                                predictor: predictor.to_string(),
                                model: midx as u64,
                                step: steps,
                                new_lr: new_lr as f64,
                                exhausted,
                            });
                        }
                        if exhausted {
                            break 'epochs;
                        }
                    }
                    last = (loss_sum, count);
                }
                (last.0, last.1, steps, guard.rollbacks as u64)
            })
            .collect();
        let loss_sum: f32 = fits.iter().map(|f| f.0).sum();
        let count: usize = fits.iter().map(|f| f.1).sum();
        let final_loss = if count > 0 {
            loss_sum / count as f32
        } else {
            f32::NAN
        };
        (
            final_loss,
            fits.iter().map(|f| f.2).sum(),
            fits.iter().map(|f| f.3).sum(),
        )
    }

    /// Builds the int8 snapshot of every model. Serving then runs through
    /// the i8×i8→i32 kernels.
    pub(crate) fn quantize(&mut self) {
        for m in &mut self.models {
            m.int8 = Some(Int8Model::new(m));
        }
    }

    /// Rounds every model's f32 weights onto their int8 grid, then builds
    /// the int8 snapshots. Returns (f32 bytes before, int8 bytes after).
    pub(crate) fn round_and_quantize(&mut self) -> (usize, usize) {
        let before = 4 * self.num_params();
        let after = self
            .models
            .iter_mut()
            .flat_map(PhaseModel::parts_mut)
            .map(quantize_module)
            .sum();
        self.quantize();
        (before, after)
    }

    pub(crate) fn is_quantized(&self) -> bool {
        self.models.iter().all(|m| m.int8.is_some())
    }

    /// Int8 size across all models. A token-embedding lookup table stays
    /// f32 (it is indexed, never multiplied on the input side) and counts
    /// at full width.
    pub(crate) fn quant_storage_bytes(&self) -> Option<usize> {
        self.models
            .iter()
            .map(|m| {
                let table = m.embed.as_ref().map_or(0, Project::storage_bytes);
                Some(m.int8.as_ref()?.storage_bytes() + table)
            })
            .sum()
    }

    /// Frees every model's gradients and Adam moments once training is
    /// over ([`Module::finish_training`]); inference is unaffected.
    pub(crate) fn finish_training(&mut self) {
        for m in &mut self.models {
            for part in m.parts_mut() {
                part.finish_training();
            }
        }
    }

    /// Total trainable parameters across all models (Table 8).
    pub(crate) fn num_params(&self) -> usize {
        self.models
            .iter()
            .flat_map(PhaseModel::parts)
            .map(|p| p.num_params())
            .sum()
    }

    /// Little-endian bytes of every trainable weight in traversal order —
    /// the byte-level fingerprint the determinism tests compare.
    pub(crate) fn weight_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut push = |p: &Param| {
            for v in &p.w.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        for part in self.models.iter().flat_map(PhaseModel::parts) {
            part.for_each_param_ref(&mut push);
        }
        out
    }
}

/// Runs a batched prediction over `hists` with each distinct window
/// computed once and the distinct windows cut into forwards of at most
/// [`FUSED_BATCH_WINDOWS`]. Same-phase streams co-traversing one frontier
/// present byte-identical windows, and a prediction is a pure function of
/// its window, so one computed lane serves every duplicate bit-exactly.
/// Outputs come back in lane order.
pub(crate) fn dedup_chunked<H: Eq + std::hash::Hash, T: Clone>(
    hists: &[&[H]],
    mut run: impl FnMut(&[&[H]]) -> Vec<T>,
) -> Vec<T> {
    let mut run_chunked = |hs: &[&[H]]| -> Vec<T> {
        if hs.len() <= FUSED_BATCH_WINDOWS {
            return run(hs);
        }
        hs.chunks(FUSED_BATCH_WINDOWS).flat_map(&mut run).collect()
    };
    if hists.len() > 1 {
        let (unique, lane_of) = dedup_lanes(hists);
        if unique.len() < hists.len() {
            let outs = run_chunked(&unique);
            return lane_of.iter().map(|&i| outs[i].clone()).collect();
        }
    }
    run_chunked(hists)
}
