//! Chain Spatio-Temporal Prefetching (§4.4.2, Figure 8): the spatial delta
//! predictor and temporal page predictor run in parallel; a Page Base
//! Offset Table (PBOT) records the latest offset and PC seen on each page,
//! letting the predicted page seed further spatial inference — a chain that
//! continues until the temporal degree is exhausted or the PBOT misses.
//!
//! With spatial degree `Ds` and temporal degree `Dt`, the total prefetch
//! degree ranges over `Ds + 1 ≤ Dp ≤ Ds(Dt + 1)` (Eq. 11).

use crate::delta_predictor::DeltaPredictor;
use crate::page_predictor::PagePredictor;
use mpgraph_ml::ScratchArena;
use mpgraph_sim::{PrefetchLane, BLOCK_BITS, BLOCK_OFFSET_MASK};
use std::collections::HashMap;

/// Rolling CSTP counters: chain lengths, PBOT hit rate, and duplicates
/// suppressed by batch dedup. One instance lives in the prefetcher and is
/// folded into the pipeline [`MetricsSnapshot`](crate::obs::MetricsSnapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CstpStats {
    /// Prefetch batches generated.
    pub batches: u64,
    /// Temporal chain steps completed (sum of per-batch chain lengths).
    pub chain_steps: u64,
    /// Longest temporal chain observed in a single batch.
    pub max_chain_len: u64,
    /// PBOT lookups that found the predicted page.
    pub pbot_hits: u64,
    /// PBOT lookups that missed (chain terminated early).
    pub pbot_misses: u64,
    /// Duplicate block addresses suppressed before truncation — each one a
    /// candidate that would have silently wasted degree budget.
    pub duplicates_suppressed: u64,
}

impl CstpStats {
    /// Fraction of PBOT lookups that hit (0 when no lookups happened).
    pub fn pbot_hit_rate(&self) -> f64 {
        let total = self.pbot_hits + self.pbot_misses;
        if total == 0 {
            0.0
        } else {
            self.pbot_hits as f64 / total as f64
        }
    }

    /// Mean temporal chain length per batch.
    pub fn avg_chain_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.chain_steps as f64 / self.batches as f64
        }
    }

    /// Folds counters accumulated on another thread (the parallel temporal
    /// lane) into this instance.
    pub fn merge(&mut self, other: &CstpStats) {
        self.batches += other.batches;
        self.chain_steps += other.chain_steps;
        self.max_chain_len = self.max_chain_len.max(other.max_chain_len);
        self.pbot_hits += other.pbot_hits;
        self.pbot_misses += other.pbot_misses;
        self.duplicates_suppressed += other.duplicates_suppressed;
    }
}

/// Removes repeated block addresses from `out`, keeping the first emission
/// of each (spatial-before-temporal priority is therefore preserved), and
/// mirrors the removals into the parallel `lanes` attribution vector when
/// one is supplied. Returns the number of duplicates suppressed.
///
/// Batches are bounded by Eq. 11 (≤ `Ds*(Dt+1)`, 6 at paper defaults), so
/// the quadratic membership scan beats any hash set — and allocates nothing.
pub fn dedup_first_order(out: &mut Vec<u64>, mut lanes: Option<&mut Vec<PrefetchLane>>) -> u64 {
    let mut suppressed = 0u64;
    let mut i = 0;
    while i < out.len() {
        if out[..i].contains(&out[i]) {
            out.remove(i);
            if let Some(l) = lanes.as_deref_mut() {
                l.remove(i);
            }
            suppressed += 1;
        } else {
            i += 1;
        }
    }
    suppressed
}

/// Page Base Offset Table: page → (latest block offset, latest PC).
/// Bounded FIFO-ish: on overflow the table is halved by dropping the
/// stalest insertions (a hardware table would be set-indexed; the effect —
/// finite reach — is the same).
#[derive(Debug, Clone)]
pub struct Pbot {
    map: HashMap<u64, (u64, u64, u64)>, // page -> (offset, pc, stamp)
    capacity: usize,
    clock: u64,
}

impl Pbot {
    pub fn new(capacity: usize) -> Self {
        Pbot {
            map: HashMap::with_capacity(capacity),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Records the latest (offset, pc) for `page`.
    pub fn update(&mut self, page: u64, offset: u64, pc: u64) {
        self.update_logged(page, offset, pc, None);
    }

    /// [`Pbot::update`], optionally logging every entry it overwrites or
    /// evicts so that [`PbotTimeline`] can take the update back.
    fn update_logged(
        &mut self,
        page: u64,
        offset: u64,
        pc: u64,
        mut log: Option<&mut Vec<PbotUndo>>,
    ) {
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&page) {
            // Evict the oldest half to amortize the scan.
            let mut stamps: Vec<u64> = self.map.values().map(|&(_, _, s)| s).collect();
            stamps.sort_unstable();
            let cutoff = stamps[stamps.len() / 2];
            if let Some(log) = log.as_deref_mut() {
                log.extend(
                    self.map
                        .iter()
                        .filter(|(_, &(_, _, s))| s <= cutoff)
                        .map(|(&p, &e)| (p, Some(e))),
                );
            }
            self.map.retain(|_, &mut (_, _, s)| s > cutoff);
        }
        let prev = self.map.insert(page, (offset, pc, self.clock));
        if let Some(log) = log {
            log.push((page, prev));
        }
    }

    /// Latest (offset, pc) recorded for `page`.
    pub fn get(&self, page: u64) -> Option<(u64, u64)> {
        self.map.get(&page).map(|&(o, p, _)| (o, p))
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl PbotLookup for Pbot {
    fn lookup(&self, page: u64) -> Option<(u64, u64)> {
        self.get(page)
    }
}

/// A chain's PBOT lookup: the latest (offset, pc) recorded for a page, as
/// the table stood when the chained access was served. A live [`Pbot`]
/// answers from its current contents; the look-ahead replay answers each
/// planned access from a `PbotTimeline` position.
pub trait PbotLookup {
    fn lookup(&self, page: u64) -> Option<(u64, u64)>;
}

/// One logged PBOT change: a page and its entry before the change (`None`
/// when the page was absent).
type PbotUndo = (u64, Option<(u64, u64, u64)>);

/// A window of PBOT updates applied with an undo log, so the table can be
/// moved to its state after any prefix of the window — the state each
/// planned access's chain must see — and back to the end, exactly (entry
/// contents and the stamp clock alike; nothing in [`Pbot`] depends on the
/// map's internal order). Moving costs one update or undo per position,
/// never a copy of the table.
#[derive(Debug, Default)]
pub(crate) struct PbotTimeline {
    /// The window's updates, `(page, offset, pc)`, in order.
    updates: Vec<(u64, u64, u64)>,
    /// How many of `updates` the table currently reflects.
    applied: usize,
    log: Vec<PbotUndo>,
    /// `log` length before each applied update.
    marks: Vec<usize>,
}

impl PbotTimeline {
    /// Starts a new window at the table's current state.
    pub fn reset(&mut self) {
        self.updates.clear();
        self.applied = 0;
        self.log.clear();
        self.marks.clear();
    }

    /// Updates in the current window.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Appends an update to the window and moves the table to the
    /// window's new end.
    pub fn push(&mut self, pbot: &mut Pbot, page: u64, offset: u64, pc: u64) {
        self.updates.push((page, offset, pc));
        self.seek(pbot, self.updates.len());
    }

    /// Moves the table to its state after the window's first `k` updates.
    pub fn seek(&mut self, pbot: &mut Pbot, k: usize) {
        let k = k.min(self.updates.len());
        while self.applied < k {
            let (page, offset, pc) = self.updates[self.applied];
            self.marks.push(self.log.len());
            pbot.update_logged(page, offset, pc, Some(&mut self.log));
            self.applied += 1;
        }
        while self.applied > k {
            let mark = self.marks.pop().unwrap_or(0);
            for (page, prev) in self.log.drain(mark..).rev() {
                match prev {
                    Some(e) => pbot.map.insert(page, e),
                    None => pbot.map.remove(&page),
                };
            }
            pbot.clock -= 1;
            self.applied -= 1;
        }
    }
}

/// CSTP degrees (paper: Ds = 2, Dt = 2, total degree 6).
#[derive(Debug, Clone, Copy)]
pub struct CstpConfig {
    pub spatial_degree: usize,
    pub temporal_degree: usize,
}

impl Default for CstpConfig {
    fn default() -> Self {
        CstpConfig {
            spatial_degree: 2,
            temporal_degree: 2,
        }
    }
}

impl CstpConfig {
    /// Eq. 11 upper bound on the total prefetch degree.
    pub fn max_degree(&self) -> usize {
        self.spatial_degree * (self.temporal_degree + 1)
    }
}

/// Generates one CSTP prefetch batch.
///
/// * `block_hist` — the last T (block, pc) pairs, most recent last;
/// * `page_hist` — the last T (page token, pc) pairs;
/// * `phase` — the controller's selected phase (chooses the PS models);
/// * `stats` — rolling counters (chain length, PBOT hit rate, dedup).
///
/// This is the serial reference the concurrent [`chain_prefetch_in`] and
/// the fused [`chain_prefetch_fused`] are tested against; it runs every
/// forward in order on a scratch arena of its own.
#[allow(clippy::too_many_arguments)]
pub fn chain_prefetch(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    pbot: &Pbot,
    block_hist: &[(u64, u64)],
    page_hist: &[(usize, u64)],
    phase: usize,
    cfg: &CstpConfig,
    stats: &mut CstpStats,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(cfg.max_degree());
    let &(cur_block, _) = block_hist.last().expect("non-empty history");
    let mut s = ScratchArena::new();

    // --- Spatial at the current access: Ds deltas.
    for d in delta.predict_deltas_in(block_hist, phase, cfg.spatial_degree, &mut s) {
        let t = cur_block as i64 + d;
        if t >= 0 {
            out.push(t as u64);
        }
    }

    // --- Temporal chain.
    let mut chain_len = 0u64;
    let mut ph: Vec<(usize, u64)> = page_hist.to_vec();
    let mut bh: Vec<(u64, u64)> = block_hist.to_vec();
    for _step in 0..cfg.temporal_degree {
        // Predict the next page (skip the OOV token).
        let Some(&next_page) = page.predict_pages_in(&ph, phase, 1, &mut s).first() else {
            break;
        };
        // PBOT lookup: chain ends when the page base offset is missing.
        let Some((offset, pbot_pc)) = pbot.get(next_page) else {
            stats.pbot_misses += 1;
            break;
        };
        stats.pbot_hits += 1;
        chain_len += 1;
        let base = (next_page << BLOCK_BITS) | (offset & BLOCK_OFFSET_MASK);
        out.push(base);
        // Further spatial inference from the chained base: shift the block
        // history as if the base had just been accessed.
        bh.rotate_left(1);
        if let Some(slot) = bh.last_mut() {
            *slot = (base, pbot_pc);
        }
        let ds = cfg.spatial_degree.saturating_sub(1);
        for d in delta.predict_deltas_in(&bh, phase, ds, &mut s) {
            let t = base as i64 + d;
            if t >= 0 {
                out.push(t as u64);
            }
        }
        // Extend the page history with the predicted page for the next
        // temporal step.
        let tok = page.vocab.token_of(next_page);
        ph.rotate_left(1);
        if let Some(slot) = ph.last_mut() {
            *slot = (tok, pbot_pc);
        }
    }
    // A spatial delta can collide with the chained base (or its deltas);
    // suppress repeats so truncation never spends degree budget on them.
    stats.duplicates_suppressed += dedup_first_order(&mut out, None);
    stats.batches += 1;
    stats.chain_steps += chain_len;
    stats.max_chain_len = stats.max_chain_len.max(chain_len);
    out.truncate(cfg.max_degree());
    out
}

/// [`chain_prefetch`] with the spatial and temporal lanes running
/// concurrently via [`rayon::join`], each on its own [`ScratchArena`] so
/// model inference is allocation-free after warmup.
///
/// The two lanes are data-independent: the spatial lane predicts Ds deltas
/// from the current access, while the temporal lane walks the page chain
/// (each chain step's spatial inference included). Their outputs are
/// concatenated spatial-first — exactly the order the serial
/// [`chain_prefetch`] pushes them — so the batch is bit-identical to the
/// serial path no matter how the two lanes are scheduled.
/// `lanes` is cleared and refilled parallel to the returned batch, marking
/// each candidate [`PrefetchLane::Spatial`] or [`PrefetchLane::Temporal`]
/// for per-lane scoreboard attribution.
#[allow(clippy::too_many_arguments)]
pub fn chain_prefetch_in(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    pbot: &Pbot,
    block_hist: &[(u64, u64)],
    page_hist: &[(usize, u64)],
    phase: usize,
    cfg: &CstpConfig,
    spatial_arena: &mut ScratchArena,
    temporal_arena: &mut ScratchArena,
    lanes: &mut Vec<PrefetchLane>,
    stats: &mut CstpStats,
) -> Vec<u64> {
    let &(cur_block, _) = block_hist.last().expect("non-empty history");

    let (spatial, (chain, lane_stats)) = rayon::join(
        // --- Spatial lane: Ds deltas at the current access.
        move || {
            delta
                .predict_deltas_in(block_hist, phase, cfg.spatial_degree, spatial_arena)
                .into_iter()
                .filter_map(|d| {
                    let t = cur_block as i64 + d;
                    (t >= 0).then_some(t as u64)
                })
                .collect::<Vec<u64>>()
        },
        // --- Temporal lane: the page chain plus chained spatial inference.
        // Counters accumulate in a lane-local `CstpStats` merged after the
        // join, so the lane borrows nothing mutable from the caller.
        move || {
            let mut out = Vec::new();
            let mut ls = CstpStats::default();
            let mut chain_len = 0u64;
            let mut ph: Vec<(usize, u64)> = page_hist.to_vec();
            let mut bh: Vec<(u64, u64)> = block_hist.to_vec();
            for _step in 0..cfg.temporal_degree {
                let Some(&next_page) = page.predict_pages_in(&ph, phase, 1, temporal_arena).first()
                else {
                    break;
                };
                let Some((offset, pbot_pc)) = pbot.get(next_page) else {
                    ls.pbot_misses += 1;
                    break;
                };
                ls.pbot_hits += 1;
                chain_len += 1;
                let base = (next_page << BLOCK_BITS) | (offset & BLOCK_OFFSET_MASK);
                out.push(base);
                bh.rotate_left(1);
                if let Some(slot) = bh.last_mut() {
                    *slot = (base, pbot_pc);
                }
                for d in delta.predict_deltas_in(
                    &bh,
                    phase,
                    cfg.spatial_degree.saturating_sub(1),
                    temporal_arena,
                ) {
                    let t = base as i64 + d;
                    if t >= 0 {
                        out.push(t as u64);
                    }
                }
                let tok = page.vocab.token_of(next_page);
                ph.rotate_left(1);
                if let Some(slot) = ph.last_mut() {
                    *slot = (tok, pbot_pc);
                }
            }
            ls.chain_steps = chain_len;
            ls.max_chain_len = chain_len;
            (out, ls)
        },
    );

    let mut out = spatial;
    lanes.clear();
    lanes.resize(out.len(), PrefetchLane::Spatial);
    out.extend(chain);
    lanes.resize(out.len(), PrefetchLane::Temporal);
    // Identical dedup to the serial path (the concatenation order matches
    // its emission order), keeping the two paths bit-exact.
    stats.duplicates_suppressed += dedup_first_order(&mut out, Some(lanes));
    stats.merge(&lane_stats);
    stats.batches += 1;
    out.truncate(cfg.max_degree());
    lanes.truncate(cfg.max_degree());
    out
}

/// One stream's read-only inputs to a fused CSTP batch: its PBOT lookup
/// and the (full) block / page-token histories it would hand to
/// [`chain_prefetch_in`]. A serving stream passes its live [`Pbot`]; the
/// look-ahead replay passes each planned access a lookup into the PBOT as
/// it stood at that access.
pub struct FusedChainItem<'a> {
    pub pbot: &'a dyn PbotLookup,
    pub block_hist: &'a [(u64, u64)],
    pub page_hist: &'a [(usize, u64)],
}

/// One stream's outputs from [`chain_prefetch_fused`]: the candidate batch
/// and lane attribution exactly as [`chain_prefetch_in`] would have
/// produced them, plus the per-item stats delta the caller merges into its
/// rolling [`CstpStats`].
#[derive(Debug, Default, Clone)]
pub struct FusedChainResult {
    pub batch: Vec<u64>,
    pub lanes: Vec<PrefetchLane>,
    pub stats: CstpStats,
}

/// [`chain_prefetch_in`] over a whole group of streams at once, with every
/// model call batched: the spatial lane runs one `(B·T, ·)` delta forward
/// over all items, and the temporal chain walks in lock-step — one batched
/// page forward and one batched chained-delta forward per step, over the
/// items whose chains are still alive. A pump batch of B compatible
/// streams therefore costs `1 + 2·Dt` fused forwards instead of
/// `B · (1 + 2·Dt)` independent ones.
///
/// All items must share one phase, one model shape (equal-length
/// histories included), and — for the outputs to be meaningful —
/// identical predictor weights; the serving layer guarantees this by
/// grouping streams on a weight/config signature. Because every kernel on
/// the batched path computes each output row from its own input rows
/// alone, each item's `batch`, `lanes`, and `stats` are bit-identical to
/// a per-item [`chain_prefetch_in`] call.
///
/// `forwards` counts the batched model forwards issued (the serving
/// layer's fusion-efficiency telemetry).
pub fn chain_prefetch_fused(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    items: &[FusedChainItem<'_>],
    phase: usize,
    cfg: &CstpConfig,
    arena: &mut ScratchArena,
    forwards: &mut u64,
) -> Vec<FusedChainResult> {
    if items.is_empty() {
        return Vec::new();
    }

    /// Per-item chain state while the lock-step walk runs.
    struct Lane {
        bh: Vec<(u64, u64)>,
        ph: Vec<(usize, u64)>,
        spatial: Vec<u64>,
        temporal: Vec<u64>,
        ls: CstpStats,
        chain_len: u64,
        active: bool,
    }

    // --- Spatial lane, one fused forward across every item.
    let hists: Vec<&[(u64, u64)]> = items.iter().map(|it| it.block_hist).collect();
    *forwards += 1;
    let spatial_deltas = delta.predict_deltas_batch_in(&hists, phase, cfg.spatial_degree, arena);

    let mut state: Vec<Lane> = items
        .iter()
        .zip(spatial_deltas)
        .map(|(it, ds)| {
            let &(cur_block, _) = it.block_hist.last().expect("non-empty history");
            let spatial = ds
                .into_iter()
                .filter_map(|d| {
                    let t = cur_block as i64 + d;
                    (t >= 0).then_some(t as u64)
                })
                .collect();
            Lane {
                bh: it.block_hist.to_vec(),
                ph: it.page_hist.to_vec(),
                spatial,
                temporal: Vec::new(),
                ls: CstpStats::default(),
                chain_len: 0,
                active: true,
            }
        })
        .collect();

    // --- Temporal chains in lock-step: a step predicts the next page for
    // every live chain in one forward, resolves each through its own PBOT,
    // then runs one fused chained-delta forward over the survivors.
    for _step in 0..cfg.temporal_degree {
        let live: Vec<usize> = (0..state.len()).filter(|&i| state[i].active).collect();
        if live.is_empty() {
            break;
        }
        let phists: Vec<&[(usize, u64)]> = live.iter().map(|&i| state[i].ph.as_slice()).collect();
        *forwards += 1;
        let pages = page.predict_pages_batch_in(&phists, phase, 1, arena);
        // (item, chained base, predicted page's token, PBOT pc).
        let mut survivors: Vec<(usize, u64, usize, u64)> = Vec::with_capacity(live.len());
        for (&i, preds) in live.iter().zip(pages.iter()) {
            let l = &mut state[i];
            let Some(&next_page) = preds.first() else {
                l.active = false;
                continue;
            };
            let Some((offset, pbot_pc)) = items[i].pbot.lookup(next_page) else {
                l.ls.pbot_misses += 1;
                l.active = false;
                continue;
            };
            l.ls.pbot_hits += 1;
            l.chain_len += 1;
            let base = (next_page << BLOCK_BITS) | (offset & BLOCK_OFFSET_MASK);
            l.temporal.push(base);
            l.bh.rotate_left(1);
            if let Some(slot) = l.bh.last_mut() {
                *slot = (base, pbot_pc);
            }
            survivors.push((i, base, page.vocab.token_of(next_page), pbot_pc));
        }
        if survivors.is_empty() {
            continue;
        }
        let bhists: Vec<&[(u64, u64)]> = survivors
            .iter()
            .map(|&(i, ..)| state[i].bh.as_slice())
            .collect();
        *forwards += 1;
        let chained = delta.predict_deltas_batch_in(
            &bhists,
            phase,
            cfg.spatial_degree.saturating_sub(1),
            arena,
        );
        for (&(i, base, tok, pbot_pc), ds) in survivors.iter().zip(chained) {
            let l = &mut state[i];
            for d in ds {
                let t = base as i64 + d;
                if t >= 0 {
                    l.temporal.push(t as u64);
                }
            }
            l.ph.rotate_left(1);
            if let Some(slot) = l.ph.last_mut() {
                *slot = (tok, pbot_pc);
            }
        }
    }

    // --- Per-item tail, byte-for-byte the per-item epilogue: concat
    // spatial-first, lane-attributed dedup, stats fold, Eq. 11 truncation.
    state
        .into_iter()
        .map(|mut l| {
            let mut out = l.spatial;
            let mut lanes = vec![PrefetchLane::Spatial; out.len()];
            out.extend(l.temporal);
            lanes.resize(out.len(), PrefetchLane::Temporal);
            let mut stats = CstpStats {
                duplicates_suppressed: dedup_first_order(&mut out, Some(&mut lanes)),
                ..CstpStats::default()
            };
            l.ls.chain_steps = l.chain_len;
            l.ls.max_chain_len = l.chain_len;
            stats.merge(&l.ls);
            stats.batches += 1;
            out.truncate(cfg.max_degree());
            lanes.truncate(cfg.max_degree());
            FusedChainResult {
                batch: out,
                lanes,
                stats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amma::AmmaConfig;
    use crate::delta_predictor::DeltaPredictorConfig;
    use crate::page_predictor::{PageHead, PagePredictorConfig};
    use crate::variants::Variant;
    use mpgraph_frameworks::MemRecord;
    use mpgraph_prefetchers::TrainCfg;

    /// Multi-page chain workload: cycles a small page working set with a
    /// few sequential blocks per visit — the page-transition structure the
    /// temporal lane exists to exploit, and the pattern that keeps every
    /// page of the set resident in the PBOT.
    fn chain_trace(reps: usize) -> Vec<MemRecord> {
        let pages = [30u64, 34, 38, 42];
        let mut v = Vec::new();
        for r in 0..reps {
            for (pi, &p) in pages.iter().enumerate() {
                for b in 0..4u64 {
                    v.push(MemRecord {
                        pc: 0x40_0000 + (pi as u64 % 3) * 4,
                        vaddr: p * 4096 + ((b + r as u64) % 64) * 64,
                        core: 0,
                        is_write: false,
                        phase: 0,
                        gap: 1,
                        dep: false,
                    });
                }
            }
        }
        v
    }

    fn chain_models(trace: &[MemRecord]) -> (DeltaPredictor, PagePredictor) {
        let amma = AmmaConfig {
            history: 5,
            attn_dim: 8,
            fusion_dim: 16,
            layers: 1,
            heads: 2,
        };
        let tc = TrainCfg {
            history: 5,
            max_samples: 250,
            epochs: 3,
            lr: 4e-3,
            seed: 7,
        };
        let dcfg = DeltaPredictorConfig {
            amma,
            segments: 6,
            delta_range: 15,
            look_forward: 8,
            threshold: 0.3,
        };
        let pcfg = PagePredictorConfig {
            amma,
            page_vocab: 64,
            embed_dim: 8,
            head: PageHead::Softmax,
        };
        // Two phase models over a single-phase trace: the phase-1 model
        // trains on zero samples, exactly the situation a single-phase
        // trace puts a phase-specific deployment in when the controller
        // sits on the wrong phase.
        let delta = DeltaPredictor::train(trace, 2, Variant::AmmaPs, dcfg, &tc);
        let page = PagePredictor::train(trace, 2, Variant::AmmaPs, pcfg, &tc);
        (delta, page)
    }

    /// Replays `trace` against serial and parallel CSTP for `phase`,
    /// priming the PBOT and the histories exactly as the prefetcher does,
    /// and asserts the two lanes stay bit-identical. Returns the stats.
    fn replay_chain(trace: &[MemRecord], phase: usize) -> CstpStats {
        let (delta, page) = chain_models(trace);
        let cfg = CstpConfig::default();
        let mut pbot = Pbot::new(512);
        let mut bh: Vec<(u64, u64)> = Vec::new();
        let mut ph: Vec<(usize, u64)> = Vec::new();
        let mut serial = CstpStats::default();
        let mut parallel = CstpStats::default();
        let mut spatial_arena = ScratchArena::new();
        let mut temporal_arena = ScratchArena::new();
        let mut lanes = Vec::new();
        for r in trace {
            bh.push((r.block(), r.pc));
            ph.push((page.vocab.token_of(r.page()), r.pc));
            pbot.update(r.page(), r.block() & BLOCK_OFFSET_MASK, r.pc);
            if bh.len() > 5 {
                bh.remove(0);
                ph.remove(0);
            }
            if bh.len() < 5 {
                continue;
            }
            let a = chain_prefetch(&delta, &page, &pbot, &bh, &ph, phase, &cfg, &mut serial);
            let b = chain_prefetch_in(
                &delta,
                &page,
                &pbot,
                &bh,
                &ph,
                phase,
                &cfg,
                &mut spatial_arena,
                &mut temporal_arena,
                &mut lanes,
                &mut parallel,
            );
            assert_eq!(a, b, "serial and parallel batches diverged");
            assert_eq!(b.len(), lanes.len(), "lane attribution misaligned");
        }
        assert_eq!(serial, parallel, "serial and parallel stats diverged");
        serial
    }

    #[test]
    fn fused_chain_matches_per_item_chain() {
        // Three lanes replay the chain workload at different offsets, so
        // every fused call batches genuinely different histories/PBOTs.
        // Per lane, the fused result (batch, lane tags, stats) must be
        // bit-identical to the per-item parallel chain.
        let trace = chain_trace(60);
        let (delta, page) = chain_models(&trace);
        let cfg = CstpConfig::default();
        const LANES: usize = 3;
        let n = trace.len();
        let mut pbots: Vec<Pbot> = (0..LANES).map(|_| Pbot::new(512)).collect();
        let mut bhs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); LANES];
        let mut phs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); LANES];
        let mut spatial_arena = ScratchArena::new();
        let mut temporal_arena = ScratchArena::new();
        let mut fused_arena = ScratchArena::new();
        let mut compared = 0usize;
        for step in 0..200 {
            for l in 0..LANES {
                let r = &trace[(step + l * n / LANES) % n];
                bhs[l].push((r.block(), r.pc));
                phs[l].push((page.vocab.token_of(r.page()), r.pc));
                pbots[l].update(r.page(), r.block() & BLOCK_OFFSET_MASK, r.pc);
                if bhs[l].len() > 5 {
                    bhs[l].remove(0);
                    phs[l].remove(0);
                }
            }
            if bhs.iter().any(|h| h.len() < 5) {
                continue;
            }
            let items: Vec<FusedChainItem<'_>> = (0..LANES)
                .map(|l| FusedChainItem {
                    pbot: &pbots[l],
                    block_hist: &bhs[l],
                    page_hist: &phs[l],
                })
                .collect();
            let mut fwd = 0u64;
            let fused =
                chain_prefetch_fused(&delta, &page, &items, 0, &cfg, &mut fused_arena, &mut fwd);
            assert_eq!(fused.len(), LANES);
            // One spatial forward plus at most (page + delta) per
            // temporal step, regardless of lane count.
            assert!(
                fwd >= 1 && fwd <= 1 + 2 * cfg.temporal_degree as u64,
                "fused forwards {fwd}"
            );
            for l in 0..LANES {
                let mut stats = CstpStats::default();
                let mut lanes = Vec::new();
                let batch = chain_prefetch_in(
                    &delta,
                    &page,
                    &pbots[l],
                    &bhs[l],
                    &phs[l],
                    0,
                    &cfg,
                    &mut spatial_arena,
                    &mut temporal_arena,
                    &mut lanes,
                    &mut stats,
                );
                assert_eq!(fused[l].batch, batch, "lane {l} step {step}");
                assert_eq!(fused[l].lanes, lanes, "lane {l} step {step}");
                assert_eq!(fused[l].stats, stats, "lane {l} step {step}");
                compared += 1;
            }
        }
        assert!(compared > 300, "too few fused/per-item comparisons");
    }

    #[test]
    fn multi_page_workload_primes_pbot() {
        let trace = chain_trace(60);
        let stats = replay_chain(&trace, 0);
        assert!(stats.batches > 0);
        assert!(
            stats.pbot_hits > 0,
            "multi-page chain never reached the PBOT: {stats:?}"
        );
        assert!(
            stats.pbot_hit_rate() > 0.5,
            "pbot hit rate {} on a fully resident working set",
            stats.pbot_hit_rate()
        );
        assert!(stats.max_chain_len <= CstpConfig::default().temporal_degree as u64);
    }

    /// The single-phase blind spot: every record carries phase 0, but the
    /// deployment has a second (untrained) phase model. Before the page
    /// predictor masked its untrained vocabulary tail, that model's top-k
    /// tokens fell outside the vocab, `predict_pages_in` came back empty, and
    /// the chain died *before* any PBOT lookup — `pbot_hits + pbot_misses`
    /// stayed 0 for the whole run, reading as "PBOT never primes".
    #[test]
    fn single_phase_trace_still_primes_pbot_on_untrained_phase() {
        let trace = chain_trace(60);
        let stats = replay_chain(&trace, 1);
        assert!(
            stats.pbot_hits + stats.pbot_misses > 0,
            "temporal chain never consulted the PBOT: {stats:?}"
        );
        assert!(
            stats.pbot_hits > 0,
            "PBOT never primed on the single-phase trace: {stats:?}"
        );
    }

    #[test]
    fn pbot_tracks_latest_offset() {
        let mut p = Pbot::new(16);
        assert!(p.is_empty());
        p.update(10, 5, 100);
        p.update(10, 9, 104);
        assert_eq!(p.get(10), Some((9, 104)));
        assert_eq!(p.get(11), None);
    }

    #[test]
    fn pbot_bounds_capacity() {
        let mut p = Pbot::new(8);
        for page in 0..100u64 {
            p.update(page, 0, 0);
        }
        assert!(p.len() <= 8);
        // Most recent pages survive.
        assert!(p.get(99).is_some());
    }

    #[test]
    fn pbot_timeline_reaches_every_prefix_exactly() {
        // A small table under a stream of 40 pages: evictions inside the
        // window, overwrites of live pages, and a warm start.
        let updates: Vec<(u64, u64, u64)> = (0..60u64)
            .map(|i| ((i * 7) % 40, i % 64, 0x400 + i))
            .collect();
        let mut live = Pbot::new(8);
        for &(p, o, pc) in &updates[..10] {
            live.update(p, o, pc);
        }
        let start = live.clone();
        let window = &updates[10..];
        let mut timeline = PbotTimeline::default();
        for &(p, o, pc) in window {
            timeline.push(&mut live, p, o, pc);
        }
        // Visit prefixes out of order, in both directions.
        for k in [0, 50, 3, 17, 16, 49, 1, 25, 0, 50] {
            timeline.seek(&mut live, k);
            let mut want = start.clone();
            for &(p, o, pc) in &window[..k] {
                want.update(p, o, pc);
            }
            assert_eq!(live.clock, want.clock, "prefix {k}");
            let mut got: Vec<_> = live.map.iter().map(|(&p, &e)| (p, e)).collect();
            let mut exp: Vec<_> = want.map.iter().map(|(&p, &e)| (p, e)).collect();
            got.sort_unstable();
            exp.sort_unstable();
            assert_eq!(got, exp, "prefix {k}");
        }
        assert_eq!(timeline.len(), window.len());
    }

    #[test]
    fn dedup_keeps_first_emission_order() {
        let mut out = vec![10, 11, 10, 12, 11, 13];
        let suppressed = dedup_first_order(&mut out, None);
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(suppressed, 2);
    }

    #[test]
    fn dedup_mirrors_removals_into_lanes() {
        use PrefetchLane::{Spatial as S, Temporal as T};
        let mut out = vec![10, 11, 10, 12];
        let mut lanes = vec![S, S, T, T];
        let suppressed = dedup_first_order(&mut out, Some(&mut lanes));
        assert_eq!(out, vec![10, 11, 12]);
        // The suppressed copy was the temporal re-emission of block 10;
        // the surviving entry keeps its spatial attribution.
        assert_eq!(lanes, vec![S, S, T]);
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn dedup_noop_on_unique_batch() {
        let mut out = vec![1, 2, 3];
        assert_eq!(dedup_first_order(&mut out, None), 0);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn stats_rates() {
        let mut s = CstpStats {
            batches: 4,
            chain_steps: 6,
            max_chain_len: 2,
            pbot_hits: 6,
            pbot_misses: 2,
            duplicates_suppressed: 3,
        };
        assert!((s.pbot_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.avg_chain_len() - 1.5).abs() < 1e-12);
        let other = CstpStats {
            batches: 1,
            chain_steps: 3,
            max_chain_len: 3,
            pbot_hits: 3,
            pbot_misses: 0,
            duplicates_suppressed: 1,
        };
        s.merge(&other);
        assert_eq!(s.batches, 5);
        assert_eq!(s.max_chain_len, 3);
        assert_eq!(s.duplicates_suppressed, 4);
        assert_eq!(CstpStats::default().pbot_hit_rate(), 0.0);
        assert_eq!(CstpStats::default().avg_chain_len(), 0.0);
    }

    #[test]
    fn max_degree_matches_eq11() {
        let cfg = CstpConfig {
            spatial_degree: 2,
            temporal_degree: 2,
        };
        assert_eq!(cfg.max_degree(), 6);
        let wide = CstpConfig {
            spatial_degree: 4,
            temporal_degree: 3,
        };
        assert_eq!(wide.max_degree(), 16);
    }
}
