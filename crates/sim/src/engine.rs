//! Multi-core trace-replay engine: private L1D and L2 per core, shared LLC,
//! shared DRAM, and a prefetcher hooked at the LLC — the ChampSim-class
//! configuration of Table 3.
//!
//! Timing model: each core retires its own record stream. Non-memory
//! instructions are charged to the 4-wide front end; loads that miss are
//! tracked in a bounded outstanding-miss window (the 64-entry LSQ), so up to
//! 64 misses overlap — the memory-level-parallelism approximation standard
//! in trace-driven prefetcher studies. *Dependent* accesses (the `dep` flag
//! the frameworks set on indirections like `values[edges[e]]`) cannot issue
//! before their producing load completes, which serializes the indirection
//! chains that make graph analytics latency-bound — exactly the gap
//! prefetching closes. Stores drain through a store buffer and never stall
//! retirement. IPC is instructions retired over the slowest core's final
//! cycle.

use crate::cache::{Cache, CacheStats, Lookup};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::fault::{FaultInjector, FaultStats};
use crate::filter::{private_step, PrivateOutcome};
use crate::obs::{DropReason, PrefetchObserver};
use crate::prefetch::{LlcAccess, PrefetchTag, Prefetcher};
use mpgraph_frameworks::MemRecord;
use std::collections::{BinaryHeap, HashMap};

/// Full simulator configuration (defaults reproduce Table 3).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub num_cores: usize,
    /// Front-end issue width (instructions/cycle).
    pub issue_width: u64,
    /// Maximum overlapped outstanding load misses per core (LSQ entries).
    pub lsq_entries: usize,
    pub l1_size: usize,
    pub l1_assoc: usize,
    pub l1_latency: u64,
    pub l2_size: usize,
    pub l2_assoc: usize,
    pub l2_latency: u64,
    pub llc_size: usize,
    pub llc_assoc: usize,
    pub llc_latency: u64,
    pub dram: DramConfig,
    /// Global cap on prefetches issued per LLC access (the paper sets the
    /// *degree* of every prefetcher to 6 in §5.4).
    pub max_prefetch_degree: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_cores: 4,
            issue_width: 4,
            lsq_entries: 64,
            l1_size: 64 * 1024,
            l1_assoc: 4,
            l1_latency: 4,
            l2_size: 512 * 1024,
            l2_assoc: 8,
            l2_latency: 10,
            llc_size: 2 * 1024 * 1024,
            llc_assoc: 16,
            llc_latency: 20,
            dram: DramConfig::default(),
            max_prefetch_degree: 6,
        }
    }
}

/// Aggregated results of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub prefetcher: String,
    pub instructions: u64,
    pub cycles: u64,
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub llc: CacheStats,
    pub dram: DramStats,
    /// Prefetches issued to memory (after dedup).
    pub prefetches_issued: u64,
    /// Prefetched lines that served a demand access (incl. late merges).
    pub prefetches_useful: u64,
    /// Demand accesses that merged with a still-in-flight prefetch.
    pub late_prefetch_merges: u64,
    /// LLC demand misses that went to DRAM (prefetch hits excluded).
    pub llc_demand_misses: u64,
    /// Faults injected into this run (all zero for clean runs).
    pub faults: FaultStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Prefetch accuracy: useful / issued (Srinivasan et al. taxonomy).
    pub fn accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }

    /// Prefetch coverage: useful / (useful + remaining demand misses).
    pub fn coverage(&self) -> f64 {
        let denom = self.prefetches_useful + self.llc_demand_misses;
        if denom == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / denom as f64
        }
    }

    /// Percent IPC improvement over a baseline run (typically `Null`).
    pub fn ipc_improvement(&self, baseline: &SimResult) -> f64 {
        100.0 * (self.ipc() - baseline.ipc()) / baseline.ipc()
    }
}

/// In-flight prefetch bookkeeping: block → (arrival cycle, issued timely).
/// `timely` is decided at issue: a prefetch whose inference latency exceeds
/// an uncontended DRAM round trip could not beat simply fetching on demand,
/// so a demand merge with it counts as a miss, not a useful prefetch.
#[derive(Debug, Default)]
struct InflightPrefetches {
    map: HashMap<u64, (u64, bool)>,
}

impl InflightPrefetches {
    fn insert(&mut self, block: u64, ready: u64, timely: bool) {
        self.map.insert(block, (ready, timely));
    }
    fn contains(&self, block: u64) -> bool {
        self.map.contains_key(&block)
    }
    /// If `block` is in flight, returns its (ready cycle, timely) and
    /// retires the entry (the line is in the LLC already; only timing
    /// remained).
    fn take_ready(&mut self, block: u64) -> Option<(u64, bool)> {
        self.map.remove(&block)
    }
    /// Drops entries that completed long ago to bound the map.
    fn sweep(&mut self, now: u64) {
        if self.map.len() > 4096 {
            self.map.retain(|_, &mut (ready, _)| ready + 10_000 > now);
        }
    }
}

struct CoreState {
    cycle: u64,
    /// Completion cycles of outstanding load misses (min-heap via Reverse).
    outstanding: BinaryHeap<std::cmp::Reverse<u64>>,
    /// Completion cycle of the most recent load (the producer a `dep`
    /// access must wait for).
    prev_load_done: u64,
    l1: Cache,
    l2: Cache,
}

/// Runs `trace` through the hierarchy with `prefetcher` at the LLC.
pub fn simulate(
    trace: &[MemRecord],
    prefetcher: &mut dyn Prefetcher,
    cfg: &SimConfig,
) -> SimResult {
    simulate_with_faults(trace, prefetcher, cfg, None)
}

/// [`simulate`] with an optional fault injector threaded through the replay
/// loop. Pass `None` for a clean run; with `Some(injector)` the engine
/// perturbs records, prefetch candidates, the prefetcher's observation
/// stream, and inference timing per the injector's configuration, and the
/// injected counts come back in [`SimResult::faults`].
pub fn simulate_with_faults(
    trace: &[MemRecord],
    prefetcher: &mut dyn Prefetcher,
    cfg: &SimConfig,
    faults: Option<&mut FaultInjector>,
) -> SimResult {
    simulate_observed(trace, prefetcher, cfg, faults, None)
}

/// [`simulate_with_faults`] with an optional [`PrefetchObserver`] fed the
/// lifecycle of every prefetch candidate (issue/drop/hit/evict) plus the
/// demand misses and latencies — the raw event stream behind the
/// `mpgraph_core::obs` scoreboard. Pass `None` to observe nothing; the
/// replay semantics and [`SimResult`] are bit-identical either way.
pub fn simulate_observed(
    trace: &[MemRecord],
    prefetcher: &mut dyn Prefetcher,
    cfg: &SimConfig,
    mut faults: Option<&mut FaultInjector>,
    obs: Option<&mut dyn PrefetchObserver>,
) -> SimResult {
    let mut session = SimSession::new(cfg);
    session.run_segment(trace, prefetcher, faults.as_deref_mut(), obs);
    session.finish(prefetcher, faults.as_deref())
}

/// Resumable replay state: the entire microarchitectural context of a run
/// — per-core pipelines and private caches, the shared LLC, DRAM, the
/// in-flight prefetch set, and every result counter — packaged so a trace
/// can be replayed in contiguous *segments* with explicit state hand-off
/// between them.
///
/// `run_segment` replays one slice of the trace and leaves the session
/// ready for the next slice; `finish` drains the pipelines and produces
/// the [`SimResult`]. Replaying a trace as one segment or as any split
/// into contiguous segments is bit-identical — `simulate_observed` itself
/// is the single-segment instance of this API — because segment
/// boundaries carry over *all* state: the record clock keeps counting
/// globally (observer `on_record` indices never restart), in-flight
/// prefetches issued in one segment complete in the next, and the
/// prefetcher/fault-injector/observer are simply handed back in.
///
/// This is the state-hand-off half of the sharded full-matrix driver
/// (DESIGN.md §15): the matrix cells parallelize across worker threads,
/// while *within* one trace the segments stay sequential — each depends on
/// its predecessor's exact simulator state — and flow through one session.
pub struct SimSession {
    cfg: SimConfig,
    cores: Vec<CoreState>,
    llc: Cache,
    dram: Dram,
    inflight: InflightPrefetches,
    instructions: u64,
    prefetches_issued: u64,
    prefetches_useful: u64,
    late_merges: u64,
    llc_demand_misses: u64,
    /// Trace records replayed so far — the global record clock the next
    /// segment resumes from.
    records_done: u64,
    // Reused scratch buffers (allocation-stable across segments).
    pf_candidates: Vec<u64>,
    misfire_scratch: Vec<u64>,
    // Candidate attribution copied out of the prefetcher each access (the
    // prefetcher's tag buffer is invalidated by its next on_access call).
    tag_scratch: Vec<PrefetchTag>,
    // A fault-free segment's private-hierarchy outcomes, computed before
    // its replay, and the LLC records among them (the announced stream).
    private_outcomes: Vec<PrivateOutcome>,
    llc_stream: Vec<MemRecord>,
}

impl SimSession {
    pub fn new(cfg: &SimConfig) -> Self {
        SimSession {
            cfg: *cfg,
            cores: (0..cfg.num_cores)
                .map(|_| CoreState {
                    cycle: 0,
                    outstanding: BinaryHeap::new(),
                    prev_load_done: 0,
                    l1: Cache::new(cfg.l1_size, cfg.l1_assoc),
                    l2: Cache::new(cfg.l2_size, cfg.l2_assoc),
                })
                .collect(),
            llc: Cache::new(cfg.llc_size, cfg.llc_assoc),
            dram: Dram::new(cfg.dram),
            inflight: InflightPrefetches::default(),
            instructions: 0,
            prefetches_issued: 0,
            prefetches_useful: 0,
            late_merges: 0,
            llc_demand_misses: 0,
            records_done: 0,
            pf_candidates: Vec::with_capacity(16),
            misfire_scratch: Vec::new(),
            tag_scratch: Vec::with_capacity(16),
            private_outcomes: Vec::new(),
            llc_stream: Vec::new(),
        }
    }

    /// Records replayed so far, across all segments.
    pub fn records_done(&self) -> u64 {
        self.records_done
    }

    /// Replays one contiguous trace segment, resuming from the state the
    /// previous segment left behind. The prefetcher, fault injector, and
    /// observer are handed in per segment (they are the caller-owned half
    /// of the hand-off); observer record indices continue globally.
    ///
    /// Without a fault injector, the segment's private-cache step runs
    /// first, over the session's own L1/L2 state, and the records that
    /// reach the LLC are announced to the prefetcher
    /// ([`Prefetcher::announce_llc_stream`]) before the replay loop, which
    /// then reads each record's recorded outcome. L1 and L2 see demand
    /// accesses only, so taking that step ahead changes no state.
    pub fn run_segment(
        &mut self,
        segment: &[MemRecord],
        prefetcher: &mut dyn Prefetcher,
        mut faults: Option<&mut FaultInjector>,
        mut obs: Option<&mut dyn PrefetchObserver>,
    ) {
        let cfg = self.cfg;
        // Structured tracing is opt-in per observer; when off, the
        // prefetcher buffers nothing and this loop is byte-identical to
        // the untraced one.
        let tracing = obs.as_deref().is_some_and(|o| o.wants_trace_events());
        prefetcher.enable_trace_events(tracing);

        let announced = faults.is_none();
        self.private_outcomes.clear();
        self.llc_stream.clear();
        if announced {
            for r in segment {
                let core = &mut self.cores[(r.core as usize).min(cfg.num_cores - 1)];
                let outcome = private_step(&mut core.l1, &mut core.l2, r.block(), r.is_write);
                if outcome == PrivateOutcome::Llc {
                    self.llc_stream.push(*r);
                }
                self.private_outcomes.push(outcome);
            }
            prefetcher.announce_llc_stream(&self.llc_stream);
        }

        for (i, raw) in segment.iter().enumerate() {
            let ri = self.records_done + i as u64;
            if tracing {
                if let Some(o) = obs.as_deref_mut() {
                    o.on_record(ri);
                }
            }
            let injected = match faults.as_deref_mut() {
                Some(inj) => inj.corrupt_record(raw),
                None => *raw,
            };
            let r = &injected;
            let core_id = (r.core as usize).min(cfg.num_cores - 1);
            let core = &mut self.cores[core_id];
            let block = r.block();

            // Front end: the gap instructions plus the memory instruction.
            let insts = r.gap as u64 + 1;
            self.instructions += insts;
            core.cycle += insts.div_ceil(cfg.issue_width);

            // Dependent access: its address comes from the previous load's
            // data, so it cannot issue until that load completes.
            if r.dep {
                core.cycle = core.cycle.max(core.prev_load_done);
            }

            // Retire completed misses; stall when the LSQ window is full.
            while let Some(&std::cmp::Reverse(done)) = core.outstanding.peek() {
                if done <= core.cycle || core.outstanding.len() >= cfg.lsq_entries {
                    core.cycle = core
                        .cycle
                        .max(if core.outstanding.len() >= cfg.lsq_entries {
                            done
                        } else {
                            core.cycle
                        });
                    core.outstanding.pop();
                } else {
                    break;
                }
            }

            // ---------------------- L1 / L2 -----------------------
            let outcome = if announced {
                self.private_outcomes[i]
            } else {
                private_step(&mut core.l1, &mut core.l2, block, r.is_write)
            };
            if outcome == PrivateOutcome::L1Hit {
                if !r.is_write {
                    core.prev_load_done = core.cycle + cfg.l1_latency;
                }
                continue; // pipelined L1 hit: no retire stall
            }
            let mut t = core.cycle + cfg.l1_latency + cfg.l2_latency;
            if outcome == PrivateOutcome::L2Hit {
                if !r.is_write {
                    core.outstanding.push(std::cmp::Reverse(t));
                    core.prev_load_done = t;
                }
                continue;
            }

            // ------------------------- LLC ------------------------
            t += cfg.llc_latency;
            let lookup = self.llc.access(block, false);
            let hit = lookup != Lookup::Miss;
            let completion = match lookup {
                Lookup::HitPrefetched => {
                    // If the prefetch is still in flight, the demand pays the
                    // residual latency (a *late* prefetch). Prefetches issued
                    // off a stale inference (see `InflightPrefetches`) count as
                    // demand misses: the data was coming no sooner than a fresh
                    // fetch would have brought it.
                    if let Some((ready, timely)) = self.inflight.take_ready(block) {
                        let late = ready > t;
                        if late {
                            self.late_merges += 1;
                        }
                        if timely {
                            self.prefetches_useful += 1;
                        } else {
                            self.llc_demand_misses += 1;
                        }
                        if let Some(o) = obs.as_deref_mut() {
                            // Untimely merges failed to hide any latency:
                            // classify them late alongside in-flight merges.
                            o.on_useful(block, late || !timely);
                            if !timely {
                                o.on_demand_miss(prefetcher.current_phase_id());
                            }
                        }
                        t.max(ready)
                    } else {
                        self.prefetches_useful += 1;
                        if let Some(o) = obs.as_deref_mut() {
                            o.on_useful(block, false);
                        }
                        t
                    }
                }
                Lookup::Hit => {
                    self.inflight.take_ready(block);
                    t
                }
                Lookup::Miss => {
                    self.llc_demand_misses += 1;
                    let done = self.dram.request(block, t);
                    let victim = self.llc.insert(block, false, false);
                    if let Some(o) = obs.as_deref_mut() {
                        o.on_demand_miss(prefetcher.current_phase_id());
                        o.on_memory_latency(done.saturating_sub(t));
                        if let Some(v) = victim {
                            if v.unused_prefetch {
                                o.on_useless_evict(v.block);
                            }
                        }
                    }
                    done
                }
            };
            if !r.is_write {
                core.outstanding.push(std::cmp::Reverse(completion));
                core.prev_load_done = completion;
            }

            // --------------------- Prefetcher ---------------------
            self.pf_candidates.clear();
            // Detector misfire: a phantom access perturbs the prefetcher's
            // observation state; anything it predicts off it is discarded.
            if let Some(inj) = faults.as_deref_mut() {
                if let Some((fake_pc, fake_block)) = inj.detector_misfire() {
                    self.misfire_scratch.clear();
                    let phantom = LlcAccess {
                        pc: fake_pc,
                        block: fake_block,
                        core: r.core,
                        is_write: false,
                        hit: false,
                        cycle: core.cycle,
                    };
                    prefetcher.on_access(&phantom, &mut self.misfire_scratch);
                }
            }
            let acc = LlcAccess {
                pc: r.pc,
                block,
                core: r.core,
                is_write: r.is_write,
                hit,
                cycle: core.cycle,
            };
            // Wall-clock timing is observational only: it is measured solely
            // when an observer is attached and never feeds back into any
            // simulation state, so observed runs stay bit-identical.
            let wall_start = obs.as_ref().map(|_| std::time::Instant::now());
            prefetcher.on_access(&acc, &mut self.pf_candidates);
            let wall_ns = wall_start.map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            if obs.is_some() {
                self.tag_scratch.clear();
                self.tag_scratch
                    .extend_from_slice(prefetcher.last_batch_tags());
            }
            if let Some(inj) = faults.as_deref_mut() {
                inj.mutate_candidates(&mut self.pf_candidates);
            }
            let stall = faults.as_deref_mut().map_or(0, |inj| inj.inference_stall());
            let inference_lat = prefetcher.effective_latency(stall);
            let issue_at = t + inference_lat;
            if let Some(o) = obs.as_deref_mut() {
                o.on_inference_latency(inference_lat);
                if let Some(ns) = wall_ns {
                    o.on_inference_wall_ns(ns);
                }
                // Drain after `effective_latency` so deadline-monitor events
                // (guard trips on the inference path) ride the same access.
                if tracing {
                    for &ev in prefetcher.pending_trace_events() {
                        o.on_trace_event(ri, ev);
                    }
                }
            }
            // Timeliness bound: an inference slower than an uncontended DRAM
            // round trip cannot beat a demand fetch for the same line.
            let timely = inference_lat
                <= cfg.dram.t_rp + cfg.dram.t_rcd + cfg.dram.t_cas + cfg.dram.bus_cycles;
            let mut issued_now = 0usize;
            for (ci, &pf_block) in self.pf_candidates.iter().enumerate() {
                // Fault mutation can desync candidates from their tags; fall
                // back to the unattributed tag rather than misattribute.
                let tag = if self.tag_scratch.len() == self.pf_candidates.len() {
                    self.tag_scratch.get(ci).copied().unwrap_or_default()
                } else {
                    PrefetchTag::default()
                };
                if issued_now >= cfg.max_prefetch_degree {
                    match obs.as_deref_mut() {
                        Some(o) => {
                            o.on_dropped(pf_block, tag, DropReason::DegreeCap);
                            continue;
                        }
                        None => break,
                    }
                }
                let drop_reason = if pf_block == block {
                    Some(DropReason::SelfBlock)
                } else if self.llc.contains(pf_block) {
                    Some(DropReason::InCache)
                } else if self.inflight.contains(pf_block) {
                    Some(DropReason::InFlight)
                } else {
                    None
                };
                if let Some(reason) = drop_reason {
                    if let Some(o) = obs.as_deref_mut() {
                        o.on_dropped(pf_block, tag, reason);
                    }
                    continue;
                }
                let ready = self.dram.request(pf_block, issue_at);
                let victim = self.llc.insert(pf_block, true, false);
                self.inflight.insert(pf_block, ready, timely);
                self.prefetches_issued += 1;
                issued_now += 1;
                if let Some(o) = obs.as_deref_mut() {
                    o.on_issued(pf_block, tag, timely);
                    if let Some(v) = victim {
                        if v.unused_prefetch {
                            o.on_useless_evict(v.block);
                        }
                    }
                }
            }
            self.inflight.sweep(core.cycle);
        }
        self.records_done += segment.len() as u64;
    }

    /// Drains the pipelines and produces the final [`SimResult`]. The run
    /// ends when the slowest core has retired everything; the prefetcher
    /// and fault injector are read (not consumed) so the caller can keep
    /// reusing them across matrix cells.
    pub fn finish(
        mut self,
        prefetcher: &dyn Prefetcher,
        faults: Option<&FaultInjector>,
    ) -> SimResult {
        let mut cycles = 0u64;
        for core in &mut self.cores {
            let mut last = core.cycle;
            while let Some(std::cmp::Reverse(done)) = core.outstanding.pop() {
                last = last.max(done);
            }
            cycles = cycles.max(last);
        }

        let (l1, l2) = self.cores.iter().fold(
            (CacheStats::default(), CacheStats::default()),
            |(mut a, mut b), c| {
                a.hits += c.l1.stats.hits;
                a.misses += c.l1.stats.misses;
                b.hits += c.l2.stats.hits;
                b.misses += c.l2.stats.misses;
                (a, b)
            },
        );

        SimResult {
            prefetcher: prefetcher.name(),
            instructions: self.instructions,
            cycles: cycles.max(1),
            l1,
            l2,
            llc: self.llc.stats,
            dram: self.dram.stats,
            prefetches_issued: self.prefetches_issued,
            prefetches_useful: self.prefetches_useful,
            late_prefetch_merges: self.late_merges,
            llc_demand_misses: self.llc_demand_misses,
            faults: faults.map(|f| f.stats).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NullPrefetcher;

    fn record(pc: u64, vaddr: u64, core: u8) -> MemRecord {
        MemRecord {
            pc,
            vaddr,
            core,
            is_write: false,
            phase: 0,
            gap: 3,
            dep: false,
        }
    }

    /// A trivially clairvoyant next-line prefetcher for engine testing.
    struct NextLine;
    impl Prefetcher for NextLine {
        fn name(&self) -> String {
            "next-line".into()
        }
        fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
            out.extend((1..=4).map(|d| a.block + d));
        }
    }

    fn sequential_trace(n: usize) -> Vec<MemRecord> {
        (0..n)
            .map(|i| record(0x400000, 0x10_0000_0000 + i as u64 * 64, 0))
            .collect()
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let trace = sequential_trace(5000);
        let r = simulate(&trace, &mut NullPrefetcher, &SimConfig::default());
        let ipc = r.ipc();
        // Single-core trace: bounded by the 4-wide front end.
        assert!(ipc > 0.0 && ipc <= 4.0, "ipc {ipc}");
        assert_eq!(
            r.instructions,
            trace.iter().map(|t| 1 + t.gap as u64).sum::<u64>()
        );
    }

    #[test]
    fn next_line_prefetcher_improves_sequential_ipc() {
        let trace = sequential_trace(20_000);
        let base = simulate(&trace, &mut NullPrefetcher, &SimConfig::default());
        let pf = simulate(&trace, &mut NextLine, &SimConfig::default());
        assert!(
            pf.ipc() > base.ipc(),
            "prefetch {} <= base {}",
            pf.ipc(),
            base.ipc()
        );
        assert!(pf.accuracy() > 0.8, "accuracy {}", pf.accuracy());
        assert!(pf.coverage() > 0.5, "coverage {}", pf.coverage());
        assert!(pf.ipc_improvement(&base) > 0.0);
    }

    #[test]
    fn prefetches_deduplicate() {
        // Same access repeated: prefetch candidates already in LLC are not
        // reissued.
        let trace: Vec<MemRecord> = (0..100).map(|_| record(1, 0x10_0000_0000, 0)).collect();
        let r = simulate(&trace, &mut NextLine, &SimConfig::default());
        assert!(r.prefetches_issued <= 4, "issued {}", r.prefetches_issued);
    }

    #[test]
    fn cache_hierarchy_filters_accesses() {
        let trace = sequential_trace(1000);
        let r = simulate(&trace, &mut NullPrefetcher, &SimConfig::default());
        // Every access touches L1; only L1 misses reach L2; only L2 misses
        // reach the LLC.
        assert_eq!(r.l1.accesses(), 1000);
        assert_eq!(r.l2.accesses(), r.l1.misses);
        assert_eq!(r.llc.accesses(), r.l2.misses);
        assert!(r.llc.accesses() > 0);
    }

    #[test]
    fn repeated_working_set_hits_in_cache() {
        // Second pass over a small working set must hit.
        let mut trace = sequential_trace(100);
        trace.extend(sequential_trace(100));
        let r = simulate(&trace, &mut NullPrefetcher, &SimConfig::default());
        assert_eq!(r.llc.misses, 100);
        assert!(r.l1.hits >= 100);
    }

    #[test]
    fn multi_core_traces_use_private_l1s() {
        // Two cores touching the same block each miss privately once.
        let trace = vec![record(1, 0x10_0000_0000, 0), record(1, 0x10_0000_0000, 1)];
        let r = simulate(&trace, &mut NullPrefetcher, &SimConfig::default());
        assert_eq!(r.l1.misses, 2);
        // But the second core hits in the shared LLC.
        assert_eq!(r.llc.misses, 1);
        assert_eq!(r.llc.hits, 1);
    }

    #[test]
    fn prefetcher_latency_delays_benefit() {
        struct SlowNextLine;
        impl Prefetcher for SlowNextLine {
            fn name(&self) -> String {
                "slow".into()
            }
            fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
                out.push(a.block + 1);
            }
            fn latency(&self) -> u64 {
                100_000 // absurd latency: prefetches always arrive late
            }
        }
        let trace = sequential_trace(3000);
        let fast = simulate(&trace, &mut NextLine, &SimConfig::default());
        let slow = simulate(&trace, &mut SlowNextLine, &SimConfig::default());
        assert!(
            slow.ipc() < fast.ipc(),
            "slow {} >= fast {}",
            slow.ipc(),
            fast.ipc()
        );
        assert!(slow.late_prefetch_merges > 0);
    }

    #[test]
    fn dependent_loads_serialize_and_prefetching_rescues_them() {
        // Alternating producer (sequential, cold) → dependent consumer
        // (random, cold): with dep=true the consumer waits for the
        // producer's DRAM fill, so IPC craters vs the same trace with
        // dep=false; prefetching the producers restores most of it.
        let make = |dep: bool| -> Vec<MemRecord> {
            let mut v = Vec::new();
            let mut x = 0x2345u64;
            for i in 0..6000u64 {
                v.push(record(1, 0x10_0000_0000 + i * 64, 0)); // producer
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut c = record(2, 0x20_0000_0000 + (x % 500_000) * 64, 0);
                c.dep = dep;
                v.push(c); // consumer
            }
            v
        };
        let cfg = SimConfig::default();
        let independent = simulate(&make(false), &mut NullPrefetcher, &cfg);
        let dependent = simulate(&make(true), &mut NullPrefetcher, &cfg);
        assert!(
            dependent.ipc() < 0.7 * independent.ipc(),
            "dep {} vs indep {}",
            dependent.ipc(),
            independent.ipc()
        );
        // Prefetch the producers: consumers' wait shrinks to the LLC hit.
        let with_pf = simulate(&make(true), &mut NextLine, &cfg);
        assert!(
            with_pf.ipc() > dependent.ipc(),
            "prefetch {} vs dep {}",
            with_pf.ipc(),
            dependent.ipc()
        );
    }

    #[test]
    fn fault_injection_reports_and_degrades_gracefully() {
        use crate::fault::{FaultConfig, FaultInjector};
        let trace = sequential_trace(20_000);
        let clean = simulate(&trace, &mut NextLine, &SimConfig::default());
        let mut inj = FaultInjector::new(FaultConfig {
            corrupt_record_rate: 0.02,
            drop_prefetch_rate: 0.3,
            duplicate_prefetch_rate: 0.1,
            detector_misfire_rate: 0.05,
            stall_rate: 0.1,
            stall_cycles: 5_000,
            seed: 99,
        });
        let faulty =
            simulate_with_faults(&trace, &mut NextLine, &SimConfig::default(), Some(&mut inj));
        // Every class fired and is reported through the result.
        assert!(faulty.faults.records_corrupted > 0);
        assert!(faulty.faults.prefetches_dropped > 0);
        assert!(faulty.faults.prefetches_duplicated > 0);
        assert!(faulty.faults.detector_misfires > 0);
        assert!(faulty.faults.inference_stalls > 0);
        // Clean runs report zero faults.
        assert_eq!(clean.faults.total(), 0);
        // Dropped prefetches + stalls must hurt, not help.
        assert!(faulty.coverage() < clean.coverage());
        // Instruction count is preserved: corruption perturbs addresses,
        // never loses records.
        assert_eq!(
            faulty.instructions,
            trace.iter().map(|t| 1 + t.gap as u64).sum::<u64>()
        );
    }

    /// Counting observer for event-stream consistency checks.
    #[derive(Default)]
    struct CountingObserver {
        issued: u64,
        dropped: u64,
        useful: u64,
        late: u64,
        useless: u64,
        demand_misses: u64,
        inference_events: u64,
        wall_ns_events: u64,
        memory_events: u64,
    }
    impl PrefetchObserver for CountingObserver {
        fn on_issued(&mut self, _b: u64, _t: PrefetchTag, _timely: bool) {
            self.issued += 1;
        }
        fn on_dropped(&mut self, _b: u64, _t: PrefetchTag, _r: DropReason) {
            self.dropped += 1;
        }
        fn on_useful(&mut self, _b: u64, late: bool) {
            if late {
                self.late += 1;
            } else {
                self.useful += 1;
            }
        }
        fn on_useless_evict(&mut self, _b: u64) {
            self.useless += 1;
        }
        fn on_demand_miss(&mut self, _phase: u8) {
            self.demand_misses += 1;
        }
        fn on_inference_latency(&mut self, _c: u64) {
            self.inference_events += 1;
        }
        fn on_inference_wall_ns(&mut self, _ns: u64) {
            self.wall_ns_events += 1;
        }
        fn on_memory_latency(&mut self, _c: u64) {
            self.memory_events += 1;
        }
    }

    #[test]
    fn observer_events_match_sim_result_counters() {
        let trace = sequential_trace(20_000);
        let cfg = SimConfig::default();
        let mut o = CountingObserver::default();
        let r = simulate_observed(&trace, &mut NextLine, &cfg, None, Some(&mut o));
        // Zero-latency prefetcher: every issue is timely, so the observer's
        // classification must reconcile exactly with the engine's counters.
        assert_eq!(o.issued, r.prefetches_issued);
        assert_eq!(o.useful + o.late, r.prefetches_useful);
        assert_eq!(o.late, r.late_prefetch_merges);
        assert_eq!(o.demand_misses, r.llc_demand_misses);
        assert_eq!(o.memory_events, r.llc_demand_misses);
        assert_eq!(o.inference_events, r.llc.accesses());
        // Every inference event carries a wall-clock measurement.
        assert_eq!(o.wall_ns_events, o.inference_events);
        assert!(o.issued > 0 && o.useful + o.late > 0);
        // Dropped candidates exist (next-line overlaps in-flight lines).
        assert!(o.dropped > 0);
    }

    #[test]
    fn observed_run_is_bit_identical_to_unobserved() {
        let trace = sequential_trace(8_000);
        let cfg = SimConfig::default();
        let plain = simulate(&trace, &mut NextLine, &cfg);
        let mut o = CountingObserver::default();
        let observed = simulate_observed(&trace, &mut NextLine, &cfg, None, Some(&mut o));
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.prefetches_issued, observed.prefetches_issued);
        assert_eq!(plain.prefetches_useful, observed.prefetches_useful);
        assert_eq!(plain.llc_demand_misses, observed.llc_demand_misses);
        // A trace-hungry observer is just as invisible to the simulation.
        let mut t = TracingObserver::default();
        let traced = simulate_observed(&trace, &mut NextLine, &cfg, None, Some(&mut t));
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.prefetches_issued, traced.prefetches_issued);
        assert_eq!(plain.prefetches_useful, traced.prefetches_useful);
        assert_eq!(plain.llc_demand_misses, traced.llc_demand_misses);
    }

    /// Observer that opts into structured tracing and records every
    /// (access index, event) pair plus the record clock.
    #[derive(Default)]
    struct TracingObserver {
        records: u64,
        last_record: u64,
        events: Vec<(u64, crate::TraceEvent)>,
    }
    impl PrefetchObserver for TracingObserver {
        fn wants_trace_events(&self) -> bool {
            true
        }
        fn on_record(&mut self, index: u64) {
            self.records += 1;
            self.last_record = index;
        }
        fn on_trace_event(&mut self, at: u64, event: crate::TraceEvent) {
            self.events.push((at, event));
        }
    }

    /// Prefetcher that emits one event per LLC access it sees, only while
    /// tracing is enabled — the contract every real emitter follows.
    #[derive(Default)]
    struct EventfulNextLine {
        trace_on: bool,
        events: Vec<crate::TraceEvent>,
        accesses_seen: u8,
    }
    impl Prefetcher for EventfulNextLine {
        fn name(&self) -> String {
            "eventful".into()
        }
        fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
            self.events.clear();
            if self.trace_on {
                self.accesses_seen = self.accesses_seen.wrapping_add(1);
                self.events.push(crate::TraceEvent::PhaseSelected {
                    phase: self.accesses_seen,
                });
            }
            out.push(a.block + 1);
        }
        fn enable_trace_events(&mut self, on: bool) {
            self.trace_on = on;
        }
        fn pending_trace_events(&self) -> &[crate::TraceEvent] {
            &self.events
        }
    }

    #[test]
    fn engine_stamps_trace_events_with_the_access_index() {
        let trace = sequential_trace(512);
        let cfg = SimConfig::default();
        let mut t = TracingObserver::default();
        let r = simulate_observed(
            &trace,
            &mut EventfulNextLine::default(),
            &cfg,
            None,
            Some(&mut t),
        );
        // The record clock ticked once per trace record, L1 hits included.
        assert_eq!(t.records, trace.len() as u64);
        assert_eq!(t.last_record, trace.len() as u64 - 1);
        // One event per *LLC* access (the prefetcher sees only those), each
        // stamped with a valid, non-decreasing record index.
        assert_eq!(t.events.len(), r.llc.accesses() as usize);
        assert!(!t.events.is_empty());
        let mut prev = 0u64;
        for &(at, ev) in &t.events {
            assert!(at >= prev && at < trace.len() as u64);
            prev = at;
            assert!(matches!(ev, crate::TraceEvent::PhaseSelected { .. }));
        }
        // Without a tracing observer the same prefetcher buffers nothing.
        let mut quiet = EventfulNextLine::default();
        let mut o = CountingObserver::default();
        let _ = simulate_observed(&trace, &mut quiet, &cfg, None, Some(&mut o));
        assert!(!quiet.trace_on);
        assert_eq!(quiet.accesses_seen, 0);
    }

    /// Replaying a trace in contiguous segments through one `SimSession`
    /// must be bit-identical to the one-shot path — the state hand-off
    /// contract the sharded matrix driver builds on.
    #[test]
    fn segmented_replay_is_bit_identical_to_one_shot() {
        let trace = sequential_trace(12_000);
        let cfg = SimConfig::default();
        let one_shot = simulate(&trace, &mut NextLine, &cfg);
        for splits in [
            vec![1usize],
            vec![6_000],
            vec![137],
            vec![11_999],
            vec![3_000, 6_000, 9_000],
            vec![1, 2, 3, 11_000],
        ] {
            let mut session = SimSession::new(&cfg);
            let mut pf = NextLine;
            let mut start = 0usize;
            for &end in splits.iter().chain(std::iter::once(&trace.len())) {
                session.run_segment(&trace[start..end], &mut pf, None, None);
                assert_eq!(session.records_done(), end as u64);
                start = end;
            }
            let seg = session.finish(&pf, None);
            assert_eq!(seg.cycles, one_shot.cycles, "splits {splits:?}");
            assert_eq!(seg.instructions, one_shot.instructions);
            assert_eq!(seg.prefetches_issued, one_shot.prefetches_issued);
            assert_eq!(seg.prefetches_useful, one_shot.prefetches_useful);
            assert_eq!(seg.late_prefetch_merges, one_shot.late_prefetch_merges);
            assert_eq!(seg.llc_demand_misses, one_shot.llc_demand_misses);
            assert_eq!(seg.l1.hits, one_shot.l1.hits);
            assert_eq!(seg.l1.misses, one_shot.l1.misses);
            assert_eq!(seg.l2.hits, one_shot.l2.hits);
            assert_eq!(seg.l2.misses, one_shot.l2.misses);
            assert_eq!(seg.llc.hits, one_shot.llc.hits);
            assert_eq!(seg.llc.misses, one_shot.llc.misses);
        }
    }

    /// Observer record indices keep counting globally across segments: the
    /// second segment's first `on_record` continues where the first ended.
    #[test]
    fn segmented_replay_preserves_global_record_indices() {
        let trace = sequential_trace(1024);
        let cfg = SimConfig::default();
        let mut whole = TracingObserver::default();
        let _ = simulate_observed(
            &trace,
            &mut EventfulNextLine::default(),
            &cfg,
            None,
            Some(&mut whole),
        );

        let mut session = SimSession::new(&cfg);
        let mut pf = EventfulNextLine::default();
        let mut seg_obs = TracingObserver::default();
        session.run_segment(&trace[..300], &mut pf, None, Some(&mut seg_obs));
        session.run_segment(&trace[300..], &mut pf, None, Some(&mut seg_obs));
        let _ = session.finish(&pf, None);
        assert_eq!(seg_obs.records, whole.records);
        assert_eq!(seg_obs.last_record, whole.last_record);
        assert_eq!(seg_obs.events, whole.events);
    }

    #[test]
    fn degree_cap_limits_issue() {
        struct Flood;
        impl Prefetcher for Flood {
            fn name(&self) -> String {
                "flood".into()
            }
            fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
                out.extend((1..=100).map(|d| a.block + d * 1000));
            }
        }
        let trace = sequential_trace(10);
        let cfg = SimConfig::default();
        let r = simulate(&trace, &mut Flood, &cfg);
        assert!(r.prefetches_issued <= 10 * cfg.max_prefetch_degree as u64);
    }
}
