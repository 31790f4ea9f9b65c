//! Workload construction shared by every experiment: build the synthetic
//! dataset, trace the (framework, application) pair over it, and split the
//! trace into the training iteration and the evaluation stream exactly as
//! the paper's workflow prescribes (Figure 6: train on the first iteration,
//! test on the following ten).

use crate::scale::ExpScale;
use mpgraph_frameworks::{generate_trace, App, Framework, MemRecord, Trace, TraceConfig};
use mpgraph_graph::{standin, Csr, Dataset};
use mpgraph_sim::llc_filter_indexed;

/// A traced workload with its train/test split.
#[derive(Debug)]
pub struct Workload {
    pub framework: Framework,
    pub app: App,
    pub dataset: Dataset,
    pub num_phases: usize,
    /// Raw records of the first iteration.
    pub train: Vec<MemRecord>,
    /// Raw records of the remaining iterations (simulator input).
    pub test: Vec<MemRecord>,
    /// LLC-level view of `train` — what the prefetcher's models see, and
    /// therefore what they train on (Figure 6's extracted LLC trace).
    pub train_llc: Vec<MemRecord>,
    /// LLC-level view of `test` (prediction-metric input, Tables 6/7).
    /// It is *not* the LLC stream a replay of `test` presents: it is
    /// filtered with private caches warmed by the training iteration,
    /// while `simulate(&w.test, …)` starts them cold (GPOP/BFS at quick
    /// scale: 3,873 records here against 4,003 LLC accesses in the
    /// engine, and across the quick matrix the two agree only on their
    /// first 0–109 accesses). The simulator announces its own stream
    /// (`Prefetcher::announce_llc_stream`); never substitute this one.
    pub test_llc: Vec<MemRecord>,
}

impl Workload {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.framework.name(),
            self.app.name(),
            self.dataset.name()
        )
    }
}

/// Splits a trace at the end of its first iteration.
pub fn split_trace(trace: &Trace, eval_cap: usize) -> (Vec<MemRecord>, Vec<MemRecord>) {
    let split = trace
        .iteration_starts
        .get(1)
        .copied()
        .unwrap_or(trace.records.len() / 2);
    let train = trace.records[..split].to_vec();
    let test_all = &trace.records[split..];
    let test = test_all[..test_all.len().min(eval_cap)].to_vec();
    (train, test)
}

/// Builds the graph for `dataset` at the experiment scale.
pub fn build_graph(dataset: Dataset, scale: &ExpScale) -> Csr {
    standin(
        dataset,
        scale.graph_div,
        0xC0DE ^ dataset.name().len() as u64,
    )
}

/// Traces one (framework, app, dataset) cell and splits it.
pub fn build_workload(
    framework: Framework,
    app: App,
    dataset: Dataset,
    scale: &ExpScale,
) -> Workload {
    let g = build_graph(dataset, scale);
    let cfg = TraceConfig {
        iterations: scale.iterations,
        record_limit: scale.record_limit,
        ..TraceConfig::default()
    };
    let out = generate_trace(framework, app, &g, &cfg);
    let (train, test) = split_trace(&out.trace, scale.eval_records);
    // LLC-filter the whole trace in one pass (cache state is continuous
    // across the split), then cut at the same boundary.
    let sim_cfg = crate::runners::prefetching::sim_config();
    let split = out
        .trace
        .iteration_starts
        .get(1)
        .copied()
        .unwrap_or(out.trace.records.len() / 2);
    let test_end = split + test.len();
    let filtered = llc_filter_indexed(&out.trace.records[..test_end], &sim_cfg);
    let mut train_llc = Vec::new();
    let mut test_llc = Vec::new();
    for (idx, r) in filtered {
        if idx < split {
            train_llc.push(r);
        } else {
            test_llc.push(r);
        }
    }
    Workload {
        framework,
        app,
        dataset,
        num_phases: framework.num_phases() as usize,
        train,
        test,
        train_llc,
        test_llc,
    }
}

/// The carrier dataset for single-workload experiments: the first dataset
/// the scale configures (sparse by default, so a full iteration — with its
/// phase transitions and dependent gather loads — fits the eval window).
pub fn carrier(scale: &ExpScale) -> Dataset {
    scale.datasets.first().copied().unwrap_or(Dataset::Rmat)
}

/// All 12 (framework, app) cells of Tables 6/7 and Figures 10-12.
pub fn all_cells() -> Vec<(Framework, App)> {
    Framework::ALL
        .iter()
        .flat_map(|fw| fw.apps().iter().map(move |&app| (*fw, app)))
        .collect()
}

// ---------------------------------------------------------------------------
// Synthetic multi-phase workload subsystem
// ---------------------------------------------------------------------------

/// One phase of a synthetic access program: a configurable page working
/// set visited as a deterministic transition chain (page A → B → C → …,
/// wrapping), with a few sequential blocks touched per visit. The chain
/// structure is what the temporal lane of CSTP exists to exploit: every
/// page of the set stays resident in the PBOT while the page predictor
/// learns the transitions, so replaying one of these programs exercises
/// the full spatial × temporal prefetch path rather than just the
/// sequential-stride fast case.
#[derive(Debug, Clone)]
pub struct SynthPhase {
    pub name: &'static str,
    /// Page working set, visited in order (the page-transition chain).
    pub pages: Vec<u64>,
    /// Sequential 64-byte blocks touched per page visit.
    pub blocks_per_visit: usize,
    /// Full sweeps over the working set per phase occurrence.
    pub sweeps: usize,
    /// PC cluster base; accesses cycle over `pc_count` PCs above it, so
    /// the PC modality separates phases the way Figure 2b shows.
    pub pc_base: u64,
    pub pc_count: usize,
    /// Pages the chain starts from advance by this many positions each
    /// framework iteration — a BFS-style drifting frontier. 0 keeps the
    /// chain identical across iterations (PageRank-style fixed order).
    pub rotate_per_iteration: usize,
}

impl SynthPhase {
    fn emit(&self, iteration: usize, phase_id: u8, out: &mut Vec<MemRecord>) {
        let start = if self.pages.is_empty() {
            0
        } else {
            (iteration * self.rotate_per_iteration) % self.pages.len()
        };
        for sweep in 0..self.sweeps {
            for vi in 0..self.pages.len() {
                let page = self.pages[(start + vi) % self.pages.len()];
                for b in 0..self.blocks_per_visit {
                    // Rotate the per-visit offset with the sweep and the
                    // iteration so consecutive sweeps touch neighbouring
                    // (not identical) blocks — spatial deltas stay
                    // learnable without the stream degenerating into an
                    // exact replay.
                    let offset = (b + sweep + iteration) as u64 % 64;
                    out.push(MemRecord {
                        pc: self.pc_base + ((vi + b) as u64 % self.pc_count.max(1) as u64) * 4,
                        vaddr: page * 4096 + offset * 64,
                        core: 0,
                        is_write: false,
                        phase: phase_id,
                        gap: 1,
                        dep: false,
                    });
                }
            }
        }
    }
}

/// A full synthetic program: its phases run back to back once per
/// iteration, mirroring the scatter/gather (GPOP), hook/compress (CC) and
/// expand/contract (BFS) iteration structure of the traced frameworks.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    pub name: &'static str,
    pub phases: Vec<SynthPhase>,
    /// Framework iterations; the first becomes the training split.
    pub iterations: usize,
}

/// A generated synthetic workload with the Figure 6 train/test split.
#[derive(Debug)]
pub struct SynthWorkload {
    pub name: &'static str,
    pub num_phases: usize,
    /// First iteration (phase labels available offline — training input).
    pub train: Vec<MemRecord>,
    /// Remaining iterations (simulator / evaluation input).
    pub test: Vec<MemRecord>,
}

impl SynthConfig {
    /// Generates the records and splits at the first iteration boundary.
    pub fn generate(&self) -> SynthWorkload {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for it in 0..self.iterations.max(2) {
            let out = if it == 0 { &mut train } else { &mut test };
            for (pid, phase) in self.phases.iter().enumerate() {
                phase.emit(it, pid as u8, out);
            }
        }
        SynthWorkload {
            name: self.name,
            num_phases: self.phases.len().max(1),
            train,
            test,
        }
    }

    /// PageRank-style two-phase program (GPOP scatter/gather): a
    /// wide-jump scatter chain over spread-out source pages, then a dense
    /// gather chain over the accumulator pages. The scatter set's tail
    /// overlaps the gather set — the cross-phase reuse of the rank arrays
    /// that scatter writes and gather reads.
    pub fn pagerank_like() -> Self {
        let gather_pages: Vec<u64> = (0..8u64).map(|i| 600 + i).collect();
        let mut scatter_pages: Vec<u64> = (0..12u64).map(|i| 120 + 8 * i).collect();
        // Cross-phase reuse: scatter ends each sweep in the accumulators.
        scatter_pages.extend(gather_pages.iter().take(4));
        SynthConfig {
            name: "synthetic-pagerank",
            phases: vec![
                SynthPhase {
                    name: "scatter",
                    pages: scatter_pages,
                    blocks_per_visit: 3,
                    sweeps: 4,
                    pc_base: 0x40_0000,
                    pc_count: 5,
                    rotate_per_iteration: 0,
                },
                SynthPhase {
                    name: "gather",
                    pages: gather_pages,
                    blocks_per_visit: 8,
                    sweeps: 4,
                    pc_base: 0x41_0000,
                    pc_count: 5,
                    rotate_per_iteration: 0,
                },
            ],
            iterations: 6,
        }
    }

    /// BFS-style program: a fixed structure chain (CSR offsets +
    /// neighbour arrays, reread every iteration) and a frontier chain
    /// whose starting position drifts each iteration as the traversal
    /// advances through the vertex set.
    pub fn bfs_like() -> Self {
        SynthConfig {
            name: "synthetic-bfs",
            phases: vec![
                SynthPhase {
                    name: "expand",
                    pages: (0..10u64).map(|i| 300 + 4 * i).collect(),
                    blocks_per_visit: 4,
                    sweeps: 4,
                    pc_base: 0x42_0000,
                    pc_count: 4,
                    rotate_per_iteration: 3,
                },
                SynthPhase {
                    name: "contract",
                    pages: (0..6u64).map(|i| 500 + i).collect(),
                    blocks_per_visit: 6,
                    sweeps: 4,
                    pc_base: 0x43_0000,
                    pc_count: 4,
                    rotate_per_iteration: 0,
                },
            ],
            iterations: 6,
        }
    }

    /// Connected-components-style program (hook/compress): both phases
    /// walk the *same* component-label pages — maximal cross-phase reuse —
    /// but compress revisits them in a strided order, the pointer-jumping
    /// pattern that makes CC's second phase temporally rather than
    /// spatially local.
    pub fn cc_like() -> Self {
        let labels: Vec<u64> = (0..9u64).map(|i| 800 + i).collect();
        let compress_order: Vec<u64> = (0..9u64).map(|i| 800 + (i * 4) % 9).collect();
        SynthConfig {
            name: "synthetic-cc",
            phases: vec![
                SynthPhase {
                    name: "hook",
                    pages: labels,
                    blocks_per_visit: 5,
                    sweeps: 4,
                    pc_base: 0x44_0000,
                    pc_count: 3,
                    rotate_per_iteration: 0,
                },
                SynthPhase {
                    name: "compress",
                    pages: compress_order,
                    blocks_per_visit: 5,
                    sweeps: 4,
                    pc_base: 0x45_0000,
                    pc_count: 3,
                    rotate_per_iteration: 0,
                },
            ],
            iterations: 6,
        }
    }

    /// All three presets (one per modelled application archetype).
    pub fn presets() -> Vec<SynthConfig> {
        vec![
            SynthConfig::pagerank_like(),
            SynthConfig::bfs_like(),
            SynthConfig::cc_like(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_cells_exactly() {
        let cells = all_cells();
        assert_eq!(cells.len(), 12);
        assert!(cells.contains(&(Framework::PowerGraph, App::Tc)));
        assert!(!cells.contains(&(Framework::Gpop, App::Tc)));
    }

    #[test]
    fn synth_presets_are_multi_phase_and_multi_page() {
        for cfg in SynthConfig::presets() {
            let w = cfg.generate();
            assert_eq!(w.num_phases, 2, "{}", w.name);
            assert!(!w.train.is_empty() && !w.test.is_empty(), "{}", w.name);
            // Training split is exactly one iteration; test holds the rest.
            assert!(w.test.len() >= 4 * w.train.len(), "{}", w.name);
            let phases: std::collections::HashSet<u8> = w.train.iter().map(|r| r.phase).collect();
            assert_eq!(phases.len(), 2, "{} train split misses a phase", w.name);
            for split in [&w.train, &w.test] {
                let pages: std::collections::HashSet<u64> =
                    split.iter().map(|r| r.page()).collect();
                assert!(pages.len() >= 6, "{} working set too small", w.name);
            }
            // Phases are PC-separable (the Figure 2b property detectors
            // rely on): the phase PC clusters must not overlap.
            let pcs = |ph: u8| -> std::collections::HashSet<u64> {
                w.test
                    .iter()
                    .filter(|r| r.phase == ph)
                    .map(|r| r.pc)
                    .collect()
            };
            assert!(pcs(0).is_disjoint(&pcs(1)), "{}", w.name);
        }
    }

    #[test]
    fn synth_chains_revisit_pages_within_and_across_phases() {
        // Page-transition chains: consecutive sweeps revisit every page,
        // so each page of the working set recurs many times — that is
        // what keeps the PBOT primed.
        let w = SynthConfig::pagerank_like().generate();
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for r in &w.test {
            *counts.entry(r.page()).or_default() += 1;
        }
        assert!(counts.values().all(|&c| c >= 8), "pages not revisited");
        // Cross-phase reuse: some pages appear under both phase labels.
        let p0: std::collections::HashSet<u64> = w
            .test
            .iter()
            .filter(|r| r.phase == 0)
            .map(|r| r.page())
            .collect();
        let p1: std::collections::HashSet<u64> = w
            .test
            .iter()
            .filter(|r| r.phase == 1)
            .map(|r| r.page())
            .collect();
        assert!(p0.intersection(&p1).count() >= 4, "no cross-phase reuse");
    }

    #[test]
    fn bfs_frontier_drifts_across_iterations() {
        let cfg = SynthConfig::bfs_like();
        let w = cfg.generate();
        // The expand phase rotates its chain start each iteration: the
        // first expand page of iteration 1 differs from iteration 2's.
        let first_page_of = |records: &[MemRecord], skip_phases: usize| {
            records
                .iter()
                .scan((0u8, 0usize), |state, r| {
                    if r.phase != state.0 {
                        state.0 = r.phase;
                        state.1 += 1;
                    }
                    Some((state.1, r))
                })
                .find(|&(seen, r)| seen == skip_phases && r.phase == 0)
                .map(|(_, r)| r.page())
        };
        let it1 = first_page_of(&w.test, 0);
        let it2 = first_page_of(&w.test, 2);
        assert_ne!(it1, it2, "frontier did not drift");
    }

    #[test]
    fn workload_split_respects_iteration_boundary() {
        let scale = ExpScale::quick();
        let w = build_workload(Framework::Gpop, App::Pr, Dataset::Rmat, &scale);
        assert!(!w.train.is_empty());
        assert!(!w.test.is_empty());
        assert!(w.test.len() <= scale.eval_records);
        assert_eq!(w.num_phases, 2);
        // The training slice is exactly one iteration: its phase sequence
        // starts at phase 0 and covers both phases.
        assert_eq!(w.train[0].phase, 0);
        let phases: std::collections::HashSet<u8> = w.train.iter().map(|r| r.phase).collect();
        assert_eq!(phases.len(), 2);
        assert!(!w.label().is_empty());
    }
}
