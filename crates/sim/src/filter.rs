//! LLC trace extraction (the paper's Figure 6 workflow): "we use ChampSim
//! to extract the shared LLC memory access trace". The prefetcher — and
//! therefore every model trained for it — observes only the accesses that
//! miss the private L1/L2 caches, so training data must be filtered
//! through the same hierarchy the deployment sees.

use crate::cache::{Cache, Lookup};
use crate::engine::SimConfig;
use mpgraph_frameworks::MemRecord;

/// Replays `trace` through per-core L1/L2 caches (no timing, no
/// prefetcher) and returns the subset of records that reach the shared
/// LLC, preserving order and all record fields.
pub fn llc_filter(trace: &[MemRecord], cfg: &SimConfig) -> Vec<MemRecord> {
    llc_filter_indexed(trace, cfg)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Like [`llc_filter`] but keeps each surviving record's index in the
/// original trace, so callers can split the filtered stream at the same
/// boundaries (e.g. iteration starts) as the raw one.
pub fn llc_filter_indexed(trace: &[MemRecord], cfg: &SimConfig) -> Vec<(usize, MemRecord)> {
    let mut l1: Vec<Cache> = (0..cfg.num_cores)
        .map(|_| Cache::new(cfg.l1_size, cfg.l1_assoc))
        .collect();
    let mut l2: Vec<Cache> = (0..cfg.num_cores)
        .map(|_| Cache::new(cfg.l2_size, cfg.l2_assoc))
        .collect();
    let mut out = Vec::new();
    for (i, r) in trace.iter().enumerate() {
        let core = (r.core as usize).min(cfg.num_cores - 1);
        if private_step(&mut l1[core], &mut l2[core], r.block(), r.is_write) == PrivateOutcome::Llc
        {
            out.push((i, *r));
        }
    }
    out
}

/// Where a core's private hierarchy served one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateOutcome {
    L1Hit,
    L2Hit,
    /// Missed both private levels: the access reaches the shared LLC.
    Llc,
}

/// One demand access through a core's private L1 and L2: the lookups plus
/// the demand fills. The simulator's replay loop and [`llc_filter`] both
/// take this step, so the LLC stream they see cannot drift apart. The
/// private levels are filled only on demand (prefetches land in the LLC),
/// so every outcome is a function of the core's record stream alone —
/// which is what lets [`crate::SimSession`] compute a segment's LLC stream
/// before replaying it.
pub fn private_step(l1: &mut Cache, l2: &mut Cache, block: u64, is_write: bool) -> PrivateOutcome {
    if l1.access(block, is_write) != Lookup::Miss {
        return PrivateOutcome::L1Hit;
    }
    if l2.access(block, false) != Lookup::Miss {
        l1.insert(block, false, is_write);
        return PrivateOutcome::L2Hit;
    }
    l2.insert(block, false, false);
    l1.insert(block, false, is_write);
    PrivateOutcome::Llc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vaddr: u64, core: u8) -> MemRecord {
        MemRecord {
            pc: 0x400000,
            vaddr,
            core,
            is_write: false,
            phase: 0,
            gap: 1,
            dep: false,
        }
    }

    #[test]
    fn repeated_hot_block_filtered_to_one() {
        let trace: Vec<MemRecord> = (0..100).map(|_| rec(0x10_0000, 0)).collect();
        let f = llc_filter(&trace, &SimConfig::default());
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn cold_stream_passes_through_once_per_block() {
        let trace: Vec<MemRecord> = (0..100).map(|i| rec(0x10_0000 + i * 64, 0)).collect();
        let f = llc_filter(&trace, &SimConfig::default());
        assert_eq!(f.len(), 100);
    }

    /// Records what the engine presents to a prefetcher: the announced
    /// stream and the `on_access` sequence.
    #[derive(Default)]
    struct Recorder {
        announced: Vec<(u64, u64, u8)>,
        accessed: Vec<(u64, u64, u8)>,
    }
    impl crate::Prefetcher for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }
        fn on_access(&mut self, a: &crate::LlcAccess, _out: &mut Vec<u64>) {
            self.accessed.push((a.pc, a.block, a.core));
        }
        fn announce_llc_stream(&mut self, upcoming: &[MemRecord]) {
            self.announced
                .extend(upcoming.iter().map(|r| (r.pc, r.block(), r.core)));
        }
    }

    #[test]
    fn filter_matches_simulator_llc_access_count() {
        // The filter's output must be exactly the access sequence the
        // engine presents at the LLC — and announces ahead — even when the
        // replay is cut into segments that carry warm private caches over:
        // both take the same private-hierarchy step.
        let trace: Vec<MemRecord> = (0..5000)
            .map(|i| {
                let mut r = rec(0x10_0000 + (i * 37 % 3000) * 64, (i % 4) as u8);
                r.pc = 0x40_0000 + (i % 7) * 4;
                r
            })
            .collect();
        let cfg = SimConfig::default();
        let f = llc_filter(&trace, &cfg);
        let r = crate::engine::simulate(&trace, &mut crate::prefetch::NullPrefetcher, &cfg);
        assert_eq!(f.len() as u64, r.llc.accesses());
        let expected: Vec<(u64, u64, u8)> = f.iter().map(|r| (r.pc, r.block(), r.core)).collect();
        let mut session = crate::SimSession::new(&cfg);
        let mut pf = Recorder::default();
        for seg in [&trace[..1_700], &trace[1_700..3_900], &trace[3_900..]] {
            session.run_segment(seg, &mut pf, None, None);
        }
        let seg = session.finish(&pf, None);
        assert_eq!(seg.llc.accesses(), r.llc.accesses());
        assert_eq!(pf.accessed, expected);
        assert_eq!(pf.announced, expected);
    }

    #[test]
    fn indexed_filter_preserves_original_positions() {
        let trace: Vec<MemRecord> = (0..50).map(|i| rec(0x10_0000 + i * 64, 0)).collect();
        let f = llc_filter_indexed(&trace, &SimConfig::default());
        for (idx, r) in &f {
            assert_eq!(trace[*idx], *r);
        }
        // Indices strictly increase.
        assert!(f.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn private_caches_are_per_core() {
        // Two cores touching the same block: both reach the LLC once.
        let trace = vec![rec(0x10_0000, 0), rec(0x10_0000, 1)];
        let f = llc_filter(&trace, &SimConfig::default());
        assert_eq!(f.len(), 2);
    }
}
