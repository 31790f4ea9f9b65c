//! Look-ahead MPGraph replay (DESIGN.md §19) against the per-access path:
//! for every combo of the matrix, replaying with the LLC stream announced
//! (fused, deduplicated windows) and without it (one access at a time)
//! must produce the same simulation, the same snapshot bytes and the same
//! trace bytes.

use mpgraph_bench::runners::prefetching::mpgraph_cfg;
use mpgraph_bench::scale::ExpScale;
use mpgraph_bench::shard::{full_matrix, replay_traced};
use mpgraph_bench::workload::build_workload;
use mpgraph_core::{build_detector, chrome_trace_json_sharded, train_mpgraph, MpGraphPrefetcher};
use mpgraph_sim::{LlcAccess, PrefetchTag, Prefetcher, TraceEvent};

/// The shard-equivalence scale: one training iteration plus a short
/// evaluation stream per combo.
fn tiny() -> ExpScale {
    ExpScale {
        record_limit: 24_000,
        eval_records: 8_000,
        ..ExpScale::quick()
    }
}

/// Forwards every call but the stream announcement, so the wrapped
/// prefetcher serves each access through a window of one.
struct PerAccess<'a>(&'a mut MpGraphPrefetcher);

impl Prefetcher for PerAccess<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        self.0.on_access(a, out)
    }
    fn latency(&self) -> u64 {
        self.0.latency()
    }
    fn effective_latency(&mut self, injected_stall: u64) -> u64 {
        self.0.effective_latency(injected_stall)
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

#[test]
fn lookahead_replay_is_bit_identical_to_per_access() {
    let scale = tiny();
    for combo in full_matrix(&scale) {
        let label = combo.label();
        let w = build_workload(combo.framework, combo.app, combo.dataset, &scale);
        let trained = train_mpgraph(&w.train_llc, w.num_phases, mpgraph_cfg(), &scale.train);
        // An untouched twin of the trained prefetcher: same weights, a
        // freshly built (deterministic) detector, same rollback record.
        let twin = || {
            let mut pf = MpGraphPrefetcher::from_parts(
                trained.delta.clone(),
                trained.page.clone(),
                build_detector(&w.train_llc, w.num_phases, mpgraph_cfg().detector),
                mpgraph_cfg(),
                w.num_phases,
                scale.train.history,
            );
            pf.train_rollback_events = trained.train_rollback_events.clone();
            pf
        };
        // Several segments per stream, so windows meet segment ends.
        for segment_len in [3_000, 50_000] {
            let mut windowed = twin();
            let (a_sim, mut a_snap, a_trace) = replay_traced(combo, &w, &mut windowed, segment_len);
            windowed.enrich_snapshot(&mut a_snap);
            let mut per_access = twin();
            let (b_sim, mut b_snap, b_trace) =
                replay_traced(combo, &w, &mut PerAccess(&mut per_access), segment_len);
            per_access.enrich_snapshot(&mut b_snap);

            // Host wall-clock time is the one thing planning ahead moves.
            a_snap.canonicalize_wall_clock();
            b_snap.canonicalize_wall_clock();
            assert!(a_sim.llc.accesses() > 0, "{label}");
            assert_eq!(format!("{a_sim:?}"), format!("{b_sim:?}"), "{label}");
            assert_eq!(
                a_snap.to_json_pretty().expect("serialize"),
                b_snap.to_json_pretty().expect("serialize"),
                "{label}: snapshot"
            );
            let bytes = |t| serde_json::to_string(&chrome_trace_json_sharded(&[t])).expect("json");
            assert_eq!(bytes(a_trace), bytes(b_trace), "{label}: trace");
            assert_eq!(windowed.cstp_stats, per_access.cstp_stats, "{label}");
        }
    }
}
