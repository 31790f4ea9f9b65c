//! Sharded-vs-serial equivalence for `mpgraph run --all` (DESIGN.md §15):
//! the merged `MetricsSnapshot` and the multi-process Chrome trace must be
//! byte-identical regardless of how many worker threads ran the matrix and
//! how the evaluation streams were cut into `SimSession` segments.

use mpgraph_bench::scale::ExpScale;
use mpgraph_bench::shard::{full_matrix, run_matrix_segmented};

/// A reduced scale: enough records for one training iteration plus a
/// short evaluation stream per combo, so three full-matrix runs stay
/// CI-cheap.
fn tiny() -> ExpScale {
    ExpScale {
        record_limit: 24_000,
        eval_records: 8_000,
        ..ExpScale::quick()
    }
}

#[test]
fn sharded_run_is_byte_identical_to_serial() {
    let scale = tiny();
    let serial = run_matrix_segmented(&scale, 1, 3_000);
    let sharded = run_matrix_segmented(&scale, 4, 3_000);
    // Same combos, same canonical order, independent of worker count.
    assert_eq!(serial.combos.len(), full_matrix(&scale).len());
    for (a, b) in serial.combos.iter().zip(&sharded.combos) {
        assert_eq!(a.combo, b.combo);
        assert_eq!(a.records, b.records, "{}", a.combo.label());
    }
    // The merged snapshot is the gated artifact: byte-identical.
    let a = serial.merged.to_json_pretty().expect("serialize");
    let b = sharded.merged.to_json_pretty().expect("serialize");
    assert_eq!(a, b, "merged snapshot differs between 1 and 4 shards");
    // So is the merged Perfetto export (one pid per combo).
    let ta = serde_json::to_string(&serial.chrome_trace()).expect("serialize");
    let tb = serde_json::to_string(&sharded.chrome_trace()).expect("serialize");
    assert_eq!(ta, tb, "merged trace differs between 1 and 4 shards");
    // And the merge actually carried state: counters, windows, phases.
    assert!(serial.merged.issued > 0);
    assert!(!serial.merged.windows.is_empty());
    assert_eq!(serial.merged.untracked_completions, 0);
    // Host wall-clock time is canonicalized out of the merged artifact.
    assert_eq!(serial.merged.inference_wall_ns.count, 0);
}

#[test]
fn segment_length_does_not_perturb_the_merge() {
    let scale = tiny();
    // Different shard counts AND different segment cuts: the resumable
    // SimSession hand-off makes segmentation invisible, so the merged
    // bytes still match.
    let fine = run_matrix_segmented(&scale, 2, 1_500);
    let coarse = run_matrix_segmented(&scale, 3, 6_000);
    assert_eq!(
        fine.merged.to_json_pretty().expect("serialize"),
        coarse.merged.to_json_pretty().expect("serialize"),
        "merged snapshot depends on segment length"
    );
    // So is the merged Perfetto export: the train-time rollback summary
    // is stamped once per replay, not once per segment.
    assert_eq!(
        serde_json::to_string(&fine.chrome_trace()).expect("serialize"),
        serde_json::to_string(&coarse.chrome_trace()).expect("serialize"),
        "merged trace depends on segment length"
    );
    // Per-combo snapshots are themselves segment-invariant (one traced
    // scoreboard spans every segment of a combo).
    for (a, b) in fine.combos.iter().zip(&coarse.combos) {
        assert_eq!(a.snapshot.issued, b.snapshot.issued, "{}", a.combo.label());
        assert_eq!(a.snapshot.windows.len(), b.snapshot.windows.len());
    }
}
