//! Checks shared by the AMMA and backbone inference tests.

use crate::amma::ModalInput;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;

/// `n` random windows of `t` rows (`addr_feats` address features, one PC
/// feature) and the same windows stacked `[n * t, F]` per modality.
pub fn windows(seed: u64, n: usize, t: usize, addr_feats: usize) -> (Vec<ModalInput>, ModalInput) {
    let mut r = rng(seed);
    let seqs: Vec<ModalInput> = (0..n)
        .map(|_| ModalInput {
            addr: Matrix::xavier(t, addr_feats, &mut r),
            pc: Matrix::xavier(t, 1, &mut r),
        })
        .collect();
    let mut addr = Matrix::zeros(n * t, addr_feats);
    let mut pc = Matrix::zeros(n * t, 1);
    for (i, q) in seqs.iter().enumerate() {
        addr.data[i * t * addr_feats..(i + 1) * t * addr_feats].copy_from_slice(&q.addr.data);
        pc.data[i * t..(i + 1) * t].copy_from_slice(&q.pc.data);
    }
    (seqs, ModalInput { addr, pc })
}

/// Runs a pooled forward `f(x, batch, phase, arena)` on B ∈ {1, 3, 8}
/// stacked windows for each phase in `0..phases` and asserts that row `b`
/// of the batch is bit-identical to window `b` run alone (B = 1), and
/// that a warm arena serves the forward without allocating.
pub fn assert_batch_rows_match_single(
    t: usize,
    addr_feats: usize,
    phases: usize,
    f: impl Fn(&ModalInput, usize, usize, &mut ScratchArena) -> Matrix,
) {
    let mut s = ScratchArena::new();
    for batch in [1usize, 3, 8] {
        let (seqs, stacked) = windows(200 + batch as u64, batch, t, addr_feats);
        for phase in 0..phases {
            let fused = f(&stacked, batch, phase, &mut s);
            assert_eq!(fused.rows, batch);
            for (i, q) in seqs.iter().enumerate() {
                let solo = f(q, 1, phase, &mut s);
                assert_eq!(
                    fused.row(i),
                    solo.row(0),
                    "batch={batch} seq={i} phase={phase}"
                );
                s.give(solo);
            }
            s.give(fused);
        }
    }
    let (_, stacked) = windows(300, 3, t, addr_feats);
    let warmup = f(&stacked, 3, 0, &mut s);
    s.give(warmup);
    let (_, warm) = s.stats();
    for _ in 0..3 {
        let y = f(&stacked, 3, 0, &mut s);
        s.give(y);
    }
    assert_eq!(s.stats().1, warm, "steady state must not allocate");
}

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}
