//! Checks shared by the per-layer inference tests.

use crate::arena::ScratchArena;
use crate::tensor::{rng, Matrix};

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

/// Runs a layer's batched forward `f(x, batch, arena)` on B ∈ {1, 3, 8}
/// stacked random `seq × dim` windows and asserts that every window's
/// output rows are bit-identical to that window run alone (B = 1), and
/// that a warm arena serves the forward without allocating.
pub fn assert_batch_rows_match_single(
    seq: usize,
    dim: usize,
    seed: u64,
    f: impl Fn(&Matrix, usize, &mut ScratchArena) -> Matrix,
) {
    let mut r = rng(seed);
    let mut s = ScratchArena::new();
    for batch in [1usize, 3, 8] {
        let x = Matrix::xavier(batch * seq, dim, &mut r);
        let fused = f(&x, batch, &mut s);
        let per = fused.data.len() / batch;
        for b in 0..batch {
            let window = &x.data[b * seq * dim..(b + 1) * seq * dim];
            let solo = f(&Matrix::from_vec(seq, dim, window.to_vec()), 1, &mut s);
            assert_eq!(
                &fused.data[b * per..(b + 1) * per],
                &solo.data[..],
                "batch {batch} window {b}"
            );
            s.give(solo);
        }
        s.give(fused);
    }
    let x = Matrix::xavier(3 * seq, dim, &mut r);
    let warmup = f(&x, 3, &mut s);
    s.give(warmup);
    let (_, warm) = s.stats();
    for _ in 0..3 {
        let y = f(&x, 3, &mut s);
        s.give(y);
    }
    assert_eq!(s.stats().1, warm, "steady state must not allocate");
}
