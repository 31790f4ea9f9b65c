//! Scratch-buffer arena for allocation-free inference.
//!
//! Every `infer` call in the seed implementation allocated roughly a dozen
//! intermediate matrices; at prefetcher rates (one inference per L2 access)
//! the allocator became a measurable part of the per-prediction latency. A
//! [`ScratchArena`] is a free-list of `f32` buffers keyed by length: layers
//! `take` intermediates from it and `give` them back, so after the first
//! inference (warmup) the steady state performs no heap allocation at all.
//!
//! The arena is deliberately *not* stored inside models: models stay `Sync`
//! and shareable across threads, and each caller (the prefetcher hot path, a
//! bench thread, an evaluation worker) owns its own arena, passed down as
//! `&mut` through the `infer_batch_in` methods. Buffer reuse is LIFO, so the most
//! recently released buffer — the one most likely still in cache — is handed
//! out first.

use crate::tensor::{positional_encoding, Matrix};
use std::collections::HashMap;

/// Pool of reusable scratch buffers plus a cache of positional-encoding
/// constants. See the module docs for the ownership model.
#[derive(Debug, Default)]
pub struct ScratchArena {
    pools: HashMap<usize, Vec<Vec<f32>>>,
    pools_i8: HashMap<usize, Vec<Vec<i8>>>,
    pools_i16: HashMap<usize, Vec<Vec<i16>>>,
    pe_cache: HashMap<(usize, usize), Matrix>,
    hits: u64,
    misses: u64,
}

impl ScratchArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zeroed `rows × cols` matrix, reusing a previously
    /// released buffer of the same length when one is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        match self.pools.get_mut(&len).and_then(Vec::pop) {
            Some(mut data) => {
                self.hits += 1;
                data.fill(0.0);
                Matrix { rows, cols, data }
            }
            None => {
                self.misses += 1;
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Returns a matrix's buffer to the pool for reuse.
    pub fn give(&mut self, m: Matrix) {
        self.pools.entry(m.data.len()).or_default().push(m.data);
    }

    /// Hands out a zeroed `i8` buffer of `len` elements — scratch for the
    /// int8 inference path's quantized activations. Counted in the same
    /// hit/miss stats as the `f32` pool.
    pub fn take_i8(&mut self, len: usize) -> Vec<i8> {
        match self.pools_i8.get_mut(&len).and_then(Vec::pop) {
            Some(mut data) => {
                self.hits += 1;
                data.fill(0);
                data
            }
            None => {
                self.misses += 1;
                vec![0i8; len]
            }
        }
    }

    /// Returns an `i8` buffer to the pool for reuse.
    pub fn give_i8(&mut self, data: Vec<i8>) {
        self.pools_i8.entry(data.len()).or_default().push(data);
    }

    /// Hands out a zeroed `i16` buffer — scratch for sign-extended int8
    /// activation rows feeding the widened multiply-add kernels.
    pub fn take_i16(&mut self, len: usize) -> Vec<i16> {
        match self.pools_i16.get_mut(&len).and_then(Vec::pop) {
            Some(mut data) => {
                self.hits += 1;
                data.fill(0);
                data
            }
            None => {
                self.misses += 1;
                vec![0i16; len]
            }
        }
    }

    /// Returns an `i16` buffer to the pool for reuse.
    pub fn give_i16(&mut self, data: Vec<i16>) {
        self.pools_i16.entry(data.len()).or_default().push(data);
    }

    /// Adds the `[seq_len, cols]` sinusoidal positional encoding to each
    /// of the `m.rows / seq_len` sequences stacked in `m`, computing and
    /// caching the constant on first use. Each sequence gets its own
    /// position ramp starting at 0, not one ramp across the whole
    /// concatenated batch, so the result is bit-identical to encoding the
    /// sequences separately.
    pub fn add_positional_per_seq(&mut self, m: &mut Matrix, seq_len: usize) {
        assert!(
            seq_len > 0 && m.rows.is_multiple_of(seq_len),
            "rows must tile by seq_len"
        );
        let key = (seq_len, m.cols);
        let pe = self
            .pe_cache
            .entry(key)
            .or_insert_with(|| positional_encoding(key.0, key.1));
        for b in 0..m.rows / seq_len {
            for t in 0..seq_len {
                let r = b * seq_len + t;
                let dst = &mut m.data[r * m.cols..(r + 1) * m.cols];
                for (a, &p) in dst.iter_mut().zip(pe.row(t).iter()) {
                    *a += p;
                }
            }
        }
    }

    /// `(hits, misses)` — a steady-state hot loop should only ever grow
    /// `hits` after warmup.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_buffers_after_warmup() {
        let mut s = ScratchArena::new();
        let a = s.take(3, 4);
        s.give(a);
        let b = s.take(4, 3); // same length, different shape: still reusable
        assert_eq!((b.rows, b.cols), (4, 3));
        let (hits, misses) = s.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        let mut s = ScratchArena::new();
        let mut a = s.take(2, 2);
        a.data.fill(7.0);
        s.give(a);
        let b = s.take(2, 2);
        assert!(b.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn positional_encoding_is_cached_and_correct() {
        let mut s = ScratchArena::new();
        let mut a = Matrix::zeros(5, 8);
        s.add_positional_per_seq(&mut a, 5);
        let expected = positional_encoding(5, 8);
        assert_eq!(a.data, expected.data);
        // Second call must add the same constant again (not recompute wrongly).
        s.add_positional_per_seq(&mut a, 5);
        for (v, e) in a.data.iter().zip(expected.data.iter()) {
            assert!((v - 2.0 * e).abs() < 1e-6);
        }
    }

    #[test]
    fn i8_pool_reuses_and_zeroes() {
        let mut s = ScratchArena::new();
        let mut a = s.take_i8(16);
        a.fill(7);
        s.give_i8(a);
        let b = s.take_i8(16);
        assert!(b.iter().all(|&v| v == 0));
        let (hits, misses) = s.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn i16_pool_reuses_and_zeroes() {
        let mut s = ScratchArena::new();
        let mut a = s.take_i16(16);
        a.fill(-7);
        s.give_i16(a);
        let b = s.take_i16(16);
        assert!(b.iter().all(|&v| v == 0));
        let (hits, misses) = s.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut s = ScratchArena::new();
        for _ in 0..10 {
            let a = s.take(4, 4);
            let b = s.take(4, 2);
            s.give(a);
            s.give(b);
        }
        let (_, misses) = s.stats();
        assert_eq!(misses, 2, "only the first round may allocate");
    }
}
