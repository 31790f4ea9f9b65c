//! A fixed reference kernel, timed while a workload runs so that the
//! workload's host time can be reported in units of it.
//!
//! On the shared 2-core host the benchmark was built on, neighbours' load
//! slowed throughput-bound code by up to 40% for minutes at a time, while
//! a latency-bound integer loop and a pointer chase kept their speed. No
//! minimum over a run removes a slowdown that lasts the whole run. A plain
//! f32 matrix multiply slows down with the workloads, so a workload's time
//! over the kernel's time, both taken in the same stretch, holds still
//! when neither time alone does. The kernel is the benchmark's own code,
//! so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Matrix side, as in the calibration kernel of the repository's CI perf
/// gate: about 262K multiply-adds, tens of microseconds.
const N: usize = 64;
/// Multiplies per sample; a sample is the fastest of them, so an interrupt
/// during one multiply does not count.
const REPS: usize = 4;

pub struct RefKernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl RefKernel {
    pub fn new() -> Self {
        let fill =
            |k: usize| -> Vec<f32> { (0..N * N).map(|i| ((i * k) % 13) as f32 * 0.125).collect() };
        RefKernel {
            a: fill(7),
            b: fill(11),
            c: vec![0.0; N * N],
        }
    }

    /// One sample: the fastest of [`REPS`] multiplies, in seconds.
    pub fn sample_s(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            self.c.fill(0.0);
            for r in 0..N {
                for k in 0..N {
                    let x = a[r * N + k];
                    let row = &mut self.c[r * N..(r + 1) * N];
                    for (c, y) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *c += x * y;
                    }
                }
            }
            black_box(&self.c);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }
}
