//! Criterion micro-benchmarks of the hot kernels underneath every
//! experiment: cache lookups, DRAM requests, trace generation, K-S /
//! KSWIN updates, BO training, attention and AMMA forward passes, and the
//! end-to-end simulator replay rate.
//!
//! Run: `cargo bench -p mpgraph-bench`

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mpgraph_core::{Amma, AmmaConfig, ModalInput};
use mpgraph_frameworks::{generate_trace, App, Framework, TraceConfig};
use mpgraph_graph::{rmat, RmatConfig};
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::{ScratchArena, SelfAttention};
use mpgraph_phase::{Kswin, KswinConfig, SoftKswin, TransitionDetector};
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{
    simulate, Cache, Dram, DramConfig, LlcAccess, NullPrefetcher, Prefetcher, SimConfig,
};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    let mut cache = Cache::new(2 * 1024 * 1024, 16);
    let mut i = 0u64;
    group.bench_function("llc_access_insert", |b| {
        b.iter(|| {
            i = i.wrapping_add(97);
            if cache.access(black_box(i % 100_000), false) == mpgraph_sim::Lookup::Miss {
                cache.insert(i % 100_000, false, false);
            }
        })
    });
    group.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut dram = Dram::new(DramConfig::default());
    let mut now = 0u64;
    let mut i = 0u64;
    c.bench_function("dram_request", |b| {
        b.iter(|| {
            i = i.wrapping_add(31);
            now += 10;
            black_box(dram.request(i % 1_000_000, now))
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let g = rmat(RmatConfig::new(9, 8000, 1));
    c.bench_function("trace_gpop_pr_1iter", |b| {
        b.iter(|| {
            let out = generate_trace(
                Framework::Gpop,
                App::Pr,
                &g,
                &TraceConfig {
                    iterations: 1,
                    record_limit: 100_000,
                    ..TraceConfig::default()
                },
            );
            black_box(out.trace.records.len())
        })
    });
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_update");
    group.throughput(Throughput::Elements(1));
    let mut kswin = Kswin::new(KswinConfig::default());
    let mut i = 0u64;
    group.bench_function("kswin", |b| {
        b.iter(|| {
            i += 1;
            black_box(kswin.update(0x400000 + i % 13))
        })
    });
    let mut soft = SoftKswin::new(KswinConfig::default());
    group.bench_function("soft_kswin", |b| {
        b.iter(|| {
            i += 1;
            black_box(soft.update(0x400000 + i % 13))
        })
    });
    group.finish();
}

fn bench_bo(c: &mut Criterion) {
    let mut bo = BestOffset::new(BoConfig::default());
    let mut out = Vec::new();
    let mut i = 0u64;
    c.bench_function("best_offset_access", |b| {
        b.iter(|| {
            i += 4;
            out.clear();
            bo.on_access(
                &LlcAccess {
                    pc: 1,
                    block: i,
                    core: 0,
                    is_write: false,
                    hit: false,
                    cycle: i,
                },
                &mut out,
            );
            black_box(out.len())
        })
    });
}

/// Tiled kernels against the `_ref` seed loops at the shapes AMMA
/// inference hits (the same shapes the perf runner gates on).
fn bench_matmul_kernels(c: &mut Criterion) {
    let mut r = rng(7);
    for (m, k, n) in [(9usize, 64usize, 64usize), (9, 128, 256), (64, 64, 64)] {
        let a = Matrix::xavier(m, k, &mut r);
        let b_mat = Matrix::xavier(k, n, &mut r);
        let bt_mat = Matrix::xavier(n, k, &mut r);
        let mut out = Matrix::zeros(m, n);
        let mut group = c.benchmark_group(&format!("matmul_{m}x{k}x{n}"));
        group.bench_function("tiled_into", |b| {
            b.iter(|| {
                black_box(&a).matmul_into(black_box(&b_mat), &mut out);
                black_box(out.data[0])
            })
        });
        group.bench_function("reference", |b| {
            b.iter(|| black_box(black_box(&a).matmul_ref(black_box(&b_mat))))
        });
        group.bench_function("bt_tiled_into", |b| {
            b.iter(|| {
                black_box(&a).matmul_bt_into(black_box(&bt_mat), &mut out);
                black_box(out.data[0])
            })
        });
        group.bench_function("bt_reference", |b| {
            b.iter(|| black_box(black_box(&a).matmul_bt_ref(black_box(&bt_mat))))
        });
        group.finish();
    }
}

fn bench_attention(c: &mut Criterion) {
    // The cold rows run each forward on a fresh arena, so every
    // intermediate is allocated; the warm row below reuses one arena.
    let mut r = rng(1);
    let attn = SelfAttention::new(64, 64, &mut r);
    let x = Matrix::xavier(9, 64, &mut r);
    c.bench_function("self_attention_forward_9x64", |b| {
        b.iter(|| black_box(attn.infer_batch_in(&x, 1, &mut ScratchArena::new())))
    });
    let amma = Amma::new(9, 1, AmmaConfig::default(), &mut r);
    let input = ModalInput {
        addr: Matrix::xavier(9, 9, &mut r),
        pc: Matrix::xavier(9, 1, &mut r),
    };
    c.bench_function("amma_infer_default", |b| {
        b.iter(|| black_box(amma.infer_batch_in(&input, 1, 0, &mut ScratchArena::new())))
    });
    let paper = Amma::new(9, 1, AmmaConfig::paper(), &mut r);
    c.bench_function("amma_infer_paper_dims", |b| {
        b.iter(|| black_box(paper.infer_batch_in(&input, 1, 0, &mut ScratchArena::new())))
    });
    // Warm-arena path: after warmup the arena free-lists satisfy every
    // request, so this measures the allocation-free steady state.
    let mut arena = ScratchArena::new();
    for _ in 0..4 {
        let y = amma.infer_batch_in(&input, 1, 0, &mut arena);
        arena.give(y);
    }
    c.bench_function("amma_infer_in_warm_arena", |b| {
        b.iter(|| {
            let y = amma.infer_batch_in(black_box(&input), 1, 0, &mut arena);
            let v = y.data[0];
            arena.give(y);
            black_box(v)
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let g = rmat(RmatConfig::new(9, 8000, 2));
    let out = generate_trace(
        Framework::Gpop,
        App::Pr,
        &g,
        &TraceConfig {
            iterations: 1,
            record_limit: 50_000,
            ..TraceConfig::default()
        },
    );
    let mut group = c.benchmark_group("simulate");
    group.throughput(Throughput::Elements(out.trace.records.len() as u64));
    group.sample_size(10);
    group.bench_function("replay_50k_records_null", |b| {
        b.iter(|| {
            black_box(simulate(
                &out.trace.records,
                &mut NullPrefetcher,
                &SimConfig::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_dram,
    bench_trace_generation,
    bench_detectors,
    bench_bo,
    bench_matmul_kernels,
    bench_attention,
    bench_simulator
);
criterion_main!(benches);
