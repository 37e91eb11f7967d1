//! Criterion benches over the substrate crates: BLAS kernels, tridiagonal
//! solvers, sort primitives, the runtime engine's scheduling throughput,
//! and functional stencil execution. These measure *host* time of the
//! building blocks (the figure binaries report virtual time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use petal_apps::convolution::SeparableConvolution;
use petal_apps::poisson::{Poisson2D, OMEGA};
use petal_bench::{bench_sample_size, bench_size};
use petal_blas::gemm::{blocked_gemm, lapack_gemm, naive_gemm, transposed_gemm};
use petal_blas::tridiag::{cyclic_reduction_solve, diagonally_dominant_system, thomas_solve};
use petal_blas::Matrix;
use petal_core::codegen::{run_global, run_tiled, Geometry, RawInput};
use petal_core::stencil::StencilRule;
use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::{Charge, Engine};
use std::hint::black_box;

type RunFn = fn(&StencilRule, &[RawInput<'_>], &[f64], &mut [f64], &Geometry);

fn sample(n: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17 + seed) % 13) as f64 - 6.0)
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    let n = bench_size(96, 32);
    let a = sample(n, 1);
    let b = sample(n, 2);
    g.bench_function(BenchmarkId::new("naive", n), |bch| {
        bch.iter(|| naive_gemm(black_box(&a), black_box(&b)));
    });
    g.bench_function(BenchmarkId::new("transposed", n), |bch| {
        bch.iter(|| transposed_gemm(black_box(&a), black_box(&b)));
    });
    g.bench_function(BenchmarkId::new("blocked64", n), |bch| {
        bch.iter(|| blocked_gemm(black_box(&a), black_box(&b), 64));
    });
    g.bench_function(BenchmarkId::new("lapack", n), |bch| {
        bch.iter(|| lapack_gemm(black_box(&a), black_box(&b)));
    });
    g.finish();
}

fn bench_tridiag(c: &mut Criterion) {
    let mut g = c.benchmark_group("tridiag");
    for n in [1 << 10, bench_size(1 << 14, 1 << 11)] {
        let sys = diagonally_dominant_system(n, 3);
        g.bench_with_input(BenchmarkId::new("thomas", n), &sys, |bch, s| {
            bch.iter(|| thomas_solve(black_box(s)));
        });
        g.bench_with_input(BenchmarkId::new("cyclic_reduction", n), &sys, |bch, s| {
            bch.iter(|| cyclic_reduction_solve(black_box(s)));
        });
    }
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    // Scheduling throughput: how fast the virtual-time engine retires
    // dependent task graphs (fan-out/fan-in diamonds).
    for tasks in [256usize, bench_size(2048, 512)] {
        g.bench_function(BenchmarkId::new("diamond", tasks), |bch| {
            bch.iter(|| {
                let m = MachineProfile::desktop();
                let mut e: Engine<u64> = Engine::new(&m, 1);
                let root = e.add_cpu_task(|s, _| {
                    *s += 1;
                    Charge::Work(CpuWork::new(100.0, 0.0))
                });
                let join = e.add_cpu_task(|s, _| {
                    *s += 1;
                    Charge::Work(CpuWork::new(100.0, 0.0))
                });
                for _ in 0..tasks {
                    let mid = e.add_cpu_task(|s, _| {
                        *s += 1;
                        Charge::Work(CpuWork::new(1000.0, 0.0))
                    });
                    e.add_dependency(mid, root).unwrap();
                    e.add_dependency(join, mid).unwrap();
                }
                let mut state = 0u64;
                e.run(&mut state).unwrap();
                black_box(state)
            });
        });
    }
    g.finish();
}

fn bench_stencil_body(c: &mut Criterion) {
    let mut g = c.benchmark_group("stencil_body");
    // Functional stencil execution, per-cell `elem` calls against the
    // rule's row body, on the global and scratchpad-tiled paths.
    let n = bench_size(256, 64);
    let k = 7;
    let conv = (
        SeparableConvolution::rule_2d(k),
        vec![sample(n, 3), Matrix::from_fn(1, k, |_, i| 1.0 / (i + 1) as f64)],
        vec![k as f64],
        n,
        (n - k + 1, n - k + 1),
    );
    let n2 = bench_size(130, 34);
    let h2 = 1.0 / ((n2 - 1) * (n2 - 1)) as f64;
    let sweep = (
        Poisson2D::rule_sweep(),
        vec![sample(n2, 4), sample(n2, 5), sample(n2, 6)],
        vec![0.0, OMEGA, h2],
        n2,
        (n2, n2),
    );
    for (rule, inputs, scalars, size, (out_w, out_h)) in [conv, sweep] {
        let raw: Vec<RawInput<'_>> =
            inputs.iter().map(|m| (m.as_slice(), m.cols(), m.rows())).collect();
        let geom = Geometry {
            out_w,
            out_h,
            row0: 0,
            row1: out_h,
            in_dims: inputs.iter().map(|m| (m.cols(), m.rows())).collect(),
            local_size: 64,
        };
        let elem_only = StencilRule { row: None, ..(*rule).clone() };
        let mut out = vec![0.0; out_w * out_h];
        for (body, r) in [("elem", &elem_only), ("row", &*rule)] {
            for (path, run) in [("global", run_global as RunFn), ("tiled", run_tiled)] {
                let id = format!("{}/{path}/{body}", rule.name);
                g.bench_function(BenchmarkId::new(id, size), |bch| {
                    bch.iter(|| run(black_box(r), &raw, &scalars, &mut out, &geom));
                });
            }
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench_sample_size());
    targets = bench_gemm, bench_tridiag, bench_engine, bench_stencil_body
}
criterion_main!(benches);
