//! Criterion micro-benchmarks: real wall-clock of the hot computational
//! kernels on this host (not simulated-device time; see DESIGN.md §2.2 —
//! these numbers validate that the functional substrate itself is
//! efficient, they are not comparable to a V100).

use criterion::{criterion_group, criterion_main, Criterion};
use finufft_cpu::spread::{interp, spread_serial};
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, Shape};
use nufft_fft::{Direction, FftNd};
use nufft_kernels::{EsKernel, HornerKernel, Kernel1d};

fn bench_fft(c: &mut Criterion) {
    let shape = Shape::d2(256, 256);
    let plan = FftNd::<f32>::new(shape);
    let mut data = vec![Complex::<f32>::new(1.0, 0.5); shape.total()];
    c.bench_function("fft_2d_256_f32", |b| {
        b.iter(|| plan.process(std::hint::black_box(&mut data), Direction::Forward))
    });
    let shape3 = Shape::d3(32, 32, 32);
    let plan3 = FftNd::<f64>::new(shape3);
    let mut d3 = vec![Complex::<f64>::new(1.0, 0.5); shape3.total()];
    c.bench_function("fft_3d_32_f64", |b| {
        b.iter(|| plan3.process(std::hint::black_box(&mut d3), Direction::Backward))
    });
}

fn bench_spread(c: &mut Criterion) {
    let fine = Shape::d2(512, 512);
    let kernel = EsKernel::with_width(6);
    let m = 100_000;
    let pts = gen_points::<f32>(PointDist::Rand, 2, m, fine, 3);
    let cs = gen_strengths::<f32>(m, 4);
    let order: Vec<u32> = (0..m as u32).collect();
    let mut grid = vec![Complex::<f32>::ZERO; fine.total()];
    c.bench_function("cpu_spread_2d_100k_w6", |b| {
        b.iter(|| {
            grid.iter_mut().for_each(|z| *z = Complex::ZERO);
            spread_serial(
                &kernel,
                fine,
                &pts,
                &cs,
                &order,
                std::hint::black_box(&mut grid),
            );
        })
    });
    let mut out = vec![Complex::<f32>::ZERO; m];
    c.bench_function("cpu_interp_2d_100k_w6", |b| {
        b.iter(|| {
            interp(
                &kernel,
                fine,
                &pts,
                &grid,
                &order,
                std::hint::black_box(&mut out),
                1,
            )
        })
    });
}

fn bench_kernel_eval(c: &mut Criterion) {
    let kernel = EsKernel::with_width(8);
    let mut row = [0.0f64; 8];
    c.bench_function("es_kernel_row_w8_direct", |b| {
        b.iter(|| kernel.eval_row(std::hint::black_box(-0.93), &mut row))
    });
    let horner = HornerKernel::fit(kernel);
    c.bench_function("es_kernel_row_w8_horner", |b| {
        b.iter(|| Kernel1d::eval_row(&horner, std::hint::black_box(-0.93), &mut row))
    });
    c.bench_function("es_kernel_ft", |b| {
        b.iter(|| std::hint::black_box(kernel.ft(std::hint::black_box(3.7))))
    });
}

criterion_group!(benches, bench_fft, bench_spread, bench_kernel_eval);
criterion_main!(benches);
