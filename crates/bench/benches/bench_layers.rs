//! Criterion bench for the layer-level timing models behind Figs. 8 and
//! 16: the analytical CapsAcc cycle model and the calibrated GPU model,
//! evaluated at MNIST scale and across array sizes (ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use capsacc_capsnet::CapsNetConfig;
use capsacc_core::{timing, AcceleratorConfig};
use capsacc_gpu_model::GpuModel;

fn bench_full_inference_model(c: &mut Criterion) {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig::paper();
    c.bench_function("timing/full_inference/mnist", |b| {
        b.iter(|| timing::full_inference_batch(black_box(&cfg), black_box(&net), 1))
    });
    let gpu = GpuModel::gtx1070();
    c.bench_function("gpu_model/layer_times/mnist", |b| {
        b.iter(|| gpu.layer_times_us(black_box(&net)))
    });
}

fn bench_array_size_sweep(c: &mut Criterion) {
    let net = CapsNetConfig::mnist();
    let mut group = c.benchmark_group("timing/array_size_sweep");
    for size in [8usize, 16, 32] {
        let mut cfg = AcceleratorConfig::paper();
        cfg.rows = size;
        cfg.cols = size;
        cfg.activation_units = size;
        group.bench_with_input(BenchmarkId::from_parameter(size), &cfg, |b, cfg| {
            b.iter(|| {
                timing::full_inference_batch(black_box(cfg), black_box(&net), 1).total_cycles()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_inference_model, bench_array_size_sweep);
criterion_main!(benches);
