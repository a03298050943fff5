//! Batched weight-resident serving sweep: batch size 1 → 64 at MNIST
//! scale through the closed-form batched model
//! (`timing::full_inference_batch`), reporting amortized cycles/image,
//! weight bytes/image and energy/image, plus a cycle-accurate
//! validation of the engine's `run_batch` at the tiny test scale.
//!
//! Emits `BENCH_batch.json` into the current directory so CI records
//! the perf trajectory (see `ci.sh`), and only then asserts the
//! bit-exactness validation, so a failing run still records its numbers.

use capsacc_bench::{fmt_us, json_row, print_table, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
use capsacc_core::{timing, Accelerator, AcceleratorConfig, BatchScheduler, MemoryKind};
use capsacc_power::EnergyModel;
use capsacc_tensor::Tensor;

/// One measured row of the MNIST-scale sweep.
struct Row {
    batch: u64,
    cycles_per_image: f64,
    time_per_image_us: f64,
    weight_bytes_per_image: f64,
    weight_buffer_bytes_per_image: f64,
    energy_uj_per_image: f64,
}

fn mnist_sweep(cfg: &AcceleratorConfig, net: &CapsNetConfig, batches: &[u64]) -> Vec<Row> {
    let model = EnergyModel::cmos_32nm();
    let macs_per_image = capsacc_bench::inference_macs(net);
    batches
        .iter()
        .map(|&b| {
            let t = timing::full_inference_batch(cfg, net, b);
            let traffic = timing::batch_traffic_estimate(cfg, net, b);
            let latency_us = cfg.cycles_to_us(t.total_cycles());
            let energy = model.inference_energy(cfg, b * macs_per_image, &traffic, latency_us);
            Row {
                batch: b,
                cycles_per_image: t.cycles_per_image(),
                time_per_image_us: t.time_per_image_us(cfg),
                weight_bytes_per_image: t.weight_bytes_per_image(),
                weight_buffer_bytes_per_image: traffic.bytes_per_image(MemoryKind::WeightBuffer, b),
                energy_uj_per_image: energy.per_inference_uj(b),
            }
        })
        .collect()
}

fn write_json(rows: &[Row]) -> std::io::Result<()> {
    let mut j = BenchJson::new("exp_batch");
    j.str_field("config", "paper_16x16_250MHz");
    j.str_field("net", "mnist");
    j.rows(
        "rows",
        rows.iter()
            .map(|r| {
                json_row(&[
                    ("batch", r.batch.to_string()),
                    ("cycles_per_image", format!("{:.1}", r.cycles_per_image)),
                    ("time_per_image_us", format!("{:.3}", r.time_per_image_us)),
                    (
                        "weight_bytes_per_image",
                        format!("{:.1}", r.weight_bytes_per_image),
                    ),
                    (
                        "weight_buffer_bytes_per_image",
                        format!("{:.1}", r.weight_buffer_bytes_per_image),
                    ),
                    (
                        "energy_uj_per_image",
                        format!("{:.3}", r.energy_uj_per_image),
                    ),
                ])
            })
            .collect(),
    );
    j.write("BENCH_batch.json")
}

/// Cycle-accurate validation at the tiny test scale: `run_batch` must be
/// bit-exact against sequential runs while strictly amortizing the
/// weight-buffer traffic.
fn engine_validation(batches: &[usize]) -> Vec<Vec<String>> {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..*batches.iter().max().expect("non-empty"))
        .map(|s| {
            Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
                ((i[1] * (s + 2) + i[2] * 7 + s) % 11) as f32 / 11.0
            })
        })
        .collect();

    batches
        .iter()
        .map(|&b| {
            let mut sched = BatchScheduler::new(cfg);
            let run = sched
                .run(&net, &qparams, &images[..b])
                .expect("valid batch");
            let mut exact = true;
            for (img, trace) in images[..b].iter().zip(&run.traces) {
                let mut acc = Accelerator::new(cfg);
                exact &= acc.run_inference(&net, &qparams, img).trace == *trace;
            }
            vec![
                b.to_string(),
                format!("{:.0}", run.cycles_per_image()),
                format!("{:.0}", run.weight_buffer_bytes_per_image()),
                if exact { "yes".into() } else { "NO".into() },
            ]
        })
        .collect()
}

fn main() {
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let batches = [1u64, 2, 4, 8, 16, 32, 64];
    let rows = mnist_sweep(&cfg, &net, &batches);

    let b1 = &rows[0];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                format!("{:.0}", r.cycles_per_image),
                fmt_us(r.time_per_image_us),
                format!("{:.0}", r.weight_bytes_per_image),
                format!("{:.0}", r.weight_buffer_bytes_per_image),
                format!("{:.1}", r.energy_uj_per_image),
                format!("{:.2}x", b1.cycles_per_image / r.cycles_per_image),
            ]
        })
        .collect();
    print_table(
        "Batched weight-resident serving — MNIST on the 16×16 paper config",
        &[
            "Batch",
            "Cycles/img",
            "Time/img",
            "Wt B/img",
            "WtBuf B/img",
            "µJ/img",
            "Speedup",
        ],
        &table,
    );
    println!(
        "\nWeights are loaded once per batch (layer-major residency), so the\n\
         5.3 MB PrimaryCaps stream and the 1.47 MB ClassCaps FC stream\n\
         amortize across images; routing state is per-image and does not."
    );

    let engine_rows = engine_validation(&[1, 4, 8]);
    print_table(
        "Engine validation — tiny network, cycle-accurate run_batch vs sequential",
        &["Batch", "Cycles/img", "WtBuf B/img", "Bit-exact"],
        &engine_rows,
    );

    match write_json(&rows) {
        Ok(()) => println!("\nWrote BENCH_batch.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_batch.json: {e}"),
    }

    assert!(
        engine_rows.iter().all(|r| r[3] == "yes"),
        "run_batch diverged from the sequential engine"
    );
}
