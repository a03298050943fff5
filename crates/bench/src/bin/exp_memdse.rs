//! Memory design-space exploration: sweep SPM bank counts × Weight-SPM
//! sizes × prefetch depth × sector power gating over the paper's 16×16
//! MNIST config through the memory-aware closed-form model
//! (`timing::full_inference_batch_mem`), reporting stall cycles,
//! cycles/image and energy/image at batch 16.
//!
//! Two invariants are asserted on every run (this is the CI smoke
//! test for the memory subsystem), after the tables are printed and
//! `BENCH_mem.json` is written so a failing run still records its
//! numbers:
//!
//! 1. **IdealMemory equivalence** — at the tiny test scale, the
//!    cycle-accurate engine under `MemoryConfig::ideal()` reports zero
//!    stalls (so all pre-hierarchy cycle counts are intact), and under
//!    the finite paper memory its `MemReport` equals the closed-form
//!    replay *exactly*, with the trace still bit-identical to ideal.
//! 2. **Prefetch recovery** — at batch 16 on the paper config, the
//!    double-buffered prefetcher recovers at least half of the naive
//!    (no-prefetch) stall cycles.
//!
//! Emits `BENCH_mem.json` into the current directory so CI records the
//! memory-hierarchy perf trajectory (see `ci.sh`).

use capsacc_bench::{json_row, print_table, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
use capsacc_core::{
    timing, AcceleratorConfig, BatchRun, BatchScheduler, MemReport, MemoryConfig, SpmConfig,
};
use capsacc_power::EnergyModel;
use capsacc_tensor::{u64_from, Tensor};

const BATCH: u64 = 16;

/// One swept design point.
struct Point {
    banks: u64,
    weight_spm_kib: usize,
    prefetch_buffers: usize,
    power_gating: bool,
}

/// One measured row.
struct Row {
    point: Point,
    stall_cycles: u64,
    stall_pct: f64,
    cycles_per_image: f64,
    energy_uj_per_image: f64,
}

fn config_for(point: &Point) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper();
    let mut mem = MemoryConfig::paper();
    mem.data_spm.banks = point.banks;
    mem.weight_spm.banks = point.banks;
    mem.weight_spm.bytes = point.weight_spm_kib * 1024;
    mem.prefetch_buffers = point.prefetch_buffers;
    mem.power_gating = point.power_gating;
    cfg.memory = mem;
    // Keep the architectural buffer capacity coherent with the SPM model
    // (the closed-form schedule gates tile double-buffering on it).
    cfg.weight_buffer_bytes = point.weight_spm_kib * 1024;
    cfg
}

fn measure(net: &CapsNetConfig, point: Point) -> Row {
    let cfg = config_for(&point);
    let t = timing::full_inference_batch_mem(&cfg, net, BATCH);
    let traffic = timing::batch_traffic_estimate(&cfg, net, BATCH);
    let macs = BATCH * capsacc_bench::inference_macs(net);
    let energy = EnergyModel::cmos_32nm().inference_energy_mem(
        &cfg,
        macs,
        &traffic,
        &t.report,
        t.total_cycles(),
    );
    Row {
        point,
        stall_cycles: t.report.stall_cycles,
        stall_pct: t.stall_fraction() * 100.0,
        cycles_per_image: t.cycles_per_image(),
        energy_uj_per_image: energy.per_inference_uj(BATCH),
    }
}

/// The runs behind invariant 1 at the tiny scale: the engine under ideal
/// and under finite memory, and the closed-form replay of the finite one.
fn ideal_equivalence() -> (BatchRun, BatchRun, MemReport) {
    let net = CapsNetConfig::tiny();
    let mut ideal_cfg = AcceleratorConfig::test_4x4();
    // Engine ≡ model exactness holds on serial-tile schedules (the
    // ticked engine always executes tiles serially).
    ideal_cfg.dataflow.pipelined_tiles = false;
    let mut finite_cfg = ideal_cfg;
    finite_cfg.memory = MemoryConfig::paper();
    let qparams = CapsNetParams::generate(&net, 0).quantize(ideal_cfg.numeric);
    // The canonical deterministic test image — keep in sync with
    // `tests/common/mod.rs::image_for`, which the pinned golden-digest
    // suites use (this binary is a separate crate and cannot import it).
    let images: Vec<Tensor<f32>> = (0..4)
        .map(|s| {
            Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
                ((i[1] * (s + 2) + i[2] * 7 + s) % 11) as f32 / 11.0
            })
        })
        .collect();

    let ideal = BatchScheduler::new(ideal_cfg)
        .run(&net, &qparams, &images)
        .expect("valid batch");
    let finite = BatchScheduler::new(finite_cfg)
        .run(&net, &qparams, &images)
        .expect("valid batch");
    let model = timing::full_inference_batch_mem(&finite_cfg, &net, u64_from(images.len()));
    (ideal, finite, model.report)
}

/// The stall cycles behind invariant 2 (prefetch recovers ≥ half of the
/// naive stalls at batch 16), as (naive, prefetched).
fn prefetch_stalls(net: &CapsNetConfig) -> (u64, u64) {
    let mut cfg = AcceleratorConfig::paper();
    cfg.memory = MemoryConfig::paper();
    let mut naive_cfg = cfg;
    naive_cfg.memory.prefetch_buffers = 1;
    let prefetched = timing::full_inference_batch_mem(&cfg, net, BATCH)
        .report
        .stall_cycles;
    let naive = timing::full_inference_batch_mem(&naive_cfg, net, BATCH)
        .report
        .stall_cycles;
    (naive, prefetched)
}

fn write_json(rows: &[Row], naive: u64, prefetched: u64) -> std::io::Result<()> {
    let mut j = BenchJson::new("exp_memdse");
    j.str_field("config", "paper_16x16_250MHz");
    j.str_field("net", "mnist");
    j.field("batch", 16);
    j.field("naive_stall_cycles", naive);
    j.field("prefetch_stall_cycles", prefetched);
    j.rows(
        "rows",
        rows.iter()
            .map(|r| {
                json_row(&[
                    ("banks", r.point.banks.to_string()),
                    ("weight_spm_kib", r.point.weight_spm_kib.to_string()),
                    ("prefetch_buffers", r.point.prefetch_buffers.to_string()),
                    ("power_gating", r.point.power_gating.to_string()),
                    ("stall_cycles", r.stall_cycles.to_string()),
                    ("stall_pct", format!("{:.2}", r.stall_pct)),
                    ("cycles_per_image", format!("{:.1}", r.cycles_per_image)),
                    (
                        "energy_uj_per_image",
                        format!("{:.3}", r.energy_uj_per_image),
                    ),
                ])
            })
            .collect(),
    );
    j.write("BENCH_mem.json")
}

fn main() {
    let (ideal, finite, model) = ideal_equivalence();
    println!(
        "IdealMemory equivalence: {} ideal stall cycles, traces identical: {}, \
         engine ≡ closed-form replay: {}",
        ideal.memory.stall_cycles,
        ideal.traces == finite.traces,
        finite.memory == model
    );

    let net = CapsNetConfig::mnist();
    let (naive, prefetched) = prefetch_stalls(&net);
    println!(
        "Prefetch recovery at batch 16: naive {naive} → double-buffered {prefetched} \
         stall cycles ({:.0}% recovered)\n",
        (1.0 - prefetched as f64 / naive as f64) * 100.0
    );

    let mut rows = Vec::new();
    for &banks in &[2u64, 4, 8] {
        for &weight_spm_kib in &[8usize, 24, 64] {
            for &prefetch_buffers in &[1usize, 2, 4] {
                for &power_gating in &[false, true] {
                    rows.push(measure(
                        &net,
                        Point {
                            banks,
                            weight_spm_kib,
                            prefetch_buffers,
                            power_gating,
                        },
                    ));
                }
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.point.banks.to_string(),
                format!("{} KiB", r.point.weight_spm_kib),
                r.point.prefetch_buffers.to_string(),
                if r.point.power_gating { "on" } else { "off" }.to_string(),
                r.stall_cycles.to_string(),
                format!("{:.2}%", r.stall_pct),
                format!("{:.0}", r.cycles_per_image),
                format!("{:.1}", r.energy_uj_per_image),
            ]
        })
        .collect();
    print_table(
        "Memory design space — MNIST, batch 16, 16×16 paper config (closed-form)",
        &[
            "Banks",
            "Wt SPM",
            "Prefetch",
            "Gating",
            "Stalls",
            "Stall%",
            "Cycles/img",
            "µJ/img",
        ],
        &table,
    );

    // Strided-access bank conflicts: cycles for one 256-word burst into
    // the weight SPM as the address stride sweeps power-of-two and odd
    // values — why interleaved layouts want conflict-free strides.
    let conflict_rows: Vec<Vec<String>> = [2u64, 4, 8]
        .iter()
        .map(|&banks| {
            let spm = SpmConfig {
                banks,
                ..MemoryConfig::paper().weight_spm
            };
            let mut row = vec![format!("{banks}")];
            for stride in [1u64, 2, 4, 8, 3] {
                row.push(format!(
                    "{} (+{})",
                    spm.strided_word_cycles(256, stride),
                    spm.conflict_stall_cycles(256, stride)
                ));
            }
            row
        })
        .collect();
    print_table(
        "Bank conflicts — 256-word burst into the weight SPM, cycles (+conflict stall)",
        &[
            "Banks", "Stride 1", "Stride 2", "Stride 4", "Stride 8", "Stride 3",
        ],
        &conflict_rows,
    );

    let best = rows
        .iter()
        .min_by(|a, b| {
            a.energy_uj_per_image
                .partial_cmp(&b.energy_uj_per_image)
                .expect("finite energies")
        })
        .expect("non-empty sweep");
    println!(
        "\nBest energy point: {} banks, {} KiB weight SPM, {} prefetch buffers, gating {} \
         → {:.1} µJ/img at {:.0} cycles/img",
        best.point.banks,
        best.point.weight_spm_kib,
        best.point.prefetch_buffers,
        if best.point.power_gating { "on" } else { "off" },
        best.energy_uj_per_image,
        best.cycles_per_image,
    );

    match write_json(&rows, naive, prefetched) {
        Ok(()) => println!("\nWrote BENCH_mem.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_mem.json: {e}"),
    }

    // Invariant 1: ideal-memory equivalence and engine ≡ closed-form.
    assert_eq!(ideal.memory.stall_cycles, 0, "IdealMemory must not stall");
    assert_eq!(
        ideal.traces, finite.traces,
        "the memory model must never change functional results"
    );
    assert_eq!(
        finite.memory, model,
        "engine and closed-form memory replay diverged"
    );
    println!("IdealMemory equivalence ✓");
    assert!(
        2 * prefetched <= naive,
        "double buffering must recover at least half of the naive stalls \
         ({prefetched} vs {naive})"
    );
    println!("Prefetch recovery ✓");
}
