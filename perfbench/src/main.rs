//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pins <first seed> <last seed>
//! ```
//!
//! Runs one workload for `--seconds`, checks every output, and prints
//! a host stamp, a metric table with sample counts and, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! `--pins` prints the reference digests `pins.txt` holds for a range
//! of seeds. See `README.md` for what each metric means.

mod engine;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = [
    "engine_b16_serving",
    "engine_b1_validate",
    "serve_faulted_day",
];

/// End-to-end metrics, reported by every `--trace 0` run.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_ms_per_image_p50", "ms/image"),
    ("requests_per_s", "1/s"),
    ("sim_cycles_per_image", "cycles/image"),
    ("sim_latency_p50_cycles", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
    ("served_fraction", "fraction"),
    ("slo_attainment_premium", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every `--trace 1` run; a layer the
/// workload does not run reports zero.
const PER_LAYER: [(&str, &str); 51] = [
    ("core.call_host_ms", "ms/image"),
    ("core.matmul_stage_host_ms", "ms/image"),
    ("core.matmul_sweep_host_ms", "ms/image"),
    ("core.conv1.host_ms", "ms/image"),
    ("core.primarycaps.host_ms", "ms/image"),
    ("core.classcaps.host_ms", "ms/image"),
    ("core.unattributed_host_ms", "ms/image"),
    ("core.conv1.sim_cycles", "cycles/image"),
    ("core.primarycaps.sim_cycles", "cycles/image"),
    ("core.classcaps.sim_cycles", "cycles/image"),
    ("core.routing.sim_cycles", "cycles/image"),
    ("core.array_cycles", "cycles/image"),
    ("core.activation_cycles", "cycles/image"),
    ("core.matmul_spans", "count/call"),
    ("core.acc_saturations", "count/call"),
    ("memory.stall_cycles", "cycles/image"),
    ("memory.prefetch_stall_cycles", "cycles/image"),
    ("memory.bank_stall_cycles", "cycles/image"),
    ("memory.prefetch_hidden_fraction", "fraction"),
    ("memory.dram_weight_bytes", "bytes/image"),
    ("memory.dram_data_bytes", "bytes/image"),
    ("memory.weight_buffer_read_bytes", "bytes/image"),
    ("memory.respawn_stage_calls", "count/day"),
    ("memory.respawn_stage_host_ms", "ms/day"),
    ("memory.respawn_warmup_cycles", "cycles/day"),
    ("serve.runtime_host_s", "s/day"),
    ("serve.runtime_self_host_s", "s/day"),
    ("serve.workers_ever", "count/day"),
    ("serve.batches", "count/day"),
    ("serve.mean_batch_size", "requests"),
    ("serve.queue_wait_p50_cycles", "cycles"),
    ("serve.queue_wait_p99_cycles", "cycles"),
    ("serve.shed_requests", "count/day"),
    ("serve.infeasible_requests", "count/day"),
    ("serve.scale_ups", "count/day"),
    ("serve.worker_utilization_mean", "fraction"),
    ("faults.crashes", "count/day"),
    ("faults.requeues", "count/day"),
    ("faults.retry_exhausted_batches", "count/day"),
    ("faults.stragglers", "count/day"),
    ("faults.hedges", "count/day"),
    ("faults.hedge_win_fraction", "fraction"),
    ("faults.wasted_cycle_fraction", "fraction"),
    ("faults.degrade_shifts", "count/day"),
    ("faults.served_degraded", "count/day"),
    ("capsnet.params_generate_s", "s"),
    ("capsnet.quantize_s", "s"),
    ("mnist.images_gen_s", "s"),
    ("core.timing.service_table_s", "s"),
    ("serve.trace_gen_s", "s"),
    ("telemetry.overhead_fraction", "fraction"),
];

/// Measured metrics by name: `(value, sample count)`.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }
}

/// What one workload run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Failed checks; any makes the run incorrect.
    problems: Vec<String>,
    /// Informational lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    pub fn note(&mut self, n: String) {
        self.notes.push(n);
    }
}

/// Pinned reference digests (`pins.txt`).
pub struct Pins {
    /// `seed → [(trace digest, output digest); IMAGES]`.
    engine: BTreeMap<u64, Vec<(u64, u64)>>,
    serve: BTreeMap<u64, u64>,
}

impl Pins {
    fn parse(text: &str) -> Self {
        let mut pins = Pins {
            engine: BTreeMap::new(),
            serve: BTreeMap::new(),
        };
        let hex = |s: &str| u64::from_str_radix(s, 16).expect("pin digest is hex");
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let seed: u64 = f[1].parse().expect("pin seed");
            match f[0] {
                "engine" => pins
                    .engine
                    .entry(seed)
                    .or_default()
                    .push((hex(f[3]), hex(f[4]))),
                "serve" => {
                    pins.serve.insert(seed, hex(f[2]));
                }
                other => panic!("unknown pin kind {other}"),
            }
        }
        pins
    }

    pub fn engine(&self, seed: u64) -> Option<Vec<(u64, u64)>> {
        self.engine
            .get(&seed)
            .filter(|v| v.len() == engine::IMAGES)
            .cloned()
    }

    pub fn serve(&self, seed: u64) -> Option<u64> {
        self.serve.get(&seed).copied()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn print_pins(from: u64, to: u64) {
    println!("# kind seed [image] digests (see README.md)");
    for seed in from..=to {
        for (i, (t, o)) in engine::reference_digests(seed).into_iter().enumerate() {
            println!("engine {seed} {i} {t:016x} {o:016x}");
        }
        println!("serve {seed} {:016x}", serve::event_digest(seed));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pins") {
        let seeds: Vec<u64> = args[1..].iter().filter_map(|s| s.parse().ok()).collect();
        if let [from, to] = seeds[..] {
            print_pins(from, to);
            return ExitCode::SUCCESS;
        }
        eprintln!("usage: perfbench --pins <first seed> <last seed>");
        return ExitCode::from(2);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", util::stamp(&a.workload, a.seed));

    let pins = Pins::parse(include_str!("../pins.txt"));
    let mut out = match a.workload.as_str() {
        "engine_b16_serving" => {
            engine::run(engine::Kind::Batch16, a.seed, a.seconds, a.trace, &pins)
        }
        "engine_b1_validate" => {
            engine::run(engine::Kind::Single, a.seed, a.seconds, a.trace, &pins)
        }
        _ => serve::run(a.seed, a.seconds, a.trace, &pins),
    };

    let list: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    println!(
        "{:<34} {:>22} {:<13} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for &(name, unit) in list {
        let (value, samples) = match out.metrics.0.remove(name) {
            Some(m) => m,
            // A layer the workload never enters did no work.
            None if a.trace => (0.0, 0),
            None => {
                out.problem(format!("{name} was not measured"));
                (0.0, 0)
            }
        };
        if !value.is_finite() {
            out.problem(format!("{name} is not a finite number"));
        }
        println!("{name:<34} {value:>22} {unit:<13} {samples:>8}");
        let value = if value.is_finite() { value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in out.metrics.0.keys() {
        out.problems
            .push(format!("metric {name} is not in the benchmark's list"));
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
