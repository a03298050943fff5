//! The two engine workloads: batch-16 serving through one long-lived
//! `BatchScheduler`, and single-image validation through
//! `Accelerator::run_inference` with the full trace and modelled
//! memory.

use std::time::{Duration, Instant};

use capsacc_capsnet::{
    infer_q8_traced, CapsNetConfig, CapsNetParams, QuantPipeline, QuantizedParams, RoutingVariant,
};
use capsacc_core::{
    timing, validate_span_tree, Accelerator, AcceleratorConfig, BatchRun, BatchScheduler,
    EngineBackend, LayerRun, MemReport, MemoryConfig, MemoryKind, Recorder, SpanDetail,
    TelemetryConfig, TraceLevel, TrafficReport, TRACK_ENGINE,
};
use capsacc_mnist::SyntheticMnist;
use capsacc_tensor::Tensor;

use crate::util::{median, output_digest, peak_rss_mb, quantile, trace_digest};
use crate::{Metrics, Outcome, Pins};

/// Distinct images per seed; the batch-16 workload serves all of them
/// in every batch, the single-image workload cycles through them.
pub const IMAGES: usize = 16;
/// Seed of the deployed model's parameters (the workload seed picks
/// the inputs, not the model).
const PARAM_SEED: u64 = 0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed units per run at the least, however short `--seconds` is. A
/// unit is `IMAGES` images: one batch-16 call, or one pass of
/// single-image calls over all the digits. A unit's mean is one
/// sample, so every sample covers the same images and one slow call
/// moves a sample little.
const MIN_UNITS: usize = 3;

/// Simulated cycles of one batch-16 call on the paper design point
/// with ideal memory (16 × 1,064,096 cycles/image).
const B16_BATCH_CYCLES: u64 = 17_025_536;
/// Simulated cycles of one single-image inference with
/// `MemoryConfig::paper()`.
const B1_CYCLES: u64 = 4_564_355;
/// Premium-class SLO in multiples of the batch-1 service time, as in
/// the serving workload.
const PREMIUM_SLO_FACTOR: u64 = 30;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `engine_b16_serving`.
    Batch16,
    /// `engine_b1_validate`.
    Single,
}

impl Kind {
    fn config(self) -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::paper();
        cfg.backend = EngineBackend::Functional;
        match self {
            Kind::Batch16 => cfg.trace_level = TraceLevel::Outputs,
            Kind::Single => {
                cfg.trace_level = TraceLevel::Full;
                cfg.memory = MemoryConfig::paper();
            }
        }
        cfg
    }

    fn call_cycles(self) -> u64 {
        match self {
            Kind::Batch16 => B16_BATCH_CYCLES,
            Kind::Single => B1_CYCLES,
        }
    }
}

/// The workload's inputs: `IMAGES` distinct synthetic digits under the
/// seed.
pub fn images(seed: u64) -> Vec<Tensor<f32>> {
    let ds = SyntheticMnist::new(seed);
    (0..IMAGES as u64).map(|i| ds.sample(i).image).collect()
}

fn model(cfg: &AcceleratorConfig, net: &CapsNetConfig) -> QuantizedParams {
    CapsNetParams::generate(net, PARAM_SEED).quantize(cfg.numeric)
}

/// Reference `(trace digest, output digest)` of every input image of
/// `seed`, from the `capsnet` q8 reference model, spread over the
/// host's cores.
pub fn reference_digests(seed: u64) -> Vec<(u64, u64)> {
    let cfg = Kind::Single.config();
    let net = CapsNetConfig::mnist();
    let qparams = model(&cfg, &net);
    let pipeline = QuantPipeline::new(cfg.numeric);
    let variant = if cfg.dataflow.skip_first_softmax {
        RoutingVariant::SkipFirstSoftmax
    } else {
        RoutingVariant::Original
    };
    let imgs = images(seed);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = vec![(0, 0); IMAGES];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (net, qparams, pipeline, imgs) = (&net, &qparams, &pipeline, &imgs);
                s.spawn(move || {
                    (w..IMAGES)
                        .step_by(workers)
                        .map(|i| {
                            let t = infer_q8_traced(net, qparams, pipeline, &imgs[i], variant);
                            (i, (trace_digest(&t), output_digest(&t.output)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, d) in h.join().expect("reference worker") {
                out[i] = d;
            }
        }
    });
    out
}

/// The engine under test, in the shape its workload drives it.
enum Engine {
    Batch(BatchScheduler),
    Single(Accelerator),
}

/// What one call produced, reduced to what the checks and metrics need.
struct Call {
    /// `(image index, digest)`: output digests for the batch path,
    /// whole-trace digests for the single-image path.
    digests: Vec<(usize, u64)>,
    images: usize,
    layers: Vec<LayerRun>,
    memory: MemReport,
    traffic: TrafficReport,
    saturations: u64,
}

impl Call {
    fn from_batch(run: BatchRun) -> Self {
        Call {
            digests: run
                .traces
                .iter()
                .enumerate()
                .map(|(i, t)| (i, output_digest(&t.output)))
                .collect(),
            images: run.batch,
            layers: run.layers,
            memory: run.memory,
            traffic: run.traffic,
            saturations: run.accumulator_saturations,
        }
    }

    fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerRun::cycles).sum()
    }
}

impl Engine {
    fn accelerator(&mut self) -> &mut Accelerator {
        match self {
            Engine::Batch(s) => s.accelerator_mut(),
            Engine::Single(a) => a,
        }
    }

    /// Runs one call and returns it with its host time; only the call
    /// itself is timed.
    fn call(
        &mut self,
        net: &CapsNetConfig,
        qparams: &QuantizedParams,
        imgs: &[Tensor<f32>],
        seq: usize,
    ) -> (Call, Duration) {
        match self {
            Engine::Batch(s) => {
                let t = Instant::now();
                let run = s.run(net, qparams, imgs);
                let dt = t.elapsed();
                (Call::from_batch(run.expect("valid batch")), dt)
            }
            Engine::Single(a) => {
                let i = seq % imgs.len();
                let t = Instant::now();
                let run = a.run_inference(net, qparams, &imgs[i]);
                let dt = t.elapsed();
                let call = Call {
                    digests: vec![(i, trace_digest(&run.trace))],
                    images: 1,
                    layers: run.layers,
                    memory: run.memory,
                    traffic: run.traffic,
                    saturations: run.accumulator_saturations,
                };
                (call, dt)
            }
        }
    }
}

/// A ready engine plus the times its set-up steps took.
struct Prepared {
    net: CapsNetConfig,
    qparams: QuantizedParams,
    imgs: Vec<Tensor<f32>>,
    engine: Engine,
    total_s: f64,
    params_s: f64,
    quantize_s: f64,
    images_s: f64,
}

/// Everything a user pays before the first result: the model, the
/// inputs, the engine and its first (warm-up) call.
fn setup(kind: Kind, seed: u64) -> (Prepared, Call) {
    let cfg = kind.config();
    let net = CapsNetConfig::mnist();
    let t0 = Instant::now();
    let params = CapsNetParams::generate(&net, PARAM_SEED);
    let t1 = Instant::now();
    let qparams = params.quantize(cfg.numeric);
    drop(params);
    let t2 = Instant::now();
    let imgs = images(seed);
    let t3 = Instant::now();
    let mut engine = match kind {
        Kind::Batch16 => Engine::Batch(BatchScheduler::new(cfg)),
        Kind::Single => Engine::Single(Accelerator::new(cfg)),
    };
    let (first, _) = engine.call(&net, &qparams, &imgs, 0);
    let t4 = Instant::now();
    let prepared = Prepared {
        net,
        qparams,
        imgs,
        engine,
        total_s: (t4 - t0).as_secs_f64(),
        params_s: (t1 - t0).as_secs_f64(),
        quantize_s: (t2 - t1).as_secs_f64(),
        images_s: (t3 - t2).as_secs_f64(),
    };
    (prepared, first)
}

/// Host and simulated-cycle attribution of one traced call, read from
/// the recorder's span tree.
#[derive(Default)]
struct Breakdown {
    /// Cycles of the Conv1, PrimaryCaps and ClassCaps layer spans.
    layer_cycles: [u64; 3],
    routing_cycles: u64,
    matmul_spans: u64,
    stage_ns: u64,
    sweep_ns: u64,
    /// Matmul host nanoseconds (stage + sweep) under each layer span.
    layer_ns: [u64; 3],
}

const LAYERS: [&str; 3] = ["Conv1", "PrimaryCaps", "ClassCaps"];

fn breakdown(rec: &Recorder, call: &Call) -> Result<Breakdown, String> {
    let total = validate_span_tree(rec, TRACK_ENGINE)?;
    if total != call.total_cycles() {
        return Err(format!(
            "span tree covers {total} cycles, the call reports {}",
            call.total_cycles()
        ));
    }
    let spans = rec.spans();
    let layer_of = |mut i: usize| -> Option<usize> {
        loop {
            if let Some(l) = LAYERS.iter().position(|&n| n == spans[i].name) {
                return Some(l);
            }
            i = spans[i].parent? as usize;
        }
    };
    let mut b = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if s.track != TRACK_ENGINE {
            continue;
        }
        if let Some(l) = LAYERS.iter().position(|&n| n == s.name) {
            b.layer_cycles[l] += s.cycles();
        }
        match s.name {
            "routing" => b.routing_cycles += s.cycles(),
            "matmul" => {
                b.matmul_spans += 1;
                let arg = |k| s.args.iter().find(|(n, _)| *n == k).map_or(0, |a| a.1);
                let (stage, sweep) = (arg("host_stage_ns"), arg("host_sweep_ns"));
                b.stage_ns += stage;
                b.sweep_ns += sweep;
                let l = layer_of(i).ok_or("matmul span outside any layer span")?;
                b.layer_ns[l] += stage + sweep;
            }
            _ => {}
        }
    }
    if b.layer_cycles.iter().sum::<u64>() != total {
        return Err(format!(
            "layer spans sum to {} cycles, the call to {total}",
            b.layer_cycles.iter().sum::<u64>()
        ));
    }
    for (l, run) in call.layers.iter().enumerate() {
        if b.layer_cycles.get(l) != Some(&run.cycles()) {
            return Err(format!(
                "layer {} span cycles differ from LayerRun",
                run.name
            ));
        }
    }
    Ok(b)
}

/// Runs one engine workload and reports its metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let mut calls: Vec<Call> = Vec::new();

    // Every set-up's warm-up call is checked like a timed one.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let (p, first) = setup(kind, seed);
        setups.push([p.total_s, p.params_s, p.quantize_s, p.images_s]);
        calls.push(first);
        prepared = Some(p);
    }
    let mut p = prepared.expect("at least one set-up");

    let telemetry = TelemetryConfig {
        detail: SpanDetail::Phases,
        host_timing: true,
    };
    let mut untraced_ms = Vec::new();
    let mut unit_ms = Vec::new();
    let mut unit = (0.0, 0usize);
    let mut host_s = 0.0;
    let mut images_done = 0usize;
    let mut traced_ms = Vec::new();
    let mut traced_images = 0usize;
    let mut totals = Breakdown::default();
    let mut traced_call_ns = 0u64;
    let mut last_breakdown = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut seq = 1;
    while unit_ms.len() < MIN_UNITS || start.elapsed() < budget || unit.1 > 0 {
        let (call, dt) = p.engine.call(&p.net, &p.qparams, &p.imgs, seq);
        seq += 1;
        untraced_ms.push(dt.as_secs_f64() * 1e3 / call.images as f64);
        host_s += dt.as_secs_f64();
        images_done += call.images;
        unit = (unit.0 + dt.as_secs_f64(), unit.1 + call.images);
        if unit.1 >= IMAGES {
            unit_ms.push(unit.0 * 1e3 / unit.1 as f64);
            unit = (0.0, 0);
        }
        calls.push(call);
        if !trace {
            continue;
        }
        p.engine.accelerator().enable_telemetry(telemetry);
        let (call, dt) = p.engine.call(&p.net, &p.qparams, &p.imgs, seq);
        seq += 1;
        let rec = p.engine.accelerator().take_telemetry();
        traced_ms.push(dt.as_secs_f64() * 1e3 / call.images as f64);
        traced_images += call.images;
        let ns = u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX);
        traced_call_ns += ns;
        match breakdown(&rec, &call) {
            Ok(b) => {
                if b.stage_ns + b.sweep_ns > ns {
                    out.problem(format!(
                        "matmul host time {} ns exceeds the call's {ns} ns",
                        b.stage_ns + b.sweep_ns
                    ));
                }
                totals.stage_ns += b.stage_ns;
                totals.sweep_ns += b.sweep_ns;
                for l in 0..3 {
                    totals.layer_ns[l] += b.layer_ns[l];
                }
                last_breakdown = Some(b);
            }
            Err(e) => out.problem(format!("span tree: {e}")),
        }
        calls.push(call);
    }
    let rss = peak_rss_mb();

    // Correctness: pinned digests when the seed has them, otherwise the
    // reference model run now, outside every timed region.
    let expected = pins.engine(seed).unwrap_or_else(|| reference_digests(seed));
    for call in &calls {
        out.attempted += 1;
        let digests_ok = call.digests.iter().all(|&(i, d)| {
            let (trace_d, output_d) = expected[i];
            d == if kind == Kind::Single {
                trace_d
            } else {
                output_d
            }
        });
        let cycles_ok = call.total_cycles() == kind.call_cycles();
        if !(digests_ok && cycles_ok) {
            out.failed += 1;
        }
    }
    if out.failed > 0 {
        out.problem(format!(
            "{} of {} calls disagree with the reference outputs or the cycle pin",
            out.failed, out.attempted
        ));
    }

    let last = calls.last().expect("at least one call");
    let per_image = |v: u64| v as f64 / last.images as f64;
    let cycles_per_image = per_image(last.total_cycles());
    if !trace {
        let n = untraced_ms.len();
        out.note(format!(
            "host_ms_per_image_p90 = {} ms over {n} calls ({} beyond it)",
            quantile(&untraced_ms, 0.9),
            n / 10
        ));
    }
    let m = &mut out.metrics;
    let med = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    if trace {
        set_per_layer(m, last, last_breakdown.as_ref(), per_image);
        let ms_per_image = |ns: u64| ns as f64 / 1e6 / traced_images.max(1) as f64;
        let n = traced_ms.len();
        m.set("core.call_host_ms", ms_per_image(traced_call_ns), n);
        m.set(
            "core.matmul_stage_host_ms",
            ms_per_image(totals.stage_ns),
            n,
        );
        m.set(
            "core.matmul_sweep_host_ms",
            ms_per_image(totals.sweep_ns),
            n,
        );
        for (l, name) in [
            "core.conv1.host_ms",
            "core.primarycaps.host_ms",
            "core.classcaps.host_ms",
        ]
        .into_iter()
        .enumerate()
        {
            m.set(name, ms_per_image(totals.layer_ns[l]), n);
        }
        m.set(
            "core.unattributed_host_ms",
            ms_per_image(traced_call_ns.saturating_sub(totals.stage_ns + totals.sweep_ns)),
            n,
        );
        m.set(
            "telemetry.overhead_fraction",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
            n,
        );
        m.set("capsnet.params_generate_s", med(1), SETUP_REPS);
        m.set("capsnet.quantize_s", med(2), SETUP_REPS);
        m.set("mnist.images_gen_s", med(3), SETUP_REPS);
    } else {
        let slo = PREMIUM_SLO_FACTOR
            * timing::full_inference_batch_mem(&Kind::Single.config(), &p.net, 1).total_cycles();
        let latency = last.total_cycles();
        let met = if latency <= slo { 1.0 } else { 0.0 };
        m.set("setup_s", med(0), SETUP_REPS);
        m.set("host_ms_per_image_p50", median(&unit_ms), unit_ms.len());
        m.set("requests_per_s", images_done as f64 / host_s, images_done);
        m.set("sim_cycles_per_image", cycles_per_image, images_done);
        m.set("sim_latency_p50_cycles", latency as f64, images_done);
        m.set("sim_latency_p99_cycles", latency as f64, images_done);
        m.set("served_fraction", 1.0, images_done);
        m.set("slo_attainment_premium", met, images_done);
        m.set("peak_rss_mb", rss, 1);
    }
    out
}

/// The simulated-cycle and memory layers of one call, per image.
fn set_per_layer(
    m: &mut Metrics,
    call: &Call,
    b: Option<&Breakdown>,
    per_image: impl Fn(u64) -> f64,
) {
    if let Some(b) = b {
        m.set("core.conv1.sim_cycles", per_image(b.layer_cycles[0]), 1);
        m.set(
            "core.primarycaps.sim_cycles",
            per_image(b.layer_cycles[1]),
            1,
        );
        m.set("core.classcaps.sim_cycles", per_image(b.layer_cycles[2]), 1);
        m.set("core.routing.sim_cycles", per_image(b.routing_cycles), 1);
        m.set("core.matmul_spans", b.matmul_spans as f64, 1);
    }
    let sum = |f: fn(&LayerRun) -> u64| call.layers.iter().map(f).sum::<u64>();
    m.set("core.array_cycles", per_image(sum(|l| l.array_cycles)), 1);
    m.set(
        "core.activation_cycles",
        per_image(sum(|l| l.activation_cycles)),
        1,
    );
    m.set("core.acc_saturations", call.saturations as f64, 1);
    let mem = &call.memory;
    m.set("memory.stall_cycles", per_image(mem.stall_cycles), 1);
    m.set(
        "memory.prefetch_stall_cycles",
        per_image(mem.prefetch_stall_cycles),
        1,
    );
    m.set(
        "memory.bank_stall_cycles",
        per_image(mem.bank_stall_cycles),
        1,
    );
    let exposed = mem.hidden_fill_cycles + mem.prefetch_stall_cycles;
    let hidden = if exposed == 0 {
        0.0
    } else {
        mem.hidden_fill_cycles as f64 / exposed as f64
    };
    m.set("memory.prefetch_hidden_fraction", hidden, 1);
    m.set(
        "memory.dram_weight_bytes",
        per_image(mem.dram_weight_bytes),
        1,
    );
    m.set("memory.dram_data_bytes", per_image(mem.dram_data_bytes), 1);
    m.set(
        "memory.weight_buffer_read_bytes",
        per_image(call.traffic.counter(MemoryKind::WeightBuffer).read_bytes),
        1,
    );
}
