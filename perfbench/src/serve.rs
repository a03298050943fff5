//! The serving workload: a faulted diurnal day through the online
//! runtime, with resilience armed and respawns staged through the
//! faulted memory model.

use std::cell::Cell;
use std::time::{Duration, Instant};

use capsacc_capsnet::CapsNetConfig;
use capsacc_core::{AcceleratorConfig, MemoryConfig, MemorySubsystem};
use capsacc_faults::{FaultPlan, MemoryFaults, ServeFaults};
use capsacc_serve::{
    degraded_service_tables, percentile, run_runtime_resilient, worker_warmup_cycles,
    workload_trace, ArrivalRegime, AutoscalerConfig, BatcherConfig, ClassConfig, DegradeConfig,
    HedgeConfig, NullSink, Rejection, Request, ResilienceConfig, RetryConfig, RuntimeConfig,
    RuntimeOutcome, ScalingEvent, ServiceModel, WorkloadConfig,
};

use crate::util::{median, peak_rss_mb};
use crate::{Outcome, Pins};

/// Requests in one simulated day: the day `exp_serve` runs with a
/// million requests, scaled down ten-fold (period included) so several
/// days fit in one run.
const REQUESTS: usize = 100_000;
/// Highest degradation level (routing iterations 3 → 2 → 1).
const MAX_LEVEL: u32 = 2;
const MAX_BATCH: usize = 16;
/// Set-ups after each day; `setup_s` is the median of these and the
/// one before the first day. A set-up takes tens of milliseconds, so
/// spreading them over the run samples the host's speed over the same
/// window the days do, not over one short burst at the start.
const SETUPS_PER_DAY: usize = 2;
/// Timed days per run at the least.
const MIN_DAYS: usize = 3;
/// The premium class, served under its SLO.
const PREMIUM: usize = 1;
/// The fault plan's seed, `exp_faults`' own. It stays fixed so every
/// workload seed draws the same fault schedule per dispatch attempt,
/// and seeds differ only in their request traces.
const FAULT_SEED: u64 = 0xFA17;

/// Everything the day needs before its first event.
struct Day {
    tables: Vec<Vec<u64>>,
    warmup: u64,
    requests: Vec<Request>,
    plan: FaultPlan,
    table_s: f64,
    trace_s: f64,
}

fn accelerator() -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper();
    cfg.memory = MemoryConfig::paper();
    cfg
}

/// The closed-form service and warmup tables and the request trace.
fn setup(seed: u64) -> Day {
    let cfg = accelerator();
    let net = CapsNetConfig::mnist();
    let t0 = Instant::now();
    let tables = degraded_service_tables(&cfg, &net, MAX_BATCH, MAX_LEVEL);
    let warmup = worker_warmup_cycles(&cfg, &net);
    let t1 = Instant::now();
    let per_request = tables[0][MAX_BATCH] / MAX_BATCH as u64;
    let requests = workload_trace(&WorkloadConfig {
        seed,
        requests: REQUESTS,
        regime: ArrivalRegime::Diurnal {
            period_cycles: 50_000 * per_request,
            offpeak_gap_cycles: (3 * per_request) as f64,
            peak_gap_cycles: (per_request / 3).max(1) as f64,
        },
        classes: vec![
            ClassConfig {
                weight: 3,
                slo_cycles: None,
            },
            ClassConfig {
                weight: 1,
                slo_cycles: Some(30 * tables[0][1]),
            },
        ],
    });
    let t2 = Instant::now();
    let plan = FaultPlan::seeded(FAULT_SEED)
        .with_serve(ServeFaults {
            crash_per_dispatch: 0.01,
            straggler_per_dispatch: 0.008,
            straggler_factor: 12,
            ..ServeFaults::none()
        })
        .with_memory(MemoryFaults {
            dram_reburst_per_burst: 0.001,
            spm_parity_per_burst: 0.0005,
        });
    Day {
        tables,
        warmup,
        requests,
        plan,
        table_s: (t1 - t0).as_secs_f64(),
        trace_s: (t2 - t1).as_secs_f64(),
    }
}

fn runtime(day: &Day) -> RuntimeConfig {
    let per_request = day.tables[0][MAX_BATCH] / MAX_BATCH as u64;
    RuntimeConfig {
        workers: 2,
        batcher: BatcherConfig {
            max_batch: MAX_BATCH,
            max_wait_cycles: 10_000,
        },
        queue_capacity: Some(256),
        deadline_aware: true,
        autoscaler: Some(AutoscalerConfig {
            min_workers: 2,
            max_workers: 8,
            scale_up_queue_per_worker: 16,
            scale_down_idle_cycles: 500_000,
            eval_period_cycles: 100_000,
        }),
        record_events: false,
        resilience: ResilienceConfig {
            faults: day.plan,
            retry: RetryConfig::standard(),
            hedge: Some(HedgeConfig::standard()),
            degrade: Some(DegradeConfig {
                high_occupancy: 32,
                low_occupancy: 8,
                eval_period_cycles: per_request,
                max_level: MAX_LEVEL,
            }),
        },
    }
}

/// Host time and calls inside the benchmark's `ServiceModel` closures
/// during one traced day.
#[derive(Default)]
struct ClosureTimes {
    service: Cell<Duration>,
    respawn: Cell<Duration>,
    respawn_calls: Cell<u64>,
    respawn_cycles: Cell<u64>,
}

/// Runs one day; with `timers`, the closures time themselves.
fn serve_day(
    day: &Day,
    rt: &RuntimeConfig,
    timers: Option<&ClosureTimes>,
) -> (RuntimeOutcome, Duration) {
    let mem = accelerator().memory;
    let param_bytes = CapsNetConfig::mnist().total_parameters() as u64;
    let tables = &day.tables;
    let plan = day.plan;
    let lookup = |level: u32, n: usize| tables[level.min(MAX_LEVEL) as usize][n];
    let stage = |seq: u64| {
        MemorySubsystem::new(mem)
            .stage_weights_faulted(param_bytes, &plan, seq << 32)
            .cycles
    };
    let timed_lookup = |level: u32, n: usize| {
        let t = Instant::now();
        let c = lookup(level, n);
        let c_t = timers.expect("timed model");
        c_t.service.set(c_t.service.get() + t.elapsed());
        c
    };
    let timed_stage = |seq: u64| {
        let t = Instant::now();
        let c = stage(seq);
        let c_t = timers.expect("timed model");
        c_t.respawn.set(c_t.respawn.get() + t.elapsed());
        c_t.respawn_calls.set(c_t.respawn_calls.get() + 1);
        c_t.respawn_cycles.set(c_t.respawn_cycles.get() + c);
        c
    };
    let model = match timers {
        None => ServiceModel {
            service: &lookup,
            respawn_warmup: &stage,
        },
        Some(_) => ServiceModel {
            service: &timed_lookup,
            respawn_warmup: &timed_stage,
        },
    };
    let t = Instant::now();
    let out = run_runtime_resilient(rt, &day.requests, &model, day.warmup, &mut NullSink);
    (out, t.elapsed())
}

/// Conservation: every offered request is served or refused exactly
/// once, and the per-class ledgers add up.
fn conservation(day: &Day, out: &RuntimeOutcome) -> Result<(), String> {
    let offered = day.requests.len();
    if out.total_requests != offered || out.served.len() + out.rejections.len() != offered {
        return Err(format!(
            "served {} + refused {} != offered {offered}",
            out.served.len(),
            out.rejections.len()
        ));
    }
    let mut seen = vec![0u8; offered];
    for &r in &out.served {
        seen[r] += 1;
    }
    for r in &out.rejections {
        seen[r.request] += 1;
    }
    if seen.iter().any(|&c| c != 1) {
        return Err("a request was lost or counted twice".into());
    }
    let mut class_offered = 0;
    for c in &out.class_stats {
        class_offered += c.offered;
        if c.offered != c.served + c.shed + c.infeasible + c.retry_exhausted {
            return Err("a per-class ledger does not add up".into());
        }
    }
    if class_offered != offered {
        return Err("per-class offered counts do not sum to the day".into());
    }
    Ok(())
}

/// The event digest of `seed`'s day, for the pin table.
pub fn event_digest(seed: u64) -> u64 {
    let day = setup(seed);
    serve_day(&day, &runtime(&day), None).0.event_digest
}

/// Runs the serving workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let d = setup(seed);
        setups.push([t.elapsed().as_secs_f64(), d.table_s, d.trace_s]);
        d
    };
    let day = timed_setup();
    let rt = runtime(&day);

    // Each day is checked as soon as it ends, outside its timed call,
    // and only the first is kept, so the checks hold no memory that
    // grows with the run.
    let pin = pins.serve(seed);
    let mut first: Option<RuntimeOutcome> = None;
    let mut check_day = |o: RuntimeOutcome, out: &mut Outcome| {
        out.attempted += 1;
        let digest = first.as_ref().map_or(o.event_digest, |f| f.event_digest);
        let check = conservation(&day, &o).and_then(|()| {
            if o.event_digest != digest {
                Err("event digest changed between identical days".into())
            } else if pin.is_some_and(|p| p != o.event_digest) {
                Err(format!(
                    "event digest {:016x} differs from its pin",
                    o.event_digest
                ))
            } else {
                Ok(())
            }
        });
        if let Err(e) = check {
            out.failed += 1;
            out.problem(e);
        }
        first.get_or_insert(o);
    };
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut self_s = Vec::new();
    let mut respawn_ms = Vec::new();
    let mut respawn = (0, 0);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while untraced_s.len() < MIN_DAYS || start.elapsed() < budget {
        let (o, dt) = serve_day(&day, &rt, None);
        untraced_s.push(dt.as_secs_f64());
        check_day(o, &mut out);
        for _ in 0..SETUPS_PER_DAY {
            timed_setup();
        }
        if !trace {
            continue;
        }
        let timers = ClosureTimes::default();
        let (o, dt) = serve_day(&day, &rt, Some(&timers));
        let inside = timers.service.get() + timers.respawn.get();
        traced_s.push(dt.as_secs_f64());
        self_s.push(dt.saturating_sub(inside).as_secs_f64());
        respawn_ms.push(timers.respawn.get().as_secs_f64() * 1e3);
        respawn = (timers.respawn_calls.get(), timers.respawn_cycles.get());
        check_day(o, &mut out);
    }
    let rss = peak_rss_mb();
    let o = first.expect("at least one day");
    if pin.is_none() {
        out.note(format!(
            "no event-digest pin for seed {seed}; digest {:016x}",
            o.event_digest
        ));
    }

    let offered = o.total_requests as f64;
    let m = &mut out.metrics;
    let n = untraced_s.len();
    let med = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    let reps = setups.len();
    if trace {
        let workers = o.sim.worker_busy_cycles.len();
        let busy: u64 = o.sim.worker_busy_cycles.iter().sum();
        let mut waits: Vec<u64> = o
            .sim
            .requests
            .iter()
            .map(|r| r.queue_wait_cycles())
            .collect();
        waits.sort_unstable();
        let infeasible = o
            .rejections
            .iter()
            .filter(|r| r.rejection == Rejection::DeadlineInfeasible)
            .count();
        let scale_ups = o
            .scaling
            .iter()
            .filter(|s| matches!(s, ScalingEvent::Up { .. }))
            .count();
        let f = &o.faults;
        let nt = traced_s.len();
        m.set("serve.runtime_host_s", median(&traced_s), nt);
        m.set("serve.runtime_self_host_s", median(&self_s), nt);
        m.set("serve.workers_ever", workers as f64, 1);
        m.set("serve.batches", o.sim.batches.len() as f64, 1);
        m.set("serve.mean_batch_size", o.sim.mean_batch_len(), 1);
        m.set(
            "serve.queue_wait_p50_cycles",
            percentile(&waits, 50.0) as f64,
            waits.len(),
        );
        m.set(
            "serve.queue_wait_p99_cycles",
            percentile(&waits, 99.0) as f64,
            waits.len(),
        );
        m.set("serve.shed_requests", o.shed_count() as f64, 1);
        m.set("serve.infeasible_requests", infeasible as f64, 1);
        m.set("serve.scale_ups", scale_ups as f64, 1);
        let util = (0..workers).map(|w| o.sim.utilization(w)).sum::<f64>() / workers as f64;
        m.set("serve.worker_utilization_mean", util, workers);
        m.set("faults.crashes", f.crashes as f64, 1);
        m.set("faults.requeues", f.requeues as f64, 1);
        m.set(
            "faults.retry_exhausted_batches",
            f.exhausted_batches as f64,
            1,
        );
        m.set("faults.stragglers", f.stragglers as f64, 1);
        m.set("faults.hedges", f.hedges as f64, 1);
        let wins = if f.hedges == 0 {
            0.0
        } else {
            f.hedge_wins as f64 / f.hedges as f64
        };
        m.set("faults.hedge_win_fraction", wins, f.hedges);
        m.set(
            "faults.wasted_cycle_fraction",
            f.wasted_cycles as f64 / busy as f64,
            1,
        );
        m.set("faults.degrade_shifts", f.degrade_shifts as f64, 1);
        let degraded: usize = o.class_stats.iter().map(|c| c.degraded).sum();
        m.set("faults.served_degraded", degraded as f64, 1);
        m.set("memory.respawn_stage_calls", respawn.0 as f64, 1);
        m.set("memory.respawn_stage_host_ms", median(&respawn_ms), nt);
        m.set("memory.respawn_warmup_cycles", respawn.1 as f64, 1);
        m.set(
            "telemetry.overhead_fraction",
            median(&traced_s) / median(&untraced_s) - 1.0,
            nt,
        );
        m.set("core.timing.service_table_s", med(1), reps);
        m.set("serve.trace_gen_s", med(2), reps);
    } else {
        let [p50, _, p99] = o.sim.latency_percentiles();
        let premium = &o.class_stats[PREMIUM];
        let busy: u64 = o.sim.worker_busy_cycles.iter().sum();
        let per_day_ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3 / offered).collect();
        let rates: Vec<f64> = untraced_s.iter().map(|s| offered / s).collect();
        m.set("setup_s", med(0), reps);
        m.set("host_ms_per_image_p50", median(&per_day_ms), n);
        m.set("requests_per_s", median(&rates), n);
        m.set(
            "sim_cycles_per_image",
            busy as f64 / o.served.len() as f64,
            o.served.len(),
        );
        m.set("sim_latency_p50_cycles", p50 as f64, o.served.len());
        m.set("sim_latency_p99_cycles", p99 as f64, o.served.len());
        m.set("served_fraction", o.served_fraction(), o.total_requests);
        m.set(
            "slo_attainment_premium",
            premium.slo_met as f64 / premium.offered as f64,
            premium.offered,
        );
        m.set("peak_rss_mb", rss, 1);
    }
    out
}
