//! Fault-tolerance sweeps (beyond the paper) at the paper 16×16
//! configuration: the online serving runtime under seeded
//! [`FaultPlan`]s, measuring what recovery costs and what it buys.
//!
//! Three sweeps, all through [`run_runtime_resilient`] with a
//! [`ServiceModel`] built from [`degraded_service_tables`] (so graceful
//! degradation really re-prices the service table) and respawn warmups
//! staged through [`MemorySubsystem::stage_weights_faulted`] (so
//! memory-layer faults surcharge them):
//!
//! 1. **crash × retry** — worker crash rate {0, 1%, 5%} per dispatch
//!    against retry budgets {1, 3, 5}: goodput, p99, retry-exhausted
//!    count, wasted cycles, and the energy those wasted cycles burn
//!    (µJ at the calibrated 32 nm power point);
//! 2. **straggler hedging** — rare heavy stragglers (0.8% at 12×),
//!    hedging off vs on: p99 and the duplicate-work bill (rare is the
//!    regime where the p99-derived deadline can beat the straggler);
//! 3. **graceful degradation** — sustained 1.5× overload, degradation
//!    off vs on: served fraction when routing iterations shed 3→2→1
//!    under queue pressure.
//!
//! Every row is computed, printed and written to `BENCH_faults.json`
//! (into the current directory, so CI records the fault-tolerance
//! trajectory — see `ci.sh`) before any assert runs, so a failing run
//! leaves its numbers behind. Then it asserts:
//!
//! 1. **conservation** — no run loses a request: served and rejected
//!    partition the offered set even while batches crash and requeue;
//! 2. **recovery headline** — at a 1% crash rate with the standard
//!    3-attempt budget, goodput stays ≥ 90%;
//! 3. **faults-off invisibility** — the zero-rate rows are
//!    digest-identical across retry budgets and match a plain
//!    [`ResilienceConfig::none`] run bit-exactly;
//! 4. **hedging pays** — hedges fire, some win, and the hedged p99 is
//!    no worse than the unhedged tail;
//! 5. **degradation pays** — quality shifts happen and serve at least
//!    as many requests as the full-quality runtime under the same
//!    overload;
//! 6. **determinism** — rerunning every sweep produces byte-identical
//!    reports, event digests included (virtual time only).

use std::fs;

use capsacc_bench::{json_row, print_table, BenchJson};
use capsacc_capsnet::CapsNetConfig;
use capsacc_core::{AcceleratorConfig, MemorySubsystem};
use capsacc_faults::{FaultPlan, ServeFaults};
use capsacc_power::PowerModel;
use capsacc_serve::{
    degraded_service_tables, run_runtime_resilient, service_cycles_table, worker_warmup_cycles,
    workload_trace, ArrivalRegime, BatcherConfig, ClassConfig, DegradeConfig, HedgeConfig,
    NullSink, Request, ResilienceConfig, RetryConfig, RuntimeConfig, RuntimeOutcome, ServiceModel,
    WorkloadConfig,
};
use capsacc_tensor::u64_from;

/// The one seed every plan in this binary derives from — the lint
/// gate (`fault-seed`) and the rerun assert both key off plans being
/// explicit about it.
const FAULT_SEED: u64 = 0xFA17;

/// Highest degradation level (routing iterations 3 → 2 → 1).
const MAX_LEVEL: u32 = 2;

/// Serves `requests` under `rt` at a design point: per-level
/// closed-form service tables (degradation sheds routing iterations),
/// and crash replacements re-staging their weights through the faulted
/// memory path, the `k`-th in its own burst window (`k << 32`).
fn serve(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    rt: &RuntimeConfig,
    requests: &[Request],
) -> RuntimeOutcome {
    let tables = degraded_service_tables(cfg, net, rt.batcher.max_batch, MAX_LEVEL);
    let level = |l: u32| usize::try_from(l.min(MAX_LEVEL)).expect("level fits usize");
    let param_bytes = u64_from(net.total_parameters());
    let respawn = |seq: u64| {
        MemorySubsystem::new(cfg.memory)
            .stage_weights_faulted(param_bytes, &rt.resilience.faults, seq << 32)
            .cycles
    };
    let model = ServiceModel {
        service: &|l, n| tables[level(l)][n],
        respawn_warmup: &respawn,
    };
    let warmup = worker_warmup_cycles(cfg, net);
    run_runtime_resilient(rt, requests, &model, warmup, &mut NullSink)
}

/// One measured point of the crash × retry sweep.
struct CrashRow {
    crash_rate: f64,
    max_attempts: u32,
    served: usize,
    retry_exhausted: usize,
    goodput_frac: f64,
    p99_cycles: u64,
    crashes: usize,
    requeues: usize,
    wasted_cycles: u64,
    wasted_uj: f64,
    event_digest: u64,
    conserved: bool,
}

/// One measured point of the hedging / degradation comparisons.
struct PolicyRow {
    enabled: bool,
    served: usize,
    p99_cycles: u64,
    extra: usize,
    extra_wins: usize,
    wasted_cycles: u64,
    wasted_uj: f64,
    event_digest: u64,
    conserved: bool,
}

/// Conservation under faults: every offered request is served exactly
/// once XOR rejected exactly once, crashes and requeues included, and
/// the per-class ledgers add up.
fn no_request_lost(requests: &[Request], out: &RuntimeOutcome) -> bool {
    let mut seen = vec![0u32; requests.len()];
    for &r in out
        .served
        .iter()
        .chain(out.rejections.iter().map(|r| &r.request))
    {
        seen[r] += 1;
    }
    out.total_requests == requests.len()
        && seen.iter().all(|&c| c == 1)
        && out
            .class_stats
            .iter()
            .all(|c| c.offered == c.served + c.shed + c.infeasible + c.retry_exhausted)
}

/// A bursty two-class workload with comfortable headroom on the
/// 3-worker pool, so retries and hedges have slack and any goodput
/// loss is the faults' doing.
fn bursty_workload(seed: u64, requests: usize, per_request: u64, service_1: u64) -> Vec<Request> {
    workload_trace(&WorkloadConfig {
        seed,
        requests,
        regime: ArrivalRegime::Bursty {
            mean_gap_cycles: (3 * per_request / 2) as f64,
            mean_burst: 3.0,
        },
        classes: vec![
            ClassConfig {
                weight: 2,
                slo_cycles: None,
            },
            ClassConfig {
                weight: 1,
                slo_cycles: Some(30 * service_1),
            },
        ],
    })
}

fn runtime(per_request: u64, resilience: ResilienceConfig) -> RuntimeConfig {
    RuntimeConfig {
        workers: 3,
        batcher: BatcherConfig {
            max_batch: 8,
            max_wait_cycles: per_request,
        },
        queue_capacity: Some(64),
        deadline_aware: false,
        autoscaler: None,
        record_events: false,
        resilience,
    }
}

fn crash_plan(rate: f64) -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED).with_serve(ServeFaults {
        crash_per_dispatch: rate,
        ..ServeFaults::none()
    })
}

fn crash_sweep(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    requests: &[Request],
    per_request: u64,
    uj_per_cycle: f64,
) -> Vec<CrashRow> {
    let mut rows = Vec::new();
    for &crash_rate in &[0.0, 0.01, 0.05] {
        for &max_attempts in &[1u32, 3, 5] {
            let rt = runtime(
                per_request,
                ResilienceConfig {
                    faults: crash_plan(crash_rate),
                    retry: RetryConfig {
                        max_attempts,
                        backoff_base_cycles: 1_000,
                    },
                    hedge: None,
                    degrade: None,
                },
            );
            let out = serve(cfg, net, &rt, requests);
            let [_, _, p99] = out.sim.latency_percentiles();
            rows.push(CrashRow {
                crash_rate,
                max_attempts,
                served: out.served.len(),
                retry_exhausted: out.retry_exhausted_count(),
                goodput_frac: out.served_fraction(),
                p99_cycles: p99,
                crashes: out.faults.crashes,
                requeues: out.faults.requeues,
                wasted_cycles: out.faults.wasted_cycles,
                wasted_uj: out.faults.wasted_cycles as f64 * uj_per_cycle,
                event_digest: out.event_digest,
                conserved: no_request_lost(requests, &out),
            });
        }
    }
    rows
}

/// The hedging comparison: rare (0.8% per dispatch) but heavy (12×)
/// stragglers over a long trace, with and without hedged re-dispatch.
/// Rarity matters: the hedge deadline is the p99 of observed service
/// durations, which only undercuts the stragglers while they stay
/// below the 1% tail.
fn hedge_rows(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    requests: &[Request],
    per_request: u64,
    uj_per_cycle: f64,
) -> Vec<PolicyRow> {
    let plan = FaultPlan::seeded(FAULT_SEED).with_serve(ServeFaults {
        straggler_per_dispatch: 0.008,
        straggler_factor: 12,
        ..ServeFaults::none()
    });
    [None, Some(HedgeConfig::standard())]
        .into_iter()
        .map(|hedge| {
            let enabled = hedge.is_some();
            let rt = runtime(
                per_request,
                ResilienceConfig {
                    faults: plan,
                    retry: RetryConfig::standard(),
                    hedge,
                    degrade: None,
                },
            );
            let out = serve(cfg, net, &rt, requests);
            let [_, _, p99] = out.sim.latency_percentiles();
            PolicyRow {
                enabled,
                served: out.served.len(),
                p99_cycles: p99,
                extra: out.faults.hedges,
                extra_wins: out.faults.hedge_wins,
                wasted_cycles: out.faults.wasted_cycles,
                wasted_uj: out.faults.wasted_cycles as f64 * uj_per_cycle,
                event_digest: out.event_digest,
                conserved: no_request_lost(requests, &out),
            }
        })
        .collect()
}

/// The degradation comparison: fault-free but sustained ~1.5×
/// overload of the full-quality capacity, with and without quality
/// shedding (routing iterations 3→2→1 under queue pressure).
fn degrade_rows(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    per_request: u64,
    service_1: u64,
    uj_per_cycle: f64,
) -> (Vec<Request>, Vec<PolicyRow>) {
    let requests = workload_trace(&WorkloadConfig {
        seed: 29,
        requests: 1_500,
        regime: ArrivalRegime::Bursty {
            // 3 workers at batched capacity absorb one request per
            // per_request/3 cycles; arrive 1.5× faster than that.
            mean_gap_cycles: (per_request / 3) as f64 / 1.5,
            mean_burst: 3.0,
        },
        classes: vec![
            ClassConfig {
                weight: 2,
                slo_cycles: None,
            },
            ClassConfig {
                weight: 1,
                slo_cycles: Some(30 * service_1),
            },
        ],
    });
    let rows = [false, true]
        .into_iter()
        .map(|enabled| {
            let rt = runtime(
                per_request,
                ResilienceConfig {
                    faults: FaultPlan::none(),
                    retry: RetryConfig::standard(),
                    hedge: None,
                    degrade: enabled.then_some(DegradeConfig {
                        high_occupancy: 32,
                        low_occupancy: 8,
                        eval_period_cycles: per_request,
                        max_level: 2,
                    }),
                },
            );
            let out = serve(cfg, net, &rt, &requests);
            let [_, _, p99] = out.sim.latency_percentiles();
            let degraded_served: usize = out.class_stats.iter().map(|c| c.degraded).sum();
            PolicyRow {
                enabled,
                served: out.served.len(),
                p99_cycles: p99,
                extra: out.faults.degrade_shifts,
                extra_wins: degraded_served,
                wasted_cycles: out.faults.wasted_cycles,
                wasted_uj: out.faults.wasted_cycles as f64 * uj_per_cycle,
                event_digest: out.event_digest,
                conserved: no_request_lost(&requests, &out),
            }
        })
        .collect();
    (requests, rows)
}

fn crash_json(rows: &[CrashRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            json_row(&[
                ("crash_rate", format!("{:.2}", r.crash_rate)),
                ("max_attempts", r.max_attempts.to_string()),
                ("served", r.served.to_string()),
                ("retry_exhausted", r.retry_exhausted.to_string()),
                ("goodput_frac", format!("{:.4}", r.goodput_frac)),
                ("p99_cycles", r.p99_cycles.to_string()),
                ("crashes", r.crashes.to_string()),
                ("requeues", r.requeues.to_string()),
                ("wasted_cycles", r.wasted_cycles.to_string()),
                ("wasted_uj", format!("{:.2}", r.wasted_uj)),
                ("event_digest", format!("\"{:016x}\"", r.event_digest)),
            ])
        })
        .collect()
}

fn policy_json(rows: &[PolicyRow], extra_key: &str, wins_key: &str) -> Vec<String> {
    rows.iter()
        .map(|r| {
            json_row(&[
                ("enabled", r.enabled.to_string()),
                ("served", r.served.to_string()),
                ("p99_cycles", r.p99_cycles.to_string()),
                (extra_key, r.extra.to_string()),
                (wins_key, r.extra_wins.to_string()),
                ("wasted_cycles", r.wasted_cycles.to_string()),
                ("wasted_uj", format!("{:.2}", r.wasted_uj)),
                ("event_digest", format!("\"{:016x}\"", r.event_digest)),
            ])
        })
        .collect()
}

fn render_json(
    crash: &[CrashRow],
    hedge: &[PolicyRow],
    degrade: &[PolicyRow],
    power_mw: f64,
) -> String {
    let mut j = BenchJson::new("exp_faults");
    j.str_field("config", "paper_16x16_250MHz");
    j.str_field("net", "mnist");
    j.field("fault_seed", FAULT_SEED);
    j.raw("power_mw", format!("{power_mw:.1}"));
    j.rows("crash_retry_sweep", crash_json(crash));
    j.rows(
        "hedging_comparison",
        policy_json(hedge, "hedges", "hedge_wins"),
    );
    j.rows(
        "degradation_comparison",
        policy_json(degrade, "degrade_shifts", "served_degraded"),
    );
    j.render()
}

fn print_crash_sweep(rows: &[CrashRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.crash_rate * 100.0),
                r.max_attempts.to_string(),
                r.served.to_string(),
                r.retry_exhausted.to_string(),
                format!("{:.1}%", r.goodput_frac * 100.0),
                r.p99_cycles.to_string(),
                r.crashes.to_string(),
                r.requeues.to_string(),
                format!("{:.1}", r.wasted_uj),
            ]
        })
        .collect();
    print_table(
        "Crash × retry sweep — seeded worker crashes, bounded retry with backoff",
        &[
            "Crash",
            "Attempts",
            "Served",
            "Exhausted",
            "Goodput",
            "p99 cy",
            "Crashes",
            "Requeues",
            "Waste uJ",
        ],
        &table,
    );
}

fn main() {
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let table = service_cycles_table(&cfg, &net, 8);
    let per_request = table[8] / 8;
    // Energy per wasted cycle at the calibrated power point:
    // mW × cycles / (MHz × 1e3) = µJ.
    let power_mw = PowerModel::cmos_32nm().estimate(&cfg).total_power_mw();
    let uj_per_cycle = power_mw / (cfg.clock_mhz as f64 * 1e3);

    let requests = bursty_workload(17, 1_500, per_request, table[1]);
    let crash = crash_sweep(&cfg, &net, &requests, per_request, uj_per_cycle);
    print_crash_sweep(&crash);
    // The hedging comparison runs a longer trace so the rare stragglers
    // appear in force.
    let hedge_requests = bursty_workload(19, 4_000, per_request, table[1]);
    let hedge = hedge_rows(&cfg, &net, &hedge_requests, per_request, uj_per_cycle);
    let (degrade_requests, degrade) = degrade_rows(&cfg, &net, per_request, table[1], uj_per_cycle);

    let json = render_json(&crash, &hedge, &degrade, power_mw);
    match fs::write("BENCH_faults.json", &json) {
        Ok(()) => println!("\nWrote BENCH_faults.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_faults.json: {e}"),
    }

    // Invariant 1: no run lost a request.
    for (i, r) in crash.iter().enumerate() {
        assert!(
            r.conserved,
            "crash sweep row {i}: a request was lost under faults"
        );
    }
    for (i, r) in hedge.iter().chain(&degrade).enumerate() {
        assert!(
            r.conserved,
            "hedge/degrade row {i}: a request was lost under faults"
        );
    }

    // Invariant 3: faults-off rows are identical across retry budgets
    // and bit-exact against a plain ResilienceConfig::none() run — the
    // fault machinery is byte-invisible until armed.
    let clean: Vec<&CrashRow> = crash.iter().filter(|r| r.crash_rate == 0.0).collect();
    for r in &clean {
        assert_eq!(
            r.event_digest, clean[0].event_digest,
            "faults-off behavior must not depend on the retry budget"
        );
    }
    let baseline = serve(
        &cfg,
        &net,
        &runtime(per_request, ResilienceConfig::none()),
        &requests,
    );
    assert_eq!(
        baseline.event_digest, clean[0].event_digest,
        "a zero-rate FaultPlan must be byte-invisible vs ResilienceConfig::none()"
    );
    assert_eq!(baseline.faults.crashes, 0);
    println!(
        "\nFaults-off invisibility: zero-rate rows ≡ ResilienceConfig::none() \
         (digest {:016x})",
        baseline.event_digest
    );

    // Invariant 2: the recovery headline — 1% crash rate, standard
    // 3-attempt budget, goodput stays ≥ 90%.
    let headline = crash
        .iter()
        .find(|r| r.crash_rate == 0.01 && r.max_attempts == 3)
        .expect("swept point");
    assert!(
        headline.goodput_frac >= 0.90,
        "goodput collapsed under 1% crashes with retries: {:.3}",
        headline.goodput_frac
    );
    assert!(
        headline.crashes > 0,
        "the 1% crash plan never fired — the sweep is not exercising recovery"
    );
    println!(
        "Recovery headline: {:.1}% goodput at 1% crash rate with 3 attempts \
         ({} crashes ridden out, {:.1} uJ wasted)",
        headline.goodput_frac * 100.0,
        headline.crashes,
        headline.wasted_uj
    );

    // Invariant 4: hedging fires, wins, and does not worsen the tail.
    let (off, on) = (&hedge[0], &hedge[1]);
    assert!(on.extra > 0, "no hedges fired under the 12x straggler tail");
    assert!(on.extra_wins > 0, "hedges fired but never won");
    assert!(
        on.p99_cycles <= off.p99_cycles,
        "hedging worsened the tail: p99 {} hedged vs {} unhedged",
        on.p99_cycles,
        off.p99_cycles
    );
    println!(
        "Hedging: p99 {} -> {} cycles under rare 12x stragglers ({} hedges, {} wins, \
         {:.1} uJ duplicate work)",
        off.p99_cycles, on.p99_cycles, on.extra, on.extra_wins, on.wasted_uj
    );

    // Invariant 5: degradation sheds quality, not requests.
    let (doff, don) = (&degrade[0], &degrade[1]);
    assert!(
        don.extra > 0,
        "sustained overload never triggered a quality shift"
    );
    assert!(
        don.served >= doff.served,
        "degradation served fewer requests than full quality: {} vs {}",
        don.served,
        doff.served
    );
    println!(
        "Degradation: {} served at full quality vs {} with shedding ({} shifts, \
         {} requests served degraded) over {} offered",
        doff.served,
        don.served,
        don.extra,
        don.extra_wins,
        degrade_requests.len()
    );

    // Invariant 6: every sweep reruns byte-identically.
    let rerun_crash = crash_sweep(&cfg, &net, &requests, per_request, uj_per_cycle);
    let rerun_hedge = hedge_rows(&cfg, &net, &hedge_requests, per_request, uj_per_cycle);
    let (_, rerun_degrade) = degrade_rows(&cfg, &net, per_request, table[1], uj_per_cycle);
    let rerun = render_json(&rerun_crash, &rerun_hedge, &rerun_degrade, power_mw);
    assert_eq!(
        json, rerun,
        "fault sweeps are not deterministic: reruns must be byte-identical"
    );
    println!("Determinism: rerun of every fault sweep is byte-identical (digests included)");
}
