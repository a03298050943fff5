//! # capsacc-serve — deterministic multi-worker request serving
//!
//! The ROADMAP's north star is an accelerator that *serves traffic*,
//! not one that runs a benchmark loop. This crate builds that serving
//! layer over the engine in `capsacc-core`, as a simulator with one
//! hard invariant: **everything is virtual time** — no wall clock, no
//! nondeterminism — so every run is byte-for-byte reproducible, even
//! though real OS threads do the engine work.
//!
//! One runtime schedules every serve:
//!
//! - [`arrival_trace`] / [`workload_trace`] — seeded synthetic request
//!   streams ([`TraceConfig`], [`WorkloadConfig`]: arrival regimes and
//!   priority classes with SLOs);
//! - [`run_runtime_resilient`] — the event-driven runtime
//!   ([`RuntimeConfig`]): dynamic micro-batching ([`BatcherConfig`]: a
//!   batch closes on `max_batch` or a `max_wait_cycles` deadline),
//!   dispatch onto N workers (earliest-free, lowest-id ties), admission
//!   control and load shedding (typed [`Rejection`]s), SLO-aware early
//!   closing, priority classes, an autoscaler with explicit weight-fill
//!   warmup ([`worker_warmup_cycles`]), seeded fault injection and
//!   recovery ([`ResilienceConfig`]) and a streaming [`EventSink`]
//!   ([`RuntimeTelemetry`]). Service times come from a level-aware
//!   [`ServiceModel`] ([`degraded_service_tables`]); batch cycle counts
//!   are data-independent, so one number per batch size is exact.
//!   [`run_runtime`] is its shorthand for a flat `service(n)` table
//!   ([`service_cycles_table`], [`engine_service_cycles_table`]);
//! - [`serve_with_engine`] — runs the batches the runtime scheduled on a
//!   [`ShardPool`]: N long-lived [`capsacc_core::BatchScheduler`]
//!   replicas on OS threads, weights resident across batches, for runs
//!   that need real traces (bit-exact against sequential runs).
//!
//! Latency is reported per request (queue wait + batch position +
//! batch cycles → [`RequestStat`]) and aggregated into p50/p95/p99 and
//! throughput by [`SimOutcome`], inside the [`RuntimeOutcome`].
//!
//! # Example
//!
//! ```
//! use capsacc_capsnet::CapsNetConfig;
//! use capsacc_core::AcceleratorConfig;
//! use capsacc_serve::{
//!     arrival_trace, run_runtime, service_cycles_table, BatcherConfig, Request,
//!     ResilienceConfig, RuntimeConfig, TraceConfig,
//! };
//!
//! let trace = TraceConfig { seed: 7, requests: 64, mean_gap_cycles: 2_000.0, mean_burst: 4.0 };
//! let requests: Vec<Request> = arrival_trace(&trace).into_iter().map(Request::best_effort).collect();
//! let rt = RuntimeConfig {
//!     workers: 4,
//!     batcher: BatcherConfig { max_batch: 16, max_wait_cycles: 100_000 },
//!     queue_capacity: None,
//!     deadline_aware: false,
//!     autoscaler: None,
//!     record_events: false,
//!     resilience: ResilienceConfig::none(),
//! };
//! let table = service_cycles_table(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 16);
//! let out = run_runtime(&rt, &requests, &|n| table[n], 0);
//! assert_eq!(out.sim.requests.len(), 64);
//! let [p50, p95, p99] = out.sim.latency_percentiles();
//! assert!(p50 <= p95 && p95 <= p99);
//! // Byte-identical on rerun: the whole runtime is virtual-time.
//! assert_eq!(out, run_runtime(&rt, &requests, &|n| table[n], 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod pool;
mod runtime;
mod sim;
pub mod telemetry;
mod trace;

pub use batcher::{BatcherConfig, ConfigError};
pub use capsacc_telemetry::percentile;
pub use pool::{PoolError, ShardPool};
pub use runtime::{
    run_runtime, run_runtime_resilient, AutoscalerConfig, ClassStats, CloseCause, DegradeConfig,
    EventSink, FaultStats, HedgeConfig, LoggedEvent, NullSink, Rejection, RejectionRecord,
    ResilienceConfig, RetryConfig, RuntimeConfig, RuntimeOutcome, ScalingEvent, ServiceModel,
};
pub use sim::{BatchStat, RequestStat, SimOutcome};
pub use telemetry::RuntimeTelemetry;
pub use trace::{
    arrival_trace, workload_trace, ArrivalRegime, ClassConfig, Request, TraceConfig,
    WorkloadConfig, VIRTUAL_TIME_HORIZON,
};

use capsacc_capsnet::{CapsNetConfig, QuantTrace, QuantizedParams};
use capsacc_core::{timing, AcceleratorConfig, BatchScheduler};
use capsacc_memory::MemorySubsystem;
use capsacc_tensor::{u64_from, Tensor};

/// Precomputes the closed-form cycle model for every batch size up to
/// `max_batch`, including memory-hierarchy stalls under `cfg.memory` —
/// the `service(n)` the dispatcher charges at MNIST scale, where
/// ticking the engine per batch would be prohibitive.
pub fn service_cycles_table(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    max_batch: usize,
) -> Vec<u64> {
    let mut table = vec![0u64; max_batch + 1];
    for (n, slot) in table.iter_mut().enumerate().skip(1) {
        *slot = timing::full_inference_batch_mem(cfg, net, u64_from(n)).total_cycles();
    }
    table
}

/// Measures the *engine's* [`capsacc_core::BatchRun`] cycle cost for
/// every batch size up to `max_batch`, by running scratch batches of
/// deterministic dummy images through a fresh scheduler per size.
///
/// Batch cycle counts are data-independent (the array ticks by shape,
/// not value) and independent of scheduler reuse, so this table is
/// exact for every real batch of the same size —
/// [`serve_with_engine`] asserts exactly that against each batch the
/// shard pool actually serves.
///
/// At MNIST scale, build the table with
/// `cfg.backend = EngineBackend::Functional` (and typically
/// `cfg.trace_level = TraceLevel::Outputs`): the functional backend
/// charges the identical cycles at wall-clock speed, so paper-scale
/// engine service tables are practical where ticking every PE was not
/// (pinned by `tests/serve_equivalence.rs::
/// engine_service_cycles_table_holds_at_mnist_scale`).
pub fn engine_service_cycles_table(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    max_batch: usize,
) -> Vec<u64> {
    let dummy = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
        ((i[1] * 3 + i[2]) % 11) as f32 / 11.0
    });
    let mut table = vec![0u64; max_batch + 1];
    for (n, slot) in table.iter_mut().enumerate().skip(1) {
        *slot = BatchScheduler::new(*cfg)
            .run(net, qparams, &vec![dummy.clone(); n])
            .expect("dummy batch is valid")
            .total_cycles();
    }
    table
}

/// Cycles an autoscaled worker spin-up spends filling its weight
/// memory: the whole parameter set (`dram_weight_bytes ==
/// total_parameters()`, 8-bit weights) streamed through the
/// [`MemorySubsystem`]'s weight channel under `cfg.memory`. Zero under
/// the ideal memory model — spin-ups are then instantaneous, exactly
/// as the rest of the cycle model treats weights as resident.
pub fn worker_warmup_cycles(cfg: &AcceleratorConfig, net: &CapsNetConfig) -> u64 {
    MemorySubsystem::new(cfg.memory).stage_weights(u64_from(net.total_parameters()))
}

/// Per-degradation-level service tables: level `l` sheds routing
/// iterations (3 → 2 → 1 under the paper network), never below one, and
/// prices each level with the closed-form cycle model. `tables[l][n]`
/// is a batch-of-`n`'s cycle cost at degradation level `l`; level 0 is
/// exactly [`service_cycles_table`].
pub fn degraded_service_tables(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    max_batch: usize,
    max_level: u32,
) -> Vec<Vec<u64>> {
    (0..=usize::try_from(max_level).expect("degradation level fits usize"))
        .map(|l| {
            let mut shed = *net;
            shed.routing_iterations = shed.routing_iterations.saturating_sub(l).max(1);
            service_cycles_table(cfg, &shed, max_batch)
        })
        .collect()
}

/// Serves `requests` through the runtime and runs the batches it
/// scheduled on a [`ShardPool`] of engine replicas on OS threads,
/// returning the runtime's outcome plus every served request's
/// functional trace, aligned with [`RuntimeOutcome::served`].
///
/// The runtime charges the **engine's own** `BatchRun` cycle costs
/// ([`engine_service_cycles_table`]) as service times, and every batch
/// the pool serves is asserted to cost exactly its table entry — the
/// simulated latencies *are* engine latencies, not estimates.
///
/// `image_for(r)` supplies request `r`'s input. Each returned
/// [`QuantTrace`] is bit-exact against a fresh-accelerator sequential
/// run of the same image — the serving generalization of the
/// batch-equivalence invariant, pinned by `tests/serve_equivalence.rs`.
///
/// # Errors
///
/// Returns [`PoolError::Config`] if `rt` fails
/// [`RuntimeConfig::validate`], [`PoolError::Batch`] if any generated
/// image has the wrong shape, [`PoolError::WorkerPanicked`] if a pool
/// thread died.
///
/// # Panics
///
/// Panics if `requests` is unsorted or a served batch's measured cycles
/// diverge from the service table (which would mean batch cycles are
/// not data-independent — a broken engine invariant).
pub fn serve_with_engine(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    rt: &RuntimeConfig,
    requests: &[Request],
    image_for: &dyn Fn(usize) -> Tensor<f32>,
) -> Result<(RuntimeOutcome, Vec<QuantTrace>), PoolError> {
    rt.validate()?;
    let table = engine_service_cycles_table(cfg, net, qparams, rt.batcher.max_batch);
    let outcome = run_runtime(rt, requests, &|n| table[n], worker_warmup_cycles(cfg, net));
    let sim = &outcome.sim;

    // Each batch's requests by slot, then each worker's batch list.
    let mut members: Vec<Vec<usize>> = sim.batches.iter().map(|b| vec![0; b.len]).collect();
    for (stat, &req) in sim.requests.iter().zip(&outcome.served) {
        members[stat.batch][stat.slot] = req;
    }
    let assignments = sim.assignments();
    let work: Vec<Vec<Vec<Tensor<f32>>>> = assignments
        .iter()
        .map(|ids| {
            ids.iter()
                .map(|&b| members[b].iter().map(|&r| image_for(r)).collect())
                .collect()
        })
        .collect();
    let runs = ShardPool::new(*cfg, assignments.len()).run_assignments(net, qparams, &work)?;

    // Every measured batch must cost exactly what the runtime charged.
    let mut run_of = vec![None; sim.batches.len()];
    for (worker, ids) in assignments.iter().enumerate() {
        for (run, &b) in runs[worker].iter().zip(ids) {
            assert_eq!(
                run.total_cycles(),
                table[run.batch],
                "measured batch cycles diverged from the service table \
                 (batch of {} on worker {worker})",
                run.batch
            );
            run_of[b] = Some(run);
        }
    }
    let traces = sim
        .requests
        .iter()
        .map(|s| run_of[s.batch].expect("every batch ran").traces[s.slot].clone())
        .collect();
    Ok((outcome, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::anchor_cfg;
    use capsacc_capsnet::CapsNetParams;

    fn tiny_serve(workers: usize) -> (RuntimeConfig, Vec<Request>) {
        let trace = TraceConfig {
            seed: 11,
            requests: 10,
            mean_gap_cycles: 3_000.0,
            mean_burst: 2.0,
        };
        let requests = arrival_trace(&trace).into_iter().map(Request::best_effort);
        (anchor_cfg(workers, 3, 50_000), requests.collect())
    }

    #[test]
    fn service_table_is_monotone_and_subadditive() {
        let cfg = AcceleratorConfig::paper();
        let net = CapsNetConfig::mnist();
        let table = service_cycles_table(&cfg, &net, 8);
        assert_eq!(table[0], 0);
        for n in 1..table.len() {
            assert!(table[n] > table[n - 1], "bigger batches cost more total");
        }
        // ...but amortize per image: the whole point of micro-batching.
        assert!(table[8] < 8 * table[1]);
    }

    #[test]
    fn engine_backed_serve_reproduces_its_own_dispatch() {
        // The pool-backed path charges the engine's measured batch
        // costs: its outcome must equal a bare runtime run over the
        // same trace with the engine service table, and be
        // rerun-identical.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        let (rt, requests) = tiny_serve(2);
        let image = |s: usize| {
            Tensor::from_fn(&[1, net.input_side, net.input_side], move |i| {
                ((i[1] * (s + 2) + i[2] * 7 + s) % 11) as f32 / 11.0
            })
        };
        let serve = || serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image);
        let (outcome, traces) = serve().expect("valid serve");
        assert_eq!(traces.len(), 10);
        let table = engine_service_cycles_table(&cfg, &net, &qparams, rt.batcher.max_batch);
        let warmup = worker_warmup_cycles(&cfg, &net);
        assert_eq!(outcome, run_runtime(&rt, &requests, &|n| table[n], warmup));
        let (again, traces_again) = serve().expect("valid serve");
        assert_eq!(outcome, again);
        assert_eq!(traces, traces_again);
    }

    #[test]
    fn serve_with_engine_rejects_invalid_configs_with_typed_errors() {
        // A bad runtime configuration is a typed error, not a panic —
        // and it is caught before any engine work is spent.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        let image = |_: usize| -> Tensor<f32> { unreachable!("no image is built") };
        let (ok, requests) = tiny_serve(2);
        let serve = |edit: &dyn Fn(&mut RuntimeConfig)| {
            let mut rt = ok.clone();
            edit(&mut rt);
            serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).map(|_| ())
        };
        let config_err = |e| Err(PoolError::Config(e));
        assert_eq!(
            serve(&|rt| rt.workers = 0),
            config_err(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            serve(&|rt| rt.batcher.max_batch = 0),
            config_err(ConfigError::ZeroMaxBatch)
        );
        let err = serve(&|rt| rt.queue_capacity = Some(0)).unwrap_err();
        assert_eq!(err, PoolError::Config(ConfigError::ZeroQueueCapacity));
        assert!(err.to_string().contains("queue_capacity"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
