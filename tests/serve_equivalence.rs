//! Differential tests for the serving path: requests scheduled by the
//! runtime and served on the OS-thread shard pool must produce
//! `QuantTrace`s **bit-identical** to fresh-accelerator sequential runs
//! of the same images — the serving generalization of the
//! batch-equivalence invariant — the whole virtual-time runtime must be
//! byte-for-byte deterministic across reruns regardless of how the OS
//! schedules the worker threads, and with its overload features off it
//! must reproduce the offline oracle in `common/serve_oracle.rs`.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{timing, Accelerator, AcceleratorConfig, BatchScheduler, EngineBackend};
use capsacc::serve::{
    arrival_trace, engine_service_cycles_table, run_runtime, serve_with_engine,
    service_cycles_table, BatcherConfig, Request, RuntimeConfig, ShardPool, SimOutcome,
    TraceConfig,
};
use capsacc::tensor::Tensor;
use proptest::prelude::*;

mod common;
use common::image_for;
use common::serve_oracle::{anchored, best_effort, offline_serve};

/// An anchored tiny-scale serve: the runtime config and its trace.
fn tiny_serve(
    seed: u64,
    requests: usize,
    workers: usize,
    max_batch: usize,
) -> (RuntimeConfig, Vec<Request>) {
    let batcher = BatcherConfig {
        max_batch,
        max_wait_cycles: 10_000,
    };
    let trace = TraceConfig {
        seed,
        requests,
        mean_gap_cycles: 2_000.0,
        mean_burst: 3.0,
    };
    (
        anchored(batcher, workers),
        best_effort(&arrival_trace(&trace)),
    )
}

#[test]
fn shard_pool_traces_are_bit_exact_vs_sequential_runs() {
    // The acceptance anchor: every request's trace through the pool —
    // long-lived weight-resident schedulers on real OS threads — equals
    // a fresh-accelerator sequential run of the same image.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let (rt, requests) = tiny_serve(42, 17, 4, 3);
    let image = |r: usize| image_for(&net, r);
    let (outcome, traces) =
        serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).expect("valid serve");
    assert_eq!(outcome.served, (0..17).collect::<Vec<_>>());
    assert_eq!(traces.len(), 17);
    // Real fan-out happened: several workers actually served batches.
    let active = outcome
        .sim
        .worker_busy_cycles
        .iter()
        .filter(|&&c| c > 0)
        .count();
    assert!(active > 1, "expected a multi-worker serve, got {active}");
    for (r, trace) in traces.iter().enumerate() {
        let mut acc = Accelerator::new(cfg);
        let single = acc.run_inference(&net, &qparams, &image_for(&net, r));
        assert_eq!(
            &single.trace, trace,
            "shard-pool trace diverged from the sequential engine for request {r}"
        );
    }
}

#[test]
fn engine_service_cycles_are_data_and_reuse_independent() {
    // The dispatcher charges one cycle cost per batch *size*
    // (`engine_service_cycles_table`); that is only sound if real
    // batches — different images, long-lived reused schedulers, any
    // worker — cost exactly the table entry. Run disjoint image sets
    // through a pool and check every measured batch against the table.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 3).quantize(cfg.numeric);
    let table = engine_service_cycles_table(&cfg, &net, &qparams, 4);
    assert!(table[1] > 0);
    assert!(
        table[4] < 4 * table[1],
        "batched service must amortize: {} vs 4x{}",
        table[4],
        table[1]
    );
    let pool = ShardPool::new(cfg, 2);
    let work: Vec<Vec<Vec<Tensor<f32>>>> = vec![
        vec![
            (0..3).map(|s| image_for(&net, s)).collect(),
            (0..1).map(|s| image_for(&net, s + 9)).collect(),
        ],
        vec![(0..4).map(|s| image_for(&net, s + 3)).collect()],
    ];
    let runs = pool.run_assignments(&net, &qparams, &work).expect("valid");
    for (worker, batches) in runs.iter().enumerate() {
        for run in batches {
            assert_eq!(
                run.total_cycles(),
                table[run.batch],
                "engine cycles diverged from the service table for a batch of {} on worker {worker}",
                run.batch
            );
        }
    }
}

#[test]
fn engine_service_cycles_table_holds_at_mnist_scale() {
    // Previously the engine-backed service table only existed at the
    // tiny test scale — ticking a 16×16 MNIST inference per batch size
    // was prohibitive. The functional backend removes that wall: build
    // the table at the paper design point and prove the serve layer's
    // charging discipline against real engine batches at full scale.
    let net = CapsNetConfig::mnist();
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let table = engine_service_cycles_table(&cfg, &net, &qparams, 2);
    assert_eq!(table[0], 0);
    assert!(table[1] > 0);
    assert!(
        table[2] < 2 * table[1],
        "batched service must amortize at paper scale: {} vs 2x{}",
        table[2],
        table[1]
    );
    // Data- and reuse-independence at MNIST scale: a long-lived reused
    // scheduler serving *different* images costs exactly the table
    // entry per batch — the invariant that makes one number per batch
    // size a sound service time for the dispatcher.
    let mut sched = BatchScheduler::new(cfg);
    let images: Vec<Tensor<f32>> = (0..3).map(|r| image_for(&net, r)).collect();
    for batch in [&images[..2], &images[2..3], &images[1..3]] {
        let run = sched.run(&net, &qparams, batch).expect("valid batch");
        assert_eq!(
            run.total_cycles(),
            table[run.batch],
            "engine cycles diverged from the service table for a batch of {}",
            run.batch
        );
    }
    // The runtime charges those same cycles end to end.
    let (rt, requests) = tiny_serve(3, 6, 2, 2);
    let out = run_runtime(&rt, &requests, &|n| table[n], 0).sim;
    for r in &out.requests {
        assert_eq!(r.service_cycles(), table[out.batches[r.batch].len]);
    }
}

#[test]
fn serving_outcome_is_deterministic_across_reruns() {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let (rt, requests) = tiny_serve(7, 11, 3, 4);
    let image = |r: usize| image_for(&net, r);
    let serve = || serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image);
    let (out1, traces1) = serve().expect("valid serve");
    let (out2, traces2) = serve().expect("valid serve");
    assert_eq!(out1, out2, "virtual-time outcome must be rerun-identical");
    assert_eq!(traces1, traces2, "traces must be rerun-identical");
    // The closed-form-only serve is deterministic too.
    let table = service_cycles_table(&cfg, &net, 4);
    assert_eq!(
        run_runtime(&rt, &requests, &|n| table[n], 0),
        run_runtime(&rt, &requests, &|n| table[n], 0)
    );
}

#[test]
fn worker_scaling_reaches_three_x_at_mnist_scale() {
    // The exp_serve acceptance bound, pinned as a test with the same
    // saturating trace shape: 4 workers ≥ 3× the throughput of 1.
    let table = service_cycles_table(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 16);
    let requests = best_effort(&arrival_trace(&TraceConfig {
        seed: 7,
        requests: 256,
        mean_gap_cycles: 2_000.0,
        mean_burst: 4.0,
    }));
    let batcher = BatcherConfig {
        max_batch: 16,
        max_wait_cycles: 10_000,
    };
    let at = |workers: usize| {
        run_runtime(&anchored(batcher, workers), &requests, &|n| table[n], 0)
            .sim
            .throughput_per_cycle()
    };
    let (t1, t4) = (at(1), at(4));
    assert!(
        t4 >= 3.0 * t1,
        "worker scaling below 3x: {t4:e} vs {t1:e} images/cycle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random serving configurations: the pool-backed serve always
    /// produces per-request traces bit-identical to sequential runs,
    /// and serves every request.
    #[test]
    fn random_serves_stay_bit_exact(
        seed in 0u64..500,
        requests in 1usize..12,
        workers in 1usize..4,
        max_batch in 1usize..4,
    ) {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
        let (rt, trace) = tiny_serve(seed, requests, workers, max_batch);
        let image = |r: usize| image_for(&net, r + seed as usize);
        let (outcome, traces) =
            serve_with_engine(&cfg, &net, &qparams, &rt, &trace, &image).expect("valid serve");
        prop_assert_eq!(outcome.sim.requests.len(), requests);
        for (r, trace) in traces.iter().enumerate() {
            let mut acc = Accelerator::new(cfg);
            let single = acc.run_inference(&net, &qparams, &image_for(&net, r + seed as usize));
            prop_assert_eq!(&single.trace, trace, "request {} diverged", r);
        }
    }
}

/// Serves `arrivals` on the anchored runtime and checks it against the
/// offline oracle bit for bit.
fn anchor(
    arrivals: &[u64],
    batcher: BatcherConfig,
    workers: usize,
    service: &dyn Fn(usize) -> u64,
) -> SimOutcome {
    let online = run_runtime(
        &anchored(batcher, workers),
        &best_effort(arrivals),
        service,
        0,
    );
    let offline = offline_serve(arrivals, &batcher, workers, service);
    assert_eq!(
        online.sim, offline,
        "anchor broken at {batcher:?}, {workers} workers"
    );
    assert!(online.rejections.is_empty() && online.scaling.is_empty());
    online.sim
}

#[test]
fn online_runtime_reproduces_offline_pipeline_exactly() {
    // The offline-equivalence anchor: with shedding, deadlines,
    // priorities and autoscaling all disabled, the event-driven online
    // runtime must reproduce the offline oracle bit-exactly — same
    // batches, same workers, same latencies, same `SimOutcome` — so
    // every BENCH_serve.json number keeps its meaning.
    let batcher = |max_batch, max_wait_cycles| BatcherConfig {
        max_batch,
        max_wait_cycles,
    };

    let arrivals = arrival_trace(&TraceConfig {
        seed: 13,
        requests: 400,
        mean_gap_cycles: 800.0,
        mean_burst: 4.0,
    });
    for workers in [1, 3] {
        anchor(&arrivals, batcher(8, 3_000), workers, &|n| {
            5_000 + 600 * n as u64
        });
    }

    // Every point of exp_serve's closed-form saturating sweep.
    let table = service_cycles_table(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 32);
    let arrivals = arrival_trace(&TraceConfig {
        seed: 7,
        requests: 512,
        mean_gap_cycles: 2_000.0,
        mean_burst: 4.0,
    });
    for max_batch in [4, 16, 32] {
        for max_wait in [10_000, 1_000_000] {
            for workers in [1, 2, 4, 8] {
                anchor(&arrivals, batcher(max_batch, max_wait), workers, &|n| {
                    table[n]
                });
            }
        }
    }

    // The batching corners the policy's unit tests pin (batcher.rs):
    // the size trigger, arrivals on a deadline edge, zero wait, and the
    // empty trace.
    for (arrivals, max_batch, max_wait) in [
        (&[0, 10, 11, 12, 500][..], 3, 100),
        (&[5, 7, 9, 11], 2, 1_000),
        (&[0, 50, 51], 10, 50),
        (&[3, 3, 3, 4, 9], 8, 0),
        (&[], 4, 10),
    ] {
        for workers in [1, 2] {
            anchor(arrivals, batcher(max_batch, max_wait), workers, &|n| {
                100 + 10 * n as u64
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The offline-equivalence anchor holds across random traces,
    /// batcher policies and pool sizes — including zero-wait batching
    /// and same-cycle bursts, the trickiest event-ordering corners.
    #[test]
    fn online_offline_equivalence_holds_on_random_traces(
        gaps in proptest::collection::vec(0u64..400, 1..120),
        max_batch in 1usize..7,
        max_wait in 0u64..600,
        workers in 1usize..5,
        base in 1u64..4_000,
    ) {
        let mut t = 0u64;
        let arrivals: Vec<u64> = gaps.iter().map(|&g| { t += g; t }).collect();
        let batcher = BatcherConfig { max_batch, max_wait_cycles: max_wait };
        anchor(&arrivals, batcher, workers, &|n| base + 23 * n as u64);
    }
}

#[test]
fn dispatch_composes_with_engine_latency_model() {
    // End-to-end sanity on the latency decomposition: queue wait +
    // service = latency for every request, and the service term is the
    // closed-form batch cost (which `engine_service_cycles_are_data_and_reuse_independent`
    // ties to the engine).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let trace = TraceConfig {
        seed: 9,
        requests: 20,
        mean_gap_cycles: 1_500.0,
        mean_burst: 2.0,
    };
    let batcher = BatcherConfig {
        max_batch: 4,
        max_wait_cycles: 5_000,
    };
    let requests = best_effort(&arrival_trace(&trace));
    let table = service_cycles_table(&cfg, &net, batcher.max_batch);
    let out = run_runtime(&anchored(batcher, 2), &requests, &|n| table[n], 0).sim;
    for r in &out.requests {
        assert_eq!(
            r.latency_cycles(),
            r.queue_wait_cycles() + r.service_cycles()
        );
        let b = &out.batches[r.batch];
        assert_eq!(r.service_cycles(), table[b.len]);
        assert_eq!(
            timing::full_inference_batch_mem(&cfg, &net, b.len as u64).total_cycles(),
            table[b.len]
        );
    }
}
