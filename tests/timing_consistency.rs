//! Integration tests for the timing models: the analytical formulas and
//! the cycle-accurate engine must agree wherever their domains overlap,
//! and every dataflow optimization must help (or at least not hurt).

use capsacc::capsnet::CapsNetConfig;
use capsacc::core::{
    timing, Accelerator, AcceleratorConfig, ActivationKind, DataflowOptions, MemoryKind,
};

#[test]
fn engine_matches_serial_formula_across_shapes() {
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.dataflow.pipelined_tiles = false;
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (1, 4, 4),
        (5, 4, 4),
        (3, 9, 7),
        (10, 5, 13),
        (2, 17, 2),
    ] {
        let mut acc = Accelerator::new(cfg);
        let before = acc.array_cycles();
        acc.matmul(
            &|mi, ki| ((mi * 3 + ki) % 50) as i8,
            &|ki, ni| ((ki + ni * 5) % 60) as i8,
            m,
            k,
            n,
            None,
            6,
            ActivationKind::Identity,
        );
        let got = acc.array_cycles() - before;
        let want = timing::matmul_cycles(
            timing::MatmulShape {
                m: m as u64,
                k: k as u64,
                n: n as u64,
            },
            1,
            &cfg,
        );
        assert_eq!(got, want, "cycle mismatch for ({m},{k},{n})");
    }
}

#[test]
fn batched_engine_matches_batched_serial_formula() {
    // The batched closed-form model must agree with the ticked engine
    // *exactly* wherever their domains overlap: serial tiles, resident
    // weights, any shape × batch size.
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.dataflow.pipelined_tiles = false;
    for (m, k, n) in [(1usize, 4usize, 4usize), (3, 9, 7), (5, 17, 3), (2, 5, 13)] {
        for batch in [1usize, 2, 3, 5, 8] {
            let mut acc = Accelerator::new(cfg);
            let before = acc.array_cycles();
            acc.matmul_batch(
                batch,
                &|img, mi, ki| ((img * 11 + mi * 3 + ki) % 50) as i8,
                &|ki, ni| ((ki + ni * 5) % 60) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            let got = acc.array_cycles() - before;
            let want = timing::matmul_cycles(
                timing::MatmulShape {
                    m: m as u64,
                    k: k as u64,
                    n: n as u64,
                },
                batch as u64,
                &cfg,
            );
            assert_eq!(
                got, want,
                "cycle mismatch for ({m},{k},{n}) × batch {batch}"
            );
        }
    }
}

#[test]
fn batched_cycles_per_image_decrease_monotonically_at_mnist_scale() {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig::paper();
    let mut prev = f64::INFINITY;
    for batch in [1u64, 2, 4, 8, 16, 32, 64] {
        let t = timing::full_inference_batch(&cfg, &net, batch);
        let per_image = t.cycles_per_image();
        assert!(
            per_image < prev,
            "cycles/image must fall with batch size: {per_image} at batch {batch} \
             vs {prev} before"
        );
        prev = per_image;
    }
    // And the amortization is material, not marginal: batch 16 beats
    // batch 1 by more than 15% on cycles and ~16x on weight bytes.
    let b1 = timing::full_inference_batch(&cfg, &net, 1);
    let b16 = timing::full_inference_batch(&cfg, &net, 16);
    assert!(b16.cycles_per_image() < 0.85 * b1.cycles_per_image());
    assert!(b16.weight_bytes_per_image() * 15.9 < b1.weight_bytes_per_image());
    assert!((b16.weight_bytes_per_image() - b1.weight_bytes_per_image() / 16.0).abs() < 1.0);
}

#[test]
fn batched_engine_and_model_agree_on_amortization_direction() {
    // Cycle-accurate cross-check at the tiny scale: engine run_batch and
    // the closed-form batched model must both report falling per-image
    // cost, and the engine's weight-buffer bytes must amortize exactly
    // (conv + FC tiles once per batch, routing per image).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = capsacc::capsnet::CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let images: Vec<capsacc::tensor::Tensor<f32>> = (0..8)
        .map(|s| {
            capsacc::tensor::Tensor::from_fn(&[1, 12, 12], |i| {
                ((i[1] * (s + 2) + i[2]) % 9) as f32 / 9.0
            })
        })
        .collect();
    let run_at = |b: usize| {
        let mut sched = capsacc::core::BatchScheduler::new(cfg);
        sched
            .run(&net, &qparams, &images[..b])
            .expect("valid batch")
    };
    let b1 = run_at(1);
    let b8 = run_at(8);
    assert!(b8.cycles_per_image() < b1.cycles_per_image());
    assert!(b8.weight_buffer_bytes_per_image() < b1.weight_buffer_bytes_per_image());
    let m1 = timing::full_inference_batch(&cfg, &net, 1);
    let m8 = timing::full_inference_batch(&cfg, &net, 8);
    assert!(m8.cycles_per_image() < m1.cycles_per_image());
}

#[test]
fn every_optimization_reduces_or_preserves_total_cycles() {
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();
    let total = |cfg: &AcceleratorConfig| timing::full_inference_batch(cfg, &net, 1).total_cycles();
    let baseline = total(&base);

    let mut c = base;
    c.dataflow.skip_first_softmax = false;
    assert!(total(&c) >= baseline, "skip-first-softmax should help");
    let mut c = base;
    c.dataflow.routing_feedback = false;
    assert!(total(&c) >= baseline, "feedback reuse should help");
    let mut c = base;
    c.dataflow.pipelined_tiles = false;
    assert!(total(&c) > baseline, "tile pipelining should help");
    let mut c = base;
    c.dataflow.weight_reuse = false;
    assert!(total(&c) > baseline, "weight reuse should help");
}

#[test]
fn routing_step_sequence_consistent_between_models() {
    // The analytical model and the engine must report the same step
    // sequence (Fig. 17 x-axis).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let analytical: Vec<String> = timing::routing_steps(&net, 1, &cfg)
        .iter()
        .map(|s| s.step.to_string())
        .collect();

    let qparams = capsacc::capsnet::CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let image = capsacc::tensor::Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
    let mut acc = Accelerator::new(cfg);
    let run = acc.run_inference(&net, &qparams, &image);
    let simulated: Vec<String> = run.steps.iter().map(|(s, _)| s.to_string()).collect();
    assert_eq!(analytical, simulated);
}

#[test]
fn clock_frequency_scales_wall_time_not_cycles() {
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();
    let mut fast = base;
    fast.clock_mhz = 500;
    let t_base = timing::full_inference_batch(&base, &net, 1);
    let t_fast = timing::full_inference_batch(&fast, &net, 1);
    assert_eq!(t_base.total_cycles(), t_fast.total_cycles());
    let ratio = t_base.time_per_image_us(&base) / t_fast.time_per_image_us(&fast);
    assert!((ratio - 2.0).abs() < 1e-9);
}

#[test]
fn wider_memory_helps_primarycaps_only_up_to_compute() {
    let net = CapsNetConfig::mnist();
    let mut narrow = AcceleratorConfig::paper();
    narrow.weight_mem_bw = 4;
    let mut wide = AcceleratorConfig::paper();
    wide.weight_mem_bw = 64;
    let t_narrow = timing::full_inference_batch(&narrow, &net, 1);
    let t_wide = timing::full_inference_batch(&wide, &net, 1);
    assert!(t_narrow.primary_caps.cycles > t_wide.primary_caps.cycles);
    // Once memory is fast enough, compute is the floor.
    assert_eq!(
        t_wide.primary_caps.cycles,
        t_wide.primary_caps.compute_cycles + t_wide.primary_caps.activation_cycles
    );
}

#[test]
fn mnist_inference_in_milliseconds_regime() {
    let cfg = AcceleratorConfig::paper();
    let t = timing::full_inference_batch(&cfg, &CapsNetConfig::mnist(), 1);
    let ms = t.time_per_image_us(&cfg) / 1000.0;
    assert!((1.0..10.0).contains(&ms), "{ms} ms");
    // Layer ordering sanity: PrimaryCaps > ClassCaps > Conv1.
    assert!(t.primary_caps.cycles > t.class_caps_cycles());
    assert!(t.class_caps_cycles() > t.conv1.cycles);
}

/// One line per (dataflow, batch): every closed-form number the figures
/// and the batch/memory experiments read — total, per-layer
/// cycles/weight bytes, FC weight bytes, each Fig. 17 step's cycles and
/// Data Memory bytes, and every traffic counter.
fn closed_form_fingerprint(cfg: &AcceleratorConfig, net: &CapsNetConfig, batch: u64) -> String {
    use std::fmt::Write;
    let t = timing::full_inference_batch(cfg, net, batch);
    let mut s = format!(
        "b{batch} total={} conv1={}/{} pc={}/{} fcw={}",
        t.total_cycles(),
        t.conv1.cycles,
        t.conv1.weight_bytes,
        t.primary_caps.cycles,
        t.primary_caps.weight_bytes,
        t.fc_weight_bytes,
    );
    for step in &t.class_caps_steps {
        write!(s, " {}={}/{}", step.step, step.cycles, step.data_mem_bytes).expect("write");
    }
    let traffic = timing::batch_traffic_estimate(cfg, net, batch);
    for kind in MemoryKind::ALL {
        let c = traffic.counter(kind);
        write!(s, " {kind:?}={}/{}", c.read_bytes, c.write_bytes).expect("write");
    }
    s
}

#[test]
fn closed_form_paper_numbers_are_pinned() {
    let net = CapsNetConfig::mnist();
    let paper = AcceleratorConfig::paper();
    // The paper design point with every dataflow switch on, then with
    // each switch off in turn.
    let mut configs = vec![("all-on", paper)];
    for (name, off) in [
        (
            "no-weight-reuse",
            (|d| d.weight_reuse = false) as fn(&mut DataflowOptions),
        ),
        ("no-pipelined-tiles", |d| d.pipelined_tiles = false),
        ("no-routing-feedback", |d| d.routing_feedback = false),
        ("no-skip-first-softmax", |d| d.skip_first_softmax = false),
    ] {
        let mut c = paper;
        off(&mut c.dataflow);
        configs.push((name, c));
    }
    let got: Vec<String> = configs
        .iter()
        .flat_map(|(name, cfg)| {
            [1, 16].map(|b| format!("{name} {}", closed_form_fingerprint(cfg, &net, b)))
        })
        .collect();
    // The headline: 1,082,348 cycles = 4.329 ms at 250 MHz.
    let b1 = timing::full_inference_batch(&paper, &net, 1);
    assert_eq!(b1.total_cycles(), 1_082_348);
    assert_eq!(
        format!("{:.3}", paper.cycles_to_us(b1.total_cycles()) / 1000.0),
        "4.329"
    );
    let want = [
        "all-on b1 total=1082348 conv1=39185/20992 pc=748000/5308672 fcw=1474560 \
             Load=23040/184320 FC=195873/184320 Softmax1=2880/0 Sum1=12570/0 Squash1=40/0 \
             Update1=12010/0 Softmax2=5760/0 Sum2=12570/0 Squash2=40/0 Update2=12010/0 \
             Softmax3=5760/0 Sum3=12570/0 Squash3=40/0 DataMemory=287504/295936 \
             WeightMemory=6804224/0 DataBuffer=13107456/184320 RoutingBuffer=34880/46560 \
             WeightBuffer=6804224/0 Dram=6805008/0",
        "all-on b16 total=14355953 conv1=615185/20992 pc=11956240/5308672 fcw=1474560 \
             Load=368640/2949120 FC=195888/2949120 Softmax1=46080/0 Sum1=201120/0 Squash1=640/0 \
             Update1=192160/0 Softmax2=92160/0 Sum2=201120/0 Squash2=640/0 Update2=192160/0 \
             Softmax3=92160/0 Sum3=201120/0 Squash3=640/0 DataMemory=4600064/4734976 \
             WeightMemory=6804224/0 DataBuffer=209719296/2949120 RoutingBuffer=558080/744960 \
             WeightBuffer=6804224/0 Dram=6816768/0",
        "no-weight-reuse b1 total=25220620 conv1=1036833/8294656 pc=23888624/191103232 \
             fcw=1474560 Load=23040/184320 FC=195873/184320 Softmax1=2880/0 Sum1=12570/0 \
             Squash1=40/0 Update1=12010/0 Softmax2=5760/0 Sum2=12570/0 Squash2=40/0 \
             Update2=12010/0 Softmax3=5760/0 Sum3=12570/0 Squash3=40/0 DataMemory=287504/295936 \
             WeightMemory=200872448/0 DataBuffer=13107456/184320 RoutingBuffer=34880/46560 \
             WeightBuffer=200872448/0 Dram=6805008/0",
        "no-weight-reuse b16 total=403529905 conv1=16589313/132714496 pc=382217984/3057651712 \
             fcw=23592960 Load=368640/2949120 FC=3133968/2949120 Softmax1=46080/0 Sum1=201120/0 \
             Squash1=640/0 Update1=192160/0 Softmax2=92160/0 Sum2=201120/0 Squash2=640/0 \
             Update2=192160/0 Softmax3=92160/0 Sum3=201120/0 Squash3=640/0 \
             DataMemory=4600064/4734976 WeightMemory=3213959168/0 DataBuffer=209719296/2949120 \
             RoutingBuffer=558080/744960 WeightBuffer=3213959168/0 Dram=6816768/0",
        "no-pipelined-tiles b1 total=2551965 conv1=43105/20992 pc=1763280/5308672 fcw=1474560 \
             Load=23040/184320 FC=576000/184320 Softmax1=2880/0 Sum1=36000/0 Squash1=40/0 \
             Update1=12010/0 Softmax2=5760/0 Sum2=36000/0 Squash2=40/0 Update2=12010/0 \
             Softmax3=5760/0 Sum3=36000/0 Squash3=40/0 DataMemory=287504/295936 \
             WeightMemory=6804224/0 DataBuffer=13107456/184320 RoutingBuffer=34880/46560 \
             WeightBuffer=6804224/0 Dram=6805008/0",
        "no-pipelined-tiles b16 total=17052705 conv1=619105/20992 pc=12971520/5308672 \
             fcw=1474560 Load=368640/2949120 FC=748800/2949120 Softmax1=46080/0 Sum1=576000/0 \
             Squash1=640/0 Update1=192160/0 Softmax2=92160/0 Sum2=576000/0 Squash2=640/0 \
             Update2=192160/0 Softmax3=92160/0 Sum3=576000/0 Squash3=640/0 \
             DataMemory=4600064/4734976 WeightMemory=6804224/0 DataBuffer=209719296/2949120 \
             RoutingBuffer=558080/744960 WeightBuffer=6804224/0 Dram=6816768/0",
        "no-routing-feedback b1 total=1135818 conv1=39185/20992 pc=748000/5308672 fcw=1474560 \
             Load=23040/184320 FC=195873/184320 Softmax1=2880/0 Sum1=23040/184320 Squash1=40/0 \
             Update1=23040/184320 Softmax2=5760/0 Sum2=23040/184320 Squash2=40/0 \
             Update2=23040/184320 Softmax3=5760/0 Sum3=23040/184320 Squash3=40/0 \
             DataMemory=1024784/295936 WeightMemory=6804224/0 DataBuffer=13107456/184320 \
             RoutingBuffer=34880/46560 WeightBuffer=6804224/0 Dram=6805008/0",
        "no-routing-feedback b16 total=15211473 conv1=615185/20992 pc=11956240/5308672 \
             fcw=1474560 Load=368640/2949120 FC=195888/2949120 Softmax1=46080/0 \
             Sum1=368640/2949120 Squash1=640/0 Update1=368640/2949120 Softmax2=92160/0 \
             Sum2=368640/2949120 Squash2=640/0 Update2=368640/2949120 Softmax3=92160/0 \
             Sum3=368640/2949120 Squash3=640/0 DataMemory=16396544/4734976 WeightMemory=6804224/0 \
             DataBuffer=209719296/2949120 RoutingBuffer=558080/744960 WeightBuffer=6804224/0 \
             Dram=6816768/0",
        "no-skip-first-softmax b1 total=1085228 conv1=39185/20992 pc=748000/5308672 \
             fcw=1474560 Load=23040/184320 FC=195873/184320 Softmax1=5760/0 Sum1=12570/0 \
             Squash1=40/0 Update1=12010/0 Softmax2=5760/0 Sum2=12570/0 Squash2=40/0 \
             Update2=12010/0 Softmax3=5760/0 Sum3=12570/0 Squash3=40/0 DataMemory=287504/295936 \
             WeightMemory=6804224/0 DataBuffer=13107456/184320 RoutingBuffer=34880/46560 \
             WeightBuffer=6804224/0 Dram=6805008/0",
        "no-skip-first-softmax b16 total=14402033 conv1=615185/20992 pc=11956240/5308672 \
             fcw=1474560 Load=368640/2949120 FC=195888/2949120 Softmax1=92160/0 Sum1=201120/0 \
             Squash1=640/0 Update1=192160/0 Softmax2=92160/0 Sum2=201120/0 Squash2=640/0 \
             Update2=192160/0 Softmax3=92160/0 Sum3=201120/0 Squash3=640/0 \
             DataMemory=4600064/4734976 WeightMemory=6804224/0 DataBuffer=209719296/2949120 \
             RoutingBuffer=558080/744960 WeightBuffer=6804224/0 Dram=6816768/0",
    ];
    assert_eq!(got, want);
}
