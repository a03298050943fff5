//! Seeded synthetic arrival traces in virtual time.
//!
//! A serving simulator needs traffic, and reproducible experiments need
//! the *same* traffic every run: arrivals here are pure functions of a
//! [`TraceConfig`] — no wall clock anywhere. Time is measured in
//! accelerator cycles ("virtual time"), so a trace composes directly
//! with the engine's cycle model.
//!
//! The process is a bursty Poisson stream: bursts are separated by
//! exponentially distributed gaps of mean [`TraceConfig::mean_gap_cycles`],
//! and each burst carries a geometrically distributed number of requests
//! of mean [`TraceConfig::mean_burst`] that arrive on the same cycle —
//! the "thundering herd" shape a deployed accelerator actually sees.
//! `mean_burst == 1.0` degenerates to a plain Poisson process.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Upper bound on every virtual-time coordinate a trace may produce.
///
/// Arrival generators clamp the virtual clock here instead of letting
/// it saturate at `u64::MAX`, and config validation rejects wait/SLO
/// budgets beyond it ([`crate::ConfigError::UnrepresentableWait`]).
/// Together the two guarantees make every `arrival + budget` sum in the
/// batcher and the online runtime provably free of `u64` overflow
/// (`2 * (1 << 62) < u64::MAX`), so deadlines are computed with
/// `checked_add` — no silent saturation pinning them to `u64::MAX`.
pub const VIRTUAL_TIME_HORIZON: u64 = 1 << 62;

/// Configuration of one synthetic arrival trace.
///
/// # Example
///
/// ```
/// use capsacc_serve::{arrival_trace, TraceConfig};
/// let cfg = TraceConfig { seed: 7, requests: 100, mean_gap_cycles: 500.0, mean_burst: 4.0 };
/// let a = arrival_trace(&cfg);
/// assert_eq!(a.len(), 100);
/// // Same seed ⇒ byte-identical trace; different seed ⇒ different trace.
/// assert_eq!(a, arrival_trace(&cfg));
/// assert_ne!(a, arrival_trace(&TraceConfig { seed: 8, ..cfg }));
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TraceConfig {
    /// RNG seed; every value derives deterministically from it.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean inter-burst gap in cycles (exponentially distributed).
    pub mean_gap_cycles: f64,
    /// Mean requests per burst (geometric, ≥ 1). `1.0` = no burstiness.
    pub mean_burst: f64,
}

impl TraceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (zero
    /// requests, non-positive or non-finite gap, burst mean below one).
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("trace must contain at least one request".into());
        }
        if !(self.mean_gap_cycles > 0.0 && self.mean_gap_cycles.is_finite()) {
            return Err("mean_gap_cycles must be positive and finite".into());
        }
        if !(self.mean_burst >= 1.0 && self.mean_burst.is_finite()) {
            return Err("mean_burst must be at least 1".into());
        }
        Ok(())
    }
}

/// Generates the sorted arrival cycles of a trace — deterministic in
/// [`TraceConfig::seed`], independent of host, thread count or wall
/// clock.
///
/// # Panics
///
/// Panics if the configuration fails [`TraceConfig::validate`].
pub fn arrival_trace(cfg: &TraceConfig) -> Vec<u64> {
    cfg.validate().expect("invalid trace configuration");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = Vec::with_capacity(cfg.requests);
    let mut now = 0u64;
    // P(burst continues) for a geometric burst length of the given mean.
    let p_continue = 1.0 - 1.0 / cfg.mean_burst;
    while arrivals.len() < cfg.requests {
        // Exponential inter-burst gap via inverse CDF; `1 - u` keeps the
        // argument of `ln` in (0, 1].
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = -(1.0 - u).ln() * cfg.mean_gap_cycles;
        // Clamp to the horizon instead of wrapping or saturating at
        // `u64::MAX`: an absurd-but-valid mean gap must still yield a
        // sorted trace whose deadlines cannot overflow downstream.
        // lint:allow(cast-audit, f64-to-u64 is the sampling quantization itself; negative and NaN draws are impossible by construction)
        now = now.saturating_add(gap as u64).min(VIRTUAL_TIME_HORIZON);
        arrivals.push(now);
        while arrivals.len() < cfg.requests && rng.gen_range(0.0..1.0) < p_continue {
            arrivals.push(now);
        }
    }
    arrivals
}

/// One serving request in virtual time, as the online runtime sees it:
/// an arrival cycle, a priority class and an optional latency SLO.
///
/// Higher `class` means more important: the runtime's load shedder
/// evicts lowest-class requests first. `slo_cycles` is the end-to-end
/// latency budget measured from `arrival`; `None` is best-effort (never
/// rejected as infeasible, always counted as within-SLO when served).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Request {
    /// Arrival cycle.
    pub arrival: u64,
    /// Priority class (index into [`WorkloadConfig::classes`]; higher
    /// is more important).
    pub class: usize,
    /// End-to-end latency budget in cycles from arrival, if any.
    pub slo_cycles: Option<u64>,
}

impl Request {
    /// A best-effort request: lowest class, no deadline — what an
    /// arrival-only [`arrival_trace`] becomes, and what the
    /// offline-equivalence anchor feeds the runtime.
    pub fn best_effort(arrival: u64) -> Self {
        Self {
            arrival,
            class: 0,
            slo_cycles: None,
        }
    }
}

/// One priority class of a workload: a sampling weight and the SLO its
/// requests carry.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClassConfig {
    /// Relative sampling weight (classes are drawn independently per
    /// request, proportional to weight).
    pub weight: u32,
    /// Latency budget of this class's requests, or `None` for
    /// best-effort traffic.
    pub slo_cycles: Option<u64>,
}

/// The arrival process of a workload trace.
///
/// All three regimes draw exponential inter-arrival gaps; they differ
/// in how the mean gap evolves over virtual time.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum ArrivalRegime {
    /// The stationary bursty-Poisson stream of [`arrival_trace`]:
    /// exponential gaps of the given mean between bursts, geometric
    /// burst sizes of mean `mean_burst` arriving on one cycle.
    Bursty {
        /// Mean inter-burst gap in cycles.
        mean_gap_cycles: f64,
        /// Mean requests per burst (≥ 1).
        mean_burst: f64,
    },
    /// A day/night load cycle: the mean gap interpolates linearly from
    /// `offpeak_gap_cycles` at the period boundaries to
    /// `peak_gap_cycles` at mid-period (triangle wave), so traffic
    /// swells and recedes smoothly — the regime autoscalers live in.
    Diurnal {
        /// Length of one load cycle in cycles.
        period_cycles: u64,
        /// Mean gap at the trough (slowest traffic; the larger gap).
        offpeak_gap_cycles: f64,
        /// Mean gap at the peak (heaviest traffic; the smaller gap).
        peak_gap_cycles: f64,
    },
    /// A flash crowd: stationary base traffic with one dense spike
    /// window — the overload-and-recovery regime the admission
    /// controller and shedder are sized against.
    Spike {
        /// Mean gap outside the spike window.
        base_gap_cycles: f64,
        /// Cycle the spike begins.
        spike_start_cycle: u64,
        /// Spike duration in cycles.
        spike_cycles: u64,
        /// Mean gap inside the spike window (smaller = heavier).
        spike_gap_cycles: f64,
    },
}

impl ArrivalRegime {
    fn validate(&self) -> Result<(), String> {
        let gap_ok = |g: f64| g > 0.0 && g.is_finite();
        match *self {
            ArrivalRegime::Bursty {
                mean_gap_cycles,
                mean_burst,
            } => {
                if !gap_ok(mean_gap_cycles) {
                    return Err("mean_gap_cycles must be positive and finite".into());
                }
                if !(mean_burst >= 1.0 && mean_burst.is_finite()) {
                    return Err("mean_burst must be at least 1".into());
                }
            }
            ArrivalRegime::Diurnal {
                period_cycles,
                offpeak_gap_cycles,
                peak_gap_cycles,
            } => {
                if period_cycles == 0 {
                    return Err("diurnal period must be at least one cycle".into());
                }
                if !gap_ok(offpeak_gap_cycles) || !gap_ok(peak_gap_cycles) {
                    return Err("diurnal gaps must be positive and finite".into());
                }
                if peak_gap_cycles > offpeak_gap_cycles {
                    return Err("peak gap must not exceed off-peak gap".into());
                }
            }
            ArrivalRegime::Spike {
                base_gap_cycles,
                spike_cycles,
                spike_gap_cycles,
                ..
            } => {
                if !gap_ok(base_gap_cycles) || !gap_ok(spike_gap_cycles) {
                    return Err("spike gaps must be positive and finite".into());
                }
                if spike_cycles == 0 {
                    return Err("spike window must be at least one cycle".into());
                }
            }
        }
        Ok(())
    }
}

/// Configuration of one multi-class workload trace.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadConfig {
    /// RNG seed; the whole workload derives deterministically from it.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// The arrival process.
    pub regime: ArrivalRegime,
    /// Priority classes (index = class, higher = more important). Must
    /// be non-empty with at least one positive weight; SLO budgets must
    /// fit under [`VIRTUAL_TIME_HORIZON`].
    pub classes: Vec<ClassConfig>,
}

impl WorkloadConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("workload must contain at least one request".into());
        }
        self.regime.validate()?;
        if self.classes.is_empty() {
            return Err("workload needs at least one priority class".into());
        }
        if self.classes.iter().all(|c| c.weight == 0) {
            return Err("at least one class must have positive weight".into());
        }
        for c in &self.classes {
            if let Some(slo) = c.slo_cycles {
                if slo > VIRTUAL_TIME_HORIZON {
                    return Err(format!(
                        "class SLO of {slo} cycles exceeds the virtual-time horizon"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Generates a multi-class workload trace: sorted arrivals under the
/// configured regime, each request tagged with a weight-sampled
/// priority class and its class's SLO. Deterministic in
/// [`WorkloadConfig::seed`]; arrivals are clamped to
/// [`VIRTUAL_TIME_HORIZON`].
///
/// # Panics
///
/// Panics if the configuration fails [`WorkloadConfig::validate`].
pub fn workload_trace(cfg: &WorkloadConfig) -> Vec<Request> {
    cfg.validate().expect("invalid workload configuration");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total_weight: u64 = cfg.classes.iter().map(|c| u64::from(c.weight)).sum();
    let draw_class = |rng: &mut StdRng| -> usize {
        // lint:allow(cast-audit, f64-to-u64 is the sampling quantization itself; the draw is below total_weight and non-negative so the cast is lossless)
        let mut ticket = (rng.gen_range(0.0..1.0) * total_weight as f64) as u64;
        for (i, c) in cfg.classes.iter().enumerate() {
            let w = u64::from(c.weight);
            if ticket < w {
                return i;
            }
            ticket -= w;
        }
        cfg.classes.len() - 1
    };
    let exp_gap = |rng: &mut StdRng, mean: f64| -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        // lint:allow(cast-audit, f64-to-u64 is the sampling quantization itself; the draw is non-negative by construction)
        (-(1.0 - u).ln() * mean) as u64
    };
    let mut requests = Vec::with_capacity(cfg.requests);
    let mut now = 0u64;
    let push = |requests: &mut Vec<Request>, rng: &mut StdRng, arrival: u64| {
        let class = draw_class(rng);
        requests.push(Request {
            arrival,
            class,
            slo_cycles: cfg.classes[class].slo_cycles,
        });
    };
    match cfg.regime {
        ArrivalRegime::Bursty {
            mean_gap_cycles,
            mean_burst,
        } => {
            let p_continue = 1.0 - 1.0 / mean_burst;
            while requests.len() < cfg.requests {
                now = now
                    .saturating_add(exp_gap(&mut rng, mean_gap_cycles))
                    .min(VIRTUAL_TIME_HORIZON);
                push(&mut requests, &mut rng, now);
                while requests.len() < cfg.requests && rng.gen_range(0.0..1.0) < p_continue {
                    push(&mut requests, &mut rng, now);
                }
            }
        }
        ArrivalRegime::Diurnal {
            period_cycles,
            offpeak_gap_cycles,
            peak_gap_cycles,
        } => {
            while requests.len() < cfg.requests {
                let phase = (now % period_cycles) as f64 / period_cycles as f64;
                // Triangle wave: 0 at the period boundaries, 1 mid-period.
                let swell = 1.0 - (2.0 * phase - 1.0).abs();
                let mean = offpeak_gap_cycles + (peak_gap_cycles - offpeak_gap_cycles) * swell;
                now = now
                    .saturating_add(exp_gap(&mut rng, mean))
                    .min(VIRTUAL_TIME_HORIZON);
                push(&mut requests, &mut rng, now);
            }
        }
        ArrivalRegime::Spike {
            base_gap_cycles,
            spike_start_cycle,
            spike_cycles,
            spike_gap_cycles,
        } => {
            let spike_end = spike_start_cycle.saturating_add(spike_cycles);
            while requests.len() < cfg.requests {
                let in_spike = now >= spike_start_cycle && now < spike_end;
                let mean = if in_spike {
                    spike_gap_cycles
                } else {
                    base_gap_cycles
                };
                now = now
                    .saturating_add(exp_gap(&mut rng, mean))
                    .min(VIRTUAL_TIME_HORIZON);
                push(&mut requests, &mut rng, now);
            }
        }
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validation_rejects_degenerate_traces() {
        let ok = TraceConfig {
            seed: 1,
            requests: 10,
            mean_gap_cycles: 100.0,
            mean_burst: 2.0,
        };
        assert!(ok.validate().is_ok());
        assert!(TraceConfig { requests: 0, ..ok }.validate().is_err());
        assert!(TraceConfig {
            mean_gap_cycles: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TraceConfig {
            mean_gap_cycles: f64::INFINITY,
            ..ok
        }
        .validate()
        .is_err());
        assert!(TraceConfig {
            mean_burst: 0.5,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn burstiness_concentrates_arrivals() {
        // With mean_burst = 1 every request gets its own burst (gaps can
        // still floor to the same integer cycle occasionally); with a
        // large burst mean, most arrivals share cycles.
        let base = TraceConfig {
            seed: 3,
            requests: 200,
            mean_gap_cycles: 1000.0,
            mean_burst: 1.0,
        };
        let plain = arrival_trace(&base);
        let distinct = |a: &[u64]| {
            let mut v = a.to_vec();
            v.dedup();
            v.len()
        };
        assert!(distinct(&plain) * 10 >= plain.len() * 9);
        let bursty = arrival_trace(&TraceConfig {
            mean_burst: 8.0,
            ..base
        });
        assert!(distinct(&bursty) < bursty.len() / 2);
        assert!(distinct(&bursty) < distinct(&plain));
    }

    #[test]
    fn absurd_gap_saturates_instead_of_wrapping() {
        // A valid-but-enormous mean gap must saturate the virtual clock,
        // not wrap it into an unsorted trace.
        let cfg = TraceConfig {
            seed: 0,
            requests: 4,
            mean_gap_cycles: 1e18,
            mean_burst: 1.0,
        };
        let a = arrival_trace(&cfg);
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "trace must stay sorted");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Traces are sorted, the right length, and deterministic in the
        /// seed.
        #[test]
        fn traces_are_sorted_and_deterministic(
            seed in 0u64..1000,
            requests in 1usize..300,
            gap in 1u64..10_000,
            burst in 1u64..8,
        ) {
            let cfg = TraceConfig {
                seed,
                requests,
                mean_gap_cycles: gap as f64,
                mean_burst: burst as f64,
            };
            let a = arrival_trace(&cfg);
            prop_assert_eq!(a.len(), requests);
            prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "unsorted trace");
            prop_assert_eq!(a, arrival_trace(&cfg));
        }
    }

    #[test]
    fn workload_validation_rejects_degenerate_configs() {
        let ok = WorkloadConfig {
            seed: 1,
            requests: 10,
            regime: ArrivalRegime::Bursty {
                mean_gap_cycles: 100.0,
                mean_burst: 2.0,
            },
            classes: vec![ClassConfig {
                weight: 1,
                slo_cycles: Some(1_000),
            }],
        };
        assert!(ok.validate().is_ok());
        assert!(WorkloadConfig {
            requests: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadConfig {
            classes: vec![],
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadConfig {
            classes: vec![ClassConfig {
                weight: 0,
                slo_cycles: None
            }],
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadConfig {
            classes: vec![ClassConfig {
                weight: 1,
                slo_cycles: Some(VIRTUAL_TIME_HORIZON + 1),
            }],
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadConfig {
            regime: ArrivalRegime::Diurnal {
                period_cycles: 0,
                offpeak_gap_cycles: 100.0,
                peak_gap_cycles: 10.0,
            },
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadConfig {
            regime: ArrivalRegime::Diurnal {
                period_cycles: 100,
                offpeak_gap_cycles: 10.0,
                peak_gap_cycles: 100.0,
            },
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadConfig {
            regime: ArrivalRegime::Spike {
                base_gap_cycles: 100.0,
                spike_start_cycle: 0,
                spike_cycles: 0,
                spike_gap_cycles: 10.0,
            },
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn spike_regime_concentrates_arrivals_in_the_window() {
        // The spike window must actually be denser than the baseline:
        // count arrivals per cycle inside vs outside.
        let cfg = WorkloadConfig {
            seed: 11,
            requests: 2_000,
            regime: ArrivalRegime::Spike {
                base_gap_cycles: 1_000.0,
                spike_start_cycle: 200_000,
                spike_cycles: 100_000,
                spike_gap_cycles: 20.0,
            },
            classes: vec![ClassConfig {
                weight: 1,
                slo_cycles: None,
            }],
        };
        let reqs = workload_trace(&cfg);
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let inside = reqs
            .iter()
            .filter(|r| (200_000..300_000).contains(&r.arrival))
            .count();
        let before = reqs.iter().filter(|r| r.arrival < 200_000).count();
        // ~200 arrivals expected before (1/1000 per cycle), ~5000-capped
        // inside; the density ratio must be far above 1.
        assert!(
            inside > 5 * before.max(1),
            "spike not denser than baseline: {inside} inside vs {before} before"
        );
    }

    #[test]
    fn diurnal_regime_swells_mid_period() {
        let period = 1_000_000u64;
        let cfg = WorkloadConfig {
            seed: 5,
            requests: 3_000,
            regime: ArrivalRegime::Diurnal {
                period_cycles: period,
                offpeak_gap_cycles: 5_000.0,
                peak_gap_cycles: 100.0,
            },
            classes: vec![ClassConfig {
                weight: 1,
                slo_cycles: None,
            }],
        };
        let reqs = workload_trace(&cfg);
        // Mid-period halves must carry more traffic than the edges.
        let mid = reqs
            .iter()
            .filter(|r| {
                let phase = r.arrival % period;
                (period / 4..3 * period / 4).contains(&phase)
            })
            .count();
        assert!(
            mid * 2 > reqs.len(),
            "diurnal peak not denser: {mid} of {} mid-period",
            reqs.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Workload traces are sorted, complete, deterministic, and
        /// class-consistent (every request's SLO matches its class).
        #[test]
        fn workloads_are_sorted_deterministic_and_class_consistent(
            seed in 0u64..1000,
            requests in 1usize..200,
            gap in 1u64..5_000,
            hi_weight in 0u32..5,
        ) {
            let cfg = WorkloadConfig {
                seed,
                requests,
                regime: ArrivalRegime::Bursty {
                    mean_gap_cycles: gap as f64,
                    mean_burst: 2.0,
                },
                classes: vec![
                    ClassConfig { weight: 3, slo_cycles: None },
                    ClassConfig { weight: hi_weight, slo_cycles: Some(50_000) },
                ],
            };
            let reqs = workload_trace(&cfg);
            prop_assert_eq!(reqs.len(), requests);
            prop_assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            for r in &reqs {
                prop_assert!(r.class < cfg.classes.len());
                prop_assert_eq!(r.slo_cycles, cfg.classes[r.class].slo_cycles);
                if hi_weight == 0 {
                    prop_assert_eq!(r.class, 0, "zero-weight class must never be drawn");
                }
            }
            prop_assert_eq!(reqs, workload_trace(&cfg));
        }
    }
}
