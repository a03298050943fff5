//! The dynamic micro-batching policy.
//!
//! Serving traffic arrives one request at a time, but the accelerator's
//! layer-major residency ([`capsacc_core::BatchScheduler`]) only pays
//! off across a *batch*. The micro-batcher trades the two off: it holds
//! requests back to grow the batch, but never longer than a deadline —
//! the classic dynamic-batching policy of production inference servers.
//!
//! A batch opens at its first request's arrival `t0` and closes at
//! whichever comes first:
//!
//! - **size**: the [`BatcherConfig::max_batch`]-th request arrives
//!   (close at that arrival cycle), or
//! - **deadline**: `t0 + max_wait_cycles` passes (close at the
//!   deadline, with however many requests arrived by then — arrivals
//!   *exactly on* the deadline still join).
//!
//! [`crate::run_runtime`] enforces the policy online. Without SLO-aware
//! closing ([`crate::RuntimeConfig::deadline_aware`]) batch formation
//! depends on the arrival trace alone — not on worker availability or
//! service times.

use crate::trace::VIRTUAL_TIME_HORIZON;

/// A violated constraint in a serving-policy configuration
/// ([`BatcherConfig`], [`crate::RuntimeConfig`]) — typed, so callers
/// can match on *which* constraint failed instead of parsing a string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `max_batch` is zero — a batch can never form.
    ZeroMaxBatch,
    /// The wait budget exceeds [`VIRTUAL_TIME_HORIZON`]: `t0 +
    /// max_wait_cycles` could not be represented for every in-horizon
    /// arrival, so the config is rejected instead of letting deadline
    /// arithmetic saturate silently at `u64::MAX`.
    UnrepresentableWait {
        /// The offending wait budget.
        max_wait_cycles: u64,
    },
    /// The runtime needs at least one initial worker.
    ZeroWorkers,
    /// A bounded admission queue must hold at least one request.
    ZeroQueueCapacity,
    /// An autoscaler bound or period is degenerate; the payload names
    /// the constraint.
    InvalidAutoscaler(&'static str),
    /// A fault-plan rate or recovery policy is degenerate; the payload
    /// names the constraint.
    InvalidResilience(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ConfigError::UnrepresentableWait { max_wait_cycles } => write!(
                f,
                "max_wait_cycles of {max_wait_cycles} exceeds the virtual-time horizon \
                 ({VIRTUAL_TIME_HORIZON}); deadlines would saturate instead of being computed"
            ),
            ConfigError::ZeroWorkers => write!(f, "at least one worker required"),
            ConfigError::ZeroQueueCapacity => {
                write!(
                    f,
                    "queue_capacity of Some(0) admits nothing; use None for unbounded"
                )
            }
            ConfigError::InvalidAutoscaler(what) => write!(f, "invalid autoscaler: {what}"),
            ConfigError::InvalidResilience(what) => write!(f, "invalid resilience: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Micro-batching policy.
///
/// # Example
///
/// ```
/// use capsacc_serve::{run_runtime, BatcherConfig, Request, ResilienceConfig, RuntimeConfig};
/// let batcher = BatcherConfig { max_batch: 3, max_wait_cycles: 100 };
/// let rt = RuntimeConfig {
///     workers: 1,
///     batcher,
///     queue_capacity: None,
///     deadline_aware: false,
///     autoscaler: None,
///     record_events: false,
///     resilience: ResilienceConfig::none(),
/// };
/// let requests: Vec<Request> = [0, 10, 11, 12, 500].map(Request::best_effort).to_vec();
/// let out = run_runtime(&rt, &requests, &|n| 10 * n as u64, 0);
/// // [0, 10, 11] fills max_batch at cycle 11; [12] closes at its
/// // deadline 112 (the next arrival is beyond it); [500] likewise.
/// let batches: Vec<(usize, u64)> = out.sim.batches.iter().map(|b| (b.len, b.close_cycle)).collect();
/// assert_eq!(batches, [(3, 11), (1, 112), (1, 600)]);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BatcherConfig {
    /// Largest batch a worker accepts (closes the batch early).
    pub max_batch: usize,
    /// Longest a request may wait for co-batching, in cycles from the
    /// batch's first arrival. Zero means "never wait": a batch is
    /// whatever arrived on one cycle.
    pub max_wait_cycles: u64,
}

impl BatcherConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroMaxBatch`] for a `max_batch` of zero;
    /// [`ConfigError::UnrepresentableWait`] for a wait budget beyond
    /// [`VIRTUAL_TIME_HORIZON`] (whose deadlines would silently
    /// saturate at `u64::MAX` instead of being representable for every
    /// in-horizon arrival).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.max_wait_cycles > VIRTUAL_TIME_HORIZON {
            return Err(ConfigError::UnrepresentableWait {
                max_wait_cycles: self.max_wait_cycles,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::{anchored_sim, flat_service};
    use proptest::prelude::*;

    /// `(first, len, close_cycle)` of every batch the runtime forms over
    /// `arrivals`, in close order.
    fn batches(arrivals: &[u64], max_batch: usize, max_wait: u64) -> Vec<(usize, usize, u64)> {
        let mut first = 0;
        anchored_sim(arrivals, 2, max_batch, max_wait, &flat_service)
            .batches
            .iter()
            .map(|b| {
                first += b.len;
                (first - b.len, b.len, b.close_cycle)
            })
            .collect()
    }

    #[test]
    fn size_trigger_closes_at_last_arrival() {
        assert_eq!(batches(&[5, 7, 9, 11], 2, 1000), [(0, 2, 7), (2, 2, 11)]);
    }

    #[test]
    fn deadline_trigger_closes_at_deadline_and_includes_edge_arrivals() {
        // 50 arrives exactly on the deadline of the batch opened at 0 —
        // it joins; 51 misses it and opens the next batch.
        assert_eq!(batches(&[0, 50, 51], 10, 50), [(0, 2, 50), (2, 1, 101)]);
    }

    #[test]
    fn zero_wait_batches_only_same_cycle_arrivals() {
        assert_eq!(
            batches(&[3, 3, 3, 4, 9], 8, 0),
            [(0, 3, 3), (3, 1, 4), (4, 1, 9)]
        );
    }

    #[test]
    fn validation_is_typed_and_rejects_unrepresentable_waits() {
        // The old code saturated `t0 + max_wait_cycles` silently,
        // pinning every deadline to u64::MAX near the top of the range;
        // now the config is rejected up front with a typed error.
        let unrepresentable =
            |max_wait_cycles| Err(ConfigError::UnrepresentableWait { max_wait_cycles });
        for (max_batch, max_wait_cycles, want) in [
            (0, 10, Err(ConfigError::ZeroMaxBatch)),
            (4, u64::MAX, unrepresentable(u64::MAX)),
            (
                4,
                VIRTUAL_TIME_HORIZON + 1,
                unrepresentable(VIRTUAL_TIME_HORIZON + 1),
            ),
            (4, VIRTUAL_TIME_HORIZON, Ok(())),
        ] {
            let cfg = BatcherConfig {
                max_batch,
                max_wait_cycles,
            };
            assert_eq!(cfg.validate(), want);
        }
        // The largest representable wait is accepted, and deadlines at
        // the horizon compute exactly instead of saturating.
        let b = batches(&[VIRTUAL_TIME_HORIZON], 4, VIRTUAL_TIME_HORIZON);
        assert_eq!(b, [(0, 1, 2 * VIRTUAL_TIME_HORIZON)]);
    }

    #[test]
    fn empty_trace_forms_no_batches() {
        assert!(batches(&[], 4, 10).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Structural invariants: batches partition the trace in order,
        /// never exceed `max_batch`, close no earlier than their last
        /// member's arrival and no later than first arrival + wait
        /// (unless closed by size on the exact arrival).
        #[test]
        fn batches_partition_the_trace(
            gaps in proptest::collection::vec(0u64..300, 1..100),
            max_batch in 1usize..9,
            max_wait in 0u64..500,
        ) {
            let mut t = 0u64;
            let arrivals: Vec<u64> = gaps.iter().map(|&g| { t += g; t }).collect();
            let mut next = 0usize;
            for (first, len, close_cycle) in batches(&arrivals, max_batch, max_wait) {
                prop_assert_eq!(first, next, "batches must tile the trace");
                prop_assert!(len >= 1 && len <= max_batch);
                prop_assert!(close_cycle >= arrivals[first + len - 1]);
                prop_assert!(close_cycle <= arrivals[first] + max_wait);
                // Deadline-closed batches really were starved: the next
                // request (if any) must miss the deadline.
                if len < max_batch {
                    if let Some(&next_arrival) = arrivals.get(first + len) {
                        prop_assert!(next_arrival > arrivals[first] + max_wait);
                    }
                }
                next = first + len;
            }
            prop_assert_eq!(next, arrivals.len(), "every request is batched");
        }
    }
}
