//! The offline serving pipeline, kept as the oracle the online runtime
//! is checked against: batches are formed over the whole trace at once,
//! then dispatched in close order onto the earliest-free worker. With
//! shedding, deadlines, priorities and autoscaling disabled
//! ([`anchored`]), `run_runtime` must reproduce it bit for bit.

use capsacc::serve::{
    BatchStat, BatcherConfig, Request, RequestStat, ResilienceConfig, RuntimeConfig, SimOutcome,
};

/// The runtime restricted to the offline pipeline's semantics:
/// unbounded queue, no deadlines, no autoscaler, no faults.
pub fn anchored(batcher: BatcherConfig, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        batcher,
        queue_capacity: None,
        deadline_aware: false,
        autoscaler: None,
        record_events: false,
        resilience: ResilienceConfig::none(),
    }
}

/// One best-effort request per arrival cycle.
pub fn best_effort(arrivals: &[u64]) -> Vec<Request> {
    arrivals.iter().map(|&a| Request::best_effort(a)).collect()
}

/// Serves a sorted arrival trace offline. A batch opens at its first
/// arrival `t0` and closes when `max_batch` requests have arrived (at
/// that arrival) or at `t0 + max_wait_cycles` (arrivals on the deadline
/// still join); it then runs for `service(len)` cycles on the worker
/// that frees up earliest, lowest id on ties.
pub fn offline_serve(
    arrivals: &[u64],
    batcher: &BatcherConfig,
    workers: usize,
    service: &dyn Fn(usize) -> u64,
) -> SimOutcome {
    let mut free_at = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let (mut requests, mut batches) = (Vec::new(), Vec::new());
    let mut first = 0;
    while first < arrivals.len() {
        let deadline = arrivals[first] + batcher.max_wait_cycles;
        let mut next = first + 1;
        while next < arrivals.len()
            && next - first < batcher.max_batch
            && arrivals[next] <= deadline
        {
            next += 1;
        }
        let len = next - first;
        let close_cycle = if len == batcher.max_batch {
            arrivals[next - 1]
        } else {
            deadline
        };
        let worker = (0..workers)
            .min_by_key(|&w| (free_at[w], w))
            .expect("at least one worker");
        let start = close_cycle.max(free_at[worker]);
        let end = start + service(len);
        free_at[worker] = end;
        busy[worker] += end - start;
        for (slot, &arrival) in arrivals[first..next].iter().enumerate() {
            requests.push(RequestStat {
                arrival,
                dispatch: start,
                completion: end,
                worker,
                batch: batches.len(),
                slot,
            });
        }
        batches.push(BatchStat {
            worker,
            len,
            close_cycle,
            start_cycle: start,
            end_cycle: end,
        });
        first = next;
    }
    let makespan_cycles = batches.iter().map(|b| b.end_cycle).max().unwrap_or(0);
    SimOutcome {
        requests,
        batches,
        worker_busy_cycles: busy,
        makespan_cycles,
    }
}
