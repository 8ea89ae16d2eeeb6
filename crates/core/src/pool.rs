//! A deterministic work-stealing job pool shared by the Table 1 driver
//! and the Monte Carlo variation engine.
//!
//! The previous parallel driver split the job list into one contiguous
//! chunk per thread. Table 1 cells have wildly uneven costs — a
//! fault-free cell finishes in a short capture-limited transient while an
//! HBD cell escalates to the full observation window — and the ladder
//! orders jobs by stage, so chunking handed one worker most of the
//! expensive cells and the measured speedup collapsed to ~1×. Here every
//! worker *steals* the next job from a shared atomic cursor, so the
//! imbalance is bounded by a single job regardless of how costs are
//! distributed.
//!
//! Determinism: each job writes its result into its own index slot, and
//! error selection scans slots in job order, so the output — including
//! which error is reported when several jobs fail — is identical at any
//! thread count. Workers only race for *which* job to run next, never for
//! where a result lands.

use std::sync::atomic::{AtomicUsize, Ordering};

use obd_metrics::Counter;

use crate::ObdError;

/// Jobs executed through the pool (any thread count, including serial).
static POOL_JOBS: Counter = Counter::new("core.pool_jobs");
/// `run_jobs` invocations that actually spawned workers.
static POOL_PARALLEL_RUNS: Counter = Counter::new("core.pool_parallel_runs");

/// Runs `f` over every job on up to `threads` work-stealing workers and
/// returns the results in job order.
///
/// `f` receives the job's index and the job itself. All jobs are executed
/// even when some fail; the reported error is the one from the
/// lowest-indexed failing job, making the outcome independent of worker
/// scheduling. `threads <= 1` runs the same loop inline without spawning.
///
/// # Errors
///
/// The lowest-indexed job error, or [`ObdError::Spice`] if a worker
/// panicked.
pub fn run_jobs<J, R, F>(jobs: &[J], threads: usize, f: F) -> Result<Vec<R>, ObdError>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> Result<R, ObdError> + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let worker = |out: &mut Vec<(usize, Result<R, ObdError>)>| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= jobs.len() {
            break;
        }
        POOL_JOBS.inc();
        out.push((i, f(i, &jobs[i])));
    };

    let mut tagged: Vec<(usize, Result<R, ObdError>)> = Vec::with_capacity(jobs.len());
    if threads <= 1 {
        worker(&mut tagged);
    } else {
        POOL_PARALLEL_RUNS.inc();
        let batches: Result<Vec<Vec<_>>, ObdError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        worker(&mut local);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| ObdError::Spice("pool worker panicked".into()))
                })
                .collect()
        });
        for batch in batches? {
            tagged.extend(batch);
        }
    }

    let mut slots: Vec<Option<Result<R, ObdError>>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    for (i, r) in tagged {
        slots[i] = Some(r);
    }
    let mut out = Vec::with_capacity(jobs.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Unreachable: the cursor hands out every index exactly once
            // and panicking workers were caught above.
            None => return Err(ObdError::Spice(format!("pool lost the result of job {i}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_job_order_at_any_thread_count() {
        let jobs: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = run_jobs(&jobs, threads, |i, &j| {
                assert_eq!(i, j);
                Ok(j * j)
            })
            .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..100).collect();
        let hits: Vec<AtomicUsize> = (0..jobs.len()).map(|_| AtomicUsize::new(0)).collect();
        run_jobs(&jobs, 7, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn lowest_indexed_error_wins_regardless_of_scheduling() {
        let jobs: Vec<usize> = (0..64).collect();
        for threads in [1, 4, 16] {
            let err = run_jobs(&jobs, threads, |_, &j| {
                if j == 9 || j == 40 {
                    Err(ObdError::BadSite(format!("job {j}")))
                } else {
                    Ok(j)
                }
            })
            .unwrap_err();
            assert_eq!(err, ObdError::BadSite("job 9".into()), "threads={threads}");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let got = run_jobs(&[] as &[usize], 4, |_, &j| Ok(j)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn oversubscribed_threads_are_clamped() {
        let jobs = [1usize, 2];
        let got = run_jobs(&jobs, 999, |_, &j| Ok(j * 10)).unwrap();
        assert_eq!(got, vec![10, 20]);
    }
}
