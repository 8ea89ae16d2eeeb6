//! The deterministic work-stealing job pool: the one job fan-out in the
//! workspace. Table 1 cells, Monte Carlo corners, PPSFP walk units (with
//! and without dropping), good-response blocks and fleet checkpoint
//! blocks all run through [`run_jobs`]. Callers that default to the
//! whole host size their fan-out with [`host_threads`]. The calling
//! thread is one of the workers, so a fan-out over `threads` workers
//! spawns `threads − 1` scoped threads.
//!
//! Jobs have uneven costs — a fault-free Table 1 cell stops its
//! transient soon after the output crosses while an HBD cell whose input
//! never crosses runs the full observation window, and a dropped fault
//! costs one block while an undetected one walks them all — so every
//! worker *steals* the next job from a shared atomic cursor, and the
//! imbalance is bounded by a single job regardless of how costs are
//! distributed.
//!
//! Determinism: each job writes its result into its own index slot, a
//! panicking job becomes that job's [`WorkerPanicked`] error, and error
//! selection scans slots in job order, so the output — including which
//! error is reported when several jobs fail — is identical at any thread
//! count. Workers only race for *which* job to run next, never for where
//! a result lands.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use obd_metrics::Counter;

use crate::ObdError;

/// Jobs executed through the pool (any thread count, including serial).
static POOL_JOBS: Counter = Counter::new("core.pool_jobs");
/// `run_jobs` invocations that actually spawned workers.
static POOL_PARALLEL_RUNS: Counter = Counter::new("core.pool_parallel_runs");

/// A pool job panicked. Each error type the pool reports converts from
/// this, so a panic surfaces as a typed error at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanicked;

impl From<WorkerPanicked> for ObdError {
    fn from(_: WorkerPanicked) -> Self {
        ObdError::Spice("pool worker panicked".into())
    }
}

/// The host's available parallelism, at least 1 (also when the host
/// cannot report it).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every job on up to `threads` work-stealing workers and
/// returns the results in job order.
///
/// `f` receives the job's index and the job itself. All jobs are executed
/// even when some fail; the reported error is the one from the
/// lowest-indexed failing job, making the outcome independent of worker
/// scheduling. The calling thread runs the loop as one worker next to
/// `threads − 1` spawned ones; `threads <= 1` runs it inline without
/// spawning.
///
/// # Errors
///
/// The lowest-indexed job error; a job that panicked counts as failing
/// with `E::from(WorkerPanicked)`.
pub fn run_jobs<J, R, E, F>(jobs: &[J], threads: usize, f: F) -> Result<Vec<R>, E>
where
    J: Sync,
    R: Send,
    E: Send + From<WorkerPanicked>,
    F: Fn(usize, &J) -> Result<R, E> + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let worker = |out: &mut Vec<(usize, Result<R, E>)>| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= jobs.len() {
            break;
        }
        POOL_JOBS.inc();
        let r = catch_unwind(AssertUnwindSafe(|| f(i, &jobs[i])))
            .unwrap_or_else(|_| Err(E::from(WorkerPanicked)));
        out.push((i, r));
    };

    let mut tagged: Vec<(usize, Result<R, E>)> = Vec::with_capacity(jobs.len());
    if threads <= 1 {
        worker(&mut tagged);
    } else {
        POOL_PARALLEL_RUNS.inc();
        std::thread::scope(|scope| {
            // The calling thread is one of the workers.
            let handles: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        worker(&mut local);
                        local
                    })
                })
                .collect();
            worker(&mut tagged);
            // Job panics are caught above, so a worker can only die
            // outside `f`; its jobs then stay unfilled and surface below.
            for batch in handles.into_iter().filter_map(|h| h.join().ok()) {
                tagged.extend(batch);
            }
        });
    }

    let mut slots: Vec<Option<Result<R, E>>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    for (i, r) in tagged {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(E::from(WorkerPanicked))))
        .collect()
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
                Ok::<_, ObdError>(j * j)
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
            Ok::<_, ObdError>(())
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
    fn a_panicking_job_is_a_typed_error_at_any_thread_count() {
        let jobs: Vec<usize> = (0..16).collect();
        for threads in [1, 2, 4] {
            let err = run_jobs(&jobs, threads, |_, &j| {
                if j == 5 {
                    panic!("job {j} panics");
                }
                if j == 11 {
                    return Err(ObdError::BadSite("job 11".into()));
                }
                Ok(j)
            })
            .unwrap_err();
            assert_eq!(err, ObdError::from(WorkerPanicked), "threads={threads}");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let got = run_jobs(&[] as &[usize], 4, |_, &j| Ok::<_, ObdError>(j)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn oversubscribed_threads_are_clamped() {
        let jobs = [1usize, 2];
        let got = run_jobs(&jobs, 999, |_, &j| Ok::<_, ObdError>(j * 10)).unwrap();
        assert_eq!(got, vec![10, 20]);
    }
}
