//! A fixed reference kernel, timed before every job, that gauges how fast
//! the host runs at that moment.
//!
//! On a shared host the same job's wall time swings by a factor of two
//! from one minute to the next, while the ratio of a job to a kernel
//! timed just before it stays within a few percent. The end-to-end
//! metrics are therefore reported at a nominal host speed: a measured
//! time `t` next to a reference pass of `r` reads `t · NOMINAL_MS / r`.
//! The kernel is this crate's own code, so a change to the library moves
//! the jobs and never the reference.

use std::hint::black_box;
use std::time::Instant;

/// Reference-pass time that defines the nominal host, ms. The 2-core
/// Xeon host the baseline was taken on runs a pass in 4.5 ms at its
/// quietest and in 6 to 9 ms under its usual load.
pub const NOMINAL_MS: f64 = 5.0;

/// Words in the bit-sweep buffer: 4 MiB, twice this host's per-core L2.
/// Contention from other tenants slows the workloads mostly through the
/// caches, and a kernel that fits in L1 would not see it.
const SWEEP_WORDS: usize = 1 << 19;
/// Words in the sorted array.
const SORT_WORDS: usize = 8192;

/// Bit-parallel read-modify-write sweeps over a buffer, with a stride
/// that touches a new cache line on every step, and seeded fills and
/// sorts of a small array: the memory-bound bitwise work of the grading
/// workloads and the branchy integer work of all of them. It allocates
/// nothing. Returns a checksum so the work cannot be optimised away.
fn reference_work(sweep: &mut [u64], sort: &mut [u64]) -> u64 {
    let n = sweep.len();
    for pass in 0..2 {
        for i in 0..n {
            let j = (i * 4099 + pass) % n;
            sweep[i] = (sweep[i] & !sweep[j]) ^ sweep[j].rotate_left(pass as u32 + 1);
        }
    }
    let mut acc = black_box(&sweep)[n / 2];
    let mut s = acc | 1;
    for _ in 0..4 {
        sort.fill_with(|| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        });
        sort.sort_unstable();
        acc = acc.wrapping_add(black_box(&sort)[sort.len() / 2]);
    }
    acc
}

/// Times reference passes on as many threads as a workload uses.
pub struct Reference {
    /// One `(sweep, sort)` buffer pair per thread.
    buffers: Vec<(Vec<u64>, Vec<u64>)>,
}

impl Reference {
    /// Allocates the kernel's buffers for `threads` threads once, and
    /// runs one untimed pass so the first timed one finds them in memory.
    pub fn new(threads: usize) -> Self {
        let mut r = Reference {
            buffers: (0..threads.max(1))
                .map(|i| {
                    let sweep = (0..SWEEP_WORDS as u64)
                        .map(|k| (k ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .collect();
                    (sweep, vec![0; SORT_WORDS])
                })
                .collect(),
        };
        r.pass_s();
        r
    }

    /// Bytes the buffers keep resident, which the peak RSS leaves out.
    pub fn resident_bytes(&self) -> usize {
        self.buffers.len() * (SWEEP_WORDS + SORT_WORDS) * std::mem::size_of::<u64>()
    }

    /// One reference pass on every thread at once, seconds. Each thread
    /// times its own pass; the result is their harmonic mean, the pass
    /// time of the threads' combined speed, as a job whose threads share
    /// out its work sees it.
    pub fn pass_s(&mut self) -> f64 {
        let timed = |(sweep, sort): &mut (Vec<u64>, Vec<u64>)| {
            let start = Instant::now();
            black_box(reference_work(sweep, sort));
            start.elapsed().as_secs_f64()
        };
        let (first, rest) = self
            .buffers
            .split_first_mut()
            .expect("Reference::new makes at least one buffer pair");
        let times: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|b| s.spawn(move || timed(b))).collect();
            let mine = timed(first);
            others
                .into_iter()
                .map(|h| h.join().expect("a reference pass does not panic"))
                .chain([mine])
                .collect()
        });
        times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
    }
}

/// `measured_s` scaled to the nominal host, given the reference pass
/// `reference_s` timed next to it.
pub fn nominal(measured_s: f64, reference_s: f64) -> f64 {
    measured_s * NOMINAL_MS * 1e-3 / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_fixed_work_on_every_thread() {
        let (mut a, mut b) = (vec![7; 1 << 12], vec![0; SORT_WORDS]);
        let (mut c, mut d) = (vec![7; 1 << 12], vec![0; SORT_WORDS]);
        assert_eq!(
            reference_work(&mut a, &mut b),
            reference_work(&mut c, &mut d)
        );
        let mut r = Reference::new(2);
        assert_eq!(r.resident_bytes(), 2 * (SWEEP_WORDS + SORT_WORDS) * 8);
        assert!(r.pass_s() > 0.0);
        // A job as long as its reference pass takes NOMINAL_MS.
        assert!((nominal(0.01, 0.01) - NOMINAL_MS * 1e-3).abs() < 1e-15);
        assert!((nominal(0.02, 0.01) - 2.0 * NOMINAL_MS * 1e-3).abs() < 1e-15);
    }
}
