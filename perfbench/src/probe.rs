//! The host-speed probe.
//!
//! The benchmark runs on a small VM that shares its host with other
//! tenants, and their load changes how fast the same code executes: by
//! 1.4× between runs a minute apart, and by up to 2× over a day. CPU time
//! moves with wall time, so this is slower execution, not only stolen
//! time. A fixed arithmetic kernel, timed between the workload's
//! operations, measures the host's speed during the run, and the gated
//! times are scaled to what they would be on a host that runs the kernel
//! in [`REFERENCE_S`]. The kernel is the benchmark's own code, so a
//! change to the program never moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// Order of the dense LU factorization one probe performs.
const ORDER: usize = 400;

/// The probe's 10th-percentile time on the reference host (a 2-vCPU
/// Intel Xeon VM, rustc 1.95.0 release build, in a quiet phase), seconds.
/// It only sets the scale of the gated times.
pub const REFERENCE_S: f64 = 0.0065;

/// Time spent probing after each round, as a share of the round's time.
pub const SHARE: f64 = 0.05;

/// Times one probe in `buffer`, whose allocation it reuses: an LU
/// factorization without pivoting of a fixed, diagonally dominant
/// `ORDER × ORDER` matrix. Returns seconds.
pub fn probe_once(buffer: &mut Vec<f64>) -> f64 {
    let n = ORDER;
    let mut a = std::mem::take(buffer);
    a.clear();
    a.extend((0..n * n).map(|k| {
        let (i, j) = (k / n, k % n);
        if i == j {
            n as f64
        } else {
            ((i * 7 + j * 13) % 17) as f64 / 17.0
        }
    }));
    a = black_box(a);
    let start = Instant::now();
    // Indexed (bounds-checked) element access keeps the kernel scalar and
    // index-bound, like the program's sparse solver.
    for k in 0..n {
        let pivot = a[k * n + k];
        for i in k + 1..n {
            let factor = a[i * n + k] / pivot;
            a[i * n + k] = factor;
            for j in k + 1..n {
                a[i * n + j] -= factor * a[k * n + j];
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    *buffer = black_box(a);
    elapsed
}

/// Runs one probe per buffer, each on a thread of its own when there are
/// several, and returns the slowest one's time, seconds: like a workload
/// operation split over as many threads, it waits for the slowest vCPU.
fn probe_parallel(buffers: &mut [Vec<f64>]) -> f64 {
    if let [only] = buffers {
        return probe_once(only);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = buffers
            .iter_mut()
            .map(|buffer| scope.spawn(move || probe_once(buffer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .fold(0.0, f64::max)
    })
}

/// The probe times of one run.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Each probe's time, seconds.
    pub times_s: Vec<f64>,
    /// One matrix per probe thread, allocated once per run so probing
    /// does not grow the process's memory as it goes.
    buffers: Vec<Vec<f64>>,
}

impl Probes {
    /// Probes on `threads` threads back to back for `budget_s` seconds
    /// (at least once).
    pub fn run_for(&mut self, budget_s: f64, threads: usize) {
        self.buffers
            .resize_with(threads.max(1), || Vec::with_capacity(ORDER * ORDER));
        let start = Instant::now();
        loop {
            self.times_s.push(probe_parallel(&mut self.buffers));
            if start.elapsed().as_secs_f64() >= budget_s {
                break;
            }
        }
    }

    /// The host's speed relative to the reference host: [`REFERENCE_S`]
    /// over the 10th-percentile probe time (1 when nothing was probed).
    pub fn speed(&self) -> f64 {
        if self.times_s.is_empty() {
            1.0
        } else {
            REFERENCE_S / quantile(&self.times_s, 0.1)
        }
    }
}
