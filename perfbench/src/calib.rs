//! Machine-speed calibration of the CPU-time figures.
//!
//! CPU time leaves out the time the hypervisor gives the core to other
//! tenants, but it still moves with their load: a busy sibling
//! hyperthread or a contended cache makes the same work take more
//! cycles. On a shared 2-core host this moved every CPU-time figure of
//! a run up or down together, by up to 1.4x between runs a few minutes
//! apart.
//!
//! So the benchmark also times a fixed reference kernel at regular
//! points of its measured phase, and rescales every CPU-time figure
//! towards a machine on which the kernel takes [`REFERENCE_MS`]. The
//! kernel is plain `std` work of the kind the program does
//! (allocation, string keys, sorting, hashing, copying) and calls none
//! of the program's code, so a change to the program moves the figures
//! but not the scale. It runs on one thread per core at once, as the
//! program's worker pool does, so it sees every core the program runs
//! on.
//!
//! The scale uses the mean of the samples, not their median. The
//! machine's speed flips between a fast and a slow state within
//! seconds; a CPU-time figure sums over operations in both, and so does
//! the mean.
//!
//! The program's CPU time moves less than the kernel's: when the
//! kernel took 1.35x longer, the benchmark's figures took about 1.2x
//! longer. The scale therefore corrects by [`SENSITIVITY`], the slope
//! of log figure over log kernel time.

use std::collections::HashMap;

use crate::cpu::CpuClock;
use crate::stats::mean;

/// CPU milliseconds of one [`reference_kernel`] per thread on the
/// reference machine. The figures are CPU time scaled towards it.
pub const REFERENCE_MS: f64 = 10.0;

/// How far the figures follow the kernel: a run whose kernel takes `r`
/// times [`REFERENCE_MS`] has its CPU times divided by `r^SENSITIVITY`.
/// Fitted as the log-log slope of each figure over the kernel's time
/// across twenty runs per workload on a shared 2-core host: 0.44-0.79
/// for the throughput and latency figures, most of them 0.55-0.8, and
/// 0.29-0.62 for set-up.
pub const SENSITIVITY: f64 = 0.7;

/// Records the reference kernel sorts, hashes and copies.
const KERNEL_RECORDS: u64 = 20_000;

/// The reference kernel: a fixed amount of allocation, sorting,
/// hashing and copying. Returns a checksum of what it built, the same
/// on every call.
pub fn reference_kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut records: Vec<(u64, String)> = (0..KERNEL_RECORDS)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 100_000, format!("key-{i}"))
        })
        .collect();
    records.sort();
    let by_name: HashMap<&str, u64> = records.iter().map(|(k, s)| (s.as_str(), *k)).collect();
    let copy = std::hint::black_box(records.clone());
    copy.iter()
        .step_by(97)
        .map(|(k, s)| k ^ by_name[s.as_str()].rotate_left(7) ^ s.len() as u64)
        .fold(0, |acc, v| acc.wrapping_mul(31).wrapping_add(v))
}

/// CPU times of the reference kernel sampled over one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// Run the kernel once on each of `available_parallelism` threads at
    /// once and record the process's CPU time per thread. Call it while
    /// the program is idle, between operations.
    pub fn sample(&mut self) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let clock = CpuClock::this_process();
        let t0 = clock.now_ns();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| std::hint::black_box(reference_kernel()));
            }
        });
        let ns = clock.now_ns().saturating_sub(t0);
        self.samples_ms.push(ns as f64 / 1e6 / threads as f64);
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Mean CPU milliseconds per thread of the kernel over the run.
    pub fn kernel_ms(&self) -> f64 {
        mean(&self.samples_ms)
    }

    /// The factor that turns this run's CPU times into reference-machine
    /// CPU times: below 1 when the machine ran slower than the reference.
    pub fn scale(&self) -> f64 {
        scale(&self.samples_ms)
    }
}

/// [`REFERENCE_MS`] over the mean of `samples_ms`, to the power
/// [`SENSITIVITY`].
pub fn scale(samples_ms: &[f64]) -> f64 {
    (REFERENCE_MS / mean(samples_ms)).powf(SENSITIVITY)
}
