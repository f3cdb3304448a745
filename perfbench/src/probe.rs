//! Host speed probe. The benchmark's hosts are shared, and their cores run
//! fixed code faster or slower by a fifth from one half-minute to the next,
//! whatever the program does. The probe times a fixed chain of dependent
//! table lookups and multiplies on every core at once, between the timed
//! spans of a phase (the set-ups, the jobs, the windows of a load loop),
//! while the benchmark's own work is stopped. A wall time of the phase
//! times `REFERENCE_S` over the phase's median probe is its length in
//! reference seconds: the time it would take on a host where the probe
//! takes `REFERENCE_S`.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Probe time of the reference host, close to the median on the 2-core
/// host the benchmark was built on, so reference seconds read near wall
/// seconds there.
pub const REFERENCE_S: f64 = 0.003;
const TABLE: usize = 8192;
const CHAIN: usize = 400_000;
/// Chains per sample; a sample is their median.
const REPEATS: usize = 3;

pub struct Probe {
    table: Vec<u64>,
    threads: usize,
    /// Every sample taken, in seconds.
    samples: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self {
            table,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            samples: Vec::new(),
        }
    }

    /// Seconds one chain takes now: the median over `REPEATS` chains, each
    /// averaged over the threads running it at once.
    pub fn sample(&mut self) -> f64 {
        let chains: Vec<f64> = (0..REPEATS).map(|_| self.chain()).collect();
        let s = median(&chains);
        self.samples.push(s);
        s
    }

    /// Where the next sample will go: the start of a phase.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Probe once more and return the factor that turns the phase's wall
    /// seconds into reference seconds: `REFERENCE_S` over the median of the
    /// samples since `mark`.
    pub fn factor_since(&mut self, mark: usize) -> f64 {
        self.sample();
        REFERENCE_S / median(&self.samples[mark..])
    }

    /// The median sample of the run, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    fn chain(&self) -> f64 {
        let table = &self.table;
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(move || {
                        let started = Instant::now();
                        let mut h = 0xcbf2_9ce4_8422_2325u64;
                        let mut i = 0usize;
                        for _ in 0..CHAIN {
                            h = (h ^ table[i]).wrapping_mul(0x0100_0000_01b3);
                            i = (h >> 40) as usize % TABLE;
                        }
                        black_box(h);
                        started.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .sum()
        });
        total / self.threads as f64
    }
}
