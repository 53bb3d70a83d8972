//! The calibration kernel and calibrated time.
//!
//! The build machine's clock is not steady: identical work takes 10–25 %
//! longer or shorter from one second to the next, because the hypervisor
//! shares the cores. A fixed kernel run next to every measurement sees the
//! same slowdown, so dividing by it removes most of that noise. Calibrated
//! nanoseconds are written `cns` (`cus`, `cms` likewise): the time the
//! sample would have taken had the kernel run at its nominal speed.

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one kernel run on the machine the benchmark was defined
/// on, recorded once so that 1 cns is about 1 ns there. Changing it
/// rescales every calibrated metric.
pub const CALIB_NOMINAL_NS: f64 = 90_000.0;

/// 128 KiB of `u32`: larger than an L1 data cache, inside L2.
const TABLE_WORDS: usize = 32 * 1024;
const STEPS: u32 = 50_000;
/// Independent multiply-add chains per step.
const CHAINS: usize = 2;
const LCG: [(u64, u64); 4] = [
    (6_364_136_223_846_793_005, 1_442_695_040_888_963_407),
    (2_862_933_555_777_941_757, 3_037_000_493),
    (3_202_034_522_624_059_733, 4_354_685_564_936_845_319),
    (5_851_800_188_262_339_129, 7_046_029_254_386_353_087),
];

/// A timing sample beside the calibration runs that bracket it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Measured wall time.
    pub raw_ns: f64,
    /// Mean wall time of the kernel runs before and after.
    pub calib_ns: f64,
}

impl Sample {
    /// The sample in calibrated nanoseconds.
    pub fn cns(&self) -> f64 {
        self.raw_ns * CALIB_NOMINAL_NS / self.calib_ns
    }
}

/// The samples in calibrated nanoseconds.
pub fn cns(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::cns).collect()
}

/// The kernel: a dependent multiply-add chain, a branch the predictor
/// cannot learn and a read-modify-write scattered over the table — the
/// mix of an interpreter loop, in pure Rust and touching nothing of the
/// VM.
pub struct Calib {
    table: Vec<u32>,
    state: [u64; CHAINS],
    /// Every kernel time measured, for `calib.ns_median` and its spread.
    pub history: Vec<f64>,
}

impl Calib {
    /// Builds the table and runs the kernel until caches and the clock
    /// governor have settled.
    pub fn warmed_up() -> Calib {
        let mut calib = Calib {
            table: (0..TABLE_WORDS as u32).collect(),
            state: [0x9E37_79B9_7F4A_7C15; CHAINS],
            history: Vec::new(),
        };
        for _ in 0..100 {
            calib.run();
        }
        calib.history.clear();
        calib
    }

    /// Runs the kernel and returns its wall time in nanoseconds. An untimed
    /// pass goes first: the work measured in between has evicted the table,
    /// and the time to fetch it back says how much memory that work
    /// touched, not how fast the machine is.
    pub fn run(&mut self) -> f64 {
        self.pass();
        let start = Instant::now();
        self.pass();
        let ns = start.elapsed().as_nanos() as f64;
        self.history.push(ns);
        ns
    }

    fn pass(&mut self) {
        let mut chains = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            for (x, (mul, add)) in chains.iter_mut().zip(LCG) {
                *x = x.wrapping_mul(mul).wrapping_add(add);
                let slot = (*x >> 40) as usize % TABLE_WORDS;
                self.table[slot] = self.table[slot].wrapping_add(*x as u32);
            }
            if (chains[0] ^ chains[CHAINS - 1]) & (1 << 33) == 0 {
                acc = acc.wrapping_add(chains[0]);
            } else {
                acc ^= chains[CHAINS - 1];
            }
        }
        chains[0] ^= black_box(acc);
        self.state = chains;
    }

    /// Times `work` between two kernel runs. `before` is the kernel time
    /// that ended just before `work` starts; the kernel time measured
    /// after it is returned for the next sample to reuse.
    pub fn time<T>(&mut self, before: f64, work: impl FnOnce() -> T) -> (T, Sample, f64) {
        let start = Instant::now();
        let out = work();
        let raw_ns = start.elapsed().as_nanos() as f64;
        let after = self.run();
        let sample = Sample {
            raw_ns,
            calib_ns: (before + after) / 2.0,
        };
        (out, sample, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_scales_by_the_kernel_ratio() {
        // The machine ran at half speed: kernel and sample both doubled.
        let slow = Sample {
            raw_ns: 2_000.0,
            calib_ns: 2.0 * CALIB_NOMINAL_NS,
        };
        assert_eq!(slow.cns(), 1_000.0);
        let nominal = Sample {
            raw_ns: 1_000.0,
            calib_ns: CALIB_NOMINAL_NS,
        };
        assert_eq!(nominal.cns(), 1_000.0);
    }

    #[test]
    fn timing_brackets_the_work_with_two_kernel_runs() {
        let mut calib = Calib::warmed_up();
        let before = calib.run();
        let (out, sample, after) = calib.time(before, || 7);
        assert_eq!(out, 7);
        assert_eq!(sample.calib_ns, (before + after) / 2.0);
        assert!(sample.raw_ns >= 0.0 && after > 0.0);
        assert_eq!(calib.history.len(), 2);
    }
}
