//! The core clock the host grants, sampled beside the timed work.
//!
//! The reference host is a 2-vCPU guest on a shared machine. Its cores step
//! between clock levels as the neighbours come and go (the loop below reads
//! 92, 97, 105, 111 or 118 us in levels that last seconds to minutes), and
//! CPU-limited work follows: over 85 laps of `small_worlds` the lap time
//! tracked this probe with correlation 0.88, and lap times taken at the
//! probe's reference speed spread 2.7 % where the raw ones spread 9.1 %.
//! So every CPU-limited timing is reported **at the reference clock**: the
//! measured time times the relative speed the probe saw while it was taken.
//! Raw times and speeds are in every run record.
//!
//! The probe is a fixed count of register-only integer operations on eight
//! independent chains: it touches no memory, so it reads the clock and
//! nothing else. What the neighbours do to the shared cache and memory stays
//! in the numbers.

use std::hint::black_box;
use std::time::Instant;

/// Rounds of one sample (~20 us), timed in `BURSTS` bursts of which the
/// fastest counts: an interrupt inside one burst is not a slower clock.
const ROUNDS: u64 = 16_384;
const BURSTS: u64 = 4;
/// Cost of one round at the reference clock: the probe's median on the
/// reference host. Numbers from another host compare only with themselves,
/// as any timing does.
const REFERENCE_ROUND_NS: f64 = 1.23;

#[inline(never)]
fn rounds(n: u64, seed: u64) -> u64 {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] =
        [0u64, 1, 2, 3, 4, 5, 6, 7].map(|k| seed ^ k);
    for i in 0..n {
        a = a.wrapping_add(i) ^ 0x9e37;
        b = b.rotate_left(5).wrapping_add(i);
        c = c.wrapping_mul(3).wrapping_add(1);
        d = (d ^ i).rotate_left(11);
        e = e.wrapping_add(0x1234_5678) ^ i;
        f = f.rotate_left(7).wrapping_add(3);
        g = g.wrapping_sub(i) ^ 0x55;
        h = h.wrapping_mul(5) ^ i;
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

/// Accumulates samples; [`Clock::take`] closes a reading.
#[derive(Default)]
pub struct Clock {
    seed: u64,
    samples: u64,
    spent_s: f64,
}

impl Clock {
    /// Take one sample of the probe.
    pub fn sample(&mut self) {
        let fastest = (0..BURSTS)
            .map(|_| {
                let t = Instant::now();
                self.seed = rounds(black_box(ROUNDS / BURSTS), self.seed);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        self.spent_s += fastest * BURSTS as f64;
        self.samples += 1;
    }

    /// Relative clock speed over the samples since the last call (1.0 at
    /// the reference clock, below it on a slower one), and start the next
    /// reading. 1.0 when nothing was sampled.
    pub fn take(&mut self) -> f64 {
        let round_ns = self.spent_s * 1e9 / (self.samples * ROUNDS) as f64;
        (self.samples, self.spent_s) = (0, 0.0);
        if round_ns.is_finite() && round_ns > 0.0 {
            REFERENCE_ROUND_NS / round_ns
        } else {
            1.0
        }
    }
}
