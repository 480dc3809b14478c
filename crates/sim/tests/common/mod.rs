//! A run's absolute fingerprint, shared by `golden_digests` (the corpus
//! presets) and `par_equivalence` (its scenario families).
//!
//! `par_equivalence` compares the two engines with each other, so a change
//! both make alike passes it — and since they run one dispatch loop, every
//! engine change is of that kind. The fingerprint is compared with a
//! committed constant instead.

use rgb_core::prelude::TimerKind;
use rgb_sim::{Engine, Metrics, Scenario};
use std::fmt::Write;

/// Checkpoint stride of the digest stream (that of `par_equivalence`).
pub const STRIDE: u64 = 499;

/// FNV-1a over every byte written to it. Hand-written because a committed
/// constant must not depend on `DefaultHasher`, whose algorithm is not
/// part of std's contract.
pub struct Fnv1a(pub u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// What one run of one scenario must reproduce, whichever engine ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// [`Fnv1a`] over the `Debug` rendering of the `SystemDigest` at every
    /// [`STRIDE`]-tick checkpoint (`settled` fixed to `false`).
    pub digests: u64,
    pub sent_total: u64,
    pub app_events: u64,
    pub lost: u64,
    pub stale_timer_skips: u64,
    /// `Metrics::timer_fires()`, in `TimerKind::NAMES` order.
    pub timer_fires: [u64; TimerKind::COUNT],
}

fn digest_stream<E: Engine>(engine: &mut E, duration: u64) -> u64 {
    let mut hash = Fnv1a::new();
    let mut t = 0;
    while t < duration {
        t = (t + STRIDE).min(duration);
        engine.run_until(t);
        write!(hash, "{:?}", engine.system_digest(false)).expect("hashing cannot fail");
    }
    hash.0
}

fn golden(digests: u64, m: &Metrics) -> Golden {
    let mut timer_fires = [0; TimerKind::COUNT];
    for (slot, (_, count)) in timer_fires.iter_mut().zip(m.timer_fires()) {
        *slot = count;
    }
    Golden {
        digests,
        sent_total: m.sent_total,
        app_events: m.app_events,
        lost: m.lost,
        stale_timer_skips: m.stale_timer_skips,
        timer_fires,
    }
}

/// Assert `sc` reproduces `want` on Seq and on Par(3).
pub fn assert_golden(sc: &Scenario, want: &Golden) {
    let mut seq = sc.build_sim();
    let digests = digest_stream(&mut seq, sc.duration);
    assert_eq!(&golden(digests, &seq.metrics), want, "'{}' on Seq", sc.name);
    let mut par = sc.try_build_par(3).expect("scenario validates");
    let digests = digest_stream(&mut par, sc.duration);
    assert_eq!(&golden(digests, &par.metrics()), want, "'{}' on Par(3)", sc.name);
}
