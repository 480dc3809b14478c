//! Absolute behaviour of the four corpus presets at seed 1, pinned against
//! committed constants on Seq and Par(3) (see `common`). A constant here
//! changes only with a change that means to alter protocol or engine
//! behaviour, and that change says so.
//!
//! Two presets also pin their obs surface: the flight-recorder stream and
//! the per-level latency histograms. `obs_trace_equivalence` compares the
//! two engines with each other, so a tracking change both make alike passes
//! it; it does not pass these.

mod common;

use common::{assert_golden, Fnv1a, Golden};
use rgb_core::obs::{FlightRecorder, LevelHistograms, ObsRecord, TraceSink};
use rgb_sim::presets;
use std::fmt::Write;

fn assert_preset(name: &str, want: Golden) {
    assert_golden(&presets::by_name(name, 1).expect("registered preset"), &want);
}

/// Holds every record either engine emits for the pinned presets; a drop
/// would make the pin depend on eviction order, so none is allowed.
const TRACE_CAP: usize = 1 << 16;

/// [`Fnv1a`] over the sorted trace records, then the `Debug` rendering of
/// the per-level latency surfaces.
fn obs_fingerprint(dropped: u64, mut records: Vec<ObsRecord>, levels: &LevelHistograms) -> u64 {
    assert_eq!(dropped, 0, "a flight recorder evicted");
    assert!(!levels.is_empty(), "no latency sample to pin");
    records.sort_unstable();
    let mut hash = Fnv1a::new();
    for rec in &records {
        write!(hash, "{rec:?}").expect("hashing cannot fail");
    }
    write!(hash, "{levels:?}").expect("hashing cannot fail");
    hash.0
}

/// Assert preset `name` at seed 1, run whole with flight recorders on,
/// reproduces the obs fingerprint `want` on Seq and on Par(3).
fn assert_obs_pinned(name: &str, want: u64) {
    let sc = presets::by_name(name, 1).expect("registered preset");
    let mut seq = sc.try_build_sim().expect("preset validates");
    seq.enable_obs(Box::new(FlightRecorder::new(TRACE_CAP)));
    seq.run_until(sc.duration);
    let seq_obs = obs_fingerprint(seq.trace_dropped(), seq.trace_snapshot(), &seq.metrics.levels);
    assert_eq!(seq_obs, want, "'{name}' on Seq");
    let mut par = sc.try_build_par(3).expect("preset validates");
    par.enable_obs(|_| Box::new(FlightRecorder::new(TRACE_CAP)) as Box<dyn TraceSink>);
    par.run_until(sc.duration);
    let par_obs = obs_fingerprint(par.trace_dropped(), par.trace_snapshot(), &par.level_latency());
    assert_eq!(par_obs, want, "'{name}' on Par(3)");
}

#[test]
fn diurnal_load_curve_obs_is_pinned() {
    assert_obs_pinned("diurnal_load_curve", 4535338490513515006);
}

#[test]
fn rolling_upgrade_churn_obs_is_pinned() {
    assert_obs_pinned("rolling_upgrade_churn", 17861368587606677939);
}

#[test]
fn diurnal_load_curve_is_pinned() {
    assert_preset(
        "diurnal_load_curve",
        Golden {
            digests: 12042430665161617592,
            sent_total: 5845,
            app_events: 3058,
            lost: 0,
            stale_timer_skips: 2530,
            timer_fires: [0, 0, 0, 0, 0, 0],
        },
    );
}

#[test]
fn rolling_upgrade_churn_is_pinned() {
    assert_preset(
        "rolling_upgrade_churn",
        Golden {
            digests: 9362181555720306646,
            sent_total: 19474,
            app_events: 8821,
            lost: 0,
            stale_timer_skips: 8650,
            timer_fires: [111, 0, 0, 0, 0, 0],
        },
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-tier: 300k-tick soak ×2 engines")]
fn multi_day_soak_is_pinned() {
    assert_preset(
        "multi_day_soak",
        Golden {
            digests: 13911185061499983885,
            sent_total: 14698,
            app_events: 7683,
            lost: 0,
            stale_timer_skips: 6136,
            timer_fires: [0, 0, 0, 0, 0, 0],
        },
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-tier: 1e5-node storm ×2 engines")]
fn flash_crowd_join_storm_is_pinned() {
    assert_preset(
        "flash_crowd_join_storm",
        Golden {
            digests: 4051670351940898948,
            sent_total: 153729,
            app_events: 72708,
            lost: 0,
            stale_timer_skips: 64234,
            timer_fires: [0, 0, 0, 0, 0, 0],
        },
    );
}
