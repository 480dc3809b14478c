//! Absolute behaviour of the four corpus presets at seed 1, pinned against
//! committed constants on Seq and Par(3) (see `common`). A constant here
//! changes only with a change that means to alter protocol or engine
//! behaviour, and that change says so.

mod common;

use common::{assert_golden, Golden};
use rgb_sim::presets;

fn assert_preset(name: &str, want: Golden) {
    assert_golden(&presets::by_name(name, 1).expect("registered preset"), &want);
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
