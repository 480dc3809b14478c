//! Every alive node's cached ring successor (`NodeState::next`, the paper's
//! `Next`) equals a fresh scan of its roster at every 100-tick stride of each
//! corpus preset. `next()` checks the same thing in a `debug_assert`, which a
//! release build compiles out; this test runs in both, so a roster change
//! that skips the refresh fails here whichever profile runs it.

use rgb_sim::presets;
use rgb_sim::Scenario;

const STRIDE: u64 = 100;

/// Presets too heavy for a debug build: the 1e5-node storm and the
/// 300k-tick soak.
const RELEASE_TIER: [&str; 2] = ["flash_crowd_join_storm", "multi_day_soak"];

fn assert_successors_coherent(sc: &Scenario) {
    let name = &sc.name;
    let mut sim = sc.try_build_sim().expect("preset validates");
    let mut checks = 0u64;
    let stopped = sim.run_observed(sc.duration, STRIDE, |sim| {
        for (id, node) in sim.nodes_iter() {
            if !sim.is_crashed(id) && node.next() != node.roster.next_of(id).ok() {
                eprintln!("'{name}' at tick {}: stale successor at {id}", sim.now);
                return false;
            }
        }
        checks += 1;
        true
    });
    assert_eq!(stopped, None, "'{name}': a cached successor went stale");
    assert!(checks >= sc.duration / STRIDE, "'{name}': only {checks} strides observed");
}

#[test]
fn light_presets_keep_their_successors_coherent() {
    for sc in presets::all(1).iter().filter(|sc| !RELEASE_TIER.contains(&sc.name.as_str())) {
        assert_successors_coherent(sc);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-tier: 1e5-node storm and 300k-tick soak")]
fn heavy_presets_keep_their_successors_coherent() {
    for sc in presets::all(1).iter().filter(|sc| RELEASE_TIER.contains(&sc.name.as_str())) {
        assert_successors_coherent(sc);
    }
}
