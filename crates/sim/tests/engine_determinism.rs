//! Engine-determinism tests: across a multi-seed loop of scenarios that
//! include same-tick event collisions, message loss and Poisson churn,
//! **identical seeds ⇒ identical runs** — re-running a scenario yields a
//! byte-identical step trace — and different seeds do not.
//!
//! The scenario matrix lives in `common/determinism.rs`. There is one event
//! queue, the shipped timer wheel; its pop order is checked against a sorted
//! set by `rgb_core::wheel`'s own tests.

use rgb_core::prelude::*;
use rgb_sim::workload::ChurnParams;
use rgb_sim::{NetConfig, Scenario};

include!("common/determinism.rs");

/// Step a scenario to quiescence-or-deadline, recording the full
/// `(now, sent_total, proposal_hops)` trace after every event.
fn trace(scenario: &Scenario) -> Vec<(u64, u64, u64)> {
    let mut sim = scenario.build_sim();
    let mut out = Vec::new();
    while sim.peek_at().is_some_and(|at| at <= scenario.duration) {
        sim.step();
        out.push((sim.now, sim.metrics.sent_total, sim.metrics.proposal_hops()));
    }
    out
}

#[test]
fn identical_seeds_identical_traces_across_scenarios() {
    for seed in [1u64, 7, 23, 0xDEAD_BEEF] {
        for scenario in scenarios(seed) {
            let a = trace(&scenario);
            let b = trace(&scenario);
            assert_eq!(a, b, "seed {seed}, scenario '{}' not reproducible", scenario.name);
            assert!(!a.is_empty(), "scenario '{}' processed no events", scenario.name);
        }
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity: the trace is actually seed-sensitive (the determinism
    // assertions above would pass vacuously on a constant function).
    let a = trace(&scenarios(1)[2]);
    let b = trace(&scenarios(2)[2]);
    assert_ne!(a, b);
}
