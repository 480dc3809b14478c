//! Bounded smoke run of the scenario explorer, `cargo test`-visible: a
//! block of generated scenarios across the widened fault space must pass
//! the standard oracle battery. Both blocks run the one session loop with
//! mutation off — blind exploration. The full 200-seed block runs in the
//! PR pipeline as `cargo run --release -p rgb-bench --bin explore --
//! --seeds 200 --smoke`; nightly CI explores the full envelope.

use rgb_sim::explore::{Exploration, Explorer, ScenarioGen, SessionConfig};

/// A blind session over `seeds` of `gen`.
fn blind(gen: &ScenarioGen, seeds: std::ops::Range<u64>) -> Exploration {
    let config = SessionConfig { mutate_fraction: 0.0, ..SessionConfig::default() };
    let mut session = Exploration::default();
    Explorer::default().explore(gen, seeds, &mut session, &config);
    session
}

#[test]
fn smoke_seed_block_is_clean() {
    let exploration = blind(&ScenarioGen::smoke(0), 0..40);
    assert_eq!(exploration.reports.len(), 40);
    if let Some(found) = exploration.found.first() {
        panic!(
            "seed {} violated {}:\n{}\nshrunk reproducer:\n{}",
            found.seed, found.violation.oracle, found.violation.detail, found.artifact
        );
    }
    // Every run produced a usable trace, and the overwhelming majority
    // settle within the budget (a run that never settles only skips the
    // convergence oracles, but a *block* that never settles would mean
    // the gate is broken and the settled checks never run at all).
    let settled = exploration.reports.iter().filter(|r| r.trace.settled_at().is_some()).count();
    assert!(
        settled >= 35,
        "only {settled}/40 runs settled — the quiescence gate is starving the oracles"
    );
    for report in &exploration.reports {
        assert!(!report.trace.observations.is_empty(), "run {} has no trace", report.seed);
    }
}

#[test]
fn full_envelope_spot_check_is_clean() {
    // A handful of full-envelope seeds (bigger topologies, longer runs)
    // so the nightly configuration cannot silently rot between nights.
    let exploration = blind(&ScenarioGen::new(99), 0..8);
    assert!(
        exploration.found.is_empty(),
        "violation in full-envelope spot check: {:?}",
        exploration.found.iter().map(|f| &f.violation).collect::<Vec<_>>()
    );
}
