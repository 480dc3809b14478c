//! The deterministic scenario explorer: fault-space fuzzing with a
//! continuous invariant oracle and automatic trace shrinking.
//!
//! PR 2 made [`Scenario`] a declarative value; PR 3 made the engine burn
//! through millions of events per second. This module spends that speed on
//! systematic correctness coverage:
//!
//! 1. [`gen::ScenarioGen`] samples random scenarios across topology shape,
//!    protocol configuration, latency/loss, **link partitions with timed
//!    heal** and **message duplication/reordering** — a fault space that
//!    strictly contains everything the hand-written experiments exercise;
//! 2. [`oracle`] promotes the quiescence-only checks of [`crate::oracle`]
//!    into [`oracle::Oracle`]s evaluated every K ticks through
//!    [`Simulation::run_observed`](crate::sim::Simulation::run_observed), with a quiescence-aware gate for the
//!    convergence claims;
//! 3. [`Explorer::explore`] is the one session loop: it runs blocks of
//!    seeds, records a compact observation trace per run, fingerprints
//!    every run's behaviour ([`coverage`]), grows a corpus of novel
//!    scenarios ([`corpus`]) and, with mutation on, mutates corpus entries
//!    instead of sampling fresh ones — blind exploration is the same loop
//!    with [`SessionConfig::mutate_fraction`] at `0.0`. A violation is
//!    recorded without stopping the session and the first few are
//!    delta-debugged to minimal reproducers ([`mod@shrink`]), persisted as
//!    replayable text artifacts ([`artifact`]) under `tests/repros/`.
//!
//! The nightly CI job runs a date-derived seed block through this module
//! with mutation on; the PR pipeline runs the bounded smoke block blind
//! and guided (`explore -- --seeds 200 --smoke` and
//! `explore -- --coverage-stats --seeds 200 --smoke`, both
//! `cargo run -p rgb-bench --bin`).

pub mod artifact;
pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::{Corpus, CorpusEntry, Exploration, SessionConfig, SessionStats};
pub use coverage::{CoverageKey, CoverageMap, RunOutcome};
pub use gen::{GenLimits, Mutated, MutationOp, ScenarioGen};
pub use oracle::{standard_oracles, Oracle, Violation};
pub use shrink::{shrink, Shrunk};

use crate::engine::{Engine, EngineCounters};
use crate::scenario::{Scenario, ScenarioError};
use std::path::{Path, PathBuf};

/// One observation point of a run's compact trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Simulated time.
    pub at: u64,
    /// Order-independent fingerprint of every node's `(epoch, view)`.
    pub fingerprint: u64,
    /// Frames sent so far.
    pub sent_total: u64,
    /// Application events delivered so far.
    pub app_events: u64,
    /// Frames lost (random loss) so far.
    pub lost: u64,
    /// Frames swallowed by partitions so far.
    pub partition_dropped: u64,
    /// Whether the quiescence gate was open at this observation.
    pub settled: bool,
}

/// The compact per-run event/decision trace the explorer records: one
/// entry per oracle observation, enough to see *when* the system settled,
/// how much traffic each phase produced and where the views stopped (or
/// never stopped) moving.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Observation points, in time order.
    pub observations: Vec<Observation>,
}

impl RunTrace {
    fn record(&mut self, at: u64, counters: EngineCounters, fingerprint: u64, settled: bool) {
        self.observations.push(Observation {
            at,
            fingerprint,
            sent_total: counters.sent_total,
            app_events: counters.app_events,
            lost: counters.lost,
            partition_dropped: counters.partition_dropped,
            settled,
        });
    }

    /// Time of the first settled observation, if any.
    pub fn settled_at(&self) -> Option<u64> {
        self.observations.iter().find(|o| o.settled).map(|o| o.at)
    }
}

/// Result of exploring one scenario.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seed (generator index) of the run; `u64::MAX` for explicit
    /// scenarios.
    pub seed: u64,
    /// Scenario name.
    pub scenario: String,
    /// Scheduled events in the scenario.
    pub scheduled_events: usize,
    /// The violation, if any oracle fired.
    pub violation: Option<Violation>,
    /// Observation trace.
    pub trace: RunTrace,
    /// Window/batching counters when the run used the parallel engine
    /// ([`Explorer::run_scenario_par`]); `None` on the sequential engine.
    /// This is how lookahead regressions surface in fuzz runs, not only
    /// benches.
    pub par_stats: Option<crate::metrics::ParStats>,
    /// Median repair latency in ticks, pooled across ring levels
    /// (`None` when the run repaired nothing). Tracked through the obs
    /// layer; identical on either engine.
    pub repair_p50: Option<u64>,
    /// Tail (p99) repair latency in ticks, pooled across ring levels.
    pub repair_p99: Option<u64>,
}

/// A violation found by [`Explorer::explore`], with its reproducer: shrunk,
/// or past [`SessionConfig::shrink_first`] the scenario itself.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// Generator index that produced the failing scenario.
    pub seed: u64,
    /// What fired.
    pub violation: Violation,
    /// The original failing scenario.
    pub scenario: Scenario,
    /// The minimised reproducer (same oracle still fires).
    pub shrunk: Scenario,
    /// Oracle-harness re-runs the shrinker spent.
    pub shrink_attempts: usize,
    /// Rendered replayable artifact of the shrunk scenario.
    pub artifact: String,
}

impl FoundViolation {
    /// Persist the reproducer artifact under `dir` (created if missing) as
    /// `repro_<oracle>_seed<seed>.scn`; returns the path written.
    pub fn write_artifact(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("repro_{}_seed{}.scn", self.violation.oracle, self.seed));
        std::fs::write(&path, &self.artifact)?;
        Ok(path)
    }
}

/// One observation's oracle pass — [`oracle::check_digest`] with the
/// verdict flipped to the explorer's `Option<Violation>` shape.
fn check_oracles(
    oracles: &mut [Box<dyn Oracle>],
    digest: &rgb_core::introspect::SystemDigest,
) -> Option<Violation> {
    oracle::check_digest(oracles, digest).err()
}

/// The exploration driver.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Oracle observation interval K (ticks).
    pub check_every: u64,
    /// Extra ticks granted after the scenario duration for the system to
    /// settle before the convergence oracles are asserted.
    pub settle_ticks: u64,
    /// Consecutive identical view fingerprints (spaced `check_every`)
    /// required to declare a non-quiescing run settled. Sized so the
    /// stability window exceeds every recovery timeout the generator
    /// samples — a ring mid-recovery keeps changing its fingerprint.
    pub stable_windows: u32,
    /// Re-run budget for the shrinker.
    pub shrink_budget: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer { check_every: 200, settle_ticks: 10_000, stable_windows: 10, shrink_budget: 400 }
    }
}

impl Explorer {
    /// Run one scenario under the standard oracle battery.
    pub fn run_scenario(&self, scenario: &Scenario) -> Result<RunReport, ScenarioError> {
        let mut oracles = standard_oracles(scenario);
        self.run_scenario_with(scenario, &mut oracles)
    }

    /// Run one scenario under a caller-supplied oracle battery. Oracles
    /// are reset first, checked every [`Explorer::check_every`] ticks
    /// during the scheduled phase, and their settled checks fire once the
    /// quiescence gate opens (full quiescence, or no pending disruptions
    /// plus a stable view fingerprint for
    /// [`Explorer::stable_windows`] consecutive observations) within the
    /// settle budget. A run that never settles skips the gated checks —
    /// the gate exists precisely because asserting convergence on a still
    ///-moving system would be noise, not signal.
    pub fn run_scenario_with(
        &self,
        scenario: &Scenario,
        oracles: &mut [Box<dyn Oracle>],
    ) -> Result<RunReport, ScenarioError> {
        let mut sim = scenario.try_build_sim()?;
        Ok(self.drive(&mut sim, scenario, oracles))
    }

    /// Run one scenario on the **sharded parallel engine** under the
    /// standard oracle battery. The engines are trace-equivalent, so the
    /// oracles see the identical digest stream either way — this is how
    /// the explorer spends multi-core hardware on large envelopes.
    pub fn run_scenario_par(
        &self,
        scenario: &Scenario,
        shards: usize,
    ) -> Result<RunReport, ScenarioError> {
        let mut oracles = standard_oracles(scenario);
        let mut sim = scenario.try_build_par(shards)?;
        let mut report = self.drive(&mut sim, scenario, &mut oracles);
        report.par_stats = Some(sim.par_stats());
        Ok(report)
    }

    /// The engine-generic observation loop behind
    /// [`Explorer::run_scenario_with`] and [`Explorer::run_scenario_par`].
    fn drive<E: Engine>(
        &self,
        sim: &mut E,
        scenario: &Scenario,
        oracles: &mut [Box<dyn Oracle>],
    ) -> RunReport {
        for o in oracles.iter_mut() {
            o.reset();
        }
        // Latency tracking only (no trace retention): the repair-latency
        // surfaces feed the coverage fingerprint. Tracking never touches
        // node inputs or RNG streams, so the digest stream the oracles
        // see is unchanged.
        sim.enable_obs_tracking();
        let mut trace = RunTrace::default();
        let mut violation: Option<Violation> = None;

        // Phase 1: the scheduled run, observed through the engine's
        // continuous-oracle hook. Always-on checks each K ticks; the gate
        // can already open mid-run if the system fully quiesces.
        sim.run_observed(scenario.duration, self.check_every, |s| {
            let quiet = s.pending_disruptions() == 0 && s.queue_len() == 0;
            let digest = s.system_digest(quiet);
            trace.record(s.engine_now(), s.counters(), digest.views_fingerprint(), quiet);
            violation = check_oracles(oracles, &digest);
            violation.is_none()
        });

        // Phase 2: settle. No scheduled events remain; run until full
        // quiescence or until the view fingerprint has been stable long
        // enough, then fire the gated checks once.
        if violation.is_none() {
            let end = scenario.duration + self.settle_ticks;
            let mut stable = 0u32;
            let mut last_fp = trace.observations.last().map(|o| o.fingerprint);
            sim.run_observed(end, self.check_every, |s| {
                let mut digest = s.system_digest(false);
                let fp = digest.views_fingerprint();
                stable = if Some(fp) == last_fp { stable + 1 } else { 0 };
                last_fp = Some(fp);
                let quiescent = s.pending_disruptions() == 0 && s.queue_len() == 0;
                digest.settled = quiescent || stable >= self.stable_windows;
                trace.record(s.engine_now(), s.counters(), fp, digest.settled);
                violation = check_oracles(oracles, &digest);
                violation.is_none() && !digest.settled
            });
        }

        let levels = sim.obs_levels();
        RunReport {
            seed: u64::MAX,
            scenario: scenario.name.clone(),
            scheduled_events: scenario.scheduled_events(),
            violation,
            trace,
            par_stats: None,
            repair_p50: levels.repair_quantile(0.5),
            repair_p99: levels.repair_quantile(0.99),
        }
    }

    /// Shrink a failing scenario against the standard oracle battery,
    /// requiring `violation.oracle` to fire again after every cut.
    pub fn shrink_violation(
        &self,
        seed: u64,
        scenario: &Scenario,
        violation: &Violation,
    ) -> FoundViolation {
        self.shrink_violation_with(seed, scenario, violation, standard_oracles)
    }

    /// [`Explorer::shrink_violation`] with a caller-supplied oracle
    /// factory (a fresh battery per candidate run, so oracle state never
    /// leaks between re-runs).
    pub fn shrink_violation_with(
        &self,
        seed: u64,
        scenario: &Scenario,
        violation: &Violation,
        mut oracle_factory: impl FnMut(&Scenario) -> Vec<Box<dyn Oracle>>,
    ) -> FoundViolation {
        let target = violation.oracle;
        let shrunk = shrink::shrink(scenario, self.shrink_budget, |candidate| {
            let mut oracles = oracle_factory(candidate);
            match self.run_scenario_with(candidate, &mut oracles) {
                Ok(report) => report.violation.map(|v| v.oracle == target).unwrap_or(false),
                Err(_) => false,
            }
        });
        // The artifact records which oracle it is expected to fire, so a
        // replay can tell "bug fixed" from "repro rotted" (stale).
        let artifact = artifact::render_with_meta(
            &shrunk.scenario,
            &artifact::ArtifactMeta {
                oracle: Some(target.to_string()),
                ..artifact::ArtifactMeta::default()
            },
        );
        FoundViolation {
            seed,
            violation: violation.clone(),
            scenario: scenario.clone(),
            shrunk: shrunk.scenario,
            shrink_attempts: shrunk.attempts,
            artifact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgb_core::prelude::*;

    #[test]
    fn clean_scenario_passes_and_settles() {
        let sc = Scenario::new("clean", 1, 3).with_duration(1_500);
        let aps = sc.layout().aps();
        let sc = sc.join(0, aps[0], Guid(1), Luid(1)).join(5, aps[1], Guid(2), Luid(1));
        let report = Explorer::default().run_scenario(&sc).unwrap();
        assert!(report.violation.is_none(), "violation: {:?}", report.violation);
        assert!(report.trace.settled_at().is_some(), "run never settled");
        assert!(report.trace.observations.len() >= 2);
    }

    #[test]
    fn invalid_scenario_is_a_typed_error() {
        let sc = Scenario::new("bad", 1, 3).with_duration(0);
        assert!(matches!(
            Explorer::default().run_scenario(&sc),
            Err(ScenarioError::ZeroDuration { .. })
        ));
    }

    /// A deliberately broken oracle — the inverted epoch check of the
    /// acceptance criterion: it fires when the root ring *agrees*, which
    /// every healthy run does. Used to exercise the full
    /// violation→shrink→artifact pipeline without needing a real protocol
    /// bug on demand.
    #[derive(Debug, Default)]
    struct InvertedEpochCheck;

    impl Oracle for InvertedEpochCheck {
        fn name(&self) -> &'static str {
            "inverted_epoch_check"
        }

        fn check_settled(&mut self, digest: &SystemDigest) -> Result<(), Violation> {
            for (ring, nodes) in digest.by_ring() {
                for (i, a) in nodes.iter().enumerate() {
                    for b in &nodes[i + 1..] {
                        if a.epoch == b.epoch && a.members == b.members {
                            return Err(Violation {
                                oracle: self.name(),
                                at: digest.now,
                                detail: format!(
                                    "ring {ring}: {} and {} agree at epoch {} (inverted check)",
                                    a.node, b.node, a.epoch
                                ),
                            });
                        }
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn broken_oracle_produces_a_small_shrunk_reproducer() {
        let explorer = Explorer::default();
        let gen = ScenarioGen::smoke(7);
        let scenario = gen.scenario(0);
        let broken = |_: &Scenario| -> Vec<Box<dyn Oracle>> { vec![Box::new(InvertedEpochCheck)] };
        let mut oracles = broken(&scenario);
        let report = explorer.run_scenario_with(&scenario, &mut oracles).unwrap();
        let violation = report.violation.expect("inverted check fires on a healthy run");
        assert_eq!(violation.oracle, "inverted_epoch_check");

        let found = explorer.shrink_violation_with(0, &scenario, &violation, broken);
        let before = found.scenario.scheduled_events();
        let after = found.shrunk.scheduled_events();
        assert!(after * 4 <= before, "shrunk to {after} of {before} events (> 25%)");
        // The artifact round-trips and still reproduces.
        let parsed = artifact::parse(&found.artifact).unwrap();
        assert_eq!(parsed, found.shrunk);
        let mut oracles = broken(&parsed);
        let replay = explorer.run_scenario_with(&parsed, &mut oracles).unwrap();
        assert_eq!(
            replay.violation.map(|v| v.oracle),
            Some("inverted_epoch_check"),
            "artifact must replay to the same violation"
        );
    }
}
