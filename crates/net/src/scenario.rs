//! Replay a [`Scenario`] on the live reactor substrate.
//!
//! The same declarative scenario value the simulator executes
//! deterministically (`Scenario::run_on(Backend::Sim)`) is replayed here
//! against real concurrency: the timeline is walked in wall-clock time
//! (one protocol tick = [`LiveConfig::tick`] of real time), partition
//! transitions / mobile-host events / crashes / queries are applied
//! through the [`Cluster`] operator API, and the final membership views
//! are collected into the same `ScenarioOutcome` shape — which is how the
//! differential tests compare the worlds view-for-view.
//!
//! Two layers are exposed:
//!
//! * [`LiveEngine`] — the third implementation of [`rgb_sim::Engine`]
//!   (after the sequential and the sharded simulator): a deployed cluster
//!   plus the scenario timeline, advanced with `run_until` and observed
//!   with `system_digest`/`counters` like any other engine.
//! * [`LiveRuntime`] for [`LiveConfig`] — what makes
//!   `sc.run_on(Backend::Live(&live_config))` work: deploy, replay,
//!   settle, collect, shut down.
//!
//! The live transport has real (near-zero) channel latency, so the
//! scenario's latency bands — and the duplication/reordering fault
//! dimensions, which are properties of the modelled network — are not
//! modelled here; loss is always zero. Link partitions *are* applied (the
//! router severs the pair for the scheduled window). What must agree
//! across substrates is the *converged membership*, not the timing — see
//! `SystemDigest::view_divergence`.

use crate::cluster::Cluster;
use crate::reactor::{LiveConfig, TickClock};
use rgb_core::prelude::*;
use rgb_sim::backend::LiveRuntime;
use rgb_sim::engine::{Engine, EngineCounters};
use rgb_sim::scenario::{PlannedAction, Scenario, ScenarioError, ScenarioOutcome};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// One timeline entry.
enum Action {
    PartitionStart(NodeId, NodeId),
    PartitionHeal(NodeId, NodeId),
    Mh(NodeId, MhEvent),
    Crash(NodeId),
    Query(NodeId, QueryScope),
}

/// Wall-clock instant of scenario tick `t`.
fn at_tick(start: Instant, tick: Duration, t: u64) -> Instant {
    start + tick * u32::try_from(t).unwrap_or(u32::MAX)
}

/// A [`Scenario`] deployed on the live reactor: the cluster, the pending
/// timeline, and enough bookkeeping to serve the [`Engine`] observation
/// surface. Time advances with the wall clock, so `run_until` *sleeps* to
/// the requested tick while the reactor workers run.
pub struct LiveEngine {
    cluster: Cluster,
    tick: Duration,
    start: Instant,
    /// The timeline, earliest first (same-tick entries in the order of
    /// [`Scenario::plan`]); applied entries are taken out of their slot.
    timeline: Vec<(u64, Option<Action>)>,
    applied: usize,
    crashed: BTreeSet<NodeId>,
    expected: BTreeSet<Guid>,
    root_nodes: Vec<NodeId>,
    settle: Duration,
    duration: u64,
}

impl LiveEngine {
    /// Deploy `scenario` on a reactor pool shaped by `config`. All
    /// validation happens up front: a structurally invalid scenario or an
    /// undeployable config never spawns a thread.
    pub fn new(scenario: &Scenario, config: &LiveConfig) -> Result<LiveEngine, ScenarioError> {
        scenario.validate()?;
        let layout = scenario.layout();
        let cluster = Cluster::try_new(layout, &scenario.cfg, config).map_err(|e| {
            ScenarioError::Backend { scenario: scenario.name.clone(), reason: e.to_string() }
        })?;

        // The canonical schedule, each partition window expanded into its
        // two transitions; the stable sort by tick keeps the canonical
        // order among same-tick entries.
        let mut timeline = Vec::new();
        for action in scenario.plan() {
            let (t, action) = match action {
                PlannedAction::Partition(p) => {
                    timeline.push((p.at, Some(Action::PartitionStart(p.a, p.b))));
                    (p.heal_at, Action::PartitionHeal(p.a, p.b))
                }
                PlannedAction::Crash(c) => (c.at, Action::Crash(c.node)),
                PlannedAction::Mh((t, ap, event)) => (t, Action::Mh(ap, event)),
                PlannedAction::Query(q) => (q.at, Action::Query(q.node, q.scope)),
            };
            timeline.push((t, Some(action)));
        }
        timeline.sort_by_key(|&(t, _)| t);

        let root_nodes = cluster.layout.root_ring().nodes.clone();
        Ok(LiveEngine {
            cluster,
            tick: config.tick,
            start: Instant::now(),
            timeline,
            applied: 0,
            crashed: BTreeSet::new(),
            expected: scenario.expected_guids(),
            root_nodes,
            settle: config.settle,
            duration: scenario.duration,
        })
    }

    /// The deployed cluster (for snapshots, stats, partitions).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn apply(&mut self, action: Action) {
        match action {
            Action::PartitionStart(a, b) => self.cluster.set_partition(a, b, true),
            Action::PartitionHeal(a, b) => self.cluster.set_partition(a, b, false),
            Action::Mh(ap, event) => self.cluster.mh_event(ap, event),
            Action::Crash(node) => {
                self.cluster.crash(node);
                self.crashed.insert(node);
            }
            Action::Query(node, scope) => self.cluster.query(node, scope),
        }
    }

    /// Poll until the alive root-ring nodes converge on the schedule's
    /// expected membership, up to the configured settle budget. The live
    /// world has no global clock to quiesce on, so convergence polling is
    /// the only settle signal; `false` means the budget ran out with the
    /// cluster still moving (the caller's comparison will then report the
    /// divergence).
    pub fn settle(&self) -> bool {
        let alive: Vec<NodeId> =
            self.root_nodes.iter().copied().filter(|n| !self.crashed.contains(n)).collect();
        let deadline = Instant::now() + self.settle;
        loop {
            let converged = alive.iter().all(|&n| {
                self.cluster
                    .snapshot(n, Duration::from_millis(500))
                    .map(|s| s.digest.members == self.expected)
                    .unwrap_or(false)
            });
            if converged {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Collect every alive node's final view into the substrate-neutral
    /// outcome shape (a projection of [`Engine::system_digest`]).
    pub fn outcome(&self) -> ScenarioOutcome {
        ScenarioOutcome::from(&self.system_digest(false))
    }

    /// Stop the reactor pool.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

impl Engine for LiveEngine {
    fn engine_now(&self) -> u64 {
        TickClock::new(self.start, self.tick).now()
    }

    /// Advance wall-clock time to tick `deadline`, applying every timeline
    /// action that falls due on the way (each at its scheduled instant).
    fn run_until(&mut self, deadline: u64) {
        while self.applied < self.timeline.len() && self.timeline[self.applied].0 <= deadline {
            let t = self.timeline[self.applied].0;
            let due = at_tick(self.start, self.tick, t);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            // Apply *every* action scheduled at tick t before sleeping
            // again.
            while self.applied < self.timeline.len() && self.timeline[self.applied].0 == t {
                let action = self.timeline[self.applied].1.take();
                self.applied += 1;
                if let Some(action) = action {
                    self.apply(action);
                }
            }
        }
        let end = at_tick(self.start, self.tick, deadline);
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
    }

    fn pending_disruptions(&self) -> usize {
        self.timeline.len() - self.applied
    }

    /// The live runtime tracks its repair/query latency surfaces
    /// unconditionally (the lock is touched only on rare completion
    /// events), so there is nothing to switch on.
    fn enable_obs_tracking(&mut self) {}

    fn obs_levels(&self) -> rgb_core::obs::LevelHistograms {
        self.cluster.level_latency()
    }

    /// Mailbox depths are not observable across worker threads; the live
    /// engine reports zero (drained-or-in-flight is the only statement a
    /// wall-clock world can make).
    fn queue_len(&self) -> usize {
        0
    }

    fn system_digest(&self, settled: bool) -> SystemDigest {
        let mut digests = Vec::new();
        for &id in self.cluster.layout.nodes.keys() {
            if self.crashed.contains(&id) {
                continue;
            }
            if let Some(snap) = self.cluster.snapshot(id, Duration::from_secs(1)) {
                digests.push(snap.digest);
            }
        }
        SystemDigest {
            now: self.engine_now().min(self.duration),
            nodes: digests,
            crashed: self.crashed.clone(),
            settled,
        }
    }

    fn counters(&self) -> EngineCounters {
        let stats = self.cluster.stats();
        EngineCounters {
            sent_total: stats.frames_sent,
            app_events: stats.app_events,
            lost: 0, // the live transport never models random loss
            partition_dropped: stats.partition_dropped,
        }
    }
}

impl LiveRuntime for LiveConfig {
    /// Deploy, replay the timeline to the scenario's nominal duration,
    /// settle, collect, shut down. The digest's `settled` flag carries the
    /// settle loop's verdict, so quiescence-gated oracles never judge a
    /// cluster that was still moving when the budget ran out.
    fn run_live(&self, scenario: &Scenario) -> Result<SystemDigest, ScenarioError> {
        let mut engine = LiveEngine::new(scenario, self)?;
        engine.run_until(scenario.duration);
        let settled = engine.settle();
        let mut digest = engine.system_digest(settled);
        // Report the nominal scenario time, not the (longer) wall-clock
        // tick estimate after settling.
        digest.now = scenario.duration;
        engine.shutdown();
        Ok(digest)
    }
}
