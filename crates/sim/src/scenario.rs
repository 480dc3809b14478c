//! Scenario descriptions: one declarative definition of a whole experiment
//! — topology, protocol/network configuration, fault schedule, mobility
//! schedule, workload and duration — that **every substrate can run**.
//!
//! A [`Scenario`] is pure data. One API runs it everywhere:
//! [`Scenario::run_on`] takes a [`Backend`] — the sequential simulator,
//! the sharded-parallel simulator, or a live runtime (the `rgb-net`
//! reactor, plugged in through [`crate::backend::LiveRuntime`]). Every
//! backend produces a [`ScenarioOutcome`], so the worlds can be compared
//! view-for-view — the differential tests do exactly that. The bench
//! binaries build their measurement runs from `Scenario` values too, which
//! keeps "what the experiment is" separate from "how it is executed and
//! measured".

use crate::backend::Backend;
use crate::fault::PlannedCrash;
use crate::mobility::{MobilityModel, TimedEvent};
use crate::network::NetConfig;
use crate::par::ParSimulation;
use crate::sim::Simulation;
use crate::workload::{churn, members_after, ChurnParams};
use rgb_core::prelude::*;
use rgb_core::topology::HierarchyLayout;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A structurally invalid [`Scenario`] definition, reported by
/// [`Scenario::validate`] before anything runs. Every variant names the
/// scenario so batch tooling (the explorer, the bench bins) can say *which*
/// generated definition was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `duration == 0`: the scenario could never process a scheduled event.
    ZeroDuration {
        /// Offending scenario name.
        scenario: String,
    },
    /// A scheduled event falls beyond the scenario duration. The simulator
    /// would silently leave it unprocessed while a wall-clock substrate
    /// would apply it — rejecting keeps the substrates equivalent.
    BeyondDuration {
        /// Offending scenario name.
        scenario: String,
        /// What kind of event ("crash", "MH event", "query", "partition").
        what: &'static str,
        /// Scheduled time.
        at: u64,
        /// Scenario duration.
        duration: u64,
    },
    /// An event references a node outside the topology.
    UnknownNode {
        /// Offending scenario name.
        scenario: String,
        /// What kind of event referenced it.
        what: &'static str,
        /// The unknown node.
        node: NodeId,
    },
    /// A mobile-host event targets an NE that is not an access proxy.
    NotAnAccessProxy {
        /// Offending scenario name.
        scenario: String,
        /// The non-AP node.
        node: NodeId,
    },
    /// The network configuration failed [`NetConfig::validate`].
    Net {
        /// Offending scenario name.
        scenario: String,
        /// The underlying description.
        reason: String,
    },
    /// A link partition is malformed (self-loop or empty window).
    InvalidPartition {
        /// Offending scenario name.
        scenario: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The execution backend could not deploy or run the scenario (e.g.
    /// the live reactor rejected its `LiveConfig` or failed to spawn its
    /// worker pool).
    Backend {
        /// Offending scenario name.
        scenario: String,
        /// The underlying description.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroDuration { scenario } => {
                write!(f, "scenario '{scenario}': zero duration")
            }
            ScenarioError::BeyondDuration { scenario, what, at, duration } => {
                write!(f, "scenario '{scenario}': {what} at {at} is beyond duration {duration}")
            }
            ScenarioError::UnknownNode { scenario, what, node } => {
                write!(f, "scenario '{scenario}': {what} references unknown node {node}")
            }
            ScenarioError::NotAnAccessProxy { scenario, node } => {
                write!(f, "scenario '{scenario}': MH event at non-AP node {node}")
            }
            ScenarioError::Net { scenario, reason } => {
                write!(f, "scenario '{scenario}': {reason}")
            }
            ScenarioError::InvalidPartition { scenario, reason } => {
                write!(f, "scenario '{scenario}': invalid partition: {reason}")
            }
            ScenarioError::Backend { scenario, reason } => {
                write!(f, "scenario '{scenario}': backend: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A membership query scheduled at a point in scenario time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedQuery {
    /// When the application issues the query (ticks).
    pub at: u64,
    /// The NE it is issued at.
    pub node: NodeId,
    /// What is asked.
    pub scope: QueryScope,
}

/// One entry of a scenario's schedule, as [`Scenario::plan`] lists them.
/// A partition window stays whole: the simulators schedule both of its
/// transitions from one entry, and the live runner expands it into two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedAction {
    /// A timed link partition.
    Partition(LinkPartition),
    /// An NE crash.
    Crash(PlannedCrash),
    /// A mobile-host event.
    Mh(TimedEvent),
    /// A membership query.
    Query(TimedQuery),
}

/// A complete, substrate-independent experiment definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (reports, logs).
    pub name: String,
    /// Hierarchy height (number of ring levels).
    pub height: usize,
    /// Nodes per logical ring.
    pub ring_size: usize,
    /// Protocol configuration every NE runs.
    pub cfg: ProtocolConfig,
    /// Network model (latency bands and loss; the live runtime transports
    /// frames over real channels and ignores the latency bands).
    pub net: NetConfig,
    /// Seed for every derived random stream.
    pub seed: u64,
    /// Scenario length in ticks.
    pub duration: u64,
    /// Planned NE crashes.
    pub crashes: Vec<PlannedCrash>,
    /// Timed link partitions between NE pairs (with heal times). The
    /// simulator drops frames between severed pairs; the live runtime
    /// applies the same windows to its router.
    pub partitions: Vec<LinkPartition>,
    /// Mobile-host events (joins, leaves, handoffs, failures), time-sorted
    /// by [`Scenario::plan`] before scheduling.
    pub mh_schedule: Vec<TimedEvent>,
    /// Scheduled membership queries.
    pub queries: Vec<TimedQuery>,
    /// Per-node retention cap for application deliveries (see
    /// [`Simulation::set_delivered_cap`]); `None` keeps every event. Long
    /// reliability runs set this so multi-hour simulations don't hold
    /// every [`AppEvent`] forever.
    pub delivered_cap: Option<usize>,
}

impl Scenario {
    /// A scenario over a full `(height, ring_size)` hierarchy with default
    /// protocol and network configuration and no scheduled events.
    pub fn new(name: impl Into<String>, height: usize, ring_size: usize) -> Self {
        Scenario {
            name: name.into(),
            height,
            ring_size,
            cfg: ProtocolConfig::default(),
            net: NetConfig::default(),
            seed: 1,
            duration: 10_000,
            crashes: Vec::new(),
            partitions: Vec::new(),
            mh_schedule: Vec::new(),
            queries: Vec::new(),
            delivered_cap: None,
        }
    }

    /// Replace the protocol configuration.
    pub fn with_cfg(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replace the network configuration.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Set the seed of every derived random stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scenario duration (ticks).
    pub fn with_duration(mut self, duration: u64) -> Self {
        self.duration = duration;
        self
    }

    /// Cap the per-node application-delivery log (see
    /// [`Simulation::set_delivered_cap`]). Metric counters are unaffected;
    /// overflow is counted in `metrics.app_events_dropped`.
    pub fn with_delivered_cap(mut self, cap: usize) -> Self {
        self.delivered_cap = Some(cap);
        self
    }

    /// Schedule one mobile-host event at `at` against access proxy `ap`.
    pub fn mh(mut self, at: u64, ap: NodeId, event: MhEvent) -> Self {
        self.mh_schedule.push((at, ap, event));
        self
    }

    /// Schedule a member join (convenience over [`Scenario::mh`]).
    pub fn join(self, at: u64, ap: NodeId, guid: Guid, luid: Luid) -> Self {
        self.mh(at, ap, MhEvent::Join { guid, luid })
    }

    /// Schedule an NE crash.
    pub fn crash(mut self, at: u64, node: NodeId) -> Self {
        self.crashes.push(PlannedCrash { at, node });
        self
    }

    /// Append a pre-computed crash plan (e.g. from
    /// [`crate::fault::bernoulli_crashes`]).
    pub fn with_crashes(mut self, crashes: Vec<PlannedCrash>) -> Self {
        self.crashes.extend(crashes);
        self
    }

    /// Schedule a timed link partition: frames between `a` and `b` (either
    /// direction) are dropped from `at` until `heal_at`.
    pub fn partition(mut self, at: u64, heal_at: u64, a: NodeId, b: NodeId) -> Self {
        self.partitions.push(LinkPartition { at, heal_at, a, b });
        self
    }

    /// Schedule a membership query.
    pub fn query(mut self, at: u64, node: NodeId, scope: QueryScope) -> Self {
        self.queries.push(TimedQuery { at, node, scope });
        self
    }

    /// Append a Poisson churn workload generated over this scenario's
    /// topology, seed and duration (see [`crate::workload::churn`]).
    pub fn with_churn(mut self, params: ChurnParams) -> Self {
        let params = ChurnParams { duration: params.duration.min(self.duration), ..params };
        let events = churn(&self.layout(), params, self.seed);
        self.mh_schedule.extend(events);
        self
    }

    /// Append a mobility workload: `population` MHs roaming the AP cells
    /// with exponential dwell times of mean `mean_dwell` ticks, with GUIDs
    /// `0..population`.
    pub fn with_mobility(self, population: usize, mean_dwell: f64) -> Self {
        self.with_mobility_base(population, mean_dwell, 0)
    }

    /// [`Scenario::with_mobility`] with GUIDs starting at `guid_base` —
    /// use a disjoint base when composing mobility with other workloads
    /// (churn numbers its members from 0), so no GUID ends up with two
    /// independent lifecycles in one schedule.
    pub fn with_mobility_base(
        mut self,
        population: usize,
        mean_dwell: f64,
        guid_base: u64,
    ) -> Self {
        let layout = self.layout();
        let events =
            MobilityModel::with_guid_base(&layout, population, mean_dwell, self.seed, guid_base)
                .generate(self.duration);
        self.mh_schedule.extend(events);
        self
    }

    /// Build the hierarchy this scenario runs on.
    pub fn layout(&self) -> HierarchyLayout {
        HierarchySpec::new(self.height, self.ring_size)
            .build(GroupId(1))
            .expect("valid hierarchy spec")
    }

    /// Validate the definition: the network configuration must pass
    /// [`NetConfig::validate`], every referenced NE must exist in the
    /// topology, the duration must be positive, every scheduled event must
    /// fall within the duration (the simulator would silently leave later
    /// events unprocessed while a wall-clock substrate would apply them —
    /// rejecting them keeps the substrates equivalent), and every link
    /// partition must be a non-empty window over two distinct known nodes.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.validate_with(&self.layout())
    }

    /// [`Scenario::validate`] against an already-built layout (avoids
    /// rebuilding the hierarchy when the caller holds one).
    fn validate_with(&self, layout: &HierarchyLayout) -> Result<(), ScenarioError> {
        let name = || self.name.clone();
        if let Err(reason) = self.net.validate() {
            return Err(ScenarioError::Net { scenario: name(), reason });
        }
        if self.duration == 0 {
            return Err(ScenarioError::ZeroDuration { scenario: name() });
        }
        let beyond = |what: &'static str, at: u64| ScenarioError::BeyondDuration {
            scenario: self.name.clone(),
            what,
            at,
            duration: self.duration,
        };
        for c in &self.crashes {
            if layout.placement(c.node).is_err() {
                return Err(ScenarioError::UnknownNode {
                    scenario: name(),
                    what: "crash",
                    node: c.node,
                });
            }
            if c.at > self.duration {
                return Err(beyond("crash", c.at));
            }
        }
        for p in &self.partitions {
            for node in [p.a, p.b] {
                if layout.placement(node).is_err() {
                    return Err(ScenarioError::UnknownNode {
                        scenario: name(),
                        what: "partition",
                        node,
                    });
                }
            }
            if p.a == p.b {
                return Err(ScenarioError::InvalidPartition {
                    scenario: name(),
                    reason: format!("self-loop at {}", p.a),
                });
            }
            if p.heal_at <= p.at {
                return Err(ScenarioError::InvalidPartition {
                    scenario: name(),
                    reason: format!("empty window [{}, {})", p.at, p.heal_at),
                });
            }
            if p.heal_at > self.duration {
                return Err(beyond("partition", p.heal_at));
            }
        }
        let aps: BTreeSet<NodeId> = layout.aps().into_iter().collect();
        for (at, ap, _) in &self.mh_schedule {
            if !aps.contains(ap) {
                return Err(ScenarioError::NotAnAccessProxy { scenario: name(), node: *ap });
            }
            if *at > self.duration {
                return Err(beyond("MH event", *at));
            }
        }
        for q in &self.queries {
            if layout.placement(q.node).is_err() {
                return Err(ScenarioError::UnknownNode {
                    scenario: name(),
                    what: "query",
                    node: q.node,
                });
            }
            if q.at > self.duration {
                return Err(beyond("query", q.at));
            }
        }
        Ok(())
    }

    /// Total number of scheduled events (crashes, partitions, MH events,
    /// queries) — the size the trace shrinker minimises.
    pub fn scheduled_events(&self) -> usize {
        self.crashes.len() + self.partitions.len() + self.mh_schedule.len() + self.queries.len()
    }

    /// The set of members the schedule leaves in the group at the end
    /// (joins/handoffs/resumes minus leaves/failures/disconnects), for
    /// oracle checks and settle loops.
    pub fn expected_guids(&self) -> BTreeSet<Guid> {
        members_after(self.plan().filter_map(|action| match action {
            PlannedAction::Mh(event) => Some(event),
            _ => None,
        }))
    }

    /// The whole schedule in the one canonical order: partition windows,
    /// then crashes, then MH events sorted by `(time, AP)` (a stable sort,
    /// so same-key events keep their insertion order), then queries.
    ///
    /// Every backend reads its schedule from here, which gives them
    /// identical same-tick semantics: the simulators prime their queues in
    /// this order (so scheduled events carry identical deterministic keys
    /// in the sequential and the parallel engine), and the live runner
    /// replays it as a timeline stably sorted by tick, so a partition
    /// starting at the same tick as a crash severs the link first in every
    /// world.
    pub fn plan(&self) -> impl Iterator<Item = PlannedAction> + '_ {
        let mut mh = self.mh_schedule.clone();
        mh.sort_by_key(|&(t, ap, _)| (t, ap));
        (self.partitions.iter().map(|&p| PlannedAction::Partition(p)))
            .chain(self.crashes.iter().map(|&c| PlannedAction::Crash(c)))
            .chain(mh.into_iter().map(PlannedAction::Mh))
            .chain(self.queries.iter().map(|&q| PlannedAction::Query(q)))
    }

    /// Build a booted simulation with the entire schedule primed.
    ///
    /// Same-tick ties resolve in the order of [`Scenario::plan`].
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::validate`] fails; use
    /// [`Scenario::try_build_sim`] to handle the [`ScenarioError`] instead.
    pub fn build_sim(&self) -> Simulation {
        self.try_build_sim().unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Fallible [`Scenario::build_sim`]: validates the definition first and
    /// reports what is wrong as a typed [`ScenarioError`].
    pub fn try_build_sim(&self) -> Result<Simulation, ScenarioError> {
        let layout = self.layout();
        self.validate_with(&layout)?;
        let mut sim = Simulation::new(layout, &self.cfg, self.net.clone(), self.seed);
        self.prime(&mut sim);
        Ok(sim)
    }

    /// Boot `sim` and prime the entire schedule, in the order of
    /// [`Scenario::plan`]. Every simulator engine builds through this
    /// single function — that is what *guarantees* scheduled events carry
    /// identical deterministic keys in the sequential and the parallel
    /// engine (their schedule counters advance through the same calls in
    /// the same order), rather than two builders promising to stay in
    /// sync.
    fn prime<E: ScheduleSink>(&self, sim: &mut E) {
        if let Some(cap) = self.delivered_cap {
            sim.set_delivered_cap(cap);
        }
        sim.boot_all();
        for action in self.plan() {
            match action {
                PlannedAction::Partition(p) => sim.schedule_partition(p),
                PlannedAction::Crash(c) => sim.crash_at(c.at, c.node),
                PlannedAction::Mh((at, ap, event)) => sim.schedule_mh(at, ap, event),
                PlannedAction::Query(q) => sim.schedule_query(q.at, q.node, q.scope),
            }
        }
    }

    /// Run the scenario on `backend` for its full duration and collect
    /// the outcome — the one run API every execution backend shares. The
    /// two simulator backends produce identical outcomes (the parallel
    /// engine is trace-equivalent to the sequential one, see
    /// [`crate::par`]); a [`Backend::Live`] run agrees on the *converged
    /// membership* but not on timing, which is the property the
    /// differential tests compare.
    pub fn run_on(&self, backend: Backend<'_>) -> Result<ScenarioOutcome, ScenarioError> {
        self.run_on_digest(backend).map(|(outcome, _)| outcome)
    }

    /// [`Scenario::run_on`] that also collects the final [`SystemDigest`]
    /// of every alive node, so invariant oracles can judge the run with
    /// the same code on every backend. The digest's `settled` flag is
    /// `true` when the run quiesced: for the simulators, when no scheduled
    /// disruption is still queued at the deadline; for a live runtime,
    /// when the cluster converged within its settle budget.
    pub fn run_on_digest(
        &self,
        backend: Backend<'_>,
    ) -> Result<(ScenarioOutcome, SystemDigest), ScenarioError> {
        let digest = match backend {
            Backend::Sim => {
                let mut sim = self.try_build_sim()?;
                sim.run_until(self.duration);
                sim.system_digest(sim.pending_disruptions() == 0)
            }
            Backend::Par(shards) => {
                let mut sim = self.try_build_par(shards)?;
                sim.run_until(self.duration);
                sim.system_digest(sim.pending_disruptions() == 0)
            }
            Backend::Live(runtime) => runtime.run_live(self)?,
        };
        Ok((ScenarioOutcome::from(&digest), digest))
    }

    /// Build a booted [`ParSimulation`] with the entire schedule primed —
    /// the sharded twin of [`Scenario::try_build_sim`], primed through
    /// the same canonical sequence (so scheduled events carry identical
    /// keys in both engines by construction).
    pub fn try_build_par(&self, shards: usize) -> Result<ParSimulation, ScenarioError> {
        let layout = self.layout();
        self.validate_with(&layout)?;
        let mut sim = ParSimulation::new(layout, &self.cfg, self.net.clone(), self.seed, shards);
        self.prime(&mut sim);
        Ok(sim)
    }

    /// Named regression scenario: the leader of a bottom ring crashes while
    /// a mobile-host handoff into that ring is still in flight — the
    /// schedule shape a randomized fault explorer hits first, because it
    /// overlaps the two repair paths (token-retransmission exclusion of the
    /// dead leader, §5.2) with a membership change that must survive the
    /// repair (the handoff record is queued but not yet agreed when the
    /// leader dies).
    ///
    /// Both substrates must converge to the same post-repair views: GUID 1
    /// handed off to the second proxy, GUID 2 untouched, the crashed leader
    /// excluded.
    pub fn leader_crash_during_handoff(seed: u64) -> Scenario {
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 5;
        cfg.token_retransmit_timeout = 20;
        cfg.token_retransmit_limit = 2;
        cfg.token_lost_timeout = 150;
        cfg.heartbeat_interval = 20;
        cfg.parent_timeout = 100;
        cfg.child_timeout = 100;
        let sc = Scenario::new("leader crash during in-flight handoff", 2, 3)
            .with_cfg(cfg)
            .with_net(NetConfig::unit())
            .with_seed(seed)
            .with_duration(3_000);
        let aps = sc.layout().aps();
        // aps[0..3] form the first bottom ring; its leader is aps[0] (ring
        // leadership is the minimal roster id). GUID 1 joins at the leader,
        // then hands off to the neighbour proxy; the leader crashes a few
        // ticks after the handoff crosses the wireless hop, while the
        // handoff record is still queued and unagreed.
        sc.join(0, aps[0], Guid(1), Luid(1))
            .join(0, aps[2], Guid(2), Luid(1))
            .mh(
                600,
                aps[1],
                MhEvent::HandoffIn { guid: Guid(1), luid: Luid(2), from: Some(aps[0]) },
            )
            .crash(604, aps[0])
    }
}

/// What [`Scenario::prime`] needs from an engine: the scheduling surface,
/// with identical semantics in every implementation. Keeping the trait
/// crate-private keeps the canonical priming order the *only* way a
/// scenario reaches an engine.
trait ScheduleSink {
    fn set_delivered_cap(&mut self, cap: usize);
    fn boot_all(&mut self);
    fn schedule_partition(&mut self, p: LinkPartition);
    fn crash_at(&mut self, at: u64, node: NodeId);
    fn schedule_mh(&mut self, at: u64, ap: NodeId, event: MhEvent);
    fn schedule_query(&mut self, at: u64, node: NodeId, scope: QueryScope);
}

impl ScheduleSink for Simulation {
    fn set_delivered_cap(&mut self, cap: usize) {
        Simulation::set_delivered_cap(self, cap);
    }
    fn boot_all(&mut self) {
        Simulation::boot_all(self);
    }
    fn schedule_partition(&mut self, p: LinkPartition) {
        Simulation::schedule_partition(self, p);
    }
    fn crash_at(&mut self, at: u64, node: NodeId) {
        Simulation::crash_at(self, at, node);
    }
    fn schedule_mh(&mut self, at: u64, ap: NodeId, event: MhEvent) {
        Simulation::schedule_mh(self, at, ap, event);
    }
    fn schedule_query(&mut self, at: u64, node: NodeId, scope: QueryScope) {
        Simulation::schedule_query(self, at, node, scope);
    }
}

impl ScheduleSink for ParSimulation {
    fn set_delivered_cap(&mut self, cap: usize) {
        ParSimulation::set_delivered_cap(self, cap);
    }
    fn boot_all(&mut self) {
        ParSimulation::boot_all(self);
    }
    fn schedule_partition(&mut self, p: LinkPartition) {
        ParSimulation::schedule_partition(self, p);
    }
    fn crash_at(&mut self, at: u64, node: NodeId) {
        ParSimulation::crash_at(self, at, node);
    }
    fn schedule_mh(&mut self, at: u64, ap: NodeId, event: MhEvent) {
        ParSimulation::schedule_mh(self, at, ap, event);
    }
    fn schedule_query(&mut self, at: u64, node: NodeId, scope: QueryScope) {
        ParSimulation::schedule_query(self, at, node, scope);
    }
}

/// The substrate-independent result of running a scenario: every alive
/// node's final membership view, keyed by node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Operational ring membership (by GUID) at each alive node.
    pub views: BTreeMap<NodeId, BTreeSet<Guid>>,
    /// NEs that were crashed during the run.
    pub crashed: BTreeSet<NodeId>,
}

/// The outcome is a projection of the digest: [`StateDigest::members`]
/// already holds each alive node's operational GUIDs.
impl From<&SystemDigest> for ScenarioOutcome {
    fn from(digest: &SystemDigest) -> Self {
        ScenarioOutcome {
            views: digest.nodes.iter().map(|d| (d.node, d.members.clone())).collect(),
            crashed: digest.crashed.clone(),
        }
    }
}

impl ScenarioOutcome {
    /// Collect the outcome of a finished simulation run.
    pub fn from_sim(sim: &Simulation) -> Self {
        ScenarioOutcome::from(&sim.system_digest(false))
    }

    /// Collect the outcome of a finished parallel run.
    pub fn from_par(sim: &ParSimulation) -> Self {
        ScenarioOutcome::from(&sim.system_digest(false))
    }

    /// If every listed (alive) node holds the same view, return it.
    /// Nodes missing from the outcome (crashed) are skipped.
    pub fn agreed_view(&self, nodes: &[NodeId]) -> Option<BTreeSet<Guid>> {
        let mut agreed: Option<&BTreeSet<Guid>> = None;
        for node in nodes {
            let Some(view) = self.views.get(node) else { continue };
            match agreed {
                None => agreed = Some(view),
                Some(prev) if prev == view => {}
                Some(_) => return None,
            }
        }
        agreed.cloned()
    }

    /// Human-readable diff of the views held at `nodes` between two
    /// outcomes (e.g. the two substrates), or `None` when they all match.
    pub fn diff(&self, other: &ScenarioOutcome, nodes: &[NodeId]) -> Option<String> {
        let mut report = String::new();
        for node in nodes {
            let a = self.views.get(node);
            let b = other.views.get(node);
            if a != b {
                report.push_str(&format!("node {node}: {a:?} vs {b:?}\n"));
            }
        }
        (!report.is_empty()).then_some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_joins_to_full_agreement() {
        let sc = Scenario::new("three joins", 2, 3).with_duration(5_000);
        let layout = sc.layout();
        let aps = layout.aps();
        let sc = sc.join(0, aps[0], Guid(1), Luid(1)).join(5, aps[4], Guid(2), Luid(1)).join(
            9,
            aps[8],
            Guid(3),
            Luid(1),
        );
        let outcome = sc.run_on(Backend::Sim).expect("valid scenario");
        let expected = sc.expected_guids();
        assert_eq!(expected.len(), 3);
        let root_nodes = layout.root_ring().nodes.clone();
        let agreed = outcome.agreed_view(&root_nodes).expect("root ring agrees");
        assert_eq!(agreed, expected);
    }

    #[test]
    fn same_scenario_same_outcome() {
        let build = || {
            let sc = Scenario::new("churn", 2, 3).with_duration(4_000).with_seed(7);
            sc.with_churn(ChurnParams {
                initial_members: 10,
                mean_join_interval: 0.0,
                mean_lifetime: 500.0,
                failure_fraction: 0.3,
                duration: 4_000,
            })
        };
        let run = |sc: Scenario| sc.run_on(Backend::Sim).expect("valid scenario");
        assert_eq!(run(build()), run(build()));
    }

    #[test]
    fn validation_rejects_bad_definitions() {
        // MH event at a non-AP node (the root is not an access proxy).
        let sc = Scenario::new("bad ap", 2, 3).join(0, NodeId(0), Guid(1), Luid(1));
        assert!(matches!(
            sc.validate().unwrap_err(),
            ScenarioError::NotAnAccessProxy { node: NodeId(0), .. }
        ));
        // Crash of a node outside the topology.
        let sc = Scenario::new("bad crash", 2, 3).crash(0, NodeId(9_999));
        let err = sc.validate().unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownNode { what: "crash", .. }));
        assert!(err.to_string().contains("unknown node"), "display stays grep-able: {err}");
        // Inverted latency band propagates out of NetConfig::validate.
        let net = NetConfig {
            wide_area: crate::network::LatencyBand { min: 10, max: 2 },
            ..NetConfig::default()
        };
        let sc = Scenario::new("bad net", 2, 3).with_net(net);
        let err = sc.validate().unwrap_err();
        assert!(matches!(err, ScenarioError::Net { .. }));
        assert!(err.to_string().contains("wide_area"));
        // Zero duration.
        assert!(matches!(
            Scenario::new("no time", 2, 3).with_duration(0).validate().unwrap_err(),
            ScenarioError::ZeroDuration { .. }
        ));
        // Events beyond the duration would silently stay unprocessed in
        // the simulator but fire on a wall-clock substrate: config error.
        let sc = Scenario::new("late", 1, 3).with_duration(100);
        let ap = sc.layout().aps()[0];
        let sc = sc.join(200, ap, Guid(1), Luid(1));
        assert!(matches!(
            sc.validate().unwrap_err(),
            ScenarioError::BeyondDuration { what: "MH event", at: 200, duration: 100, .. }
        ));
    }

    #[test]
    fn validation_rejects_bad_partitions() {
        let base = || Scenario::new("p", 1, 3).with_duration(1_000);
        let nodes = base().layout().root_ring().nodes.clone();
        // Well-formed partition passes.
        assert!(base().partition(10, 20, nodes[0], nodes[1]).validate().is_ok());
        // Self-loop.
        assert!(matches!(
            base().partition(10, 20, nodes[0], nodes[0]).validate().unwrap_err(),
            ScenarioError::InvalidPartition { .. }
        ));
        // Empty (or inverted) window.
        assert!(matches!(
            base().partition(20, 20, nodes[0], nodes[1]).validate().unwrap_err(),
            ScenarioError::InvalidPartition { .. }
        ));
        // Unknown endpoint.
        assert!(matches!(
            base().partition(10, 20, nodes[0], NodeId(9_999)).validate().unwrap_err(),
            ScenarioError::UnknownNode { what: "partition", .. }
        ));
        // Heal beyond duration.
        assert!(matches!(
            base().partition(10, 2_000, nodes[0], nodes[1]).validate().unwrap_err(),
            ScenarioError::BeyondDuration { what: "partition", .. }
        ));
    }

    #[test]
    fn try_build_sim_surfaces_typed_errors() {
        let sc = Scenario::new("no time", 2, 3).with_duration(0);
        assert_eq!(
            sc.try_build_sim().err(),
            Some(ScenarioError::ZeroDuration { scenario: "no time".into() })
        );
        let sc = Scenario::new("late crash", 1, 3).with_duration(100).crash(500, NodeId(0));
        assert!(matches!(
            sc.try_build_sim().err(),
            Some(ScenarioError::BeyondDuration { what: "crash", at: 500, duration: 100, .. })
        ));
        assert!(Scenario::new("fine", 1, 3).try_build_sim().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn build_sim_panics_on_invalid_definition() {
        let _ = Scenario::new("no time", 2, 3).with_duration(0).build_sim();
    }

    #[test]
    fn scheduled_events_counts_every_dimension() {
        let sc = Scenario::new("count", 1, 3).with_duration(1_000);
        let nodes = sc.layout().root_ring().nodes.clone();
        let aps = sc.layout().aps();
        let sc = sc
            .join(0, aps[0], Guid(1), Luid(1))
            .crash(10, nodes[1])
            .partition(5, 50, nodes[0], nodes[2])
            .query(100, nodes[0], QueryScope::Global);
        assert_eq!(sc.scheduled_events(), 4);
    }

    #[test]
    fn plan_lists_the_canonical_order() {
        let sc = Scenario::new("order", 1, 3).with_duration(1_000);
        let nodes = sc.layout().root_ring().nodes.clone();
        let q = TimedQuery { at: 10, node: nodes[0], scope: QueryScope::Global };
        let join = |g: u64| MhEvent::Join { guid: Guid(g), luid: Luid(1) };
        // Inserted out of order, with a partition, a crash, a join and a
        // query all at tick 10.
        let sc = sc
            .query(q.at, q.node, q.scope)
            .mh(10, nodes[2], join(2))
            .mh(5, nodes[1], join(1))
            .mh(10, nodes[0], join(3))
            .crash(10, nodes[2])
            .partition(10, 20, nodes[0], nodes[1]);
        let window = LinkPartition { at: 10, heal_at: 20, a: nodes[0], b: nodes[1] };
        assert_eq!(
            sc.plan().collect::<Vec<_>>(),
            [
                PlannedAction::Partition(window),
                PlannedAction::Crash(PlannedCrash { at: 10, node: nodes[2] }),
                PlannedAction::Mh((5, nodes[1], join(1))),
                PlannedAction::Mh((10, nodes[0], join(3))),
                PlannedAction::Mh((10, nodes[2], join(2))),
                PlannedAction::Query(q),
            ]
        );
    }

    #[test]
    fn expected_guids_tracks_departures() {
        let sc = Scenario::new("departures", 1, 3);
        let aps = sc.layout().aps();
        let sc = sc.join(0, aps[0], Guid(1), Luid(1)).join(0, aps[1], Guid(2), Luid(1)).mh(
            50,
            aps[0],
            MhEvent::Leave { guid: Guid(1) },
        );
        assert_eq!(sc.expected_guids(), BTreeSet::from([Guid(2)]));
    }

    #[test]
    fn crashes_limit_the_outcome_views() {
        let sc = Scenario::new("crash", 1, 4).with_duration(2_000);
        let aps = sc.layout().aps();
        let sc = sc.join(0, aps[0], Guid(1), Luid(1)).crash(1_000, aps[3]);
        let outcome = sc.run_on(Backend::Sim).expect("valid scenario");
        assert!(outcome.crashed.contains(&aps[3]));
        assert!(!outcome.views.contains_key(&aps[3]), "crashed node reports no view");
        assert_eq!(outcome.views.len(), 3);
    }

    #[test]
    fn run_on_unifies_backends_and_surfaces_errors() {
        let sc = Scenario::new("unified", 2, 3).with_duration(2_000);
        let aps = sc.layout().aps();
        let sc = sc.join(0, aps[0], Guid(1), Luid(1)).join(5, aps[4], Guid(2), Luid(1));
        let (seq, seq_digest) = sc.run_on_digest(Backend::Sim).expect("valid scenario");
        let (par, par_digest) = sc.run_on_digest(Backend::Par(3)).expect("valid scenario");
        assert_eq!(seq, par, "Sim and Par backends are trace-equivalent");
        assert_eq!(seq_digest, par_digest);
        assert!(seq_digest.settled, "no disruption left queued at the deadline");
        let err = Scenario::new("no time", 2, 3)
            .with_duration(0)
            .run_on(Backend::Sim)
            .expect_err("zero duration is rejected");
        assert!(matches!(err, ScenarioError::ZeroDuration { .. }));
        let backend_err =
            ScenarioError::Backend { scenario: "x".into(), reason: "no workers".into() };
        assert!(backend_err.to_string().contains("backend: no workers"));
    }

    #[test]
    fn workload_generators_feed_the_schedule() {
        let sc = Scenario::new("mobility", 2, 4).with_duration(2_000).with_mobility(10, 50.0);
        assert!(
            sc.mh_schedule.iter().any(|(_, _, e)| matches!(e, MhEvent::HandoffIn { .. })),
            "mobility produced no handoffs"
        );
        assert!(sc.validate().is_ok());
    }
}
