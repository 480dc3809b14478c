//! The sequential discrete-event engine: the whole-world case of the
//! world core.
//!
//! [`Simulation`] holds every ring of the layout in one `World` (the
//! crate-private `world` module, whose docs describe the dispatch loop, the
//! hot-path layout and why a run does not depend on execution order) and
//! drives it with its own public clock and metrics. What this file adds is
//! the public API around that core — construction, the scheduling surface
//! (whose events land in the world's own queue, ids outside the layout
//! included), the run loops, accessors — and [`MemoryStats`].
//!
//! The sharded conservative-parallel engine ([`crate::par`]) runs the same
//! core once per shard and reproduces this engine's [`SystemDigest`] stream
//! byte for byte.

use crate::metrics::Metrics;
use crate::network::{LinkClassMatrix, NetConfig, NetworkModel};
use crate::world::{Run, Schedule, World};
use bytes::Bytes;
use rgb_core::node::NodeState;
use rgb_core::obs::{NullSink, ObsRecord, TraceSink};
use rgb_core::prelude::*;
use rgb_core::topology::HierarchyLayout;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Simulation {
    /// The hierarchy under simulation.
    pub layout: HierarchyLayout,
    /// Current simulated time (ticks).
    pub now: u64,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Every ring of `layout`.
    pub(crate) world: World,
    /// Scheduled-event keys and the wireless MH→AP hop.
    schedule: Schedule,
}

impl Simulation {
    /// Build a simulation over `layout` with every node running `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `net` fails [`NetConfig::validate`] (e.g. an inverted
    /// latency band).
    pub fn new(layout: HierarchyLayout, cfg: &ProtocolConfig, net: NetConfig, seed: u64) -> Self {
        let indexer = Arc::new(layout.indexer());
        let classes = Arc::new(LinkClassMatrix::new(&layout, &indexer));
        let net = NetworkModel::new(net);
        let schedule = Schedule::new(seed, layout.gid, net.clone());
        let world = World::new(&layout, cfg, net, seed, indexer, classes, None);
        Simulation { layout, now: 0, metrics: Metrics::default(), world, schedule }
    }

    /// The world on this simulation's clock and metrics.
    pub(crate) fn run(&mut self) -> Run<'_> {
        self.world.run(&mut self.now, &mut self.metrics)
    }

    /// Enable observability: latency tracking into
    /// [`Metrics::levels`](crate::metrics::Metrics) plus trace records
    /// into `sink`. Tracking never touches node inputs, RNG streams or
    /// event keys, so enabling it leaves [`Simulation::system_digest`]
    /// streams byte-identical.
    pub fn enable_obs(&mut self, sink: Box<dyn TraceSink>) {
        self.world.obs.enable(sink);
    }

    /// Enable latency tracking only (no trace retention) — the explorer's
    /// mode: per-level histograms feed coverage features at no trace cost.
    pub fn enable_obs_tracking(&mut self) {
        self.enable_obs(Box::new(NullSink));
    }

    /// The flight recorder's retained records, oldest first (empty when
    /// obs is disabled or tracking-only).
    pub fn trace_snapshot(&self) -> Vec<ObsRecord> {
        self.world.obs.trace_snapshot()
    }

    /// Trace records evicted by the sink's capacity bound.
    pub fn trace_dropped(&self) -> u64 {
        self.world.obs.trace_dropped()
    }

    /// Join intervals discarded because the first-seen table hit its cap
    /// (accounting trim only; protocol behaviour is unaffected).
    pub fn obs_first_seen_overflow(&self) -> u64 {
        self.world.obs.first_seen_overflow()
    }

    /// Convenience constructor: full hierarchy of (h, r).
    pub fn full(h: usize, r: usize, cfg: &ProtocolConfig, net: NetConfig, seed: u64) -> Self {
        let layout = HierarchySpec::new(h, r).build(GroupId(1)).expect("valid spec");
        Self::new(layout, cfg, net, seed)
    }

    /// Boot every node at time zero.
    pub fn boot_all(&mut self) {
        self.run().boot_all();
    }

    /// Deliver an input to a node right now and process the outputs through
    /// the shared [`apply_outputs`] driver (sends are wire-encoded).
    /// Unknown nodes ignore the input.
    pub fn inject(&mut self, node: NodeId, input: Input) {
        if let Some(slot) = self.world.slot_of(node) {
            self.run().inject(slot, input);
        }
    }

    /// Schedule a mobile-host event to reach `ap` after `delay` ticks plus
    /// the wireless hop. The hop (loss, latency, per-MH FIFO floor) is
    /// resolved immediately from the MH's private stream, so the send and
    /// any loss are counted now, and only the resolved delivery is queued.
    pub fn schedule_mh(&mut self, delay: u64, ap: NodeId, event: MhEvent) {
        let send_at = self.now.saturating_add(delay);
        if let Some(event) = self.schedule.mh(send_at, ap, event, &mut self.metrics) {
            self.world.enqueue(self.now, event);
        }
    }

    /// Schedule a node crash.
    pub fn crash_at(&mut self, delay: u64, node: NodeId) {
        let event = self.schedule.crash(self.now.saturating_add(delay), node);
        self.world.enqueue(self.now, event);
    }

    /// Schedule a membership query issued at `node`.
    pub fn schedule_query(&mut self, delay: u64, node: NodeId, scope: QueryScope) {
        let event = self.schedule.query(self.now.saturating_add(delay), node, scope);
        self.world.enqueue(self.now, event);
    }

    /// Schedule a timed link partition (see [`LinkPartition`]): the pair is
    /// severed at `now + p.at` and heals at `now + p.heal_at`. Frames
    /// already in flight when the partition starts still arrive.
    pub fn schedule_partition(&mut self, p: LinkPartition) {
        for event in self.schedule.partition(self.now, p) {
            self.world.enqueue(self.now, event);
        }
    }

    /// Put `frame` on the simulated wire from `from` to `to`, exactly as a
    /// node's own send would travel (counted under `label`, subject to
    /// partitions, loss, duplication and reordering, decoded on arrival) —
    /// how tests put garbage and foreign-group frames in front of the
    /// receive path.
    pub fn send_frame(&mut self, from: NodeId, to: NodeId, label: MsgLabel, frame: Bytes) {
        self.run().send_frame(from, to, label, frame);
    }

    /// Whether the (unordered) pair `a`–`b` is currently severed.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.world.is_partitioned(a, b)
    }

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.run().step()
    }

    /// Run until no events remain or `budget` events are processed.
    /// Returns true on full quiescence. (Only meaningful under the
    /// on-demand token policy; continuous rings never quiesce.)
    pub fn run_until_quiet(&mut self, budget: usize) -> bool {
        for _ in 0..budget {
            if !self.step() {
                return true;
            }
        }
        self.world.events.is_empty()
    }

    /// Run until simulated time reaches `deadline` (events beyond it stay
    /// queued).
    pub fn run_until(&mut self, deadline: u64) {
        self.run().run_until(deadline);
    }

    /// Run until `deadline`, handing the simulation to `observe` every
    /// `every` ticks of simulated time (and once at the deadline). This is
    /// the continuous-oracle hook: invariant checkers inspect the running
    /// system *between* events instead of only at quiescence. The observer
    /// returns `false` to stop early; the function then returns the stop
    /// time, and `None` when the deadline was reached with every
    /// observation passing.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_observed<F: FnMut(&Simulation) -> bool>(
        &mut self,
        deadline: u64,
        every: u64,
        observe: F,
    ) -> Option<u64> {
        // One observation loop for every engine: the [`Engine`] default.
        crate::engine::Engine::run_observed(self, deadline, every, observe)
    }

    /// Scheduled disruptions (mobile-host traffic, crashes, queries,
    /// partition transitions) still queued — the explorer's quiescence gate
    /// only opens when this reaches zero. O(1).
    pub fn pending_disruptions(&self) -> usize {
        self.world.events.disruptions()
    }

    /// Oracle-facing digest of the whole system: one [`StateDigest`] per
    /// alive node plus the crash set. `settled` is the caller's quiescence
    /// verdict (see [`Simulation::pending_disruptions`] and the explorer's
    /// stability detector) and is recorded verbatim for gate-aware oracles.
    pub fn system_digest(&self, settled: bool) -> SystemDigest {
        let nodes = self.world.alive().map(|(_, node)| node.digest()).collect();
        SystemDigest { now: self.now, nodes, crashed: self.world.crashed_ids.clone(), settled }
    }

    /// Run until `pred` holds (checked after every event) or `deadline`
    /// passes; returns the time the predicate first held.
    pub fn run_until_pred<F: FnMut(&Simulation) -> bool>(
        &mut self,
        deadline: u64,
        mut pred: F,
    ) -> Option<u64> {
        if pred(self) {
            return Some(self.now);
        }
        while self.peek_at().is_some_and(|at| at <= deadline) {
            self.step();
            if pred(self) {
                return Some(self.now);
            }
        }
        None
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the layout; use [`Simulation::try_node`]
    /// when the id may be unknown (e.g. after churn).
    pub fn node(&self, id: NodeId) -> &NodeState {
        self.try_node(id).unwrap_or_else(|| panic!("unknown node {id}"))
    }

    /// Borrow a node, or `None` for ids outside the layout.
    pub fn try_node(&self, id: NodeId) -> Option<&NodeState> {
        self.world.slot_of(id).map(|slot| &self.world.nodes[slot])
    }

    /// Every node's protocol state, in id order.
    pub fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &NodeState)> {
        self.world.nodes.iter().map(|node| (node.id, node))
    }

    /// Whether `guid` is operational in `node`'s ring membership. Unknown
    /// nodes are never members (`false`), they do not panic.
    pub fn member_at(&self, node: NodeId, guid: Guid) -> bool {
        self.try_node(node).is_some_and(|n| n.ring_members.contains_operational(guid))
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.world.is_crashed(node)
    }

    /// Crashed NEs (ids outside the layout included, matching what was
    /// scheduled).
    pub fn crashed_set(&self) -> &BTreeSet<NodeId> {
        &self.world.crashed_ids
    }

    /// Events delivered at a node (empty for unknown nodes).
    pub fn events_at(&self, node: NodeId) -> &[(u64, AppEvent)] {
        self.world.slot_of(node).map(|slot| self.world.delivered[slot].as_slice()).unwrap_or(&[])
    }

    /// Every node's delivered events, in id order (nodes with no
    /// deliveries are skipped).
    pub fn delivered_iter(&self) -> impl Iterator<Item = (NodeId, &[(u64, AppEvent)])> {
        (self.world.nodes.iter().zip(&self.world.delivered))
            .map(|(node, evs)| (node.id, evs.as_slice()))
            .filter(|(_, evs)| !evs.is_empty())
    }

    /// Drain every recorded application delivery, returning `(node, time,
    /// event)` triples in id order. Long-running simulations call this
    /// periodically (or set [`Simulation::set_delivered_cap`]) so the
    /// delivery log cannot grow without bound.
    pub fn drain_delivered(&mut self) -> Vec<(NodeId, u64, AppEvent)> {
        let mut out = Vec::new();
        for (node, evs) in self.world.nodes.iter().zip(&mut self.world.delivered) {
            out.extend(evs.drain(..).map(|(at, ev)| (node.id, at, ev)));
        }
        out
    }

    /// Cap the per-node delivery log at `cap` events: once a node's log is
    /// full, further deliveries are counted in
    /// `metrics.app_events_dropped` instead of being retained. Opt-in for
    /// multi-hour runs that would otherwise hold every [`AppEvent`]
    /// forever; metric counters and query latencies are unaffected.
    pub fn set_delivered_cap(&mut self, cap: usize) {
        self.world.delivered_cap = cap;
    }

    /// Alive nodes of a ring.
    pub fn alive_ring_nodes(&self, ring: RingId) -> Vec<NodeId> {
        self.layout
            .ring(ring)
            .map(|spec| spec.nodes.iter().copied().filter(|&n| !self.is_crashed(n)).collect())
            .unwrap_or_default()
    }

    /// Number of queued events (stale timer entries included) — the
    /// engine's working-set size, tracked by the benchmark harness.
    pub fn queue_len(&self) -> usize {
        self.world.events.len()
    }

    /// High-water mark of [`Simulation::queue_len`] since construction.
    pub fn peak_queue_len(&self) -> usize {
        self.world.events.peak_len()
    }

    /// Timestamp of the next queued event, if any.
    pub fn peek_at(&mut self) -> Option<u64> {
        self.world.events.peek_at()
    }

    /// Approximate resident memory of the engine's per-node state: the
    /// node arena, timer slots, delivered-event buffers and the event
    /// queue. See [`MemoryStats`] for what is (and is not) counted.
    pub fn memory_stats(&self) -> MemoryStats {
        self.world.memory_stats()
    }
}

/// Approximate resident memory of a simulation engine, in bytes.
///
/// The figures are **estimates**: they count the arena `Vec`s and each
/// node's owned collections (rosters, member lists, message queue) at
/// their current lengths, plus a fixed per-entry overhead for B-tree
/// collections. Allocator slack and `Vec` growth headroom are not
/// modelled, with one exception: the event queue is charged its retained
/// *capacity* ([`MemoryStats::queue_bytes`]), because that — not its
/// occupancy — is what a wheel that never shrank used to hide. The point
/// is the *scaling* signal — bytes per node across a shard-count or
/// node-count sweep — not byte-exact accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Nodes covered by these stats.
    pub nodes: usize,
    /// Node arena: `NodeState` structs plus their owned collections.
    pub node_state_bytes: usize,
    /// The per-node live-timer sets: their inline slots plus what spilled.
    pub timer_bytes: usize,
    /// Retained application deliveries across all nodes.
    pub delivered_bytes: usize,
    /// Entries currently queued (stale timer entries included).
    pub queue_entries: usize,
    /// Event-queue storage held: the *capacity* of the wheel buckets and the
    /// far heap, not just the slots those entries fill.
    pub queue_bytes: usize,
}

impl MemoryStats {
    /// Sum of every byte category.
    pub fn total_bytes(&self) -> usize {
        self.node_state_bytes + self.timer_bytes + self.delivered_bytes + self.queue_bytes
    }

    /// Total bytes divided by the node count (0 for empty engines).
    pub fn bytes_per_node(&self) -> usize {
        self.total_bytes().checked_div(self.nodes).unwrap_or(0)
    }

    /// Fold another engine's stats into this one (shard aggregation).
    pub fn merge(&mut self, other: &MemoryStats) {
        self.nodes += other.nodes;
        self.node_state_bytes += other.node_state_bytes;
        self.timer_bytes += other.timer_bytes;
        self.delivered_bytes += other.delivered_bytes;
        self.queue_entries += other.queue_entries;
        self.queue_bytes += other.queue_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgb_core::wire;

    #[test]
    fn join_propagates_with_latency() {
        let mut sim = Simulation::full(2, 3, &ProtocolConfig::default(), NetConfig::default(), 1);
        sim.boot_all();
        let ap = sim.layout.aps()[4];
        sim.schedule_mh(0, ap, MhEvent::Join { guid: Guid(9), luid: Luid(1) });
        assert!(sim.run_until_quiet(1_000_000));
        assert!(sim.now > 0, "latency must advance the clock");
        for &n in sim.layout.root_ring().nodes.iter() {
            assert!(sim.member_at(n, Guid(9)));
        }
        assert_eq!(sim.metrics.sent("from_mh"), 1);
        assert_eq!(sim.metrics.codec_rejected, 0, "all frames decode");
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut sim =
                Simulation::full(2, 3, &ProtocolConfig::default(), NetConfig::default(), seed);
            sim.boot_all();
            let aps = sim.layout.aps();
            for (i, &ap) in aps.iter().enumerate() {
                sim.schedule_mh(
                    i as u64 * 3,
                    ap,
                    MhEvent::Join { guid: Guid(i as u64), luid: Luid(1) },
                );
            }
            sim.run_until_quiet(10_000_000);
            (sim.now, sim.metrics.sent_total, sim.metrics.proposal_hops())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn crash_event_silences_node() {
        let cfg = ProtocolConfig::default();
        let mut sim = Simulation::full(1, 3, &cfg, NetConfig::instant(), 3);
        sim.boot_all();
        let victim = sim.layout.aps()[1];
        sim.crash_at(0, victim);
        sim.step();
        assert!(sim.is_crashed(victim));
        assert!(sim.crashed_set().contains(&victim));
        // messages to it vanish silently
        let ap = sim.layout.aps()[0];
        sim.schedule_mh(1, ap, MhEvent::Join { guid: Guid(1), luid: Luid(1) });
        // OnDemand has no failure detection: the token stalls at the crash,
        // so quiescence is reached without agreement at the victim.
        sim.run_until_quiet(100_000);
        assert!(!sim.member_at(victim, Guid(1)));
    }

    #[test]
    fn query_latency_is_recorded() {
        let mut sim = Simulation::full(2, 3, &ProtocolConfig::default(), NetConfig::default(), 5);
        sim.boot_all();
        let ap = sim.layout.aps()[0];
        sim.schedule_mh(0, ap, MhEvent::Join { guid: Guid(1), luid: Luid(1) });
        sim.run_until_quiet(1_000_000);
        sim.schedule_query(0, ap, QueryScope::Global);
        sim.run_until_quiet(1_000_000);
        assert_eq!(sim.metrics.query_latency.len(), 1);
        assert!(sim.metrics.query_latency.max().unwrap() > 0);
    }

    #[test]
    fn run_until_pred_reports_first_time() {
        let mut sim = Simulation::full(2, 3, &ProtocolConfig::default(), NetConfig::unit(), 5);
        sim.boot_all();
        let ap = sim.layout.aps()[0];
        let root = sim.layout.root_ring().nodes[0];
        sim.schedule_mh(10, ap, MhEvent::Join { guid: Guid(4), luid: Luid(1) });
        let t = sim
            .run_until_pred(1_000_000, |s| s.member_at(root, Guid(4)))
            .expect("member reaches root");
        assert!(t >= 10);
        // The predicate time is stable under re-simulation.
        let mut sim2 = Simulation::full(2, 3, &ProtocolConfig::default(), NetConfig::unit(), 5);
        sim2.boot_all();
        sim2.schedule_mh(10, ap, MhEvent::Join { guid: Guid(4), luid: Luid(1) });
        let t2 = sim2.run_until_pred(1_000_000, |s| s.member_at(root, Guid(4)));
        assert_eq!(Some(t), t2);
    }

    #[test]
    fn lossy_network_still_converges_with_continuous_tokens() {
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 10;
        cfg.token_retransmit_timeout = 30;
        cfg.heartbeat_interval = 200;
        cfg.token_lost_timeout = 500;
        let mut net = NetConfig::unit();
        net.loss = 0.05;
        let mut sim = Simulation::full(1, 4, &cfg, net, 11);
        sim.boot_all();
        let ap = sim.layout.aps()[2];
        sim.schedule_mh(0, ap, MhEvent::Join { guid: Guid(6), luid: Luid(1) });
        sim.run_until(20_000);
        for &n in sim.layout.root_ring().nodes.iter() {
            assert!(sim.member_at(n, Guid(6)), "loss prevented agreement at {n}");
        }
        assert!(sim.metrics.lost > 0, "loss model never fired");
    }

    #[test]
    fn corrupt_frames_are_dropped_and_counted() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let nodes = sim.layout.root_ring().nodes.clone();
        let before = sim.metrics.sent_total;
        sim.send_frame(nodes[0], nodes[1], MsgLabel::Token, Bytes::from(vec![1, 2, 3]));
        while sim.step() {}
        assert_eq!(sim.metrics.codec_rejected, 1, "garbage frame must be rejected");
        assert_eq!(sim.metrics.sent_total, before + 1, "send was still counted");
    }

    #[test]
    fn foreign_group_frames_are_rejected() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let nodes = sim.layout.root_ring().nodes.clone();
        let frame = wire::encode(&Envelope {
            gid: GroupId(99),
            msg: Msg::TokenAck { ring: RingId(0), seq: 1 },
        });
        sim.send_frame(nodes[0], nodes[1], MsgLabel::TokenAck, frame);
        while sim.step() {}
        assert_eq!(sim.metrics.codec_rejected, 1, "foreign gid must be rejected");
    }

    #[test]
    fn unknown_node_accessors_do_not_panic() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let ghost = NodeId(9_999);
        assert!(sim.try_node(ghost).is_none());
        assert!(!sim.member_at(ghost, Guid(1)), "unknown node is never a member");
        assert!(!sim.is_crashed(ghost));
        assert!(sim.events_at(ghost).is_empty());
        // Unknown-node inputs and crashes are tolerated.
        sim.inject(ghost, Input::Boot);
        sim.crash_at(0, ghost);
        while sim.step() {}
        assert!(sim.is_crashed(ghost), "scheduled crash is remembered");
        assert!(sim.crashed_set().contains(&ghost));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn node_accessor_panics_on_unknown_id() {
        let sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        let _ = sim.node(NodeId(9_999));
    }

    #[test]
    fn drain_delivered_empties_the_log() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let ap = sim.layout.aps()[0];
        sim.schedule_mh(0, ap, MhEvent::Join { guid: Guid(7), luid: Luid(1) });
        assert!(sim.run_until_quiet(100_000));
        let drained = sim.drain_delivered();
        assert!(!drained.is_empty(), "join produced app events");
        assert!(drained.iter().all(|(n, _, _)| sim.try_node(*n).is_some()));
        assert!(sim.events_at(ap).is_empty(), "drain cleared the log");
        assert_eq!(sim.drain_delivered().len(), 0, "second drain is empty");
    }

    #[test]
    fn delivered_cap_bounds_retention_without_losing_counts() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.set_delivered_cap(1);
        sim.boot_all();
        for g in 0..5u64 {
            let ap = sim.layout.aps()[0];
            sim.schedule_mh(g, ap, MhEvent::Join { guid: Guid(g), luid: Luid(1) });
        }
        assert!(sim.run_until_quiet(1_000_000));
        assert!(sim.metrics.app_events_dropped > 0, "cap must have dropped events");
        for (_, evs) in sim.delivered_iter() {
            assert!(evs.len() <= 1, "cap respected");
        }
        assert!(
            sim.metrics.app_events
                >= sim.metrics.app_events_dropped
                    + sim.delivered_iter().map(|(_, e)| e.len() as u64).sum::<u64>(),
            "every event is either retained or counted as dropped"
        );
    }

    #[test]
    fn partition_severs_and_heals_on_schedule() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let nodes = sim.layout.root_ring().nodes.clone();
        sim.schedule_partition(LinkPartition { at: 10, heal_at: 50, a: nodes[0], b: nodes[1] });
        sim.run_until(20);
        assert!(sim.is_partitioned(nodes[0], nodes[1]));
        assert!(sim.is_partitioned(nodes[1], nodes[0]), "partitions are bidirectional");
        assert!(!sim.is_partitioned(nodes[0], nodes[2]));
        let frame = wire::encode(&Envelope {
            gid: sim.layout.gid,
            msg: Msg::TokenAck { ring: RingId(0), seq: 1 },
        });
        sim.send_frame(nodes[0], nodes[1], MsgLabel::TokenAck, frame.clone());
        assert_eq!(sim.metrics.partition_dropped, 1, "frame swallowed while severed");
        sim.run_until(60);
        assert!(!sim.is_partitioned(nodes[0], nodes[1]), "partition healed");
        let before = sim.metrics.partition_dropped;
        sim.send_frame(nodes[0], nodes[1], MsgLabel::TokenAck, frame);
        assert_eq!(sim.metrics.partition_dropped, before, "healed link passes frames");
    }

    #[test]
    fn overlapping_partition_windows_heal_only_when_the_last_ends() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let nodes = sim.layout.root_ring().nodes.clone();
        sim.schedule_partition(LinkPartition { at: 10, heal_at: 50, a: nodes[0], b: nodes[1] });
        sim.schedule_partition(LinkPartition { at: 30, heal_at: 90, a: nodes[0], b: nodes[1] });
        sim.run_until(60); // first window healed, second still open
        assert!(
            sim.is_partitioned(nodes[0], nodes[1]),
            "pair must stay severed while any window is open"
        );
        sim.run_until(100);
        assert!(!sim.is_partitioned(nodes[0], nodes[1]), "last window heals the link");
    }

    #[test]
    fn retransmission_rides_out_a_brief_partition() {
        // A partition that heals within the token-retransmission budget
        // must not trigger local repair: the stalled token gets through on
        // a later attempt and the ring converges with nobody excluded.
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 10;
        cfg.token_retransmit_timeout = 50;
        cfg.token_retransmit_limit = 3;
        cfg.heartbeat_interval = 300;
        cfg.token_lost_timeout = 2_000;
        let mut sim = Simulation::full(1, 4, &cfg, NetConfig::unit(), 3);
        sim.boot_all();
        let nodes = sim.layout.root_ring().nodes.clone();
        sim.schedule_partition(LinkPartition { at: 0, heal_at: 120, a: nodes[0], b: nodes[1] });
        let ap = sim.layout.aps()[2];
        sim.schedule_mh(300, ap, MhEvent::Join { guid: Guid(5), luid: Luid(1) });
        sim.run_until(20_000);
        assert!(sim.metrics.partition_dropped > 0, "partition swallowed traffic");
        let retransmits: u64 = sim.nodes_iter().map(|(_, n)| n.stats.retransmits).sum();
        let exclusions: u64 = sim.nodes_iter().map(|(_, n)| n.stats.exclusions).sum();
        assert!(retransmits > 0, "the stall must be bridged by retransmission");
        assert_eq!(exclusions, 0, "brief partition must not look like a node fault");
        for &n in &nodes {
            assert!(sim.member_at(n, Guid(5)), "post-heal agreement failed at {n}");
        }
    }

    #[test]
    fn duplication_and_reorder_move_their_counters_and_stay_consistent() {
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 10;
        cfg.token_retransmit_timeout = 30;
        cfg.heartbeat_interval = 200;
        cfg.token_lost_timeout = 500;
        let mut net = NetConfig::unit();
        net.dup = 0.10;
        net.reorder = 0.10;
        net.reorder_extra = 25;
        let mut sim = Simulation::full(1, 4, &cfg, net, 17);
        sim.boot_all();
        let ap = sim.layout.aps()[1];
        sim.schedule_mh(0, ap, MhEvent::Join { guid: Guid(8), luid: Luid(1) });
        sim.run_until(20_000);
        assert!(sim.metrics.duplicated > 0, "duplication never fired");
        assert!(sim.metrics.reordered > 0, "reordering never fired");
        for &n in sim.layout.root_ring().nodes.iter() {
            assert!(sim.member_at(n, Guid(8)), "dup/reorder broke agreement at {n}");
        }
    }

    #[test]
    fn run_observed_visits_on_schedule_and_stops_early() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::unit(), 1);
        sim.boot_all();
        let mut seen = Vec::new();
        let done = sim.run_observed(1_000, 100, |s| {
            seen.push(s.now);
            true
        });
        assert_eq!(done, None);
        assert_eq!(seen, (1..=10).map(|i| i * 100).collect::<Vec<_>>());
        // Early stop reports the observation time.
        let stopped = sim.run_observed(2_000, 100, |s| s.now < 1_300);
        assert_eq!(stopped, Some(1_300));
    }

    #[test]
    fn system_digest_covers_alive_nodes() {
        let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
        sim.boot_all();
        let victim = sim.layout.root_ring().nodes[2];
        sim.crash_at(0, victim);
        let ap = sim.layout.aps()[0];
        sim.schedule_mh(1, ap, MhEvent::Join { guid: Guid(3), luid: Luid(1) });
        assert_eq!(sim.pending_disruptions(), 2, "crash + MH send queued");
        sim.run_until_quiet(100_000);
        assert_eq!(sim.pending_disruptions(), 0);
        let digest = sim.system_digest(true);
        assert!(digest.settled);
        assert_eq!(digest.nodes.len(), 2, "crashed node reports no digest");
        assert!(digest.crashed.contains(&victim));
        assert!(digest.nodes.iter().all(|d| d.node != victim));
        assert!(
            digest.nodes.iter().any(|d| d.members.contains(&Guid(3))),
            "join visible in some digest"
        );
    }

    #[test]
    fn memory_stats_pin_a_per_node_upper_bound() {
        // A populated ~800-node hierarchy mid-run: every accounting
        // category must be live, and the per-node figure must stay under a
        // hard ceiling (the scale benchmarks budget 100k-node runs against
        // this bound — 16 KiB/node ⇒ ≤ ~1.6 GiB arena at 100k).
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 20;
        cfg.heartbeat_interval = 100;
        let mut sim = Simulation::full(3, 9, &cfg, NetConfig::default(), 1);
        sim.boot_all();
        let aps = sim.layout.aps();
        for (i, &ap) in aps.iter().take(60).enumerate() {
            sim.schedule_mh(i as u64, ap, MhEvent::Join { guid: Guid(i as u64), luid: Luid(1) });
        }
        sim.run_until(2_000);
        let stats = sim.memory_stats();
        assert_eq!(stats.nodes, 819, "h=3 r=9 arena");
        assert!(stats.node_state_bytes > 0, "node arena accounted");
        assert!(stats.timer_bytes > 0, "live timers accounted");
        assert!(stats.delivered_bytes > 0, "retained deliveries accounted");
        assert!(stats.queue_entries > 0 && stats.queue_bytes > 0, "queue accounted");
        assert_eq!(
            stats.total_bytes(),
            stats.node_state_bytes + stats.timer_bytes + stats.delivered_bytes + stats.queue_bytes
        );
        let per_node = stats.bytes_per_node();
        assert!(per_node > 0);
        assert!(per_node <= 16 * 1024, "{per_node} bytes/node blows the 16 KiB budget");
        // MemoryStats::merge is additive (shard aggregation).
        let mut doubled = stats;
        doubled.merge(&stats);
        assert_eq!(doubled.nodes, stats.nodes * 2);
        assert_eq!(doubled.total_bytes(), stats.total_bytes() * 2);
        assert_eq!(doubled.bytes_per_node(), stats.bytes_per_node());
    }

    #[test]
    fn rearmed_periodic_timers_do_not_grow_the_queue() {
        // Continuous tokens + heartbeats re-arm timers on every round; with
        // lazy deletion the queue must still stay bounded over 10^5 ticks.
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 10;
        cfg.token_retransmit_timeout = 30;
        cfg.heartbeat_interval = 50;
        cfg.token_lost_timeout = 200;
        let mut sim = Simulation::full(2, 3, &cfg, NetConfig::unit(), 9);
        sim.boot_all();
        let ap = sim.layout.aps()[0];
        sim.schedule_mh(0, ap, MhEvent::Join { guid: Guid(1), luid: Luid(1) });
        sim.run_until(10_000);
        let settled = sim.queue_len();
        let mut max_seen = 0usize;
        for deadline in (20_000..=100_000u64).step_by(10_000) {
            sim.run_until(deadline);
            max_seen = max_seen.max(sim.queue_len());
        }
        // Bounded: the steady-state queue after 10× more ticks stays within
        // a small constant factor of the early-run queue, instead of
        // growing with elapsed time.
        assert!(
            max_seen <= settled * 4 + 64,
            "queue grew from {settled} to {max_seen} over 10^5 ticks"
        );
        assert!(sim.metrics.stale_timer_skips > 0, "lazy deletion path exercised");
    }
}
