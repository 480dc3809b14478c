//! The discrete-event simulation engine: an event queue over the sans-IO
//! node state machines, with the network model supplying latency and loss,
//! deterministic timer management, fault injection and metrics.
//!
//! The simulator is one of the two [`Substrate`] implementations shipped
//! with this workspace (the other is `rgb-net`'s threaded runtime). Every
//! protocol output is interpreted by the shared
//! [`rgb_core::substrate::apply_outputs`] driver, which wire-encodes each
//! send — so **every delivery in the simulated world crosses
//! [`rgb_core::wire`]**, byte-for-byte the same codec the live runtime puts
//! on its channels, and is decoded again on arrival. The wireless MH→AP hop
//! travels as an encoded [`Msg::FromMh`] frame for the same reason.
//!
//! ## Hot-path layout
//!
//! The dispatch loop ([`Simulation::step`] / [`Simulation::inject`]) runs
//! entirely on dense, precomputed structures:
//!
//! - node state and deliveries live in `Vec`s indexed by [`NodeIdx`] (the
//!   [`rgb_core::topology::NodeIndexer`] arena) — no `BTreeMap`/`BTreeSet`
//!   in `step()`;
//! - everything else the engine keeps per node — crash flag, timer
//!   generation, live timers, emission counter, random stream, query
//!   clock — is **one packed slot per node** (the crate-private
//!   `NodeSlot`, shared with every shard of [`crate::par`]): a delivery,
//!   its ack and the timers they arm touch one 192-byte slot whose live
//!   timers sit inline ([`rgb_core::substrate::TimerSet`]), not six
//!   parallel arrays on six pages;
//! - link classification is a [`LinkClassMatrix`] lookup precomputed at
//!   construction — no per-send `placement()` walks;
//! - send counters are fixed-slot arrays keyed by [`MsgLabel`] and
//!   [`LinkClass`] ([`Metrics::record_send`]);
//! - timers are generation-stamped slots drained through a bucketed timer
//!   wheel (the crate-private `queue` module), so re-armed periodic
//!   timers stop accumulating stale heap entries; a drained bucket gives
//!   its buffer back, so the wheel's memory follows what is queued, not
//!   the largest tick each bucket ever held (every node boots at tick 0,
//!   hence beats in the same tick: a 100k-entry burst per heartbeat
//!   period, in a different bucket each time);
//! - frames are pooled, and still encoded and decoded once per delivery:
//!   [`Simulation::step`] returns each delivered frame to a bounded
//!   [`FramePool`] and the next send encodes into a buffer taken from it
//!   ([`Substrate::frame_buf`]), so in steady state the wire round trip
//!   allocates nothing.
//!
//! ## Execution-order-independent determinism
//!
//! Randomness and event ordering are both keyed by **provenance**, not by
//! global execution order:
//!
//! - every node draws latency/loss/duplication samples from its **own
//!   [`SplitMix64`] stream** (seeded from `(seed, node id)`), and every
//!   mobile host's wireless hop from a per-GUID stream resolved at
//!   schedule time;
//! - every queued event carries a deterministic key (the crate-private
//!   `queue` module's `EventKey`) derived from its creator and that
//!   creator's emission counter.
//!
//! A node's behaviour therefore depends only on the sequence of inputs
//! *it* receives — never on how the engine interleaved *other* nodes in
//! between. That property is what lets the sharded conservative-parallel
//! engine ([`crate::par`]) reproduce this sequential engine's
//! [`SystemDigest`] stream byte for byte.

use crate::metrics::Metrics;
use crate::network::{LinkClass, LinkClassMatrix, NetConfig, NetworkModel};
use crate::obs::EngineObs;
use crate::queue::{Event, EventKey, EventKind, EventQueue, NodeSlot};
use crate::rng::SplitMix64;
use bytes::{Bytes, BytesMut};
use rgb_core::node::NodeState;
use rgb_core::obs::{ObsRecord, TraceSink};
use rgb_core::prelude::*;
use rgb_core::substrate::FramePool;
use rgb_core::topology::HierarchyLayout;
use rgb_core::wire;
use std::collections::{BTreeMap, BTreeSet};

pub use crate::queue::QueueKind;

/// Sentinel for "no query outstanding" in the per-node query clock.
pub(crate) const NO_QUERY: u64 = u64::MAX;

/// Stream-id salt of per-node RNG streams (XORed with the node id).
pub(crate) const NODE_STREAM_SALT: u64 = 0x4e4f_4445_0000_0000; // "NODE"
/// Stream-id salt of per-MH wireless streams (XORed with the GUID).
pub(crate) const MH_STREAM_SALT: u64 = 0x7769_7265_6c65_7373; // "wireless"
/// Stream id of the fallback stream for sends from outside the layout.
pub(crate) const EXT_STREAM_SALT: u64 = 0x4558_5445_524e_414c; // "EXTERNAL"
/// `src` slot marking runtime events created outside the layout.
pub(crate) const EXT_SRC: u32 = u32::MAX;

/// The GUID an [`MhEvent`] concerns (its wireless-stream key).
pub(crate) fn mh_guid(event: &MhEvent) -> Guid {
    match event {
        MhEvent::Join { guid, .. }
        | MhEvent::Leave { guid }
        | MhEvent::HandoffIn { guid, .. }
        | MhEvent::FailureDetected { guid }
        | MhEvent::Disconnect { guid }
        | MhEvent::Resume { guid, .. } => *guid,
    }
}

/// The wireless MH→AP hop, resolved at schedule time.
///
/// A mobile-host event's loss, latency and per-MH FIFO floor depend only
/// on the schedule itself and the MH's private random stream — nothing the
/// simulation computes feeds back into them — so both engines resolve the
/// whole hop the moment the event is scheduled and queue only the
/// resulting [`EventKind::MhDeliver`] (or count the loss). This keeps the
/// per-GUID FIFO state out of the hot path entirely, and out of the
/// sharded engine's cross-shard state.
#[derive(Debug)]
pub(crate) struct WirelessHop {
    seed: u64,
    streams: BTreeMap<Guid, SplitMix64>,
    /// Last wireless delivery time per MH: the hop is FIFO per MH
    /// (link-layer ordering), so a host's Leave can never overtake its own
    /// Join despite latency jitter.
    last_delivery: BTreeMap<Guid, u64>,
}

impl WirelessHop {
    pub fn new(seed: u64) -> Self {
        WirelessHop { seed, streams: BTreeMap::new(), last_delivery: BTreeMap::new() }
    }

    /// Resolve one scheduled MH event sent at `send_at`: counts the send,
    /// samples loss and latency from the MH's stream and applies the
    /// per-MH FIFO floor. Returns the delivery time, or `None` when the
    /// wireless hop lost the event.
    pub fn resolve(
        &mut self,
        send_at: u64,
        event: &MhEvent,
        net: &NetworkModel,
        metrics: &mut Metrics,
    ) -> Option<u64> {
        metrics.record_send(MsgLabel::FromMh, LinkClass::Wireless);
        let guid = mh_guid(event);
        let seed = self.seed;
        let rng = self
            .streams
            .entry(guid)
            .or_insert_with(|| SplitMix64::stream(seed, MH_STREAM_SALT ^ guid.0));
        if net.lost(LinkClass::Wireless, rng) {
            metrics.lost += 1;
            return None;
        }
        let latency = net.latency(LinkClass::Wireless, rng);
        let earliest = self.last_delivery.get(&guid).map(|&t| t.saturating_add(1)).unwrap_or(0);
        let deliver_at = send_at.saturating_add(latency).max(earliest);
        self.last_delivery.insert(guid, deliver_at);
        Some(deliver_at)
    }
}

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Simulation {
    /// The hierarchy under simulation.
    pub layout: HierarchyLayout,
    /// Current simulated time (ticks).
    pub now: u64,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Dense NodeId ↔ NodeIdx arena over `layout`.
    indexer: NodeIndexer,
    /// Protocol state of every NE, by [`NodeIdx`].
    nodes: Vec<NodeState>,
    /// Engine-side state of every NE, by [`NodeIdx`]: crash flag, timer
    /// generation and live timers, emission counter, random stream and
    /// query clock in one slot.
    slots: Vec<NodeSlot>,
    /// Crashed NEs by id (cold mirror for reports and oracles; also keeps
    /// ids outside the layout, exactly like the old `BTreeSet` did).
    crashed_ids: BTreeSet<NodeId>,
    /// Application deliveries per node, with timestamps, by [`NodeIdx`].
    delivered: Vec<Vec<(u64, AppEvent)>>,
    /// Per-node retention cap on `delivered` (opt-in; `usize::MAX` keeps
    /// everything).
    delivered_cap: usize,
    /// Precomputed per-pair link classes.
    classes: LinkClassMatrix,
    events: EventQueue,
    net: NetworkModel,
    /// Stream + counter for runtime events created outside the layout.
    ext_rng: SplitMix64,
    ext_emit: u64,
    /// Schedule counter (the `seq` of scheduled [`EventKey`]s).
    sched_seq: u64,
    /// Root stream handed to callers via [`Simulation::rng`] (workload
    /// generators fork from it); the engine itself never draws from it.
    root_rng: SplitMix64,
    /// The wireless MH→AP hop, resolved at schedule time.
    wireless: WirelessHop,
    /// Currently severed NE pairs (normalised `(min, max)`), maintained by
    /// the scheduled [`LinkPartition`] events. A pair appears once per
    /// active window, so overlapping partitions on the same pair refcount
    /// naturally: the link heals only when its *last* window ends. Almost
    /// always empty, so the hot-path check is a single `is_empty` load.
    partitioned: Vec<(NodeId, NodeId)>,
    /// Reusable output buffer for the hot loop (no per-input allocation).
    out_buf: OutputSink,
    /// Delivered frames' buffers, reused by the next sends.
    pub(crate) frames: FramePool,
    /// Observability tracking (disabled by default; see
    /// [`Simulation::enable_obs`]).
    obs: EngineObs,
}

impl Substrate for Simulation {
    fn now(&self) -> u64 {
        self.now
    }

    fn send_frame(&mut self, from: NodeId, to: NodeId, label: MsgLabel, frame: Bytes) {
        let fi = self.indexer.index_of(from);
        let ti = self.indexer.index_of(to);
        let class = self.classes.classify(fi, ti);
        self.metrics.record_send(label, class);
        if !self.partitioned.is_empty() && self.is_partitioned(from, to) {
            self.metrics.partition_dropped += 1;
            return;
        }
        // The sender's private stream and emission counter: both the frame
        // fate and the event key derive from the sender alone.
        let (rng, src, emit) = match fi {
            Some(i) => {
                let slot = &mut self.slots[i.as_usize()];
                (&mut slot.rng, i.0, &mut slot.emit)
            }
            None => (&mut self.ext_rng, EXT_SRC, &mut self.ext_emit),
        };
        let Some(plan) = self.net.plan_frame(class, rng) else {
            self.metrics.lost += 1;
            return;
        };
        if plan.reordered {
            self.metrics.reordered += 1;
        }
        if let Some(dup_latency) = plan.dup_latency {
            self.metrics.duplicated += 1;
            let key = EventKey::emitted(src, *emit);
            *emit += 1;
            self.events.push(
                self.now,
                self.now.saturating_add(dup_latency),
                key,
                EventKind::Deliver { from, to: ti, frame: frame.clone() },
            );
        }
        let key = EventKey::emitted(src, *emit);
        *emit += 1;
        self.events.push(
            self.now,
            self.now.saturating_add(plan.latency),
            key,
            EventKind::Deliver { from, to: ti, frame },
        );
    }

    fn arm_timer(&mut self, node: NodeId, kind: TimerKind, after: u64) {
        let Some(idx) = self.indexer.index_of(node) else { return };
        let (gen, seq) = self.slots[idx.as_usize()].arm_timer(kind);
        self.events.push(
            self.now,
            self.now.saturating_add(after),
            EventKey::emitted(idx.0, seq),
            EventKind::Timer { node: idx, kind, gen },
        );
    }

    fn cancel_timer(&mut self, node: NodeId, kind: TimerKind) {
        let Some(idx) = self.indexer.index_of(node) else { return };
        self.slots[idx.as_usize()].timers.cancel(kind);
    }

    fn deliver_app(&mut self, node: NodeId, event: AppEvent) {
        self.metrics.app_events += 1;
        let Some(idx) = self.indexer.index_of(node) else { return };
        let i = idx.as_usize();
        if let AppEvent::QueryResult { .. } = &event {
            let t0 = std::mem::replace(&mut self.slots[i].query_started, NO_QUERY);
            if t0 != NO_QUERY {
                let dt = self.now - t0;
                self.metrics.query_latency.record(dt);
                self.obs.on_query_done(i, dt, &mut self.metrics);
            }
        }
        if self.obs.enabled {
            self.obs.on_app(self.now, i, &event, &mut self.metrics);
        }
        let log = &mut self.delivered[i];
        if log.len() < self.delivered_cap {
            log.push((self.now, event));
        } else {
            self.metrics.app_events_dropped += 1;
        }
    }

    fn frame_buf(&mut self) -> BytesMut {
        self.frames.get()
    }
}

impl Simulation {
    /// Build a simulation over `layout` with every node running `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `net` fails [`NetConfig::validate`] (e.g. an inverted
    /// latency band).
    pub fn new(layout: HierarchyLayout, cfg: &ProtocolConfig, net: NetConfig, seed: u64) -> Self {
        Self::new_with_queue(layout, cfg, net, seed, QueueKind::TimerWheel)
    }

    /// [`Simulation::new`] with an explicit event-queue implementation.
    ///
    /// [`QueueKind::BinaryHeap`] keeps the reference pure-heap ordering
    /// semantics alive; the engine-determinism tests run both kinds on the
    /// same scenario and assert identical traces. Production callers want
    /// the default [`QueueKind::TimerWheel`].
    pub fn new_with_queue(
        layout: HierarchyLayout,
        cfg: &ProtocolConfig,
        net: NetConfig,
        seed: u64,
        queue: QueueKind,
    ) -> Self {
        let indexer = layout.indexer();
        let n = indexer.len();
        let ring_counts = layout.level_ring_counts();
        let nodes: Vec<NodeState> = indexer
            .iter()
            .map(|(_, id)| {
                NodeState::from_layout_with_counts(&layout, id, cfg.clone(), &ring_counts)
                    .expect("valid layout")
            })
            .collect();
        let classes = LinkClassMatrix::new(&layout, &indexer);
        let slots = indexer.iter().map(|(_, id)| NodeSlot::new(seed, id)).collect();
        let obs_ids: Vec<NodeId> = indexer.iter().map(|(_, id)| id).collect();
        let obs = EngineObs::new(&obs_ids, &layout);
        Simulation {
            layout,
            now: 0,
            metrics: Metrics::default(),
            indexer,
            nodes,
            slots,
            crashed_ids: BTreeSet::new(),
            delivered: vec![Vec::new(); n],
            delivered_cap: usize::MAX,
            classes,
            events: EventQueue::new(queue),
            net: NetworkModel::new(net),
            ext_rng: SplitMix64::stream(seed, EXT_STREAM_SALT),
            ext_emit: 0,
            sched_seq: 0,
            root_rng: SplitMix64::new(seed),
            wireless: WirelessHop::new(seed),
            partitioned: Vec::new(),
            out_buf: OutputSink::new(),
            frames: FramePool::default(),
            obs,
        }
    }

    /// Enable observability: latency tracking into
    /// [`Metrics::levels`](crate::metrics::Metrics) plus trace records
    /// into `sink`. Tracking never touches node inputs, RNG streams or
    /// event keys, so enabling it leaves [`Simulation::system_digest`]
    /// streams byte-identical.
    pub fn enable_obs(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.enable(sink);
    }

    /// Enable latency tracking only (no trace retention) — the explorer's
    /// mode: per-level histograms feed coverage features at no trace cost.
    pub fn enable_obs_tracking(&mut self) {
        self.obs.enable_tracking();
    }

    /// The flight recorder's retained records, oldest first (empty when
    /// obs is disabled or tracking-only).
    pub fn trace_snapshot(&self) -> Vec<ObsRecord> {
        self.obs.trace_snapshot()
    }

    /// Trace records evicted by the sink's capacity bound.
    pub fn trace_dropped(&self) -> u64 {
        self.obs.trace_dropped()
    }

    /// Join intervals discarded because the first-seen table hit its cap
    /// (accounting trim only; protocol behaviour is unaffected).
    pub fn obs_first_seen_overflow(&self) -> u64 {
        self.obs.first_seen_overflow()
    }

    /// Convenience constructor: full hierarchy of (h, r).
    pub fn full(h: usize, r: usize, cfg: &ProtocolConfig, net: NetConfig, seed: u64) -> Self {
        let layout = HierarchySpec::new(h, r).build(GroupId(1)).expect("valid spec");
        Self::new(layout, cfg, net, seed)
    }

    /// Boot every node at time zero.
    pub fn boot_all(&mut self) {
        for idx in 0..self.nodes.len() {
            self.inject_idx(NodeIdx(idx as u32), Input::Boot);
        }
    }

    /// Deliver an input to a node right now and process the outputs through
    /// the shared [`apply_outputs`] driver (sends are wire-encoded).
    /// Unknown nodes ignore the input.
    pub fn inject(&mut self, node: NodeId, input: Input) {
        if let Some(idx) = self.indexer.index_of(node) {
            self.inject_idx(idx, input);
        }
    }

    /// Hot-path [`Simulation::inject`]: the node is already resolved.
    fn inject_idx(&mut self, idx: NodeIdx, input: Input) {
        let i = idx.as_usize();
        if self.slots[i].crashed {
            return;
        }
        let mut outs = std::mem::take(&mut self.out_buf);
        self.nodes[i].handle_into(input, &mut outs);
        let gid = self.layout.gid;
        let id = self.indexer.id_of(idx);
        apply_outputs(self, gid, id, &mut outs);
        self.out_buf = outs;
    }

    /// Next scheduled-event key (schedule order, assigned at schedule
    /// time — identical in every engine that schedules the same plan in
    /// the same order).
    fn sched_key(&mut self) -> EventKey {
        let key = EventKey::scheduled(self.sched_seq);
        self.sched_seq += 1;
        key
    }

    /// Schedule a mobile-host event to reach `ap` after `delay` ticks plus
    /// the wireless hop. The hop (loss, latency, per-MH FIFO floor) is
    /// resolved immediately from the MH's private stream (the crate's
    /// wireless-hop resolver), so the send and any loss are counted now,
    /// and only the resolved delivery is queued.
    pub fn schedule_mh(&mut self, delay: u64, ap: NodeId, event: MhEvent) {
        let send_at = self.now.saturating_add(delay);
        if let Some(at) = self.wireless.resolve(send_at, &event, &self.net, &mut self.metrics) {
            let frame =
                wire::encode(&Envelope { gid: self.layout.gid, msg: Msg::FromMh { event } });
            let key = self.sched_key();
            self.events.push(self.now, at, key, EventKind::MhDeliver { ap, frame });
        }
    }

    /// Schedule a node crash.
    pub fn crash_at(&mut self, delay: u64, node: NodeId) {
        let key = self.sched_key();
        self.events.push(self.now, self.now.saturating_add(delay), key, EventKind::Crash { node });
    }

    /// Schedule a membership query issued at `node`.
    pub fn schedule_query(&mut self, delay: u64, node: NodeId, scope: QueryScope) {
        let key = self.sched_key();
        self.events.push(
            self.now,
            self.now.saturating_add(delay),
            key,
            EventKind::QueryStart { node, scope },
        );
    }

    /// Schedule a timed link partition (see [`LinkPartition`]): the pair is
    /// severed at `now + p.at` and heals at `now + p.heal_at`. Frames
    /// already in flight when the partition starts still arrive.
    pub fn schedule_partition(&mut self, p: LinkPartition) {
        debug_assert!(p.heal_at > p.at, "validated by Scenario");
        let (a, b) = (p.a, p.b);
        let key = self.sched_key();
        self.events.push(
            self.now,
            self.now.saturating_add(p.at),
            key,
            EventKind::PartitionStart { a, b },
        );
        let key = self.sched_key();
        self.events.push(
            self.now,
            self.now.saturating_add(p.heal_at),
            key,
            EventKind::PartitionHeal { a, b },
        );
    }

    /// Whether the (unordered) pair `a`–`b` is currently severed.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.partitioned.contains(&pair)
    }

    /// Decode an arrived frame and feed it to `to`. Frames that fail to
    /// decode or carry a foreign group id are dropped and counted, exactly
    /// like the live runtime's receive path.
    fn deliver_frame(&mut self, from: NodeId, to: Option<NodeIdx>, frame: &Bytes) {
        match wire::decode(frame) {
            Ok(env) if env.gid == self.layout.gid => {
                if let Some(idx) = to {
                    if self.obs.enabled {
                        self.obs.on_msg(self.now, idx.as_usize(), &env.msg);
                    }
                    self.inject_idx(idx, Input::Msg { from, msg: env.msg });
                }
            }
            _ => self.metrics.codec_rejected += 1,
        }
    }

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Event { at, kind, .. }) = self.events.pop(self.now) else { return false };
        self.now = self.now.max(at);
        match kind {
            EventKind::Deliver { from, to, frame } => {
                let crashed = to.is_some_and(|idx| self.slots[idx.as_usize()].crashed);
                if !crashed {
                    self.deliver_frame(from, to, &frame);
                }
                self.frames.recycle(frame);
            }
            EventKind::Timer { node, kind, gen } => {
                // Only fire if this is still the live generation of the
                // timer: a re-arm or cancel since this entry was queued
                // bumped or removed the slot, marking the entry stale.
                let i = node.as_usize();
                let slot = &mut self.slots[i];
                if !slot.crashed && slot.timers.fire(gen) {
                    self.metrics.record_timer_fire(kind);
                    if self.obs.enabled {
                        self.obs.on_timer_fire(self.now, i, kind);
                    }
                    self.inject_idx(node, Input::Timer(kind));
                } else {
                    self.metrics.stale_timer_skips += 1;
                }
            }
            EventKind::MhDeliver { ap, frame } => {
                let idx = self.indexer.index_of(ap);
                let crashed = idx.is_some_and(|i| self.slots[i.as_usize()].crashed);
                if !crashed {
                    match wire::decode(&frame) {
                        Ok(env) if env.gid == self.layout.gid => {
                            if let Msg::FromMh { event } = env.msg {
                                if let Some(idx) = idx {
                                    self.inject_idx(idx, Input::Mh(event));
                                }
                            } else {
                                self.metrics.codec_rejected += 1;
                            }
                        }
                        _ => self.metrics.codec_rejected += 1,
                    }
                }
            }
            EventKind::Crash { node } => {
                self.crashed_ids.insert(node);
                if let Some(idx) = self.indexer.index_of(node) {
                    let i = idx.as_usize();
                    self.slots[i].crashed = true;
                    self.slots[i].timers.clear();
                    if self.obs.enabled {
                        self.obs.on_crash(self.now, i);
                    }
                }
            }
            EventKind::QueryStart { node, scope } => {
                if let Some(idx) = self.indexer.index_of(node) {
                    self.slots[idx.as_usize()].query_started = self.now;
                    if self.obs.enabled {
                        self.obs.on_query_issue(self.now, idx.as_usize());
                    }
                    self.inject_idx(idx, Input::StartQuery { scope });
                }
            }
            EventKind::PartitionStart { a, b } => {
                // Trace at endpoint `a` only: the parallel engine
                // replicates partition arms to both endpoint owners, and
                // only `a`'s owner emits, keeping traces equivalent.
                if self.obs.enabled {
                    if let Some(ai) = self.indexer.index_of(a) {
                        self.obs.on_partition(self.now, ai.as_usize(), true);
                    }
                }
                // One entry per active window (no dedup): a heal removes
                // one entry, so overlapping windows keep the pair severed
                // until the last of them ends.
                let pair = if a <= b { (a, b) } else { (b, a) };
                self.partitioned.push(pair);
            }
            EventKind::PartitionHeal { a, b } => {
                if self.obs.enabled {
                    if let Some(ai) = self.indexer.index_of(a) {
                        self.obs.on_partition(self.now, ai.as_usize(), false);
                    }
                }
                let pair = if a <= b { (a, b) } else { (b, a) };
                if let Some(pos) = self.partitioned.iter().position(|&p| p == pair) {
                    self.partitioned.swap_remove(pos);
                }
            }
        }
        true
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
        self.events.is_empty()
    }

    /// Run until simulated time reaches `deadline` (events beyond it stay
    /// queued).
    pub fn run_until(&mut self, deadline: u64) {
        loop {
            match self.peek_at() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => {
                    self.now = self.now.max(deadline);
                    return;
                }
            }
        }
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
        self.events.disruptions()
    }

    /// Oracle-facing digest of the whole system: one [`StateDigest`] per
    /// alive node plus the crash set. `settled` is the caller's quiescence
    /// verdict (see [`Simulation::pending_disruptions`] and the explorer's
    /// stability detector) and is recorded verbatim for gate-aware oracles.
    pub fn system_digest(&self, settled: bool) -> SystemDigest {
        let nodes = self
            .indexer
            .iter()
            .filter(|&(idx, _)| !self.slots[idx.as_usize()].crashed)
            .map(|(idx, _)| self.nodes[idx.as_usize()].digest())
            .collect();
        SystemDigest { now: self.now, nodes, crashed: self.crashed_ids.clone(), settled }
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
        loop {
            match self.peek_at() {
                Some(at) if at <= deadline => {
                    self.step();
                    if pred(self) {
                        return Some(self.now);
                    }
                }
                _ => return None,
            }
        }
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
        self.indexer.index_of(id).map(|idx| &self.nodes[idx.as_usize()])
    }

    /// Every node's protocol state, in id order.
    pub fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &NodeState)> {
        self.indexer.iter().map(|(idx, id)| (id, &self.nodes[idx.as_usize()]))
    }

    /// Whether `guid` is operational in `node`'s ring membership. Unknown
    /// nodes are never members (`false`), they do not panic.
    pub fn member_at(&self, node: NodeId, guid: Guid) -> bool {
        self.try_node(node).is_some_and(|n| n.ring_members.contains_operational(guid))
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        match self.indexer.index_of(node) {
            Some(idx) => self.slots[idx.as_usize()].crashed,
            None => self.crashed_ids.contains(&node),
        }
    }

    /// Crashed NEs (ids outside the layout included, matching what was
    /// scheduled).
    pub fn crashed_set(&self) -> &BTreeSet<NodeId> {
        &self.crashed_ids
    }

    /// Events delivered at a node (empty for unknown nodes).
    pub fn events_at(&self, node: NodeId) -> &[(u64, AppEvent)] {
        self.indexer
            .index_of(node)
            .map(|idx| self.delivered[idx.as_usize()].as_slice())
            .unwrap_or(&[])
    }

    /// Every node's delivered events, in id order (nodes with no
    /// deliveries are skipped).
    pub fn delivered_iter(&self) -> impl Iterator<Item = (NodeId, &[(u64, AppEvent)])> {
        self.indexer
            .iter()
            .map(|(idx, id)| (id, self.delivered[idx.as_usize()].as_slice()))
            .filter(|(_, evs)| !evs.is_empty())
    }

    /// Drain every recorded application delivery, returning `(node, time,
    /// event)` triples in id order. Long-running simulations call this
    /// periodically (or set [`Simulation::set_delivered_cap`]) so the
    /// delivery log cannot grow without bound.
    pub fn drain_delivered(&mut self) -> Vec<(NodeId, u64, AppEvent)> {
        let mut out = Vec::new();
        for (idx, id) in self.indexer.iter() {
            for (at, ev) in self.delivered[idx.as_usize()].drain(..) {
                out.push((id, at, ev));
            }
        }
        out
    }

    /// Cap the per-node delivery log at `cap` events: once a node's log is
    /// full, further deliveries are counted in
    /// `metrics.app_events_dropped` instead of being retained. Opt-in for
    /// multi-hour runs that would otherwise hold every [`AppEvent`]
    /// forever; metric counters and query latencies are unaffected.
    pub fn set_delivered_cap(&mut self, cap: usize) {
        self.delivered_cap = cap;
    }

    /// Alive nodes of a ring.
    pub fn alive_ring_nodes(&self, ring: RingId) -> Vec<NodeId> {
        self.layout
            .ring(ring)
            .map(|spec| spec.nodes.iter().copied().filter(|&n| !self.is_crashed(n)).collect())
            .unwrap_or_default()
    }

    /// Mutable access to the deterministic root RNG (workload generators
    /// fork their streams from here). The engine itself never draws from
    /// this stream — every node and every mobile host has a private one —
    /// so caller draws cannot perturb a run.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.root_rng
    }

    /// Number of queued events (stale timer entries included) — the
    /// engine's working-set size, tracked by the benchmark harness.
    pub fn queue_len(&self) -> usize {
        self.events.len()
    }

    /// High-water mark of [`Simulation::queue_len`] since construction.
    pub fn peak_queue_len(&self) -> usize {
        self.events.peak_len()
    }

    /// Timestamp of the next queued event, if any.
    pub fn peek_at(&mut self) -> Option<u64> {
        self.events.peek_at(self.now)
    }

    /// Approximate resident memory of the engine's per-node state: the
    /// node arena, timer slots, delivered-event buffers and the event
    /// queue. See [`MemoryStats`] for what is (and is not) counted.
    pub fn memory_stats(&self) -> MemoryStats {
        memory_stats_of(&self.nodes, &self.slots, &self.delivered, &self.events)
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

/// Shared [`MemoryStats`] accounting over one engine's arenas (the
/// sequential engine and every shard of the parallel one call this with
/// their own slices).
pub(crate) fn memory_stats_of(
    nodes: &[NodeState],
    slots: &[NodeSlot],
    delivered: &[Vec<(u64, AppEvent)>],
    events: &EventQueue,
) -> MemoryStats {
    use std::mem::size_of;
    let node_state_bytes = nodes.iter().map(|n| n.approx_bytes()).sum::<usize>();
    let timer_bytes = slots.iter().map(|s| s.timers.approx_bytes()).sum();
    let delivered_bytes = delivered
        .iter()
        .map(|d| size_of::<Vec<(u64, AppEvent)>>() + d.len() * size_of::<(u64, AppEvent)>())
        .sum();
    MemoryStats {
        nodes: nodes.len(),
        node_state_bytes,
        timer_bytes,
        delivered_bytes,
        queue_entries: events.len(),
        queue_bytes: events.retained_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(sim.metrics.query_latency.count(), 1);
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
