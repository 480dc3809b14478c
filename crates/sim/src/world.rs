//! The world core: one dense arena of whole rings, one event queue, and
//! the **one** dispatch loop both engines run.
//!
//! In RGB the ring is the unit of everything — a token hop never leaves its
//! ring — so a simulated world is a set of whole rings whether it holds all
//! of them ([`crate::sim::Simulation`]) or a ring-wholesale part
//! (a shard of [`crate::par::ParSimulation`]). A [`World`] is either; the
//! only thing that differs is its *placement* — which arena slot a dense
//! [`NodeIdx`] is, and whether this world holds it:
//!
//! - the **whole** world: the index is the slot, no table is read, and every
//!   event lands in its own queue;
//! - a **part**: the `ShardMap` lookup gives the slot within the shard that
//!   holds the node, and a frame for another shard is staged in
//!   [`World::outbox`] for the window driver to flush.
//!
//! The clock and the metrics are not the world's: the sequential engine
//! exposes them as public fields, a shard pins its clock to window
//! horizons. A world is therefore driven through [`Run`] — a short-lived
//! borrow of the world, a clock and a `Metrics` — which is the one
//! [`Substrate`] of the simulator (the other one in the workspace is
//! `rgb-net`'s reactor). Every protocol output is interpreted by the shared
//! [`rgb_core::substrate::apply_outputs`] driver, which wire-encodes each
//! send — so **every delivery in the simulated world crosses
//! [`rgb_core::wire`]**, byte-for-byte the same codec the live runtime puts
//! on its channels, and is decoded again on arrival. The wireless MH→AP hop
//! travels as an encoded [`Msg::FromMh`] frame for the same reason.
//!
//! ## Hot-path layout
//!
//! The dispatch loop ([`Run::step`] / [`Run::inject`]) runs entirely on
//! dense, precomputed structures:
//!
//! - node state and deliveries live in `Vec`s indexed by arena slot — no
//!   `BTreeMap`/`BTreeSet` in `step()`;
//! - everything else the engine keeps per node — crash flag, timer
//!   generation, live timers, emission counter, random stream, latency
//!   anchors — is **one packed slot per node** (`NodeSlot`): a delivery, its
//!   ack and the timers they arm touch one 208-byte slot whose live timers
//!   sit inline ([`rgb_core::substrate::TimerSet`]), not six parallel
//!   arrays on six pages;
//! - link classification is a [`LinkClassMatrix`] lookup precomputed at
//!   construction — no per-send `placement()` walks;
//! - send counters are fixed-slot arrays keyed by [`MsgLabel`] and
//!   [`LinkClass`] ([`Metrics::record_send`]);
//! - timers are generation-stamped slots whose queue entries drain through
//!   the shared timer wheel ([`rgb_core::wheel`]), so re-armed periodic
//!   timers stop accumulating stale heap entries;
//! - frames are pooled, and still encoded and decoded once per delivery:
//!   [`Run::step`] returns each delivered frame to a bounded [`FramePool`]
//!   and the next send encodes into a buffer taken from it
//!   ([`Substrate::frame_buf`]), so in steady state the wire round trip
//!   allocates nothing. A cross-shard frame is recycled by the world that
//!   decodes it.
//!
//! ## Execution-order-independent determinism
//!
//! Randomness and event ordering are both keyed by **provenance**, not by
//! global execution order:
//!
//! - every node draws latency/loss/duplication samples from its **own
//!   [`SplitMix64`] stream** (seeded from `(seed, node id)`), and every
//!   mobile host's wireless hop from a per-GUID stream resolved at
//!   schedule time ([`Schedule`]);
//! - every queued event carries a deterministic key (the crate-private
//!   `queue` module's `EventKey`) derived from its creator — by its dense
//!   index in the *layout*, whichever world holds it — and that creator's
//!   emission counter.
//!
//! A node's behaviour therefore depends only on the sequence of inputs
//! *it* receives — never on how the engine interleaved *other* nodes in
//! between, nor on which world they live in. A part processing its slice of
//! events in `(at, key)` order performs bit-for-bit the transitions the
//! whole world performs for those nodes; the window protocol of
//! [`crate::par`] only has to guarantee that no event arrives after its
//! window was processed.

use crate::metrics::Metrics;
use crate::network::{LinkClass, LinkClassMatrix, NetworkModel};
use crate::obs::EngineObs;
use crate::par::partition::ShardMap;
use crate::queue::{Event, EventKey, EventKind, EventQueue};
use crate::rng::SplitMix64;
use crate::sim::MemoryStats;
use bytes::{Bytes, BytesMut};
use rgb_core::node::NodeState;
use rgb_core::obs::{LatencySample, NodeLatency};
use rgb_core::prelude::*;
use rgb_core::substrate::{FramePool, TimerSet};
use rgb_core::topology::HierarchyLayout;
use rgb_core::wire;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Stream-id salt of per-node RNG streams (XORed with the node id).
const NODE_STREAM_SALT: u64 = 0x4e4f_4445_0000_0000; // "NODE"
/// Stream-id salt of per-MH wireless streams (XORed with the GUID).
const MH_STREAM_SALT: u64 = 0x7769_7265_6c65_7373; // "wireless"
/// Stream id of the fallback stream for sends from outside the layout.
const EXT_STREAM_SALT: u64 = 0x4558_5445_524e_414c; // "EXTERNAL"
/// `src` slot marking runtime events created outside the layout.
const EXT_SRC: u32 = u32::MAX;

/// Everything a world keeps per node beside its protocol state, packed so
/// that one event at a node touches one slot ([`World`]'s `slots`, indexed
/// like its arena). Declaration order is layout order (`repr(C)`): the
/// scalars every event reads come first, directly followed by the head of
/// the timer set, so a token hop stays within the slot's first two cache
/// lines; the ring anchor a token or ack clears is among those scalars.
#[derive(Debug, Clone)]
#[repr(C)]
struct NodeSlot {
    /// Timer generation counter (the stamp of the latest arm).
    gen: u64,
    /// Event-emission counter (the `seq` of this node's [`EventKey`]s).
    emit: u64,
    /// The node's private random stream — its draws depend only on its own
    /// activity, never on engine interleaving.
    rng: SplitMix64,
    /// Open repair, reattach and query intervals.
    latency: NodeLatency,
    /// The node crashed: its deliveries and timers are dropped.
    crashed: bool,
    /// Live timers.
    timers: TimerSet,
}

impl NodeSlot {
    /// The slot of node `id`. Streams are keyed by the stable [`NodeId`]
    /// (not a dense index), so any engine covering any subset of the layout
    /// derives identical streams for identical nodes.
    fn new(seed: u64, id: NodeId) -> Self {
        NodeSlot {
            gen: 0,
            emit: 0,
            rng: SplitMix64::stream(seed, NODE_STREAM_SALT ^ id.0),
            latency: NodeLatency::default(),
            crashed: false,
            timers: TimerSet::default(),
        }
    }

    /// Arm `kind`: stamps a fresh generation and reserves the emission
    /// number of the queue entry. Returns `(gen, emission seq)`.
    #[inline]
    fn arm_timer(&mut self, kind: TimerKind) -> (u64, u64) {
        self.gen += 1;
        self.timers.arm(kind, self.gen);
        let seq = self.emit;
        self.emit += 1;
        (self.gen, seq)
    }
}

/// The GUID an [`MhEvent`] concerns (its wireless-stream key).
fn mh_guid(event: &MhEvent) -> Guid {
    match event {
        MhEvent::Join { guid, .. }
        | MhEvent::Leave { guid }
        | MhEvent::HandoffIn { guid, .. }
        | MhEvent::FailureDetected { guid }
        | MhEvent::Disconnect { guid }
        | MhEvent::Resume { guid, .. } => *guid,
    }
}

/// The scenario's scheduled events, built in one place for both engines:
/// the schedule counter behind their keys and the wireless MH→AP hop.
///
/// A mobile-host event's loss, latency and per-MH FIFO floor depend only
/// on the schedule itself and the MH's private random stream — nothing the
/// simulation computes feeds back into them — so the whole hop is resolved
/// the moment the event is scheduled and only the resulting
/// [`EventKind::MhDeliver`] is queued (or the loss counted). This keeps the
/// per-GUID FIFO state out of the hot path entirely, and out of the
/// sharded engine's cross-shard state.
///
/// Keys are assigned in schedule order, so two engines that schedule the
/// same plan in the same order hold identical keys. The engines differ
/// only in where the returned [`Event`] lands: the whole world's own queue
/// (ids outside the layout included), or the queue of the shard that holds
/// its node.
#[derive(Debug)]
pub(crate) struct Schedule {
    seed: u64,
    gid: GroupId,
    net: NetworkModel,
    /// Events scheduled so far (the `seq` of the next [`EventKey`]).
    seq: u64,
    streams: BTreeMap<Guid, SplitMix64>,
    /// Last wireless delivery time per MH: the hop is FIFO per MH
    /// (link-layer ordering), so a host's Leave can never overtake its own
    /// Join despite latency jitter.
    last_delivery: BTreeMap<Guid, u64>,
}

impl Schedule {
    pub fn new(seed: u64, gid: GroupId, net: NetworkModel) -> Self {
        let (streams, last_delivery) = (BTreeMap::new(), BTreeMap::new());
        Schedule { seed, gid, net, seq: 0, streams, last_delivery }
    }

    fn event(&mut self, at: u64, kind: EventKind) -> Event {
        let key = EventKey::scheduled(self.seq);
        self.seq += 1;
        Event { at, key, kind }
    }

    /// A mobile-host event sent to `ap` at `send_at`: counts the send in
    /// `metrics`, samples loss and latency from the MH's stream and applies
    /// the per-MH FIFO floor. `None` when the wireless hop lost it (counted,
    /// and no key is spent).
    pub fn mh(
        &mut self,
        send_at: u64,
        ap: NodeId,
        event: MhEvent,
        metrics: &mut Metrics,
    ) -> Option<Event> {
        metrics.record_send(MsgLabel::FromMh, LinkClass::Wireless);
        let guid = mh_guid(&event);
        let seed = self.seed;
        let rng = self
            .streams
            .entry(guid)
            .or_insert_with(|| SplitMix64::stream(seed, MH_STREAM_SALT ^ guid.0));
        if self.net.lost(LinkClass::Wireless, rng) {
            metrics.lost += 1;
            return None;
        }
        let latency = self.net.latency(LinkClass::Wireless, rng);
        let earliest = self.last_delivery.get(&guid).map(|&t| t.saturating_add(1)).unwrap_or(0);
        let at = send_at.saturating_add(latency).max(earliest);
        self.last_delivery.insert(guid, at);
        let frame = wire::encode(&Envelope { gid: self.gid, msg: Msg::FromMh { event } });
        Some(self.event(at, EventKind::MhDeliver { ap, frame }))
    }

    /// A crash of `node` at `at`.
    pub fn crash(&mut self, at: u64, node: NodeId) -> Event {
        self.event(at, EventKind::Crash { node })
    }

    /// A membership query issued at `node` at `at`.
    pub fn query(&mut self, at: u64, node: NodeId, scope: QueryScope) -> Event {
        self.event(at, EventKind::QueryStart { node, scope })
    }

    /// The two transitions of a timed link partition scheduled at `now`
    /// (see [`LinkPartition`]). Frames already in flight when the partition
    /// starts still arrive.
    pub fn partition(&mut self, now: u64, p: LinkPartition) -> [Event; 2] {
        debug_assert!(p.heal_at > p.at, "validated by Scenario");
        let (a, b) = (p.a, p.b);
        [
            self.event(now.saturating_add(p.at), EventKind::PartitionStart { a, b }),
            self.event(now.saturating_add(p.heal_at), EventKind::PartitionHeal { a, b }),
        ]
    }
}

/// Which shard of a partitioned layout a [`World`] is.
#[derive(Debug)]
pub(crate) struct Part {
    /// This world's shard in `map`.
    pub id: usize,
    pub map: Arc<ShardMap>,
}

/// The unordered NE pair `a`–`b` as the severed-pair list stores it.
fn pair_of(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A set of whole rings under simulation (see the module docs). All arena
/// `Vec`s are indexed by slot, in ascending node-id order.
#[derive(Debug)]
pub(crate) struct World {
    /// Group id: frames carrying any other are rejected.
    gid: GroupId,
    /// Protocol state of every NE held.
    pub nodes: Vec<NodeState>,
    /// Engine-side state of every NE held, one [`NodeSlot`] each.
    slots: Vec<NodeSlot>,
    /// NEs whose scheduled crash this world processed, by id (cold mirror
    /// of the slots' flags for reports and oracles; the whole world also
    /// keeps ids outside the layout here).
    pub crashed_ids: BTreeSet<NodeId>,
    /// Application deliveries per node, with timestamps.
    pub delivered: Vec<Vec<(u64, AppEvent)>>,
    /// Per-node retention cap on `delivered` (opt-in; `usize::MAX` keeps
    /// everything).
    pub delivered_cap: usize,
    pub events: EventQueue,
    /// Staged frames for other shards, by destination shard; the window
    /// driver flushes them — one batch per destination per window, not one
    /// channel op per frame. Always empty in the whole world.
    pub outbox: Vec<Vec<Event>>,
    /// Stream + counter for runtime events created outside the layout.
    ext_rng: SplitMix64,
    ext_emit: u64,
    /// Currently severed NE pairs (normalised `(min, max)`), maintained by
    /// the scheduled [`LinkPartition`] events — in a part, those with an
    /// endpoint it holds. A pair appears once per active window, so
    /// overlapping partitions on the same pair refcount naturally: the link
    /// heals only when its *last* window ends. Almost always empty, so the
    /// hot-path check is a single `is_empty` load.
    partitioned: Vec<(NodeId, NodeId)>,
    /// Reusable output buffer for the hot loop (no per-input allocation).
    out_buf: OutputSink,
    /// Delivered frames' buffers, reused by the next sends.
    pub frames: FramePool,
    /// Observability hooks over the nodes held (disabled by default).
    /// Ring-wholesale sharding keeps every `(ring, change)` join interval
    /// in one world, and every repair and query interval lives in its
    /// node's slot, so the per-level histograms of the parts merge to the
    /// whole world's exactly.
    pub obs: EngineObs,
    net: NetworkModel,
    // Shared, immutable facts of the layout.
    indexer: Arc<NodeIndexer>,
    classes: Arc<LinkClassMatrix>,
    /// `None`: the whole layout.
    part: Option<Part>,
}

impl World {
    /// The world of `part` (`None`: the whole of `layout`), every node
    /// running `cfg`. Per-node streams depend on `seed` and the node id
    /// alone.
    pub fn new(
        layout: &HierarchyLayout,
        cfg: &ProtocolConfig,
        net: NetworkModel,
        seed: u64,
        indexer: Arc<NodeIndexer>,
        classes: Arc<LinkClassMatrix>,
        part: Option<Part>,
    ) -> Self {
        let ids: Vec<NodeId> = match &part {
            None => indexer.iter().map(|(_, id)| id).collect(),
            Some(p) => p.map.members[p.id].iter().map(|&g| indexer.id_of(g)).collect(),
        };
        let ring_counts = layout.level_ring_counts();
        let nodes = ids
            .iter()
            .map(|&id| {
                NodeState::from_layout_with_counts(layout, id, cfg.clone(), &ring_counts)
                    .expect("valid layout")
            })
            .collect();
        World {
            gid: layout.gid,
            nodes,
            slots: ids.iter().map(|&id| NodeSlot::new(seed, id)).collect(),
            crashed_ids: BTreeSet::new(),
            delivered: vec![Vec::new(); ids.len()],
            delivered_cap: usize::MAX,
            events: EventQueue::default(),
            outbox: vec![Vec::new(); part.as_ref().map_or(0, |p| p.map.shards)],
            ext_rng: SplitMix64::stream(seed, EXT_STREAM_SALT),
            ext_emit: 0,
            partitioned: Vec::new(),
            out_buf: OutputSink::new(),
            frames: FramePool::default(),
            obs: EngineObs::new(layout),
            net,
            indexer,
            classes,
            part,
        }
    }

    /// The placement: the arena slot of dense index `g` in the world that
    /// holds it, and that world's shard when it is not this one.
    #[inline]
    fn locate(&self, g: NodeIdx) -> (NodeIdx, Option<usize>) {
        match &self.part {
            None => (g, None),
            Some(p) => {
                let shard = p.map.shard_of(g);
                (p.map.local_of(g), (shard != p.id).then_some(shard))
            }
        }
    }

    /// Dense index in the layout and arena slot of `id`, when this world
    /// holds it (`None` outside the layout or in another shard).
    #[inline]
    fn held(&self, id: NodeId) -> Option<(NodeIdx, usize)> {
        let g = self.indexer.index_of(id)?;
        match self.locate(g) {
            (slot, None) => Some((g, slot.as_usize())),
            _ => None,
        }
    }

    /// Arena slot of `id`, when this world holds it.
    #[inline]
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.held(id).map(|(_, slot)| slot)
    }

    /// Whether `node` has crashed, as far as this world knows.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        match self.slot_of(node) {
            Some(slot) => self.slots[slot].crashed,
            None => self.crashed_ids.contains(&node),
        }
    }

    /// Whether the (unordered) pair `a`–`b` is currently severed.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned.contains(&pair_of(a, b))
    }

    /// Alive nodes in arena (ascending id) order, each with its dense index
    /// in the layout.
    pub fn alive(&self) -> impl Iterator<Item = (NodeIdx, &NodeState)> + '_ {
        let members = self.part.as_ref().map(|p| p.map.members[p.id].as_slice());
        self.nodes
            .iter()
            .zip(&self.slots)
            .enumerate()
            .filter(|(_, (_, slot))| !slot.crashed)
            .map(move |(i, (node, _))| (members.map_or(NodeIdx(i as u32), |m| m[i]), node))
    }

    /// Queue an event addressed to this world (a scheduled event, or one
    /// drained from its mailbox).
    pub fn enqueue(&mut self, now: u64, event: Event) {
        debug_assert!(event.at >= now, "event arrived after its window");
        self.events.push(event);
    }

    /// Approximate resident memory of this world's per-node state: the
    /// node arena, timer slots, delivered-event buffers and the event
    /// queue. See [`MemoryStats`] for what is (and is not) counted.
    pub fn memory_stats(&self) -> MemoryStats {
        use std::mem::size_of;
        MemoryStats {
            nodes: self.nodes.len(),
            node_state_bytes: self.nodes.iter().map(|n| n.approx_bytes()).sum(),
            timer_bytes: self.slots.iter().map(|s| s.timers.approx_bytes()).sum(),
            delivered_bytes: (self.delivered.iter())
                .map(|d| size_of::<Vec<(u64, AppEvent)>>() + d.len() * size_of::<(u64, AppEvent)>())
                .sum(),
            queue_entries: self.events.len(),
            queue_bytes: self.events.retained_bytes(),
        }
    }

    /// Drive this world on `now` and `metrics`.
    pub fn run<'a>(&'a mut self, now: &'a mut u64, metrics: &'a mut Metrics) -> Run<'a> {
        Run { world: self, now, metrics }
    }
}

/// A [`World`] being driven: the world plus the clock and the metrics of
/// whoever owns it, borrowed for as long as events are dispatched.
pub(crate) struct Run<'a> {
    world: &'a mut World,
    now: &'a mut u64,
    metrics: &'a mut Metrics,
}

impl Run<'_> {
    /// Boot every node held.
    pub fn boot_all(&mut self) {
        for slot in 0..self.world.nodes.len() {
            self.inject(slot, Input::Boot);
        }
    }

    /// Deliver an input to the node at `slot` right now and process the
    /// outputs through the shared [`apply_outputs`] driver (sends are
    /// wire-encoded). A crashed node ignores it. This is the one point where
    /// an input reaches a node, so it is where obs sees inputs: the trace
    /// sees every input offered (a query issued at a crashed node is still
    /// a `QueryIssue`), the latency tracker only those the node handles.
    pub fn inject(&mut self, slot: usize, input: Input) {
        let world = &mut *self.world;
        let now = *self.now;
        let node = &mut world.nodes[slot];
        world.obs.on_input(now, node, &input);
        let state = &mut world.slots[slot];
        if state.crashed {
            return;
        }
        state.latency.on_input(now, &input);
        let mut outs = std::mem::take(&mut world.out_buf);
        node.handle_into(input, &mut outs);
        let (gid, id) = (world.gid, node.id);
        apply_outputs(self, gid, id, &mut outs);
        self.world.out_buf = outs;
    }

    /// Decode an arrived frame and feed it to the node at slot `to`. Frames
    /// that fail to decode or carry a foreign group id are dropped and
    /// counted, exactly like the live runtime's receive path.
    fn deliver_frame(&mut self, from: NodeId, to: Option<NodeIdx>, frame: &Bytes) {
        match wire::decode(frame) {
            Ok(env) if env.gid == self.world.gid => {
                if let Some(slot) = to {
                    self.inject(slot.as_usize(), Input::Msg { from, msg: env.msg });
                }
            }
            _ => self.metrics.codec_rejected += 1,
        }
    }

    /// Process every queued event with `at <= horizon`, in `(at, key)`
    /// order, and return how many. The clock only moves forward: it ends at
    /// `horizon` unless it was already past it (a peer-lagged window under
    /// per-pair lookahead processes nothing and leaves the clock alone).
    pub fn run_until(&mut self, horizon: u64) -> u64 {
        let mut processed = 0;
        while self.world.events.peek_at().is_some_and(|at| at <= horizon) {
            self.step();
            processed += 1;
        }
        *self.now = (*self.now).max(horizon);
        processed
    }

    /// Pop and dispatch the next event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(Event { at, kind, .. }) = self.world.events.pop() else { return false };
        *self.now = (*self.now).max(at);
        let now = *self.now;
        match kind {
            EventKind::Deliver { from, to, frame } => {
                let crashed = to.is_some_and(|slot| self.world.slots[slot.as_usize()].crashed);
                if !crashed {
                    self.deliver_frame(from, to, &frame);
                }
                self.world.frames.recycle(frame);
            }
            EventKind::Timer { node, kind, gen } => {
                // Only fire if this is still the live generation of the
                // timer: a re-arm or cancel since this entry was queued
                // bumped or removed the slot, marking the entry stale.
                let i = node.as_usize();
                let slot = &mut self.world.slots[i];
                if !slot.crashed && slot.timers.fire(gen) {
                    self.metrics.record_timer_fire(kind);
                    self.inject(i, Input::Timer(kind));
                } else {
                    self.metrics.stale_timer_skips += 1;
                }
            }
            EventKind::MhDeliver { ap, frame } => {
                let slot = self.world.slot_of(ap);
                let crashed = slot.is_some_and(|i| self.world.slots[i].crashed);
                if !crashed {
                    match wire::decode(&frame) {
                        Ok(env) if env.gid == self.world.gid => {
                            if let Msg::FromMh { event } = env.msg {
                                if let Some(i) = slot {
                                    self.inject(i, Input::Mh(event));
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
                self.world.crashed_ids.insert(node);
                if let Some(i) = self.world.slot_of(node) {
                    self.world.slots[i].crashed = true;
                    self.world.slots[i].timers.clear();
                    self.world.obs.on_crash(now, &self.world.nodes[i]);
                }
            }
            EventKind::QueryStart { node, scope } => {
                if let Some(i) = self.world.slot_of(node) {
                    self.inject(i, Input::StartQuery { scope });
                }
            }
            EventKind::PartitionStart { a, b } => {
                self.trace_partition(a, true);
                // One entry per active window (no dedup): a heal removes
                // one entry, so overlapping windows keep the pair severed
                // until the last of them ends.
                self.world.partitioned.push(pair_of(a, b));
            }
            EventKind::PartitionHeal { a, b } => {
                self.trace_partition(a, false);
                let pair = pair_of(a, b);
                if let Some(pos) = self.world.partitioned.iter().position(|&p| p == pair) {
                    self.world.partitioned.swap_remove(pos);
                }
            }
        }
        true
    }

    /// Trace a partition transition at endpoint `a` only, and only in the
    /// world that holds it: the parallel engine replicates the transitions
    /// to the shards of both endpoints, and one record must come of it, as
    /// from the whole world.
    fn trace_partition(&mut self, a: NodeId, start: bool) {
        if let Some(i) = self.world.slot_of(a) {
            self.world.obs.on_partition(*self.now, &self.world.nodes[i], start);
        }
    }
}

impl Substrate for Run<'_> {
    fn now(&self) -> u64 {
        *self.now
    }

    fn send_frame(&mut self, from: NodeId, to: NodeId, label: MsgLabel, frame: Bytes) {
        let world = &mut *self.world;
        let now = *self.now;
        let fi = world.indexer.index_of(from);
        let ti = world.indexer.index_of(to);
        let class = world.classes.classify(fi, ti);
        self.metrics.record_send(label, class);
        if !world.partitioned.is_empty() && world.is_partitioned(from, to) {
            self.metrics.partition_dropped += 1;
            return;
        }
        // The destination's slot in the world that holds it (what that
        // world's arenas are keyed by), and where the frame is queued: here,
        // or staged for that world's shard.
        let (to, away) = match ti {
            Some(g) => {
                let (slot, away) = world.locate(g);
                (Some(slot), away)
            }
            None => (None, None),
        };
        // The sender's private stream and emission counter: both the frame
        // fate and the event key derive from the sender alone, and the key
        // names it by its index in the layout, not by its slot here.
        let (rng, src, emit) = match fi {
            Some(g) => {
                let (slot, away) = world.locate(g);
                debug_assert!(away.is_none(), "send from a node held by shard {away:?}");
                let slot = &mut world.slots[slot.as_usize()];
                (&mut slot.rng, g.0, &mut slot.emit)
            }
            None => (&mut world.ext_rng, EXT_SRC, &mut world.ext_emit),
        };
        let Some(plan) = world.net.plan_frame(class, rng) else {
            self.metrics.lost += 1;
            return;
        };
        if plan.reordered {
            self.metrics.reordered += 1;
        }
        let mut queue = |latency: u64, key: EventKey, frame: Bytes| {
            let kind = EventKind::Deliver { from, to, frame };
            let event = Event { at: now.saturating_add(latency), key, kind };
            match away {
                Some(shard) => world.outbox[shard].push(event),
                None => world.events.push(event),
            }
        };
        if let Some(dup_latency) = plan.dup_latency {
            self.metrics.duplicated += 1;
            queue(dup_latency, EventKey::emitted(src, *emit), frame.clone());
            *emit += 1;
        }
        queue(plan.latency, EventKey::emitted(src, *emit), frame);
        *emit += 1;
    }

    fn arm_timer(&mut self, node: NodeId, kind: TimerKind, after: u64) {
        let Some((g, slot)) = self.world.held(node) else { return };
        let (gen, seq) = self.world.slots[slot].arm_timer(kind);
        self.world.events.push(Event {
            at: self.now.saturating_add(after),
            key: EventKey::emitted(g.0, seq),
            kind: EventKind::Timer { node: NodeIdx(slot as u32), kind, gen },
        });
    }

    fn cancel_timer(&mut self, node: NodeId, kind: TimerKind) {
        let Some(slot) = self.world.slot_of(node) else { return };
        self.world.slots[slot].timers.cancel(kind);
    }

    fn deliver_app(&mut self, node: NodeId, event: AppEvent) {
        self.metrics.app_events += 1;
        let world = &mut *self.world;
        let Some(i) = world.slot_of(node) else { return };
        let now = *self.now;
        let sample = world.slots[i].latency.on_app(now, &event);
        if let Some(LatencySample::Query(dt)) = sample {
            self.metrics.query_latency.record(dt);
        }
        world.obs.on_app(now, &world.nodes[i], &event, sample, self.metrics);
        let log = &mut world.delivered[i];
        if log.len() < world.delivered_cap {
            log.push((*self.now, event));
        } else {
            self.metrics.app_events_dropped += 1;
        }
    }

    fn frame_buf(&mut self) -> BytesMut {
        self.world.frames.get()
    }
}
