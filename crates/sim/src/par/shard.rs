//! One shard of the parallel engine: a local slice of the node arena with
//! its own event queue (timer wheel), metrics, per-node random streams and
//! partition state.
//!
//! A shard is a [`Substrate`] exactly like the sequential
//! [`crate::sim::Simulation`] — protocol outputs flow through the shared
//! [`rgb_core::substrate::apply_outputs`] driver, frames are wire-encoded
//! and decoded on arrival — but its arenas are indexed by **shard-local**
//! dense indices, and a frame whose destination lives on another shard is
//! staged in the per-destination outbox instead of the local queue. The
//! driver ([`crate::par::ParSimulation`]) flushes outboxes into
//! cross-shard mailboxes at every window barrier.
//!
//! Because randomness and event keys derive from node identity (see the
//! [`crate::sim`] module docs), a shard processing its slice of events in
//! `(at, key)` order performs *bit-for-bit* the same node transitions the
//! sequential engine performs for those nodes — the window protocol only
//! has to guarantee that no event arrives after its window was processed.
//!
//! ## Hot-path layout
//!
//! The same as the sequential engine's, from the same types: the engine
//! side of every local node is one packed `NodeSlot` (crash flag, timer
//! generation and inline live timers, emission counter, random stream,
//! query clock — see the [`crate::sim`] module docs) next to the node
//! arena, and the shard's wheel releases a bucket's buffer when the bucket
//! drains, so a shard's resident memory follows its queue, not its
//! history.

use crate::metrics::Metrics;
use crate::network::{LinkClassMatrix, NetworkModel};
use crate::obs::EngineObs;
use crate::par::partition::ShardMap;
use crate::queue::{Event, EventKey, EventKind, EventQueue, NodeSlot, QueueKind};
use crate::rng::SplitMix64;
use crate::sim::{MemoryStats, EXT_SRC, EXT_STREAM_SALT, NO_QUERY};
use bytes::{Bytes, BytesMut};
use rgb_core::node::NodeState;
use rgb_core::prelude::*;
use rgb_core::substrate::FramePool;
use rgb_core::topology::{HierarchyLayout, NodeIdx, NodeIndexer};
use rgb_core::wire;
use std::sync::Arc;

/// One shard's runtime state. All `Vec`s are indexed by the shard-local
/// dense index (`ShardMap::local_of`).
#[derive(Debug)]
pub(crate) struct Shard {
    /// This shard's slot in the [`ShardMap`].
    pub id: usize,
    /// Group id (frames carrying any other gid are rejected, as in the
    /// sequential engine).
    gid: GroupId,
    /// Local clock: advanced by event pops, pinned to the window horizon
    /// at each barrier.
    pub now: u64,
    /// Local → global index.
    globals: Vec<NodeIdx>,
    /// Local → node id.
    node_ids: Vec<NodeId>,
    nodes: Vec<NodeState>,
    /// Engine-side per-node state, the sequential engine's slot type.
    slots: Vec<NodeSlot>,
    delivered: Vec<Vec<(u64, AppEvent)>>,
    delivered_cap: usize,
    ext_rng: SplitMix64,
    ext_emit: u64,
    events: EventQueue,
    /// This shard's share of the run metrics (merged by the driver).
    pub metrics: Metrics,
    /// Severed NE pairs this shard owns an endpoint of.
    partitioned: Vec<(NodeId, NodeId)>,
    out_buf: OutputSink,
    /// Delivered frames' buffers, reused by the next sends. A cross-shard
    /// frame is recycled by the shard that decodes it.
    pub(crate) frames: FramePool,
    /// Events this shard processed (throughput accounting).
    pub processed: u64,
    /// Staged cross-shard events, by destination shard; flushed into the
    /// mailboxes at each window barrier — one batch per destination per
    /// window, not one channel op per frame.
    pub outbox: Vec<Vec<Event>>,
    /// Recycled batch buffers: emptied by [`Shard::drain_batches`], handed
    /// back to [`Shard::flush_batches`] so the steady-state window loop
    /// allocates nothing.
    spare: Vec<Vec<Event>>,
    /// Observability hooks over this shard's slice of nodes. Ring-wholesale
    /// sharding keeps every `(ring, change)` join interval and every
    /// node-local repair interval on one shard, so the merged per-level
    /// histograms equal the sequential engine's exactly.
    pub(crate) obs: EngineObs,
    // Shared, immutable world state.
    indexer: Arc<NodeIndexer>,
    classes: Arc<LinkClassMatrix>,
    map: Arc<ShardMap>,
    net: NetworkModel,
}

impl Shard {
    /// Build shard `id` over its slice of `layout`, with per-node streams
    /// identical to the sequential engine's.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        layout: &HierarchyLayout,
        cfg: &ProtocolConfig,
        net: NetworkModel,
        seed: u64,
        indexer: Arc<NodeIndexer>,
        classes: Arc<LinkClassMatrix>,
        map: Arc<ShardMap>,
    ) -> Self {
        let globals: Vec<NodeIdx> = map.members[id].clone();
        let node_ids: Vec<NodeId> = globals.iter().map(|&g| indexer.id_of(g)).collect();
        let ring_counts = layout.level_ring_counts();
        let nodes: Vec<NodeState> = node_ids
            .iter()
            .map(|&nid| {
                NodeState::from_layout_with_counts(layout, nid, cfg.clone(), &ring_counts)
                    .expect("valid layout")
            })
            .collect();
        let slots = node_ids.iter().map(|&nid| NodeSlot::new(seed, nid)).collect();
        let n = globals.len();
        let obs = EngineObs::new(&node_ids, layout);
        Shard {
            id,
            gid: layout.gid,
            now: 0,
            globals,
            node_ids,
            nodes,
            slots,
            delivered: vec![Vec::new(); n],
            delivered_cap: usize::MAX,
            ext_rng: SplitMix64::stream(seed, EXT_STREAM_SALT),
            ext_emit: 0,
            events: EventQueue::new(QueueKind::TimerWheel),
            metrics: Metrics::default(),
            partitioned: Vec::new(),
            out_buf: OutputSink::new(),
            frames: FramePool::default(),
            processed: 0,
            outbox: vec![Vec::new(); map.shards],
            spare: Vec::new(),
            obs,
            indexer,
            classes,
            map,
            net,
        }
    }

    /// Number of locally owned nodes.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Borrow the node at a shard-local index.
    pub fn node_at(&self, local: usize) -> &NodeState {
        &self.nodes[local]
    }

    /// Cap the per-node delivery log (see
    /// [`crate::sim::Simulation::set_delivered_cap`]).
    pub fn set_delivered_cap(&mut self, cap: usize) {
        self.delivered_cap = cap;
    }

    /// Boot every locally owned node.
    pub fn boot_all(&mut self) {
        for local in 0..self.nodes.len() {
            self.inject_local(local, Input::Boot);
        }
    }

    /// Queue an event addressed to this shard (the driver's schedule
    /// routing and the mailbox drain both land here).
    pub fn enqueue(&mut self, event: Event) {
        debug_assert!(event.at >= self.now, "event arrived after its window");
        self.events.push(self.now, event.at, event.key, event.kind);
    }

    /// Queued entries still to drain.
    pub fn queue_len(&self) -> usize {
        self.events.len()
    }

    /// Pending scheduled disruptions in the local queue.
    pub fn pending_disruptions(&self) -> usize {
        self.events.disruptions()
    }

    /// `(at, key)` of the next local event (the merged driver's probe).
    pub fn peek_entry(&mut self) -> Option<(u64, EventKey)> {
        self.events.peek_entry(self.now)
    }

    /// Process every local event with `at <= horizon`, in `(at, key)`
    /// order. Cross-shard sends land in [`Shard::outbox`]. The clock only
    /// moves forward: a horizon behind `now` (a peer-lagged window under
    /// per-pair lookahead) processes nothing and leaves the clock alone.
    pub fn run_window(&mut self, horizon: u64) {
        while self.events.peek_at(self.now).is_some_and(|at| at <= horizon) {
            self.step();
        }
        self.now = self.now.max(horizon);
    }

    /// `at` of the next local event, `u64::MAX` when the queue is empty —
    /// the windowed driver's published progress bound (idle-window
    /// skipping jumps every clock to the minimum of these).
    pub fn next_event_at(&mut self) -> u64 {
        self.events.peek_at(self.now).unwrap_or(u64::MAX)
    }

    /// Flush every non-empty outbox as **one batch per destination** into
    /// the cross-shard mailboxes. Returns the minimum `at` over every
    /// flushed event (`u64::MAX` when nothing was staged) — part of this
    /// shard's published progress bound, since a flushed event is pending
    /// work the destination has not yet seen.
    pub fn flush_batches(&mut self, txs: &[crossbeam::channel::Sender<Vec<Event>>]) -> u64 {
        let mut sent_min = u64::MAX;
        for (outbox, tx) in self.outbox.iter_mut().zip(txs) {
            if outbox.is_empty() {
                continue;
            }
            for event in outbox.iter() {
                sent_min = sent_min.min(event.at);
            }
            let batch = std::mem::replace(outbox, self.spare.pop().unwrap_or_default());
            self.metrics.par.frames_batched += batch.len() as u64;
            self.metrics.par.batches += 1;
            self.metrics.par.max_batch = self.metrics.par.max_batch.max(batch.len() as u64);
            // A closed mailbox means its owner already unwound; the
            // barrier wait after this flush surfaces the poisoning.
            let _ = tx.send(batch);
        }
        sent_min
    }

    /// Drain every batch currently in this shard's mailbox into the local
    /// queue, keeping the emptied buffers for later flushes.
    pub fn drain_batches(&mut self, rx: &crossbeam::channel::Receiver<Vec<Event>>) {
        // Bound the recycle pool so a bursty window can't pin its peak
        // buffer count forever.
        const SPARE_CAP: usize = 32;
        while let Ok(mut batch) = rx.try_recv() {
            for event in batch.drain(..) {
                self.enqueue(event);
            }
            if self.spare.len() < SPARE_CAP {
                self.spare.push(batch);
            }
        }
    }

    /// Pop and dispatch exactly one event (the merged driver's step).
    /// Returns `false` when the local queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Event { at, kind, .. }) = self.events.pop(self.now) else { return false };
        self.now = self.now.max(at);
        self.processed += 1;
        match kind {
            EventKind::Deliver { from, to, frame } => {
                let crashed = to.is_some_and(|local| self.slots[local.as_usize()].crashed);
                if !crashed {
                    self.deliver_frame(from, to, &frame);
                }
                self.frames.recycle(frame);
            }
            EventKind::Timer { node, kind, gen } => {
                let local = node.as_usize();
                let slot = &mut self.slots[local];
                if !slot.crashed && slot.timers.fire(gen) {
                    self.metrics.record_timer_fire(kind);
                    if self.obs.enabled {
                        self.obs.on_timer_fire(self.now, local, kind);
                    }
                    self.inject_local(local, Input::Timer(kind));
                } else {
                    self.metrics.stale_timer_skips += 1;
                }
            }
            EventKind::MhDeliver { ap, frame } => {
                let local = self.local_of_id(ap);
                let crashed = local.is_some_and(|l| self.slots[l].crashed);
                if !crashed {
                    match wire::decode(&frame) {
                        Ok(env) if env.gid == self.gid => {
                            if let Msg::FromMh { event } = env.msg {
                                if let Some(local) = local {
                                    self.inject_local(local, Input::Mh(event));
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
                if let Some(local) = self.local_of_id(node) {
                    self.slots[local].crashed = true;
                    self.slots[local].timers.clear();
                    if self.obs.enabled {
                        self.obs.on_crash(self.now, local);
                    }
                }
            }
            EventKind::QueryStart { node, scope } => {
                if let Some(local) = self.local_of_id(node) {
                    self.slots[local].query_started = self.now;
                    if self.obs.enabled {
                        self.obs.on_query_issue(self.now, local);
                    }
                    self.inject_local(local, Input::StartQuery { scope });
                }
            }
            EventKind::PartitionStart { a, b } => {
                // Partition arms are replicated to both endpoint owners;
                // only `a`'s owner traces, matching the sequential engine's
                // single record (`local_partition_of` skips the replica).
                if self.obs.enabled {
                    if let Some(local) = self.local_partition_of(a) {
                        self.obs.on_partition(self.now, local, true);
                    }
                }
                let pair = if a <= b { (a, b) } else { (b, a) };
                self.partitioned.push(pair);
            }
            EventKind::PartitionHeal { a, b } => {
                if self.obs.enabled {
                    if let Some(local) = self.local_partition_of(a) {
                        self.obs.on_partition(self.now, local, false);
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

    /// Local index of `id`, or `None` when `id` is outside the layout or
    /// owned by another shard (the driver routes events to owners, so the
    /// latter indicates a routing bug in debug builds).
    fn local_of_id(&self, id: NodeId) -> Option<usize> {
        let global = self.indexer.index_of(id)?;
        if self.map.shard_of(global) != self.id {
            debug_assert!(false, "event for {id} routed to shard {}", self.id);
            return None;
        }
        Some(self.map.local_of(global).as_usize())
    }

    /// Local index of partition endpoint `id` when this shard owns it,
    /// `None` otherwise — unlike [`Shard::local_of_id`] a foreign owner is
    /// *expected* here (partition arms are replicated to both endpoint
    /// owners), so no routing assertion fires.
    fn local_partition_of(&self, id: NodeId) -> Option<usize> {
        let global = self.indexer.index_of(id)?;
        if self.map.shard_of(global) != self.id {
            return None;
        }
        Some(self.map.local_of(global).as_usize())
    }

    fn inject_local(&mut self, local: usize, input: Input) {
        if self.slots[local].crashed {
            return;
        }
        let mut outs = std::mem::take(&mut self.out_buf);
        self.nodes[local].handle_into(input, &mut outs);
        let gid = self.gid;
        let id = self.node_ids[local];
        apply_outputs(self, gid, id, &mut outs);
        self.out_buf = outs;
    }

    fn deliver_frame(&mut self, from: NodeId, to: Option<NodeIdx>, frame: &Bytes) {
        match wire::decode(frame) {
            Ok(env) if env.gid == self.gid => {
                if let Some(local) = to {
                    if self.obs.enabled {
                        self.obs.on_msg(self.now, local.as_usize(), &env.msg);
                    }
                    self.inject_local(local.as_usize(), Input::Msg { from, msg: env.msg });
                }
            }
            _ => self.metrics.codec_rejected += 1,
        }
    }

    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.partitioned.contains(&pair)
    }

    /// Queue a runtime event locally or stage it for another shard.
    fn route(&mut self, dest: Option<usize>, at: u64, key: EventKey, kind: EventKind) {
        match dest {
            Some(s) if s != self.id => self.outbox[s].push(Event { at, key, kind }),
            _ => self.events.push(self.now, at, key, kind),
        }
    }

    /// Alive-node digests, as `(global index, digest)` for the driver to
    /// interleave in global id order.
    pub fn digests_into(&self, out: &mut Vec<(NodeIdx, StateDigest)>) {
        for (local, &global) in self.globals.iter().enumerate() {
            if !self.slots[local].crashed {
                out.push((global, self.nodes[local].digest()));
            }
        }
    }

    /// Final membership views of alive local nodes (scenario outcomes).
    pub fn views_into(&self, out: &mut Vec<(NodeId, std::collections::BTreeSet<Guid>)>) {
        for (local, &id) in self.node_ids.iter().enumerate() {
            if !self.slots[local].crashed {
                out.push((id, crate::scenario::operational_guids(&self.nodes[local].ring_members)));
            }
        }
    }

    /// This shard's contribution to [`MemoryStats`].
    pub fn memory_stats(&self) -> MemoryStats {
        crate::sim::memory_stats_of(&self.nodes, &self.slots, &self.delivered, &self.events)
    }
}

impl Substrate for Shard {
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
        // Sender-owned stream and emission counter — identical draws and
        // keys to the sequential engine for the same node activity. The
        // emission numbers are reserved up front so routing can take
        // `&mut self`.
        let (src, plan, seq) = match fi {
            Some(g) => {
                debug_assert_eq!(self.map.shard_of(g), self.id, "send from foreign node");
                let slot = &mut self.slots[self.map.local_of(g).as_usize()];
                let plan = self.net.plan_frame(class, &mut slot.rng);
                let reserve = plan.map_or(0, |p| 1 + u64::from(p.dup_latency.is_some()));
                let seq = slot.emit;
                slot.emit += reserve;
                (g.0, plan, seq)
            }
            None => {
                let plan = self.net.plan_frame(class, &mut self.ext_rng);
                let reserve = plan.map_or(0, |p| 1 + u64::from(p.dup_latency.is_some()));
                let seq = self.ext_emit;
                self.ext_emit += reserve;
                (EXT_SRC, plan, seq)
            }
        };
        let Some(plan) = plan else {
            self.metrics.lost += 1;
            return;
        };
        if plan.reordered {
            self.metrics.reordered += 1;
        }
        // Destination shard + destination-local index (what the owning
        // shard's arenas are keyed by).
        let (dest, to_local) = match ti {
            Some(g) => (Some(self.map.shard_of(g)), Some(self.map.local_of(g))),
            None => (None, None),
        };
        let mut seq = seq;
        if let Some(dup_latency) = plan.dup_latency {
            self.metrics.duplicated += 1;
            let key = EventKey::emitted(src, seq);
            seq += 1;
            self.route(
                dest,
                self.now.saturating_add(dup_latency),
                key,
                EventKind::Deliver { from, to: to_local, frame: frame.clone() },
            );
        }
        self.route(
            dest,
            self.now.saturating_add(plan.latency),
            EventKey::emitted(src, seq),
            EventKind::Deliver { from, to: to_local, frame },
        );
    }

    fn arm_timer(&mut self, node: NodeId, kind: TimerKind, after: u64) {
        let Some(global) = self.indexer.index_of(node) else { return };
        let Some(local) = self.local_of_id(node) else { return };
        let (gen, seq) = self.slots[local].arm_timer(kind);
        self.events.push(
            self.now,
            self.now.saturating_add(after),
            EventKey::emitted(global.0, seq),
            EventKind::Timer { node: NodeIdx(local as u32), kind, gen },
        );
    }

    fn cancel_timer(&mut self, node: NodeId, kind: TimerKind) {
        let Some(local) = self.local_of_id(node) else { return };
        self.slots[local].timers.cancel(kind);
    }

    fn deliver_app(&mut self, node: NodeId, event: AppEvent) {
        self.metrics.app_events += 1;
        let Some(local) = self.local_of_id(node) else { return };
        if let AppEvent::QueryResult { .. } = &event {
            let t0 = std::mem::replace(&mut self.slots[local].query_started, NO_QUERY);
            if t0 != NO_QUERY {
                let dt = self.now - t0;
                self.metrics.query_latency.record(dt);
                self.obs.on_query_done(local, dt, &mut self.metrics);
            }
        }
        if self.obs.enabled {
            self.obs.on_app(self.now, local, &event, &mut self.metrics);
        }
        let log = &mut self.delivered[local];
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
