//! The reactor-multiplexed live runtime: a small worker pool drives
//! thousands of sans-IO [`NodeState`]s per thread.
//!
//! This replaces the thread-per-node loop of earlier revisions. Each
//! **worker** owns a contiguous slice of the hierarchy (whole rings,
//! assigned by [`rgb_core::topology::HierarchyLayout::partition_rings`], so
//! intra-ring token traffic stays worker-local, and within one ring of an
//! even share of the NEs, so no worker is the slow one by construction),
//! one bounded mailbox of
//! [`ToWorker`] messages, one equally bounded run queue of frames between
//! its own nodes, and one wall-tick [`Wheel`] of timers — the simulator's
//! wheel ([`rgb_core::wheel`]), so same-tick timers fire in `(slot, gen)`
//! order whatever order they were armed in. The worker loop is a classic
//! reactor: fire due timers, drain a bounded batch of the run queue, then
//! block on the mailbox until the next timer deadline (capped, and only if
//! the run queue is empty) and drain a bounded batch of messages.
//!
//! All protocol outputs flow through the shared
//! [`rgb_core::substrate::apply_outputs`] driver against the
//! `ReactorSubstrate`, exactly as in the simulator, and the hot loop
//! reuses one [`OutputSink`] buffer so no `Vec<Output>` is allocated per
//! input. Every frame between nodes passes the [`Router`]'s partition test
//! and counters and the binary wire codec — encoded by the sender, decoded
//! by the one `deliver` helper — so the wire format stays exercised
//! end-to-end; only the mailbox is skipped when the sending worker hosts
//! the destination too, which whole-ring placement makes the case for all
//! but a fraction of a percent of frames. An event raised and consumed by
//! the same dispatch loop then crosses no thread primitive (the
//! non-threaded interpreter shape of arXiv 1510.03057): no lock, no
//! `futex`, no shared counter — the worker tallies its frames and
//! publishes them once per loop turn. A pair of nodes always takes the same
//! path, so per-(from, to) FIFO holds. The worker that decodes a frame
//! keeps its buffer in a bounded [`FramePool`] for its own next sends.

use crate::error::NetError;
use crate::transport::{Router, SendOutcome, ToWorker};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TrySendError};
use rgb_core::events::{AppEvent, Input, TimerKind};
use rgb_core::introspect::StateDigest;
use rgb_core::member::MemberList;
use rgb_core::message::MsgLabel;
use rgb_core::node::NodeState;
use rgb_core::obs::{LevelHistograms, NodeLatency};
use rgb_core::prelude::{GroupId, NodeId};
use rgb_core::substrate::{apply_outputs, FramePool, OutputSink, Substrate, TimerSet};
use rgb_core::topology::NodeIndexer;
use rgb_core::wheel::{Wheel, WheelEntry};
use rgb_core::wire;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a live reactor deployment is shaped: worker count, tick length,
/// mailbox bounds and the settle budget scenario replay may spend waiting
/// for convergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveConfig {
    /// Reactor worker threads. `0` means "one per available CPU"
    /// (`std::thread::available_parallelism`). The cluster never spawns
    /// more workers than the layout has rings.
    pub workers: usize,
    /// Real-time duration of one protocol tick.
    pub tick: Duration,
    /// Capacity of each worker's bounded mailbox. A full mailbox drops
    /// data-plane frames with a counter ([`ClusterStats`]); operator-API
    /// injections park instead.
    pub mailbox_capacity: usize,
    /// Capacity of the bounded application-event stream; overflow is
    /// dropped and counted, never buffered without bound.
    pub event_capacity: usize,
    /// Extra wall time scenario replay may poll for convergence after the
    /// nominal duration (live thread interleavings need a grace period the
    /// discrete-event world does not).
    pub settle: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            workers: 0,
            tick: Duration::from_millis(1),
            mailbox_capacity: 65_536,
            event_capacity: 65_536,
            settle: Duration::from_secs(15),
        }
    }
}

impl LiveConfig {
    /// Set the worker-thread count (`0` = one per available CPU).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the real-time duration of one protocol tick.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Set the per-worker mailbox capacity.
    pub fn with_mailbox_capacity(mut self, cap: usize) -> Self {
        self.mailbox_capacity = cap;
        self
    }

    /// Set the bounded application-event stream capacity.
    pub fn with_event_capacity(mut self, cap: usize) -> Self {
        self.event_capacity = cap;
        self
    }

    /// Set the scenario-replay settle budget.
    pub fn with_settle(mut self, settle: Duration) -> Self {
        self.settle = settle;
        self
    }

    /// Check every field is usable; the typed error names the offender.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.tick.is_zero() {
            return Err(NetError::InvalidConfig {
                field: "tick",
                reason: "must be non-zero".into(),
            });
        }
        if self.mailbox_capacity == 0 {
            return Err(NetError::InvalidConfig {
                field: "mailbox_capacity",
                reason: "must be at least 1".into(),
            });
        }
        if self.event_capacity == 0 {
            return Err(NetError::InvalidConfig {
                field: "event_capacity",
                reason: "must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The worker count this config resolves to on this machine.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        }
    }
}

/// A point-in-time copy of the interesting parts of a node's state.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The node.
    pub id: NodeId,
    /// Its current view epoch.
    pub epoch: u64,
    /// Its ring membership list.
    pub ring_members: MemberList,
    /// Locally attached members (APs).
    pub local_members: MemberList,
    /// Current ring roster size.
    pub roster_len: usize,
    /// Current leader, if any.
    pub leader: Option<NodeId>,
    /// RingOK flag.
    pub ring_ok: bool,
    /// Outbound frames **this node** failed to place: destination unknown
    /// or stopped, or the destination's mailbox or run queue was full. Genuinely
    /// per-node — cluster-wide totals live in [`ClusterStats`].
    pub dropped_frames: u64,
    /// Oracle-facing digest of the node's state — the same shape the
    /// simulator produces, so invariant oracles judge both substrates with
    /// identical code.
    pub digest: StateDigest,
}

/// Cluster-wide transport and delivery counters, read through
/// [`crate::cluster::Cluster::stats`]. These used to be misfiled as a
/// "per-node" snapshot field; they are global by construction (router
/// atomics shared by every worker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Frames placed for delivery: into a worker mailbox, or onto the
    /// sending worker's own run queue when it hosts the destination too.
    pub frames_sent: u64,
    /// Frames dropped because the destination was unknown or stopped.
    pub dropped_frames: u64,
    /// Frames dropped because the destination's mailbox (or run queue)
    /// was full.
    pub backpressure_dropped: u64,
    /// Frames swallowed by active link partitions.
    pub partition_dropped: u64,
    /// Application events delivered to the subscriber stream.
    pub app_events: u64,
    /// Application events dropped because the stream was full.
    pub app_events_dropped: u64,
    /// Received frames dropped at decode: corrupt bytes or a foreign
    /// group id — the same rejection the simulators count, so a live run
    /// and a simulated replay of one scenario expose comparable counters.
    pub codec_rejected: u64,
}

/// Frames one worker has placed, copied from its private tally once per
/// loop turn (the worker is the only writer).
#[derive(Debug, Default)]
pub(crate) struct WorkerFrames {
    /// Onto its own run queue (destination co-hosted).
    pub local: AtomicU64,
    /// Into a mailbox through the [`Router`].
    pub routed: AtomicU64,
}

/// Counters shared between every worker and the cluster handle.
#[derive(Debug, Default)]
pub(crate) struct ReactorShared {
    /// One slot per worker, in worker order.
    pub frames: Vec<WorkerFrames>,
    pub app_events: AtomicU64,
    pub app_events_dropped: AtomicU64,
    pub codec_rejected: AtomicU64,
    /// Per-ring-level latency surfaces: the repair and query samples each
    /// node's [`NodeLatency`] closes (join anchoring needs deterministic
    /// wire sightings and stays simulator-only). Workers take this lock
    /// only on the rare completion events, never per frame.
    pub latency: Mutex<LevelHistograms>,
}

/// Longest the worker loop blocks on its mailbox even with no timer due —
/// a liveness bound, not a correctness one.
const MAX_PARK: Duration = Duration::from_millis(50);
/// Frames drained per turn from the worker's run queue, and then messages
/// from its mailbox, before re-checking timers, so neither a flooded
/// mailbox nor a ring whose token never rests can starve timer fairness.
const DRAIN_BATCH: usize = 256;

/// Wall time in protocol ticks since a start instant, in `u64` nanoseconds
/// (584 years of them): reading the tick is one clock read and one 64-bit
/// division. Shared by the workers and [`crate::scenario::LiveEngine`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickClock {
    start: Instant,
    /// One tick in nanoseconds, at least 1.
    tick_ns: u64,
}

impl TickClock {
    pub(crate) fn new(start: Instant, tick: Duration) -> Self {
        TickClock { start, tick_ns: u64::try_from(tick.as_nanos()).unwrap_or(u64::MAX).max(1) }
    }

    fn elapsed_ns(&self) -> u64 {
        let elapsed = self.start.elapsed();
        elapsed
            .as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(elapsed.subsec_nanos().into())
    }

    /// The current tick.
    pub(crate) fn now(&self) -> u64 {
        self.elapsed_ns() / self.tick_ns
    }

    /// Wall-clock duration until tick `at`, zero if already past.
    fn until(&self, at: u64) -> Duration {
        Duration::from_nanos(at.saturating_mul(self.tick_ns).saturating_sub(self.elapsed_ns()))
    }
}

/// Which of a worker's slots hosts a node: the layout's dense
/// [`NodeIndexer`] (shared by the pool) in front of a per-worker table, so
/// a lookup is array loads and no hashing. A crashed node leaves the table.
struct LocalIndex {
    indexer: Arc<NodeIndexer>,
    /// Layout index → local slot + 1; 0 = not hosted by this worker.
    slots: Vec<u32>,
}

impl LocalIndex {
    fn new(indexer: Arc<NodeIndexer>, hosted: &[NodeState]) -> Self {
        let mut slots = vec![0u32; indexer.len()];
        for (slot, state) in hosted.iter().enumerate() {
            let idx = indexer.index_of(state.id).expect("hosted nodes come from the layout");
            slots[idx.as_usize()] = slot as u32 + 1;
        }
        LocalIndex { indexer, slots }
    }

    #[inline]
    fn get(&self, id: NodeId) -> Option<usize> {
        let idx = self.indexer.index_of(id)?;
        self.slots[idx.as_usize()].checked_sub(1).map(|slot| slot as usize)
    }

    /// Forget `id`, returning the slot it had.
    fn remove(&mut self, id: NodeId) -> Option<usize> {
        let entry = &mut self.slots[self.indexer.index_of(id)?.as_usize()];
        std::mem::take(entry).checked_sub(1).map(|slot| slot as usize)
    }
}

/// One armed timer on a worker's wheel: wall-tick deadline, then the key
/// `(slot, gen)` — the hosting worker's local node index and the generation
/// stamp that detects superseded entries — which orders one tick's timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: u64,
    slot: u32,
    gen: u64,
    kind: TimerKind,
}

impl WheelEntry for TimerEntry {
    /// 10 KB of timers; why a worker keeps a quarter of what the simulator
    /// keeps is in the `rgb_core::wheel` docs.
    const RELEASE_ENTRIES: usize = 256;

    fn at(&self) -> u64 {
        self.at
    }

    fn set_at(&mut self, at: u64) {
        self.at = at;
    }
}

/// One multiplexed node as a worker holds it: protocol state, the live
/// generation of each armed timer kind, the per-node outbound-drop counter
/// surfaced in [`NodeSnapshot`], and its open latency intervals.
struct MuxNode {
    state: NodeState,
    /// Live timers: per kind, the generation that is allowed to fire.
    /// Entries in the wheel with any other generation are stale and
    /// ignored.
    timers: TimerSet,
    next_gen: u64,
    dropped_frames: u64,
    latency: NodeLatency,
}

/// The reactor-worker implementation of the substrate layer: wall-tick
/// timers on the worker's wheel, frames through the shared [`Router`],
/// application events onto the bounded subscriber stream.
struct ReactorSubstrate<'a> {
    router: &'a Router,
    events: &'a Sender<(NodeId, AppEvent)>,
    shared: &'a ReactorShared,
    wheel: &'a mut Wheel<TimerEntry>,
    /// The hosted node the outputs came from.
    node: &'a mut MuxNode,
    frames: &'a mut FramePool,
    /// The sending worker's hosted nodes and its run queue: a frame for one
    /// of them is queued here instead of in the worker's own mailbox.
    index: &'a LocalIndex,
    local: &'a mut VecDeque<LocalFrame>,
    mailbox_capacity: usize,
    sent: &'a mut FrameTally,
    /// The hosted node's local index (what its wheel entries carry).
    slot: u32,
    now: u64,
}

impl Substrate for ReactorSubstrate<'_> {
    fn now(&self) -> u64 {
        self.now
    }

    fn send_frame(&mut self, from: NodeId, to: NodeId, _label: MsgLabel, frame: bytes::Bytes) {
        let outcome = match self.index.get(to) {
            Some(i) => {
                let admitted =
                    self.router.admit_local(from, to, self.local.len(), self.mailbox_capacity);
                if admitted == SendOutcome::Delivered {
                    self.local.push_back((from, i as u32, frame));
                    self.sent.local += 1;
                }
                admitted
            }
            None => {
                let routed = self.router.route(from, to, frame);
                if routed == SendOutcome::Delivered {
                    self.sent.routed += 1;
                }
                routed
            }
        };
        match outcome {
            SendOutcome::Delivered | SendOutcome::PartitionDropped => {}
            SendOutcome::Unroutable | SendOutcome::Backpressure => self.node.dropped_frames += 1,
        }
    }

    fn arm_timer(&mut self, _node: NodeId, kind: TimerKind, after: u64) {
        self.node.next_gen += 1;
        let gen = self.node.next_gen;
        self.node.timers.arm(kind, gen);
        let at = self.now.saturating_add(after);
        self.wheel.push(TimerEntry { at, slot: self.slot, gen, kind });
    }

    fn cancel_timer(&mut self, _node: NodeId, kind: TimerKind) {
        self.node.timers.cancel(kind);
    }

    fn deliver_app(&mut self, node: NodeId, event: AppEvent) {
        if let Some(sample) = self.node.latency.on_app(self.now, &event) {
            let mut latency = self.shared.latency.lock().unwrap_or_else(|e| e.into_inner());
            sample.record(latency.level_mut(self.node.state.level as u8));
        }
        match self.events.try_send((node, event)) {
            Ok(()) => {
                self.shared.app_events.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                self.shared.app_events_dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    fn frame_buf(&mut self) -> bytes::BytesMut {
        self.frames.get()
    }
}

/// A frame on a worker's run queue: sender, the destination's local index,
/// the encoded [`rgb_core::message::Envelope`].
type LocalFrame = (NodeId, u32, bytes::Bytes);

/// Frames a worker has placed so far: the private running totals behind
/// its [`WorkerFrames`] slot.
#[derive(Debug, Default)]
struct FrameTally {
    local: u64,
    routed: u64,
}

/// One reactor worker: the nodes it hosts, its mailbox, its run queue and
/// its wheel.
pub(crate) struct Worker {
    gid: GroupId,
    /// This worker's position in the pool (its [`WorkerFrames`] slot).
    worker: usize,
    clock: TickClock,
    rx: Receiver<ToWorker>,
    router: Router,
    events: Sender<(NodeId, AppEvent)>,
    shared: Arc<ReactorShared>,
    /// Hosted nodes; `None` marks a crashed one (its wheel entries drain
    /// as stale).
    nodes: Vec<Option<MuxNode>>,
    /// Live hosted nodes by id; a crashed node leaves it, so frames for it
    /// fall through to the [`Router`] and read `Unroutable`.
    index: LocalIndex,
    /// Frames between two nodes of this worker, waiting for their turn:
    /// bounded by `mailbox_capacity` like the mailbox they bypass.
    local: VecDeque<LocalFrame>,
    mailbox_capacity: usize,
    sent: FrameTally,
    wheel: Wheel<TimerEntry>,
    outs: OutputSink,
    /// Buffers of the frames this worker decoded, reused by its sends.
    frames: FramePool,
}

/// Everything a worker thread needs at spawn time.
pub(crate) struct WorkerSpec {
    pub gid: GroupId,
    pub worker: usize,
    pub clock: TickClock,
    pub indexer: Arc<NodeIndexer>,
    pub rx: Receiver<ToWorker>,
    pub mailbox_capacity: usize,
    pub router: Router,
    pub events: Sender<(NodeId, AppEvent)>,
    pub shared: Arc<ReactorShared>,
    pub states: Vec<NodeState>,
}

impl Worker {
    pub(crate) fn new(spec: WorkerSpec) -> Self {
        let index = LocalIndex::new(spec.indexer, &spec.states);
        let nodes = spec
            .states
            .into_iter()
            .map(|state| {
                Some(MuxNode {
                    state,
                    timers: TimerSet::default(),
                    next_gen: 0,
                    dropped_frames: 0,
                    latency: NodeLatency::default(),
                })
            })
            .collect();
        Worker {
            gid: spec.gid,
            worker: spec.worker,
            clock: spec.clock,
            rx: spec.rx,
            router: spec.router,
            events: spec.events,
            shared: spec.shared,
            nodes,
            index,
            local: VecDeque::new(),
            mailbox_capacity: spec.mailbox_capacity,
            sent: FrameTally::default(),
            wheel: Wheel::default(),
            outs: OutputSink::new(),
            frames: FramePool::default(),
        }
    }

    /// Publish the tally. Called once per loop turn, before the worker may
    /// park, so `Cluster::stats` lags a running worker by at most one turn
    /// and a parked one not at all.
    fn flush_sent(&self) {
        let slot = &self.shared.frames[self.worker];
        slot.local.store(self.sent.local, Ordering::Relaxed);
        slot.routed.store(self.sent.routed, Ordering::Relaxed);
    }

    /// Feed `input` to hosted node `i` and interpret the outputs — the one
    /// point where an input reaches a node, and so where its latency
    /// tracker sees it. The destructuring split lets the node's state, the
    /// wheel and the reused output sink borrow simultaneously.
    fn drive(&mut self, i: usize, input: Input) {
        let Worker {
            gid,
            clock,
            router,
            events,
            shared,
            nodes,
            index,
            local,
            mailbox_capacity,
            sent,
            wheel,
            outs,
            frames,
            ..
        } = self;
        let Some(node) = nodes[i].as_mut() else { return };
        let id = node.state.id;
        let now = clock.now();
        node.latency.on_input(now, &input);
        node.state.handle_into(input, outs);
        let mut sub = ReactorSubstrate {
            router,
            events,
            shared,
            wheel,
            node,
            frames,
            index,
            local,
            mailbox_capacity: *mailbox_capacity,
            sent,
            slot: i as u32,
            now,
        };
        apply_outputs(&mut sub, *gid, id, outs);
    }

    fn snapshot_of(node: &MuxNode) -> NodeSnapshot {
        NodeSnapshot {
            id: node.state.id,
            epoch: node.state.epoch,
            ring_members: node.state.ring_members.clone(),
            local_members: node.state.local_members.clone(),
            roster_len: node.state.roster.len(),
            leader: node.state.leader(),
            ring_ok: node.state.ring_ok,
            dropped_frames: node.dropped_frames,
            digest: node.state.digest(),
        }
    }

    /// Decode one frame for hosted node `i` and feed it in — the one way a
    /// frame reaches a node, whether it came off the mailbox or the run
    /// queue — then keep its buffer.
    fn deliver(&mut self, from: NodeId, i: usize, frame: bytes::Bytes) {
        match wire::decode(&frame) {
            Ok(env) if env.gid == self.gid => self.drive(i, Input::Msg { from, msg: env.msg }),
            _ => {
                // Foreign group or corrupt frame: drop, counted.
                self.shared.codec_rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.frames.recycle(frame);
    }

    /// Apply one mailbox message; `true` means stop the worker.
    fn handle(&mut self, msg: ToWorker) -> bool {
        match msg {
            ToWorker::Net { from, to, frame } => match self.index.get(to) {
                Some(i) => self.deliver(from, i, frame),
                None => self.frames.recycle(frame),
            },
            ToWorker::Mh { ap, event } => {
                if let Some(i) = self.index.get(ap) {
                    self.drive(i, Input::Mh(event));
                }
            }
            ToWorker::Query { node, scope } => {
                if let Some(i) = self.index.get(node) {
                    self.drive(i, Input::StartQuery { scope });
                }
            }
            ToWorker::Snapshot { node, reply } => {
                if let Some(mux) = self.index.get(node).and_then(|i| self.nodes[i].as_ref()) {
                    let _ = reply.try_send(Self::snapshot_of(mux));
                }
            }
            ToWorker::Crash { node } => {
                if let Some(i) = self.index.remove(node) {
                    self.nodes[i] = None;
                }
            }
            ToWorker::Stop => return true,
        }
        false
    }

    /// Fire every timer due by now, in `(at, slot, gen)` order; entries
    /// armed for the tick being drained are picked up by the same pass.
    fn fire_due_timers(&mut self) {
        let now = self.clock.now();
        while let Some(entry) = self.wheel.pop_due(now) {
            let i = entry.slot as usize;
            let Some(n) = self.nodes[i].as_mut() else { continue };
            if !n.timers.fire(entry.gen) {
                continue;
            }
            self.drive(i, Input::Timer(entry.kind));
        }
    }

    /// Deliver up to [`DRAIN_BATCH`] frames off the run queue. A delivery
    /// usually queues the next hop behind itself, so a token walks its ring
    /// inside this loop.
    fn drain_local(&mut self) {
        for _ in 0..DRAIN_BATCH {
            let Some((from, i, frame)) = self.local.pop_front() else { break };
            self.deliver(from, i as usize, frame);
        }
    }

    /// Handle up to [`DRAIN_BATCH`] + 1 mailbox messages, parking for the
    /// first one (until the next timer deadline, capped) only when the run
    /// queue is empty; `true` means stop the worker.
    fn drain_mailbox(&mut self) -> bool {
        let first = if self.local.is_empty() {
            // Stale entries included: they only wake the worker early.
            let timeout = match self.wheel.peek() {
                Some(entry) => self.clock.until(entry.at).min(MAX_PARK),
                None => MAX_PARK,
            };
            match self.rx.recv_timeout(timeout) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => return false, // timers are due
                Err(RecvTimeoutError::Disconnected) => return true,
            }
        } else {
            match self.rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => return false,
            }
        };
        if self.handle(first) {
            return true;
        }
        for _ in 0..DRAIN_BATCH {
            match self.rx.try_recv() {
                Ok(msg) => {
                    if self.handle(msg) {
                        return true;
                    }
                }
                Err(_) => break,
            }
        }
        false
    }

    /// The reactor loop: boot every hosted node, then alternate timer
    /// firing with bounded drains of the run queue and of the mailbox until
    /// `Stop`.
    pub(crate) fn run(mut self) {
        for i in 0..self.nodes.len() {
            self.drive(i, Input::Boot);
        }
        loop {
            self.fire_due_timers();
            self.drain_local();
            self.flush_sent();
            if self.drain_mailbox() {
                break;
            }
        }
        self.flush_sent();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_config_default_validates() {
        assert!(LiveConfig::default().validate().is_ok());
        assert!(LiveConfig::default().resolved_workers() >= 1);
    }

    #[test]
    fn live_config_rejects_degenerate_fields() {
        let zero_tick = LiveConfig::default().with_tick(Duration::ZERO);
        assert!(matches!(zero_tick.validate(), Err(NetError::InvalidConfig { field: "tick", .. })));
        let no_mailbox = LiveConfig::default().with_mailbox_capacity(0);
        assert!(matches!(
            no_mailbox.validate(),
            Err(NetError::InvalidConfig { field: "mailbox_capacity", .. })
        ));
        let no_events = LiveConfig { event_capacity: 0, ..LiveConfig::default() };
        assert!(matches!(
            no_events.validate(),
            Err(NetError::InvalidConfig { field: "event_capacity", .. })
        ));
    }

    const SLOTS: u64 = Wheel::<TimerEntry>::SLOTS;

    fn entry(at: u64, slot: u32, kind: TimerKind, gen: u64) -> TimerEntry {
        TimerEntry { at, slot, gen, kind }
    }

    #[test]
    fn wheel_fires_in_deadline_order_and_skips_stale_generations() {
        let mut wheel = Wheel::default();
        wheel.push(entry(5, 0, TimerKind::Heartbeat, 2)); // supersedes gen 1
        wheel.push(entry(3, 1, TimerKind::TokenKick, 1));
        wheel.push(entry(5, 0, TimerKind::Heartbeat, 1));
        assert_eq!(wheel.peek().map(|e| e.at), Some(3));
        let e = wheel.pop_due(10).expect("due entry");
        assert_eq!((e.at, e.slot), (3, 1));
        // Both tick-5 entries surface, in generation order; the caller's
        // gen check drops the stale one.
        let mut gens: Vec<u64> = Vec::new();
        while let Some(e) = wheel.pop_due(10) {
            assert_eq!(e.at, 5);
            gens.push(e.gen);
        }
        assert_eq!(gens, vec![1, 2]);
        assert!(wheel.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn wheel_far_deadlines_fall_back_to_the_heap() {
        let mut wheel = Wheel::default();
        wheel.push(entry(SLOTS * 7, 0, TimerKind::Heartbeat, 1));
        wheel.push(entry(2, 1, TimerKind::Heartbeat, 1));
        assert_eq!(wheel.peek().map(|e| e.at), Some(2));
        assert_eq!(wheel.pop_due(2).expect("near entry").slot, 1);
        assert_eq!(wheel.peek().map(|e| e.at), Some(SLOTS * 7));
        assert!(wheel.pop_due(SLOTS).is_none(), "far entry is not due yet");
        let far = wheel.pop_due(SLOTS * 7).expect("far entry fires from the heap");
        assert_eq!(far.at, SLOTS * 7);
    }

    #[test]
    fn wheel_sentinel_deadlines_do_not_overflow() {
        let mut wheel = Wheel::default();
        wheel.push(entry(u64::MAX, 0, TimerKind::Heartbeat, 1));
        assert_eq!(wheel.peek().map(|e| e.at), Some(u64::MAX));
        assert!(wheel.pop_due(u64::MAX - 1).is_none());
        assert!(wheel.pop_due(u64::MAX).is_some());
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_the_cursor() {
        let mut wheel = Wheel::default();
        // March the cursor forward with an armed+fired entry.
        wheel.push(entry(100, 0, TimerKind::Heartbeat, 1));
        assert!(wheel.pop_due(100).is_some());
        // Arming "in the past" must still fire, not vanish behind the
        // cursor: it is due at the cursor.
        wheel.push(entry(7, 0, TimerKind::Heartbeat, 2));
        let e = wheel.pop_due(100).expect("clamped entry fires");
        assert_eq!((e.at, e.gen), (100, 2), "deadline clamped to the cursor");
    }

    #[test]
    fn drained_burst_buckets_give_their_memory_back() {
        // A worker's shape: every node boots in the same tick, so all of
        // them beat in the same tick every 50 — a 1,200-entry bucket that
        // lands in a different wheel slot each time (50·k mod 1024, 512 of
        // them) — over a steady 100 entries a tick. Without the release at
        // the reactor's `RELEASE_ENTRIES` each visited slot keeps its
        // 2,048-entry buffer for good: the bound below breaks at the tenth
        // burst, tick 500.
        const BURST: u32 = 1_200;
        const PERIOD: u64 = 50;
        const BACKGROUND_PER_TICK: u32 = 100;
        const BACKGROUND_PERIOD: u64 = 1_000;
        let mut wheel = Wheel::default();
        for slot in 0..BURST {
            wheel.push(entry(PERIOD, slot, TimerKind::Heartbeat, 0));
        }
        for at in 1..=BACKGROUND_PERIOD {
            for gen in 0..u64::from(BACKGROUND_PER_TICK) {
                wheel.push(entry(at, BURST, TimerKind::TokenKick, gen));
            }
        }
        let queued = wheel.len();
        for now in 1..=3 * SLOTS + PERIOD {
            // Drained like the worker does: each expiry re-arms.
            while let Some(e) = wheel.pop_due(now) {
                let period = if e.slot < BURST { PERIOD } else { BACKGROUND_PERIOD };
                wheel.push(entry(now + period, e.slot, e.kind, e.gen + 1));
            }
            assert_eq!(wheel.len(), queued);
            let retained = wheel.capacity();
            assert!(
                2 * retained <= 3 * queued,
                "tick {now}: {retained} entry slots retained for {queued} queued"
            );
        }
    }

    #[test]
    fn a_timer_armed_while_its_own_tick_drains_still_fires() {
        // More than RELEASE_ENTRIES, so the drained bucket is replaced.
        let burst = 2 * TimerEntry::RELEASE_ENTRIES as u32;
        let mut wheel = Wheel::default();
        for slot in 0..burst {
            wheel.push(entry(5, slot, TimerKind::Heartbeat, 1));
        }
        wheel.push(entry(9, 0, TimerKind::TokenKick, 9)); // keeps the wheel scanning
        let mut fired = 0;
        while let Some(e) = wheel.pop_due(5) {
            fired += 1;
            if e.gen == 1 && e.slot == 0 {
                // Armed for the tick being drained, by its first entry.
                wheel.push(entry(5, burst, TimerKind::TokenKick, 2));
            }
        }
        assert_eq!(fired, burst + 1, "the late entry fired in the same pass");
        // After the pass the same deadline is still due at the cursor, in
        // the released bucket's fresh buffer.
        wheel.push(entry(5, burst, TimerKind::TokenKick, 3));
        assert_eq!(wheel.pop_due(5).map(|e| (e.at, e.gen)), Some((5, 3)));
        assert_eq!(wheel.pop_due(8), None);
        assert_eq!(wheel.pop_due(9).map(|e| e.gen), Some(9));
        assert!(wheel.is_empty());
    }

    /// Same-tick timers fire in `(slot, gen)` order whatever order they
    /// were armed in: the first step of the deterministic reactor (ROADMAP)
    /// — a worker's firing order within a tick no longer depends on arm
    /// order. Each root-ring node's heartbeat sends a frame to its child
    /// ring's leader, so the run queue records the firing order.
    #[test]
    fn same_tick_timers_fire_in_key_order_whatever_the_arm_order() {
        let fire = |arm_order: &[usize]| {
            let (mut w, _router, _shared) = lone_worker(256);
            for &i in arm_order {
                let node = w.nodes[i].as_mut().expect("alive");
                // A stale generation beside the live one: skipped, in order.
                node.timers.arm(TimerKind::Heartbeat, 2);
                for gen in [2, 1] {
                    w.wheel.push(entry(0, i as u32, TimerKind::Heartbeat, gen));
                }
            }
            w.fire_due_timers();
            let mut from: Vec<NodeId> = w.local.iter().map(|&(from, _, _)| from).collect();
            from.dedup();
            from
        };
        let (w, _, _) = lone_worker(1);
        let senders: Vec<usize> = (0..w.nodes.len())
            .filter(|&i| w.nodes[i].as_ref().is_some_and(|n| !n.state.children.is_empty()))
            .collect();
        assert!(senders.len() >= 2, "the layout has a root ring that sponsors children");
        let in_slot_order: Vec<NodeId> =
            senders.iter().map(|&i| w.nodes[i].as_ref().expect("alive").state.id).collect();
        let mut shuffled = senders.clone();
        shuffled.reverse();
        shuffled.rotate_left(1);
        assert_eq!(fire(&senders), in_slot_order);
        assert_eq!(fire(&shuffled), in_slot_order);
    }

    #[test]
    fn tick_clock_counts_whole_ticks_in_u64() {
        let start = Instant::now() - Duration::from_millis(250);
        let clock = TickClock::new(start, Duration::from_millis(10));
        let now = clock.now();
        assert!((25..1_000).contains(&now), "250 ms is 25 ten-ms ticks, read {now}");
        assert_eq!(clock.until(now), Duration::ZERO);
        let ahead = clock.until(now + 100);
        assert!(ahead > Duration::from_millis(980) && ahead <= Duration::from_secs(1));
        // Degenerate inputs saturate instead of dividing by zero or wrapping.
        assert!(TickClock::new(start, Duration::ZERO).now() >= 250_000_000);
        assert_eq!(TickClock::new(start, Duration::MAX).now(), 0);
        assert!(clock.until(u64::MAX) > Duration::from_secs(1 << 30));
    }

    /// One worker hosting a whole h=2 r=8 hierarchy (72 NEs) behind
    /// capacity-`capacity` queues, driven by hand on the test thread.
    fn lone_worker(capacity: usize) -> (Worker, Router, Arc<ReactorShared>) {
        let layout =
            rgb_core::topology::HierarchySpec::new(2, 8).build(GroupId(1)).expect("layout builds");
        let mut cfg = rgb_core::config::ProtocolConfig::live();
        cfg.token_interval = 5;
        cfg.heartbeat_interval = 20;
        let router = Router::new();
        let (tx, rx) = crossbeam::channel::bounded(capacity);
        let (events, _) = crossbeam::channel::bounded(1);
        let states: Vec<NodeState> = layout
            .nodes
            .keys()
            .map(|&id| NodeState::from_layout(&layout, id, cfg.clone()).expect("node builds"))
            .collect();
        for state in &states {
            router.register(state.id, tx.clone());
        }
        let shared = Arc::new(ReactorShared {
            frames: vec![WorkerFrames::default()],
            ..ReactorShared::default()
        });
        let worker = Worker::new(WorkerSpec {
            gid: layout.gid,
            worker: 0,
            // Microsecond ticks: the test spins through hundreds of them.
            clock: TickClock::new(Instant::now(), Duration::from_micros(1)),
            indexer: Arc::new(layout.indexer()),
            rx,
            mailbox_capacity: capacity,
            router: router.clone(),
            events,
            shared: Arc::clone(&shared),
            states,
        });
        (worker, router, shared)
    }

    #[test]
    fn run_queue_is_bounded_and_every_send_is_counted_once() {
        const CAPACITY: usize = 4;
        let (mut w, router, shared) = lone_worker(CAPACITY);
        for i in 0..w.nodes.len() {
            w.drive(i, Input::Boot);
            assert!(w.local.len() <= CAPACITY);
        }
        // 72 heartbeat timers fire in one pass with nothing drained in
        // between: a flood into four slots.
        let deadline = Instant::now() + Duration::from_secs(20);
        while router.backpressure_dropped() == 0 {
            assert!(Instant::now() < deadline, "the timer burst never met a full run queue");
            w.fire_due_timers();
            assert!(w.local.len() <= CAPACITY, "{} frames queued", w.local.len());
            while let Some((from, i, frame)) = w.local.pop_front() {
                w.deliver(from, i as usize, frame);
                assert!(w.local.len() <= CAPACITY, "{} frames queued", w.local.len());
            }
        }
        // The senders saw their own drops, and nothing went by the mailbox.
        let node_drops: u64 = w.nodes.iter().flatten().map(|n| n.dropped_frames).sum();
        assert_eq!(node_drops, router.backpressure_dropped() + router.dropped());
        assert!(w.rx.try_recv().is_err(), "a co-hosted destination skips the mailbox");
        assert!(w.sent.local > 0);
        assert_eq!(w.sent.routed, 0);
        assert_eq!(shared.frames[0].local.load(Ordering::Relaxed), 0, "nothing published yet");
        w.flush_sent();
        assert_eq!(shared.frames[0].local.load(Ordering::Relaxed), w.sent.local);
        assert_eq!(router.sent(), 0, "workers count their own frames");
    }

    #[test]
    fn both_paths_decode_and_reject_garbage_alike() {
        let (mut w, _router, shared) = lone_worker(64);
        let id = |w: &Worker, i: usize| w.nodes[i].as_ref().expect("alive").state.id;
        let (a, b) = (id(&w, 0), id(&w, 1));
        let junk = bytes::Bytes::copy_from_slice(b"not an envelope");
        w.local.push_back((a, 1, junk.clone()));
        w.drain_local();
        assert_eq!(shared.codec_rejected.load(Ordering::Relaxed), 1);
        assert!(!w.handle(ToWorker::Net { from: a, to: b, frame: junk }));
        assert_eq!(shared.codec_rejected.load(Ordering::Relaxed), 2);
        // A foreign group id is the same rejection, on the same helper.
        let foreign = wire::encode(&rgb_core::message::Envelope {
            gid: GroupId(w.gid.0 + 1),
            msg: rgb_core::message::Msg::TokenAck { ring: rgb_core::prelude::RingId(0), seq: 0 },
        });
        w.local.push_back((a, 1, foreign));
        w.drain_local();
        assert_eq!(shared.codec_rejected.load(Ordering::Relaxed), 3);
        assert!(w.local.is_empty());
    }
}
