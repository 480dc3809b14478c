//! The reactor-multiplexed live runtime: a small worker pool drives
//! thousands of sans-IO [`NodeState`]s per thread.
//!
//! This replaces the thread-per-node loop of earlier revisions. Each
//! **worker** owns a contiguous slice of the hierarchy (whole rings,
//! assigned by [`rgb_core::topology::HierarchyLayout::partition_rings`], so
//! intra-ring token traffic stays worker-local, and within one ring of an
//! even share of the NEs, so no worker is the slow one by construction),
//! one bounded mailbox of
//! [`ToWorker`] messages, and one wall-tick `TimerWheel` — the same
//! bucketed wheel-plus-far-heap design as the simulator's event queue
//! (`crates/sim/src/queue.rs`), minus the determinism machinery a
//! wall-clock world cannot honour anyway. The worker loop is a classic
//! reactor: fire due timers, then block on the mailbox until the next
//! timer deadline (capped), then drain a bounded batch of messages.
//!
//! All protocol outputs flow through the shared
//! [`rgb_core::substrate::apply_outputs`] driver against the
//! `ReactorSubstrate`, exactly as in the simulator, and the hot loop
//! reuses one [`OutputSink`] buffer so no `Vec<Output>` is allocated per
//! input. Frames between nodes — same worker or not — always go through
//! the [`Router`] and the binary wire codec, so the wire format stays
//! exercised end-to-end; the worker that decodes a frame keeps its buffer
//! in a bounded [`FramePool`] for its own next sends.

use crate::error::NetError;
use crate::transport::{Router, SendOutcome, ToWorker};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TrySendError};
use rgb_core::events::{AppEvent, Input, TimerKind};
use rgb_core::introspect::StateDigest;
use rgb_core::member::MemberList;
use rgb_core::message::{Msg, MsgLabel};
use rgb_core::node::NodeState;
use rgb_core::obs::LevelHistograms;
use rgb_core::prelude::{GroupId, NodeId};
use rgb_core::substrate::{apply_outputs, FramePool, OutputSink, Substrate, TimerSet};
use rgb_core::wire;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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
    /// or stopped, or the destination worker's mailbox was full. Genuinely
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
    /// Frames delivered into a worker mailbox.
    pub frames_sent: u64,
    /// Frames dropped because the destination was unknown or stopped.
    pub dropped_frames: u64,
    /// Frames dropped because a destination mailbox was full.
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

/// Counters shared between every worker and the cluster handle.
#[derive(Debug, Default)]
pub(crate) struct ReactorShared {
    pub app_events: AtomicU64,
    pub app_events_dropped: AtomicU64,
    pub codec_rejected: AtomicU64,
    /// Per-ring-level latency surfaces (repair and query; join anchoring
    /// needs deterministic wire sightings and stays simulator-only).
    /// Workers take this lock only on the rare completion events, never
    /// per frame.
    pub latency: Mutex<LevelHistograms>,
}

/// log2 of the wheel size: the wheel covers `[cursor, cursor + 1024)`
/// ticks, comfortably beyond every default protocol timeout at millisecond
/// ticks; farther deadlines fall back to the heap.
const WHEEL_BITS: u32 = 10;
/// Number of wheel buckets.
const WHEEL_SLOTS: u64 = 1 << WHEEL_BITS;
/// Longest the worker loop blocks on its mailbox even with no timer due —
/// a liveness bound, not a correctness one.
const MAX_PARK: Duration = Duration::from_millis(50);
/// Frames drained per turn from the worker's run queue, and then messages
/// from its mailbox, before re-checking timers, so neither a flooded
/// mailbox nor a ring whose token never rests can starve timer fairness.
const DRAIN_BATCH: usize = 256;
/// Sentinel for "no latency interval open" in [`MuxNode`]'s anchors.
const NO_ANCHOR: u64 = u64::MAX;

/// One armed timer: wall-tick deadline, hosting worker's local node index,
/// kind and the generation stamp that detects superseded entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerEntry {
    at: u64,
    node: u32,
    kind: TimerKind,
    gen: u64,
}

/// Per-worker wall-tick timer wheel: 1024 one-tick buckets in front of a
/// `BinaryHeap` fallback for deadlines beyond the horizon — the simulator
/// queue's design with the determinism machinery stripped (wall-clock
/// firing order is inherently racy, and cancellation is generation-checked
/// at fire time, so within-tick order is free).
///
/// Invariant: every wheel entry satisfies `at >= cursor`, and a non-empty
/// bucket holds entries of a single tick (an entry a full rotation ahead
/// would need `at - cursor >= WHEEL_SLOTS` at push time, which the
/// admission test routes to the heap).
#[derive(Debug)]
struct TimerWheel {
    buckets: Vec<Vec<TimerEntry>>,
    far: BinaryHeap<Reverse<(u64, u32, TimerKind, u64)>>,
    /// Next tick not yet drained.
    cursor: u64,
    len: usize,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            cursor: 0,
            len: 0,
        }
    }

    fn wheel_len(&self) -> usize {
        self.len - self.far.len()
    }

    /// Arm an entry. Deadlines already behind the drain cursor are clamped
    /// to it, so a timer armed for the tick currently being drained still
    /// fires (this drain or the next pass) instead of parking in a bucket
    /// the cursor has moved past.
    fn arm(&mut self, at: u64, node: u32, kind: TimerKind, gen: u64) {
        let at = at.max(self.cursor);
        if at - self.cursor < WHEEL_SLOTS {
            self.buckets[(at & (WHEEL_SLOTS - 1)) as usize].push(TimerEntry {
                at,
                node,
                kind,
                gen,
            });
        } else {
            self.far.push(Reverse((at, node, kind, gen)));
        }
        self.len += 1;
    }

    /// Pop one entry with `at <= now`, or `None` when nothing is due. The
    /// caller loops; entries armed during a drive at the current tick are
    /// picked up by the same loop.
    fn pop_due(&mut self, now: u64) -> Option<TimerEntry> {
        if let Some(&Reverse((at, _, _, _))) = self.far.peek() {
            if at <= now {
                let Reverse((at, node, kind, gen)) = self.far.pop().expect("peeked");
                self.len -= 1;
                return Some(TimerEntry { at, node, kind, gen });
            }
        }
        if self.wheel_len() == 0 {
            // Nothing to scan: keep the cursor abreast of time so a long
            // idle stretch is not replayed bucket-by-bucket later.
            self.cursor = self.cursor.max(now);
            return None;
        }
        while self.cursor <= now {
            let bucket = (self.cursor & (WHEEL_SLOTS - 1)) as usize;
            if let Some(entry) = self.buckets[bucket].pop() {
                debug_assert_eq!(entry.at, self.cursor, "bucket holds a foreign tick");
                self.len -= 1;
                return Some(entry);
            }
            self.cursor += 1;
        }
        None
    }

    /// Earliest armed deadline (stale entries included — they only make
    /// the worker wake early, never late).
    fn next_deadline(&self) -> Option<u64> {
        let far = self.far.peek().map(|&Reverse((at, _, _, _))| at);
        let wheel = if self.wheel_len() == 0 {
            None
        } else {
            let mut t = self.cursor;
            loop {
                // Non-empty wheel ⇒ some bucket within the horizon holds an
                // entry, and a non-empty bucket is single-tick, so its first
                // entry's `at` is that tick.
                if let Some(e) = self.buckets[(t & (WHEEL_SLOTS - 1)) as usize].first() {
                    break Some(e.at);
                }
                t += 1;
            }
        };
        match (far, wheel) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// One multiplexed node as a worker holds it: protocol state, the live
/// generation of each armed timer kind, and the per-node outbound-drop
/// counter surfaced in [`NodeSnapshot`].
struct MuxNode {
    state: NodeState,
    /// Live timers: per kind, the generation that is allowed to fire.
    /// Entries in the wheel with any other generation are stale and
    /// ignored.
    timers: TimerSet,
    next_gen: u64,
    dropped_frames: u64,
    /// Tick a ring-repair suspicion (`TokenLost` / `TokenRetransmit`)
    /// fired, until `RingRepaired` closes the interval into
    /// [`ReactorShared::latency`] or ring progress (a token or ack
    /// arriving) clears it; [`NO_ANCHOR`] when none is open.
    ring_repair_started: u64,
    /// Tick a `ParentTimeout` fired, until the matching `Reattached`
    /// closes the interval; [`NO_ANCHOR`] when none is open.
    reattach_started: u64,
    /// Tick the last `StartQuery` was injected; [`NO_ANCHOR`] when no
    /// query is in flight.
    query_started: u64,
}

/// The reactor-worker implementation of the substrate layer: wall-tick
/// timers on the worker's wheel, frames through the shared [`Router`],
/// application events onto the bounded subscriber stream.
struct ReactorSubstrate<'a> {
    router: &'a Router,
    events: &'a Sender<(NodeId, AppEvent)>,
    shared: &'a ReactorShared,
    wheel: &'a mut TimerWheel,
    timers: &'a mut TimerSet,
    next_gen: &'a mut u64,
    dropped_frames: &'a mut u64,
    ring_repair_started: &'a mut u64,
    reattach_started: &'a mut u64,
    query_started: &'a mut u64,
    frames: &'a mut FramePool,
    /// The sending worker's hosted nodes and its run queue: a frame for one
    /// of them is queued here instead of in the worker's own mailbox.
    index: &'a HashMap<NodeId, usize>,
    local: &'a mut VecDeque<LocalFrame>,
    mailbox_capacity: usize,
    /// The hosted node's ring level (latency surface index).
    level: u8,
    /// The hosted node's local index (what its wheel entries carry).
    slot: u32,
    now: u64,
}

impl Substrate for ReactorSubstrate<'_> {
    fn now(&self) -> u64 {
        self.now
    }

    fn send_frame(&mut self, from: NodeId, to: NodeId, _label: MsgLabel, frame: bytes::Bytes) {
        let outcome = match self.index.get(&to) {
            Some(&i) => {
                let admitted =
                    self.router.admit_local(from, to, self.local.len(), self.mailbox_capacity);
                if admitted == SendOutcome::Delivered {
                    self.local.push_back((from, i as u32, frame));
                }
                admitted
            }
            None => self.router.send_frame(from, to, frame),
        };
        match outcome {
            SendOutcome::Delivered | SendOutcome::PartitionDropped => {}
            SendOutcome::Unroutable | SendOutcome::Backpressure => *self.dropped_frames += 1,
        }
    }

    fn arm_timer(&mut self, _node: NodeId, kind: TimerKind, after: u64) {
        *self.next_gen += 1;
        let gen = *self.next_gen;
        self.timers.arm(kind, gen);
        self.wheel.arm(self.now.saturating_add(after), self.slot, kind, gen);
    }

    fn cancel_timer(&mut self, _node: NodeId, kind: TimerKind) {
        self.timers.cancel(kind);
    }

    fn deliver_app(&mut self, node: NodeId, event: AppEvent) {
        match &event {
            AppEvent::RingRepaired { .. } => {
                let t0 = std::mem::replace(self.ring_repair_started, NO_ANCHOR);
                if t0 != NO_ANCHOR {
                    let dt = self.now.saturating_sub(t0);
                    let mut latency = self.shared.latency.lock().unwrap_or_else(|e| e.into_inner());
                    latency.level_mut(self.level).repair.record(dt);
                }
            }
            AppEvent::Reattached { .. } => {
                let t0 = std::mem::replace(self.reattach_started, NO_ANCHOR);
                if t0 != NO_ANCHOR {
                    let dt = self.now.saturating_sub(t0);
                    let mut latency = self.shared.latency.lock().unwrap_or_else(|e| e.into_inner());
                    latency.level_mut(self.level).repair.record(dt);
                }
            }
            AppEvent::QueryResult { .. } => {
                let t0 = std::mem::replace(self.query_started, NO_ANCHOR);
                if t0 != NO_ANCHOR {
                    let dt = self.now.saturating_sub(t0);
                    let mut latency = self.shared.latency.lock().unwrap_or_else(|e| e.into_inner());
                    latency.level_mut(self.level).query.record(dt);
                }
            }
            _ => {}
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

/// One reactor worker: the nodes it hosts, its mailbox, its run queue and
/// its wheel.
pub(crate) struct Worker {
    gid: GroupId,
    tick: Duration,
    start: Instant,
    rx: Receiver<ToWorker>,
    router: Router,
    events: Sender<(NodeId, AppEvent)>,
    shared: Arc<ReactorShared>,
    /// Hosted nodes; `None` marks a crashed one (its wheel entries drain
    /// as stale).
    nodes: Vec<Option<MuxNode>>,
    /// Live hosted nodes by id; a crashed node leaves it, so frames for it
    /// fall through to the [`Router`] and read `Unroutable`.
    index: HashMap<NodeId, usize>,
    /// Frames between two nodes of this worker, waiting for their turn:
    /// bounded by `mailbox_capacity` like the mailbox they bypass.
    local: VecDeque<LocalFrame>,
    mailbox_capacity: usize,
    wheel: TimerWheel,
    outs: OutputSink,
    /// Buffers of the frames this worker decoded, reused by its sends.
    frames: FramePool,
}

/// Everything a worker thread needs at spawn time.
pub(crate) struct WorkerSpec {
    pub gid: GroupId,
    pub tick: Duration,
    pub start: Instant,
    pub rx: Receiver<ToWorker>,
    pub mailbox_capacity: usize,
    pub router: Router,
    pub events: Sender<(NodeId, AppEvent)>,
    pub shared: Arc<ReactorShared>,
    pub states: Vec<NodeState>,
}

impl Worker {
    pub(crate) fn new(spec: WorkerSpec) -> Self {
        let index =
            spec.states.iter().enumerate().map(|(i, s)| (s.id, i)).collect::<HashMap<_, _>>();
        let nodes = spec
            .states
            .into_iter()
            .map(|state| {
                Some(MuxNode {
                    state,
                    timers: TimerSet::default(),
                    next_gen: 0,
                    dropped_frames: 0,
                    ring_repair_started: NO_ANCHOR,
                    reattach_started: NO_ANCHOR,
                    query_started: NO_ANCHOR,
                })
            })
            .collect();
        Worker {
            gid: spec.gid,
            tick: spec.tick,
            start: spec.start,
            rx: spec.rx,
            router: spec.router,
            events: spec.events,
            shared: spec.shared,
            nodes,
            index,
            local: VecDeque::new(),
            mailbox_capacity: spec.mailbox_capacity,
            wheel: TimerWheel::new(),
            outs: OutputSink::new(),
            frames: FramePool::default(),
        }
    }

    fn now_tick(&self) -> u64 {
        let tick_ns = self.tick.as_nanos().max(1);
        (self.start.elapsed().as_nanos() / tick_ns) as u64
    }

    /// Wall-clock duration until tick `at`, zero if already past.
    fn until_tick(&self, at: u64) -> Duration {
        let tick_ns = self.tick.as_nanos().max(1);
        let deadline_ns = (at as u128).saturating_mul(tick_ns);
        let remaining = deadline_ns.saturating_sub(self.start.elapsed().as_nanos());
        Duration::from_nanos(u64::try_from(remaining).unwrap_or(u64::MAX))
    }

    /// Feed `input` to hosted node `i` and interpret the outputs. The
    /// destructuring split lets the node's state, the wheel and the reused
    /// output sink borrow simultaneously.
    fn drive(&mut self, i: usize, input: Input) {
        let Worker {
            gid,
            tick,
            start,
            router,
            events,
            shared,
            nodes,
            index,
            local,
            mailbox_capacity,
            wheel,
            outs,
            frames,
            ..
        } = self;
        let Some(node) = nodes[i].as_mut() else { return };
        let id = node.state.id;
        let tick_ns = tick.as_nanos().max(1);
        let now = (start.elapsed().as_nanos() / tick_ns) as u64;
        node.state.handle_into(input, outs);
        let level = node.state.level as u8;
        let mut sub = ReactorSubstrate {
            router,
            events,
            shared,
            wheel,
            timers: &mut node.timers,
            next_gen: &mut node.next_gen,
            dropped_frames: &mut node.dropped_frames,
            ring_repair_started: &mut node.ring_repair_started,
            reattach_started: &mut node.reattach_started,
            query_started: &mut node.query_started,
            frames,
            index,
            local,
            mailbox_capacity: *mailbox_capacity,
            level,
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
            Ok(env) if env.gid == self.gid => {
                // The ring reached this node: any open retransmit/loss
                // suspicion resolved without a repair.
                if matches!(env.msg, Msg::Token(_) | Msg::TokenAck { .. }) {
                    if let Some(n) = self.nodes[i].as_mut() {
                        n.ring_repair_started = NO_ANCHOR;
                    }
                }
                self.drive(i, Input::Msg { from, msg: env.msg });
            }
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
            ToWorker::Net { from, to, frame } => match self.index.get(&to) {
                Some(&i) => self.deliver(from, i, frame),
                None => self.frames.recycle(frame),
            },
            ToWorker::Mh { ap, event } => {
                if let Some(&i) = self.index.get(&ap) {
                    self.drive(i, Input::Mh(event));
                }
            }
            ToWorker::Query { node, scope } => {
                if let Some(&i) = self.index.get(&node) {
                    let now = self.now_tick();
                    if let Some(n) = self.nodes[i].as_mut() {
                        n.query_started = now;
                    }
                    self.drive(i, Input::StartQuery { scope });
                }
            }
            ToWorker::Snapshot { node, reply } => {
                if let Some(mux) = self.index.get(&node).and_then(|&i| self.nodes[i].as_ref()) {
                    let _ = reply.try_send(Self::snapshot_of(mux));
                }
            }
            ToWorker::Crash { node } => {
                if let Some(i) = self.index.remove(&node) {
                    self.nodes[i] = None;
                }
            }
            ToWorker::Stop => return true,
        }
        false
    }

    /// The reactor loop: boot every hosted node, then alternate timer
    /// firing with bounded drains of the run queue and of the mailbox until
    /// `Stop`. The worker parks on its mailbox only with an empty run queue.
    pub(crate) fn run(mut self) {
        for i in 0..self.nodes.len() {
            self.drive(i, Input::Boot);
        }
        loop {
            let now = self.now_tick();
            while let Some(entry) = self.wheel.pop_due(now) {
                let i = entry.node as usize;
                let live = self.nodes[i].as_mut().is_some_and(|n| n.timers.fire(entry.gen));
                if live {
                    if let Some(n) = self.nodes[i].as_mut() {
                        // A repair suspicion opens the latency interval
                        // the eventual RingRepaired / Reattached closes;
                        // the first trigger wins, and token progress
                        // clears a ring suspicion that resolved without
                        // repair.
                        match entry.kind {
                            TimerKind::TokenLost | TimerKind::TokenRetransmit { .. }
                                if n.ring_repair_started == NO_ANCHOR =>
                            {
                                n.ring_repair_started = now;
                            }
                            TimerKind::ParentTimeout if n.reattach_started == NO_ANCHOR => {
                                n.reattach_started = now;
                            }
                            _ => {}
                        }
                    }
                    self.drive(i, Input::Timer(entry.kind));
                }
            }
            // A delivery usually queues the next hop behind itself, so a
            // token walks its ring inside this loop.
            for _ in 0..DRAIN_BATCH {
                let Some((from, i, frame)) = self.local.pop_front() else { break };
                self.deliver(from, i as usize, frame);
            }
            let first = if self.local.is_empty() {
                let timeout = match self.wheel.next_deadline() {
                    Some(at) => self.until_tick(at).min(MAX_PARK),
                    None => MAX_PARK,
                };
                match self.rx.recv_timeout(timeout) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None, // loop fires due timers
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            } else {
                self.rx.try_recv().ok()
            };
            let Some(first) = first else { continue };
            if self.handle(first) {
                return;
            }
            for _ in 0..DRAIN_BATCH {
                match self.rx.try_recv() {
                    Ok(msg) => {
                        if self.handle(msg) {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
        }
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

    #[test]
    fn wheel_fires_in_deadline_order_and_skips_stale_generations() {
        let mut wheel = TimerWheel::new();
        wheel.arm(5, 0, TimerKind::Heartbeat, 1);
        wheel.arm(3, 1, TimerKind::TokenKick, 1);
        wheel.arm(5, 0, TimerKind::Heartbeat, 2); // supersedes gen 1
        assert_eq!(wheel.next_deadline(), Some(3));
        let e = wheel.pop_due(10).expect("due entry");
        assert_eq!((e.at, e.node), (3, 1));
        // Both generation-5 entries surface; the caller's gen check drops
        // the stale one.
        let mut gens: Vec<u64> = Vec::new();
        while let Some(e) = wheel.pop_due(10) {
            assert_eq!(e.at, 5);
            gens.push(e.gen);
        }
        gens.sort_unstable();
        assert_eq!(gens, vec![1, 2]);
        assert!(wheel.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn wheel_far_deadlines_fall_back_to_the_heap() {
        let mut wheel = TimerWheel::new();
        wheel.arm(WHEEL_SLOTS * 7, 0, TimerKind::Heartbeat, 1);
        wheel.arm(2, 1, TimerKind::Heartbeat, 1);
        assert_eq!(wheel.next_deadline(), Some(2));
        assert_eq!(wheel.pop_due(2).expect("near entry").node, 1);
        assert_eq!(wheel.next_deadline(), Some(WHEEL_SLOTS * 7));
        assert!(wheel.pop_due(WHEEL_SLOTS).is_none(), "far entry is not due yet");
        let far = wheel.pop_due(WHEEL_SLOTS * 7).expect("far entry fires from the heap");
        assert_eq!(far.at, WHEEL_SLOTS * 7);
    }

    #[test]
    fn wheel_sentinel_deadlines_do_not_overflow() {
        let mut wheel = TimerWheel::new();
        wheel.arm(u64::MAX, 0, TimerKind::Heartbeat, 1);
        assert_eq!(wheel.next_deadline(), Some(u64::MAX));
        assert!(wheel.pop_due(u64::MAX - 1).is_none());
        assert!(wheel.pop_due(u64::MAX).is_some());
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_the_cursor() {
        let mut wheel = TimerWheel::new();
        // March the cursor forward with an armed+fired entry.
        wheel.arm(100, 0, TimerKind::Heartbeat, 1);
        assert!(wheel.pop_due(100).is_some());
        // Arming "in the past" must still fire, not vanish behind the
        // cursor.
        wheel.arm(7, 0, TimerKind::Heartbeat, 2);
        let e = wheel.pop_due(100).expect("clamped entry fires");
        assert_eq!(e.gen, 2);
        assert!(e.at >= 100 || e.at == 100, "deadline clamped to cursor");
    }
}
