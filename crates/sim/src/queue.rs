//! The simulator's event queue: a bucketed **timer wheel** for near-future
//! occurrences in front of a `BinaryHeap` fallback for events beyond the
//! wheel horizon.
//!
//! Every queued occurrence carries a **deterministic content-derived
//! [`EventKey`]** — `(class, creator, creator-sequence)` — and the queue
//! pops in strict `(at, key)` order **regardless of which container holds
//! the entry**. The key is assigned from the event's *provenance* (which
//! node created it, as that node's how-many-th emission), not from global
//! push order, so two executions that interleave nodes differently — the
//! sequential engine and the sharded-parallel engine of [`crate::par`] —
//! assign identical keys to identical events and therefore drain them in
//! an identical global order. The wheel is purely an optimisation:
//! scheduling a near-future event costs an O(log bucket) sorted insert
//! instead of an O(log n) sift of a large `Event` struct, and superseded
//! timer entries drain as the wheel turns instead of accumulating in the
//! heap. The [`QueueKind::BinaryHeap`] mode keeps the plain-heap ordering
//! semantics alive as a *reference implementation*; the engine-determinism
//! tests run both modes on identical scenarios and assert byte-identical
//! traces.
//!
//! ## Far-horizon arithmetic
//!
//! Timestamps are plain `u64` ticks and scenarios may legitimately
//! schedule sentinels near `u64::MAX` (e.g. "practically never" timers).
//! Admission (`at - now < WHEEL_SLOTS`), the wheel scan bound and the
//! cursor arithmetic therefore avoid `now + WHEEL_SLOTS` style sums that
//! could wrap: far events fall back to the heap, and the scan bound
//! saturates. A regression test drains events parked at `u64::MAX`.

use crate::rng::SplitMix64;
use crate::world::{NODE_STREAM_SALT, NO_QUERY};
use bytes::Bytes;
use rgb_core::prelude::*;
use rgb_core::substrate::TimerSet;
use rgb_core::topology::NodeIdx;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the wheel size: the wheel covers `[now, now + 1024)` ticks,
/// comfortably beyond every default latency band and protocol timeout.
const WHEEL_BITS: u32 = 10;
/// Number of wheel buckets.
const WHEEL_SLOTS: u64 = 1 << WHEEL_BITS;

/// Largest buffer (in entries, ≈ 56 KB) a drained wheel bucket keeps for
/// its next tick; anything bigger is released on emptying. Ordinary ticks
/// (under a thousand events even at 99,498 NEs) stay below it and keep
/// their allocation; synchronised bursts — every node boots at tick 0, so
/// all of them beat in the same tick — do not leave a 7 MB buffer behind in
/// a different bucket each time. What the wheel retains is then at most
/// twice what it holds (a bucket doubles as it fills) plus this floor per
/// bucket, instead of the largest tick each of its 1,024 buckets ever saw.
const RELEASE_ENTRIES: usize = 1 << 10;

/// Which event-queue implementation a `Simulation` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Timer wheel + far-event heap (the default, fast path).
    #[default]
    TimerWheel,
    /// Pure binary heap — the reference ordering semantics, kept for
    /// differential determinism tests.
    BinaryHeap,
}

/// Everything an engine keeps per node beside its protocol state, packed so
/// that one event at a node touches one slot: the sequential engine and
/// every shard of the parallel one hold a `Vec<NodeSlot>` indexed like
/// their node arena. Declaration order is layout order (`repr(C)`): the
/// scalars every event reads come first, directly followed by the head of
/// the timer set, so a token hop stays within the slot's first two cache
/// lines.
#[derive(Debug, Clone)]
#[repr(C)]
pub(crate) struct NodeSlot {
    /// Timer generation counter (the stamp of the latest arm).
    gen: u64,
    /// Event-emission counter (the `seq` of this node's [`EventKey`]s).
    pub emit: u64,
    /// The node's private random stream — its draws depend only on its own
    /// activity, never on engine interleaving.
    pub rng: SplitMix64,
    /// Start time of the outstanding query ([`NO_QUERY`] = none).
    pub query_started: u64,
    /// The node crashed: its deliveries and timers are dropped.
    pub crashed: bool,
    /// Live timers.
    pub timers: TimerSet,
}

impl NodeSlot {
    /// The slot of node `id`. Streams are keyed by the stable [`NodeId`]
    /// (not a dense index), so any engine covering any subset of the layout
    /// derives identical streams for identical nodes.
    pub fn new(seed: u64, id: NodeId) -> Self {
        NodeSlot {
            gen: 0,
            emit: 0,
            rng: SplitMix64::stream(seed, NODE_STREAM_SALT ^ id.0),
            query_started: NO_QUERY,
            crashed: false,
            timers: TimerSet::default(),
        }
    }

    /// Arm `kind`: stamps a fresh generation and reserves the emission
    /// number of the queue entry. Returns `(gen, emission seq)`.
    #[inline]
    pub fn arm_timer(&mut self, kind: TimerKind) -> (u64, u64) {
        self.gen += 1;
        self.timers.arm(kind, self.gen);
        let seq = self.emit;
        self.emit += 1;
        (self.gen, seq)
    }
}

/// Deterministic same-tick tiebreaker of one queued occurrence.
///
/// Keys order lexicographically as `(cls, src, seq)`:
///
/// - `cls` 0 marks **scheduled** events (the scenario's crashes, queries,
///   partition transitions and pre-resolved wireless deliveries), with
///   `seq` the schedule counter — so same-tick scheduled events resolve in
///   schedule order, before any same-tick protocol traffic;
/// - `cls` 1 marks **runtime-created** events (frames, timers), with `src`
///   the creating node's dense index and `seq` that node's emission
///   counter.
///
/// Because every component derives from the event's provenance — not from
/// when some engine happened to push it — the key is identical across the
/// sequential and the sharded-parallel engine, which is the foundation of
/// their trace equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    /// 0 = scheduled, 1 = runtime-created.
    pub cls: u8,
    /// Creating node's dense index (scheduled events: 0; runtime events
    /// from outside the layout: `u32::MAX`).
    pub src: u32,
    /// Schedule counter (`cls` 0) or per-creator emission counter.
    pub seq: u64,
}

impl EventKey {
    /// Key of the `seq`-th scheduled event.
    pub fn scheduled(seq: u64) -> Self {
        EventKey { cls: 0, src: 0, seq }
    }

    /// Key of the `seq`-th emission of node `src`.
    pub fn emitted(src: u32, seq: u64) -> Self {
        EventKey { cls: 1, src, seq }
    }
}

/// One scheduled occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Event {
    pub at: u64,
    pub key: EventKey,
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// An encoded [`Envelope`] frame in flight between two NEs. `to` is
    /// `None` when the destination is outside the layout (the frame is
    /// still decoded and counted on arrival, like the live runtime's
    /// receive path for unroutable destinations). In the sharded engine
    /// `to` is the destination's index *local to the owning shard*.
    Deliver {
        from: NodeId,
        to: Option<NodeIdx>,
        frame: Bytes,
    },
    /// A timer expiry; `gen` is the generation stamp assigned at arm time —
    /// a mismatch against the node's live slot marks a superseded entry.
    Timer {
        node: NodeIdx,
        kind: TimerKind,
        gen: u64,
    },
    /// An encoded [`Msg::FromMh`] frame crossing the wireless hop. The
    /// hop's loss, latency and per-MH FIFO floor are resolved at schedule
    /// time (they depend only on the schedule and the per-MH random
    /// stream), so the queue only ever sees the resolved delivery.
    MhDeliver {
        ap: NodeId,
        frame: Bytes,
    },
    Crash {
        node: NodeId,
    },
    QueryStart {
        node: NodeId,
        scope: QueryScope,
    },
    /// A scheduled link partition between one NE pair becomes active.
    PartitionStart {
        a: NodeId,
        b: NodeId,
    },
    /// A scheduled link partition heals.
    PartitionHeal {
        a: NodeId,
        b: NodeId,
    },
}

impl EventKind {
    /// Whether this occurrence is a *scheduled disruption* — an injected
    /// scenario event (mobile-host traffic, crash, query, partition
    /// transition) rather than ordinary protocol traffic or a timer. The
    /// queue counts pending disruptions so observers can gate
    /// quiescence-sensitive invariant checks in O(1).
    pub(crate) fn is_disruption(&self) -> bool {
        matches!(
            self,
            EventKind::MhDeliver { .. }
                | EventKind::Crash { .. }
                | EventKind::QueryStart { .. }
                | EventKind::PartitionStart { .. }
                | EventKind::PartitionHeal { .. }
        )
    }
}

/// One wheel bucket: the pending entries of a single tick.
///
/// Entries arrive in push order and are sorted by [`EventKey`] **lazily**,
/// the first time the scan reaches the bucket's tick — almost every push
/// happens before its tick becomes current, so the common push is an O(1)
/// append and the per-tick sort runs once. Entries created *while* their
/// own tick is being drained (zero-latency cascades) hit the already-
/// sorted bucket and insert at their key's position.
#[derive(Debug, Default)]
struct Bucket {
    entries: VecDeque<Event>,
    /// The tick this bucket is currently sorted for (`None` = unsorted).
    sorted_for: Option<u64>,
}

/// The bucketed near-future event store.
#[derive(Debug)]
struct Wheel {
    /// `buckets[at & (WHEEL_SLOTS-1)]` holds every pending entry for tick
    /// `at`. All live entries of one bucket share the same `at`: ticks a
    /// full rotation apart cannot coexist because an entry is admitted
    /// only within `now + WHEEL_SLOTS` and drained before `now` passes it.
    buckets: Vec<Bucket>,
    len: usize,
    /// Monotone lower bound on the earliest entry's `at` (scan cursor).
    hint: u64,
}

impl Wheel {
    fn new() -> Self {
        Wheel { buckets: (0..WHEEL_SLOTS).map(|_| Bucket::default()).collect(), len: 0, hint: 0 }
    }

    #[inline]
    fn bucket_of(at: u64) -> usize {
        (at & (WHEEL_SLOTS - 1)) as usize
    }

    #[inline]
    fn push(&mut self, event: Event) {
        if event.at < self.hint {
            self.hint = event.at;
        }
        let bucket = &mut self.buckets[Self::bucket_of(event.at)];
        if bucket.entries.is_empty() {
            bucket.sorted_for = None;
            bucket.entries.push_back(event);
        } else if bucket.sorted_for == Some(event.at) {
            // The bucket's tick is being drained right now: keep it in key
            // order so same-tick cascades still pop deterministically.
            let pos = bucket.entries.partition_point(|e| e.key < event.key);
            bucket.entries.insert(pos, event);
        } else {
            bucket.entries.push_back(event);
        }
        self.len += 1;
    }

    /// Earliest `(at, key)` across the wheel, or `None` when empty.
    ///
    /// All entries satisfy `now <= at < now + WHEEL_SLOTS` (earlier ones
    /// were popped before `now` could advance past them; later ones are
    /// rejected at push time), so the scan from `max(hint, now)` visits at
    /// most `WHEEL_SLOTS` buckets, and the amortised cost is O(1) per
    /// event because the cursor only ever moves forward between pushes.
    fn min_entry(&mut self, now: u64) -> Option<(u64, EventKey)> {
        if self.len == 0 {
            return None;
        }
        let mut t = self.hint.max(now);
        loop {
            let bucket = &mut self.buckets[Self::bucket_of(t)];
            if let Some(front) = bucket.entries.front() {
                if front.at == t {
                    if bucket.sorted_for != Some(t) {
                        bucket.entries.make_contiguous().sort_unstable_by_key(|e| e.key);
                        bucket.sorted_for = Some(t);
                    }
                    self.hint = t;
                    return Some((t, bucket.entries.front().expect("non-empty").key));
                }
                debug_assert!(front.at > t, "wheel bucket holds an entry in the past");
            }
            debug_assert!(t < u64::MAX, "wheel scan ran past u64::MAX with entries pending");
            t += 1;
            debug_assert!(
                t <= now.saturating_add(WHEEL_SLOTS),
                "wheel scan overran the horizon with {} entries pending",
                self.len
            );
        }
    }

    /// Pop the front entry of the bucket for tick `at` (which
    /// [`Wheel::min_entry`] just identified and sorted).
    fn pop_at(&mut self, at: u64) -> Event {
        let bucket = &mut self.buckets[Self::bucket_of(at)];
        let event = bucket.entries.pop_front().expect("min_entry found this bucket");
        debug_assert_eq!(event.at, at);
        if bucket.entries.is_empty() {
            bucket.sorted_for = None;
            // Give the buffer back instead of parking it here for a whole
            // rotation (see `RELEASE_ENTRIES`).
            if bucket.entries.capacity() > RELEASE_ENTRIES {
                bucket.entries = VecDeque::new();
            }
        }
        self.len -= 1;
        event
    }

    /// Entry slots allocated across the buckets, used or not.
    fn capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.capacity()).sum()
    }
}

/// The merged event queue (see module docs).
#[derive(Debug)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    wheel: Option<Wheel>,
    peak_len: usize,
    /// Queued entries whose kind [`EventKind::is_disruption`].
    disruptions: usize,
}

impl EventQueue {
    pub fn new(kind: QueueKind) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            wheel: (kind == QueueKind::TimerWheel).then(Wheel::new),
            peak_len: 0,
            disruptions: 0,
        }
    }

    /// Queued entries (superseded timer entries included, exactly what the
    /// engine still has to drain).
    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel.as_ref().map_or(0, |w| w.len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of [`EventQueue::len`] since construction.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Pending scheduled disruptions (see [`EventKind::is_disruption`]).
    pub fn disruptions(&self) -> usize {
        self.disruptions
    }

    /// Bytes of entry storage the queue holds on to — bucket and far-heap
    /// *capacity*, not occupancy — which is what it costs in resident
    /// memory. Frame payloads are not included.
    pub fn retained_bytes(&self) -> usize {
        let slots = self.heap.capacity() + self.wheel.as_ref().map_or(0, Wheel::capacity);
        slots * std::mem::size_of::<Event>()
    }

    /// Queue an occurrence: near-future ones go to the wheel, far ones (or
    /// every one in [`QueueKind::BinaryHeap`] mode) to the heap. The
    /// `at - now < WHEEL_SLOTS` admission keeps the difference well-formed
    /// for timestamps up to and including `u64::MAX`.
    #[inline]
    pub fn push(&mut self, now: u64, at: u64, key: EventKey, kind: EventKind) {
        debug_assert!(at >= now);
        if kind.is_disruption() {
            self.disruptions += 1;
        }
        let event = Event { at, key, kind };
        match &mut self.wheel {
            Some(wheel) if at - now < WHEEL_SLOTS => wheel.push(event),
            _ => self.heap.push(Reverse(event)),
        }
        let len = self.len();
        if len > self.peak_len {
            self.peak_len = len;
        }
    }

    /// Timestamp of the next entry in `(at, key)` order.
    pub fn peek_at(&mut self, now: u64) -> Option<u64> {
        self.peek_entry(now).map(|(at, _)| at)
    }

    /// `(at, key)` of the next entry — what the parallel engine's merged
    /// driver compares across shard queues to pop the global minimum.
    pub fn peek_entry(&mut self, now: u64) -> Option<(u64, EventKey)> {
        let heap_key = self.heap.peek().map(|Reverse(ev)| (ev.at, ev.key));
        let wheel_key = self.wheel.as_mut().and_then(|w| w.min_entry(now));
        match (heap_key, wheel_key) {
            (Some(h), Some(w)) => Some(h.min(w)),
            (h, w) => h.or(w),
        }
    }

    /// Pop the next entry in strict global `(at, key)` order.
    pub fn pop(&mut self, now: u64) -> Option<Event> {
        let heap_key = self.heap.peek().map(|Reverse(ev)| (ev.at, ev.key));
        let wheel_key = self.wheel.as_mut().and_then(|w| w.min_entry(now));
        let take_wheel = match (heap_key, wheel_key) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(h), Some(w)) => w < h,
        };
        let event = if take_wheel {
            let (at, _) = wheel_key.expect("wheel key present");
            self.wheel.as_mut().expect("wheel mode").pop_at(at)
        } else {
            self.heap.pop().map(|Reverse(ev)| ev)?
        };
        if event.kind.is_disruption() {
            self.disruptions -= 1;
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(node: u64) -> EventKind {
        EventKind::Crash { node: NodeId(node) }
    }

    fn timer(node: u32, gen: u64) -> EventKind {
        EventKind::Timer { node: NodeIdx(node), kind: TimerKind::Heartbeat, gen }
    }

    /// Drain a queue to `(at, key)` pairs, advancing `now` like the engine.
    fn drain(q: &mut EventQueue) -> Vec<(u64, EventKey)> {
        let mut now = 0;
        let mut out = Vec::new();
        while let Some(ev) = q.pop(now) {
            now = now.max(ev.at);
            out.push((ev.at, ev.key));
        }
        out
    }

    #[test]
    fn wheel_and_heap_agree_on_global_order() {
        // Interleave timers and non-timers with colliding timestamps and
        // out-of-order keys; both modes must pop the identical (at, key)
        // stream.
        let mut orders = Vec::new();
        for kind in [QueueKind::TimerWheel, QueueKind::BinaryHeap] {
            let mut q = EventQueue::new(kind);
            for i in 0..200u64 {
                let at = (i * 7) % 50;
                if i % 3 == 0 {
                    q.push(0, at, EventKey::scheduled(i), crash(i));
                } else {
                    // Descending src within a tick: key order != push order.
                    q.push(0, at, EventKey::emitted(200 - i as u32, i % 5), timer(i as u32, i));
                }
            }
            orders.push(drain(&mut q));
        }
        assert_eq!(orders[0], orders[1]);
        // (at, key) must be sorted, scheduled before runtime at each tick.
        let mut sorted = orders[0].clone();
        sorted.sort_unstable();
        assert_eq!(orders[0], sorted);
    }

    #[test]
    fn same_tick_entries_pop_in_key_order_not_push_order() {
        let mut q = EventQueue::new(QueueKind::TimerWheel);
        q.push(0, 5, EventKey::emitted(9, 0), timer(9, 1));
        q.push(0, 5, EventKey::emitted(2, 3), timer(2, 1));
        q.push(0, 5, EventKey::scheduled(0), crash(1));
        q.push(0, 5, EventKey::emitted(2, 1), timer(2, 2));
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (5, EventKey::scheduled(0)),
                (5, EventKey::emitted(2, 1)),
                (5, EventKey::emitted(2, 3)),
                (5, EventKey::emitted(9, 0)),
            ]
        );
    }

    #[test]
    fn far_events_fall_back_to_the_heap_and_still_order() {
        let mut q = EventQueue::new(QueueKind::TimerWheel);
        // Far beyond the wheel horizon.
        q.push(0, WHEEL_SLOTS * 3, EventKey::emitted(0, 1), timer(0, 1));
        // Near event.
        q.push(0, 5, EventKey::emitted(1, 2), timer(1, 2));
        q.push(0, WHEEL_SLOTS * 3, EventKey::scheduled(9), crash(9));
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (5, EventKey::emitted(1, 2)),
                (WHEEL_SLOTS * 3, EventKey::scheduled(9)),
                (WHEEL_SLOTS * 3, EventKey::emitted(0, 1)),
            ]
        );
    }

    #[test]
    fn extreme_timestamps_near_u64_max_do_not_overflow() {
        // Regression for the far-event fallback audit: sentinels at and
        // around u64::MAX must be admitted (to the heap), ordered and
        // drained without any wrapping `now + WHEEL_SLOTS` arithmetic —
        // including once `now` itself has advanced into the last wheel
        // rotation before u64::MAX.
        for kind in [QueueKind::TimerWheel, QueueKind::BinaryHeap] {
            let mut q = EventQueue::new(kind);
            q.push(0, u64::MAX, EventKey::scheduled(0), crash(1));
            q.push(0, u64::MAX - 1, EventKey::emitted(3, 0), timer(3, 1));
            q.push(0, 7, EventKey::emitted(1, 0), timer(1, 1));
            q.push(0, u64::MAX, EventKey::emitted(2, 5), timer(2, 2));
            let mut now = 0;
            let mut seen = Vec::new();
            while let Some(ev) = q.pop(now) {
                now = now.max(ev.at);
                // Once `now` sits one tick below u64::MAX, push an entry at
                // u64::MAX itself: in wheel mode this is admitted *into the
                // wheel* (at - now = 1), so the bucket scan and its horizon
                // bound run at the very top of the tick range.
                if ev.at == u64::MAX - 1 {
                    q.push(now, u64::MAX, EventKey::emitted(7, 0), timer(7, 1));
                }
                seen.push((ev.at, ev.key));
            }
            assert_eq!(
                seen,
                vec![
                    (7, EventKey::emitted(1, 0)),
                    (u64::MAX - 1, EventKey::emitted(3, 0)),
                    (u64::MAX, EventKey::scheduled(0)),
                    (u64::MAX, EventKey::emitted(2, 5)),
                    (u64::MAX, EventKey::emitted(7, 0)),
                ],
                "mode {kind:?}"
            );
            assert!(q.is_empty());
        }
    }

    #[test]
    fn wheel_reuses_buckets_across_windows() {
        let mut q = EventQueue::new(QueueKind::TimerWheel);
        let mut now = 0;
        let mut popped = Vec::new();
        // March time across several full wheel rotations, always keeping
        // the push inside the horizon.
        for round in 0..5u64 {
            let at = now + (round * 37) % WHEEL_SLOTS;
            q.push(now, at, EventKey::emitted(0, round), timer(0, round));
            let ev = q.pop(now).expect("entry queued");
            now = now.max(ev.at);
            popped.push(ev.at);
        }
        assert_eq!(popped.len(), 5);
        assert!(popped.windows(2).all(|w| w[0] <= w[1]));
        assert!(q.is_empty());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new(QueueKind::TimerWheel);
        for i in 0..10u64 {
            q.push(0, i, EventKey::emitted(0, i), timer(0, i));
        }
        assert_eq!(q.peak_len(), 10);
        let _ = drain(&mut q);
        assert_eq!(q.peak_len(), 10, "peak survives draining");
    }

    #[test]
    fn disruption_counter_tracks_scheduled_events() {
        let mut q = EventQueue::new(QueueKind::TimerWheel);
        assert_eq!(q.disruptions(), 0);
        q.push(0, 5, EventKey::emitted(0, 0), timer(0, 1)); // not a disruption
        q.push(0, 3, EventKey::scheduled(0), crash(1));
        q.push(0, WHEEL_SLOTS * 2, EventKey::scheduled(1), crash(2)); // heap-side disruption
        q.push(
            0,
            4,
            EventKey::scheduled(2),
            EventKind::PartitionStart { a: NodeId(1), b: NodeId(2) },
        );
        assert_eq!(q.disruptions(), 3);
        let mut now = 0;
        while let Some(ev) = q.pop(now) {
            now = now.max(ev.at);
        }
        assert_eq!(q.disruptions(), 0);
    }

    #[test]
    fn drained_burst_buckets_give_their_memory_back() {
        // The fleet's shape: every node boots at tick 0, so all of them
        // beat in the same tick every 150 — a 100k-entry bucket that lands
        // in a *different* wheel slot each time (150·k mod 1024) — over a
        // thin background of per-tick traffic. Before buckets were released
        // on draining, each of those slots kept its 131,072-entry buffer
        // (7.3 MB) for good and the wheel grew with every burst.
        const BURST: u32 = 100_000;
        const BACKGROUND: u32 = 10;
        const PERIOD: u64 = 150;
        let mut q = EventQueue::new(QueueKind::TimerWheel);
        for node in 0..BURST + BACKGROUND {
            let at = if node < BURST { PERIOD } else { 1 };
            q.push(0, at, EventKey::emitted(node, 0), timer(node, 0));
        }
        let bound = |q: &EventQueue| 2 * q.peak_len() * std::mem::size_of::<Event>();
        let (mut now, mut bursts) = (0, 0);
        // Drained like the engine does: pop in order, each expiry re-arms.
        while now < 3 * WHEEL_SLOTS + PERIOD {
            let ev = q.pop(now).expect("periodic timers never run dry");
            now = ev.at;
            let EventKind::Timer { node, gen, .. } = ev.kind else { unreachable!() };
            let period = if node.0 < BURST { PERIOD } else { 1 };
            q.push(now, now + period, EventKey::emitted(node.0, gen + 1), timer(node.0, gen + 1));
            if node.0 == BURST + BACKGROUND - 1 && now % PERIOD == 0 {
                // The last entry of a burst tick just left its bucket.
                bursts += 1;
                assert!(
                    q.retained_bytes() <= bound(&q),
                    "after burst {bursts}: {} bytes retained for a peak of {} entries",
                    q.retained_bytes(),
                    q.peak_len()
                );
            }
        }
        assert!(bursts >= 20, "three rotations hold twenty bursts, saw {bursts}");
        assert_eq!(q.len(), (BURST + BACKGROUND) as usize);
        assert!(q.retained_bytes() >= q.len() * std::mem::size_of::<Event>());
    }

    #[test]
    fn peek_matches_pop() {
        for kind in [QueueKind::TimerWheel, QueueKind::BinaryHeap] {
            let mut q = EventQueue::new(kind);
            for i in 0..64u64 {
                q.push(0, (i * 13) % 40, EventKey::emitted((i % 7) as u32, i), timer(0, i));
                q.push(0, (i * 5) % 40, EventKey::scheduled(i), crash(i));
            }
            let mut now = 0;
            while let Some(at) = q.peek_at(now) {
                let ev = q.pop(now).expect("peeked entry pops");
                assert_eq!(ev.at, at);
                now = now.max(ev.at);
            }
            assert!(q.is_empty());
        }
    }
}
