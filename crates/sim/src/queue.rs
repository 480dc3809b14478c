//! The simulator's event queue: a [`Wheel`] of [`Event`]s (`rgb_core::wheel`,
//! whose docs carry the bucket, floor, far-horizon and release rules) plus
//! what the simulator adds on top — the count of pending scheduled
//! disruptions and the queue's high-water mark.
//!
//! The wheel pops in strict `(at, key)` order whichever container holds an
//! entry, and an [`EventKey`] derives from its event's provenance, not from
//! push order: that is why the sequential and the sharded-parallel engine
//! drain identical events in an identical global order. That the wheel pops
//! what a sorted set pops is `rgb_core::wheel`'s property test; this
//! module's tests run the queue production runs.

use bytes::Bytes;
use rgb_core::prelude::*;
use rgb_core::topology::NodeIdx;
use rgb_core::wheel::{Wheel, WheelEntry};

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

impl WheelEntry for Event {
    /// ≈ 56 KB of events; why the simulator keeps four times what the
    /// reactor keeps is in the `rgb_core::wheel` docs.
    const RELEASE_ENTRIES: usize = 1 << 10;

    fn at(&self) -> u64 {
        self.at
    }

    fn set_at(&mut self, at: u64) {
        self.at = at;
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

/// The simulator's queue (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    events: Wheel<Event>,
    peak_len: usize,
    /// Queued entries whose kind [`EventKind::is_disruption`].
    disruptions: usize,
}

impl EventQueue {
    /// Queued entries (superseded timer entries included, exactly what the
    /// engine still has to drain).
    pub fn len(&self) -> usize {
        self.events.len()
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
        self.events.capacity() * std::mem::size_of::<Event>()
    }

    /// Queue an occurrence, due at or after the clock of the world that
    /// owns the queue.
    #[inline]
    pub fn push(&mut self, event: Event) {
        if event.kind.is_disruption() {
            self.disruptions += 1;
        }
        self.events.push(event);
        self.peak_len = self.peak_len.max(self.events.len());
    }

    /// Timestamp of the next entry in `(at, key)` order.
    pub fn peek_at(&mut self) -> Option<u64> {
        self.events.peek().map(|ev| ev.at)
    }

    /// Pop the next entry in strict global `(at, key)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.events.pop()?;
        if event.kind.is_disruption() {
            self.disruptions -= 1;
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOTS: u64 = Wheel::<Event>::SLOTS;

    fn crash(node: u64) -> EventKind {
        EventKind::Crash { node: NodeId(node) }
    }

    fn timer(node: u32, gen: u64) -> EventKind {
        EventKind::Timer { node: NodeIdx(node), kind: TimerKind::Heartbeat, gen }
    }

    fn push(q: &mut EventQueue, at: u64, key: EventKey, kind: EventKind) {
        q.push(Event { at, key, kind });
    }

    /// Drain a queue to `(at, key)` pairs.
    fn drain(q: &mut EventQueue) -> Vec<(u64, EventKey)> {
        std::iter::from_fn(|| q.pop()).map(|ev| (ev.at, ev.key)).collect()
    }

    #[test]
    fn same_tick_entries_pop_in_key_order_not_push_order() {
        let mut q = EventQueue::default();
        push(&mut q, 5, EventKey::emitted(9, 0), timer(9, 1));
        push(&mut q, 5, EventKey::emitted(2, 3), timer(2, 1));
        push(&mut q, 5, EventKey::scheduled(0), crash(1));
        push(&mut q, 5, EventKey::emitted(2, 1), timer(2, 2));
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
        let mut q = EventQueue::default();
        // Far beyond the wheel horizon.
        push(&mut q, SLOTS * 3, EventKey::emitted(0, 1), timer(0, 1));
        // Near event.
        push(&mut q, 5, EventKey::emitted(1, 2), timer(1, 2));
        push(&mut q, SLOTS * 3, EventKey::scheduled(9), crash(9));
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (5, EventKey::emitted(1, 2)),
                (SLOTS * 3, EventKey::scheduled(9)),
                (SLOTS * 3, EventKey::emitted(0, 1)),
            ]
        );
    }

    #[test]
    fn extreme_timestamps_near_u64_max_do_not_overflow() {
        // Regression for the far-event fallback audit: sentinels at and
        // around u64::MAX must be admitted (to the heap), ordered and
        // drained without any wrapping `floor + SLOTS` arithmetic —
        // including once the floor itself has advanced into the last wheel
        // rotation before u64::MAX.
        let mut q = EventQueue::default();
        push(&mut q, u64::MAX, EventKey::scheduled(0), crash(1));
        push(&mut q, u64::MAX - 1, EventKey::emitted(3, 0), timer(3, 1));
        push(&mut q, 7, EventKey::emitted(1, 0), timer(1, 1));
        push(&mut q, u64::MAX, EventKey::emitted(2, 5), timer(2, 2));
        let mut seen = Vec::new();
        while let Some(ev) = q.pop() {
            // Once the floor sits one tick below u64::MAX, push an entry at
            // u64::MAX itself: this is admitted *into a bucket* (at - floor
            // = 1), so the bucket scan runs at the very top of the tick range.
            if ev.at == u64::MAX - 1 {
                push(&mut q, u64::MAX, EventKey::emitted(7, 0), timer(7, 1));
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
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_reuses_buckets_across_windows() {
        let mut q = EventQueue::default();
        let mut now = 0;
        let mut popped = Vec::new();
        // March time across several full wheel rotations, always keeping
        // the push inside the horizon.
        for round in 0..5u64 {
            let at = now + (round * 37) % SLOTS;
            push(&mut q, at, EventKey::emitted(0, round), timer(0, round));
            let ev = q.pop().expect("entry queued");
            now = now.max(ev.at);
            popped.push(ev.at);
        }
        assert_eq!(popped.len(), 5);
        assert!(popped.windows(2).all(|w| w[0] <= w[1]));
        assert!(q.is_empty());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::default();
        for i in 0..10u64 {
            push(&mut q, i, EventKey::emitted(0, i), timer(0, i));
        }
        assert_eq!(q.peak_len(), 10);
        let _ = drain(&mut q);
        assert_eq!(q.peak_len(), 10, "peak survives draining");
    }

    #[test]
    fn disruption_counter_tracks_scheduled_events() {
        let mut q = EventQueue::default();
        assert_eq!(q.disruptions(), 0);
        push(&mut q, 5, EventKey::emitted(0, 0), timer(0, 1)); // not a disruption
        push(&mut q, 3, EventKey::scheduled(0), crash(1));
        push(&mut q, SLOTS * 2, EventKey::scheduled(1), crash(2)); // heap-side disruption
        let partition = EventKind::PartitionStart { a: NodeId(1), b: NodeId(2) };
        push(&mut q, 4, EventKey::scheduled(2), partition);
        assert_eq!(q.disruptions(), 3);
        let _ = drain(&mut q);
        assert_eq!(q.disruptions(), 0);
    }

    #[test]
    fn drained_burst_buckets_give_their_memory_back() {
        // The fleet's shape: every node boots at tick 0, so all of them
        // beat in the same tick every 150 — a 100k-entry bucket that lands
        // in a *different* wheel slot each time (150·k mod 1024) — over a
        // thin background of per-tick traffic. Without the release at the
        // simulator's `RELEASE_ENTRIES`, each of those slots keeps its
        // 131,072-entry buffer (7.3 MB) for good and the wheel grows with
        // every burst.
        const BURST: u32 = 100_000;
        const BACKGROUND: u32 = 10;
        const PERIOD: u64 = 150;
        let mut q = EventQueue::default();
        for node in 0..BURST + BACKGROUND {
            let at = if node < BURST { PERIOD } else { 1 };
            push(&mut q, at, EventKey::emitted(node, 0), timer(node, 0));
        }
        let bound = |q: &EventQueue| 2 * q.peak_len() * std::mem::size_of::<Event>();
        let (mut now, mut bursts) = (0, 0);
        // Drained like the engine does: pop in order, each expiry re-arms.
        while now < 3 * SLOTS + PERIOD {
            let ev = q.pop().expect("periodic timers never run dry");
            now = ev.at;
            let EventKind::Timer { node, gen, .. } = ev.kind else { unreachable!() };
            let period = if node.0 < BURST { PERIOD } else { 1 };
            push(&mut q, now + period, EventKey::emitted(node.0, gen + 1), timer(node.0, gen + 1));
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
        let mut q = EventQueue::default();
        for i in 0..64u64 {
            push(&mut q, (i * 13) % 40, EventKey::emitted((i % 7) as u32, i), timer(0, i));
            push(&mut q, (i * 5) % 40, EventKey::scheduled(i), crash(i));
        }
        while let Some(at) = q.peek_at() {
            let ev = q.pop().expect("peeked entry pops");
            assert_eq!(ev.at, at);
        }
        assert!(q.is_empty());
    }
}
