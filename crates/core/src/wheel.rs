//! The one timer wheel of the workspace: 1,024 one-tick buckets in front of
//! a `BinaryHeap` for entries beyond their horizon. The simulator's event
//! queue (`rgb_sim`, both engines) and every reactor worker's timers
//! (`rgb_net`) are each a [`Wheel`] over their own [`WheelEntry`] type.
//!
//! A wheel pops in its entries' own [`Ord`] order whichever container holds
//! them, so the buckets are never observable: they only make queuing a
//! near-future entry an append instead of a sift of the whole queue, and
//! let superseded timer entries drain as the wheel turns.
//!
//! ## Buckets
//!
//! `buckets[at % 1024]` holds the entries of tick `at` in push order until
//! a scan first reaches the tick and sorts them: almost every push happens
//! before its tick becomes current, so the common push is an O(1) append
//! and each tick is sorted once. A push into the tick being drained (a
//! zero-latency cascade, a timer armed while its own tick drains) meets the
//! sorted bucket and is inserted at its position.
//!
//! ## The floor
//!
//! Admission and the scan start are measured from a **floor**: a tick at or
//! below every queued entry and every future push — the `at` of the last
//! entry popped, raised to `now` by a [`Wheel::pop_due`] that found nothing
//! due. An entry goes to a bucket when `at - floor < 1024` and to the heap
//! otherwise, so a bucket only ever holds one tick: two ticks a rotation
//! apart cannot both lie in `[floor, floor + 1024)`. A push below the floor
//! is clamped to it.
//!
//! For the simulator the floor trails its clock: `now` advances to every
//! popped entry (past it only across an idle `run_until`) and nothing is
//! scheduled before `now`, so the clamp never fires.
//! For the reactor it is the drain cursor, never the wall clock, which may
//! have run past entries not drained yet: an entry armed 1,023 ticks after
//! such a clock would share an undrained entry's bucket. The clamp keeps the
//! reactor's rule that a timer armed for a tick already drained still fires.
//!
//! ## Far-horizon arithmetic
//!
//! Ticks are plain `u64`s and both engines may hold sentinels at or near
//! `u64::MAX` ("practically never" timers). Admission computes
//! `at - floor` (`at >= floor` after the clamp) and never a `floor + 1024`
//! that could wrap; a scan stops at the earliest bucketed entry, which is
//! at most `u64::MAX`.
//!
//! ## Releasing drained buckets
//!
//! A drained bucket keeps its buffer only up to its entry type's
//! [`WheelEntry::RELEASE_ENTRIES`]. Both engines' ticks are lumpy: every
//! node boots in the same tick and so beats in step, one tick per heartbeat
//! period holds an entry per node, in a different bucket each period —
//! without the release, every bucket ends up holding a burst-sized buffer.
//! With it the wheel retains at most twice what it holds (a buffer doubles
//! as it fills) plus the threshold per bucket.
//!
//! The threshold is the entry type's because the engines' ticks differ in
//! shape and any one value regresses one of them (EXPERIMENTS.md E18, E20):
//!
//! - simulator events keep 1,024 (≈ 56 KB): ordinary ticks stay under a
//!   thousand events even at 99,498 NEs and keep their allocation, the
//!   fleet's 100k-entry heartbeat burst (7 MB) is given back. 64 shrinks
//!   `peak_rss_mb` further but ordinary ticks regrow their buffer: +12 %
//!   `setup_s` on `fleet_steady_par`;
//! - reactor timers keep 256 (10 KB). A worker of 1,190 NEs sees ~6,900
//!   non-empty ticks per 10 s, mostly of 128–1,024 entries (the ticks in
//!   which heartbeats arrive re-arm a parent or child timeout per node), and
//!   grew 15 → 88 MB of RSS over a 20 s `live_day` window with no release.
//!   1,024 still retains 71 MB, 256 retains 24 MB, 64 retains 18 MB at the
//!   same CPU cost but regrows the ~100-entry ordinary tick every time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What a [`Wheel`] holds: an entry due at a tick, ordered by that tick
/// first (`a.at() < b.at()` implies `a < b`).
pub trait WheelEntry: Ord {
    /// Largest buffer, in entries, a drained bucket keeps for its next tick
    /// (the module docs give the values in use and why they differ).
    const RELEASE_ENTRIES: usize;

    /// The tick this entry is due at.
    fn at(&self) -> u64;

    /// Move this entry to tick `at` (the floor clamp; only ever later).
    fn set_at(&mut self, at: u64);
}

/// The entries of one tick; `sorted` once a scan has reached it (never
/// while empty).
#[derive(Debug)]
struct Bucket<E> {
    entries: VecDeque<E>,
    sorted: bool,
}

/// A bucketed timer wheel with a far heap (see the module docs).
#[derive(Debug)]
pub struct Wheel<E> {
    buckets: Vec<Bucket<E>>,
    far: BinaryHeap<Reverse<E>>,
    /// Entries in the buckets.
    near: usize,
    floor: u64,
    /// Where the next scan starts: at or above the floor, at or below the
    /// earliest bucketed entry.
    hint: u64,
}

impl<E: WheelEntry> Default for Wheel<E> {
    fn default() -> Self {
        let bucket = || Bucket { entries: VecDeque::new(), sorted: false };
        let buckets = (0..Self::SLOTS).map(|_| bucket()).collect();
        Wheel { buckets, far: BinaryHeap::new(), near: 0, floor: 0, hint: 0 }
    }
}

impl<E: WheelEntry> Wheel<E> {
    /// Number of one-tick buckets: the horizon of the wheel.
    pub const SLOTS: u64 = 1 << 10;

    /// Queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry slots allocated across the buckets and the far heap, used or
    /// not: what the wheel costs in resident memory.
    pub fn capacity(&self) -> usize {
        self.far.capacity() + self.buckets.iter().map(|b| b.entries.capacity()).sum::<usize>()
    }

    /// Queue `entry`, clamped to the floor when it is due before it.
    #[inline]
    pub fn push(&mut self, mut entry: E) {
        if entry.at() < self.floor {
            entry.set_at(self.floor);
        }
        let at = entry.at();
        if at - self.floor >= Self::SLOTS {
            return self.far.push(Reverse(entry));
        }
        if self.near == 0 || at < self.hint {
            self.hint = at;
        }
        let bucket = &mut self.buckets[(at % Self::SLOTS) as usize];
        if bucket.sorted {
            let pos = bucket.entries.partition_point(|e| *e < entry);
            bucket.entries.insert(pos, entry);
        } else {
            bucket.entries.push_back(entry);
        }
        self.near += 1;
    }

    /// The earliest entry.
    #[inline]
    pub fn peek(&mut self) -> Option<&E> {
        match self.front() {
            Some(i) => self.buckets[i].entries.front(),
            None => self.far.peek().map(|Reverse(e)| e),
        }
    }

    /// Pop the earliest entry; its tick becomes the floor.
    #[inline]
    pub fn pop(&mut self) -> Option<E> {
        let entry = match self.front() {
            Some(i) => {
                let bucket = &mut self.buckets[i];
                let entry = bucket.entries.pop_front().expect("front bucket is non-empty");
                if bucket.entries.is_empty() {
                    bucket.sorted = false;
                    if bucket.entries.capacity() > E::RELEASE_ENTRIES {
                        bucket.entries = VecDeque::new();
                    }
                }
                self.near -= 1;
                entry
            }
            None => self.far.pop()?.0,
        };
        self.floor = entry.at();
        self.hint = self.hint.max(self.floor);
        Some(entry)
    }

    /// Pop the earliest entry if it is due at `now`; when nothing is, every
    /// queued entry is later and the floor rises to `now`.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<E> {
        if self.peek().is_some_and(|e| e.at() <= now) {
            return self.pop();
        }
        self.floor = self.floor.max(now);
        self.hint = self.hint.max(self.floor);
        None
    }

    /// The bucket of the earliest entry, sorted; `None` when that entry is
    /// in the far heap or nothing is queued. The scan ends at the first
    /// non-empty bucket from `hint` on, which holds the earliest bucketed
    /// tick because every bucketed entry lies in `[floor, floor + SLOTS)`.
    #[inline]
    fn front(&mut self) -> Option<usize> {
        if self.near == 0 {
            return None;
        }
        let slot = |t: u64| (t % Self::SLOTS) as usize;
        let mut t = self.hint;
        while self.buckets[slot(t)].entries.is_empty() {
            debug_assert!(t - self.floor < Self::SLOTS, "scan overran the horizon");
            t += 1;
        }
        self.hint = t;
        let bucket = &mut self.buckets[slot(t)];
        debug_assert_eq!(bucket.entries[0].at(), t, "bucket holds a foreign tick");
        if !bucket.sorted {
            bucket.entries.make_contiguous().sort_unstable();
            bucket.sorted = true;
        }
        let near = &bucket.entries[0];
        self.far.peek().is_none_or(|Reverse(far)| near < far).then_some(slot(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A test entry: a tick and a key unique across the run. A release
    /// threshold of four exercises the release on small bursts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Entry {
        at: u64,
        key: u64,
    }

    impl WheelEntry for Entry {
        const RELEASE_ENTRIES: usize = 4;
        fn at(&self) -> u64 {
            self.at
        }
        fn set_at(&mut self, at: u64) {
            self.at = at;
        }
    }

    const SLOTS: u64 = Wheel::<Entry>::SLOTS;

    /// The specification: a sorted set behind the floor rule of the module
    /// docs.
    #[derive(Default)]
    struct Model {
        set: BTreeSet<Entry>,
        floor: u64,
    }

    impl Model {
        fn push(&mut self, mut e: Entry) {
            e.at = e.at.max(self.floor);
            self.set.insert(e);
        }

        fn pop(&mut self) -> Option<Entry> {
            let e = self.set.pop_first()?;
            self.floor = e.at;
            Some(e)
        }

        fn pop_due(&mut self, now: u64) -> Option<Entry> {
            if self.set.first().is_some_and(|e| e.at <= now) {
                return self.pop();
            }
            self.floor = self.floor.max(now);
            None
        }
    }

    proptest::proptest! {
        /// The wheel pops what a sorted set pops, under every pattern both
        /// engines produce: near pushes, pushes into the tick being drained
        /// (and below it), far pushes, sentinels at and near `u64::MAX`,
        /// and `pop_due` on a clock that runs ahead of undrained entries.
        #[test]
        fn the_wheel_pops_what_a_sorted_set_pops(
            ops in proptest::collection::vec((0u8..12, 0u64..4_096, 0u64..1 << 16), 1..400),
        ) {
            use proptest::prelude::*;
            let (mut wheel, mut model) = (Wheel::default(), Model::default());
            let mut now = 0u64;
            for (seq, (op, arg, key)) in ops.into_iter().enumerate() {
                // Random high bits, so key order is not push order; the
                // sequence number keeps keys unique.
                let key = key << 32 | seq as u64;
                let at = match op {
                    0..=2 => Some(now.saturating_add(arg % SLOTS)),
                    3 => Some(model.floor),
                    4 => Some(model.floor.saturating_sub(arg % 8)),
                    5 => Some(now.saturating_add(SLOTS + arg * 7)),
                    6 => Some(u64::MAX - arg % 3),
                    _ => None,
                };
                if let Some(at) = at {
                    wheel.push(Entry { at, key });
                    model.push(Entry { at, key });
                    continue;
                }
                match op {
                    7 | 8 => prop_assert_eq!(wheel.pop(), model.pop()),
                    9 => {
                        let popped = wheel.pop_due(now);
                        prop_assert_eq!(popped, model.pop_due(now));
                        match popped {
                            Some(e) => prop_assert!(e.at <= now, "{:?} is after {}", e, now),
                            None => prop_assert!(
                                wheel.peek().is_none_or(|e| e.at > now),
                                "a due entry was left behind at {}",
                                now
                            ),
                        }
                    }
                    // The clock runs ahead without draining, now and then
                    // into the last rotation before `u64::MAX`.
                    10 => now = now.saturating_add(arg),
                    _ if arg < 64 => now = now.max(u64::MAX - SLOTS),
                    _ => {}
                }
                prop_assert_eq!(wheel.peek().copied(), model.set.first().copied());
                prop_assert_eq!(wheel.len(), model.set.len());
            }
            while let Some(e) = model.pop() {
                prop_assert_eq!(wheel.pop(), Some(e));
            }
            prop_assert!(wheel.is_empty());
        }
    }

    #[test]
    fn an_entry_a_rotation_after_an_undrained_one_keeps_its_own_bucket() {
        // The clock has passed tick 10 but nothing was drained yet. A push
        // 1,023 ticks after that clock is due at 1,034 — tick 10's bucket
        // one rotation on. Admission measured from the clock would put it
        // beside the undrained entry; measured from the floor it is far.
        let mut wheel = Wheel::default();
        wheel.push(Entry { at: 10, key: 1 });
        let now = 11;
        wheel.push(Entry { at: now + SLOTS - 1, key: 0 });
        assert_eq!(wheel.pop_due(now), Some(Entry { at: 10, key: 1 }));
        assert_eq!(wheel.pop_due(now), None);
        assert_eq!(wheel.peek(), Some(&Entry { at: 1_034, key: 0 }));
        assert_eq!(wheel.pop_due(1_033), None);
        assert_eq!(wheel.pop_due(1_034), Some(Entry { at: 1_034, key: 0 }));
        assert!(wheel.is_empty());
    }
}
