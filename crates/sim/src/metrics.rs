//! Simulation metrics: message counters by label and link class, and a
//! simple quantile-capable histogram for latencies.
//!
//! The send counters sit on the simulator's hottest path (one increment
//! per transmitted frame), so they are **fixed-slot arrays** indexed by
//! [`MsgLabel`] and [`LinkClass`] — no map walks, no string hashing. The
//! string-keyed views the reports and tests consume are materialised on
//! demand by [`Metrics::by_label`] / [`Metrics::by_class`].

use crate::network::LinkClass;
use rgb_core::obs::LevelHistograms;
use rgb_core::prelude::{MsgLabel, TimerKind};
use std::collections::BTreeMap;

/// The latency histogram, re-exported from [`rgb_core::obs`].
///
/// Previously a sorted-sample-vector type local to this module whose
/// `quantile` needed `&mut self`; the bucketed core type reads quantiles
/// through `&self` and merges by count addition, and is shared with the
/// live runtime so every backend reports latency through one algebra.
pub use rgb_core::obs::Histogram;

/// Window accounting of the parallel engine
/// ([`crate::par::ParSimulation`]): why a sharded run was fast or slow.
///
/// Sequential runs leave every counter at zero. Shards accrue their own
/// counters and the driver folds them with [`ParStats::merge`]; all fields
/// are sums across shards except [`ParStats::max_batch`], which is the
/// maximum over every mailbox flush of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Conservative windows processed (one count per shard per window).
    pub windows: u64,
    /// Idle-window skips: windows where a shard's clock jumped ahead to
    /// the next global event instead of grinding through empty windows.
    pub idle_skips: u64,
    /// Cross-shard events flushed through batched mailboxes.
    pub frames_batched: u64,
    /// Mailbox batches sent (one channel op per destination per window
    /// with traffic — the O(shards²) bound the batching exists for).
    pub batches: u64,
    /// Largest single mailbox batch of the run.
    pub max_batch: u64,
    /// Wall nanoseconds spent executing events inside windows
    /// (`Shard::run_window`), summed across shards.
    pub execute_nanos: u64,
    /// Wall nanoseconds spent flushing cross-shard mailbox batches.
    pub flush_nanos: u64,
    /// Wall nanoseconds spent waiting at the window barrier — the
    /// load-imbalance signal: a shard with little work burns its window
    /// here.
    pub barrier_nanos: u64,
    /// Wall nanoseconds spent draining incoming mailbox batches.
    pub drain_nanos: u64,
}

impl ParStats {
    /// Fold `other` into `self` (sums, except `max_batch` which takes the
    /// maximum).
    pub fn merge(&mut self, other: &ParStats) {
        self.windows += other.windows;
        self.idle_skips += other.idle_skips;
        self.frames_batched += other.frames_batched;
        self.batches += other.batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.execute_nanos += other.execute_nanos;
        self.flush_nanos += other.flush_nanos;
        self.barrier_nanos += other.barrier_nanos;
        self.drain_nanos += other.drain_nanos;
    }
}

/// What one shard of a [`crate::par::ParSimulation`] held and did: the
/// per-shard terms of [`crate::par::ParSimulation::par_stats`] and
/// [`crate::par::ParSimulation::processed_events`], which only report sums.
/// A static split is the whole load balance of a windowed run, and a sum
/// cannot show an uneven one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// NEs the shard owns.
    pub nodes: usize,
    /// Events the shard processed (boot included).
    pub processed: u64,
    /// The shard's own window accounting.
    pub par: ParStats,
}

impl ShardLoad {
    /// `max / mean` of `processed` over `loads`: 1.0 is an even split, `k`
    /// is one of `k` shards doing everything; `None` when nothing was
    /// processed. Event counts are deterministic, so this reads the same on
    /// any host.
    pub fn event_imbalance(loads: &[ShardLoad]) -> Option<f64> {
        let total: u64 = loads.iter().map(|l| l.processed).sum();
        let max = loads.iter().map(|l| l.processed).max()?;
        (total > 0).then(|| max as f64 * loads.len() as f64 / total as f64)
    }
}

/// Counters collected during a simulation.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages sent, one slot per [`MsgLabel`].
    sent_by_label: [u64; MsgLabel::COUNT],
    /// Messages sent, one slot per [`LinkClass`].
    sent_by_class: [u64; LinkClass::COUNT],
    /// Messages lost in the network.
    pub lost: u64,
    /// Frames swallowed by an active link partition (counted separately
    /// from random `lost` so fault runs can attribute silence to its
    /// cause).
    pub partition_dropped: u64,
    /// Extra frame copies produced by the duplication fault dimension.
    pub duplicated: u64,
    /// Frames delivered out of band by the reordering fault dimension.
    pub reordered: u64,
    /// Frames that arrived but were dropped by the receive path because
    /// they failed to decode or carried a foreign group id (the simulator
    /// routes every delivery through `rgb_core::wire`, exactly like the
    /// live runtime).
    pub codec_rejected: u64,
    /// Total messages sent (including lost).
    pub sent_total: u64,
    /// Application events delivered.
    pub app_events: u64,
    /// Application events dropped by the opt-in `delivered` cap (see
    /// `Simulation::set_delivered_cap`).
    pub app_events_dropped: u64,
    /// Superseded timer entries drained lazily from the event queue (a
    /// re-arm outpaced the old expiry; the stale entry was skipped).
    pub stale_timer_skips: u64,
    /// Live timer expiries handed to a node, one slot per [`TimerKind`]
    /// (payloads aside). With `stale_timer_skips` and the per-label send
    /// counters this is the event mix of a run: what `step()` spent its
    /// pops on.
    timer_fires: [u64; TimerKind::COUNT],
    /// Per-query latency (request → result).
    pub query_latency: Histogram,
    /// Per-ring-level latency surfaces (join agreement, repair/handoff
    /// duration, query RTT), recorded only when an engine's observability
    /// tracking is enabled. Merged level-by-level, so shard aggregation
    /// and sequential runs produce identical surfaces.
    pub levels: LevelHistograms,
    /// Parallel-engine window accounting (zero for sequential runs).
    pub par: ParStats,
}

impl Metrics {
    /// Count one transmitted frame (hot path: two array increments).
    #[inline]
    pub fn record_send(&mut self, label: MsgLabel, class: LinkClass) {
        self.sent_by_label[label as usize] += 1;
        self.sent_by_class[class.index()] += 1;
        self.sent_total += 1;
    }

    /// Count one live timer expiry (hot path: one array increment).
    #[inline]
    pub fn record_timer_fire(&mut self, kind: TimerKind) {
        self.timer_fires[kind.index()] += 1;
    }

    /// Live expiries per timer kind, as `(name, count)` in
    /// [`TimerKind::NAMES`] order (zero entries included).
    pub fn timer_fires(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        TimerKind::NAMES.into_iter().zip(self.timer_fires)
    }

    /// Count of a single label slot.
    #[inline]
    pub fn sent_label(&self, label: MsgLabel) -> u64 {
        self.sent_by_label[label as usize]
    }

    /// Count of a single label by its string view (reports, assertions).
    /// Unknown labels count 0.
    pub fn sent(&self, label: &str) -> u64 {
        MsgLabel::from_name(label).map(|l| self.sent_label(l)).unwrap_or(0)
    }

    /// Count of one link class.
    #[inline]
    pub fn sent_class(&self, class: LinkClass) -> u64 {
        self.sent_by_class[class.index()]
    }

    /// The paper's "proposal" traffic: everything except acknowledgements
    /// and heartbeats (formulas (1)–(6) count proposal hops only).
    pub fn proposal_hops(&self) -> u64 {
        [
            MsgLabel::Token,
            MsgLabel::NotifyParent,
            MsgLabel::NotifyChild,
            MsgLabel::MqLocal,
            MsgLabel::FromMh,
        ]
        .into_iter()
        .map(|l| self.sent_label(l))
        .sum()
    }

    /// String-keyed view of the per-label counters (non-zero entries).
    pub fn by_label(&self) -> BTreeMap<&'static str, u64> {
        MsgLabel::ALL
            .into_iter()
            .filter(|&l| self.sent_label(l) > 0)
            .map(|l| (l.as_str(), self.sent_label(l)))
            .collect()
    }

    /// Per-class view of the send counters (non-zero entries).
    pub fn by_class(&self) -> impl Iterator<Item = (LinkClass, u64)> + '_ {
        LinkClass::ALL
            .into_iter()
            .filter(|&c| self.sent_class(c) > 0)
            .map(|c| (c, self.sent_class(c)))
    }

    /// Fold `other` into `self`: every counter — the fixed-slot
    /// `sent_by_label`/`sent_by_class`/`timer_fires` arrays included — is
    /// summed, and
    /// the latency histograms take the multiset union of their samples.
    ///
    /// This is the shard-aggregation primitive of the parallel engine
    /// ([`crate::par::ParSimulation::metrics`] merges one `Metrics` per
    /// shard), and it is exactly additive: merging the per-shard counters
    /// of a run yields the same totals a sequential execution of the same
    /// event set would have counted.
    pub fn merge(&mut self, other: &Metrics) {
        for (slot, v) in self.sent_by_label.iter_mut().zip(other.sent_by_label) {
            *slot += v;
        }
        for (slot, v) in self.sent_by_class.iter_mut().zip(other.sent_by_class) {
            *slot += v;
        }
        self.lost += other.lost;
        self.partition_dropped += other.partition_dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.codec_rejected += other.codec_rejected;
        self.sent_total += other.sent_total;
        self.app_events += other.app_events;
        self.app_events_dropped += other.app_events_dropped;
        self.stale_timer_skips += other.stale_timer_skips;
        for (slot, v) in self.timer_fires.iter_mut().zip(other.timer_fires) {
            *slot += v;
        }
        self.query_latency.merge(&other.query_latency);
        self.levels.merge(&other.levels);
        self.par.merge(&other.par);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        // Reads go through &self now that the histogram is bucketed.
        let h = &h;
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(h.max(), Some(9));
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn metrics_sums_and_deltas() {
        let mut m = Metrics::default();
        for _ in 0..10 {
            m.record_send(MsgLabel::Token, LinkClass::IntraRing);
            m.record_send(MsgLabel::TokenAck, LinkClass::IntraRing);
        }
        m.record_send(MsgLabel::NotifyParent, LinkClass::InterTier);
        m.record_send(MsgLabel::NotifyParent, LinkClass::InterTier);
        assert_eq!(m.sent_total, 22);
        assert_eq!(m.sent("token"), 10);
        assert_eq!(m.sent_label(MsgLabel::Token), 10);
        assert_eq!(m.sent("unknown_label"), 0);
        assert_eq!(m.proposal_hops(), 12);
        assert_eq!(m.sent_class(LinkClass::IntraRing), 20);
        assert_eq!(m.sent_class(LinkClass::Wireless), 0);
        assert_eq!(m.by_class().count(), 2, "only non-zero classes listed");
        let before = m.clone();
        for _ in 0..5 {
            m.record_send(MsgLabel::Token, LinkClass::IntraRing);
        }
        assert_eq!(m.sent("token") - before.sent("token"), 5);
        assert_eq!(m.sent("token_ack") - before.sent("token_ack"), 0);
        assert_eq!(m.proposal_hops() - before.proposal_hops(), 5);
    }

    #[test]
    fn merge_is_additive_over_every_counter() {
        // Populate *every* slot of both operands with distinct values:
        // each label/class slot gets a unique count, and each scalar
        // counter a unique prime, so a merge that dropped or double-added
        // any one field would break at least one assertion below.
        let fill = |base: u64| {
            let mut m = Metrics::default();
            for (i, label) in MsgLabel::ALL.into_iter().enumerate() {
                for (j, class) in LinkClass::ALL.into_iter().enumerate() {
                    for _ in 0..base + (i as u64 + 1) * (j as u64 + 1) {
                        m.record_send(label, class);
                    }
                }
            }
            m.lost = base + 3;
            m.partition_dropped = base + 5;
            m.duplicated = base + 7;
            m.reordered = base + 11;
            m.codec_rejected = base + 13;
            m.app_events = base + 17;
            m.app_events_dropped = base + 19;
            m.stale_timer_skips = base + 23;
            for (i, kind) in [
                TimerKind::TokenRetransmit { seq: 9 },
                TimerKind::TokenKick,
                TimerKind::TokenLost,
                TimerKind::Heartbeat,
                TimerKind::ParentTimeout,
                TimerKind::ChildTimeout { ring: rgb_core::prelude::RingId(3) },
            ]
            .into_iter()
            .enumerate()
            {
                assert_eq!(kind.index(), i, "TimerKind::index is dense, in NAMES order");
                for _ in 0..base + 97 + i as u64 {
                    m.record_timer_fire(kind);
                }
            }
            m.query_latency.record(base + 31);
            m.query_latency.record(base + 37);
            m.par.windows = base + 41;
            m.par.idle_skips = base + 43;
            m.par.frames_batched = base + 47;
            m.par.batches = base + 53;
            m.par.max_batch = base + 59;
            m.par.execute_nanos = base + 61;
            m.par.flush_nanos = base + 67;
            m.par.barrier_nanos = base + 71;
            m.par.drain_nanos = base + 73;
            m.levels.level_mut(1).join.record(base + 79);
            m.levels.level_mut(1).repair.record(base + 83);
            m.levels.level_mut(2).query.record(base + 89);
            m
        };
        let a = fill(100);
        let b = fill(1_000);
        let mut merged = a.clone();
        merged.merge(&b);
        for label in MsgLabel::ALL {
            assert_eq!(
                merged.sent_label(label),
                a.sent_label(label) + b.sent_label(label),
                "label slot {label:?}"
            );
        }
        for class in LinkClass::ALL {
            assert_eq!(
                merged.sent_class(class),
                a.sent_class(class) + b.sent_class(class),
                "class slot {class:?}"
            );
        }
        assert_eq!(merged.sent_total, a.sent_total + b.sent_total);
        assert_eq!(merged.lost, a.lost + b.lost);
        assert_eq!(merged.partition_dropped, a.partition_dropped + b.partition_dropped);
        assert_eq!(merged.duplicated, a.duplicated + b.duplicated);
        assert_eq!(merged.reordered, a.reordered + b.reordered);
        assert_eq!(merged.codec_rejected, a.codec_rejected + b.codec_rejected);
        assert_eq!(merged.app_events, a.app_events + b.app_events);
        assert_eq!(merged.app_events_dropped, a.app_events_dropped + b.app_events_dropped);
        assert_eq!(merged.stale_timer_skips, a.stale_timer_skips + b.stale_timer_skips);
        for (i, (name, fires)) in merged.timer_fires().enumerate() {
            assert_eq!(name, TimerKind::NAMES[i]);
            assert_eq!(fires, 100 + 1_000 + 2 * (97 + i as u64), "timer slot {name}");
        }
        assert_eq!(merged.par.windows, a.par.windows + b.par.windows);
        assert_eq!(merged.par.idle_skips, a.par.idle_skips + b.par.idle_skips);
        assert_eq!(merged.par.frames_batched, a.par.frames_batched + b.par.frames_batched);
        assert_eq!(merged.par.batches, a.par.batches + b.par.batches);
        // max_batch is the one non-additive slot: a merge reports the
        // largest batch any shard ever flushed, not a sum of maxima.
        assert_eq!(merged.par.max_batch, a.par.max_batch.max(b.par.max_batch));
        assert_eq!(merged.par.execute_nanos, a.par.execute_nanos + b.par.execute_nanos);
        assert_eq!(merged.par.flush_nanos, a.par.flush_nanos + b.par.flush_nanos);
        assert_eq!(merged.par.barrier_nanos, a.par.barrier_nanos + b.par.barrier_nanos);
        assert_eq!(merged.par.drain_nanos, a.par.drain_nanos + b.par.drain_nanos);
        assert_eq!(merged.query_latency.len(), 4);
        let q = &merged.query_latency;
        assert_eq!(q.quantile(0.0), Some(131), "merged histogram holds both sample sets");
        assert_eq!(q.quantile(1.0), Some(1_037));
        assert_eq!(merged.levels.depth(), 3);
        assert_eq!(
            merged.levels.get(1).unwrap().join.len(),
            a.levels.get(1).unwrap().join.len() + b.levels.get(1).unwrap().join.len()
        );
        assert_eq!(merged.levels.get(1).unwrap().repair.max(), Some(1_083));
        assert_eq!(merged.levels.get(2).unwrap().query.len(), 2);
        assert_eq!(merged.levels.repair_quantile(0.0), Some(183));
        // Merging an empty Metrics is the identity.
        let mut id = a.clone();
        id.merge(&Metrics::default());
        assert_eq!(id.sent_total, a.sent_total);
        assert_eq!(id.query_latency.len(), a.query_latency.len());
    }

    #[test]
    fn label_views_round_trip() {
        let mut m = Metrics::default();
        m.record_send(MsgLabel::HbUp, LinkClass::InterTier);
        let view = m.by_label();
        assert_eq!(view.get("hb_up"), Some(&1));
        assert_eq!(view.len(), 1);
        // Every enum slot maps to a unique string and back.
        for label in MsgLabel::ALL {
            assert_eq!(MsgLabel::from_name(label.as_str()), Some(label));
        }
    }
}
