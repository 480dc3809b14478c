//! Cross-backend observability primitives: a bucketed latency
//! [`Histogram`], per-ring-level latency surfaces ([`LevelHistograms`]),
//! and the flight-recorder trace layer ([`TraceSink`], [`FlightRecorder`]).
//!
//! The paper's cost model (Tables I/II) attributes membership-repair work
//! to *levels* of the ring hierarchy; these types let every engine — the
//! sequential simulator, the sharded parallel engine, and the live reactor
//! runtime — report the same per-level latency surfaces through the same
//! merge algebra. Everything here is engine-agnostic: no clocks, no
//! threads, no I/O. Engines stamp records with their own notion of time
//! (simulator ticks or wall ticks) and the merge operations are plain
//! counter additions, so shard merges and cluster aggregation cannot
//! diverge.
//!
//! Tracing is opt-in per engine: the [`NullSink`] default reports
//! `enabled() == false`, and engines gate every emission on that flag, so
//! disabled runs keep their current throughput.
//!
//! Every engine's repair and query samples come from one per-node tracker,
//! [`NodeLatency`]: two repair anchors (ring suspicion → `RingRepaired`,
//! `ParentTimeout` → `Reattached`) and a query anchor, where the first
//! trigger wins and ring progress clears a ring suspicion.

use crate::events::{AppEvent, Input, TimerKind};
use crate::ids::{NodeId, RingId};
use crate::message::Msg;
use std::collections::BTreeMap;

/// A latency histogram over exact integer values (ticks).
///
/// Values are bucketed in a sorted map, so quantile reads take `&self` —
/// no deferred sort, no interior mutability. Recording is `O(log n)` in
/// the number of *distinct* values, which for tick-quantised latencies is
/// small; merging adds per-value counts, making
/// `merge(a, b).quantile(q)` independent of which engine shard saw which
/// sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// value → number of samples with exactly that value.
    buckets: BTreeMap<u64, u64>,
    /// Total samples recorded.
    count: u64,
    /// Sum of all samples (for `mean`).
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(value).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of the samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Nearest-rank quantile: the smallest recorded value whose cumulative
    /// count reaches `ceil(q * len)` (clamped to `[1, len]`). `q = 0`
    /// yields the minimum, `q = 1` the maximum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&value, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }

    /// Fold another histogram into this one. Addition of per-value counts:
    /// associative, commutative, and identical whether samples were
    /// recorded here or merged in — the property shard merges rely on.
    pub fn merge(&mut self, other: &Histogram) {
        for (&value, &n) in &other.buckets {
            *self.buckets.entry(value).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The three latency surfaces tracked per ring level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelLatency {
    /// First wire sighting of a change record in a ring → that ring's
    /// `Agreed` delivery (paper: agreement latency per level).
    pub join: Histogram,
    /// Fault suspicion → the `RingRepaired` / `Reattached` delivery that
    /// resolves it, as [`NodeLatency`] anchors and closes it.
    pub repair: Histogram,
    /// `StartQuery` issue → `QueryResult` delivery at the issuing node.
    pub query: Histogram,
}

impl LevelLatency {
    /// Fold another level's surfaces into this one.
    pub fn merge(&mut self, other: &LevelLatency) {
        self.join.merge(&other.join);
        self.repair.merge(&other.repair);
        self.query.merge(&other.query);
    }

    /// Whether all three surfaces are empty.
    pub fn is_empty(&self) -> bool {
        self.join.is_empty() && self.repair.is_empty() && self.query.is_empty()
    }
}

/// Per-ring-level latency histograms, indexed by hierarchy level
/// (0 = root ring). Grows on demand so engines need not know the
/// hierarchy depth up front, and merging aligns levels positionally —
/// the same indexing every backend derives from `HierarchyLayout`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelHistograms {
    levels: Vec<LevelLatency>,
}

impl LevelHistograms {
    /// An empty set of surfaces.
    pub fn new() -> Self {
        LevelHistograms::default()
    }

    /// Mutable access to `level`'s surfaces, growing the vector as needed.
    pub fn level_mut(&mut self, level: u8) -> &mut LevelLatency {
        let idx = level as usize;
        if self.levels.len() <= idx {
            self.levels.resize_with(idx + 1, LevelLatency::default);
        }
        &mut self.levels[idx]
    }

    /// The surfaces at `level`, if any sample ever touched it.
    pub fn get(&self, level: u8) -> Option<&LevelLatency> {
        self.levels.get(level as usize)
    }

    /// Number of levels tracked (deepest touched level + 1).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Whether every level is empty (or no level was ever touched).
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(LevelLatency::is_empty)
    }

    /// Iterate `(level, surfaces)` in level order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &LevelLatency)> {
        self.levels.iter().enumerate()
    }

    /// Fold another set of surfaces into this one, aligning levels.
    pub fn merge(&mut self, other: &LevelHistograms) {
        for (idx, lvl) in other.levels.iter().enumerate() {
            self.level_mut(idx as u8).merge(lvl);
        }
    }

    /// Repair-latency quantile pooled across every level — the signal the
    /// explorer's coverage fingerprint consumes.
    pub fn repair_quantile(&self, q: f64) -> Option<u64> {
        let mut pooled = Histogram::new();
        for lvl in &self.levels {
            pooled.merge(&lvl.repair);
        }
        pooled.quantile(q)
    }
}

/// "No interval open" in a [`NodeLatency`] anchor.
const NO_ANCHOR: u64 = u64::MAX;

/// One node's open latency intervals: the repair, reattach and query
/// tracker every engine runs. The engine calls [`NodeLatency::on_input`]
/// with each input as it reaches `NodeState::handle_into`, and
/// [`NodeLatency::on_app`] with each application event the node delivers,
/// which hands back the interval it closed for the engine to file.
///
/// - **Two repair anchors**, one per §5.2 detection path. A `TokenLost` or
///   `TokenRetransmit` firing (a ring suspicion) opens the ring anchor,
///   which `RingRepaired` closes; a `ParentTimeout` firing opens the
///   reattach anchor, which `Reattached` closes. Both feed
///   [`LevelLatency::repair`].
/// - **First trigger wins**: a trigger while its anchor is open leaves it,
///   so a sample runs from detection, not from the last retry.
/// - **Progress clears a ring suspicion**: a `Token` or `TokenAck` arriving
///   drops the ring anchor without a sample, because most retransmissions
///   succeed. Only `Reattached` ends a reattach interval.
/// - `StartQuery` sets the query anchor; `QueryResult` closes it into
///   [`LevelLatency::query`].
///
/// A completion closes only its own anchor, and yields nothing when that
/// anchor is not open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLatency {
    ring_repair: u64,
    reattach: u64,
    query: u64,
}

impl Default for NodeLatency {
    fn default() -> Self {
        NodeLatency { ring_repair: NO_ANCHOR, reattach: NO_ANCHOR, query: NO_ANCHOR }
    }
}

impl NodeLatency {
    /// `input` reaches the node at tick `now`.
    #[inline]
    pub fn on_input(&mut self, now: u64, input: &Input) {
        match input {
            Input::Timer(TimerKind::TokenLost | TimerKind::TokenRetransmit { .. })
                if self.ring_repair == NO_ANCHOR =>
            {
                self.ring_repair = now;
            }
            Input::Timer(TimerKind::ParentTimeout) if self.reattach == NO_ANCHOR => {
                self.reattach = now;
            }
            Input::Msg { msg: Msg::Token(_) | Msg::TokenAck { .. }, .. } => {
                self.ring_repair = NO_ANCHOR;
            }
            Input::StartQuery { .. } => self.query = now,
            _ => {}
        }
    }

    /// The node delivers `event` at tick `now`: the interval it closes, if
    /// one was open.
    pub fn on_app(&mut self, now: u64, event: &AppEvent) -> Option<LatencySample> {
        use LatencySample::{Query, Repair};
        let close = |anchor: &mut u64| {
            let t0 = std::mem::replace(anchor, NO_ANCHOR);
            (t0 != NO_ANCHOR).then(|| now.saturating_sub(t0))
        };
        match event {
            AppEvent::RingRepaired { .. } => close(&mut self.ring_repair).map(Repair),
            AppEvent::Reattached { .. } => close(&mut self.reattach).map(Repair),
            AppEvent::QueryResult { .. } => close(&mut self.query).map(Query),
            _ => None,
        }
    }
}

/// An interval [`NodeLatency::on_app`] closed, in ticks, tagged with the
/// surface of [`LevelLatency`] it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySample {
    /// Suspicion → `RingRepaired`, or `ParentTimeout` → `Reattached`.
    Repair(u64),
    /// `StartQuery` → `QueryResult`.
    Query(u64),
}

impl LatencySample {
    /// Record the sample in its surface of `level`.
    pub fn record(self, level: &mut LevelLatency) {
        match self {
            LatencySample::Repair(dt) => level.repair.record(dt),
            LatencySample::Query(dt) => level.query.record(dt),
        }
    }
}

/// A typed protocol event captured by the flight recorder.
///
/// The variant set mirrors the protocol phases the paper costs out:
/// join agreement, handoff, token circulation and recovery, partitions,
/// and queries. Payloads are small scalars so records stay `Copy`-sized
/// and the ring buffer never allocates per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsKind {
    /// A change record was first sighted on the wire in this ring.
    JoinStart {
        /// Coining node of the change id.
        origin: NodeId,
        /// Origin-local sequence number of the change id.
        seq: u64,
    },
    /// A ring delivered `Agreed` for a batch of changes.
    JoinCommit {
        /// Number of changes agreed in the batch.
        changes: u32,
    },
    /// A handoff / reattachment phase began (`ParentTimeout` fired or
    /// `ParentLost` was delivered).
    HandoffStart,
    /// A node reattached to a new parent (`Reattached`).
    HandoffEnd,
    /// A fast handoff completed for a mobile host.
    FastHandoff,
    /// A token arrived at a node.
    TokenGrant {
        /// Round sequence number carried by the token.
        seq: u64,
    },
    /// The token-loss timer fired (`TokenLost`).
    TokenLoss,
    /// The ring regenerated its token (`RingRepaired`).
    TokenRecovery {
        /// Nodes excluded by the repair.
        excluded: u32,
    },
    /// A scheduled link partition came into effect.
    PartitionStart,
    /// A scheduled link partition healed.
    PartitionHeal,
    /// A membership query was issued.
    QueryIssue,
    /// A membership query completed at its issuer.
    QueryAnswer {
        /// Responses aggregated into the result.
        responses: u32,
    },
    /// A node was crashed by the fault plan.
    Crash,
}

/// One flight-recorder entry: a typed event stamped with the engine's
/// tick clock and the node/ring-level coordinate it happened at.
///
/// Records carry *tick* time only — identical between the sequential and
/// parallel engines by construction. Wall-clock context belongs to the
/// exporter envelope, not the record, so trace equivalence is testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObsRecord {
    /// Engine tick at which the event was observed.
    pub at: u64,
    /// Node the event happened at.
    pub node: NodeId,
    /// Ring coordinate of the event.
    pub ring: RingId,
    /// Hierarchy level of that ring (0 = root).
    pub level: u8,
    /// What happened.
    pub kind: ObsKind,
}

/// Where flight-recorder records go. Engines call [`TraceSink::record`]
/// only when [`TraceSink::enabled`] is true, so a disabled sink costs one
/// branch on already-cold paths and nothing on hot ones.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Capture one record.
    fn record(&mut self, rec: ObsRecord);

    /// Whether this sink wants records at all. Engines skip record
    /// construction entirely when false.
    fn enabled(&self) -> bool {
        true
    }

    /// The retained records, oldest first. Sinks that do not retain
    /// (e.g. [`NullSink`]) return an empty vector.
    fn snapshot(&self) -> Vec<ObsRecord> {
        Vec::new()
    }

    /// Records discarded due to capacity, if the sink bounds memory.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The zero-cost default sink: disabled, drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: ObsRecord) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// A bounded ring-buffer trace sink: keeps the most recent `capacity`
/// records, counts what it evicts, never reallocates after filling.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<ObsRecord>,
    /// Index of the oldest record once the buffer has wrapped.
    head: usize,
    cap: usize,
    dropped: u64,
    total: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder { buf: Vec::with_capacity(cap), head: 0, cap, dropped: 0, total: 0 }
    }

    /// Total records ever offered, retained or not.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, rec: ObsRecord) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<ObsRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;
    use crate::member::MemberList;
    use crate::message::{QueryId, QueryScope};

    #[test]
    fn quantile_is_nearest_rank_and_reads_are_shared() {
        let mut h = Histogram::new();
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        let r = &h; // quantile must work through a shared reference
        assert_eq!(r.quantile(0.0), Some(1));
        assert_eq!(r.quantile(0.5), Some(5));
        assert_eq!(r.quantile(0.99), Some(9));
        assert_eq!(r.quantile(1.0), Some(9));
        assert_eq!(r.min(), Some(1));
        assert_eq!(r.max(), Some(9));
        assert_eq!(r.len(), 5);
        assert_eq!(r.sum(), 25);
        assert!((r.mean().unwrap() - 5.0).abs() < f64::EPSILON);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [4u64, 8, 15] {
            a.record(v);
            all.record(v);
        }
        for v in [16u64, 23, 42, 8] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn level_histograms_grow_merge_and_pool() {
        let mut a = LevelHistograms::new();
        a.level_mut(2).repair.record(100);
        a.level_mut(0).join.record(7);
        assert_eq!(a.depth(), 3);
        assert!(a.get(1).is_some_and(LevelLatency::is_empty));

        let mut b = LevelHistograms::new();
        b.level_mut(2).repair.record(300);
        b.level_mut(3).query.record(9);
        a.merge(&b);
        assert_eq!(a.depth(), 4);
        assert_eq!(a.get(2).unwrap().repair.len(), 2);
        assert_eq!(a.repair_quantile(1.0), Some(300));
        assert_eq!(LevelHistograms::new().repair_quantile(0.5), None);
    }

    const LOST: Input = Input::Timer(TimerKind::TokenLost);
    const RETRANSMIT: Input = Input::Timer(TimerKind::TokenRetransmit { seq: 3 });
    const PARENT_TIMEOUT: Input = Input::Timer(TimerKind::ParentTimeout);
    const ASK: Input = Input::StartQuery { scope: QueryScope::Global };
    const ACK: Input =
        Input::Msg { from: NodeId(1), msg: Msg::TokenAck { ring: RingId(0), seq: 3 } };
    const REPAIRED: AppEvent = AppEvent::RingRepaired { ring: RingId(0), excluded: NodeId(9) };
    const REATTACHED: AppEvent = AppEvent::Reattached { parent: NodeId(4) };
    use LatencySample::{Query, Repair};

    fn token() -> Input {
        let token = crate::token::Token::fresh(GroupId(1), RingId(0), 3, NodeId(1), Vec::new());
        Input::Msg { from: NodeId(1), msg: Msg::Token(token) }
    }

    fn answer() -> AppEvent {
        let qid = QueryId { origin: NodeId(2), seq: 0 };
        AppEvent::QueryResult { qid, members: MemberList::new(), responses: 1 }
    }

    #[test]
    fn repair_interval_closes_into_the_node_level_surface() {
        let mut node = NodeLatency::default();
        node.on_input(100, &LOST);
        let sample = node.on_app(140, &REPAIRED).expect("open interval closes");
        let mut levels = LevelHistograms::new();
        sample.record(levels.level_mut(2));
        let level = levels.get(2).expect("level touched");
        assert_eq!((level.repair.len(), level.repair.max()), (1, Some(40)));
        assert!(level.query.is_empty() && level.join.is_empty());
    }

    #[test]
    fn ring_progress_clears_a_suspicion_without_a_sample() {
        for progress in [token(), ACK] {
            let mut node = NodeLatency::default();
            node.on_input(10, &RETRANSMIT);
            node.on_input(20, &progress);
            assert_eq!(node.on_app(30, &REPAIRED), None);
        }
    }

    #[test]
    fn the_first_ring_trigger_wins() {
        let mut node = NodeLatency::default();
        for (now, trigger) in [(10, LOST), (50, LOST), (60, RETRANSMIT)] {
            node.on_input(now, &trigger);
        }
        assert_eq!(node.on_app(70, &REPAIRED), Some(Repair(60)));
    }

    #[test]
    fn a_token_does_not_clear_a_parent_timeout() {
        let mut node = NodeLatency::default();
        for (now, input) in [(10, PARENT_TIMEOUT), (20, token()), (25, PARENT_TIMEOUT)] {
            node.on_input(now, &input);
        }
        assert_eq!(node.on_app(40, &REATTACHED), Some(Repair(30)));
    }

    #[test]
    fn each_completion_closes_only_its_own_anchor() {
        let mut node = NodeLatency::default();
        for (now, input) in [(5, LOST), (10, PARENT_TIMEOUT), (12, ASK)] {
            node.on_input(now, &input);
        }
        assert_eq!(node.on_app(40, &REATTACHED), Some(Repair(30)));
        assert_eq!(node.on_app(41, &REATTACHED), None);
        assert_eq!(node.on_app(50, &REPAIRED), Some(Repair(45)));
        assert_eq!(node.on_app(52, &answer()), Some(Query(40)));
    }

    #[test]
    fn a_query_result_with_no_start_records_nothing() {
        let mut node = NodeLatency::default();
        assert_eq!(node.on_app(10, &answer()), None);
        node.on_input(20, &ASK);
        assert_eq!(node.on_app(27, &answer()), Some(Query(7)));
        assert_eq!(node.on_app(30, &answer()), None);
    }

    #[test]
    fn a_second_ring_repaired_with_no_open_anchor_records_nothing() {
        let mut node = NodeLatency::default();
        node.on_input(100, &RETRANSMIT);
        assert_eq!(node.on_app(140, &REPAIRED), Some(Repair(40)));
        assert_eq!(node.on_app(150, &REPAIRED), None);
        // Other timers and deliveries neither open nor close anything.
        node.on_input(160, &Input::Timer(TimerKind::Heartbeat));
        assert_eq!(node.on_app(170, &AppEvent::ParentLost { ring: RingId(0) }), None);
        assert_eq!(node, NodeLatency::default());
    }

    #[test]
    fn flight_recorder_bounds_memory_under_a_storm() {
        const CAP: usize = 4096;
        const STORM: u64 = 100_000;
        let mut rec = FlightRecorder::new(CAP);
        for i in 0..STORM {
            rec.record(ObsRecord {
                at: i,
                node: NodeId(i % 97),
                ring: RingId(3),
                level: 1,
                kind: ObsKind::TokenGrant { seq: i },
            });
        }
        assert_eq!(rec.len(), CAP);
        assert!(rec.buf.capacity() < CAP * 2, "buffer must never outgrow its capacity");
        assert_eq!(rec.total(), STORM);
        assert_eq!(rec.dropped(), STORM - CAP as u64);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), CAP);
        // Oldest-first, and only the newest CAP records survive.
        assert_eq!(snap.first().unwrap().at, STORM - CAP as u64);
        assert_eq!(snap.last().unwrap().at, STORM - 1);
        assert!(snap.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn null_sink_is_disabled_and_retains_nothing() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(ObsRecord {
            at: 0,
            node: NodeId(1),
            ring: RingId(0),
            level: 0,
            kind: ObsKind::Crash,
        });
        assert!(sink.snapshot().is_empty());
        assert_eq!(sink.dropped(), 0);
    }
}
