//! Engine-side observability: the per-engine tracking state that feeds
//! [`rgb_core::obs`], the [`Timeline`] of periodic counter deltas, and the
//! exporters (Prometheus text exposition and the `rgb-obs v1` JSON
//! timeline).
//!
//! Both simulator engines — sequential ([`crate::sim::Simulation`]) and
//! sharded-parallel ([`crate::par::ParSimulation`]) — embed one
//! `EngineObs` per execution domain (the whole simulation, or one
//! shard). Its hooks fire at the same per-node protocol points in both
//! engines: timer firings, decoded message arrivals, application-event
//! deliveries, fault-plan arms. Because rings are sharded wholesale and
//! every anchor is ring- or node-local, the latency surfaces and trace
//! records a parallel run produces merge to exactly the sequential run's
//! — and none of the tracking touches node inputs, RNG streams or event
//! keys, so `SystemDigest` streams stay byte-identical with obs enabled.
//!
//! Everything is gated on one `enabled` flag (default off, `NullSink`),
//! so runs that do not opt in keep current throughput.

use crate::metrics::{Metrics, MetricsSnapshot, ShardLoad};
use rgb_core::obs::{NullSink, ObsKind, ObsRecord, TraceSink};
use rgb_core::prelude::{AppEvent, ChangeId, HierarchyLayout, Msg, NodeId, RingId, TimerKind};
use std::collections::BTreeMap;

/// "No repair in flight" sentinel for [`EngineObs::repair_started`].
const NO_REPAIR: u64 = u64::MAX;

/// In-flight change sightings tracked per engine domain before overflow
/// trimming starts. Sightings complete at ring agreement, so steady state
/// stays far below this; the cap only bounds pathological storms.
const FIRST_SEEN_CAP: usize = 1 << 16;

/// Per-engine observability state: the trace sink, precomputed node/ring
/// coordinates, and the open latency intervals (change sightings, repair
/// starts) whose closures land in [`Metrics::levels`].
#[derive(Debug)]
pub(crate) struct EngineObs {
    /// Master switch: when false every hook returns immediately and the
    /// engine behaves exactly as before this layer existed.
    pub(crate) enabled: bool,
    sink: Box<dyn TraceSink>,
    /// Node id by local index (trace-record coordinate).
    node_id: Vec<NodeId>,
    /// Ring by local index.
    node_ring: Vec<RingId>,
    /// Hierarchy level by local index.
    node_level: Vec<u8>,
    /// Level of every ring in the layout (Agreed events name rings).
    ring_level: BTreeMap<RingId, u8>,
    /// (ring, change) → tick of first wire sighting in that ring.
    first_seen: BTreeMap<(RingId, ChangeId), u64>,
    /// Sightings dropped because `first_seen` was at capacity.
    first_seen_overflow: u64,
    /// Tick the node's open ring-repair suspicion began (`NO_REPAIR`
    /// none): the first `TokenLost` or `TokenRetransmit` fire, cleared
    /// without a sample when the ring makes progress at this node again
    /// (token or ack received), recorded at `RingRepaired`.
    ring_repair_started: Vec<u64>,
    /// Tick the node's open re-attachment began (`ParentTimeout` fire),
    /// recorded at `Reattached`.
    reattach_started: Vec<u64>,
}

impl EngineObs {
    /// Tracking state for the local nodes `ids` (indexed by engine-local
    /// index) of `layout`. Coordinates are precomputed here so enabling
    /// obs later costs nothing at runtime.
    pub(crate) fn new(ids: &[NodeId], layout: &HierarchyLayout) -> Self {
        let ring_level: BTreeMap<RingId, u8> =
            layout.rings.iter().map(|r| (r.id, r.level as u8)).collect();
        let mut node_ring = Vec::with_capacity(ids.len());
        let mut node_level = Vec::with_capacity(ids.len());
        for &id in ids {
            match layout.placement(id) {
                Ok(p) => {
                    node_ring.push(p.ring);
                    node_level.push(p.level as u8);
                }
                Err(_) => {
                    node_ring.push(RingId(u32::MAX));
                    node_level.push(0);
                }
            }
        }
        EngineObs {
            enabled: false,
            sink: Box::new(NullSink),
            node_id: ids.to_vec(),
            node_ring,
            node_level,
            ring_level,
            first_seen: BTreeMap::new(),
            first_seen_overflow: 0,
            ring_repair_started: vec![NO_REPAIR; ids.len()],
            reattach_started: vec![NO_REPAIR; ids.len()],
        }
    }

    /// Turn tracking on and route trace records to `sink`.
    pub(crate) fn enable(&mut self, sink: Box<dyn TraceSink>) {
        self.enabled = true;
        self.sink = sink;
    }

    /// Turn on latency tracking without retaining trace records
    /// (the explorer's mode: histograms feed coverage, traces cost zero).
    pub(crate) fn enable_tracking(&mut self) {
        self.enabled = true;
    }

    /// The sink's retained records, oldest first.
    pub(crate) fn trace_snapshot(&self) -> Vec<ObsRecord> {
        self.sink.snapshot()
    }

    /// Records the sink evicted for capacity.
    pub(crate) fn trace_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Sightings dropped at the `first_seen` cap (accounting trim only —
    /// protocol behavior is never affected).
    pub(crate) fn first_seen_overflow(&self) -> u64 {
        self.first_seen_overflow
    }

    #[inline]
    fn emit(&mut self, now: u64, local: usize, kind: ObsKind) {
        if self.sink.enabled() {
            self.sink.record(ObsRecord {
                at: now,
                node: self.node_id[local],
                ring: self.node_ring[local],
                level: self.node_level[local],
                kind,
            });
        }
    }

    /// A change record was seen on the wire at `local`'s ring.
    fn sight(&mut self, now: u64, local: usize, id: ChangeId) {
        let key = (self.node_ring[local], id);
        if self.first_seen.contains_key(&key) {
            return;
        }
        if self.first_seen.len() >= FIRST_SEEN_CAP {
            self.first_seen_overflow += 1;
            return;
        }
        self.first_seen.insert(key, now);
        self.emit(now, local, ObsKind::JoinStart { origin: id.origin, seq: id.seq });
    }

    /// A timer fired at `local`. Opens repair intervals for the
    /// repair-triggering kinds. A `TokenRetransmit` fire is a suspicion,
    /// not yet a fault (most retransmissions succeed), so it opens the
    /// ring-repair anchor silently; the anchor is cleared without a
    /// sample if the ring makes progress at this node before a repair —
    /// what survives into the histogram is detection → exclusion for
    /// both the §5.2 paths (timeout suspicion and retransmit
    /// exhaustion).
    pub(crate) fn on_timer_fire(&mut self, now: u64, local: usize, kind: TimerKind) {
        if !self.enabled {
            return;
        }
        match kind {
            TimerKind::TokenRetransmit { .. } if self.ring_repair_started[local] == NO_REPAIR => {
                self.ring_repair_started[local] = now;
            }
            TimerKind::TokenLost => {
                if self.ring_repair_started[local] == NO_REPAIR {
                    self.ring_repair_started[local] = now;
                }
                self.emit(now, local, ObsKind::TokenLoss);
            }
            TimerKind::ParentTimeout => {
                if self.reattach_started[local] == NO_REPAIR {
                    self.reattach_started[local] = now;
                }
                self.emit(now, local, ObsKind::HandoffStart);
            }
            _ => {}
        }
    }

    /// A decoded message arrived at `local` (the engine's receive path,
    /// after the wire codec and group check).
    pub(crate) fn on_msg(&mut self, now: u64, local: usize, msg: &Msg) {
        if !self.enabled {
            return;
        }
        match msg {
            Msg::Token(t) => {
                // The ring reached this node: any open retransmit/loss
                // suspicion resolved without a repair.
                self.ring_repair_started[local] = NO_REPAIR;
                self.emit(now, local, ObsKind::TokenGrant { seq: t.seq });
                for rec in &t.ops {
                    self.sight(now, local, rec.id);
                }
            }
            Msg::TokenAck { .. } => {
                // The suspected successor answered: suspicion resolved.
                self.ring_repair_started[local] = NO_REPAIR;
            }
            Msg::MqInsert { records, .. } => {
                for rec in records {
                    self.sight(now, local, rec.id);
                }
            }
            _ => {}
        }
    }

    /// An application event was delivered at `local`. Closes join and
    /// repair intervals into the per-level surfaces.
    pub(crate) fn on_app(
        &mut self,
        now: u64,
        local: usize,
        event: &AppEvent,
        metrics: &mut Metrics,
    ) {
        if !self.enabled {
            return;
        }
        match event {
            AppEvent::Agreed { ring, ids } => {
                let level = self.ring_level.get(ring).copied().unwrap_or(self.node_level[local]);
                for id in ids {
                    if let Some(t0) = self.first_seen.remove(&(*ring, *id)) {
                        metrics.levels.level_mut(level).join.record(now.saturating_sub(t0));
                    }
                }
                self.emit(now, local, ObsKind::JoinCommit { changes: ids.len() as u32 });
            }
            AppEvent::RingRepaired { .. } => {
                let t0 = std::mem::replace(&mut self.ring_repair_started[local], NO_REPAIR);
                self.record_repair(now, local, t0, metrics);
                self.emit(now, local, ObsKind::TokenRecovery { excluded: 1 });
            }
            AppEvent::Reattached { .. } => {
                let t0 = std::mem::replace(&mut self.reattach_started[local], NO_REPAIR);
                self.record_repair(now, local, t0, metrics);
                self.emit(now, local, ObsKind::HandoffEnd);
            }
            AppEvent::FastHandoff { .. } => self.emit(now, local, ObsKind::FastHandoff),
            AppEvent::QueryResult { responses, .. } => {
                self.emit(now, local, ObsKind::QueryAnswer { responses: *responses });
            }
            _ => {}
        }
    }

    fn record_repair(&mut self, now: u64, local: usize, t0: u64, metrics: &mut Metrics) {
        if t0 != NO_REPAIR {
            metrics.levels.level_mut(self.node_level[local]).repair.record(now.saturating_sub(t0));
        }
    }

    /// A membership query was issued at `local`.
    pub(crate) fn on_query_issue(&mut self, now: u64, local: usize) {
        if !self.enabled {
            return;
        }
        self.emit(now, local, ObsKind::QueryIssue);
    }

    /// A query completed at `local` after `dt` ticks (the engine already
    /// computes the RTT for its flat histogram).
    pub(crate) fn on_query_done(&mut self, local: usize, dt: u64, metrics: &mut Metrics) {
        if !self.enabled {
            return;
        }
        metrics.levels.level_mut(self.node_level[local]).query.record(dt);
    }

    /// A scheduled partition arm took effect at endpoint `local`
    /// (engines emit this for endpoint `a` only, so sequential and
    /// parallel traces agree — the parallel engine replicates partition
    /// arms to both endpoint owners).
    pub(crate) fn on_partition(&mut self, now: u64, local: usize, start: bool) {
        if !self.enabled {
            return;
        }
        let kind = if start { ObsKind::PartitionStart } else { ObsKind::PartitionHeal };
        self.emit(now, local, kind);
    }

    /// The fault plan crashed `local`.
    pub(crate) fn on_crash(&mut self, now: u64, local: usize) {
        if !self.enabled {
            return;
        }
        self.emit(now, local, ObsKind::Crash);
    }
}

/// One periodic sample of counter deltas.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Engine tick at sample time.
    pub tick: u64,
    /// Driver wall clock at sample time, nanoseconds since run start.
    pub wall_nanos: u128,
    /// Frames sent since the previous sample.
    pub sent_delta: u64,
    /// Proposal hops since the previous sample.
    pub proposal_delta: u64,
    /// App events delivered since the previous sample.
    pub app_events_delta: u64,
    /// Per-label send deltas since the previous sample (non-zero only).
    pub by_label_delta: BTreeMap<&'static str, u64>,
}

/// A run's sequence of periodic [`MetricsSnapshot`] deltas. The driver
/// (bench bin, explorer, test) calls [`Timeline::sample`] between run
/// slices; the engine itself never samples, so timelines cannot perturb
/// determinism.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
    last: Option<(MetricsSnapshot, u64)>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Record one sample: deltas of `metrics` against the previous call.
    pub fn sample(&mut self, tick: u64, wall_nanos: u128, metrics: &Metrics) {
        let snap = metrics.snapshot();
        let (prev, prev_apps) = match &self.last {
            Some((s, a)) => (s.clone(), *a),
            None => (MetricsSnapshot::default(), 0),
        };
        self.entries.push(TimelineEntry {
            tick,
            wall_nanos,
            sent_delta: snap.sent_total.saturating_sub(prev.sent_total),
            proposal_delta: snap.proposal_hops.saturating_sub(prev.proposal_hops),
            app_events_delta: metrics.app_events.saturating_sub(prev_apps),
            by_label_delta: prev.delta(metrics),
        });
        self.last = Some((snap, metrics.app_events));
    }

    /// The samples recorded so far.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }
}

/// Everything the exporters need about one observed run.
#[derive(Debug)]
pub struct ObsReport<'a> {
    /// Scenario or workload name.
    pub scenario: &'a str,
    /// Engine that produced the run (`"sim"`, `"par"`, `"live"`).
    pub backend: &'a str,
    /// Final engine tick.
    pub ticks: u64,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_nanos: u128,
    /// The run's merged metrics.
    pub metrics: &'a Metrics,
    /// Periodic samples (may be empty).
    pub timeline: &'a Timeline,
    /// Flight-recorder snapshot (may be empty).
    pub trace: &'a [ObsRecord],
    /// Records the flight recorder evicted.
    pub trace_dropped: u64,
    /// Per-shard loads of a parallel run
    /// ([`crate::par::ParSimulation::shard_loads`]); empty for the other
    /// backends.
    pub shards: &'a [ShardLoad],
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The two members that the `rgb-obs v1` document and each
/// `rgb-bench/scale-v2` mode carry about a parallel run's split, as a JSON
/// fragment without enclosing braces: `"shards"`, one `{nodes, events,
/// execute_ms, barrier_ms}` object per shard in shard order, and
/// `"event_imbalance"` ([`ShardLoad::event_imbalance`], `null` when there is
/// none).
pub fn shard_loads_json(loads: &[ShardLoad]) -> String {
    let shards: Vec<String> = loads
        .iter()
        .map(|l| {
            format!(
                r#"{{"nodes":{},"events":{},"execute_ms":{:.1},"barrier_ms":{:.1}}}"#,
                l.nodes,
                l.processed,
                l.par.execute_nanos as f64 / 1e6,
                l.par.barrier_nanos as f64 / 1e6,
            )
        })
        .collect();
    let imbalance =
        ShardLoad::event_imbalance(loads).map_or("null".to_owned(), |x| format!("{x:.3}"));
    format!(r#""shards": [{}], "event_imbalance": {imbalance}"#, shards.join(", "))
}

fn hist_json(h: &rgb_core::obs::Histogram) -> String {
    if h.is_empty() {
        return r#"{"count":0}"#.to_string();
    }
    format!(
        r#"{{"count":{},"mean":{:.3},"p50":{},"p90":{},"p99":{},"max":{}}}"#,
        h.len(),
        h.mean().unwrap_or(0.0),
        h.quantile(0.5).unwrap_or(0),
        h.quantile(0.9).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
        h.max().unwrap_or(0),
    )
}

fn kind_json(kind: &ObsKind) -> String {
    match kind {
        ObsKind::JoinStart { origin, seq } => {
            format!(r#""kind":"join_start","origin":{},"seq":{}"#, origin.0, seq)
        }
        ObsKind::JoinCommit { changes } => {
            format!(r#""kind":"join_commit","changes":{changes}"#)
        }
        ObsKind::HandoffStart => r#""kind":"handoff_start""#.to_string(),
        ObsKind::HandoffEnd => r#""kind":"handoff_end""#.to_string(),
        ObsKind::FastHandoff => r#""kind":"fast_handoff""#.to_string(),
        ObsKind::TokenGrant { seq } => format!(r#""kind":"token_grant","seq":{seq}"#),
        ObsKind::TokenLoss => r#""kind":"token_loss""#.to_string(),
        ObsKind::TokenRecovery { excluded } => {
            format!(r#""kind":"token_recovery","excluded":{excluded}"#)
        }
        ObsKind::PartitionStart => r#""kind":"partition_start""#.to_string(),
        ObsKind::PartitionHeal => r#""kind":"partition_heal""#.to_string(),
        ObsKind::QueryIssue => r#""kind":"query_issue""#.to_string(),
        ObsKind::QueryAnswer { responses } => {
            format!(r#""kind":"query_answer","responses":{responses}"#)
        }
        ObsKind::Crash => r#""kind":"crash""#.to_string(),
    }
}

/// Render an [`ObsReport`] as the `rgb-obs v1` JSON document — the
/// machine-readable artifact behind `--obs-out` on the bench bins and the
/// CI `obs-smoke` schema check.
pub fn obs_json(r: &ObsReport) -> String {
    let m = r.metrics;
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rgb-obs v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", json_escape(r.scenario)));
    out.push_str(&format!("  \"backend\": \"{}\",\n", json_escape(r.backend)));
    out.push_str(&format!("  \"ticks\": {},\n", r.ticks));
    out.push_str(&format!("  \"wall_nanos\": {},\n", r.wall_nanos));
    out.push_str(&format!(
        "  \"counters\": {{\"sent_total\":{},\"proposal_hops\":{},\"lost\":{},\"partition_dropped\":{},\"duplicated\":{},\"reordered\":{},\"codec_rejected\":{},\"app_events\":{},\"app_events_dropped\":{},\"stale_timer_skips\":{}}},\n",
        m.sent_total,
        m.proposal_hops(),
        m.lost,
        m.partition_dropped,
        m.duplicated,
        m.reordered,
        m.codec_rejected,
        m.app_events,
        m.app_events_dropped,
        m.stale_timer_skips,
    ));
    let fires: Vec<String> = m.timer_fires().map(|(kind, n)| format!("\"{kind}\":{n}")).collect();
    out.push_str(&format!("  \"timer_fires\": {{{}}},\n", fires.join(",")));
    out.push_str(&format!(
        "  \"par\": {{\"windows\":{},\"idle_skips\":{},\"frames_batched\":{},\"batches\":{},\"max_batch\":{},\"phase_nanos\":{{\"execute\":{},\"flush\":{},\"barrier\":{},\"drain\":{}}}}},\n",
        m.par.windows,
        m.par.idle_skips,
        m.par.frames_batched,
        m.par.batches,
        m.par.max_batch,
        m.par.execute_nanos,
        m.par.flush_nanos,
        m.par.barrier_nanos,
        m.par.drain_nanos,
    ));
    out.push_str(&format!("  {},\n", shard_loads_json(r.shards)));
    out.push_str("  \"levels\": [");
    let mut first = true;
    for (level, lvl) in m.levels.iter() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "{{\"level\":{},\"join\":{},\"repair\":{},\"query\":{}}}",
            level,
            hist_json(&lvl.join),
            hist_json(&lvl.repair),
            hist_json(&lvl.query),
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"timeline\": [");
    for (i, e) in r.timeline.entries().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"tick\":{},\"wall_nanos\":{},\"sent_delta\":{},\"proposal_delta\":{},\"app_events_delta\":{}}}",
            e.tick, e.wall_nanos, e.sent_delta, e.proposal_delta, e.app_events_delta,
        ));
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"trace\": {{\"retained\":{},\"dropped\":{},\"records\":[",
        r.trace.len(),
        r.trace_dropped,
    ));
    for (i, rec) in r.trace.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"at\":{},\"node\":{},\"ring\":{},\"level\":{},{}}}",
            rec.at,
            rec.node.0,
            rec.ring.0,
            rec.level,
            kind_json(&rec.kind),
        ));
    }
    out.push_str("]}\n");
    out.push_str("}\n");
    out
}

/// Render `metrics` in the Prometheus text exposition format
/// (counter/gauge lines with `level`/`quantile`/`phase` labels), for
/// scraping or ad-hoc diffing.
pub fn prometheus_text(metrics: &Metrics) -> String {
    let mut out = String::with_capacity(2048);
    let m = metrics;
    out.push_str("# TYPE rgb_sent_total counter\n");
    out.push_str(&format!("rgb_sent_total {}\n", m.sent_total));
    for (label, count) in m.by_label() {
        out.push_str(&format!("rgb_sent{{label=\"{label}\"}} {count}\n"));
    }
    out.push_str("# TYPE rgb_lost_total counter\n");
    out.push_str(&format!("rgb_lost_total {}\n", m.lost));
    out.push_str(&format!("rgb_partition_dropped_total {}\n", m.partition_dropped));
    out.push_str(&format!("rgb_duplicated_total {}\n", m.duplicated));
    out.push_str(&format!("rgb_reordered_total {}\n", m.reordered));
    out.push_str(&format!("rgb_codec_rejected_total {}\n", m.codec_rejected));
    out.push_str(&format!("rgb_app_events_total {}\n", m.app_events));
    out.push_str(&format!("rgb_app_events_dropped_total {}\n", m.app_events_dropped));
    out.push_str(&format!("rgb_stale_timer_skips_total {}\n", m.stale_timer_skips));
    for (kind, fires) in m.timer_fires() {
        out.push_str(&format!("rgb_timer_fires_total{{kind=\"{kind}\"}} {fires}\n"));
    }
    for (phase, nanos) in [
        ("execute", m.par.execute_nanos),
        ("flush", m.par.flush_nanos),
        ("barrier", m.par.barrier_nanos),
        ("drain", m.par.drain_nanos),
    ] {
        out.push_str(&format!("rgb_par_phase_nanos{{phase=\"{phase}\"}} {nanos}\n"));
    }
    out.push_str("# TYPE rgb_latency_ticks summary\n");
    for (level, lvl) in m.levels.iter() {
        for (surface, h) in [("join", &lvl.join), ("repair", &lvl.repair), ("query", &lvl.query)] {
            if h.is_empty() {
                continue;
            }
            for q in [0.5, 0.9, 0.99] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!(
                        "rgb_latency_ticks{{surface=\"{surface}\",level=\"{level}\",quantile=\"{q}\"}} {v}\n",
                    ));
                }
            }
            out.push_str(&format!(
                "rgb_latency_ticks_count{{surface=\"{surface}\",level=\"{level}\"}} {}\n",
                h.len(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgb_core::prelude::{GroupId, HierarchySpec};

    fn obs_fixture() -> EngineObs {
        let layout = HierarchySpec::new(2, 3).build(GroupId(1)).unwrap();
        let ids: Vec<NodeId> = layout.nodes.keys().copied().collect();
        EngineObs::new(&ids, &layout)
    }

    #[test]
    fn disabled_hooks_track_nothing() {
        let mut obs = obs_fixture();
        let mut m = Metrics::default();
        obs.on_timer_fire(5, 0, TimerKind::TokenLost);
        obs.on_app(9, 0, &AppEvent::RingRepaired { ring: RingId(0), excluded: NodeId(2) }, &mut m);
        obs.on_query_done(0, 17, &mut m);
        assert!(m.levels.is_empty());
        assert!(obs.trace_snapshot().is_empty());
    }

    #[test]
    fn repair_interval_closes_into_the_node_level_surface() {
        let mut obs = obs_fixture();
        obs.enable(Box::new(rgb_core::obs::FlightRecorder::new(64)));
        let mut m = Metrics::default();
        obs.on_timer_fire(100, 1, TimerKind::TokenLost);
        obs.on_app(
            140,
            1,
            &AppEvent::RingRepaired { ring: RingId(0), excluded: NodeId(9) },
            &mut m,
        );
        let level = obs.node_level[1];
        let h = &m.levels.get(level).unwrap().repair;
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(40));
        // A second completion with no open interval records nothing.
        obs.on_app(
            150,
            1,
            &AppEvent::RingRepaired { ring: RingId(0), excluded: NodeId(9) },
            &mut m,
        );
        assert_eq!(m.levels.get(level).unwrap().repair.count(), 1);
        let kinds: Vec<ObsKind> = obs.trace_snapshot().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&ObsKind::TokenLoss));
        assert!(kinds.contains(&ObsKind::TokenRecovery { excluded: 1 }));
    }

    #[test]
    fn join_interval_anchors_on_first_sighting_per_ring() {
        let mut obs = obs_fixture();
        obs.enable_tracking();
        let mut m = Metrics::default();
        let id = ChangeId { origin: NodeId(7), seq: 3 };
        let ring = obs.node_ring[4];
        let msg = Msg::MqInsert {
            kind: rgb_core::prelude::NotifyKind::Local,
            records: vec![make_record(id, ring)],
        };
        obs.on_msg(50, 4, &msg);
        obs.on_msg(60, 4, &msg); // re-sighting does not reset the anchor
        obs.on_app(90, 4, &AppEvent::Agreed { ring, ids: vec![id] }, &mut m);
        let level = obs.node_level[4];
        assert_eq!(m.levels.get(level).unwrap().join.max(), Some(40));
        // The interval is consumed: a second Agreed records nothing new.
        obs.on_app(95, 4, &AppEvent::Agreed { ring, ids: vec![id] }, &mut m);
        assert_eq!(m.levels.get(level).unwrap().join.count(), 1);
    }

    fn make_record(id: ChangeId, ring: RingId) -> rgb_core::prelude::ChangeRecord {
        use rgb_core::prelude::*;
        ChangeRecord::new(id, id.origin, ring, ChangeOp::MemberLeave { guid: Guid(1) })
    }

    #[test]
    fn timeline_samples_are_deltas() {
        let mut t = Timeline::new();
        let mut m = Metrics::default();
        use crate::network::LinkClass;
        use rgb_core::prelude::MsgLabel;
        m.record_send(MsgLabel::Token, LinkClass::IntraRing);
        m.record_send(MsgLabel::Token, LinkClass::IntraRing);
        t.sample(10, 1_000, &m);
        m.record_send(MsgLabel::Token, LinkClass::IntraRing);
        t.sample(20, 2_000, &m);
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.entries()[0].sent_delta, 2);
        assert_eq!(t.entries()[1].sent_delta, 1);
        assert_eq!(t.entries()[1].by_label_delta.get("token"), Some(&1));
    }

    #[test]
    fn obs_json_has_the_v1_envelope() {
        let mut m = Metrics::default();
        m.record_timer_fire(rgb_core::prelude::TimerKind::Heartbeat);
        let t = Timeline::new();
        let mut busy = ShardLoad { nodes: 6, processed: 30, ..ShardLoad::default() };
        busy.par.execute_nanos = 2_500_000;
        let idle = ShardLoad { nodes: 3, processed: 10, ..ShardLoad::default() };
        let doc = obs_json(&ObsReport {
            scenario: "unit",
            backend: "sim",
            ticks: 123,
            wall_nanos: 456,
            metrics: &m,
            timeline: &t,
            trace: &[],
            trace_dropped: 0,
            shards: &[busy, idle],
        });
        assert!(doc.contains("\"schema\": \"rgb-obs v1\""));
        assert!(doc.contains(
            "\"shards\": [{\"nodes\":6,\"events\":30,\"execute_ms\":2.5,\"barrier_ms\":0.0}, \
             {\"nodes\":3,\"events\":10,\"execute_ms\":0.0,\"barrier_ms\":0.0}], \
             \"event_imbalance\": 1.500,"
        ));
        assert!(shard_loads_json(&[]).ends_with("\"shards\": [], \"event_imbalance\": null"));
        assert!(doc.contains("\"counters\""));
        assert!(doc.contains("\"timer_fires\": {\"token_retransmit\":0,"));
        assert!(doc.contains("\"heartbeat\":1,"));
        assert!(doc.contains("\"phase_nanos\""));
        assert!(doc.contains("\"levels\""));
        assert!(doc.contains("\"trace\""));
    }

    #[test]
    fn prometheus_text_exposes_levels_and_phases() {
        let mut m = Metrics::default();
        m.levels.level_mut(1).repair.record(40);
        m.par.barrier_nanos = 9;
        m.record_timer_fire(rgb_core::prelude::TimerKind::TokenKick);
        let text = prometheus_text(&m);
        assert!(text.contains("rgb_sent_total 0"));
        assert!(text.contains("rgb_timer_fires_total{kind=\"token_kick\"} 1"));
        assert!(text.contains("rgb_par_phase_nanos{phase=\"barrier\"} 9"));
        assert!(
            text.contains("rgb_latency_ticks{surface=\"repair\",level=\"1\",quantile=\"0.5\"} 40")
        );
    }
}
