//! Engine-side observability: the per-engine trace and join-latency state
//! that feeds [`rgb_core::obs`], the [`Timeline`] of periodic counter
//! deltas, and the exporters (Prometheus text exposition and the `rgb-obs
//! v1` JSON timeline).
//!
//! Both simulator engines — sequential ([`crate::sim::Simulation`]) and
//! sharded-parallel ([`crate::par::ParSimulation`]) — embed one
//! `EngineObs` per execution domain (the whole simulation, or one
//! shard). Its hooks fire at the world core's one input point and its one
//! application-event point, plus crashes and partition arms. Repair and
//! query intervals are not kept here: every node carries a
//! [`rgb_core::obs::NodeLatency`] (the tracker the live reactor runs too),
//! and this layer only files the samples it closes. Because rings are
//! sharded wholesale and every interval is ring- or node-local, the latency
//! surfaces and trace records a parallel run produces merge to exactly the
//! sequential run's — and none of the tracking touches node inputs, RNG
//! streams or event keys, so `SystemDigest` streams stay byte-identical
//! with obs enabled.
//!
//! Everything is gated on one `enabled` flag (default off, `NullSink`),
//! so runs that do not opt in keep current throughput.

use crate::metrics::{Metrics, MetricsSnapshot, ShardLoad};
use rgb_core::node::NodeState;
use rgb_core::obs::{LatencySample, NullSink, ObsKind, ObsRecord, TraceSink};
use rgb_core::prelude::{AppEvent, ChangeId, HierarchyLayout, Input, Msg, RingId, TimerKind};
use std::collections::BTreeMap;

/// In-flight change sightings tracked per engine domain before overflow
/// trimming starts. Sightings complete at ring agreement, so steady state
/// stays far below this; the cap only bounds pathological storms.
const FIRST_SEEN_CAP: usize = 1 << 16;

/// Per-engine observability state: the trace sink and the open join
/// intervals (change sightings) whose closures land in [`Metrics::levels`].
/// A record's coordinate — node id, ring, level — is read off the
/// [`NodeState`] each hook is handed.
#[derive(Debug)]
pub(crate) struct EngineObs {
    /// Master switch: when false every hook returns immediately and the
    /// engine behaves exactly as before this layer existed.
    enabled: bool,
    sink: Box<dyn TraceSink>,
    /// Level of every ring in the layout (Agreed events name rings).
    ring_level: BTreeMap<RingId, u8>,
    /// (ring, change) → tick of first wire sighting in that ring.
    first_seen: BTreeMap<(RingId, ChangeId), u64>,
    /// Sightings dropped because `first_seen` was at capacity.
    first_seen_overflow: u64,
}

impl EngineObs {
    /// Tracking state for a world over `layout`, disabled.
    pub(crate) fn new(layout: &HierarchyLayout) -> Self {
        EngineObs {
            enabled: false,
            sink: Box::new(NullSink),
            ring_level: layout.rings.iter().map(|r| (r.id, r.level as u8)).collect(),
            first_seen: BTreeMap::new(),
            first_seen_overflow: 0,
        }
    }

    /// Turn tracking on and route trace records to `sink` (a [`NullSink`]
    /// tracks latency and retains no trace).
    pub(crate) fn enable(&mut self, sink: Box<dyn TraceSink>) {
        self.enabled = true;
        self.sink = sink;
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
    fn emit(&mut self, now: u64, node: &NodeState, kind: ObsKind) {
        if self.sink.enabled() {
            self.sink.record(ObsRecord {
                at: now,
                node: node.id,
                ring: node.ring_id(),
                level: node.level as u8,
                kind,
            });
        }
    }

    /// A change record was seen on the wire at `node`'s ring.
    fn sight(&mut self, now: u64, node: &NodeState, id: ChangeId) {
        let key = (node.ring_id(), id);
        if self.first_seen.contains_key(&key) {
            return;
        }
        if self.first_seen.len() >= FIRST_SEEN_CAP {
            self.first_seen_overflow += 1;
            return;
        }
        self.first_seen.insert(key, now);
        self.emit(now, node, ObsKind::JoinStart { origin: id.origin, seq: id.seq });
    }

    /// `input` is offered to `node`: traces the suspicion timers, token
    /// grants and query issues, and opens a join interval at the first
    /// sighting of each change record in the node's ring.
    pub(crate) fn on_input(&mut self, now: u64, node: &NodeState, input: &Input) {
        if !self.enabled {
            return;
        }
        match input {
            Input::Timer(TimerKind::TokenLost) => self.emit(now, node, ObsKind::TokenLoss),
            Input::Timer(TimerKind::ParentTimeout) => self.emit(now, node, ObsKind::HandoffStart),
            Input::Msg { msg: Msg::Token(t), .. } => {
                self.emit(now, node, ObsKind::TokenGrant { seq: t.seq });
                for rec in &t.ops {
                    self.sight(now, node, rec.id);
                }
            }
            Input::Msg { msg: Msg::MqInsert { records, .. }, .. } => {
                for rec in records {
                    self.sight(now, node, rec.id);
                }
            }
            Input::StartQuery { .. } => self.emit(now, node, ObsKind::QueryIssue),
            _ => {}
        }
    }

    /// `node` delivered `event`, which closed `sample` (its
    /// [`rgb_core::obs::NodeLatency`]'s verdict). Files the sample and any
    /// join intervals the event closes into the per-level surfaces, and
    /// traces the completion.
    pub(crate) fn on_app(
        &mut self,
        now: u64,
        node: &NodeState,
        event: &AppEvent,
        sample: Option<LatencySample>,
        metrics: &mut Metrics,
    ) {
        if !self.enabled {
            return;
        }
        if let Some(sample) = sample {
            sample.record(metrics.levels.level_mut(node.level as u8));
        }
        match event {
            AppEvent::Agreed { ring, ids } => {
                let level = self.ring_level.get(ring).copied().unwrap_or(node.level as u8);
                for id in ids {
                    if let Some(t0) = self.first_seen.remove(&(*ring, *id)) {
                        metrics.levels.level_mut(level).join.record(now.saturating_sub(t0));
                    }
                }
                self.emit(now, node, ObsKind::JoinCommit { changes: ids.len() as u32 });
            }
            AppEvent::RingRepaired { .. } => {
                self.emit(now, node, ObsKind::TokenRecovery { excluded: 1 });
            }
            AppEvent::Reattached { .. } => self.emit(now, node, ObsKind::HandoffEnd),
            AppEvent::FastHandoff { .. } => self.emit(now, node, ObsKind::FastHandoff),
            AppEvent::QueryResult { responses, .. } => {
                self.emit(now, node, ObsKind::QueryAnswer { responses: *responses });
            }
            _ => {}
        }
    }

    /// A scheduled partition arm took effect at endpoint `node`
    /// (engines emit this for endpoint `a` only, so sequential and
    /// parallel traces agree — the parallel engine replicates partition
    /// arms to both endpoint owners).
    pub(crate) fn on_partition(&mut self, now: u64, node: &NodeState, start: bool) {
        if !self.enabled {
            return;
        }
        let kind = if start { ObsKind::PartitionStart } else { ObsKind::PartitionHeal };
        self.emit(now, node, kind);
    }

    /// The fault plan crashed `node`.
    pub(crate) fn on_crash(&mut self, now: u64, node: &NodeState) {
        if !self.enabled {
            return;
        }
        self.emit(now, node, ObsKind::Crash);
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
    use rgb_core::prelude::{
        ChangeOp, ChangeRecord, GroupId, Guid, HierarchySpec, NodeId, NotifyKind,
    };

    /// Tracking state over an h=2 r=3 layout, and its node `i` (id order).
    fn obs_fixture(i: usize) -> (EngineObs, NodeState) {
        let layout = HierarchySpec::new(2, 3).build(GroupId(1)).unwrap();
        let id = *layout.nodes.keys().nth(i).unwrap();
        let node = NodeState::from_layout(&layout, id, Default::default()).unwrap();
        (EngineObs::new(&layout), node)
    }

    #[test]
    fn disabled_hooks_track_nothing() {
        let (mut obs, node) = obs_fixture(0);
        let mut m = Metrics::default();
        obs.on_input(5, &node, &Input::Timer(TimerKind::TokenLost));
        let repaired = AppEvent::RingRepaired { ring: RingId(0), excluded: NodeId(9) };
        obs.on_app(9, &node, &repaired, Some(LatencySample::Repair(4)), &mut m);
        obs.on_crash(10, &node);
        assert!(m.levels.is_empty());
        assert!(obs.trace_snapshot().is_empty());
    }

    #[test]
    fn join_interval_anchors_on_first_sighting_per_ring() {
        let (mut obs, node) = obs_fixture(4);
        obs.enable(Box::new(NullSink));
        let mut m = Metrics::default();
        let id = ChangeId { origin: NodeId(7), seq: 3 };
        let ring = node.ring_id();
        let op = ChangeOp::MemberLeave { guid: Guid(1) };
        let records = vec![ChangeRecord::new(id, id.origin, ring, op)];
        let msg =
            Input::Msg { from: NodeId(7), msg: Msg::MqInsert { kind: NotifyKind::Local, records } };
        obs.on_input(50, &node, &msg);
        obs.on_input(60, &node, &msg); // re-sighting does not reset the anchor
        obs.on_app(90, &node, &AppEvent::Agreed { ring, ids: vec![id] }, None, &mut m);
        let level = node.level as u8;
        assert_eq!(m.levels.get(level).unwrap().join.max(), Some(40));
        // The interval is consumed: a second Agreed records nothing new.
        obs.on_app(95, &node, &AppEvent::Agreed { ring, ids: vec![id] }, None, &mut m);
        assert_eq!(m.levels.get(level).unwrap().join.len(), 1);
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
