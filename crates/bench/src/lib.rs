//! # rgb-bench — measurement helpers behind the table/figure binaries.
//!
//! Every experiment in `EXPERIMENTS.md` (E1–E11) calls into this crate so
//! the binaries and the integration tests measure the *same* code paths.
//!
//! Measurement runs are **built from declarative [`Scenario`] values**
//! (topology, configuration, schedule) and then driven imperatively with
//! predicates; the scenario part can be replayed unchanged on any backend
//! through `Scenario::run_on` (including the live reactor via
//! `Backend::Live`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rgb_core::prelude::*;
use rgb_sim::{NetConfig, Scenario};

/// Result of measuring one membership change on a full (h, r) hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct ChangeCost {
    /// Messages in the paper's "proposal" category (tokens, notifications,
    /// leader relays, the wireless hop).
    pub proposal_hops: u64,
    /// Every message including acknowledgements.
    pub total_msgs: u64,
    /// Token hops alone (exactly `r · tn` when the change floods every
    /// ring).
    pub token_hops: u64,
    /// Simulated ticks from injection until the change reached the root
    /// ring.
    pub latency_to_root: u64,
    /// Simulated ticks until full quiescence (every ring done).
    pub latency_total: u64,
}

/// Measure one Member-Join on an idle full hierarchy under the on-demand
/// policy (experiment E2/E6). `net` controls latency; use
/// [`NetConfig::instant`] for pure hop counting.
pub fn measure_change(h: usize, r: usize, net: NetConfig, seed: u64) -> ChangeCost {
    let scenario = Scenario::new("one member join", h, r).with_net(net).with_seed(seed);
    let layout = scenario.layout();
    let aps = layout.aps();
    let ap = aps[aps.len() / 2];
    let root = layout.root_ring().nodes[0];
    let scenario = scenario.join(0, ap, Guid(99_999), Luid(1));
    let mut sim = scenario.build_sim();
    let before = sim.metrics.clone();
    let t0 = sim.now;
    let reached_root = sim
        .run_until_pred(u64::MAX / 2, |s| s.member_at(root, Guid(99_999)))
        .expect("join reaches root");
    assert!(sim.run_until_quiet(500_000_000), "simulation did not quiesce");
    let after = &sim.metrics;
    ChangeCost {
        proposal_hops: after.proposal_hops() - before.proposal_hops(),
        total_msgs: after.sent_total - before.sent_total,
        token_hops: after.sent_label(MsgLabel::Token) - before.sent_label(MsgLabel::Token),
        latency_to_root: reached_root - t0,
        latency_total: sim.now - t0,
    }
}

/// Measured query cost for one global query under `scheme` on a populated
/// (h, r) hierarchy (experiment E10).
#[derive(Debug, Clone, Copy)]
pub struct QueryCost {
    /// Messages attributable to the query.
    pub messages: u64,
    /// Simulated ticks from request to result.
    pub latency: u64,
    /// Members returned.
    pub members: usize,
    /// Partial responses aggregated.
    pub responses: u32,
}

/// Populate a hierarchy (one member per AP) and measure one global query
/// issued at an access proxy.
pub fn measure_query(
    h: usize,
    r: usize,
    scheme: MembershipScheme,
    net: NetConfig,
    seed: u64,
) -> QueryCost {
    let cfg = ProtocolConfig { scheme, ..ProtocolConfig::default() };
    let mut scenario = Scenario::new("populated hierarchy, one global query", h, r)
        .with_cfg(cfg)
        .with_net(net)
        .with_seed(seed);
    let aps = scenario.layout().aps();
    for (i, &ap) in aps.iter().enumerate() {
        scenario = scenario.join(i as u64, ap, Guid(i as u64), Luid(1));
    }
    let mut sim = scenario.build_sim();
    assert!(sim.run_until_quiet(500_000_000));
    let before = sim.metrics.sent_total;
    let ap = aps[0];
    sim.schedule_query(0, ap, QueryScope::Global);
    assert!(sim.run_until_quiet(500_000_000));
    let (members, responses) = sim
        .events_at(ap)
        .iter()
        .rev()
        .find_map(|(_, e)| match e {
            AppEvent::QueryResult { members, responses, .. } => {
                Some((members.operational_count(), *responses))
            }
            _ => None,
        })
        .expect("query answered");
    QueryCost {
        messages: sim.metrics.sent_total - before,
        latency: sim.metrics.query_latency.max().unwrap_or(0),
        members,
        responses,
    }
}

/// Handoff admission latency (ticks until the member is operational at the
/// destination proxy's ring view), fast path vs slow path (experiment E11).
#[derive(Debug, Clone, Copy)]
pub struct HandoffCost {
    /// Ticks until ring-level admission via the fast path (prior location
    /// known from the proxy's working sets).
    pub fast_admission: u64,
    /// Ticks until ring-level admission via the slow path (unknown member,
    /// must wait for one-round agreement).
    pub slow_admission: u64,
}

/// Measure both handoff paths on a single ring of `r` proxies.
pub fn measure_handoff(r: usize, net: NetConfig, seed: u64) -> HandoffCost {
    // Fast path: join at proxy a (a neighbour of b), then hand off to b —
    // b already knows the member from its ring state.
    let scenario = Scenario::new("fast handoff: populated single ring", 1, r)
        .with_net(net.clone())
        .with_seed(seed);
    let nodes = scenario.layout().root_ring().nodes.clone();
    let (a, b) = (nodes[1], nodes[2]);
    let mut sim = scenario.join(0, a, Guid(1), Luid(1)).build_sim();
    assert!(sim.run_until_quiet(100_000_000));
    let t0 = sim.now;
    sim.schedule_mh(0, b, MhEvent::HandoffIn { guid: Guid(1), luid: Luid(2), from: None });
    let fast = sim
        .run_until_pred(u64::MAX / 2, |s| {
            s.node(b).ring_members.get(Guid(1)).map(|m| m.ap) == Some(b)
        })
        .expect("fast handoff admits");
    let fast_admission = fast - t0;
    assert!(sim.run_until_quiet(100_000_000));

    // Slow path: the member is unknown at b's ring (fresh simulation, no
    // prior join in this ring), so admission waits for agreement.
    let scenario2 =
        Scenario::new("slow handoff: empty single ring", 1, r).with_net(net).with_seed(seed + 1);
    let mut sim2 = scenario2.build_sim();
    let nodes2 = sim2.layout.root_ring().nodes.clone();
    let b2 = nodes2[2];
    let t0 = sim2.now;
    sim2.schedule_mh(0, b2, MhEvent::HandoffIn { guid: Guid(2), luid: Luid(2), from: None });
    let slow = sim2
        .run_until_pred(u64::MAX / 2, |s| {
            s.node(b2).ring_members.get(Guid(2)).map(|m| m.ap) == Some(b2)
        })
        .expect("slow handoff admits");
    HandoffCost { fast_admission, slow_admission: slow - t0 }
}

/// Propagation latency of one join to the root, per hierarchy shape, at
/// equal AP count (experiment E8: small rings beat large rings).
pub fn measure_shape_latency(h: usize, r: usize, seed: u64) -> ChangeCost {
    measure_change(h, r, NetConfig::default(), seed)
}

/// Ablation D1, the self-aggregating message queue: a bursty workload
/// (every member joins, half leave at once, some bounce between proxies)
/// on h=2 r=5, aggregation on or off. Returns (messages, ops executed,
/// records aggregated away). A round carries any number of records, so
/// aggregation saves ops (cancelled pairs never ride a token), not messages.
pub fn bursty(aggregate: bool) -> (u64, u64, u64) {
    let cfg = ProtocolConfig { aggregate_mq: aggregate, ..ProtocolConfig::default() };
    let layout = HierarchySpec::new(2, 5).build(GroupId(1)).unwrap();
    let mut net = Loopback::from_layout(&layout, &cfg);
    net.boot_all();
    let aps = layout.aps();
    for i in 0..50u64 {
        let ap = aps[(i % aps.len() as u64) as usize];
        net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(i), luid: Luid(1) }));
        if i % 2 == 0 {
            net.inject(ap, Input::Mh(MhEvent::Leave { guid: Guid(i) }));
        }
        if i % 7 == 0 {
            let to = aps[((i + 1) % aps.len() as u64) as usize];
            net.inject(
                to,
                Input::Mh(MhEvent::HandoffIn { guid: Guid(i + 1), luid: Luid(9), from: Some(ap) }),
            );
        }
    }
    assert!(net.run_until_quiet(100_000_000));
    let ops: u64 = net.nodes.values().map(|n| n.stats.ops_executed).sum();
    let merged: u64 = net.nodes.values().map(|n| n.mq.total_aggregated_away()).sum();
    (net.sent_total, ops, merged)
}

/// Ablation D2, holder rotation (Figure 3 lines 21–23) against a static
/// token owner under the continuous policy: 40 members join across one
/// ring of eight proxies. Returns (total messages, the fewest operational
/// members any node holds plus the leader's rounds started).
pub fn churn_run(rotate: bool) -> (u64, u64) {
    let mut cfg = ProtocolConfig::live();
    cfg.rotate_holder = rotate;
    cfg.token_interval = 10;
    cfg.heartbeat_interval = 1_000_000;
    cfg.token_lost_timeout = 1_000_000;
    let layout = HierarchySpec::new(1, 8).build(GroupId(1)).unwrap();
    let mut net = Loopback::from_layout(&layout, &cfg);
    net.boot_all();
    let aps = layout.aps();
    for i in 0..40u64 {
        let ap = aps[(i % 8) as usize];
        net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(i), luid: Luid(1) }));
    }
    net.run_until(5_000);
    let leader = layout.root_ring().nodes.iter().copied().min().unwrap();
    let agreed =
        net.nodes.values().map(|n| n.ring_members.operational_count() as u64).min().unwrap_or(0);
    (net.sent_total, agreed + net.node(leader).stats.rounds_started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgb_analysis::hcn_ring;

    #[test]
    fn measured_token_hops_equal_r_times_tn() {
        for &(h, r) in &[(2usize, 3usize), (3, 3), (2, 5)] {
            let cost = measure_change(h, r, NetConfig::instant(), 42);
            let tn: u64 = (0..h).map(|i| (r as u64).pow(i as u32)).sum();
            assert_eq!(cost.token_hops, r as u64 * tn, "h={h} r={r}");
            // Proposal traffic is within the analytic envelope
            // (r+1)·tn − 1 … (r+2)·tn + 1 (leader relays add ≤1 per ring).
            let lo = hcn_ring(h as u32, r as u64) - tn;
            let hi = hcn_ring(h as u32, r as u64) + 2 * tn + 2;
            assert!(
                (lo..=hi).contains(&cost.proposal_hops),
                "h={h} r={r}: proposal {} outside [{lo}, {hi}]",
                cost.proposal_hops
            );
        }
    }

    #[test]
    fn query_cost_ordering() {
        let tms = measure_query(3, 3, MembershipScheme::Tms, NetConfig::instant(), 1);
        let bms = measure_query(3, 3, MembershipScheme::Bms, NetConfig::instant(), 1);
        assert_eq!(tms.members, 27);
        assert_eq!(bms.members, 27);
        assert!(tms.messages < bms.messages);
        assert_eq!(tms.responses, 1);
        assert_eq!(bms.responses, 9);
    }

    #[test]
    fn fast_handoff_beats_slow() {
        let cost = measure_handoff(6, NetConfig::default(), 3);
        assert!(
            cost.fast_admission < cost.slow_admission,
            "fast {} !< slow {}",
            cost.fast_admission,
            cost.slow_admission
        );
    }

    #[test]
    fn small_rings_finish_agreement_faster_at_equal_n() {
        // 4096 APs: (h=12, r=2) vs (h=2, r=64). The §6 claim — small rings
        // propagate membership messages with lower delay — holds for the
        // *full agreement* time (every ring done): a 64-node round
        // serialises 64 hops, while the deep hierarchy's 2-node rounds run
        // concurrently. First-notification-at-root goes the other way
        // (fewer levels = fewer pipelined ascent hops); the ring_size_sweep
        // binary reports both columns.
        let deep = measure_shape_latency(12, 2, 7);
        let wide = measure_shape_latency(2, 64, 7);
        assert!(
            deep.latency_total < wide.latency_total,
            "deep total {} !< wide total {}",
            deep.latency_total,
            wide.latency_total
        );
        assert!(
            deep.latency_to_root > wide.latency_to_root,
            "pipelined ascent: deep first-notify {} should exceed wide {}",
            deep.latency_to_root,
            wide.latency_to_root
        );
    }
}
