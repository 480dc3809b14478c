//! # rgb-bench — the experiments of `EXPERIMENTS.md`, as functions.
//!
//! [`experiments`] holds one function per paper-table experiment (E1–E6,
//! E8–E11). Each returns the report the `experiments` binary prints, and
//! `tests/paper_claims.rs` asserts each experiment's claim over that same
//! report; E2's [`experiments::measure_change`] is also asserted shape by
//! shape. The crate root keeps the two ablation workloads of E7
//! ([`bursty`], [`churn_run`]), asserted by `tests/ablations.rs`. The
//! `bench_scale` and `explore` binaries (E13, E12/E15) live here too.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

use rgb_core::prelude::*;

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
    use crate::experiments::measure_change;
    use rgb_analysis::hcn_ring;
    use rgb_sim::NetConfig;

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
}
