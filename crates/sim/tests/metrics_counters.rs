//! Behavioural coverage for the defensive metric counters: they must
//! *move* when their condition occurs (not merely exist), and stay zero
//! otherwise.

use bytes::Bytes;
use rgb_core::prelude::*;
use rgb_sim::{NetConfig, Scenario, Simulation};

#[test]
fn codec_rejected_moves_on_corrupt_and_foreign_frames() {
    let mut sim = Simulation::full(1, 3, &ProtocolConfig::default(), NetConfig::instant(), 1);
    sim.boot_all();
    let nodes = sim.layout.root_ring().nodes.clone();
    assert_eq!(sim.metrics.codec_rejected, 0);

    // A frame that is not a wire envelope at all.
    sim.send_frame(nodes[0], nodes[1], MsgLabel::Token, Bytes::from(vec![0xde, 0xad, 0xbe]));
    while sim.step() {}
    assert_eq!(sim.metrics.codec_rejected, 1, "corrupt frame must be counted");

    // A well-formed envelope stamped with a foreign group id.
    let foreign = rgb_core::wire::encode(&Envelope {
        gid: GroupId(4_242),
        msg: Msg::TokenAck { ring: RingId(0), seq: 1 },
    });
    sim.send_frame(nodes[1], nodes[2], MsgLabel::TokenAck, foreign);
    while sim.step() {}
    assert_eq!(sim.metrics.codec_rejected, 2, "foreign-group frame must be counted");

    // Healthy traffic leaves the counter alone.
    let ok = rgb_core::wire::encode(&Envelope {
        gid: sim.layout.gid,
        msg: Msg::TokenAck { ring: RingId(0), seq: 2 },
    });
    sim.send_frame(nodes[0], nodes[2], MsgLabel::TokenAck, ok);
    while sim.step() {}
    assert_eq!(sim.metrics.codec_rejected, 2);
}

#[test]
fn app_events_dropped_moves_when_the_delivered_cap_overflows() {
    let build = |cap: Option<usize>| {
        let mut sc = Scenario::new("cap", 1, 3).with_duration(2_000);
        if let Some(cap) = cap {
            sc = sc.with_delivered_cap(cap);
        }
        let aps = sc.layout().aps();
        for g in 0..6u64 {
            sc = sc.join(g, aps[(g % 3) as usize], Guid(g), Luid(1));
        }
        let mut sim = sc.build_sim();
        sim.run_until(sc.duration);
        sim
    };

    // Uncapped: everything is retained, nothing is dropped.
    let sim = build(None);
    assert_eq!(sim.metrics.app_events_dropped, 0);
    let retained: u64 = sim.delivered_iter().map(|(_, evs)| evs.len() as u64).sum();
    assert_eq!(retained, sim.metrics.app_events, "uncapped log retains every delivery");

    // Capped at one delivery per node: the cap must overflow and count.
    let sim = build(Some(1));
    assert!(sim.metrics.app_events_dropped > 0, "cap never overflowed");
    for (node, evs) in sim.delivered_iter() {
        assert!(evs.len() <= 1, "cap violated at {node}");
    }
    let retained: u64 = sim.delivered_iter().map(|(_, evs)| evs.len() as u64).sum();
    assert_eq!(
        retained + sim.metrics.app_events_dropped,
        sim.metrics.app_events,
        "every delivery is either retained or counted as dropped"
    );
}

#[test]
fn partition_dropped_and_dup_reorder_counters_move_only_when_configured() {
    // Partition window swallows frames into `partition_dropped`.
    let sc = Scenario::new("partition metrics", 1, 3)
        .with_cfg(ProtocolConfig::live())
        .with_duration(1_500);
    let nodes = sc.layout().root_ring().nodes.clone();
    let aps = sc.layout().aps();
    let sc = sc.partition(0, 1_000, nodes[0], nodes[1]).join(10, aps[2], Guid(1), Luid(1));
    let mut sim = sc.build_sim();
    sim.run_until(sc.duration);
    assert!(sim.metrics.partition_dropped > 0, "partition swallowed nothing");
    assert_eq!(sim.metrics.duplicated, 0);
    assert_eq!(sim.metrics.reordered, 0);

    // Duplication/reordering move their counters when configured.
    let mut net = NetConfig::unit();
    net.dup = 0.2;
    net.reorder = 0.2;
    net.reorder_extra = 10;
    let sc = Scenario::new("dup metrics", 1, 3)
        .with_cfg(ProtocolConfig::live())
        .with_net(net)
        .with_duration(1_500);
    let aps = sc.layout().aps();
    let sc = sc.join(0, aps[0], Guid(1), Luid(1));
    let mut sim = sc.build_sim();
    sim.run_until(sc.duration);
    assert!(sim.metrics.duplicated > 0, "duplication never fired");
    assert!(sim.metrics.reordered > 0, "reordering never fired");
    assert_eq!(sim.metrics.partition_dropped, 0);
}

#[test]
fn timer_fires_count_live_expiries_by_kind_on_both_engines() {
    // A quiet, crash-free continuous hierarchy: heartbeats and token kicks
    // fire, every retransmission deadline is cancelled by its ack (its
    // queue entry drains as a stale skip), and nobody times out.
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 20;
    cfg.heartbeat_interval = 100;
    let sc = Scenario::new("event mix", 2, 4)
        .with_cfg(cfg)
        .with_net(NetConfig::unit())
        .with_duration(3_000);
    let mut sim = sc.build_sim();
    sim.run_until(sc.duration);
    let fires: std::collections::BTreeMap<_, _> = sim.metrics.timer_fires().collect();
    assert!(fires["heartbeat"] >= 20 * 29, "20 nodes beat every 100 ticks: {fires:?}");
    assert!(fires["token_kick"] > 0, "{fires:?}");
    assert_eq!(fires["token_retransmit"], 0, "every token was acknowledged in time: {fires:?}");
    assert_eq!(fires["parent_timeout"] + fires["child_timeout"], 0, "{fires:?}");
    assert!(sim.metrics.stale_timer_skips > 0);

    // Shards count their own nodes' expiries; the merge is the same mix.
    let mut par = sc.try_build_par(2).expect("scenario validates");
    par.run_until(sc.duration);
    let merged = par.metrics();
    assert_eq!(
        merged.timer_fires().collect::<Vec<_>>(),
        sim.metrics.timer_fires().collect::<Vec<_>>()
    );
    assert_eq!(merged.stale_timer_skips, sim.metrics.stale_timer_skips);
}
