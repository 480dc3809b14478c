//! End-to-end tests of the live reactor runtime: a real concurrent RGB
//! deployment (a small worker pool multiplexing every NE, wire-encoded
//! frames) doing joins, queries, handoffs and crash recovery.

use rgb_core::prelude::*;
use rgb_net::{Cluster, LiveConfig};
use std::time::Duration;

fn fast_cfg() -> ProtocolConfig {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 5;
    cfg.token_retransmit_timeout = 20;
    cfg.token_retransmit_limit = 2;
    cfg.token_lost_timeout = 150;
    cfg.heartbeat_interval = 20;
    cfg.parent_timeout = 100;
    cfg.child_timeout = 100;
    cfg
}

fn start(h: usize, r: usize) -> Cluster {
    let layout = HierarchySpec::new(h, r).build(GroupId(1)).unwrap();
    // 1 tick = 1 ms of real time (the LiveConfig default).
    Cluster::try_new(layout, &fast_cfg(), &LiveConfig::default()).expect("cluster starts")
}

#[test]
fn live_join_reaches_the_root_ring() {
    let cluster = start(2, 3);
    let ap = cluster.layout.aps()[4];
    cluster.mh_event(ap, MhEvent::Join { guid: Guid(42), luid: Luid(1) });
    let root = cluster.layout.root_ring().nodes[0];
    assert!(
        cluster.wait_member_at(root, Guid(42), Duration::from_secs(10)),
        "join never reached the root ring"
    );
    cluster.shutdown();
}

#[test]
fn live_concurrent_joins_from_every_proxy() {
    let cluster = start(2, 3);
    let aps = cluster.layout.aps();
    for (i, &ap) in aps.iter().enumerate() {
        cluster.mh_event(ap, MhEvent::Join { guid: Guid(i as u64), luid: Luid(1) });
    }
    let root = cluster.layout.root_ring().nodes[0];
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut done = false;
    while std::time::Instant::now() < deadline {
        if let Some(snap) = cluster.snapshot(root, Duration::from_secs(1)) {
            if snap.ring_members.operational_count() == aps.len() {
                done = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(done, "root never saw all {} members", aps.len());
    cluster.shutdown();
}

#[test]
fn live_query_returns_global_membership() {
    let cluster = start(2, 3);
    let aps = cluster.layout.aps();
    for (i, &ap) in aps.iter().enumerate() {
        cluster.mh_event(ap, MhEvent::Join { guid: Guid(i as u64), luid: Luid(1) });
    }
    let root = cluster.layout.root_ring().nodes[0];
    assert!(cluster.wait_member_at(root, Guid(8), Duration::from_secs(10)));
    // wait until all 9 reached the root, then query from an AP
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let snap = cluster.snapshot(root, Duration::from_secs(1)).unwrap();
        if snap.ring_members.operational_count() == 9 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.query(aps[0], QueryScope::Global);
    let members = cluster.wait_event(Duration::from_secs(10), |node, ev| match ev {
        AppEvent::QueryResult { members, .. } if node == aps[0] => Some(members.clone()),
        _ => None,
    });
    let members = members.expect("query answered");
    assert_eq!(members.operational_count(), 9);
    cluster.shutdown();
}

#[test]
fn live_leave_is_removed_at_the_root() {
    let cluster = start(2, 3);
    let ap = cluster.layout.aps()[0];
    let root = cluster.layout.root_ring().nodes[0];
    cluster.mh_event(ap, MhEvent::Join { guid: Guid(7), luid: Luid(1) });
    assert!(cluster.wait_member_at(root, Guid(7), Duration::from_secs(10)));
    cluster.mh_event(ap, MhEvent::Leave { guid: Guid(7) });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut gone = false;
    while std::time::Instant::now() < deadline {
        let snap = cluster.snapshot(root, Duration::from_secs(1)).unwrap();
        if !snap.ring_members.contains_operational(Guid(7)) {
            gone = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(gone, "leave never propagated");
    cluster.shutdown();
}

#[test]
fn live_crash_is_repaired_and_protocol_continues() {
    let cluster = start(1, 4); // a single ring of four proxies
    let nodes = cluster.layout.root_ring().nodes.clone();
    // Let the ring circulate, then kill a non-leader node.
    std::thread::sleep(Duration::from_millis(100));
    let victim = nodes[2];
    cluster.crash(victim);
    // Survivors must exclude the victim from their rosters.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut repaired = false;
    while std::time::Instant::now() < deadline {
        let ok = nodes.iter().filter(|&&n| n != victim).all(|&n| {
            cluster.snapshot(n, Duration::from_secs(1)).map(|s| s.roster_len == 3).unwrap_or(false)
        });
        if ok {
            repaired = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(repaired, "ring never repaired after crash");
    // The predecessor's retransmissions opened a repair interval that its
    // exclusion of the victim closed before any roster could shrink.
    let repairs = cluster.level_latency().get(0).map_or(0, |l| l.repair.len());
    assert!(repairs >= 1, "the repair left no sample at level 0");
    // A query at a survivor closes exactly one query interval.
    let queries = |c: &Cluster| c.level_latency().iter().map(|(_, l)| l.query.len()).sum::<u64>();
    let before = queries(&cluster);
    cluster.query(nodes[0], QueryScope::Global);
    let answered = cluster.wait_event(Duration::from_secs(10), |node, ev| {
        matches!(ev, AppEvent::QueryResult { .. } if node == nodes[0]).then_some(())
    });
    assert!(answered.is_some(), "query at a survivor never answered");
    assert_eq!(queries(&cluster), before + 1, "one query, one sample");
    // The repaired ring still agrees on new members.
    cluster.mh_event(nodes[0], MhEvent::Join { guid: Guid(5), luid: Luid(1) });
    assert!(
        cluster.wait_member_at(nodes[1], Guid(5), Duration::from_secs(10)),
        "post-repair join failed"
    );
    let stats = cluster.stats();
    assert!(stats.dropped_frames > 0, "crash produced no drops");
    assert!(stats.frames_sent > 0);
    // `NodeSnapshot::dropped_frames` is genuinely per-node: the victim's
    // ring predecessor kept retransmitting the token into the void, so ITS
    // counter moved; and no node can have dropped more alone than the
    // whole cluster did in total.
    let predecessor = cluster.snapshot(nodes[1], Duration::from_secs(1)).unwrap();
    assert!(predecessor.dropped_frames > 0, "token predecessor recorded no drops");
    // All four were co-hosted: the victim left its worker's local index, so
    // frames its ring-mates sent after the crash fell through to the Router
    // and were charged to them — every cluster-wide drop is some survivor's
    // (nothing could be dropped while all four were up). Bracketed, because
    // the cluster keeps running between the reads.
    let before = cluster.stats();
    let by_survivors: u64 = nodes
        .iter()
        .filter(|&&n| n != victim)
        .map(|&n| cluster.snapshot(n, Duration::from_secs(1)).unwrap().dropped_frames)
        .sum();
    let after = cluster.stats();
    assert!(before.dropped_frames + before.backpressure_dropped <= by_survivors);
    assert!(by_survivors <= after.dropped_frames + after.backpressure_dropped);
    cluster.shutdown();
}

#[test]
fn live_handoff_moves_member_between_proxies() {
    let cluster = start(1, 4);
    let nodes = cluster.layout.root_ring().nodes.clone();
    let (a, b) = (nodes[1], nodes[2]);
    cluster.mh_event(a, MhEvent::Join { guid: Guid(3), luid: Luid(1) });
    assert!(cluster.wait_member_at(b, Guid(3), Duration::from_secs(10)));
    cluster.mh_event(b, MhEvent::HandoffIn { guid: Guid(3), luid: Luid(2), from: Some(a) });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut moved = false;
    while std::time::Instant::now() < deadline {
        let snap = cluster.snapshot(nodes[0], Duration::from_secs(1)).unwrap();
        if snap.ring_members.get(Guid(3)).map(|m| m.ap) == Some(b) {
            moved = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(moved, "handoff never updated the member location");
    cluster.shutdown();
}

#[test]
fn shutdown_joins_all_workers() {
    let cluster = start(2, 2);
    cluster.shutdown(); // must not hang
}

#[test]
fn explicit_worker_counts_deploy_and_converge() {
    // One worker (fully multiplexed) and more workers than rings (clamped)
    // must both behave identically to the default pool.
    for workers in [1usize, 64] {
        let layout = HierarchySpec::new(2, 3).build(GroupId(1)).unwrap();
        let cluster =
            Cluster::try_new(layout, &fast_cfg(), &LiveConfig::default().with_workers(workers))
                .expect("cluster starts");
        assert!(cluster.worker_count() >= 1);
        assert!(cluster.worker_count() <= cluster.layout.ring_count());
        let ap = cluster.layout.aps()[0];
        cluster.mh_event(ap, MhEvent::Join { guid: Guid(9), luid: Luid(1) });
        let root = cluster.layout.root_ring().nodes[0];
        assert!(
            cluster.wait_member_at(root, Guid(9), Duration::from_secs(10)),
            "join never converged with {workers} requested workers"
        );
        if workers == 1 {
            // Every destination is co-hosted, so no frame saw a mailbox —
            // and `frames_sent` counts them all the same.
            let counts = cluster.worker_frame_counts();
            assert_eq!(counts.len(), 1);
            assert_eq!(counts[0].1, 0, "nothing to route on one worker");
            assert!(cluster.stats().frames_sent >= counts[0].0 && counts[0].0 > 0);
        }
        cluster.shutdown();
    }
}

#[test]
fn workers_host_even_shares_to_within_one_ring() {
    // h=3 r=13 is the 2,379-NE shape of the benchmark's live workload.
    for workers in [2usize, 3] {
        let layout = HierarchySpec::new(3, 13).build(GroupId(1)).unwrap();
        let cluster =
            Cluster::try_new(layout, &fast_cfg(), &LiveConfig::default().with_workers(workers))
                .expect("cluster starts");
        let counts = cluster.worker_node_counts();
        cluster.shutdown();
        assert_eq!(counts.len(), workers);
        assert_eq!(counts.iter().sum::<usize>(), 2_379);
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 13, "{workers} workers differ by more than one ring: {counts:?}");
    }
}

#[test]
fn frames_sent_is_the_sum_of_the_per_worker_columns() {
    // The benchmark's live shape at a cadence a debug build keeps up with.
    let mut cfg = fast_cfg();
    cfg.token_interval = 50;
    cfg.token_retransmit_timeout = 150;
    cfg.token_lost_timeout = 1_000;
    cfg.heartbeat_interval = 100;
    cfg.parent_timeout = 400;
    cfg.child_timeout = 400;
    let layout = HierarchySpec::new(3, 13).build(GroupId(1)).unwrap();
    let cluster = Cluster::try_new(layout, &cfg, &LiveConfig::default().with_workers(2))
        .expect("cluster starts");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while cluster.stats().frames_sent < 50_000 {
        assert!(std::time::Instant::now() < deadline, "a few hundred ticks of traffic never came");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The cluster keeps running, so bracket the per-worker read.
    let before = cluster.stats().frames_sent;
    let counts = cluster.worker_frame_counts();
    let after = cluster.stats().frames_sent;
    cluster.shutdown();
    assert_eq!(counts.len(), 2);
    let (local, routed) = counts.iter().fold((0, 0), |(l, r), &(wl, wr)| (l + wl, r + wr));
    assert!(before <= local + routed && local + routed <= after, "{before} {counts:?} {after}");
    // Whole rings per worker: only the links the cut severs cross it.
    assert!(routed > 0, "two workers exchange something: {counts:?}");
    let share = local as f64 / (local + routed) as f64;
    assert!(share >= 0.99, "local share {share:.4} of {counts:?}");
}

#[test]
fn a_severed_co_hosted_pair_is_partition_dropped_on_the_local_path() {
    let cluster = start(1, 4); // one ring, so one worker hosts both ends
    let nodes = cluster.layout.root_ring().nodes.clone();
    cluster.set_partition(nodes[0], nodes[1], true);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.stats().partition_dropped == 0 {
        assert!(std::time::Instant::now() < deadline, "the severed pair never exchanged a frame");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.set_partition(nodes[0], nodes[1], false);
    let stats = cluster.stats();
    let counts = cluster.worker_frame_counts();
    cluster.shutdown();
    assert_eq!(counts.len(), 1);
    assert_eq!(counts[0].1, 0, "no frame went by a mailbox, the dropped ones included");
    assert_eq!(stats.dropped_frames, 0, "a partition drop is not an unroutable drop");
}

#[test]
fn invalid_config_is_a_typed_error_not_a_panic() {
    let layout = HierarchySpec::new(1, 3).build(GroupId(1)).unwrap();
    let err = match Cluster::try_new(
        layout,
        &fast_cfg(),
        &LiveConfig::default().with_tick(Duration::ZERO),
    ) {
        Err(err) => err,
        Ok(cluster) => {
            cluster.shutdown();
            panic!("zero tick must be rejected");
        }
    };
    assert!(err.to_string().contains("tick"), "error names the field: {err}");
}
