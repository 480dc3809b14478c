//! Backpressure tests: bounded worker mailboxes must bound memory — a slow
//! (or wedged) receiver costs dropped frames, never unbounded queue growth
//! or a deadlocked reactor.

use rgb_core::prelude::*;
use rgb_net::{Cluster, LiveConfig, Router, SendOutcome, ToWorker};
use std::time::Duration;

/// A receiver that never drains caps its mailbox at exactly the configured
/// capacity; every further frame is a counted backpressure drop, and the
/// sender is never parked (the send path stays non-blocking).
#[test]
fn slow_node_bounds_mailbox_memory() {
    const CAPACITY: usize = 4;
    const FLOOD: u64 = 10_000;
    let router = Router::new();
    let (tx, rx) = crossbeam::channel::bounded(CAPACITY);
    router.register(NodeId(7), tx);
    let mut delivered = 0u64;
    let mut backpressure = 0u64;
    for seq in 0..FLOOD {
        match router.send(GroupId(1), NodeId(1), NodeId(7), Msg::TokenAck { ring: RingId(0), seq })
        {
            SendOutcome::Delivered => delivered += 1,
            SendOutcome::Backpressure => backpressure += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(delivered, CAPACITY as u64, "only the mailbox capacity is ever queued");
    assert_eq!(backpressure, FLOOD - CAPACITY as u64);
    assert_eq!(router.backpressure_dropped(), backpressure);
    assert_eq!(router.dropped(), 0, "backpressure is not an unroutable drop");
    // The queue itself holds exactly CAPACITY frames — memory is bounded by
    // configuration, not by the sender's rate.
    let mut queued = 0usize;
    while rx.try_recv().is_ok() {
        queued += 1;
    }
    assert_eq!(queued, CAPACITY);
}

/// A live cluster squeezed to one-slot mailboxes keeps running: frames are
/// dropped under pressure (and counted in [`rgb_net::ClusterStats`]) but the
/// reactor never deadlocks — the operator API still answers and shutdown
/// still joins every worker.
#[test]
fn one_slot_mailboxes_backpressure_without_deadlock() {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 5;
    cfg.token_retransmit_timeout = 20;
    cfg.token_lost_timeout = 150;
    cfg.heartbeat_interval = 20;
    let layout = HierarchySpec::new(1, 4).build(GroupId(1)).unwrap();
    let live = LiveConfig::default().with_mailbox_capacity(1);
    let cluster = Cluster::try_new(layout, &cfg, &live).expect("cluster starts");

    // Token circulation alone forces backpressure: forwarding the token and
    // acking it are two sends into the same one-slot mailbox.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.stats().backpressure_dropped == 0 {
        assert!(std::time::Instant::now() < deadline, "one-slot mailboxes never saw backpressure");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The reactor is still alive and serving: snapshots answer and per-node
    // protocol state is intact.
    let node = cluster.layout.root_ring().nodes[0];
    let snap = cluster.snapshot(node, Duration::from_secs(5)).expect("snapshot under pressure");
    assert_eq!(snap.id, node);

    let stats = cluster.stats();
    assert!(stats.backpressure_dropped > 0);
    assert!(stats.frames_sent > 0, "traffic kept flowing despite drops");
    cluster.shutdown(); // must not hang
}

/// The same squeeze on the path a co-hosted destination takes: one worker
/// hosts all 72 NEs, so every frame goes onto its own run queue, and the
/// heartbeat burst (72 timers in one pass, nothing drained in between)
/// floods its four slots. Overflow is a counted backpressure drop charged to
/// the sending node, exactly as a full mailbox is; the queue depth itself is
/// held by `reactor::tests::run_queue_is_bounded_and_every_send_is_counted_once`.
#[test]
fn worker_local_flood_backpressures_on_the_run_queue() {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 5;
    cfg.token_retransmit_timeout = 20;
    cfg.token_lost_timeout = 150;
    cfg.heartbeat_interval = 20;
    let layout = HierarchySpec::new(2, 8).build(GroupId(1)).unwrap();
    let nodes: Vec<NodeId> = layout.nodes.keys().copied().collect();
    let live = LiveConfig::default().with_workers(1).with_mailbox_capacity(4);
    let cluster = Cluster::try_new(layout, &cfg, &live).expect("cluster starts");
    assert_eq!(cluster.worker_count(), 1);

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.stats().backpressure_dropped == 0 {
        assert!(std::time::Instant::now() < deadline, "the run queue never overflowed");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Still serving (operator sends park on the four-slot mailbox, workers
    // never do), and the drops are the senders' own: the per-node counters
    // add up to the cluster's, bracketed because the cluster keeps running.
    let before = cluster.stats();
    let by_nodes: u64 = nodes
        .iter()
        .map(|&n| cluster.snapshot(n, Duration::from_secs(5)).expect("snapshot").dropped_frames)
        .sum();
    let after = cluster.stats();
    assert!(by_nodes > 0, "no sender saw its frame dropped");
    assert!(before.backpressure_dropped + before.dropped_frames <= by_nodes);
    assert!(by_nodes <= after.backpressure_dropped + after.dropped_frames);

    // Nothing went by the Router's mailboxes, and what was placed is counted.
    let counts = cluster.worker_frame_counts();
    assert_eq!(counts.len(), 1);
    assert!(counts[0].0 > 0, "local frames are counted");
    assert_eq!(counts[0].1, 0, "one worker hosts every destination");
    assert!(cluster.stats().frames_sent >= counts[0].0);
    cluster.shutdown(); // must not hang
}

/// The operator-facing app-event channel is bounded too: when nobody drains
/// it, events are dropped with a counter instead of growing without bound.
#[test]
fn app_event_channel_is_bounded_with_a_drop_counter() {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 5;
    cfg.heartbeat_interval = 20;
    let layout = HierarchySpec::new(1, 3).build(GroupId(1)).unwrap();
    let live = LiveConfig::default().with_event_capacity(2);
    let cluster = Cluster::try_new(layout, &cfg, &live).expect("cluster starts");
    let nodes = cluster.layout.root_ring().nodes.clone();
    // Each agreed join raises `ViewChange`/`Agreed` events at every ring
    // node; with a two-slot events channel and no consumer, most of them
    // must be counted drops.
    for i in 0..16u64 {
        cluster.mh_event(nodes[(i % 3) as usize], MhEvent::Join { guid: Guid(i), luid: Luid(1) });
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.stats().app_events_dropped == 0 {
        assert!(std::time::Instant::now() < deadline, "event channel never overflowed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = cluster.stats();
    assert!(stats.app_events >= 2, "the bounded slots still delivered");
    assert!(stats.app_events_dropped > 0);
    cluster.shutdown();
}

/// `ToWorker` frames keep flowing through the same bounded path the router
/// uses — a direct mailbox send observes the identical capacity limit.
#[test]
fn worker_mailbox_capacity_is_the_router_capacity() {
    let router = Router::new();
    let (tx, _rx) = crossbeam::channel::bounded(1);
    router.register(NodeId(2), tx.clone());
    // Fill the single slot directly, as a worker-local send would.
    tx.try_send(ToWorker::Stop).unwrap();
    let out =
        router.send(GroupId(1), NodeId(1), NodeId(2), Msg::TokenAck { ring: RingId(0), seq: 0 });
    assert_eq!(out, SendOutcome::Backpressure);
}
