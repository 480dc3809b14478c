//! Behavioural tests of the One-Round Token Passing Membership algorithm on
//! a single logical ring (paper §4.3, Figure 3).

use rgb_core::prelude::*;
use rgb_core::testing::Loopback;

/// One ring of `r` access proxies (height-1 hierarchy).
fn single_ring(r: usize, cfg: ProtocolConfig) -> (HierarchyLayout, Loopback) {
    let layout = HierarchySpec::new(1, r).build(GroupId(1)).unwrap();
    let mut net = Loopback::from_layout(&layout, &cfg);
    net.boot_all();
    (layout, net)
}

#[test]
fn join_reaches_every_ring_node() {
    let (layout, mut net) = single_ring(5, ProtocolConfig::default());
    let ap = layout.aps()[3];
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(7), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    for &n in layout.root_ring().nodes.iter() {
        assert!(net.node(n).ring_members.contains_operational(Guid(7)), "node {n} missing member");
    }
}

#[test]
fn epochs_and_views_are_identical_across_the_ring() {
    let (layout, mut net) = single_ring(6, ProtocolConfig::default());
    for (i, &ap) in layout.aps().iter().enumerate() {
        net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(100 + i as u64), luid: Luid(1) }));
    }
    assert!(net.run_until_quiet(1_000_000));
    let nodes = layout.root_ring().nodes.clone();
    let first = net.node(nodes[0]);
    for &n in &nodes[1..] {
        let other = net.node(n);
        assert_eq!(other.epoch, first.epoch, "epoch diverged at {n}");
        assert_eq!(other.ring_members, first.ring_members, "membership diverged at {n}");
    }
    assert_eq!(first.ring_members.operational_count(), 6);
}

#[test]
fn leave_removes_member_everywhere() {
    let (layout, mut net) = single_ring(4, ProtocolConfig::default());
    let ap = layout.aps()[0];
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(1), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    net.inject(ap, Input::Mh(MhEvent::Leave { guid: Guid(1) }));
    assert!(net.run_until_quiet(100_000));
    for &n in layout.root_ring().nodes.iter() {
        assert_eq!(net.node(n).ring_members.operational_count(), 0);
    }
}

#[test]
fn originator_receives_agreement() {
    let (layout, mut net) = single_ring(5, ProtocolConfig::default());
    let ap = layout.aps()[2]; // not the leader (leader is min id = aps()[0])
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(9), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    let agreed = net
        .events_at(ap)
        .iter()
        .any(|e| matches!(e, AppEvent::Agreed { ids, .. } if ids.iter().any(|i| i.origin == ap)));
    assert!(agreed, "originator never saw its change agreed");
}

#[test]
fn holder_ack_sent_for_remote_originators() {
    let (layout, mut net) = single_ring(5, ProtocolConfig::default());
    let ap = layout.aps()[2];
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(9), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    assert!(net.sent("holder_ack") >= 1, "expected a Holder-Acknowledgement");
}

#[test]
fn one_round_costs_r_plus_entry_hops_on_demand() {
    // OnDemand + TMS on a single ring: a join at a non-leader AP costs
    // 1 relay to the leader + r token hops. Token acks ride separately.
    let r = 5;
    let (layout, mut net) = single_ring(r, ProtocolConfig::default());
    let ap = layout.aps()[2];
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(9), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    assert_eq!(net.sent("token"), r as u64, "token should travel exactly r hops");
    assert_eq!(net.sent("mq_local"), 1, "one relay to the leader");
}

#[test]
fn join_at_leader_skips_the_relay() {
    let r = 5;
    let (layout, mut net) = single_ring(r, ProtocolConfig::default());
    let leader = layout.root_ring().nodes.iter().copied().min().unwrap();
    net.inject(leader, Input::Mh(MhEvent::Join { guid: Guid(9), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    assert_eq!(net.sent("token"), r as u64);
    assert_eq!(net.sent("mq_local"), 0);
}

#[test]
fn aggregation_collapses_join_leave_into_nothing() {
    let (layout, mut net) = single_ring(4, ProtocolConfig::default());
    // Target a non-leader AP so both events sit in the leader's MQ while a
    // round for an unrelated change is in flight... simpler: join+leave at
    // the leader while the token is parked but queue both before draining.
    let leader = layout.root_ring().nodes.iter().copied().min().unwrap();
    let other = layout.aps()[3];
    // Keep the token busy with an unrelated change first.
    net.inject(other, Input::Mh(MhEvent::Join { guid: Guid(50), luid: Luid(1) }));
    // While messages are pending, queue join+leave of member 7 at leader.
    net.inject(leader, Input::Mh(MhEvent::Join { guid: Guid(7), luid: Luid(1) }));
    net.inject(leader, Input::Mh(MhEvent::Leave { guid: Guid(7) }));
    assert!(net.run_until_quiet(1_000_000));
    for &n in layout.root_ring().nodes.iter() {
        assert!(!net.node(n).ring_members.contains_operational(Guid(7)));
        assert!(net.node(n).ring_members.contains_operational(Guid(50)));
    }
}

#[test]
fn continuous_policy_rotates_holdership() {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 10;
    cfg.heartbeat_interval = 1_000_000; // silence heartbeats for this test
    cfg.token_lost_timeout = 1_000_000;
    let (layout, mut net) = single_ring(4, cfg);
    net.run_until(200);
    // Multiple rounds happened and different nodes started them.
    let starters: Vec<u64> =
        layout.root_ring().nodes.iter().map(|&n| net.node(n).stats.rounds_started).collect();
    let total: u64 = starters.iter().sum();
    assert!(total >= 4, "expected several rounds, got {total}");
    assert!(
        starters.iter().filter(|&&s| s > 0).count() >= 2,
        "rotation should spread holdership: {starters:?}"
    );
}

#[test]
fn static_holder_when_rotation_disabled() {
    let mut cfg = ProtocolConfig::live();
    cfg.rotate_holder = false;
    cfg.token_interval = 10;
    cfg.heartbeat_interval = 1_000_000;
    cfg.token_lost_timeout = 1_000_000;
    let (layout, mut net) = single_ring(4, cfg);
    net.run_until(200);
    let leader = layout.root_ring().nodes.iter().copied().min().unwrap();
    for &n in layout.root_ring().nodes.iter() {
        let started = net.node(n).stats.rounds_started;
        if n == leader {
            assert!(started >= 4);
        } else {
            assert_eq!(started, 0, "non-leader {n} started rounds despite static holder");
        }
    }
}

#[test]
fn continuous_changes_still_agree() {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 10;
    cfg.heartbeat_interval = 1_000_000;
    cfg.token_lost_timeout = 1_000_000;
    let (layout, mut net) = single_ring(4, cfg);
    let ap = layout.aps()[2];
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(5), luid: Luid(1) }));
    net.run_until(500);
    for &n in layout.root_ring().nodes.iter() {
        assert!(net.node(n).ring_members.contains_operational(Guid(5)));
    }
}

#[test]
fn single_node_ring_agrees_instantly() {
    let (layout, mut net) = single_ring(1, ProtocolConfig::default());
    let ap = layout.aps()[0];
    net.inject(ap, Input::Mh(MhEvent::Join { guid: Guid(3), luid: Luid(1) }));
    assert!(net.run_until_quiet(10_000));
    assert!(net.node(ap).ring_members.contains_operational(Guid(3)));
    assert_eq!(net.sent("token"), 0, "no messages needed on a 1-ring");
}

#[test]
fn handoff_between_ring_neighbors_updates_location() {
    let (layout, mut net) = single_ring(5, ProtocolConfig::default());
    let a = layout.aps()[1];
    let b = layout.aps()[2];
    net.inject(a, Input::Mh(MhEvent::Join { guid: Guid(8), luid: Luid(1) }));
    assert!(net.run_until_quiet(100_000));
    net.inject(b, Input::Mh(MhEvent::HandoffIn { guid: Guid(8), luid: Luid(2), from: Some(a) }));
    assert!(net.run_until_quiet(100_000));
    for &n in layout.root_ring().nodes.iter() {
        let m = net.node(n).ring_members.get(Guid(8)).expect("member known");
        assert_eq!(m.ap, b, "location not updated at {n}");
        assert_eq!(m.luid, Luid(2));
    }
}

#[test]
fn hop_count_tells_a_grant_from_a_returning_round() {
    // A token addressed to its holder is a holdership grant when it has
    // been nowhere (`hops == 0`) and the holder's own round coming back
    // otherwise; the two take different branches of `on_token`.
    let cfg = ProtocolConfig::live();
    let layout = HierarchySpec::new(1, 4).build(GroupId(1)).unwrap();
    let nodes = layout.root_ring().nodes.clone();
    let (prev, me, next) = (nodes[0], nodes[1], nodes[2]);
    let mut node = NodeState::from_layout(&layout, me, cfg.clone()).unwrap();
    let token_to = |outs: &[Output], to: NodeId| {
        outs.iter().find_map(|o| match o {
            Output::Send { to: t, msg: Msg::Token(tok) } if *t == to => Some(tok.clone()),
            _ => None,
        })
    };

    // Grant: park the token and pace the next round; no round completes.
    let grant = Token::fresh(GroupId(1), layout.root_ring().id, 5, me, vec![]);
    assert_eq!(grant.hops, 0);
    let outs = node.handle(Input::Msg { from: prev, msg: Msg::Token(grant) });
    assert!(node.holds_token(), "a grant parks the token");
    assert_eq!(node.stats.rounds_completed, 0);
    assert!(outs.iter().any(|o| matches!(o, Output::SetTimer { kind: TimerKind::TokenKick, .. })));
    assert!(token_to(&outs, next).is_none(), "a grant is not forwarded");

    // The kick starts this node's own round: the token leaves with the
    // holder's visit already counted.
    let outs = node.handle(Input::Timer(TimerKind::TokenKick));
    let round = token_to(&outs, next).expect("round token forwarded to the successor");
    assert_eq!((round.holder, round.hops), (me, 1));
    assert!(!node.holds_token());

    // Returning round (the same token after three more visits): the round
    // completes and holdership rotates on with a fresh grant.
    let mut back = round;
    for &n in &[nodes[2], nodes[3], nodes[0]] {
        back.note_visit(n);
    }
    let outs = node.handle(Input::Msg { from: prev, msg: Msg::Token(back) });
    assert_eq!(node.stats.rounds_completed, 1, "hops > 0 at the holder completes the round");
    let handed = token_to(&outs, next).expect("holdership handed to the successor");
    assert_eq!((handed.holder, handed.hops), (next, 0), "the hand-over is a grant");
    assert!(!node.holds_token());
}
