//! Property-based tests (proptest) of the core data structures and
//! invariants: MQ aggregation soundness, ring-roster arithmetic, partition
//! segmentation, and wire-format round-trips.

use proptest::prelude::*;
use rgb_core::partition;
use rgb_core::prelude::*;
use rgb_core::wire;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------

fn arb_member_op(guids: u64) -> impl Strategy<Value = ChangeOp> {
    let g = 0..guids;
    prop_oneof![
        (g.clone(), any::<u16>(), 0u64..8).prop_map(|(guid, luid, ap)| ChangeOp::MemberJoin {
            info: MemberInfo::operational(Guid(guid), Luid(luid as u64), NodeId(ap)),
        }),
        g.clone().prop_map(|guid| ChangeOp::MemberLeave { guid: Guid(guid) }),
        (g.clone(), any::<u16>(), proptest::option::of(0u64..8), 0u64..8).prop_map(
            |(guid, luid, from, to)| ChangeOp::MemberHandoff {
                guid: Guid(guid),
                luid: Luid(luid as u64),
                from: from.map(NodeId),
                to: NodeId(to),
            }
        ),
        g.prop_map(|guid| ChangeOp::MemberFailure { guid: Guid(guid) }),
    ]
}

fn arb_record(guids: u64) -> impl Strategy<Value = ChangeRecord> {
    (arb_member_op(guids), any::<u64>()).prop_map(|(op, seq)| {
        ChangeRecord::new(ChangeId { origin: NodeId(1), seq }, NodeId(1), RingId(0), op)
    })
}

/// The reference execution semantics: exactly what
/// `protocol::apply_member_op` does at every node — location ops are
/// applied under the stale-LUID guard (Mobile-IPv6 binding-sequence
/// discipline), departures unconditionally.
fn apply_ops(list: &mut MemberList, records: &[ChangeRecord]) {
    for rec in records {
        match &rec.op {
            ChangeOp::MemberJoin { info } => {
                list.apply_join(*info);
            }
            ChangeOp::MemberLeave { guid } | ChangeOp::MemberFailure { guid } => {
                list.remove(*guid);
            }
            ChangeOp::MemberHandoff { guid, luid, to, .. } => {
                list.apply_handoff(*guid, *luid, *to);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// MQ aggregation soundness
// ---------------------------------------------------------------------

proptest! {
    /// Applying the aggregated queue to a member list must yield exactly the
    /// same final membership as applying the raw op sequence.
    #[test]
    fn aggregation_preserves_final_membership(
        ops in proptest::collection::vec(arb_record(4), 0..40)
    ) {
        let mut raw_list = MemberList::new();
        apply_ops(&mut raw_list, &ops);

        let mut mq = MessageQueue::new();
        for rec in &ops {
            mq.push_aggregating(rec.clone());
        }
        let aggregated = mq.drain(usize::MAX);
        let mut agg_list = MemberList::new();
        apply_ops(&mut agg_list, &aggregated);

        prop_assert_eq!(
            raw_list.operational_guids(),
            agg_list.operational_guids(),
            "raw vs aggregated membership diverged"
        );
        // Locations must match too.
        for guid in raw_list.operational_guids() {
            prop_assert_eq!(
                raw_list.get(guid).map(|m| m.ap),
                agg_list.get(guid).map(|m| m.ap)
            );
        }
    }

    /// Aggregation never grows the queue beyond the raw insertion count.
    #[test]
    fn aggregation_never_grows(ops in proptest::collection::vec(arb_record(3), 0..40)) {
        let mut mq = MessageQueue::new();
        for (i, rec) in ops.iter().enumerate() {
            mq.push_aggregating(rec.clone());
            prop_assert!(mq.len() <= i + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Ring roster arithmetic
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn roster_next_prev_are_inverse(ids in proptest::collection::btree_set(0u64..1000, 1..40)) {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let roster = RingRoster::new(RingId(0), Tier::AccessProxy, 0, nodes.clone());
        for &n in &nodes {
            let next = roster.next_of(n).unwrap();
            prop_assert_eq!(roster.prev_of(next).unwrap(), n);
            let prev = roster.prev_of(n).unwrap();
            prop_assert_eq!(roster.next_of(prev).unwrap(), n);
        }
        prop_assert_eq!(roster.leader(), nodes.iter().copied().min());
    }

    #[test]
    fn roster_walk_visits_everyone_once(ids in proptest::collection::btree_set(0u64..1000, 1..40)) {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let roster = RingRoster::new(RingId(0), Tier::AccessProxy, 0, nodes.clone());
        let start = nodes[0];
        let mut seen = vec![start];
        let mut cur = start;
        loop {
            cur = roster.next_of(cur).unwrap();
            if cur == start { break; }
            seen.push(cur);
            prop_assert!(seen.len() <= nodes.len(), "walk does not terminate");
        }
        seen.sort();
        let mut expect = nodes.clone();
        expect.sort();
        prop_assert_eq!(seen, expect);
    }

    #[test]
    fn roster_remove_keeps_ring_closed(
        ids in proptest::collection::btree_set(0u64..1000, 2..40),
        victim_idx in 0usize..40
    ) {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let mut roster = RingRoster::new(RingId(0), Tier::AccessProxy, 0, nodes.clone());
        let victim = nodes[victim_idx % nodes.len()];
        prop_assert!(roster.remove(victim));
        prop_assert!(!roster.contains(victim));
        if let Some(&start) = roster.nodes().first() {
            // Ring is still closed: walking next() returns to start.
            let mut cur = start;
            for _ in 0..roster.len() {
                cur = roster.next_of(cur).unwrap();
            }
            prop_assert_eq!(cur, start);
        }
    }
}

// ---------------------------------------------------------------------
// Partition segmentation
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn segments_cover_exactly_alive_nodes(
        n in 1usize..30,
        fault_bits in proptest::collection::vec(any::<bool>(), 30)
    ) {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let faulty: BTreeSet<NodeId> = nodes
            .iter()
            .zip(&fault_bits)
            .filter(|(_, &f)| f)
            .map(|(&n, _)| n)
            .collect();
        let segs = partition::segments(&nodes, &faulty);
        let covered: BTreeSet<NodeId> = segs.iter().flatten().copied().collect();
        let alive: BTreeSet<NodeId> =
            nodes.iter().copied().filter(|x| !faulty.contains(x)).collect();
        prop_assert_eq!(covered.len(), segs.iter().map(Vec::len).sum::<usize>(), "duplicate nodes across segments");
        prop_assert_eq!(covered, alive);
        // Segment count is bounded by the fault count (each gap needs a fault).
        let faults = partition::fault_count(&nodes, &faulty);
        if faults > 0 {
            prop_assert!(segs.len() <= faults);
        } else {
            prop_assert_eq!(segs.len(), 1);
        }
    }

    #[test]
    fn merge_segments_is_a_permutation_of_alive(
        n in 1usize..30,
        fault_bits in proptest::collection::vec(any::<bool>(), 30)
    ) {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let faulty: BTreeSet<NodeId> = nodes
            .iter()
            .zip(&fault_bits)
            .filter(|(_, &f)| f)
            .map(|(&n, _)| n)
            .collect();
        let segs = partition::segments(&nodes, &faulty);
        let merged = partition::merge_segments(&segs);
        let direct = partition::merged_ring(&nodes, &faulty);
        let a: BTreeSet<NodeId> = merged.iter().copied().collect();
        let b: BTreeSet<NodeId> = direct.iter().copied().collect();
        prop_assert_eq!(merged.len(), a.len(), "merge produced duplicates");
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn wire_round_trip_mq_insert(records in proptest::collection::vec(arb_record(16), 0..10)) {
        let env = Envelope {
            gid: GroupId(3),
            msg: Msg::MqInsert { kind: NotifyKind::ToParent, records },
        };
        let bytes = wire::encode(&env);
        let back = wire::decode(&bytes).unwrap();
        prop_assert_eq!(back, env);
    }

    #[test]
    fn wire_round_trip_token(
        records in proptest::collection::vec(arb_record(16), 0..10),
        seq in any::<u64>(),
        holder in 0u64..100,
        hops in any::<u32>(),
    ) {
        let mut t = Token::fresh(GroupId(1), RingId(2), seq, NodeId(holder), records);
        t.hops = hops;
        let env = Envelope { gid: GroupId(1), msg: Msg::Token(t) };
        let bytes = wire::encode(&env);
        prop_assert_eq!(wire::decode(&bytes).unwrap(), env);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = wire::decode(&bytes);
    }
}
