//! Property test: every [`Msg`] variant round-trips through
//! [`wire::encode`]/[`wire::decode`] **byte-identically** — decode(encode)
//! returns the same envelope, and re-encoding that envelope reproduces the
//! exact original byte string.
//!
//! This guards the substrate layer's codec path: since the simulator now
//! routes every delivery through `rgb_core::wire` (like the live runtime
//! always did), a codec asymmetry would corrupt *both* execution worlds.

use bytes::BytesMut;
use proptest::prelude::*;
use rgb_core::prelude::*;
use rgb_core::wire;

// ---------------------------------------------------------------------
// strategies: arbitrary values for every message ingredient
// ---------------------------------------------------------------------

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u64..1_000).prop_map(NodeId)
}

fn arb_ring() -> impl Strategy<Value = RingId> {
    (0u32..64).prop_map(RingId)
}

fn arb_member_info() -> impl Strategy<Value = MemberInfo> {
    (0u64..64, any::<u16>(), 0u64..32, 0u8..3).prop_map(|(guid, luid, ap, status)| {
        let mut info = MemberInfo::operational(Guid(guid), Luid(luid as u64), NodeId(ap));
        info.status = match status {
            0 => MemberStatus::Operational,
            1 => MemberStatus::Disconnected,
            _ => MemberStatus::Failed,
        };
        info
    })
}

fn arb_member_list() -> impl Strategy<Value = MemberList> {
    proptest::collection::vec(arb_member_info(), 0..8).prop_map(|infos| {
        let mut list = MemberList::new();
        for info in infos {
            list.upsert(info);
        }
        list
    })
}

fn arb_change_id() -> impl Strategy<Value = ChangeId> {
    (arb_node(), any::<u64>()).prop_map(|(origin, seq)| ChangeId { origin, seq })
}

fn arb_change_op() -> impl Strategy<Value = ChangeOp> {
    prop_oneof![
        arb_member_info().prop_map(|info| ChangeOp::MemberJoin { info }),
        (0u64..64).prop_map(|g| ChangeOp::MemberLeave { guid: Guid(g) }),
        (0u64..64, any::<u16>(), proptest::option::of(arb_node()), arb_node()).prop_map(
            |(g, l, from, to)| ChangeOp::MemberHandoff {
                guid: Guid(g),
                luid: Luid(l as u64),
                from,
                to,
            }
        ),
        (0u64..64).prop_map(|g| ChangeOp::MemberFailure { guid: Guid(g) }),
        (0u64..64).prop_map(|g| ChangeOp::MemberDisconnect { guid: Guid(g) }),
        (arb_node(), arb_ring()).prop_map(|(node, ring)| ChangeOp::NeJoin { node, ring }),
        (arb_node(), arb_ring()).prop_map(|(node, ring)| ChangeOp::NeLeave { node, ring }),
        (arb_node(), arb_ring()).prop_map(|(node, ring)| ChangeOp::NeFailure { node, ring }),
        (arb_ring(), arb_node()).prop_map(|(ring, leader)| ChangeOp::LeaderChange { ring, leader }),
    ]
}

fn arb_record() -> impl Strategy<Value = ChangeRecord> {
    (
        arb_change_id(),
        arb_node(),
        arb_ring(),
        proptest::option::of(arb_ring()),
        any::<bool>(),
        arb_change_op(),
    )
        .prop_map(|(id, origin, origin_ring, from_child_ring, descending, op)| ChangeRecord {
            id,
            origin,
            origin_ring,
            from_child_ring,
            descending,
            op,
        })
}

fn arb_records() -> impl Strategy<Value = Vec<ChangeRecord>> {
    proptest::collection::vec(arb_record(), 0..6)
}

fn arb_token() -> impl Strategy<Value = Token> {
    (
        (0u32..16, arb_ring(), any::<u64>(), arb_node()),
        arb_records(),
        proptest::collection::vec(arb_node(), 0..5),
        // A grant (0), ordinary ring sizes, and the saturated count.
        prop_oneof![0u32..64, any::<u32>(), Just(u32::MAX)],
    )
        .prop_map(|((gid, ring, seq, holder), ops, pending, hops)| {
            let mut t = Token::fresh(GroupId(gid), ring, seq, holder, ops);
            for n in pending {
                t.note_pending(n);
            }
            t.hops = hops;
            t
        })
}

fn arb_summary() -> impl Strategy<Value = StatusSummary> {
    (arb_ring(), any::<bool>(), arb_node(), proptest::collection::vec(arb_node(), 0..6))
        .prop_map(|(ring, ring_ok, leader, roster)| StatusSummary { ring, ring_ok, leader, roster })
}

fn arb_notify_kind() -> impl Strategy<Value = NotifyKind> {
    prop_oneof![Just(NotifyKind::Local), Just(NotifyKind::ToParent), Just(NotifyKind::ToChild),]
}

fn arb_query_scope() -> impl Strategy<Value = QueryScope> {
    prop_oneof![Just(QueryScope::Global), arb_ring().prop_map(QueryScope::Ring)]
}

fn arb_mh_event() -> impl Strategy<Value = MhEvent> {
    prop_oneof![
        (0u64..64, any::<u16>())
            .prop_map(|(g, l)| MhEvent::Join { guid: Guid(g), luid: Luid(l as u64) }),
        (0u64..64).prop_map(|g| MhEvent::Leave { guid: Guid(g) }),
        (0u64..64, any::<u16>(), proptest::option::of(arb_node())).prop_map(|(g, l, from)| {
            MhEvent::HandoffIn { guid: Guid(g), luid: Luid(l as u64), from }
        }),
        (0u64..64).prop_map(|g| MhEvent::FailureDetected { guid: Guid(g) }),
        (0u64..64).prop_map(|g| MhEvent::Disconnect { guid: Guid(g) }),
        (0u64..64, any::<u16>())
            .prop_map(|(g, l)| MhEvent::Resume { guid: Guid(g), luid: Luid(l as u64) }),
    ]
}

fn arb_ring_snapshot() -> impl Strategy<Value = RingSnapshot> {
    (
        arb_ring(),
        0u8..6,
        1u8..7,
        proptest::collection::vec(arb_node(), 0..6),
        arb_member_list(),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(arb_node()),
            proptest::option::of(arb_ring()),
            proptest::collection::vec(0u32..512, 0..6),
        ),
    )
        .prop_map(|(ring, level, height, roster, members, rest)| {
            let (epoch, last_token_seq, parent, parent_ring, level_ring_counts) = rest;
            RingSnapshot {
                ring,
                level,
                height,
                roster,
                members,
                epoch,
                last_token_seq,
                parent,
                parent_ring,
                level_ring_counts,
            }
        })
}

/// Every [`Msg`] variant.
fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_token().prop_map(Msg::Token),
        (arb_ring(), any::<u64>()).prop_map(|(ring, seq)| Msg::TokenAck { ring, seq }),
        (arb_notify_kind(), arb_records())
            .prop_map(|(kind, records)| Msg::MqInsert { kind, records }),
        (arb_ring(), any::<u64>(), proptest::collection::vec(arb_change_id(), 0..6))
            .prop_map(|(ring, seq, change_ids)| Msg::HolderAck { ring, seq, change_ids }),
        arb_summary().prop_map(Msg::HeartbeatUp),
        arb_summary().prop_map(Msg::HeartbeatDown),
        (arb_ring(), arb_node()).prop_map(|(ring, leader)| Msg::AttachChild { ring, leader }),
        (arb_node(), arb_ring())
            .prop_map(|(parent, parent_ring)| Msg::AttachAccepted { parent, parent_ring }),
        (
            arb_change_id(),
            arb_node(),
            arb_query_scope(),
            proptest::option::of(0u8..250),
            any::<bool>()
        )
            .prop_map(|(id, reply_to, scope, fanout_level, spread)| Msg::QueryRequest {
                qid: QueryId { origin: id.origin, seq: id.seq },
                reply_to,
                scope,
                fanout_level,
                spread,
            }),
        (arb_change_id(), arb_member_list(), any::<u32>()).prop_map(|(id, members, expected)| {
            Msg::QueryResponse {
                qid: QueryId { origin: id.origin, seq: id.seq },
                members,
                expected,
            }
        }),
        arb_node().prop_map(|node| Msg::JoinRing { node }),
        (arb_ring(), proptest::collection::vec(arb_node(), 0..6), arb_member_list())
            .prop_map(|(ring, roster, members)| Msg::MergeRings { ring, roster, members }),
        arb_ring_snapshot().prop_map(|s| Msg::RingSync(Box::new(s))),
        arb_mh_event().prop_map(|event| Msg::FromMh { event }),
    ]
}

proptest! {
    /// decode(encode(env)) == env, and encode(decode(encode(env))) is the
    /// *same byte string* — no lossy normalisation hides in the codec.
    #[test]
    fn every_msg_round_trips_byte_identically(gid in 0u32..16, msg in arb_msg()) {
        let env = Envelope { gid: GroupId(gid), msg };
        let bytes = wire::encode(&env);
        let back = wire::decode(&bytes).expect("encoded envelope must decode");
        prop_assert_eq!(&back, &env, "decoded envelope differs");
        let re_encoded = wire::encode(&back);
        prop_assert_eq!(
            re_encoded.as_ref(),
            bytes.as_ref(),
            "re-encoding is not byte-identical"
        );
    }

    /// `encode_into` a dirty buffer — one that held a longer frame, as a
    /// pooled buffer does — writes exactly the bytes `encode` returns, and
    /// does so again after the freeze → `try_into_mut` cycle the engines
    /// put a buffer through.
    #[test]
    fn encode_into_a_dirty_buffer_equals_encode(
        gid in 0u32..16,
        msg in arb_msg(),
        next in arb_msg(),
        extra in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let env = Envelope { gid: GroupId(gid), msg };
        let fresh = wire::encode(&env);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&fresh);
        buf.extend_from_slice(&extra);
        wire::encode_into(&env, &mut buf);
        prop_assert_eq!(buf.as_ref(), fresh.as_ref(), "stale bytes leaked into the frame");
        let mut buf = buf.freeze().try_into_mut().expect("sole handle");
        let env = Envelope { gid: GroupId(gid), msg: next };
        wire::encode_into(&env, &mut buf);
        prop_assert_eq!(buf.as_ref(), wire::encode(&env).as_ref(), "reused buffer differs");
    }
}
