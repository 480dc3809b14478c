//! Compact binary wire format for inter-entity messages.
//!
//! The live runtime (`rgb-net`) frames every message as a length-prefixed
//! [`Envelope`] encoded with this module. The format is a simple
//! tag-and-fixed-width scheme (all integers little-endian, collections
//! prefixed with a `u32` count) — no self-description, both ends run the
//! same build.

use crate::error::{Result, RgbError};
use crate::ids::{GroupId, Guid, Luid, NodeId, RingId};
use crate::member::{MemberInfo, MemberList, MemberStatus};
use crate::message::{
    ChangeId, ChangeOp, ChangeRecord, Envelope, MhEvent, Msg, NotifyKind, QueryId, QueryScope,
    RingSnapshot, StatusSummary,
};
use crate::token::Token;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Conservative wire-size estimate for one message, so [`encode_into`] can
/// reserve the whole buffer up front: the encoder is on the simulator's
/// per-send hot path, where growth reallocations for token/membership
/// payloads are measurable. Over-estimation only wastes a few transient
/// bytes; under-estimation merely costs the realloc it normally would.
fn size_hint(msg: &Msg) -> usize {
    // Upper bounds per element: a ChangeRecord is a ChangeId (16) plus the
    // largest ChangeOp (~34); a MemberInfo is 25 bytes.
    const RECORD: usize = 56;
    const MEMBER: usize = 25;
    32 + match msg {
        Msg::Token(t) => RECORD * t.ops.len() + 8 * t.pending_nodes.len() + 32,
        Msg::MqInsert { records, .. } => RECORD * records.len(),
        Msg::HolderAck { change_ids, .. } => 16 * change_ids.len(),
        Msg::HeartbeatUp(s) | Msg::HeartbeatDown(s) => 8 * s.roster.len() + 16,
        Msg::QueryResponse { members, .. } => MEMBER * members.len() + 16,
        Msg::RingSync(s) => {
            MEMBER * s.members.len() + 8 * s.roster.len() + 4 * s.level_ring_counts.len() + 64
        }
        Msg::MergeRings { roster, members, .. } => MEMBER * members.len() + 8 * roster.len(),
        _ => 96,
    }
}

/// Encode an envelope into a fresh buffer.
pub fn encode(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::new();
    encode_into(env, &mut buf);
    buf.freeze()
}

/// Encode an envelope into `buf`, replacing whatever it held: the bytes are
/// exactly those of [`encode`], the allocation is the caller's to reuse.
pub fn encode_into(env: &Envelope, buf: &mut BytesMut) {
    buf.clear();
    buf.reserve(size_hint(&env.msg));
    buf.put_u32_le(env.gid.0);
    put_msg(buf, &env.msg);
}

/// Decode an envelope from a buffer produced by [`encode`].
pub fn decode(mut buf: &[u8]) -> Result<Envelope> {
    let gid = GroupId(get_u32(&mut buf)?);
    let msg = get_msg(&mut buf)?;
    if !buf.is_empty() {
        return Err(RgbError::Decode("trailing bytes"));
    }
    Ok(Envelope { gid, msg })
}

// ---------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(RgbError::Decode("eof: u8"));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(RgbError::Decode("eof: u32"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(RgbError::Decode("eof: u64"));
    }
    Ok(buf.get_u64_le())
}

fn get_bool(buf: &mut &[u8]) -> Result<bool> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(RgbError::Decode("bad bool")),
    }
}

fn put_opt_node(buf: &mut BytesMut, v: Option<NodeId>) {
    match v {
        Some(n) => {
            buf.put_u8(1);
            buf.put_u64_le(n.0);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_node(buf: &mut &[u8]) -> Result<Option<NodeId>> {
    Ok(match get_u8(buf)? {
        0 => None,
        1 => Some(NodeId(get_u64(buf)?)),
        _ => return Err(RgbError::Decode("bad option tag")),
    })
}

fn put_opt_ring(buf: &mut BytesMut, v: Option<RingId>) {
    match v {
        Some(r) => {
            buf.put_u8(1);
            buf.put_u32_le(r.0);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_ring(buf: &mut &[u8]) -> Result<Option<RingId>> {
    Ok(match get_u8(buf)? {
        0 => None,
        1 => Some(RingId(get_u32(buf)?)),
        _ => return Err(RgbError::Decode("bad option tag")),
    })
}

fn put_nodes(buf: &mut BytesMut, v: &[NodeId]) {
    buf.put_u32_le(v.len() as u32);
    for n in v {
        buf.put_u64_le(n.0);
    }
}

/// Read a `u32` element count and check it against what is left of the
/// frame: a list of `n` elements of at least `min_bytes` each cannot be
/// longer than `remaining / min_bytes`, so a count that passes is safe to
/// pre-allocate for.
fn get_count(buf: &mut &[u8], min_bytes: usize, too_long: &'static str) -> Result<usize> {
    let n = get_u32(buf)? as usize;
    if n > buf.remaining() / min_bytes {
        return Err(RgbError::Decode(too_long));
    }
    Ok(n)
}

/// Read a counted list of elements of at least `min_bytes` each, sized
/// once from the checked count.
fn get_list<T>(
    buf: &mut &[u8],
    min_bytes: usize,
    too_long: &'static str,
    get: impl Fn(&mut &[u8]) -> Result<T>,
) -> Result<Vec<T>> {
    let n = get_count(buf, min_bytes, too_long)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(get(buf)?);
    }
    Ok(items)
}

fn get_nodes(buf: &mut &[u8]) -> Result<Vec<NodeId>> {
    get_list(buf, 8, "node list too long", |buf| Ok(NodeId(get_u64(buf)?)))
}

// ---------------------------------------------------------------------
// domain types
// ---------------------------------------------------------------------

fn put_member_info(buf: &mut BytesMut, m: &MemberInfo) {
    buf.put_u64_le(m.guid.0);
    buf.put_u64_le(m.luid.0);
    buf.put_u64_le(m.ap.0);
    buf.put_u8(match m.status {
        MemberStatus::Operational => 0,
        MemberStatus::Disconnected => 1,
        MemberStatus::Failed => 2,
    });
}

fn get_member_info(buf: &mut &[u8]) -> Result<MemberInfo> {
    let guid = Guid(get_u64(buf)?);
    let luid = Luid(get_u64(buf)?);
    let ap = NodeId(get_u64(buf)?);
    let status = match get_u8(buf)? {
        0 => MemberStatus::Operational,
        1 => MemberStatus::Disconnected,
        2 => MemberStatus::Failed,
        _ => return Err(RgbError::Decode("bad member status")),
    };
    Ok(MemberInfo { guid, luid, ap, status })
}

fn put_member_list(buf: &mut BytesMut, l: &MemberList) {
    buf.put_u32_le(l.len() as u32);
    for m in l.iter() {
        put_member_info(buf, m);
    }
}

fn get_member_list(buf: &mut &[u8]) -> Result<MemberList> {
    let n = get_count(buf, 25, "member list too long")?;
    let mut l = MemberList::new();
    for _ in 0..n {
        l.upsert(get_member_info(buf)?);
    }
    Ok(l)
}

fn put_change_id(buf: &mut BytesMut, id: ChangeId) {
    buf.put_u64_le(id.origin.0);
    buf.put_u64_le(id.seq);
}

fn get_change_id(buf: &mut &[u8]) -> Result<ChangeId> {
    Ok(ChangeId { origin: NodeId(get_u64(buf)?), seq: get_u64(buf)? })
}

fn put_change_op(buf: &mut BytesMut, op: &ChangeOp) {
    match op {
        ChangeOp::MemberJoin { info } => {
            buf.put_u8(0);
            put_member_info(buf, info);
        }
        ChangeOp::MemberLeave { guid } => {
            buf.put_u8(1);
            buf.put_u64_le(guid.0);
        }
        ChangeOp::MemberHandoff { guid, luid, from, to } => {
            buf.put_u8(2);
            buf.put_u64_le(guid.0);
            buf.put_u64_le(luid.0);
            put_opt_node(buf, *from);
            buf.put_u64_le(to.0);
        }
        ChangeOp::MemberFailure { guid } => {
            buf.put_u8(3);
            buf.put_u64_le(guid.0);
        }
        ChangeOp::NeJoin { node, ring } => {
            buf.put_u8(4);
            buf.put_u64_le(node.0);
            buf.put_u32_le(ring.0);
        }
        ChangeOp::NeLeave { node, ring } => {
            buf.put_u8(5);
            buf.put_u64_le(node.0);
            buf.put_u32_le(ring.0);
        }
        ChangeOp::NeFailure { node, ring } => {
            buf.put_u8(6);
            buf.put_u64_le(node.0);
            buf.put_u32_le(ring.0);
        }
        ChangeOp::MemberDisconnect { guid } => {
            buf.put_u8(8);
            buf.put_u64_le(guid.0);
        }
        ChangeOp::LeaderChange { ring, leader } => {
            buf.put_u8(7);
            buf.put_u32_le(ring.0);
            buf.put_u64_le(leader.0);
        }
    }
}

fn get_change_op(buf: &mut &[u8]) -> Result<ChangeOp> {
    Ok(match get_u8(buf)? {
        0 => ChangeOp::MemberJoin { info: get_member_info(buf)? },
        1 => ChangeOp::MemberLeave { guid: Guid(get_u64(buf)?) },
        2 => ChangeOp::MemberHandoff {
            guid: Guid(get_u64(buf)?),
            luid: Luid(get_u64(buf)?),
            from: get_opt_node(buf)?,
            to: NodeId(get_u64(buf)?),
        },
        3 => ChangeOp::MemberFailure { guid: Guid(get_u64(buf)?) },
        4 => ChangeOp::NeJoin { node: NodeId(get_u64(buf)?), ring: RingId(get_u32(buf)?) },
        5 => ChangeOp::NeLeave { node: NodeId(get_u64(buf)?), ring: RingId(get_u32(buf)?) },
        6 => ChangeOp::NeFailure { node: NodeId(get_u64(buf)?), ring: RingId(get_u32(buf)?) },
        7 => ChangeOp::LeaderChange { ring: RingId(get_u32(buf)?), leader: NodeId(get_u64(buf)?) },
        8 => ChangeOp::MemberDisconnect { guid: Guid(get_u64(buf)?) },
        _ => return Err(RgbError::Decode("bad change op tag")),
    })
}

fn put_record(buf: &mut BytesMut, r: &ChangeRecord) {
    put_change_id(buf, r.id);
    buf.put_u64_le(r.origin.0);
    buf.put_u32_le(r.origin_ring.0);
    put_opt_ring(buf, r.from_child_ring);
    buf.put_u8(r.descending as u8);
    put_change_op(buf, &r.op);
}

fn get_record(buf: &mut &[u8]) -> Result<ChangeRecord> {
    Ok(ChangeRecord {
        id: get_change_id(buf)?,
        origin: NodeId(get_u64(buf)?),
        origin_ring: RingId(get_u32(buf)?),
        from_child_ring: get_opt_ring(buf)?,
        descending: get_bool(buf)?,
        op: get_change_op(buf)?,
    })
}

fn put_records(buf: &mut BytesMut, rs: &[ChangeRecord]) {
    buf.put_u32_le(rs.len() as u32);
    for r in rs {
        put_record(buf, r);
    }
}

/// Smallest encoded [`ChangeRecord`]: change id (16), origin (8), origin
/// ring (4), absent child ring (1), descending flag (1) and the shortest
/// [`ChangeOp`] (tag + one `u64`, 9).
const MIN_RECORD_BYTES: usize = 39;

fn get_records(buf: &mut &[u8]) -> Result<Vec<ChangeRecord>> {
    get_list(buf, MIN_RECORD_BYTES, "record list too long", get_record)
}

/// Token layout: `gid u32 | ring u32 | seq u64 | holder u64 | ops
/// (counted records) | pending_nodes (counted u64s) | hops u32` — the
/// paper's `GID`, `Holder` and `OP` (§4.2) plus the round number, the
/// pending-work hints and a hop count. An idle token is 36 bytes whatever
/// the ring size: the visit is counted, not listed, because the only thing
/// a receiver asks of it is "has this token been anywhere yet".
fn put_token(buf: &mut BytesMut, t: &Token) {
    buf.put_u32_le(t.gid.0);
    buf.put_u32_le(t.ring.0);
    buf.put_u64_le(t.seq);
    buf.put_u64_le(t.holder.0);
    put_records(buf, &t.ops);
    put_nodes(buf, &t.pending_nodes);
    buf.put_u32_le(t.hops);
}

fn get_token(buf: &mut &[u8]) -> Result<Token> {
    Ok(Token {
        gid: GroupId(get_u32(buf)?),
        ring: RingId(get_u32(buf)?),
        seq: get_u64(buf)?,
        holder: NodeId(get_u64(buf)?),
        ops: get_records(buf)?,
        pending_nodes: get_nodes(buf)?,
        hops: get_u32(buf)?,
    })
}

fn put_summary(buf: &mut BytesMut, s: &StatusSummary) {
    buf.put_u32_le(s.ring.0);
    buf.put_u8(s.ring_ok as u8);
    buf.put_u64_le(s.leader.0);
    put_nodes(buf, &s.roster);
}

fn get_summary(buf: &mut &[u8]) -> Result<StatusSummary> {
    Ok(StatusSummary {
        ring: RingId(get_u32(buf)?),
        ring_ok: get_bool(buf)?,
        leader: NodeId(get_u64(buf)?),
        roster: get_nodes(buf)?,
    })
}

fn put_msg(buf: &mut BytesMut, msg: &Msg) {
    match msg {
        Msg::Token(t) => {
            buf.put_u8(0);
            put_token(buf, t);
        }
        Msg::TokenAck { ring, seq } => {
            buf.put_u8(1);
            buf.put_u32_le(ring.0);
            buf.put_u64_le(*seq);
        }
        Msg::MqInsert { kind, records } => {
            buf.put_u8(2);
            buf.put_u8(match kind {
                NotifyKind::Local => 0,
                NotifyKind::ToParent => 1,
                NotifyKind::ToChild => 2,
            });
            put_records(buf, records);
        }
        Msg::HolderAck { ring, seq, change_ids } => {
            buf.put_u8(3);
            buf.put_u32_le(ring.0);
            buf.put_u64_le(*seq);
            buf.put_u32_le(change_ids.len() as u32);
            for id in change_ids {
                put_change_id(buf, *id);
            }
        }
        Msg::HeartbeatUp(s) => {
            buf.put_u8(4);
            put_summary(buf, s);
        }
        Msg::HeartbeatDown(s) => {
            buf.put_u8(5);
            put_summary(buf, s);
        }
        Msg::AttachChild { ring, leader } => {
            buf.put_u8(6);
            buf.put_u32_le(ring.0);
            buf.put_u64_le(leader.0);
        }
        Msg::AttachAccepted { parent, parent_ring } => {
            buf.put_u8(7);
            buf.put_u64_le(parent.0);
            buf.put_u32_le(parent_ring.0);
        }
        Msg::QueryRequest { qid, reply_to, scope, fanout_level, spread } => {
            buf.put_u8(8);
            buf.put_u64_le(qid.origin.0);
            buf.put_u64_le(qid.seq);
            buf.put_u64_le(reply_to.0);
            match scope {
                QueryScope::Global => buf.put_u8(0),
                QueryScope::Ring(r) => {
                    buf.put_u8(1);
                    buf.put_u32_le(r.0);
                }
            }
            match fanout_level {
                None => buf.put_u8(255),
                Some(l) => buf.put_u8(*l),
            }
            buf.put_u8(*spread as u8);
        }
        Msg::QueryResponse { qid, members, expected } => {
            buf.put_u8(9);
            buf.put_u64_le(qid.origin.0);
            buf.put_u64_le(qid.seq);
            put_member_list(buf, members);
            buf.put_u32_le(*expected);
        }
        Msg::JoinRing { node } => {
            buf.put_u8(11);
            buf.put_u64_le(node.0);
        }
        Msg::RingSync(snapshot) => {
            buf.put_u8(12);
            buf.put_u32_le(snapshot.ring.0);
            buf.put_u8(snapshot.level);
            buf.put_u8(snapshot.height);
            put_nodes(buf, &snapshot.roster);
            put_member_list(buf, &snapshot.members);
            buf.put_u64_le(snapshot.epoch);
            buf.put_u64_le(snapshot.last_token_seq);
            put_opt_node(buf, snapshot.parent);
            put_opt_ring(buf, snapshot.parent_ring);
            buf.put_u32_le(snapshot.level_ring_counts.len() as u32);
            for &c in &snapshot.level_ring_counts {
                buf.put_u32_le(c);
            }
        }
        Msg::MergeRings { ring, roster, members } => {
            buf.put_u8(13);
            buf.put_u32_le(ring.0);
            put_nodes(buf, roster);
            put_member_list(buf, members);
        }
        Msg::FromMh { event } => {
            buf.put_u8(10);
            match event {
                MhEvent::Join { guid, luid } => {
                    buf.put_u8(0);
                    buf.put_u64_le(guid.0);
                    buf.put_u64_le(luid.0);
                }
                MhEvent::Leave { guid } => {
                    buf.put_u8(1);
                    buf.put_u64_le(guid.0);
                }
                MhEvent::HandoffIn { guid, luid, from } => {
                    buf.put_u8(2);
                    buf.put_u64_le(guid.0);
                    buf.put_u64_le(luid.0);
                    put_opt_node(buf, *from);
                }
                MhEvent::FailureDetected { guid } => {
                    buf.put_u8(3);
                    buf.put_u64_le(guid.0);
                }
                MhEvent::Disconnect { guid } => {
                    buf.put_u8(4);
                    buf.put_u64_le(guid.0);
                }
                MhEvent::Resume { guid, luid } => {
                    buf.put_u8(5);
                    buf.put_u64_le(guid.0);
                    buf.put_u64_le(luid.0);
                }
            }
        }
    }
}

fn get_msg(buf: &mut &[u8]) -> Result<Msg> {
    Ok(match get_u8(buf)? {
        0 => Msg::Token(get_token(buf)?),
        1 => Msg::TokenAck { ring: RingId(get_u32(buf)?), seq: get_u64(buf)? },
        2 => {
            let kind = match get_u8(buf)? {
                0 => NotifyKind::Local,
                1 => NotifyKind::ToParent,
                2 => NotifyKind::ToChild,
                _ => return Err(RgbError::Decode("bad notify kind")),
            };
            Msg::MqInsert { kind, records: get_records(buf)? }
        }
        3 => {
            let ring = RingId(get_u32(buf)?);
            let seq = get_u64(buf)?;
            let change_ids = get_list(buf, 16, "ack list too long", get_change_id)?;
            Msg::HolderAck { ring, seq, change_ids }
        }
        4 => Msg::HeartbeatUp(get_summary(buf)?),
        5 => Msg::HeartbeatDown(get_summary(buf)?),
        6 => Msg::AttachChild { ring: RingId(get_u32(buf)?), leader: NodeId(get_u64(buf)?) },
        7 => Msg::AttachAccepted {
            parent: NodeId(get_u64(buf)?),
            parent_ring: RingId(get_u32(buf)?),
        },
        8 => {
            let qid = QueryId { origin: NodeId(get_u64(buf)?), seq: get_u64(buf)? };
            let reply_to = NodeId(get_u64(buf)?);
            let scope = match get_u8(buf)? {
                0 => QueryScope::Global,
                1 => QueryScope::Ring(RingId(get_u32(buf)?)),
                _ => return Err(RgbError::Decode("bad query scope")),
            };
            let fanout_level = match get_u8(buf)? {
                255 => None,
                l => Some(l),
            };
            let spread = get_bool(buf)?;
            Msg::QueryRequest { qid, reply_to, scope, fanout_level, spread }
        }
        9 => {
            let qid = QueryId { origin: NodeId(get_u64(buf)?), seq: get_u64(buf)? };
            let members = get_member_list(buf)?;
            let expected = get_u32(buf)?;
            Msg::QueryResponse { qid, members, expected }
        }
        10 => {
            let event = match get_u8(buf)? {
                0 => MhEvent::Join { guid: Guid(get_u64(buf)?), luid: Luid(get_u64(buf)?) },
                1 => MhEvent::Leave { guid: Guid(get_u64(buf)?) },
                2 => MhEvent::HandoffIn {
                    guid: Guid(get_u64(buf)?),
                    luid: Luid(get_u64(buf)?),
                    from: get_opt_node(buf)?,
                },
                3 => MhEvent::FailureDetected { guid: Guid(get_u64(buf)?) },
                4 => MhEvent::Disconnect { guid: Guid(get_u64(buf)?) },
                5 => MhEvent::Resume { guid: Guid(get_u64(buf)?), luid: Luid(get_u64(buf)?) },
                _ => return Err(RgbError::Decode("bad mh event tag")),
            };
            Msg::FromMh { event }
        }
        11 => Msg::JoinRing { node: NodeId(get_u64(buf)?) },
        12 => {
            let ring = RingId(get_u32(buf)?);
            let level = get_u8(buf)?;
            let height = get_u8(buf)?;
            let roster = get_nodes(buf)?;
            let members = get_member_list(buf)?;
            let epoch = get_u64(buf)?;
            let last_token_seq = get_u64(buf)?;
            let parent = get_opt_node(buf)?;
            let parent_ring = get_opt_ring(buf)?;
            let level_ring_counts = get_list(buf, 4, "ring-count list too long", get_u32)?;
            Msg::RingSync(Box::new(RingSnapshot {
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
            }))
        }
        13 => Msg::MergeRings {
            ring: RingId(get_u32(buf)?),
            roster: get_nodes(buf)?,
            members: get_member_list(buf)?,
        },
        _ => return Err(RgbError::Decode("bad msg tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let env = Envelope { gid: GroupId(7), msg };
        let bytes = encode(&env);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, env);
    }

    #[test]
    fn round_trip_token() {
        let mut t = Token::fresh(GroupId(7), RingId(3), 42, NodeId(5), vec![]);
        t.ops.push(ChangeRecord::new(
            ChangeId { origin: NodeId(1), seq: 9 },
            NodeId(1),
            RingId(3),
            ChangeOp::MemberJoin { info: MemberInfo::operational(Guid(11), Luid(22), NodeId(1)) },
        ));
        t.note_pending(NodeId(2));
        t.note_visit(NodeId(5));
        round_trip(Msg::Token(t));
    }

    #[test]
    fn round_trip_all_change_ops() {
        let ops = vec![
            ChangeOp::MemberJoin { info: MemberInfo::operational(Guid(1), Luid(2), NodeId(3)) },
            ChangeOp::MemberLeave { guid: Guid(4) },
            ChangeOp::MemberHandoff {
                guid: Guid(5),
                luid: Luid(6),
                from: Some(NodeId(7)),
                to: NodeId(8),
            },
            ChangeOp::MemberHandoff { guid: Guid(5), luid: Luid(6), from: None, to: NodeId(8) },
            ChangeOp::MemberFailure { guid: Guid(9) },
            ChangeOp::MemberDisconnect { guid: Guid(10) },
            ChangeOp::NeJoin { node: NodeId(10), ring: RingId(1) },
            ChangeOp::NeLeave { node: NodeId(11), ring: RingId(2) },
            ChangeOp::NeFailure { node: NodeId(12), ring: RingId(3) },
            ChangeOp::LeaderChange { ring: RingId(4), leader: NodeId(13) },
        ];
        for op in ops {
            let mut rec =
                ChangeRecord::new(ChangeId { origin: NodeId(1), seq: 0 }, NodeId(1), RingId(0), op);
            rec.descending = true;
            rec.from_child_ring = Some(RingId(9));
            round_trip(Msg::MqInsert { kind: NotifyKind::ToChild, records: vec![rec] });
        }
    }

    #[test]
    fn round_trip_acks_and_heartbeats() {
        round_trip(Msg::TokenAck { ring: RingId(1), seq: 2 });
        round_trip(Msg::HolderAck {
            ring: RingId(1),
            seq: 3,
            change_ids: vec![ChangeId { origin: NodeId(4), seq: 5 }],
        });
        let s = StatusSummary {
            ring: RingId(2),
            ring_ok: true,
            leader: NodeId(9),
            roster: vec![NodeId(9), NodeId(10)],
        };
        round_trip(Msg::HeartbeatUp(s.clone()));
        round_trip(Msg::HeartbeatDown(s));
        round_trip(Msg::AttachChild { ring: RingId(5), leader: NodeId(6) });
        round_trip(Msg::AttachAccepted { parent: NodeId(7), parent_ring: RingId(8) });
    }

    #[test]
    fn round_trip_queries() {
        round_trip(Msg::QueryRequest {
            qid: QueryId { origin: NodeId(1), seq: 2 },
            reply_to: NodeId(1),
            scope: QueryScope::Global,
            fanout_level: None,
            spread: false,
        });
        round_trip(Msg::QueryRequest {
            qid: QueryId { origin: NodeId(1), seq: 2 },
            reply_to: NodeId(3),
            scope: QueryScope::Ring(RingId(4)),
            fanout_level: Some(2),
            spread: true,
        });
        let mut members = MemberList::new();
        members.upsert(MemberInfo::operational(Guid(1), Luid(2), NodeId(3)));
        round_trip(Msg::QueryResponse {
            qid: QueryId { origin: NodeId(1), seq: 2 },
            members,
            expected: 9,
        });
    }

    #[test]
    fn round_trip_join_and_sync() {
        round_trip(Msg::JoinRing { node: NodeId(42) });
        let mut members = MemberList::new();
        members.upsert(MemberInfo::operational(Guid(1), Luid(2), NodeId(3)));
        round_trip(Msg::RingSync(Box::new(RingSnapshot {
            ring: RingId(4),
            level: 1,
            height: 3,
            roster: vec![NodeId(5), NodeId(6)],
            members,
            epoch: 17,
            last_token_seq: 23,
            parent: Some(NodeId(2)),
            parent_ring: Some(RingId(0)),
            level_ring_counts: vec![1, 3, 9],
        })));
    }

    #[test]
    fn round_trip_merge_rings() {
        let mut members = MemberList::new();
        members.upsert(MemberInfo::operational(Guid(4), Luid(5), NodeId(6)));
        round_trip(Msg::MergeRings {
            ring: RingId(9),
            roster: vec![NodeId(7), NodeId(8)],
            members,
        });
    }

    #[test]
    fn round_trip_mh_events() {
        for event in [
            MhEvent::Join { guid: Guid(1), luid: Luid(2) },
            MhEvent::Leave { guid: Guid(3) },
            MhEvent::HandoffIn { guid: Guid(4), luid: Luid(5), from: Some(NodeId(6)) },
            MhEvent::HandoffIn { guid: Guid(4), luid: Luid(5), from: None },
            MhEvent::FailureDetected { guid: Guid(7) },
            MhEvent::Disconnect { guid: Guid(8) },
            MhEvent::Resume { guid: Guid(9), luid: Luid(10) },
        ] {
            round_trip(Msg::FromMh { event });
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[1, 2, 3]).is_err());
        // valid gid, bogus tag
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u8(200);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let env = Envelope { gid: GroupId(1), msg: Msg::TokenAck { ring: RingId(1), seq: 2 } };
        let mut bytes = encode(&env).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_absurd_lengths() {
        // Every counted list, as (bytes up to its count field, smallest
        // encoded element). An envelope is gid (u32) + msg tag (u8) + body.
        fn prefix(tag: u8, body: impl FnOnce(&mut BytesMut)) -> BytesMut {
            let mut buf = BytesMut::new();
            buf.put_u32_le(1);
            buf.put_u8(tag);
            body(&mut buf);
            buf
        }
        fn token_head(buf: &mut BytesMut) {
            buf.put_u32_le(1); // gid
            buf.put_u32_le(0); // ring
            buf.put_u64_le(1); // seq
            buf.put_u64_le(0); // holder
        }
        fn summary_head(buf: &mut BytesMut) {
            buf.put_u32_le(0); // ring
            buf.put_u8(1); // ring_ok
            buf.put_u64_le(0); // leader
        }
        fn sync_head(buf: &mut BytesMut) {
            buf.put_u32_le(0); // ring
            buf.put_u8(0); // level
            buf.put_u8(1); // height
        }
        let lists: Vec<(&str, BytesMut, usize)> = vec![
            (
                "MqInsert records",
                prefix(2, |b| b.put_u8(0)), // Local
                MIN_RECORD_BYTES,
            ),
            ("Token ops", prefix(0, token_head), MIN_RECORD_BYTES),
            (
                "Token pending",
                prefix(0, |b| {
                    token_head(b);
                    b.put_u32_le(0); // ops
                }),
                8,
            ),
            (
                "HolderAck ids",
                prefix(3, |b| {
                    b.put_u32_le(0); // ring
                    b.put_u64_le(1); // seq
                }),
                16,
            ),
            ("HeartbeatUp roster", prefix(4, summary_head), 8),
            ("HeartbeatDown roster", prefix(5, summary_head), 8),
            (
                "QueryResponse members",
                prefix(9, |b| {
                    b.put_u64_le(0); // qid.origin
                    b.put_u64_le(0); // qid.seq
                }),
                25,
            ),
            ("RingSync roster", prefix(12, sync_head), 8),
            (
                "RingSync members",
                prefix(12, |b| {
                    sync_head(b);
                    b.put_u32_le(0); // roster
                }),
                25,
            ),
            (
                "RingSync level counts",
                prefix(12, |b| {
                    sync_head(b);
                    b.put_u32_le(0); // roster
                    b.put_u32_le(0); // members
                    b.put_u64_le(0); // epoch
                    b.put_u64_le(0); // last_token_seq
                    b.put_u8(0); // no parent
                    b.put_u8(0); // no parent ring
                }),
                4,
            ),
            ("MergeRings roster", prefix(13, |b| b.put_u32_le(0)), 8),
            (
                "MergeRings members",
                prefix(13, |b| {
                    b.put_u32_le(0); // ring
                    b.put_u32_le(0); // roster
                }),
                25,
            ),
        ];
        let too_long =
            |buf: &[u8]| matches!(decode(buf), Err(RgbError::Decode(m)) if m.ends_with("too long"));
        for (what, head, min_bytes) in lists {
            // A count of four billion with nothing behind it.
            let mut buf = head.clone();
            buf.put_u32_le(u32::MAX);
            assert!(too_long(&buf), "{what}: u32::MAX elements accepted");
            // A count one element beyond what the bytes behind it could
            // hold: it must be refused before anything is allocated for it.
            let mut buf = head;
            buf.put_u32_le(8);
            buf.put_slice(&vec![0u8; 8 * min_bytes - 1]);
            assert!(too_long(&buf), "{what}: 8 elements in {} bytes accepted", 8 * min_bytes - 1);
        }
    }

    #[test]
    fn truncated_token_hops_fail_cleanly() {
        let mut t = Token::fresh(GroupId(1), RingId(0), 1, NodeId(0), vec![]);
        t.note_visit(NodeId(0));
        let bytes = encode(&Envelope { gid: GroupId(1), msg: Msg::Token(t) });
        // The hop count is the token's last field: every cut inside it (and
        // the cut that removes it whole) is an end-of-frame error, never a
        // panic and never a token with a made-up count.
        for cut in 1..=4 {
            let short = &bytes[..bytes.len() - cut];
            assert!(
                matches!(decode(short), Err(RgbError::Decode("eof: u32"))),
                "{cut} byte(s) short of a full hop count was accepted"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn min_record_bytes_is_the_smallest_encoded_record() {
        let rec = ChangeRecord::new(
            ChangeId { origin: NodeId(1), seq: 0 },
            NodeId(1),
            RingId(0),
            ChangeOp::MemberLeave { guid: Guid(4) },
        );
        let mut buf = BytesMut::new();
        put_record(&mut buf, &rec);
        assert_eq!(buf.len(), MIN_RECORD_BYTES);
    }
}
