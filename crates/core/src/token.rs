//! The ring token (paper §4.2, "Data structure of Tokens").
//!
//! A token carries the group id, its current holder, and the aggregated
//! membership-change operations being agreed in the current round — the
//! paper's `GID`, `Holder` and `OP`, nothing a node on the ring does not
//! read. We extend the paper's structure with a round sequence number
//! (needed for retransmission-based fault detection), a hop count (what
//! tells a holdership grant from the holder's own round coming back) and
//! the set of nodes observed to have pending work (which lets an on-demand
//! ring hand the fresh token to "an appropriate node", Figure 3 line 22,
//! without extra probing).
//!
//! The token is forwarded, acknowledged and kept for retransmission at every
//! hop of every ring, so its size is the protocol's steady-state cost: with
//! `ops` and `pending_nodes` empty — an idle round — a `Token` owns no heap
//! memory, and decoding, cloning and dropping one allocate nothing.

use crate::ids::{GroupId, NodeId, RingId};
use crate::message::{ChangeId, ChangeRecord};
use serde::{Deserialize, Serialize};

/// The token that circulates around one logical ring: the paper's `GID`,
/// `Holder` and `OP` plus a round number, a hop count and the pending-work
/// hints. It carries no roster of the nodes it passed — no step of the
/// algorithm reads one, and a list that grows by one id per hop is paid for
/// in every frame, every retransmission copy and every acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// Group identity (paper: `GID`).
    pub gid: GroupId,
    /// The ring this token belongs to.
    pub ring: RingId,
    /// Monotonic round number, incremented every time a fresh token is
    /// prepared.
    pub seq: u64,
    /// Node identity of the holder of the token (paper: `Holder`).
    pub holder: NodeId,
    /// Aggregated operations for this round (paper: `OP`,
    /// `TypeOfAggregatedOperations`).
    pub ops: Vec<ChangeRecord>,
    /// Nodes seen during this round whose message queues were non-empty;
    /// the holder uses this to park or hand over the fresh token under the
    /// on-demand policy.
    pub pending_nodes: Vec<NodeId>,
    /// Nodes this round's token has visited, the holder's own start
    /// included. Zero marks a holdership grant: a token addressed to its
    /// `holder` that has not been round any ring.
    pub hops: u32,
}

impl Token {
    /// A fresh token for round `seq` held by `holder`, loaded with `ops`.
    pub fn fresh(
        gid: GroupId,
        ring: RingId,
        seq: u64,
        holder: NodeId,
        ops: Vec<ChangeRecord>,
    ) -> Self {
        Token { gid, ring, seq, holder, ops, pending_nodes: Vec::new(), hops: 0 }
    }

    /// Whether this round carries any operations.
    pub fn is_loaded(&self) -> bool {
        !self.ops.is_empty()
    }

    /// Ids of all changes carried this round.
    pub fn change_ids(&self) -> Vec<ChangeId> {
        self.ops.iter().map(|r| r.id).collect()
    }

    /// Record that `node` had pending MQ entries when the token passed it.
    pub fn note_pending(&mut self, node: NodeId) {
        if !self.pending_nodes.contains(&node) {
            self.pending_nodes.push(node);
        }
    }

    /// Record a visit (counted, not listed; the count saturates).
    pub fn note_visit(&mut self, _node: NodeId) {
        self.hops = self.hops.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Guid;
    use crate::message::{ChangeId, ChangeOp, ChangeRecord};

    fn tok() -> Token {
        Token::fresh(GroupId(1), RingId(0), 7, NodeId(10), vec![])
    }

    #[test]
    fn fresh_token_is_empty() {
        let t = tok();
        assert!(!t.is_loaded());
        assert!(t.change_ids().is_empty());
        assert_eq!(t.holder, NodeId(10));
        assert_eq!(t.seq, 7);
    }

    #[test]
    fn loaded_token_reports_change_ids() {
        let mut t = tok();
        t.ops.push(ChangeRecord::new(
            ChangeId { origin: NodeId(3), seq: 1 },
            NodeId(3),
            RingId(0),
            ChangeOp::MemberLeave { guid: Guid(5) },
        ));
        assert!(t.is_loaded());
        assert_eq!(t.change_ids(), vec![ChangeId { origin: NodeId(3), seq: 1 }]);
    }

    #[test]
    fn note_pending_dedups() {
        let mut t = tok();
        t.note_pending(NodeId(1));
        t.note_pending(NodeId(2));
        t.note_pending(NodeId(1));
        assert_eq!(t.pending_nodes, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn visits_are_counted_and_saturate() {
        let mut t = tok();
        assert_eq!(t.hops, 0, "a fresh token has been nowhere");
        t.note_visit(NodeId(4));
        t.note_visit(NodeId(5));
        t.note_visit(NodeId(4));
        assert_eq!(t.hops, 3, "every visit counts, repeats included");
        t.hops = u32::MAX - 1;
        t.note_visit(NodeId(6));
        t.note_visit(NodeId(7));
        assert_eq!(t.hops, u32::MAX, "the count saturates instead of wrapping to a grant");
    }
}
