//! Inputs and outputs of the sans-IO protocol engine.
//!
//! A [`crate::node::NodeState`] consumes [`Input`]s (message arrivals, timer
//! expiries, local mobile-host events, application requests) and emits
//! [`Output`]s (messages to send, timers to arm or cancel, application
//! deliveries). The substrate — discrete-event simulator or threaded
//! runtime — is responsible for transporting messages and firing timers.

use crate::ids::{NodeId, RingId};
use crate::member::MemberList;
use crate::message::{ChangeId, MhEvent, Msg, QueryId, QueryScope};
use crate::view::View;
use serde::{Deserialize, Serialize};

/// Timers a node may arm. Timers are keyed by their full value: arming the
/// same kind again re-schedules it, and cancelling removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TimerKind {
    /// Retransmission deadline for an in-flight token of round `seq`.
    TokenRetransmit {
        /// Round number awaiting acknowledgement.
        seq: u64,
    },
    /// Pacing timer between heartbeat rounds under the continuous policy.
    TokenKick,
    /// Suspicion timer: no token seen on the ring for too long.
    TokenLost,
    /// Periodic heartbeat emission (up and down).
    Heartbeat,
    /// Parent liveness deadline (`ParentOK` maintenance).
    ParentTimeout,
    /// Child liveness deadline (`ChildOK` maintenance), one per child ring.
    ChildTimeout {
        /// The child ring being watched.
        ring: RingId,
    },
}

impl TimerKind {
    /// Number of timer kinds (payloads aside): the size of a fixed-slot
    /// per-kind counter array.
    pub const COUNT: usize = 6;

    /// Metric names of the kinds, by [`TimerKind::index`].
    pub const NAMES: [&'static str; Self::COUNT] = [
        "token_retransmit",
        "token_kick",
        "token_lost",
        "heartbeat",
        "parent_timeout",
        "child_timeout",
    ];

    /// Dense index of this kind, ignoring its payload.
    #[inline]
    pub fn index(&self) -> usize {
        match self {
            TimerKind::TokenRetransmit { .. } => 0,
            TimerKind::TokenKick => 1,
            TimerKind::TokenLost => 2,
            TimerKind::Heartbeat => 3,
            TimerKind::ParentTimeout => 4,
            TimerKind::ChildTimeout { .. } => 5,
        }
    }
}

/// Everything a node can react to.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A message arrived from another network entity.
    Msg {
        /// Sender.
        from: NodeId,
        /// Payload.
        msg: Msg,
    },
    /// A timer armed earlier has fired.
    Timer(TimerKind),
    /// A mobile host attached to this access proxy issued an event. (The
    /// substrate may alternatively deliver this as [`Msg::FromMh`] to count
    /// the wireless hop.)
    Mh(MhEvent),
    /// The local application asks for the group membership.
    StartQuery {
        /// What to ask for.
        scope: QueryScope,
    },
    /// Substrate/operator instruction: this node should begin operating
    /// (arm initial timers, park the token if it is the leader).
    Boot,
}

/// Application-visible events delivered by the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum AppEvent {
    /// A new membership view was installed at this node.
    ViewChange {
        /// The installed view.
        view: View,
    },
    /// Changes queued at this node were agreed by the ring
    /// (Holder-Acknowledgement received, or agreement observed locally).
    Agreed {
        /// Ring in which agreement happened.
        ring: RingId,
        /// The agreed changes.
        ids: Vec<ChangeId>,
    },
    /// Result of a [`Input::StartQuery`] request.
    QueryResult {
        /// The query this answers.
        qid: QueryId,
        /// Aggregated membership.
        members: MemberList,
        /// Number of partial responses aggregated.
        responses: u32,
    },
    /// A faulty successor was excluded from the ring (local repair, §5.2).
    RingRepaired {
        /// The ring that repaired itself.
        ring: RingId,
        /// The excluded node.
        excluded: NodeId,
    },
    /// This node's ring leader changed.
    LeaderChanged {
        /// The ring.
        ring: RingId,
        /// The new leader.
        leader: NodeId,
    },
    /// `ParentOK` was cleared: the parent node went silent.
    ParentLost {
        /// The ring that lost its sponsor.
        ring: RingId,
    },
    /// The ring re-attached to a new sponsor after losing its parent.
    Reattached {
        /// The adopting node.
        parent: NodeId,
    },
    /// A mobile host was admitted through the fast handoff path (its record
    /// was already known from `ListOfNeighborMembers` / ring state).
    FastHandoff {
        /// The admitted member.
        guid: crate::ids::Guid,
    },
    /// This (previously standalone) entity was admitted into a ring and
    /// installed the transferred ring state.
    JoinedRing {
        /// The ring joined.
        ring: RingId,
    },
}

/// Everything a node can ask its substrate to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send `msg` to node `to`.
    Send {
        /// Destination.
        to: NodeId,
        /// Payload.
        msg: Msg,
    },
    /// Arm (or re-arm) a timer `after` ticks from now.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay in ticks.
        after: u64,
    },
    /// Cancel a previously armed timer (no-op if not armed).
    CancelTimer {
        /// Which timer.
        kind: TimerKind,
    },
    /// Deliver an event to the local application.
    Deliver(AppEvent),
}

impl Output {
    /// Convenience: is this a send to `to`?
    pub fn is_send_to(&self, to: NodeId) -> bool {
        matches!(self, Output::Send { to: t, .. } if *t == to)
    }

    /// Extract the sent message if this is a send.
    pub fn as_send(&self) -> Option<(NodeId, &Msg)> {
        match self {
            Output::Send { to, msg } => Some((*to, msg)),
            _ => None,
        }
    }

    /// Extract the delivered app event if this is a delivery.
    pub fn as_deliver(&self) -> Option<&AppEvent> {
        match self {
            Output::Deliver(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;
    use crate::token::Token;

    #[test]
    fn output_accessors() {
        let t = Token::fresh(GroupId(1), RingId(0), 1, NodeId(1), vec![]);
        let o = Output::Send { to: NodeId(2), msg: Msg::Token(t) };
        assert!(o.is_send_to(NodeId(2)));
        assert!(!o.is_send_to(NodeId(3)));
        assert!(o.as_send().is_some());
        assert!(o.as_deliver().is_none());

        let d = Output::Deliver(AppEvent::ParentLost { ring: RingId(1) });
        assert!(d.as_send().is_none());
        assert!(matches!(d.as_deliver(), Some(AppEvent::ParentLost { .. })));
    }

    #[test]
    fn timer_kinds_are_orderable_for_substrate_maps() {
        let mut v = [
            TimerKind::Heartbeat,
            TimerKind::TokenRetransmit { seq: 2 },
            TimerKind::TokenRetransmit { seq: 1 },
        ];
        v.sort();
        assert_eq!(v[0], TimerKind::TokenRetransmit { seq: 1 });
    }
}
