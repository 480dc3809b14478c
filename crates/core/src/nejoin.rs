//! Runtime NE-Join: a standalone network entity joining an existing
//! logical ring, with ring-state transfer.
//!
//! Paper §4.3: a new access proxy first builds "an APR … to include the
//! single AP itself and make itself the ring leader"
//! ([`NodeState::standalone`]); if it later finds a ring satisfying a
//! locality criterion, it asks a contact node to admit it
//! ([`NodeState::request_join`] → [`Msg::JoinRing`]). The contact queues an
//! `NE-Join` change (so the whole ring agrees on the new roster through the
//! normal one-round algorithm) and transfers a [`RingSnapshot`] so the
//! joiner can operate immediately.

use crate::config::{ProtocolConfig, TokenPolicy};
use crate::events::{AppEvent, Output, TimerKind};
use crate::ids::{GroupId, NodeId, RingId, Tier};
use crate::member::MemberList;
use crate::message::{ChangeOp, ChangeRecord, Msg, RingSnapshot};
use crate::mq::MessageQueue;
use crate::node::NodeState;
use crate::ring::RingRoster;
use std::collections::BTreeMap;

impl NodeState {
    /// A standalone entity: a single-node ring with itself as leader (the
    /// paper's freshly built APR). `level`/`height` describe where in a
    /// hierarchy it expects to sit once attached (bottom level for an AP).
    pub fn standalone(
        cfg: ProtocolConfig,
        gid: GroupId,
        id: NodeId,
        ring: RingId,
        level: usize,
        height: usize,
    ) -> Self {
        let tier = Tier::for_level(level.min(height - 1), height);
        let mut node = NodeState {
            id,
            last_token_seq: 0,
            parent: None,
            succ: None,
            gid,
            has_token: true, // its own ring's token parks here
            ring_ok: true,
            parent_ok: false,
            token_seen_since_lost: false,
            roster: RingRoster::new(ring, tier, level, vec![id]),
            children: BTreeMap::new(),
            cfg,
            mq: MessageQueue::new(),
            inflight: None,
            stats: Default::default(),
            tier,
            level,
            height,
            parent_ring: None,
            local_members: MemberList::new(),
            ring_members: MemberList::new(),
            neighbor_members: MemberList::new(),
            level_ring_counts: vec![1; height],
            epoch: 0,
            next_change_seq: 0,
            next_query_seq: 0,
            pending_queries: BTreeMap::new(),
            parent_roster_cache: Vec::new(),
            attach_attempts: 0,
            awaiting_ack: BTreeMap::new(),
        };
        node.roster_changed();
        node
    }

    /// Ask `contact` (a member of the target ring) to admit this node.
    /// The admission and state transfer arrive asynchronously as
    /// [`Msg::RingSync`]; once installed, [`AppEvent::JoinedRing`] is
    /// delivered.
    pub fn request_join(&mut self, contact: NodeId) -> Vec<Output> {
        vec![Output::Send { to: contact, msg: Msg::JoinRing { node: self.id } }]
    }

    /// Contact side: admit `node` into this ring.
    pub(crate) fn on_join_ring(&mut self, node: NodeId, outs: &mut Vec<Output>) {
        if self.roster.contains(node) {
            // Duplicate request (e.g. retry): re-send the snapshot only.
            outs.push(Output::Send {
                to: node,
                msg: Msg::RingSync(Box::new(self.ring_snapshot())),
            });
            return;
        }
        // Queue the NE-Join for ring-wide agreement. Every node applies it
        // as "append to roster", so the optimistic snapshot below (current
        // roster + joiner) matches the agreed outcome.
        let id = self.next_change_id();
        let rec = ChangeRecord::new(
            id,
            self.id,
            self.ring_id(),
            ChangeOp::NeJoin { node, ring: self.ring_id() },
        );
        self.queue_record(rec, outs);
        let mut snapshot = self.ring_snapshot();
        if !snapshot.roster.contains(&node) {
            snapshot.roster.push(node);
        }
        outs.push(Output::Send { to: node, msg: Msg::RingSync(Box::new(snapshot)) });
    }

    /// Joiner side: install the transferred ring state.
    pub(crate) fn on_ring_sync(&mut self, snapshot: RingSnapshot, outs: &mut Vec<Output>) {
        if !snapshot.roster.contains(&self.id) {
            return; // not meant for us
        }
        if self.ring_id() == snapshot.ring && self.roster.len() > 1 {
            return; // already installed (duplicate sync)
        }
        self.level = snapshot.level as usize;
        self.height = snapshot.height as usize;
        self.tier = Tier::for_level(self.level.min(self.height - 1), self.height);
        self.roster =
            RingRoster::new(snapshot.ring, self.tier, self.level, snapshot.roster.clone());
        self.roster_changed();
        self.ring_members = snapshot.members;
        self.epoch = snapshot.epoch;
        // Accept the round currently in flight (it carries our NE-Join);
        // anything older is stale.
        self.last_token_seq = snapshot.last_token_seq.saturating_sub(1);
        self.parent = snapshot.parent;
        self.parent_ring = snapshot.parent_ring;
        self.parent_ok = snapshot.parent.is_some();
        self.level_ring_counts = snapshot.level_ring_counts.iter().map(|&c| c as usize).collect();
        // The joined ring's token lives elsewhere; our standalone token is
        // retired.
        self.has_token = false;
        self.inflight = None;
        self.ring_ok = true;
        outs.push(Output::Deliver(AppEvent::JoinedRing { ring: snapshot.ring }));
        if self.cfg.token_policy == TokenPolicy::Continuous {
            outs.push(Output::SetTimer {
                kind: TimerKind::Heartbeat,
                after: self.cfg.heartbeat_interval,
            });
            outs.push(Output::SetTimer {
                kind: TimerKind::TokenLost,
                after: self.cfg.token_lost_timeout,
            });
        }
    }

    /// Voluntarily leave the current ring (NE-Leave): queue the change and
    /// stop participating once it is agreed. Returns the outputs to act on.
    pub fn request_leave(&mut self) -> Vec<Output> {
        let mut outs = Vec::new();
        let id = self.next_change_id();
        let rec = ChangeRecord::new(
            id,
            self.id,
            self.ring_id(),
            ChangeOp::NeLeave { node: self.id, ring: self.ring_id() },
        );
        self.queue_record(rec, &mut outs);
        outs
    }

    /// Membership-Merge (§6): propose absorbing this node's entire ring
    /// into the ring led by `other_leader`. Typically called on the leader
    /// of the smaller partition once connectivity is restored.
    pub fn propose_merge(&mut self, other_leader: NodeId) -> Vec<Output> {
        vec![Output::Send {
            to: other_leader,
            msg: Msg::MergeRings {
                ring: self.ring_id(),
                roster: self.roster.nodes().to_vec(),
                members: self.ring_members.clone(),
            },
        }]
    }

    /// Absorbing side of Membership-Merge: queue NE-Join changes for every
    /// absorbed node (ring-wide agreement through the normal one-round
    /// algorithm), import the absorbed membership as member changes, and
    /// transfer the merged ring state to each newcomer.
    pub(crate) fn on_merge_rings(
        &mut self,
        _ring: RingId,
        roster: Vec<NodeId>,
        members: MemberList,
        outs: &mut Vec<Output>,
    ) {
        let newcomers: Vec<NodeId> =
            roster.iter().copied().filter(|n| !self.roster.contains(*n)).collect();
        for &node in &newcomers {
            let id = self.next_change_id();
            let rec = ChangeRecord::new(
                id,
                self.id,
                self.ring_id(),
                ChangeOp::NeJoin { node, ring: self.ring_id() },
            );
            self.queue_record(rec, outs);
        }
        for m in members.iter() {
            let id = self.next_change_id();
            let rec =
                ChangeRecord::new(id, self.id, self.ring_id(), ChangeOp::MemberJoin { info: *m });
            self.queue_record(rec, outs);
        }
        // Optimistic snapshot with all newcomers appended (matching the
        // deterministic NE-Join application order).
        let mut snapshot = self.ring_snapshot();
        for &node in &newcomers {
            if !snapshot.roster.contains(&node) {
                snapshot.roster.push(node);
            }
        }
        snapshot.members.merge_from(&members);
        for &node in &newcomers {
            outs.push(Output::Send { to: node, msg: Msg::RingSync(Box::new(snapshot.clone())) });
        }
    }

    fn ring_snapshot(&self) -> RingSnapshot {
        RingSnapshot {
            ring: self.ring_id(),
            level: self.level as u8,
            height: self.height as u8,
            roster: self.roster.nodes().to_vec(),
            members: self.ring_members.clone(),
            epoch: self.epoch,
            last_token_seq: self.last_token_seq,
            parent: self.parent,
            parent_ring: self.parent_ring,
            level_ring_counts: self.level_ring_counts.iter().map(|&c| c as u32).collect(),
        }
    }
}
