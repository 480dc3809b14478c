//! The One-Round Token Passing Membership algorithm (paper §4.3, Figure 3)
//! and the surrounding machinery: token forwarding with retransmission-based
//! fault detection (§5.2), holder rotation, Notification-to-Parent/Child
//! propagation, Holder-Acknowledgement, heartbeats and re-attachment.
//!
//! Everything here is an `impl` block on [`NodeState`]; the entry point is
//! [`NodeState::handle`].

use crate::config::TokenPolicy;
use crate::events::{AppEvent, Input, Output, TimerKind};
use crate::ids::{NodeId, RingId};
use crate::member::MemberList;
use crate::message::{ChangeOp, ChangeRecord, Msg, NotifyKind, StatusSummary};
use crate::node::{ChildLink, Inflight, NodeState};
use crate::token::Token;
use crate::view::{View, ViewId};

impl NodeState {
    /// Process one input, producing the outputs the substrate must act on.
    ///
    /// This is the single entry point of the sans-IO engine; it never blocks
    /// and never performs IO.
    pub fn handle(&mut self, input: Input) -> Vec<Output> {
        let mut outs = Vec::new();
        self.handle_into(input, &mut outs);
        outs
    }

    /// Reusable-buffer variant of [`NodeState::handle`]: appends this
    /// input's outputs to `outs` instead of allocating a fresh vector.
    ///
    /// Hot loops keep one [`crate::substrate::OutputSink`] alive and pass it
    /// to every input, draining it through
    /// [`crate::substrate::apply_outputs`] between calls; after the buffer
    /// reaches its working size no per-input allocation remains.
    pub fn handle_into(&mut self, input: Input, outs: &mut Vec<Output>) {
        match input {
            Input::Boot => self.boot(outs),
            Input::Msg { from, msg } => self.on_msg(from, msg, outs),
            Input::Timer(kind) => self.on_timer(kind, outs),
            Input::Mh(event) => self.on_mh(event, outs),
            Input::StartQuery { scope } => self.start_query(scope, outs),
        }
    }

    fn boot(&mut self, outs: &mut Vec<Output>) {
        if self.is_leader() {
            self.has_token = true;
        }
        if self.cfg.token_policy == TokenPolicy::Continuous {
            if self.is_leader() {
                outs.push(Output::SetTimer {
                    kind: TimerKind::TokenKick,
                    after: self.cfg.token_interval,
                });
            }
            outs.push(Output::SetTimer {
                kind: TimerKind::Heartbeat,
                after: self.cfg.heartbeat_interval,
            });
            outs.push(Output::SetTimer {
                kind: TimerKind::TokenLost,
                after: self.cfg.token_lost_timeout,
            });
            if self.is_leader() && self.parent.is_some() {
                outs.push(Output::SetTimer {
                    kind: TimerKind::ParentTimeout,
                    after: self.cfg.parent_timeout,
                });
            }
            let child_rings: Vec<RingId> = self.children.keys().copied().collect();
            for ring in child_rings {
                outs.push(Output::SetTimer {
                    kind: TimerKind::ChildTimeout { ring },
                    after: self.cfg.child_timeout,
                });
            }
        }
    }

    fn on_msg(&mut self, from: NodeId, msg: Msg, outs: &mut Vec<Output>) {
        match msg {
            Msg::Token(token) => self.on_token(from, token, outs),
            Msg::TokenAck { ring, seq } => self.on_token_ack(ring, seq, outs),
            Msg::MqInsert { kind, records } => self.on_mq_insert(from, kind, records, outs),
            Msg::HolderAck { ring, seq: _, change_ids } => {
                self.on_holder_ack(ring, change_ids, outs)
            }
            Msg::HeartbeatUp(summary) => self.on_heartbeat_up(from, summary, outs),
            Msg::HeartbeatDown(summary) => self.on_heartbeat_down(from, summary, outs),
            Msg::AttachChild { ring, leader } => self.on_attach_child(ring, leader, outs),
            Msg::AttachAccepted { parent, parent_ring } => {
                self.on_attach_accepted(parent, parent_ring, outs)
            }
            Msg::QueryRequest { qid, reply_to, scope, fanout_level, spread } => {
                self.on_query_request(qid, reply_to, scope, fanout_level, spread, outs)
            }
            Msg::QueryResponse { qid, members, expected } => {
                self.on_query_response(qid, members, expected, outs)
            }
            Msg::JoinRing { node } => self.on_join_ring(node, outs),
            Msg::MergeRings { ring, roster, members } => {
                self.on_merge_rings(ring, roster, members, outs)
            }
            Msg::RingSync(snapshot) => self.on_ring_sync(*snapshot, outs),
            Msg::FromMh { event } => self.on_mh(event, outs),
        }
    }

    fn on_timer(&mut self, kind: TimerKind, outs: &mut Vec<Output>) {
        match kind {
            TimerKind::TokenRetransmit { seq } => self.on_retransmit_deadline(seq, outs),
            TimerKind::TokenKick => self.on_token_kick(outs),
            TimerKind::TokenLost => self.on_token_lost(outs),
            TimerKind::Heartbeat => self.on_heartbeat_tick(outs),
            TimerKind::ParentTimeout => self.on_parent_timeout(outs),
            TimerKind::ChildTimeout { ring } => self.on_child_timeout(ring, outs),
        }
    }

    // ------------------------------------------------------------------
    // Queuing membership changes
    // ------------------------------------------------------------------

    /// Route a freshly generated change record: queue it locally (and kick a
    /// round if we hold the parked token), or — under the on-demand policy,
    /// where rounds are leader-driven — relay it to the ring leader.
    pub(crate) fn queue_record(&mut self, rec: ChangeRecord, outs: &mut Vec<Output>) {
        if rec.origin == self.id {
            self.awaiting_ack.insert(rec.id, ());
        }
        let relay_to_leader = self.cfg.token_policy == TokenPolicy::OnDemand
            && !self.is_leader()
            && self.leader().is_some();
        if relay_to_leader {
            let leader = self.leader().expect("checked above");
            outs.push(Output::Send {
                to: leader,
                msg: Msg::MqInsert { kind: NotifyKind::Local, records: vec![rec] },
            });
        } else {
            self.mq.push(rec, self.cfg.aggregate_mq);
            self.maybe_start_round(outs);
        }
    }

    fn on_mq_insert(
        &mut self,
        _from: NodeId,
        kind: NotifyKind,
        records: Vec<ChangeRecord>,
        outs: &mut Vec<Output>,
    ) {
        // Under the on-demand policy rounds are leader-driven: a non-leader
        // receiving notifications relays them onward to the current leader.
        if self.cfg.token_policy == TokenPolicy::OnDemand && !self.is_leader() {
            if let Some(leader) = self.leader() {
                if leader != self.id {
                    outs.push(Output::Send { to: leader, msg: Msg::MqInsert { kind, records } });
                    return;
                }
            }
        }
        for rec in records {
            if rec.origin == self.id {
                self.awaiting_ack.insert(rec.id, ());
            }
            self.mq.push(rec, self.cfg.aggregate_mq);
        }
        self.maybe_start_round(outs);
    }

    fn maybe_start_round(&mut self, outs: &mut Vec<Output>) {
        if self.has_token && self.inflight.is_none() && !self.mq.is_empty() {
            match self.cfg.token_policy {
                TokenPolicy::OnDemand => self.start_round(outs),
                // Continuous rounds are paced by the TokenKick timer.
                TokenPolicy::Continuous => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Rounds
    // ------------------------------------------------------------------

    /// Prepare a fresh token from the local MQ and start a round
    /// (Figure 3 line 22: "Prepare a fresh Token at an appropriate node").
    pub(crate) fn start_round(&mut self, outs: &mut Vec<Output>) {
        loop {
            let ops = self.mq.drain(self.cfg.max_ops_per_token);
            let seq = self.last_token_seq + 1;
            self.last_token_seq = seq;
            let mut token = Token::fresh(self.gid, self.ring_id(), seq, self.id, ops);
            token.note_visit(self.id);
            self.stats.rounds_started += 1;
            self.execute_records(&token.ops, outs);
            if self.roster.len() <= 1 {
                // Single-node ring: the round completes immediately.
                self.finish_round(&token, outs);
                let again = self.cfg.token_policy == TokenPolicy::OnDemand && !self.mq.is_empty();
                if again {
                    continue;
                }
                break;
            }
            self.has_token = false;
            let target = self.next().expect("self on roster");
            self.forward_token(token, target, outs);
            break;
        }
    }

    /// Send the token to `target`, arming the retransmission machinery.
    fn forward_token(&mut self, token: Token, target: NodeId, outs: &mut Vec<Output>) {
        let seq = token.seq;
        outs.push(Output::Send { to: target, msg: Msg::Token(token.clone()) });
        outs.push(Output::SetTimer {
            kind: TimerKind::TokenRetransmit { seq },
            after: self.cfg.token_retransmit_timeout,
        });
        self.inflight = Some(Inflight { token, target, attempts: 0 });
        self.stats.tokens_forwarded += 1;
    }

    fn on_token(&mut self, from: NodeId, mut token: Token, outs: &mut Vec<Output>) {
        if token.ring != self.ring_id() || token.gid != self.gid {
            return;
        }
        // Always acknowledge forward progress to the sender.
        outs.push(Output::Send {
            to: from,
            msg: Msg::TokenAck { ring: token.ring, seq: token.seq },
        });
        self.token_seen_since_lost = true;
        if self.cfg.token_policy == TokenPolicy::Continuous {
            outs.push(Output::SetTimer {
                kind: TimerKind::TokenLost,
                after: self.cfg.token_lost_timeout,
            });
        }
        if token.holder == self.id {
            if token.hops == 0 {
                // Holdership grant after a completed round elsewhere.
                if token.seq <= self.last_token_seq {
                    return; // duplicate grant
                }
                self.last_token_seq = token.seq;
                self.has_token = true;
                self.ring_ok = true;
                match self.cfg.token_policy {
                    TokenPolicy::Continuous => outs.push(Output::SetTimer {
                        kind: TimerKind::TokenKick,
                        after: self.cfg.token_interval,
                    }),
                    TokenPolicy::OnDemand => self.maybe_start_round(outs),
                }
            } else {
                // The round we started has come back: agreement reached.
                if token.seq < self.last_token_seq {
                    return; // stale
                }
                if let Some(inf) = &self.inflight {
                    if inf.token.seq == token.seq {
                        outs.push(Output::CancelTimer {
                            kind: TimerKind::TokenRetransmit { seq: token.seq },
                        });
                        self.inflight = None;
                    }
                }
                self.ring_ok = true;
                self.finish_round(&token, outs);
                match self.cfg.token_policy {
                    TokenPolicy::OnDemand => {
                        self.has_token = true;
                        if !self.mq.is_empty() {
                            self.start_round(outs);
                        }
                    }
                    TokenPolicy::Continuous => self.rotate_or_keep(&token, outs),
                }
            }
            return;
        }
        // A visiting token.
        if token.seq <= self.last_token_seq {
            return; // retransmitted duplicate we already processed
        }
        self.last_token_seq = token.seq;
        self.ring_ok = true;
        // "Execute Token.OP on CurNode" (Figure 3 line 08).
        self.execute_records(&token.ops, outs);
        token.note_visit(self.id);
        if !self.mq.is_empty() {
            token.note_pending(self.id);
        }
        let target = self.next().unwrap_or(token.holder);
        self.forward_token(token, target, outs);
    }

    fn on_token_ack(&mut self, ring: RingId, seq: u64, outs: &mut Vec<Output>) {
        if ring != self.ring_id() {
            return;
        }
        if let Some(inf) = &self.inflight {
            if inf.token.seq == seq {
                outs.push(Output::CancelTimer { kind: TimerKind::TokenRetransmit { seq } });
                self.inflight = None;
            }
        }
    }

    /// Round completion at the holder: send Holder-Acknowledgements
    /// (Figure 3 lines 17–20) and account for the agreed round.
    fn finish_round(&mut self, token: &Token, outs: &mut Vec<Output>) {
        self.stats.rounds_completed += 1;
        if token.ops.is_empty() {
            return;
        }
        // Group agreed changes by originator.
        let mut by_origin: Vec<(NodeId, Vec<crate::message::ChangeId>)> = Vec::new();
        for rec in &token.ops {
            match by_origin.iter_mut().find(|(o, _)| *o == rec.origin) {
                Some((_, v)) => v.push(rec.id),
                None => by_origin.push((rec.origin, vec![rec.id])),
            }
        }
        for (origin, ids) in by_origin {
            if origin == self.id {
                for id in &ids {
                    self.awaiting_ack.remove(id);
                }
                outs.push(Output::Deliver(AppEvent::Agreed { ring: self.ring_id(), ids }));
            } else {
                outs.push(Output::Send {
                    to: origin,
                    msg: Msg::HolderAck { ring: self.ring_id(), seq: token.seq, change_ids: ids },
                });
            }
        }
    }

    /// Continuous-policy rotation (design decision D2): pass holdership to
    /// `Next`, or keep it when rotation is disabled.
    fn rotate_or_keep(&mut self, token: &Token, outs: &mut Vec<Output>) {
        let next = self.next().unwrap_or(self.id);
        if !self.cfg.rotate_holder || next == self.id {
            self.has_token = true;
            outs.push(Output::SetTimer {
                kind: TimerKind::TokenKick,
                after: self.cfg.token_interval,
            });
            return;
        }
        let seq = self.last_token_seq + 1;
        self.last_token_seq = seq;
        let grant = Token::fresh(self.gid, self.ring_id(), seq, next, Vec::new());
        let _ = token;
        self.has_token = false;
        self.forward_token(grant, next, outs);
    }

    fn on_token_kick(&mut self, outs: &mut Vec<Output>) {
        if self.has_token && self.inflight.is_none() {
            self.start_round(outs);
        }
    }

    fn on_token_lost(&mut self, outs: &mut Vec<Output>) {
        if self.cfg.token_policy != TokenPolicy::Continuous {
            return;
        }
        outs.push(Output::SetTimer {
            kind: TimerKind::TokenLost,
            after: self.cfg.token_lost_timeout,
        });
        if self.token_seen_since_lost {
            // The ring made progress recently; start watching for a fresh
            // silence window.
            self.token_seen_since_lost = false;
            if self.is_leader() && !self.has_token {
                self.regenerate_token(outs);
            }
            return;
        }
        // Second consecutive silent expiry: the ring is stuck. If we are
        // the leader, regenerate. Otherwise the leader itself is the prime
        // suspect (it crashed while holding the parked token): exclude it
        // and let the deterministic re-election pick the next leader, who
        // regenerates.
        self.ring_ok = false;
        if self.is_leader() {
            if !self.has_token {
                self.regenerate_token(outs);
            } else {
                // Parked with a token but silent: kick a round ourselves.
                self.start_round(outs);
            }
            return;
        }
        if let Some(leader) = self.leader() {
            self.exclude_node(leader, outs);
        }
        if self.is_leader() {
            self.regenerate_token(outs);
        }
    }

    /// Mint a replacement token after loss. The sequence number jumps ahead
    /// so the regenerated token outranks any straggler from the old round.
    fn regenerate_token(&mut self, outs: &mut Vec<Output>) {
        if let Some(inf) = self.inflight.take() {
            outs.push(Output::CancelTimer {
                kind: TimerKind::TokenRetransmit { seq: inf.token.seq },
            });
        }
        self.last_token_seq += 16;
        self.has_token = true;
        self.start_round(outs);
    }

    // ------------------------------------------------------------------
    // Fault detection and local repair (§5.2)
    // ------------------------------------------------------------------

    fn on_retransmit_deadline(&mut self, seq: u64, outs: &mut Vec<Output>) {
        let Some(inf) = &mut self.inflight else { return };
        if inf.token.seq != seq {
            return;
        }
        if inf.attempts < self.cfg.token_retransmit_limit {
            inf.attempts += 1;
            self.stats.retransmits += 1;
            let msg = Msg::Token(inf.token.clone());
            let target = inf.target;
            outs.push(Output::Send { to: target, msg });
            outs.push(Output::SetTimer {
                kind: TimerKind::TokenRetransmit { seq },
                after: self.cfg.token_retransmit_timeout,
            });
            return;
        }
        // Retransmissions exhausted: the successor is faulty. Exclude it
        // locally and continue the round past it.
        let Inflight { mut token, target: bad, .. } = self.inflight.take().expect("inflight");
        self.exclude_node(bad, outs);
        if token.holder == bad {
            // The round's holder is the faulty node: adopt the round so the
            // remaining ops still reach agreement.
            token.holder = self.id;
        }
        if self.roster.len() <= 1 {
            // Alone now; whatever the token carried is trivially agreed.
            token.holder = self.id;
            self.has_token = true;
            self.finish_round(&token, outs);
            if self.cfg.token_policy == TokenPolicy::Continuous {
                outs.push(Output::SetTimer {
                    kind: TimerKind::TokenKick,
                    after: self.cfg.token_interval,
                });
            } else if !self.mq.is_empty() {
                self.start_round(outs);
            }
            return;
        }
        let target = self.next().expect("non-empty roster");
        self.forward_token(token, target, outs);
    }

    /// Local repair: drop `bad` from the roster, queue an NE-Failure change
    /// so the rest of the ring (and the hierarchy) agrees on the exclusion.
    fn exclude_node(&mut self, bad: NodeId, outs: &mut Vec<Output>) {
        let old_leader = self.roster.leader();
        if !self.roster.remove(bad) {
            return;
        }
        self.roster_changed();
        self.stats.exclusions += 1;
        outs.push(Output::Deliver(AppEvent::RingRepaired { ring: self.ring_id(), excluded: bad }));
        self.mq.retain_not_about_node(bad);
        let id = self.next_change_id();
        let rec = ChangeRecord::new(
            id,
            self.id,
            self.ring_id(),
            ChangeOp::NeFailure { node: bad, ring: self.ring_id() },
        );
        // Queue directly: the exclusion must ride the very next round.
        self.awaiting_ack.insert(rec.id, ());
        self.mq.push(rec, self.cfg.aggregate_mq);
        self.after_roster_change(old_leader, outs);
    }

    /// Re-establish leader-dependent state after any roster change.
    fn after_roster_change(&mut self, old_leader: Option<NodeId>, outs: &mut Vec<Output>) {
        let new_leader = self.roster.leader();
        if new_leader != old_leader {
            if let Some(leader) = new_leader {
                outs.push(Output::Deliver(AppEvent::LeaderChanged {
                    ring: self.ring_id(),
                    leader,
                }));
                if leader == self.id
                    && self.cfg.token_policy == TokenPolicy::Continuous
                    && self.parent.is_some()
                {
                    outs.push(Output::SetTimer {
                        kind: TimerKind::ParentTimeout,
                        after: self.cfg.parent_timeout,
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Executing token operations
    // ------------------------------------------------------------------

    /// "Execute Token.OP on CurNode": apply every record to the local lists
    /// and emit the Notification-to-Parent / Notification-to-Child messages
    /// of Figure 3 lines 10–16.
    pub(crate) fn execute_records(&mut self, records: &[ChangeRecord], outs: &mut Vec<Output>) {
        if records.is_empty() {
            return;
        }
        let mut ups: Vec<ChangeRecord> = Vec::new();
        let mut downs: Vec<(NodeId, Vec<ChangeRecord>)> = Vec::new();
        for rec in records {
            self.stats.ops_executed += 1;
            self.apply_record(rec, outs);
            // Notification-to-Parent: only the ring leader relays upward.
            if let Some(parent) = self.parent {
                if self.is_leader() && self.parent_ok && !rec.descending && rec.op.propagates_up() {
                    ups.push(rec.for_parent_ring(parent, self.ring_id()));
                }
            }
            // Notification-to-Child: every sponsor relays downward, except
            // back into the subtree the record came from.
            if rec.op.propagates_up() {
                for (&cr, link) in &self.children {
                    if !link.ok || Some(cr) == rec.from_child_ring {
                        continue;
                    }
                    let down = rec.for_child_ring(link.leader);
                    match downs.iter_mut().find(|(l, _)| *l == link.leader) {
                        Some((_, v)) => v.push(down),
                        None => downs.push((link.leader, vec![down])),
                    }
                }
            }
        }
        if !ups.is_empty() {
            let parent = self.parent.expect("ups only collected with a parent");
            outs.push(Output::Send {
                to: parent,
                msg: Msg::MqInsert { kind: NotifyKind::ToParent, records: ups },
            });
        }
        for (leader, records) in downs {
            outs.push(Output::Send {
                to: leader,
                msg: Msg::MqInsert { kind: NotifyKind::ToChild, records },
            });
        }
        // One loaded round = one view epoch, identically at every node.
        self.epoch += 1;
        self.stats.views_installed += 1;
        if self.is_store_level() {
            let view = View::from_list(
                ViewId { ring: self.ring_id(), epoch: self.epoch },
                &self.ring_members,
            );
            outs.push(Output::Deliver(AppEvent::ViewChange { view }));
        }
    }

    fn apply_record(&mut self, rec: &ChangeRecord, outs: &mut Vec<Output>) {
        match &rec.op {
            ChangeOp::MemberJoin { .. }
            | ChangeOp::MemberLeave { .. }
            | ChangeOp::MemberHandoff { .. }
            | ChangeOp::MemberFailure { .. }
            | ChangeOp::MemberDisconnect { .. } => {
                if self.is_store_level() && !rec.descending {
                    apply_member_op(&mut self.ring_members, &rec.op);
                }
                if self.is_bottom() && !rec.descending {
                    self.update_neighbor_list(&rec.op);
                }
            }
            ChangeOp::NeJoin { node, ring } => {
                if *ring == self.ring_id() {
                    let old_leader = self.roster.leader();
                    self.roster.insert_after(*node, None);
                    self.roster_changed();
                    self.after_roster_change(old_leader, outs);
                }
            }
            ChangeOp::NeLeave { node, ring } | ChangeOp::NeFailure { node, ring } => {
                if *ring == self.ring_id() && *node != self.id {
                    let old_leader = self.roster.leader();
                    self.roster.remove(*node);
                    self.roster_changed();
                    self.after_roster_change(old_leader, outs);
                }
            }
            ChangeOp::LeaderChange { ring, leader } => {
                if let Some(link) = self.children.get_mut(ring) {
                    link.leader = *leader;
                }
            }
        }
    }

    /// Maintain `ListOfNeighborMembers`: records concerning the proxies that
    /// are this node's ring neighbours (fast-handoff working set).
    fn update_neighbor_list(&mut self, op: &ChangeOp) {
        let prev = self.prev();
        let next = self.next();
        let is_neighbor = |ap: NodeId| Some(ap) == prev || Some(ap) == next;
        match op {
            ChangeOp::MemberJoin { info } if is_neighbor(info.ap) => {
                self.neighbor_members.upsert(*info);
            }
            ChangeOp::MemberHandoff { guid, luid, to, .. } => {
                if is_neighbor(*to) {
                    self.neighbor_members.apply_handoff(*guid, *luid, *to);
                } else {
                    self.neighbor_members.remove(*guid);
                }
            }
            ChangeOp::MemberLeave { guid } | ChangeOp::MemberFailure { guid } => {
                self.neighbor_members.remove(*guid);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Acknowledgements
    // ------------------------------------------------------------------

    fn on_holder_ack(
        &mut self,
        ring: RingId,
        change_ids: Vec<crate::message::ChangeId>,
        outs: &mut Vec<Output>,
    ) {
        for id in &change_ids {
            self.awaiting_ack.remove(id);
        }
        outs.push(Output::Deliver(AppEvent::Agreed { ring, ids: change_ids }));
    }

    // ------------------------------------------------------------------
    // Heartbeats, ParentOK/ChildOK, re-attachment
    // ------------------------------------------------------------------

    fn status_summary(&self) -> StatusSummary {
        StatusSummary {
            ring: self.ring_id(),
            ring_ok: self.ring_ok,
            leader: self.leader().unwrap_or(self.id),
            roster: self.roster.nodes().to_vec(),
        }
    }

    fn on_heartbeat_tick(&mut self, outs: &mut Vec<Output>) {
        outs.push(Output::SetTimer {
            kind: TimerKind::Heartbeat,
            after: self.cfg.heartbeat_interval,
        });
        // Most nodes lead no ring and sponsor none: their tick is the re-arm
        // alone, so the summary (a roster copy) is built only for a recipient.
        let parent = self.parent.filter(|_| self.is_leader());
        if parent.is_none() && self.children.is_empty() {
            return;
        }
        let summary = self.status_summary();
        if let Some(parent) = parent {
            if self.children.is_empty() {
                outs.push(Output::Send { to: parent, msg: Msg::HeartbeatUp(summary) });
                return;
            }
            outs.push(Output::Send { to: parent, msg: Msg::HeartbeatUp(summary.clone()) });
        }
        for link in self.children.values() {
            outs.push(Output::Send { to: link.leader, msg: Msg::HeartbeatDown(summary.clone()) });
        }
    }

    fn on_heartbeat_up(&mut self, _from: NodeId, summary: StatusSummary, outs: &mut Vec<Output>) {
        if let Some(link) = self.children.get_mut(&summary.ring) {
            link.leader = summary.leader;
            link.ok = summary.ring_ok;
            outs.push(Output::SetTimer {
                kind: TimerKind::ChildTimeout { ring: summary.ring },
                after: self.cfg.child_timeout,
            });
        }
    }

    fn on_heartbeat_down(&mut self, from: NodeId, summary: StatusSummary, outs: &mut Vec<Output>) {
        self.parent = Some(from);
        self.parent_ring = Some(summary.ring);
        self.parent_ok = summary.ring_ok;
        self.parent_roster_cache = summary.roster;
        self.attach_attempts = 0;
        if self.is_leader() {
            outs.push(Output::SetTimer {
                kind: TimerKind::ParentTimeout,
                after: self.cfg.parent_timeout,
            });
        }
    }

    fn on_parent_timeout(&mut self, outs: &mut Vec<Output>) {
        if !self.is_leader() || self.parent.is_none() {
            return;
        }
        self.parent_ok = false;
        outs.push(Output::Deliver(AppEvent::ParentLost { ring: self.ring_id() }));
        // Try to re-attach to another node of the (cached) parent ring.
        let old_parent = self.parent;
        let candidates: Vec<NodeId> =
            self.parent_roster_cache.iter().copied().filter(|&n| Some(n) != old_parent).collect();
        if !candidates.is_empty() {
            let pick = candidates[self.attach_attempts % candidates.len()];
            self.attach_attempts += 1;
            outs.push(Output::Send {
                to: pick,
                msg: Msg::AttachChild { ring: self.ring_id(), leader: self.id },
            });
        }
        outs.push(Output::SetTimer {
            kind: TimerKind::ParentTimeout,
            after: self.cfg.parent_timeout,
        });
    }

    fn on_attach_child(&mut self, ring: RingId, leader: NodeId, outs: &mut Vec<Output>) {
        self.children.insert(ring, ChildLink { leader, ok: true });
        outs.push(Output::Send {
            to: leader,
            msg: Msg::AttachAccepted { parent: self.id, parent_ring: self.ring_id() },
        });
        outs.push(Output::SetTimer {
            kind: TimerKind::ChildTimeout { ring },
            after: self.cfg.child_timeout,
        });
    }

    fn on_attach_accepted(&mut self, parent: NodeId, parent_ring: RingId, outs: &mut Vec<Output>) {
        self.parent = Some(parent);
        self.parent_ring = Some(parent_ring);
        self.parent_ok = true;
        self.attach_attempts = 0;
        outs.push(Output::Deliver(AppEvent::Reattached { parent }));
        if self.is_leader() && self.cfg.token_policy == TokenPolicy::Continuous {
            outs.push(Output::SetTimer {
                kind: TimerKind::ParentTimeout,
                after: self.cfg.parent_timeout,
            });
        }
    }

    fn on_child_timeout(&mut self, ring: RingId, _outs: &mut Vec<Output>) {
        if let Some(link) = self.children.get_mut(&ring) {
            link.ok = false;
        }
    }
}

/// Apply one member-level op to a member list.
pub(crate) fn apply_member_op(list: &mut MemberList, op: &ChangeOp) {
    match op {
        ChangeOp::MemberJoin { info } => {
            list.apply_join(*info);
        }
        ChangeOp::MemberLeave { guid } | ChangeOp::MemberFailure { guid } => {
            list.remove(*guid);
        }
        ChangeOp::MemberDisconnect { guid } => {
            // Stays on the list (it may resume) but leaves the operational
            // view.
            list.set_status(*guid, crate::member::MemberStatus::Disconnected);
        }
        ChangeOp::MemberHandoff { guid, luid, to, .. } => {
            list.apply_handoff(*guid, *luid, *to);
        }
        _ => {}
    }
}
