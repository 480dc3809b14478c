//! Per-network-entity protocol state (paper §4.2, "Data structure of NEs").
//!
//! A [`NodeState`] holds everything one AP/AG/BR needs: its position in the
//! ring-based hierarchy (`Current`, `Leader`, `Previous`, `Next`, `Parent`,
//! `Child(ren)`), the Function-Well flags (`RingOK`, `ParentOK`, `ChildOK`),
//! the three member lists, and the self-aggregating message queue `MQ`.
//! Behaviour lives in the `protocol`, `query` and `handoff` modules, all of
//! which are `impl NodeState` blocks — the struct itself is pure data plus
//! small accessors.
//!
//! # Hot-path layout
//!
//! A token hop is the protocol's steady-state cost: on a large fleet the
//! token and its ack are most of the events and most of the time, and each
//! lands on a node whose state has gone cold since the token's last lap. So
//! [`NodeState`] is `#[repr(C, align(64))]` and declares first, in this
//! order, what a hop, its ack, the heartbeat tick and the token timers
//! read: `id`, `last_token_seq`, `parent`, the cached successor `succ`,
//! `gid`, the four flags (`has_token`, `ring_ok`, `parent_ok`,
//! `token_seen_since_lost`), `roster`, `children`, `cfg`, `mq`, `inflight`
//! and `stats`. That hot block is 408 bytes and sits in the first seven
//! cache lines of every node; membership lists, query state and
//! re-attachment state follow. The whole struct is ten lines (640 bytes),
//! and `align(64)` adds no padding. A test pins both numbers: a new field
//! goes below the hot block unless the token hop reads it.
//!
//! `succ` is the paper's `Next` pointer. The hop reads it through
//! [`NodeState::next`] instead of scanning the roster for its own position.
//! It is refreshed in one place, `roster_changed`, which every roster
//! change calls: both constructors, the ring sync a joiner installs, a
//! local exclusion, and the NE-Join, NE-Leave and NE-Failure records.
//! `next()` `debug_assert`s the cache against a fresh scan. `roster` stays
//! `pub` for reading, but it is read-only outside `rgb_core`: a change made
//! from outside would skip the refresh.

use crate::config::{MembershipScheme, ProtocolConfig};
use crate::ids::{GroupId, NodeId, RingId, Tier};
use crate::member::MemberList;
use crate::message::{ChangeId, QueryId, QueryScope};
use crate::mq::MessageQueue;
use crate::ring::RingRoster;
use crate::token::Token;
use crate::topology::HierarchyLayout;
use std::collections::BTreeMap;

/// A token this node forwarded and is awaiting the acknowledgement for.
#[derive(Debug, Clone)]
pub struct Inflight {
    /// The forwarded token (kept for retransmission).
    pub token: Token,
    /// Where it was sent.
    pub target: NodeId,
    /// Retransmissions performed so far.
    pub attempts: u32,
}

/// Link to one sponsored child ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildLink {
    /// Current leader of the child ring (the paper's `Child` pointer).
    pub leader: NodeId,
    /// `ChildOK`: the child ring exists and functions well.
    pub ok: bool,
}

/// Aggregation state of one in-flight membership query this node issued.
#[derive(Debug, Clone)]
pub struct QueryAgg {
    /// What was asked.
    pub scope: QueryScope,
    /// Partial responses received so far.
    pub received: u32,
    /// Total responses expected (learned from the first response).
    pub expected: Option<u32>,
    /// Members aggregated so far.
    pub members: MemberList,
}

/// Counters exposed for tests, metrics and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Rounds this node started as holder.
    pub rounds_started: u64,
    /// Rounds completed (token returned to this node as holder).
    pub rounds_completed: u64,
    /// Change records executed.
    pub ops_executed: u64,
    /// Tokens forwarded to a successor.
    pub tokens_forwarded: u64,
    /// Token retransmissions.
    pub retransmits: u64,
    /// Successors excluded by local repair.
    pub exclusions: u64,
    /// Views installed.
    pub views_installed: u64,
}

/// The full protocol state of one network entity.
///
/// Laid out hot-first (see the module doc's "Hot-path layout"): the fields
/// a token hop reads fill the first seven cache lines.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct NodeState {
    // --- hot block: read by every token hop, ack, heartbeat and token timer ---
    /// This node (paper: `Current`).
    pub id: NodeId,
    /// Highest round number seen on this ring.
    pub(crate) last_token_seq: u64,
    /// Sponsor of this ring, one level up (paper: `Parent`). `None` at the
    /// topmost ring.
    pub parent: Option<NodeId>,
    /// Successor on the ring (paper: `Next`), cached from `roster` by
    /// `roster_changed` whenever the roster changes.
    pub(crate) succ: Option<NodeId>,
    /// Group served (paper: `GID`).
    pub gid: GroupId,
    /// The token is parked at this node.
    pub(crate) has_token: bool,
    /// `RingOK`: the token circulates normally on this ring.
    pub ring_ok: bool,
    /// `ParentOK`: parent exists and its ring functions well.
    pub parent_ok: bool,
    /// Whether a token has been sighted since the last TokenLost expiry
    /// (two consecutive silent expiries escalate to leader exclusion).
    pub(crate) token_seen_since_lost: bool,
    /// Roster of this node's logical ring (provides `Leader`, `Previous`,
    /// `Next`). Read-only outside `rgb_core`: every change goes through
    /// `roster_changed`.
    pub roster: RingRoster,
    /// Sponsored child rings (paper: `Child`; plural to support adoption
    /// after faults).
    pub children: BTreeMap<RingId, ChildLink>,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// `MQ`: the self-aggregating message queue.
    pub mq: MessageQueue,
    /// Outstanding forwarded token awaiting ack.
    pub(crate) inflight: Option<Inflight>,
    /// Counters.
    pub stats: NodeStats,

    // --- cold: membership lists, queries, re-attachment ---
    /// Tier of this node.
    pub tier: Tier,
    /// Ring level (0 = topmost).
    pub level: usize,
    /// Height of the whole hierarchy.
    pub height: usize,
    /// Ring of the sponsor.
    pub parent_ring: Option<RingId>,
    /// `ListOfLocalMembers`: MHs attached to this node (APs only).
    pub local_members: MemberList,
    /// `ListOfRingMembers`: operational members under the coverage of this
    /// ring (content gated by the membership scheme).
    pub ring_members: MemberList,
    /// `ListOfNeighborMembers`: members attached to this node's ring
    /// neighbours, for fast handoff.
    pub neighbor_members: MemberList,
    /// Number of rings per level in the hierarchy (for query fan-out
    /// accounting).
    pub level_ring_counts: Vec<usize>,
    /// Ring view epoch (bumped on every loaded round executed).
    pub epoch: u64,
    /// Next local change sequence number.
    pub(crate) next_change_seq: u64,
    /// Next local query sequence number.
    pub(crate) next_query_seq: u64,
    /// Queries this node issued and is aggregating.
    pub(crate) pending_queries: BTreeMap<QueryId, QueryAgg>,
    /// Cached roster of the parent ring (from heartbeats), used for
    /// re-attachment when the parent node fails.
    pub(crate) parent_roster_cache: Vec<NodeId>,
    /// Re-attachment attempts since the parent was lost.
    pub(crate) attach_attempts: usize,
    /// Change ids this node originated and not yet seen agreed.
    pub(crate) awaiting_ack: BTreeMap<ChangeId, ()>,
}

impl NodeState {
    /// Approximate resident bytes of this node's state: the struct itself
    /// plus its owned collections at their current lengths (roster, member
    /// lists, message queue, query aggregations, caches). B-tree entries
    /// are charged a fixed per-entry overhead instead of being measured —
    /// this is a scaling estimate for capacity planning (`bytes/node` in
    /// the scale benchmarks), not an exact accounting.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        /// Charged per B-tree map entry beyond the payload (node headers,
        /// fill slack).
        const BTREE_OVERHEAD: usize = 32;
        let member = size_of::<crate::member::MemberInfo>() + BTREE_OVERHEAD;
        let members =
            self.local_members.len() + self.ring_members.len() + self.neighbor_members.len();
        size_of::<Self>()
            + std::mem::size_of_val(self.roster.nodes())
            + self.children.len() * (size_of::<ChildLink>() + BTREE_OVERHEAD)
            + members * member
            + self.mq.len() * 96
            + self.awaiting_ack.len() * (size_of::<ChangeId>() + BTREE_OVERHEAD)
            + self.pending_queries.len() * 160
            + self.level_ring_counts.len() * size_of::<usize>()
            + self.parent_roster_cache.len() * size_of::<NodeId>()
    }

    /// Build the state of node `id` from a hierarchy layout.
    ///
    /// Counts the layout's rings per level on every call (O(rings)); whoever
    /// builds every node of a layout computes
    /// [`HierarchyLayout::level_ring_counts`] once and calls
    /// [`NodeState::from_layout_with_counts`].
    pub fn from_layout(
        layout: &HierarchyLayout,
        id: NodeId,
        cfg: ProtocolConfig,
    ) -> crate::error::Result<Self> {
        Self::from_layout_with_counts(layout, id, cfg, &layout.level_ring_counts())
    }

    /// [`NodeState::from_layout`] with the layout's
    /// [`HierarchyLayout::level_ring_counts`] already computed.
    pub fn from_layout_with_counts(
        layout: &HierarchyLayout,
        id: NodeId,
        cfg: ProtocolConfig,
        level_ring_counts: &[usize],
    ) -> crate::error::Result<Self> {
        let placement = layout.placement(id)?;
        let ring_spec = layout.ring(placement.ring)?;
        let roster =
            RingRoster::new(ring_spec.id, ring_spec.tier, ring_spec.level, ring_spec.nodes.clone());
        let mut children = BTreeMap::new();
        if let Some(cr) = placement.child_ring {
            let child_spec = layout.ring(cr)?;
            let leader = child_spec
                .nodes
                .iter()
                .copied()
                .min()
                .ok_or(crate::error::RgbError::EmptyRing(cr))?;
            children.insert(cr, ChildLink { leader, ok: true });
        }
        let mut node = NodeState {
            id,
            last_token_seq: 0,
            parent: placement.parent_node,
            succ: None,
            gid: layout.gid,
            has_token: false,
            ring_ok: true,
            parent_ok: placement.parent_node.is_some(),
            token_seen_since_lost: false,
            roster,
            children,
            cfg,
            mq: MessageQueue::new(),
            inflight: None,
            stats: NodeStats::default(),
            tier: placement.tier,
            level: placement.level,
            height: level_ring_counts.len(),
            parent_ring: placement.parent_ring,
            local_members: MemberList::new(),
            ring_members: MemberList::new(),
            neighbor_members: MemberList::new(),
            level_ring_counts: level_ring_counts.to_vec(),
            epoch: 0,
            next_change_seq: 0,
            next_query_seq: 0,
            pending_queries: BTreeMap::new(),
            parent_roster_cache: Vec::new(),
            attach_attempts: 0,
            awaiting_ack: BTreeMap::new(),
        };
        node.roster_changed();
        Ok(node)
    }

    /// Refresh the cached successor (paper: `Next`) from the roster. Every
    /// roster change calls this before the node handles another input.
    pub(crate) fn roster_changed(&mut self) {
        self.succ = self.roster.next_of(self.id).ok();
    }

    /// This node's ring id.
    pub fn ring_id(&self) -> RingId {
        self.roster.id
    }

    /// Whether this node currently leads its ring.
    pub fn is_leader(&self) -> bool {
        self.roster.leader() == Some(self.id)
    }

    /// Current leader of this ring (paper: `Leader`).
    pub fn leader(&self) -> Option<NodeId> {
        self.roster.leader()
    }

    /// Successor on the ring (paper: `Next`).
    pub fn next(&self) -> Option<NodeId> {
        debug_assert_eq!(self.succ, self.roster.next_of(self.id).ok(), "stale successor cache");
        self.succ
    }

    /// Predecessor on the ring (paper: `Previous`).
    pub fn prev(&self) -> Option<NodeId> {
        self.roster.prev_of(self.id).ok()
    }

    /// Whether this node is at the bottommost (access-proxy) level.
    pub fn is_bottom(&self) -> bool {
        self.level + 1 == self.height
    }

    /// Whether this node's ring stores member lists under the configured
    /// membership scheme (§4.4). The bottommost level always keeps its own
    /// coverage; upper levels store only where the scheme places them.
    pub fn is_store_level(&self) -> bool {
        if self.is_bottom() {
            return true;
        }
        match self.cfg.scheme {
            MembershipScheme::Tms => self.level == 0,
            MembershipScheme::Bms => false,
            MembershipScheme::Ims { level } => self.level == level as usize,
        }
    }

    /// The level queried under the configured scheme.
    pub fn query_target_level(&self) -> usize {
        match self.cfg.scheme {
            MembershipScheme::Tms => 0,
            MembershipScheme::Bms => self.height - 1,
            MembershipScheme::Ims { level } => (level as usize).min(self.height - 1),
        }
    }

    /// Whether the token is parked at this node (test/diagnostic hook).
    pub fn holds_token(&self) -> bool {
        self.has_token
    }

    /// Allocate the next change id.
    pub(crate) fn next_change_id(&mut self) -> ChangeId {
        let id = ChangeId { origin: self.id, seq: self.next_change_seq };
        self.next_change_seq += 1;
        id
    }

    /// Allocate the next query id.
    pub(crate) fn next_query_id(&mut self) -> QueryId {
        let id = QueryId { origin: self.id, seq: self.next_query_seq };
        self.next_query_seq += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HierarchySpec;

    fn layout_h3_r3() -> HierarchyLayout {
        HierarchySpec::new(3, 3).build(GroupId(1)).unwrap()
    }

    #[test]
    fn from_layout_populates_position() {
        let layout = layout_h3_r3();
        // node 0 is the first node of the root ring
        let n0 = NodeState::from_layout(&layout, NodeId(0), ProtocolConfig::default()).unwrap();
        assert_eq!(n0.level, 0);
        assert_eq!(n0.tier, Tier::BorderRouter);
        assert!(n0.parent.is_none());
        assert!(!n0.parent_ok);
        assert_eq!(n0.children.len(), 1);
        assert!(n0.is_leader());
        assert!(!n0.is_bottom());

        // a bottom node
        let ap = *layout.aps().first().unwrap();
        let nb = NodeState::from_layout(&layout, ap, ProtocolConfig::default()).unwrap();
        assert!(nb.is_bottom());
        assert_eq!(nb.tier, Tier::AccessProxy);
        assert!(nb.parent.is_some());
        assert!(nb.children.is_empty());
    }

    #[test]
    fn child_pointer_is_child_ring_min_id() {
        let layout = layout_h3_r3();
        let n0 = NodeState::from_layout(&layout, NodeId(0), ProtocolConfig::default()).unwrap();
        let (&cr, link) = n0.children.iter().next().unwrap();
        let spec = layout.ring(cr).unwrap();
        assert_eq!(Some(link.leader), spec.nodes.iter().copied().min());
        assert!(link.ok);
    }

    #[test]
    fn store_levels_by_scheme() {
        let layout = layout_h3_r3();
        let mk = |id: u64, scheme| {
            let cfg = ProtocolConfig { scheme, ..ProtocolConfig::default() };
            NodeState::from_layout(&layout, NodeId(id), cfg).unwrap()
        };
        // TMS: root stores, middle does not, bottom stores local coverage.
        assert!(mk(0, MembershipScheme::Tms).is_store_level());
        let mid_id = layout.rings_at(1).next().unwrap().nodes[0].0;
        assert!(!mk(mid_id, MembershipScheme::Tms).is_store_level());
        let ap = layout.aps()[0].0;
        assert!(mk(ap, MembershipScheme::Tms).is_store_level());
        // BMS: only bottom.
        assert!(!mk(0, MembershipScheme::Bms).is_store_level());
        assert!(mk(ap, MembershipScheme::Bms).is_store_level());
        // IMS level 1: middle stores.
        assert!(mk(mid_id, MembershipScheme::Ims { level: 1 }).is_store_level());
        assert!(!mk(0, MembershipScheme::Ims { level: 1 }).is_store_level());
    }

    #[test]
    fn query_target_levels() {
        let layout = layout_h3_r3();
        let mk = |scheme| {
            let cfg = ProtocolConfig { scheme, ..ProtocolConfig::default() };
            NodeState::from_layout(&layout, NodeId(0), cfg).unwrap()
        };
        assert_eq!(mk(MembershipScheme::Tms).query_target_level(), 0);
        assert_eq!(mk(MembershipScheme::Bms).query_target_level(), 2);
        assert_eq!(mk(MembershipScheme::Ims { level: 1 }).query_target_level(), 1);
        assert_eq!(mk(MembershipScheme::Ims { level: 9 }).query_target_level(), 2);
    }

    #[test]
    fn next_prev_follow_roster() {
        let layout = layout_h3_r3();
        let n = NodeState::from_layout(&layout, NodeId(1), ProtocolConfig::default()).unwrap();
        assert_eq!(n.next(), Some(NodeId(2)));
        assert_eq!(n.prev(), Some(NodeId(0)));
        assert_eq!(n.leader(), Some(NodeId(0)));
    }

    #[test]
    fn change_and_query_ids_are_sequential() {
        let layout = layout_h3_r3();
        let mut n = NodeState::from_layout(&layout, NodeId(0), ProtocolConfig::default()).unwrap();
        let a = n.next_change_id();
        let b = n.next_change_id();
        assert_eq!(a.seq + 1, b.seq);
        assert_eq!(a.origin, NodeId(0));
        let q1 = n.next_query_id();
        let q2 = n.next_query_id();
        assert_eq!(q1.seq + 1, q2.seq);
    }

    #[test]
    fn level_ring_counts_match_layout() {
        let layout = layout_h3_r3();
        let n = NodeState::from_layout(&layout, NodeId(0), ProtocolConfig::default()).unwrap();
        assert_eq!(n.level_ring_counts, vec![1, 3, 9]);
        assert_eq!(n.height, 3);
    }

    #[test]
    fn level_ring_counts_match_an_irregular_layout() {
        // One root ring of three; two of its nodes sponsor a ring (sizes 2
        // and 4); three of those six sponsor a bottom ring.
        let ids = |r: std::ops::Range<u64>| r.map(NodeId).collect::<Vec<_>>();
        let layout = HierarchyLayout::custom(
            GroupId(1),
            vec![
                vec![ids(0..3)],
                vec![ids(10..12), ids(12..16)],
                vec![ids(20..21), ids(21..24), ids(24..26)],
            ],
        )
        .unwrap();
        let counts = layout.level_ring_counts();
        assert_eq!(counts, vec![1, 2, 3]);
        for id in [NodeId(0), NodeId(13), NodeId(25)] {
            let direct = NodeState::from_layout(&layout, id, ProtocolConfig::default()).unwrap();
            let shared =
                NodeState::from_layout_with_counts(&layout, id, ProtocolConfig::default(), &counts)
                    .unwrap();
            assert_eq!(direct.level_ring_counts, counts);
            assert_eq!(direct.height, layout.height());
            assert_eq!(direct.digest(), shared.digest());
            assert_eq!(shared.level_ring_counts, counts);
        }
    }

    /// The hot block (module doc, "Hot-path layout") fits the first seven
    /// cache lines and the whole node is ten lines.
    #[test]
    fn hot_block_fills_the_first_seven_cache_lines() {
        use std::mem::{align_of, offset_of, size_of, size_of_val};
        assert_eq!(size_of::<NodeState>(), 640, "NodeState grew past ten cache lines");
        assert_eq!(align_of::<NodeState>(), 64);
        let n =
            NodeState::from_layout(&layout_h3_r3(), NodeId(1), ProtocolConfig::default()).unwrap();
        // Where each hot field ends, in bytes from the start of the node.
        macro_rules! end {
            ($($field:ident),*) => {
                [$((stringify!($field), offset_of!(NodeState, $field) + size_of_val(&n.$field))),*]
            };
        }
        let ends = end!(
            id,
            last_token_seq,
            parent,
            succ,
            gid,
            has_token,
            ring_ok,
            parent_ok,
            token_seen_since_lost,
            roster,
            children,
            cfg,
            mq,
            inflight,
            stats
        );
        for (field, end) in ends {
            assert!(
                end <= 7 * 64,
                "hot field `{field}` ends at byte {end}, past the seven-line hot block: \
                 a new field goes below the hot block unless the token hop reads it"
            );
        }
    }

    /// Every roster-changing path leaves `next()` equal to a fresh roster
    /// scan at every node: construction, `standalone`, NE-Join with its
    /// ring sync, NE-Leave, exclusion by retransmit exhaustion with the
    /// NE-Failure it queues, and a merge. Runs in release too, where the
    /// `debug_assert` in `next()` does not.
    #[test]
    fn cached_successor_follows_every_roster_change() {
        use crate::events::{Input, Output};
        use crate::testing::Loopback;
        fn coherent(net: &Loopback, step: &str) {
            for (id, n) in &net.nodes {
                assert_eq!(n.next(), n.roster.next_of(n.id).ok(), "{step}: stale `Next` at {id}");
            }
        }
        fn send_all(net: &mut Loopback, from: NodeId, outs: Vec<Output>) {
            for out in outs {
                if let Output::Send { to, msg } = out {
                    net.inject(to, Input::Msg { from, msg });
                }
            }
        }
        // Continuous rounds, so the NE-Failure a repair queues rides the
        // next round without waiting for another change.
        let mut cfg = ProtocolConfig::live();
        cfg.token_interval = 10;
        cfg.token_retransmit_timeout = 5;
        cfg.token_retransmit_limit = 1;
        cfg.token_lost_timeout = 150;
        let layout = HierarchySpec::new(1, 4).build(GroupId(1)).unwrap();
        let mut net = Loopback::from_layout(&layout, &cfg);
        net.boot_all();
        net.run_until(100);
        coherent(&net, "construction");

        let joiner = NodeId(100);
        let node = NodeState::standalone(cfg.clone(), GroupId(1), joiner, RingId(900), 0, 1);
        assert_eq!(node.next(), Some(joiner));
        net.nodes.insert(joiner, node);
        coherent(&net, "standalone");
        let outs = net.nodes.get_mut(&joiner).unwrap().request_join(NodeId(0));
        send_all(&mut net, joiner, outs);
        // The contact's ring sync reaches the joiner before the NE-Join
        // round does.
        while net.node(joiner).roster.len() == 1 {
            assert!(net.step_message(), "no ring sync for the joiner");
        }
        coherent(&net, "ring sync");
        net.run_until(net.now + 2_000);
        assert!(net.nodes.values().all(|n| n.roster.contains(joiner)));
        coherent(&net, "NE-Join");

        let leaver = NodeId(2);
        let outs = net.nodes.get_mut(&leaver).unwrap().request_leave();
        send_all(&mut net, leaver, outs);
        net.run_until(net.now + 2_000);
        net.crash(leaver);
        assert!(!net.node(NodeId(0)).roster.contains(leaver));
        coherent(&net, "NE-Leave");

        let victim = NodeId(3);
        net.crash(victim);
        net.run_until(net.now + 2_000);
        let excluded: u64 = net.nodes.values().map(|n| n.stats.exclusions).sum();
        assert!(excluded >= 1, "nobody excluded the crashed successor");
        for (&id, n) in &net.nodes {
            assert!(net.crashed.contains(&id) || !n.roster.contains(victim), "{id} kept {victim}");
        }
        coherent(&net, "exclusion and NE-Failure");

        let other = NodeId(200);
        net.nodes.insert(other, NodeState::standalone(cfg, GroupId(1), other, RingId(901), 0, 1));
        let outs = net.nodes.get_mut(&other).unwrap().propose_merge(NodeId(0));
        send_all(&mut net, other, outs);
        net.run_until(net.now + 2_000);
        assert!(net.node(other).roster.len() > 1 && net.node(NodeId(0)).roster.contains(other));
        coherent(&net, "merge");
    }

    #[test]
    fn unknown_node_is_an_error() {
        let layout = layout_h3_r3();
        assert!(NodeState::from_layout(&layout, NodeId(9999), ProtocolConfig::default()).is_err());
    }
}
