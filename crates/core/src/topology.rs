//! Construction of the ring-based hierarchy (paper §4.1, Figure 2).
//!
//! A *full* hierarchy of height `h` and branching `r` — the configuration
//! analysed in §5 — has one topmost ring (BRT), `r^ℓ` rings at level `ℓ`,
//! and `r` nodes per ring; the bottommost level (APT) therefore holds
//! `n = r^h` access proxies, and the hierarchy contains
//! `tn = Σ_{i=0}^{h-1} r^i` logical rings. Each node of a non-bottom ring
//! *sponsors* exactly one child ring one level down: its `Child` pointer is
//! that ring's current leader, and that ring's leader's `Parent` pointer is
//! the sponsoring node.
//!
//! Irregular hierarchies (rings of different sizes, partially-filled
//! levels) can be described directly with [`HierarchyLayout::custom`].

use crate::error::{Result, RgbError};
use crate::ids::{GroupId, NodeId, RingId, Tier};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Specification of a full (regular) ring-based hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchySpec {
    /// Number of ring levels (`h ≥ 1`). The paper's canonical deployment is
    /// `h = 3` (BRT/AGT/APT).
    pub height: usize,
    /// Nodes per ring and children per node (`r ≥ 2` in the paper's
    /// analysis; `r = 1` is accepted for degenerate test cases).
    pub branching: usize,
}

impl HierarchySpec {
    /// A new spec (validated at [`Self::build`] time).
    pub fn new(height: usize, branching: usize) -> Self {
        HierarchySpec { height, branching }
    }

    /// Validate the spec.
    pub fn validate(&self) -> Result<()> {
        if self.height == 0 {
            return Err(RgbError::InvalidSpec("height must be >= 1"));
        }
        if self.branching == 0 {
            return Err(RgbError::InvalidSpec("branching must be >= 1"));
        }
        // Guard against absurd sizes: n = r^h must fit comfortably.
        let n = (self.branching as u128).checked_pow(self.height as u32);
        match n {
            Some(n) if n <= 16_000_000 => Ok(()),
            _ => Err(RgbError::InvalidSpec("hierarchy too large (r^h > 16M)")),
        }
    }

    /// Number of access proxies `n = r^h`.
    pub fn ap_count(&self) -> usize {
        self.branching.pow(self.height as u32)
    }

    /// Number of logical rings `tn = Σ_{i=0}^{h-1} r^i`.
    pub fn ring_count(&self) -> usize {
        (0..self.height).map(|i| self.branching.pow(i as u32)).sum()
    }

    /// Number of rings at `level` (`r^level`).
    pub fn rings_at_level(&self, level: usize) -> usize {
        debug_assert!(level < self.height);
        self.branching.pow(level as u32)
    }

    /// Total number of network entities `Σ_{i=1}^{h} r^i = r · tn`.
    pub fn node_count(&self) -> usize {
        self.branching * self.ring_count()
    }

    /// Build the concrete layout.
    pub fn build(&self, gid: GroupId) -> Result<HierarchyLayout> {
        self.validate()?;
        let h = self.height;
        let r = self.branching;

        let mut rings: Vec<RingSpec> = Vec::with_capacity(self.ring_count());
        let mut nodes: BTreeMap<NodeId, NodePlacement> = BTreeMap::new();
        let mut next_node: u64 = 0;
        // ring ids are assigned breadth-first: level 0 first
        let mut level_first_ring: Vec<u32> = Vec::with_capacity(h);
        let mut next_ring: u32 = 0;

        for level in 0..h {
            level_first_ring.push(next_ring);
            let tier = Tier::for_level(level, h);
            let count = self.rings_at_level(level);
            for j in 0..count {
                let id = RingId(next_ring);
                next_ring += 1;
                let node_ids: Vec<NodeId> = (0..r)
                    .map(|_| {
                        let nid = NodeId(next_node);
                        next_node += 1;
                        nid
                    })
                    .collect();
                // Parent: the j-th node at level-1 overall sponsors this ring.
                let (parent_ring, parent_node) = if level == 0 {
                    (None, None)
                } else {
                    let pr_index = level_first_ring[level - 1] + (j / r) as u32;
                    let parent_ring_id = RingId(pr_index);
                    let parent_node = rings[pr_index as usize].nodes[j % r];
                    (Some(parent_ring_id), Some(parent_node))
                };
                for &nid in &node_ids {
                    nodes.insert(
                        nid,
                        NodePlacement {
                            id: nid,
                            ring: id,
                            level,
                            tier,
                            parent_node,
                            parent_ring,
                            child_ring: None,
                        },
                    );
                }
                rings.push(RingSpec { id, level, tier, nodes: node_ids, parent_node, parent_ring });
            }
        }

        // Fill child_ring pointers: ring R's parent_node sponsors R.
        let child_links: Vec<(NodeId, RingId)> =
            rings.iter().filter_map(|r| r.parent_node.map(|p| (p, r.id))).collect();
        for (parent, child_ring) in child_links {
            let placement = nodes.get_mut(&parent).expect("parent node exists");
            debug_assert!(placement.child_ring.is_none(), "one child ring per node");
            placement.child_ring = Some(child_ring);
        }

        Ok(HierarchyLayout { gid, spec: Some(*self), rings, nodes })
    }
}

/// One ring in the layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSpec {
    /// Ring identity.
    pub id: RingId,
    /// Level below the root (0 = topmost).
    pub level: usize,
    /// Tier of the ring.
    pub tier: Tier,
    /// Nodes in ring order.
    pub nodes: Vec<NodeId>,
    /// The node one level up that sponsors this ring (its `Child` pointer
    /// names this ring's leader). `None` for the topmost ring.
    pub parent_node: Option<NodeId>,
    /// The ring the sponsor belongs to.
    pub parent_ring: Option<RingId>,
}

/// Where one network entity sits in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePlacement {
    /// The entity.
    pub id: NodeId,
    /// Its ring.
    pub ring: RingId,
    /// Ring level (0 = topmost).
    pub level: usize,
    /// Tier.
    pub tier: Tier,
    /// Sponsor of the entity's ring (`Parent` pointer target).
    pub parent_node: Option<NodeId>,
    /// Ring of the sponsor.
    pub parent_ring: Option<RingId>,
    /// Ring this entity sponsors one level down, if any.
    pub child_ring: Option<RingId>,
}

/// A concrete ring-based hierarchy layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyLayout {
    /// Group this hierarchy serves.
    pub gid: GroupId,
    /// The regular spec, when built from one.
    pub spec: Option<HierarchySpec>,
    /// All rings, topmost first (breadth-first by level).
    pub rings: Vec<RingSpec>,
    /// Placement of every node.
    pub nodes: BTreeMap<NodeId, NodePlacement>,
}

impl HierarchyLayout {
    /// Build an irregular layout from explicit per-level ring rosters.
    /// `levels[ℓ]` lists the rings at level `ℓ`, each as a node-id list;
    /// ring `j` at level `ℓ` is sponsored by node `j` (counting across all
    /// level-`ℓ-1` rings in order, one sponsorship per node).
    pub fn custom(gid: GroupId, levels: Vec<Vec<Vec<NodeId>>>) -> Result<Self> {
        if levels.is_empty() || levels[0].len() != 1 {
            return Err(RgbError::InvalidSpec("need exactly one topmost ring"));
        }
        let h = levels.len();
        let mut rings: Vec<RingSpec> = Vec::new();
        let mut nodes: BTreeMap<NodeId, NodePlacement> = BTreeMap::new();
        let mut next_ring: u32 = 0;
        let mut level_first_ring: Vec<u32> = Vec::new();
        for (level, ring_lists) in levels.iter().enumerate() {
            level_first_ring.push(next_ring);
            let tier = Tier::for_level(level, h);
            // flatten the previous level's nodes for sponsor assignment
            let sponsors: Vec<NodeId> = if level == 0 {
                Vec::new()
            } else {
                levels[level - 1].iter().flatten().copied().collect()
            };
            for (j, node_ids) in ring_lists.iter().enumerate() {
                if node_ids.is_empty() {
                    return Err(RgbError::InvalidSpec("empty ring in custom layout"));
                }
                let id = RingId(next_ring);
                next_ring += 1;
                let (parent_node, parent_ring) = if level == 0 {
                    (None, None)
                } else {
                    let sponsor = *sponsors
                        .get(j)
                        .ok_or(RgbError::InvalidSpec("more rings than sponsor nodes"))?;
                    let pr = nodes
                        .get(&sponsor)
                        .ok_or(RgbError::InvalidSpec("sponsor not placed"))?
                        .ring;
                    (Some(sponsor), Some(pr))
                };
                for &nid in node_ids {
                    if nodes.contains_key(&nid) {
                        return Err(RgbError::InvalidSpec("node appears in two rings"));
                    }
                    nodes.insert(
                        nid,
                        NodePlacement {
                            id: nid,
                            ring: id,
                            level,
                            tier,
                            parent_node,
                            parent_ring,
                            child_ring: None,
                        },
                    );
                }
                rings.push(RingSpec {
                    id,
                    level,
                    tier,
                    nodes: node_ids.clone(),
                    parent_node,
                    parent_ring,
                });
            }
        }
        let child_links: Vec<(NodeId, RingId)> =
            rings.iter().filter_map(|r| r.parent_node.map(|p| (p, r.id))).collect();
        for (parent, child_ring) in child_links {
            let placement = nodes.get_mut(&parent).expect("parent placed");
            if placement.child_ring.is_some() {
                return Err(RgbError::InvalidSpec("node sponsors two rings"));
            }
            placement.child_ring = Some(child_ring);
        }
        Ok(HierarchyLayout { gid, spec: None, rings, nodes })
    }

    /// Height (number of levels).
    pub fn height(&self) -> usize {
        self.rings.iter().map(|r| r.level + 1).max().unwrap_or(0)
    }

    /// Number of rings at each level, topmost first (`height()` entries).
    /// One pass over all rings per level: compute it once per layout, not
    /// once per node.
    pub fn level_ring_counts(&self) -> Vec<usize> {
        (0..self.height()).map(|l| self.rings_at(l).count()).collect()
    }

    /// The topmost ring.
    pub fn root_ring(&self) -> &RingSpec {
        &self.rings[0]
    }

    /// Look up a ring.
    pub fn ring(&self, id: RingId) -> Result<&RingSpec> {
        self.rings.get(id.0 as usize).filter(|r| r.id == id).ok_or(RgbError::UnknownRing(id))
    }

    /// Look up a node placement.
    pub fn placement(&self, id: NodeId) -> Result<&NodePlacement> {
        self.nodes.get(&id).ok_or(RgbError::UnknownNode(id))
    }

    /// All rings at a level.
    pub fn rings_at(&self, level: usize) -> impl Iterator<Item = &RingSpec> {
        self.rings.iter().filter(move |r| r.level == level)
    }

    /// All access-proxy (bottom-level) nodes, in id order.
    pub fn aps(&self) -> Vec<NodeId> {
        let bottom = self.height() - 1;
        let mut v: Vec<NodeId> =
            self.rings_at(bottom).flat_map(|r| r.nodes.iter().copied()).collect();
        v.sort();
        v
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total ring count.
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// The chain of rings from `ring` to the root (inclusive), bottom-up:
    /// the "sequence of logical rings from bottom to top" involved in a
    /// membership change (paper §6).
    pub fn ring_chain_to_root(&self, ring: RingId) -> Result<Vec<RingId>> {
        let mut chain = Vec::new();
        let mut cur = self.ring(ring)?;
        loop {
            chain.push(cur.id);
            match cur.parent_ring {
                Some(p) => cur = self.ring(p)?,
                None => break,
            }
        }
        Ok(chain)
    }

    /// Number of hierarchy edges: ring edges (`|ring|` per ring, the logical
    /// ring links) plus one parent-child link per non-root ring. Used by the
    /// scalability experiments.
    pub fn edge_count(&self) -> usize {
        let ring_edges: usize = self.rings.iter().map(|r| r.nodes.len()).sum();
        let tree_edges = self.rings.iter().filter(|r| r.parent_ring.is_some()).count();
        ring_edges + tree_edges
    }

    /// Ring ids in sponsorship-tree depth-first preorder: the root ring
    /// first, then — per root-ring node, in ring order — that node's whole
    /// sponsored subtree before the next node's. Consecutive rings in this
    /// order are therefore close in the hierarchy, which is what makes a
    /// contiguous cut of it a good shard.
    pub fn rings_dfs(&self) -> Vec<RingId> {
        let mut order = Vec::with_capacity(self.rings.len());
        let mut stack = vec![self.root_ring().id];
        while let Some(id) = stack.pop() {
            order.push(id);
            let Ok(ring) = self.ring(id) else { continue };
            // Push child subtrees in reverse ring order so they pop (and
            // appear) in ring order.
            for &node in ring.nodes.iter().rev() {
                if let Some(child) = self.nodes.get(&node).and_then(|p| p.child_ring) {
                    stack.push(child);
                }
            }
        }
        debug_assert_eq!(order.len(), self.rings.len(), "DFS must visit every ring");
        order
    }

    /// Hierarchy-aware partition of the layout's rings into at most
    /// `shards` groups of equal node count, to within one ring.
    ///
    /// Rings are never split (so intra-ring traffic — the bulk of the
    /// token protocol — stays group-local), and groups are contiguous cuts
    /// of the [`HierarchyLayout::rings_dfs`] order (so a sponsored subtree
    /// tends to share its sponsor's group, keeping most parent–child
    /// traffic local too). The returned vector always has exactly `shards`
    /// entries; only trailing groups may be empty — when the layout has
    /// fewer rings than requested shards, or when rings larger than a fair
    /// share use up the order before the last target.
    ///
    /// # Algorithm and bound
    ///
    /// With `T` nodes, `k` shards and `M` the largest ring, group `i`
    /// (1-based) ends at the ring boundary nearest the ideal prefix
    /// `i·T/k` — the lower one on a tie — and at least one ring after the
    /// previous cut, so no group before the tail is empty. The targets are
    /// fixed multiples of `T/k`, not shares of what earlier groups left
    /// over, so an error made at one cut is not handed on to the next.
    ///
    /// Every boundary is within `M/2` of its target (some ring straddles
    /// it), hence every non-empty group holds `T/k ± M` nodes. A cut is
    /// only ever forced when `M ≥ T/k`: otherwise consecutive targets lie
    /// more than `M` apart and their nearest boundaries differ. The forced
    /// group is a single ring of at most `M` nodes, and a cut pushed past
    /// its target only shrinks the group after it — where `M ≥ T/k` makes
    /// the lower bound vacuous — so the bound holds for every layout.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn partition_rings(&self, shards: usize) -> Vec<Vec<RingId>> {
        assert!(shards > 0, "need at least one shard");
        let mut groups: Vec<Vec<RingId>> = vec![Vec::new(); shards];
        let total: usize = self.rings.iter().map(|r| r.nodes.len()).sum();
        let mut group = 0usize;
        let mut placed = 0usize;
        for id in self.rings_dfs() {
            let size = self.ring(id).map(|r| r.nodes.len()).unwrap_or(0);
            // Distances to the open group's ideal end, scaled by `shards`
            // so `i·T/k` stays an integer. Prefix sums only grow, so the
            // first boundary the next ring would not bring closer is the
            // nearest one.
            let ideal = (group + 1) * total;
            let here = (placed * shards).abs_diff(ideal);
            let past = ((placed + size) * shards).abs_diff(ideal);
            if !groups[group].is_empty() && here <= past && group + 1 < shards {
                group += 1;
            }
            groups[group].push(id);
            placed += size;
        }
        groups
    }

    /// Build the dense-index arena over this layout (see [`NodeIndexer`]).
    pub fn indexer(&self) -> NodeIndexer {
        NodeIndexer::new(self)
    }

    /// Dense index of `id` (its rank in id order), without a prebuilt
    /// [`NodeIndexer`]. Convenience for cold paths; hot loops should build
    /// the indexer once and use [`NodeIndexer::index_of`].
    pub fn index_of(&self, id: NodeId) -> Option<NodeIdx> {
        self.nodes.contains_key(&id).then(|| {
            let rank = self.nodes.range(..id).count();
            NodeIdx(rank as u32)
        })
    }
}

/// Dense per-layout node handle: the rank of a [`NodeId`] in id order.
///
/// Simulation state (`nodes`, `crashed`, `delivered`, timer slots) lives in
/// plain `Vec`s indexed by `NodeIdx`, so the event dispatch loop performs
/// array loads instead of `BTreeMap` walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize` (array subscript).
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional `NodeId` ↔ [`NodeIdx`] map for one layout.
///
/// Spec-built layouts number their nodes densely (`0..n`), so the common
/// case is a direct-mapped O(1) translation table; irregular
/// [`HierarchyLayout::custom`] layouts with sparse ids fall back to a
/// direct map over `0..=max_id` when that is affordably small, and to
/// binary search otherwise. Either way the indexer is immutable and cheap
/// to consult from the hot path.
#[derive(Debug, Clone)]
pub struct NodeIndexer {
    /// idx → id, ascending (so `NodeIdx` order is `NodeId` order).
    ids: Vec<NodeId>,
    /// id → idx + 1 (0 = absent) when direct mapping is affordable.
    direct: Vec<u32>,
}

impl NodeIndexer {
    /// Sparse layouts get a direct map only while it stays within a small
    /// constant factor of the node count.
    const DIRECT_MAP_SLACK: usize = 4;

    /// Build the arena over `layout`.
    pub fn new(layout: &HierarchyLayout) -> Self {
        let ids: Vec<NodeId> = layout.nodes.keys().copied().collect();
        let max_id = ids.last().map(|n| n.0 as usize).unwrap_or(0);
        let direct = if ids.is_empty() || max_id < Self::DIRECT_MAP_SLACK * ids.len() + 64 {
            let mut table = vec![0u32; max_id + 2];
            for (idx, id) in ids.iter().enumerate() {
                table[id.0 as usize] = idx as u32 + 1;
            }
            table
        } else {
            Vec::new()
        };
        NodeIndexer { ids, direct }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dense index of `id`, or `None` for nodes outside the layout.
    #[inline]
    pub fn index_of(&self, id: NodeId) -> Option<NodeIdx> {
        if self.direct.is_empty() {
            self.ids.binary_search(&id).ok().map(|i| NodeIdx(i as u32))
        } else {
            match self.direct.get(id.0 as usize) {
                Some(&slot) if slot != 0 => Some(NodeIdx(slot - 1)),
                _ => None,
            }
        }
    }

    /// The id at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for this arena.
    #[inline]
    pub fn id_of(&self, idx: NodeIdx) -> NodeId {
        self.ids[idx.as_usize()]
    }

    /// Dense iteration: every `(NodeIdx, NodeId)` pair in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeIdx, NodeId)> + '_ {
        self.ids.iter().enumerate().map(|(i, &id)| (NodeIdx(i as u32), id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_counts_match_paper_formulas() {
        // Table I ring-based rows: (n, h, r)
        for &(n, h, r) in &[
            (25usize, 2usize, 5usize),
            (125, 3, 5),
            (625, 4, 5),
            (100, 2, 10),
            (1000, 3, 10),
            (10000, 4, 10),
        ] {
            let s = HierarchySpec::new(h, r);
            assert_eq!(s.ap_count(), n, "n = r^h for h={h} r={r}");
            let tn: usize = (0..h).map(|i| r.pow(i as u32)).sum();
            assert_eq!(s.ring_count(), tn);
            assert_eq!(s.node_count(), r * tn);
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(HierarchySpec::new(0, 5).validate().is_err());
        assert!(HierarchySpec::new(3, 0).validate().is_err());
        assert!(HierarchySpec::new(30, 10).validate().is_err());
        assert!(HierarchySpec::new(3, 5).validate().is_ok());
    }

    #[test]
    fn build_full_h3_r3() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        assert_eq!(layout.ring_count(), 1 + 3 + 9);
        assert_eq!(layout.node_count(), 3 * 13);
        assert_eq!(layout.aps().len(), 27);
        assert_eq!(layout.height(), 3);
        // root ring has no parent
        assert!(layout.root_ring().parent_node.is_none());
        // every non-root ring has a sponsor in the level above
        for ring in &layout.rings[1..] {
            let sponsor = ring.parent_node.unwrap();
            let sp = layout.placement(sponsor).unwrap();
            assert_eq!(sp.level + 1, ring.level);
            assert_eq!(sp.child_ring, Some(ring.id));
        }
    }

    #[test]
    fn every_non_bottom_node_sponsors_exactly_one_ring() {
        let layout = HierarchySpec::new(3, 4).build(GroupId(1)).unwrap();
        let bottom = layout.height() - 1;
        for p in layout.nodes.values() {
            if p.level < bottom {
                assert!(p.child_ring.is_some(), "node {} at level {} must sponsor", p.id, p.level);
            } else {
                assert!(p.child_ring.is_none());
            }
        }
    }

    #[test]
    fn tiers_assigned_by_level() {
        let layout = HierarchySpec::new(3, 2).build(GroupId(1)).unwrap();
        assert_eq!(layout.rings_at(0).next().unwrap().tier, Tier::BorderRouter);
        assert_eq!(layout.rings_at(1).next().unwrap().tier, Tier::AccessGateway);
        assert_eq!(layout.rings_at(2).next().unwrap().tier, Tier::AccessProxy);
    }

    #[test]
    fn ring_chain_walks_to_root() {
        let layout = HierarchySpec::new(3, 2).build(GroupId(1)).unwrap();
        let bottom_ring = layout.rings_at(2).next().unwrap().id;
        let chain = layout.ring_chain_to_root(bottom_ring).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(*chain.last().unwrap(), layout.root_ring().id);
        // chain levels strictly decrease
        for w in chain.windows(2) {
            let a = layout.ring(w[0]).unwrap().level;
            let b = layout.ring(w[1]).unwrap().level;
            assert_eq!(a, b + 1);
        }
    }

    #[test]
    fn edge_count_full() {
        // h=2, r=2: rings {root(2 nodes), 2 children(2 nodes each)} →
        // ring edges 6, tree edges 2.
        let layout = HierarchySpec::new(2, 2).build(GroupId(1)).unwrap();
        assert_eq!(layout.edge_count(), 8);
    }

    #[test]
    fn custom_layout_irregular() {
        // root ring {0,1}; node 0 sponsors {10,11,12}; node 1 sponsors {20}
        let layout = HierarchyLayout::custom(
            GroupId(1),
            vec![
                vec![vec![NodeId(0), NodeId(1)]],
                vec![vec![NodeId(10), NodeId(11), NodeId(12)], vec![NodeId(20)]],
            ],
        )
        .unwrap();
        assert_eq!(layout.ring_count(), 3);
        assert_eq!(layout.placement(NodeId(0)).unwrap().child_ring, Some(RingId(1)));
        assert_eq!(layout.placement(NodeId(1)).unwrap().child_ring, Some(RingId(2)));
        assert_eq!(layout.placement(NodeId(12)).unwrap().parent_node, Some(NodeId(0)));
        assert_eq!(layout.aps(), vec![NodeId(10), NodeId(11), NodeId(12), NodeId(20)]);
    }

    #[test]
    fn custom_layout_rejects_duplicates_and_orphans() {
        // duplicate node
        assert!(HierarchyLayout::custom(
            GroupId(1),
            vec![vec![vec![NodeId(0)]], vec![vec![NodeId(0)]],],
        )
        .is_err());
        // two topmost rings
        assert!(HierarchyLayout::custom(GroupId(1), vec![vec![vec![NodeId(0)], vec![NodeId(1)]]],)
            .is_err());
        // more rings than sponsors
        assert!(HierarchyLayout::custom(
            GroupId(1),
            vec![vec![vec![NodeId(0)]], vec![vec![NodeId(1)], vec![NodeId(2)]],],
        )
        .is_err());
    }

    #[test]
    fn rings_dfs_visits_every_ring_subtree_contiguously() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        let order = layout.rings_dfs();
        assert_eq!(order.len(), layout.ring_count());
        let mut seen = std::collections::BTreeSet::new();
        assert!(order.iter().all(|r| seen.insert(*r)), "no ring visited twice");
        assert_eq!(order[0], layout.root_ring().id);
        // Preorder: every non-root ring appears after its parent ring.
        let pos = |id: RingId| order.iter().position(|&r| r == id).unwrap();
        for ring in &layout.rings[1..] {
            assert!(pos(ring.parent_ring.unwrap()) < pos(ring.id));
        }
    }

    /// Node count of every group of `layout.partition_rings(shards)`, after
    /// checking the cut's contract: whole rings, contiguous cuts of the DFS
    /// order, empty groups only at the tail, and every non-empty group
    /// within one largest ring of `T/k`.
    fn checked_group_nodes(layout: &HierarchyLayout, shards: usize) -> Vec<usize> {
        let groups = layout.partition_rings(shards);
        assert_eq!(groups.len(), shards);
        // Concatenated, the groups are the DFS order itself: every ring in
        // exactly one group, every group a contiguous cut.
        let joined: Vec<RingId> = groups.iter().flatten().copied().collect();
        assert_eq!(joined, layout.rings_dfs(), "{shards} shards");
        let first_empty = groups.iter().position(|g| g.is_empty()).unwrap_or(shards);
        assert!(groups[first_empty..].iter().all(|g| g.is_empty()), "{shards} shards: {groups:?}");
        let nodes: Vec<usize> = groups
            .iter()
            .map(|g| g.iter().map(|&r| layout.ring(r).unwrap().nodes.len()).sum())
            .collect();
        let total = layout.node_count();
        let largest = layout.rings.iter().map(|r| r.nodes.len()).max().unwrap();
        for &n in nodes.iter().filter(|&&n| n > 0) {
            // |n − T/k| ≤ M, scaled by k to stay in integers.
            assert!(
                (n * shards).abs_diff(total) <= largest * shards,
                "{shards} shards: a group of {n} is more than one ring ({largest}) off \
                 {total}/{shards}; groups hold {nodes:?}"
            );
        }
        nodes
    }

    #[test]
    fn partition_rings_is_whole_ring_and_balanced() {
        let ids = |r: std::ops::Range<u64>| r.map(NodeId).collect::<Vec<_>>();
        // The irregular layout of `node.rs`'s tests: rings of 1 to 4 nodes.
        let irregular = HierarchyLayout::custom(
            GroupId(1),
            vec![
                vec![ids(0..3)],
                vec![ids(10..12), ids(12..16)],
                vec![ids(20..21), ids(21..24), ids(24..26)],
            ],
        )
        .unwrap();
        let mut layouts = vec![irregular];
        for (h, r) in [(3, 4), (3, 6), (2, 13), (4, 3)] {
            layouts.push(HierarchySpec::new(h, r).build(GroupId(1)).unwrap());
        }
        for layout in &layouts {
            for shards in 1..=16 {
                checked_group_nodes(layout, shards);
            }
        }
        // h=3 r=4 is 84 nodes in rings of 4: the even split exists, and is
        // found.
        assert_eq!(checked_group_nodes(&layouts[1], 3), vec![28, 28, 28]);
    }

    #[test]
    fn partition_rings_splits_the_fleet_shape_evenly() {
        // h=3 r=46 is the 99,498-NE shape the benchmark shards.
        let layout = HierarchySpec::new(3, 46).build(GroupId(1)).unwrap();
        for shards in [2usize, 3, 4, 8] {
            let nodes = checked_group_nodes(&layout, shards);
            let (min, max) = (nodes.iter().min().unwrap(), nodes.iter().max().unwrap());
            assert!(max * 100 <= min * 101, "{shards} shards: max/min > 1.01 in {nodes:?}");
        }
    }

    #[test]
    fn partition_rings_with_more_shards_than_rings_leaves_empty_tails() {
        let layout = HierarchySpec::new(1, 3).build(GroupId(1)).unwrap();
        let groups = layout.partition_rings(8);
        assert_eq!(groups.len(), 8);
        assert_eq!(groups[0], vec![layout.root_ring().id]);
        assert!(groups[1..].iter().all(|g| g.is_empty()));
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        let ids: Vec<u64> = layout.nodes.keys().map(|n| n.0).collect();
        let expect: Vec<u64> = (0..layout.node_count() as u64).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn indexer_round_trips_dense_layout() {
        let layout = HierarchySpec::new(3, 3).build(GroupId(1)).unwrap();
        let idx = layout.indexer();
        assert_eq!(idx.len(), layout.node_count());
        for (i, id) in idx.iter() {
            assert_eq!(idx.index_of(id), Some(i));
            assert_eq!(idx.id_of(i), id);
            assert_eq!(layout.index_of(id), Some(i));
        }
        // Dense spec layouts: idx == id.
        assert_eq!(idx.index_of(NodeId(7)), Some(NodeIdx(7)));
        assert_eq!(idx.index_of(NodeId(9_999)), None);
        assert_eq!(layout.index_of(NodeId(9_999)), None);
    }

    #[test]
    fn indexer_handles_sparse_custom_layouts() {
        // Sparse ids force either the slack-bounded direct map or binary
        // search; both must agree with rank-in-id-order semantics.
        let layout = HierarchyLayout::custom(
            GroupId(1),
            vec![
                vec![vec![NodeId(5), NodeId(900_000)]],
                vec![vec![NodeId(17)], vec![NodeId(23), NodeId(1_000_000)]],
            ],
        )
        .unwrap();
        let idx = layout.indexer();
        assert_eq!(idx.len(), 5);
        let expect = [NodeId(5), NodeId(17), NodeId(23), NodeId(900_000), NodeId(1_000_000)];
        for (rank, &id) in expect.iter().enumerate() {
            assert_eq!(idx.index_of(id), Some(NodeIdx(rank as u32)), "rank of {id}");
            assert_eq!(idx.id_of(NodeIdx(rank as u32)), id);
            assert_eq!(layout.index_of(id), Some(NodeIdx(rank as u32)));
        }
        assert_eq!(idx.index_of(NodeId(6)), None);
        assert_eq!(idx.index_of(NodeId(2_000_000)), None);
    }
}
