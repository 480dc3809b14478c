//! Shard assignment and lookahead derivation for the parallel engine.
//!
//! The node→shard map is a thin arena view over
//! [`HierarchyLayout::partition_rings`]: rings are never split and
//! sponsored subtrees stay contiguous, so the overwhelming share of
//! protocol traffic (intra-ring token rounds, parent–child notifications)
//! never crosses a shard boundary. What *can* cross is what bounds the
//! conservative window, and it is bounded **per ordered shard pair**: the
//! [`LookaheadMatrix`] records, for every `(from, to)`, the minimum
//! latency-band floor over link classes that cross from `from`'s nodes to
//! `to`'s. A tight inter-tier sponsor link then only throttles the two
//! shards it joins; every other pair advances on the (larger) wide-area
//! floor, and a shard nobody can reach runs free to the deadline.

use crate::network::{LinkClass, NetConfig};
use rgb_core::prelude::*;
use rgb_core::topology::{HierarchyLayout, NodeIdx, NodeIndexer};

/// Immutable node→shard arena of one partitioned layout.
#[derive(Debug)]
pub(crate) struct ShardMap {
    /// Number of shards (groups; trailing ones may be empty).
    pub shards: usize,
    /// Global [`NodeIdx`] → owning shard.
    pub shard_of: Vec<u16>,
    /// Global [`NodeIdx`] → index local to the owning shard's arenas.
    pub local_of: Vec<u32>,
    /// Per shard: its nodes as global indices, ascending (local index
    /// order therefore follows global id order).
    pub members: Vec<Vec<NodeIdx>>,
}

impl ShardMap {
    /// Partition `layout` into `shards` groups (see
    /// [`HierarchyLayout::partition_rings`]).
    pub fn new(layout: &HierarchyLayout, indexer: &NodeIndexer, shards: usize) -> Self {
        let groups = layout.partition_rings(shards);
        let mut shard_of = vec![0u16; indexer.len()];
        for (s, rings) in groups.iter().enumerate() {
            for &rid in rings {
                for &node in &layout.ring(rid).expect("partition ring exists").nodes {
                    let idx = indexer.index_of(node).expect("ring node is in layout");
                    shard_of[idx.as_usize()] = s as u16;
                }
            }
        }
        let mut members: Vec<Vec<NodeIdx>> = vec![Vec::new(); shards];
        let mut local_of = vec![0u32; indexer.len()];
        for (idx, _) in indexer.iter() {
            let s = shard_of[idx.as_usize()] as usize;
            local_of[idx.as_usize()] = members[s].len() as u32;
            members[s].push(idx);
        }
        ShardMap { shards, shard_of, local_of, members }
    }

    /// Owning shard of a global index.
    #[inline]
    pub fn shard_of(&self, idx: NodeIdx) -> usize {
        self.shard_of[idx.as_usize()] as usize
    }

    /// Local index of a global index within its owning shard.
    #[inline]
    pub fn local_of(&self, idx: NodeIdx) -> NodeIdx {
        NodeIdx(self.local_of[idx.as_usize()])
    }

    /// Shards that actually own nodes.
    pub fn populated(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }
}

/// Per-ordered-pair conservative lookahead of a partitioned layout under
/// a [`NetConfig`]: `floor(from, to)` is the minimum number of ticks any
/// frame from a node on shard `from` to a node on shard `to` spends in
/// flight.
///
/// Derived from the [`crate::network::LatencyBand`] floors per link class,
/// restricted to classes that can cross that specific pair under `map`:
///
/// - wide-area always can (any two non-adjacent nodes on different
///   shards), so every ordered pair of populated shards starts at the
///   wide-area floor;
/// - intra-ring only if the partitioner split a ring across the pair (it
///   never does today, but the derivation re-checks rather than assumes);
/// - inter-tier only if a sponsor link joins the pair — and it tightens
///   **both** directions (`notify_parent` flows up, `notify_child` and
///   token-triggered acknowledgements flow down).
///
/// The wireless class never contributes: the MH→AP hop is resolved at
/// schedule time and routed directly to the proxy's shard. Pairs that
/// involve an **empty shard** (possible when shards > rings) carry
/// `u64::MAX` — there is no node to send or receive, so nothing bounds
/// the window — and every consumer uses saturating arithmetic so the
/// sentinel never overflows into a bogus horizon.
#[derive(Debug)]
pub(crate) struct LookaheadMatrix {
    shards: usize,
    /// `floors[from * shards + to]`; `u64::MAX` on the diagonal, for
    /// empty-shard pairs, and when fewer than two shards are populated.
    floors: Vec<u64>,
    /// Per destination: `min` over incoming edges (`u64::MAX` when no
    /// populated peer can reach it).
    incoming: Vec<u64>,
    /// `min` over every ordered pair — the old single global floor.
    global: u64,
}

impl LookaheadMatrix {
    /// Derive the matrix for `map` over `layout` under `net`.
    pub fn new(
        layout: &HierarchyLayout,
        indexer: &NodeIndexer,
        map: &ShardMap,
        net: &NetConfig,
    ) -> Self {
        let n = map.shards;
        let mut floors = vec![u64::MAX; n * n];
        let populated: Vec<bool> = map.members.iter().map(|m| !m.is_empty()).collect();
        if map.populated() >= 2 {
            let wide = net.min_latency(LinkClass::WideArea);
            for from in 0..n {
                for to in 0..n {
                    if from != to && populated[from] && populated[to] {
                        floors[from * n + to] = wide;
                    }
                }
            }
            let mut tighten = |a: usize, b: usize, floor: u64| {
                let ab = &mut floors[a * n + b];
                *ab = (*ab).min(floor);
                let ba = &mut floors[b * n + a];
                *ba = (*ba).min(floor);
            };
            let shard = |node: NodeId| {
                indexer.index_of(node).map(|idx| map.shard_of(idx)).expect("layout node")
            };
            for ring in &layout.rings {
                // A split ring (never produced by partition_rings today,
                // re-checked rather than assumed) tightens every pair of
                // shards its members straddle.
                let mut ring_shards: Vec<usize> = ring.nodes.iter().map(|&n| shard(n)).collect();
                ring_shards.sort_unstable();
                ring_shards.dedup();
                for (k, &a) in ring_shards.iter().enumerate() {
                    for &b in &ring_shards[k + 1..] {
                        tighten(a, b, net.min_latency(LinkClass::IntraRing));
                    }
                }
                if let Some(parent) = ring.parent_node {
                    let ps = shard(parent);
                    for &node in &ring.nodes {
                        let s = shard(node);
                        if s != ps {
                            tighten(s, ps, net.min_latency(LinkClass::InterTier));
                        }
                    }
                }
            }
        }
        let incoming: Vec<u64> = (0..n)
            .map(|to| (0..n).map(|from| floors[from * n + to]).min().unwrap_or(u64::MAX))
            .collect();
        let global = incoming.iter().copied().min().unwrap_or(u64::MAX);
        LookaheadMatrix { shards: n, floors, incoming, global }
    }

    /// Minimum in-flight ticks for frames from shard `from` to shard `to`
    /// (`u64::MAX` when no link class can cross that pair).
    #[inline]
    pub fn floor(&self, from: usize, to: usize) -> u64 {
        self.floors[from * self.shards + to]
    }

    /// Minimum over `to`'s incoming edges — the tightest bound any peer
    /// imposes on `to`'s window.
    #[inline]
    pub fn incoming(&self, to: usize) -> u64 {
        self.incoming[to]
    }

    /// The single global floor (minimum over every ordered pair): the
    /// idle-skip grid of the window driver, `u64::MAX` when at most one
    /// shard is populated (the whole run is one window), and 0 when the
    /// network admits no conservative window at all — which is how
    /// `ParSimulation::new` knows to hold the layout as one shard instead.
    #[inline]
    pub fn global(&self) -> u64 {
        self.global
    }

    /// Largest finite pair floor (equals [`LookaheadMatrix::global`] when
    /// no pair exists) — reported by the benches to show how much
    /// per-pair slack the topology offers over the global floor.
    pub fn max_pair(&self) -> u64 {
        self.floors.iter().copied().filter(|&f| f != u64::MAX).max().unwrap_or(self.global)
    }

    /// The last tick shard `to` may safely process, given a vector of
    /// per-shard clock lower bounds (`clocks[i]` = no event of shard `i`
    /// — pending or future — happens before `clocks[i]`): any future
    /// frame from `i` arrives at `clocks[i] + floor(i, to)` or later, so
    /// `to` may run through that arrival minus one. Saturating throughout
    /// — idle peers and empty shards sit at `u64::MAX` and impose no
    /// bound, leaving `to` free to the deadline.
    pub fn horizon_of(&self, clocks: &[u64], to: usize, deadline: u64) -> u64 {
        if self.incoming(to) == u64::MAX {
            // No populated peer can reach this shard at all: it runs free
            // to the caller's synchronisation horizon.
            return deadline;
        }
        let mut horizon = u64::MAX;
        for (from, &clock) in clocks.iter().enumerate() {
            if from == to {
                continue;
            }
            let floor = self.floor(from, to);
            if floor == u64::MAX {
                continue;
            }
            horizon = horizon.min(clock.saturating_add(floor).saturating_sub(1));
        }
        horizon.min(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LatencyBand;

    fn layout() -> HierarchyLayout {
        HierarchySpec::new(3, 3).build(GroupId(1)).unwrap()
    }

    #[test]
    fn map_round_trips_local_and_global_indices() {
        let layout = layout();
        let indexer = layout.indexer();
        for shards in [1usize, 2, 4, 8] {
            let map = ShardMap::new(&layout, &indexer, shards);
            assert_eq!(map.shards, shards);
            let mut seen = 0usize;
            for (s, members) in map.members.iter().enumerate() {
                for (local, &global) in members.iter().enumerate() {
                    assert_eq!(map.shard_of(global), s);
                    assert_eq!(map.local_of(global), NodeIdx(local as u32));
                    seen += 1;
                }
                // Local order follows global id order.
                assert!(members.windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(seen, indexer.len(), "every node owned exactly once");
        }
    }

    #[test]
    fn rings_are_never_split() {
        let layout = layout();
        let indexer = layout.indexer();
        let map = ShardMap::new(&layout, &indexer, 4);
        for ring in &layout.rings {
            let shards: std::collections::BTreeSet<usize> =
                ring.nodes.iter().map(|&n| map.shard_of(indexer.index_of(n).unwrap())).collect();
            assert_eq!(shards.len(), 1, "ring {} split across {shards:?}", ring.id);
        }
    }

    #[test]
    fn global_floor_is_min_cross_shard_band_floor() {
        let layout = layout();
        let indexer = layout.indexer();
        let mut net = NetConfig {
            intra_ring: LatencyBand { min: 2, max: 4 },
            inter_tier: LatencyBand { min: 7, max: 9 },
            wide_area: LatencyBand { min: 12, max: 20 },
            ..NetConfig::default()
        };

        // One shard: no cross traffic, unbounded window.
        let one = ShardMap::new(&layout, &indexer, 1);
        assert_eq!(LookaheadMatrix::new(&layout, &indexer, &one, &net).global(), u64::MAX);

        // Multiple shards: rings stay whole, so intra-ring never bounds;
        // sponsor links cross, so the floor is min(inter_tier, wide_area).
        let four = ShardMap::new(&layout, &indexer, 4);
        assert_eq!(LookaheadMatrix::new(&layout, &indexer, &four, &net).global(), 7);

        // If the wide-area floor is the smallest it wins.
        net.wide_area = LatencyBand { min: 3, max: 5 };
        assert_eq!(LookaheadMatrix::new(&layout, &indexer, &four, &net).global(), 3);

        // Zero floors (instant nets) yield zero lookahead.
        assert_eq!(
            LookaheadMatrix::new(&layout, &indexer, &four, &NetConfig::instant()).global(),
            0,
            "instant net has no conservative window"
        );
    }

    #[test]
    fn pair_floors_distinguish_sponsor_links_from_wide_area() {
        let layout = layout();
        let indexer = layout.indexer();
        let net = NetConfig {
            intra_ring: LatencyBand { min: 2, max: 4 },
            inter_tier: LatencyBand { min: 7, max: 9 },
            wide_area: LatencyBand { min: 12, max: 20 },
            ..NetConfig::default()
        };
        let map = ShardMap::new(&layout, &indexer, 4);
        let la = LookaheadMatrix::new(&layout, &indexer, &map, &net);
        let shard = |node: NodeId| map.shard_of(indexer.index_of(node).unwrap());

        // Every pair crossed by a sponsor link carries the inter-tier
        // floor in both directions; every other populated pair only the
        // wide-area floor.
        let mut sponsored = std::collections::BTreeSet::new();
        for ring in &layout.rings {
            if let Some(parent) = ring.parent_node {
                let ps = shard(parent);
                for &node in &ring.nodes {
                    let s = shard(node);
                    if s != ps {
                        sponsored.insert((s, ps));
                        sponsored.insert((ps, s));
                    }
                }
            }
        }
        assert!(!sponsored.is_empty(), "4-shard split must cross sponsor links");
        let mut wide_pairs = 0;
        for from in 0..4 {
            for to in 0..4 {
                if from == to {
                    assert_eq!(la.floor(from, to), u64::MAX, "diagonal is unbounded");
                } else if sponsored.contains(&(from, to)) {
                    assert_eq!(la.floor(from, to), 7, "sponsor pair ({from},{to})");
                } else {
                    assert_eq!(la.floor(from, to), 12, "wide-area pair ({from},{to})");
                    wide_pairs += 1;
                }
            }
        }
        assert!(wide_pairs > 0, "per-pair lookahead must beat the global floor somewhere");
        assert_eq!(la.max_pair(), 12);
    }

    #[test]
    fn pair_matrix_is_everywhere_at_least_the_global_floor() {
        let layout = layout();
        let indexer = layout.indexer();
        let nets = [
            NetConfig::default(),
            NetConfig {
                intra_ring: LatencyBand { min: 2, max: 4 },
                inter_tier: LatencyBand { min: 7, max: 9 },
                wide_area: LatencyBand { min: 25, max: 80 },
                ..NetConfig::default()
            },
            NetConfig::instant(),
        ];
        for net in &nets {
            for shards in [2usize, 3, 4, 8] {
                let map = ShardMap::new(&layout, &indexer, shards);
                let la = LookaheadMatrix::new(&layout, &indexer, &map, net);
                let global = la.global();
                for from in 0..shards {
                    assert!(la.incoming(from) >= global);
                    for to in 0..shards {
                        assert!(
                            la.floor(from, to) >= global,
                            "floor({from},{to}) below global with {shards} shards"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_shards_never_bound_a_window() {
        // 1 + 3 rings: 8 requested shards leave at least four empty —
        // the "subtree crashed out" shape. Empty shards must carry the
        // u64::MAX sentinel without it leaking into peers' horizons.
        let layout = HierarchySpec::new(2, 3).build(GroupId(1)).unwrap();
        let indexer = layout.indexer();
        let map = ShardMap::new(&layout, &indexer, 8);
        assert!(map.populated() < 8, "test needs empty shards");
        let la = LookaheadMatrix::new(&layout, &indexer, &map, &NetConfig::default());
        for s in 0..8 {
            if map.members[s].is_empty() {
                assert_eq!(la.incoming(s), u64::MAX, "empty shard {s} has no incoming edges");
                for peer in 0..8 {
                    assert_eq!(la.floor(s, peer), u64::MAX);
                    assert_eq!(la.floor(peer, s), u64::MAX);
                }
            } else {
                assert!(la.incoming(s) < u64::MAX, "populated shard {s} is reachable");
            }
        }
        // Saturating horizon math: clocks parked at u64::MAX (idle or
        // empty peers) must not overflow into a tiny bogus horizon.
        let clocks = vec![u64::MAX; 8];
        for s in 0..8 {
            assert_eq!(la.horizon_of(&clocks, s, 1_000), 1_000);
        }
        // A single live peer bounds a populated shard as usual.
        let (a, b) = {
            let mut populated = (0..8).filter(|&s| !map.members[s].is_empty());
            (populated.next().unwrap(), populated.next().unwrap())
        };
        let mut clocks = vec![u64::MAX; 8];
        clocks[a] = 100;
        assert_eq!(la.horizon_of(&clocks, b, u64::MAX), 100 + la.floor(a, b) - 1);
    }
}
