//! The network model: per-link-class latency distributions and message
//! loss, standing in for the paper's mobile Internet (wireless access hop,
//! intra-AS links between ring peers, inter-AS links between tiers).

use crate::rng::SplitMix64;
use rgb_core::prelude::NodeId;
use rgb_core::topology::{HierarchyLayout, NodeIdx, NodeIndexer};
use serde::{Deserialize, Serialize};

/// Classification of one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Mobile host to access proxy (wireless last hop).
    Wireless,
    /// Between two nodes of the same ring (intra-AS / local area).
    IntraRing,
    /// Between a ring node and its sponsor / child (inter-tier).
    InterTier,
    /// Any other NE-to-NE path (query shortcuts, re-attachment probes).
    WideArea,
}

impl LinkClass {
    /// Number of link classes (array dimension for per-class counters).
    pub const COUNT: usize = 4;

    /// Every class, in slot order.
    pub const ALL: [LinkClass; Self::COUNT] =
        [LinkClass::Wireless, LinkClass::IntraRing, LinkClass::InterTier, LinkClass::WideArea];

    /// Dense counter slot of this class.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LinkClass::Wireless => 0,
            LinkClass::IntraRing => 1,
            LinkClass::InterTier => 2,
            LinkClass::WideArea => 3,
        }
    }
}

/// Latency band for one link class, in simulator ticks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyBand {
    /// Minimum latency.
    pub min: u64,
    /// Maximum latency (inclusive; uniform within the band).
    pub max: u64,
}

impl LatencyBand {
    /// A fixed latency.
    pub fn fixed(v: u64) -> Self {
        LatencyBand { min: v, max: v }
    }

    /// Whether the band is well-formed (`min <= max`). Inverted bands are a
    /// configuration error caught by [`NetConfig::validate`], never silently
    /// repaired at sampling time.
    pub fn is_valid(&self) -> bool {
        self.min <= self.max
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        debug_assert!(self.is_valid(), "inverted band must be rejected at validation");
        if self.max == self.min {
            self.min
        } else {
            rng.range(self.min, self.max + 1)
        }
    }
}

/// Network configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Wireless last-hop latency.
    pub wireless: LatencyBand,
    /// Intra-ring latency.
    pub intra_ring: LatencyBand,
    /// Parent/child (inter-tier) latency.
    pub inter_tier: LatencyBand,
    /// Everything else.
    pub wide_area: LatencyBand,
    /// Probability an NE-to-NE message is silently lost.
    pub loss: f64,
    /// Probability the wireless hop loses a message.
    pub wireless_loss: f64,
    /// Probability an NE-to-NE frame is **duplicated** in transit (the copy
    /// samples its own independent latency). The wireless hop is exempt:
    /// its per-MH FIFO ordering models link-layer retransmission, which
    /// already deduplicates.
    pub dup: f64,
    /// Probability an NE-to-NE frame is **delayed out of band** (reordered
    /// past later traffic): the frame's latency is inflated by a uniform
    /// extra in `[1, reorder_extra]`.
    pub reorder: f64,
    /// Upper bound of the reorder delay (ticks); must be ≥ 1 whenever
    /// `reorder > 0`.
    pub reorder_extra: u64,
}

impl Default for NetConfig {
    /// A mobile-Internet-flavoured default: fast LAN-ish rings, slower
    /// inter-tier links, slowest wireless hop. One tick ≈ 0.1 ms.
    fn default() -> Self {
        NetConfig {
            wireless: LatencyBand { min: 20, max: 60 },
            intra_ring: LatencyBand { min: 5, max: 15 },
            inter_tier: LatencyBand { min: 10, max: 40 },
            wide_area: LatencyBand { min: 10, max: 40 },
            loss: 0.0,
            wireless_loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_extra: 0,
        }
    }
}

impl NetConfig {
    /// Zero-latency, lossless network (pure hop counting).
    pub fn instant() -> Self {
        NetConfig {
            wireless: LatencyBand::fixed(0),
            intra_ring: LatencyBand::fixed(0),
            inter_tier: LatencyBand::fixed(0),
            wide_area: LatencyBand::fixed(0),
            loss: 0.0,
            wireless_loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_extra: 0,
        }
    }

    /// Fixed unit latency (deterministic ordering tests).
    pub fn unit() -> Self {
        NetConfig {
            wireless: LatencyBand::fixed(1),
            intra_ring: LatencyBand::fixed(1),
            inter_tier: LatencyBand::fixed(1),
            wide_area: LatencyBand::fixed(1),
            loss: 0.0,
            wireless_loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_extra: 0,
        }
    }

    fn band(&self, class: LinkClass) -> LatencyBand {
        match class {
            LinkClass::Wireless => self.wireless,
            LinkClass::IntraRing => self.intra_ring,
            LinkClass::InterTier => self.inter_tier,
            LinkClass::WideArea => self.wide_area,
        }
    }

    /// Validate the configuration: every latency band must satisfy
    /// `min <= max` and both loss probabilities must lie in `[0, 1]`.
    /// An inverted band (`max < min`) is a configuration error, reported
    /// here instead of being silently clamped at sampling time.
    pub fn validate(&self) -> Result<(), String> {
        for (name, band) in [
            ("wireless", self.wireless),
            ("intra_ring", self.intra_ring),
            ("inter_tier", self.inter_tier),
            ("wide_area", self.wide_area),
        ] {
            if !band.is_valid() {
                return Err(format!(
                    "net config: {name} latency band is inverted (min {} > max {})",
                    band.min, band.max
                ));
            }
        }
        for (name, p) in [
            ("loss", self.loss),
            ("wireless_loss", self.wireless_loss),
            ("dup", self.dup),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("net config: {name} probability {p} outside [0, 1]"));
            }
        }
        if self.reorder > 0.0 && self.reorder_extra == 0 {
            return Err("net config: reorder > 0 requires reorder_extra >= 1".to_string());
        }
        Ok(())
    }
}

/// Stateful network model: classifies links against the layout and samples
/// latency / loss.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    cfg: NetConfig,
}

impl NetworkModel {
    /// New model over a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`]; use
    /// [`NetworkModel::try_new`] to handle the error instead.
    pub fn new(cfg: NetConfig) -> Self {
        Self::try_new(cfg).expect("invalid NetConfig")
    }

    /// Fallible constructor: validates the configuration first.
    pub fn try_new(cfg: NetConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(NetworkModel { cfg })
    }

    /// Classify an NE-to-NE transmission.
    pub fn classify(&self, layout: &HierarchyLayout, from: NodeId, to: NodeId) -> LinkClass {
        let (Ok(a), Ok(b)) = (layout.placement(from), layout.placement(to)) else {
            return LinkClass::WideArea;
        };
        if a.ring == b.ring {
            return LinkClass::IntraRing;
        }
        let parent_child = a.parent_node == Some(to)
            || b.parent_node == Some(from)
            || a.child_ring.map(|r| r == b.ring).unwrap_or(false)
            || b.child_ring.map(|r| r == a.ring).unwrap_or(false);
        if parent_child {
            LinkClass::InterTier
        } else {
            LinkClass::WideArea
        }
    }

    /// Sample delivery latency for a class.
    pub fn latency(&self, class: LinkClass, rng: &mut SplitMix64) -> u64 {
        self.cfg.band(class).sample(rng)
    }

    /// Sample whether a transmission of this class is lost.
    pub fn lost(&self, class: LinkClass, rng: &mut SplitMix64) -> bool {
        let p = match class {
            LinkClass::Wireless => self.cfg.wireless_loss,
            _ => self.cfg.loss,
        };
        p > 0.0 && rng.chance(p)
    }

    /// Sample whether an NE-to-NE frame is duplicated in transit. Draws
    /// from the RNG only when duplication is configured, so legacy
    /// scenarios keep their exact event streams.
    pub fn duplicated(&self, rng: &mut SplitMix64) -> bool {
        self.cfg.dup > 0.0 && rng.chance(self.cfg.dup)
    }

    /// Sample the out-of-band reorder delay for an NE-to-NE frame: `0` for
    /// frames delivered in band, otherwise a uniform extra latency in
    /// `[1, reorder_extra]`. Draws from the RNG only when reordering is
    /// configured.
    pub fn reorder_delay(&self, rng: &mut SplitMix64) -> u64 {
        if self.cfg.reorder > 0.0 && rng.chance(self.cfg.reorder) {
            rng.range(1, self.cfg.reorder_extra + 1)
        } else {
            0
        }
    }

    /// Decide the fate of one NE-to-NE frame of `class`: `None` when the
    /// network loses it, otherwise the sampled delivery plan.
    ///
    /// This is the **single** sampling routine both engines use — the
    /// sequential [`crate::sim::Simulation`] and every shard of
    /// [`crate::par::ParSimulation`] — so the draw order (loss, latency,
    /// reorder, duplication, duplicate latency) can never diverge between
    /// them. Dimensions that are switched off draw nothing.
    pub(crate) fn plan_frame(&self, class: LinkClass, rng: &mut SplitMix64) -> Option<FramePlan> {
        if self.lost(class, rng) {
            return None;
        }
        let mut latency = self.latency(class, rng);
        let extra = self.reorder_delay(rng);
        let reordered = extra > 0;
        latency += extra;
        let dup_latency = self.duplicated(rng).then(|| self.latency(class, rng));
        Some(FramePlan { latency, reordered, dup_latency })
    }
}

/// The sampled fate of one frame that the network delivers (see
/// [`NetworkModel::plan_frame`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FramePlan {
    /// Delivery latency of the primary copy (reorder extra included).
    pub latency: u64,
    /// Whether the reordering fault dimension delayed this frame out of
    /// band.
    pub reordered: bool,
    /// Latency of the duplicated copy, when the duplication dimension
    /// fired.
    pub dup_latency: Option<u64>,
}

impl NetConfig {
    /// Floor of the latency band for `class` — the conservative-parallel
    /// engine's lookahead building block: a frame of this class can never
    /// arrive sooner than this many ticks after it was sent.
    pub fn min_latency(&self, class: LinkClass) -> u64 {
        self.band(class).min
    }
}

/// Compact hierarchy coordinates of one node: its ring, its sponsor and the
/// ring it sponsors — all a link class depends on.
#[derive(Debug, Clone, Copy)]
struct NodeCoords {
    /// Ring id.
    ring: u32,
    /// Sponsor's dense index + 1 (0 = root ring, no sponsor).
    parent: u32,
    /// Sponsored child ring id + 1 (0 = leaf node, no child ring).
    child_ring: u32,
}

/// The link classes of one layout, for every ordered node pair.
///
/// The paper's classes are a pure function of each endpoint's ring, sponsor
/// and sponsored ring, so the matrix stores exactly that — one compact
/// coordinate triple per node, built once at engine construction in O(N) —
/// and [`LinkClassMatrix::classify`] compares two of them: two loads and a
/// handful of integer compares in place of the two `placement()` B-tree
/// walks of [`NetworkModel::classify`], with which it agrees on every pair
/// (property-tested).
#[derive(Debug, Clone)]
pub struct LinkClassMatrix {
    /// Per-node coordinates, by dense index.
    coords: Vec<NodeCoords>,
}

impl LinkClassMatrix {
    /// The coordinates of every node of `layout`.
    pub fn new(layout: &HierarchyLayout, indexer: &NodeIndexer) -> Self {
        let coords = (0..indexer.len())
            .map(|i| {
                let id = indexer.id_of(NodeIdx(i as u32));
                let p = layout.placement(id).expect("indexer node is in layout");
                NodeCoords {
                    ring: p.ring.0,
                    parent: p
                        .parent_node
                        .and_then(|pn| indexer.index_of(pn))
                        .map(|pi| pi.0 + 1)
                        .unwrap_or(0),
                    child_ring: p.child_ring.map(|r| r.0 + 1).unwrap_or(0),
                }
            })
            .collect();
        LinkClassMatrix { coords }
    }

    /// Classify an ordered pair of dense node indices. `None` (a node
    /// outside the layout) classifies as wide-area, mirroring
    /// [`NetworkModel::classify`].
    #[inline]
    pub fn classify(&self, from: Option<NodeIdx>, to: Option<NodeIdx>) -> LinkClass {
        let (Some(from), Some(to)) = (from, to) else {
            return LinkClass::WideArea;
        };
        let a = self.coords[from.as_usize()];
        let b = self.coords[to.as_usize()];
        if a.ring == b.ring {
            return LinkClass::IntraRing;
        }
        let parent_child = a.parent == to.0 + 1
            || b.parent == from.0 + 1
            || a.child_ring == b.ring + 1
            || b.child_ring == a.ring + 1;
        if parent_child {
            LinkClass::InterTier
        } else {
            LinkClass::WideArea
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgb_core::prelude::*;

    fn layout() -> HierarchyLayout {
        HierarchySpec::new(3, 3).build(GroupId(1)).unwrap()
    }

    #[test]
    fn classifies_intra_ring() {
        let l = layout();
        let m = NetworkModel::new(NetConfig::default());
        let ring = l.rings_at(2).next().unwrap();
        assert_eq!(m.classify(&l, ring.nodes[0], ring.nodes[1]), LinkClass::IntraRing);
    }

    #[test]
    fn classifies_inter_tier_both_directions() {
        let l = layout();
        let m = NetworkModel::new(NetConfig::default());
        let ring = l.rings_at(2).next().unwrap();
        let sponsor = ring.parent_node.unwrap();
        assert_eq!(m.classify(&l, ring.nodes[0], sponsor), LinkClass::InterTier);
        assert_eq!(m.classify(&l, sponsor, ring.nodes[0]), LinkClass::InterTier);
    }

    #[test]
    fn classifies_wide_area() {
        let l = layout();
        let m = NetworkModel::new(NetConfig::default());
        // two APs in different subtrees
        let aps = l.aps();
        let a = aps[0];
        let b = aps[aps.len() - 1];
        assert_eq!(m.classify(&l, a, b), LinkClass::WideArea);
    }

    #[test]
    fn latency_respects_band() {
        let m = NetworkModel::new(NetConfig::default());
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = m.latency(LinkClass::IntraRing, &mut rng);
            assert!((5..=15).contains(&v));
        }
    }

    #[test]
    fn instant_config_is_zero_latency_lossless() {
        let m = NetworkModel::new(NetConfig::instant());
        let mut rng = SplitMix64::new(1);
        assert_eq!(m.latency(LinkClass::Wireless, &mut rng), 0);
        assert!(!m.lost(LinkClass::IntraRing, &mut rng));
    }

    #[test]
    fn inverted_band_is_a_validation_error() {
        let cfg = NetConfig { intra_ring: LatencyBand { min: 20, max: 5 }, ..NetConfig::default() };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("intra_ring"), "error names the band: {err}");
        assert!(NetworkModel::try_new(cfg).is_err());
        assert!(NetConfig::default().validate().is_ok());
    }

    #[test]
    fn out_of_range_loss_is_a_validation_error() {
        let cfg = NetConfig { loss: 1.5, ..NetConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = NetConfig { wireless_loss: -0.1, ..NetConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = NetConfig { dup: 2.0, ..NetConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = NetConfig { reorder: 0.5, reorder_extra: 0, ..NetConfig::default() };
        assert!(cfg.validate().unwrap_err().contains("reorder_extra"));
    }

    #[test]
    fn dup_and_reorder_sampling_track_probabilities() {
        let m = NetworkModel::new(NetConfig {
            dup: 0.3,
            reorder: 0.5,
            reorder_extra: 10,
            ..NetConfig::default()
        });
        let mut rng = SplitMix64::new(9);
        let n = 50_000;
        let dups = (0..n).filter(|_| m.duplicated(&mut rng)).count();
        assert!((dups as f64 / n as f64 - 0.3).abs() < 0.02);
        let delays: Vec<u64> = (0..n).map(|_| m.reorder_delay(&mut rng)).collect();
        let hit = delays.iter().filter(|&&d| d > 0).count();
        assert!((hit as f64 / n as f64 - 0.5).abs() < 0.02);
        assert!(delays.iter().all(|&d| d <= 10));
        assert!(delays.contains(&10) && delays.contains(&1));
        // With the dimensions off, no RNG draws happen at all.
        let off = NetworkModel::new(NetConfig::default());
        let mut a = SplitMix64::new(1);
        let before = a.clone().next_u64();
        assert!(!off.duplicated(&mut a));
        assert_eq!(off.reorder_delay(&mut a), 0);
        assert_eq!(a.next_u64(), before, "rng untouched when dup/reorder are zero");
    }

    #[test]
    #[should_panic(expected = "invalid NetConfig")]
    fn network_model_new_panics_on_inverted_band() {
        let cfg = NetConfig { wireless: LatencyBand { min: 9, max: 1 }, ..NetConfig::default() };
        let _ = NetworkModel::new(cfg);
    }

    #[test]
    fn loss_frequency_tracks_probability() {
        let cfg = NetConfig { loss: 0.25, ..NetConfig::default() };
        let m = NetworkModel::new(cfg);
        let mut rng = SplitMix64::new(5);
        let n = 100_000;
        let lost = (0..n).filter(|_| m.lost(LinkClass::IntraRing, &mut rng)).count();
        let freq = lost as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }
}
