//! Seeded random [`Scenario`] generation over the widened fault space,
//! and single-dimension **mutation operators** over existing scenarios.
//!
//! `ScenarioGen` samples every dimension an experiment can vary in —
//! topology shape, protocol configuration, network latency bands, loss,
//! **duplication and reordering**, crash plans, **timed link partitions**,
//! churn, mobility and query schedules — so the explored space strictly
//! contains everything the hand-written experiments (E1–E11) exercise.
//! Generation is a pure function of `(master_seed, index)`: the same pair
//! always yields the same scenario, which is what makes a failing seed a
//! complete bug report.
//!
//! [`ScenarioGen::mutate`] is the second half of the coverage-guided loop
//! (see [`super::coverage`]): it perturbs **one dimension at a time** of a
//! corpus parent — topology shape, latency bands, loss/dup/reorder rates,
//! crash/partition/churn schedules, query cadence, duration — so a novel
//! behaviour found by one scenario is explored along each axis of its
//! neighbourhood. Mutations may step *outside* the generation envelope
//! (that is the point: blind sampling can never leave it), bounded only by
//! [`Scenario::validate`] and hard cost clamps. Mutation is as pure as
//! generation: the same `(master_seed, parent, seed)` triple always yields
//! the same mutant.

use crate::fault::{bernoulli_crashes, PlannedCrash};
use crate::network::{LatencyBand, NetConfig};
use crate::rng::SplitMix64;
use crate::scenario::Scenario;
use crate::workload::ChurnParams;
use rgb_core::prelude::*;

/// Size/aggressiveness limits for generation.
#[derive(Debug, Clone, Copy)]
pub struct GenLimits {
    /// Minimum hierarchy height.
    pub min_height: usize,
    /// Maximum hierarchy height.
    pub max_height: usize,
    /// Minimum nodes per logical ring.
    pub min_ring: usize,
    /// Maximum nodes per logical ring (heights 1–2).
    pub max_ring: usize,
    /// Maximum nodes per logical ring at height ≥ 3 (a tall hierarchy
    /// multiplies the ring size into the node count, so the small
    /// envelopes cap it harder).
    pub max_ring_tall: usize,
    /// Scenario duration range (ticks).
    pub duration: (u64, u64),
    /// Maximum Bernoulli crash probability per NE.
    pub max_crash_f: f64,
    /// Maximum number of link partitions.
    pub max_partitions: usize,
    /// Maximum NE-to-NE loss probability.
    pub max_loss: f64,
}

impl GenLimits {
    /// The full exploration envelope (nightly runs).
    pub fn full() -> Self {
        GenLimits {
            min_height: 1,
            max_height: 3,
            min_ring: 3,
            max_ring: 5,
            max_ring_tall: 4,
            duration: (2_000, 8_000),
            max_crash_f: 0.10,
            max_partitions: 2,
            max_loss: 0.05,
        }
    }

    /// The bounded envelope for PR-pipeline smoke runs: small topologies
    /// and short durations, so hundreds of seeds finish in seconds while
    /// still crossing every fault dimension.
    pub fn smoke() -> Self {
        GenLimits {
            min_height: 1,
            max_height: 2,
            min_ring: 3,
            max_ring: 4,
            max_ring_tall: 4,
            duration: (1_200, 2_400),
            max_crash_f: 0.08,
            max_partitions: 1,
            max_loss: 0.04,
        }
    }

    /// The **large** envelope: three-level hierarchies of 10k–50k nodes
    /// (`n = r·(1 + r + r²)`, ring sizes 22–36) with short durations and
    /// *shallow* fault schedules — crash probabilities an order of
    /// magnitude below [`GenLimits::full`], at most one partition, mild
    /// loss. Meant to be driven through [`Backend::Par`](crate::Backend):
    /// the point is the oracle battery at scale, not fault density.
    pub fn large() -> Self {
        GenLimits {
            min_height: 3,
            max_height: 3,
            min_ring: 22,
            max_ring: 36,
            max_ring_tall: 36,
            duration: (800, 1_600),
            max_crash_f: 0.002,
            max_partitions: 1,
            max_loss: 0.02,
        }
    }
}

/// Which single scenario dimension a mutation perturbed.
///
/// Every operator moves exactly one axis of the parent scenario (the
/// protocol seed included — [`MutationOp::Reseed`] is the only operator
/// that touches it), so a coverage delta between parent and child is
/// attributable to that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MutationOp {
    /// Ring size or hierarchy height stepped by one.
    Topology,
    /// One latency band doubled or halved.
    Latency,
    /// NE-to-NE or wireless loss probability rescaled (or toggled).
    Loss,
    /// Duplication or reordering rate rescaled (or toggled).
    DupReorder,
    /// A crash added, dropped, or moved in time.
    Crashes,
    /// A link partition added, dropped, or its window moved.
    Partitions,
    /// A mobile-host join burst added, or one complete lifecycle dropped.
    Churn,
    /// A membership query added, dropped, or moved in time.
    Queries,
    /// Duration grown by half or halved.
    Duration,
    /// Fallback when no structural operator yields a valid scenario:
    /// only the protocol seed changes (always valid).
    Reseed,
}

impl MutationOp {
    /// The structural operators [`ScenarioGen::mutate`] draws from
    /// ([`MutationOp::Reseed`] is only the fallback).
    pub const ALL: [MutationOp; 9] = [
        MutationOp::Topology,
        MutationOp::Latency,
        MutationOp::Loss,
        MutationOp::DupReorder,
        MutationOp::Crashes,
        MutationOp::Partitions,
        MutationOp::Churn,
        MutationOp::Queries,
        MutationOp::Duration,
    ];

    /// Short stable tag used in mutant names and artifact lineage
    /// metadata.
    pub fn short(self) -> &'static str {
        match self {
            MutationOp::Topology => "topo",
            MutationOp::Latency => "lat",
            MutationOp::Loss => "loss",
            MutationOp::DupReorder => "dupre",
            MutationOp::Crashes => "crash",
            MutationOp::Partitions => "part",
            MutationOp::Churn => "churn",
            MutationOp::Queries => "query",
            MutationOp::Duration => "dur",
            MutationOp::Reseed => "seed",
        }
    }

    /// Inverse of [`MutationOp::short`] (artifact lineage parsing).
    pub fn from_short(s: &str) -> Option<MutationOp> {
        MutationOp::ALL
            .iter()
            .chain(std::iter::once(&MutationOp::Reseed))
            .copied()
            .find(|op| op.short() == s)
    }
}

impl std::fmt::Display for MutationOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short())
    }
}

/// A mutated scenario plus the operator that produced it.
#[derive(Debug, Clone)]
pub struct Mutated {
    /// The single dimension that was perturbed.
    pub op: MutationOp,
    /// The child scenario (always passes [`Scenario::validate`]).
    pub scenario: Scenario,
}

/// Hard node-count clamp for topology mutations: mutation may escape the
/// generation envelope, but not into topologies the nightly budget cannot
/// afford to run repeatedly.
const MUTATION_NODE_CAP: usize = 60_000;

/// Rescale a probability one step: switch it on if off (a probability
/// decade blind sampling may set to exactly zero), off if on (sometimes),
/// or double/halve it, clamped to `cap`.
fn scale_prob(p: f64, rng: &mut SplitMix64, cap: f64) -> f64 {
    if p == 0.0 {
        0.004 * f64::from(1u32 << rng.range(0, 4))
    } else if rng.chance(0.25) {
        0.0
    } else if rng.chance(0.5) {
        // Scale up by up to 2³ in one step: a single mutation can cross a
        // whole rate decade, so corpus chains don't need (never-admitted)
        // intermediate steps to reach out-of-envelope behaviour.
        (p * f64::from(1u32 << rng.range(1, 4))).min(cap)
    } else {
        p / f64::from(1u32 << rng.range(1, 4))
    }
}

/// The member identity an [`MhEvent`] concerns (every variant has one).
fn mh_guid(e: &MhEvent) -> Guid {
    match e {
        MhEvent::Join { guid, .. }
        | MhEvent::Leave { guid }
        | MhEvent::HandoffIn { guid, .. }
        | MhEvent::FailureDetected { guid }
        | MhEvent::Disconnect { guid }
        | MhEvent::Resume { guid, .. } => *guid,
    }
}

/// Deterministic random scenario generator.
#[derive(Debug, Clone)]
pub struct ScenarioGen {
    master_seed: u64,
    limits: GenLimits,
}

impl ScenarioGen {
    /// Generator over the full envelope.
    pub fn new(master_seed: u64) -> Self {
        ScenarioGen { master_seed, limits: GenLimits::full() }
    }

    /// Generator over the bounded smoke envelope.
    pub fn smoke(master_seed: u64) -> Self {
        ScenarioGen { master_seed, limits: GenLimits::smoke() }
    }

    /// Generator over the large (10k–50k node) envelope.
    pub fn large(master_seed: u64) -> Self {
        ScenarioGen { master_seed, limits: GenLimits::large() }
    }

    /// The limits in force.
    pub fn limits(&self) -> GenLimits {
        self.limits
    }

    /// Generate scenario number `index`. Pure: same `(master_seed, index)`
    /// in, same scenario out. The result always passes
    /// [`Scenario::validate`].
    pub fn scenario(&self, index: u64) -> Scenario {
        let lim = &self.limits;
        // Decorrelate the per-index stream from the master stream with a
        // Weyl-style mix, so consecutive indices explore independently.
        let mut rng = SplitMix64::new(self.master_seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));

        // --- topology shape ---
        let height = rng.range(lim.min_height as u64, lim.max_height as u64 + 1) as usize;
        let max_ring = if height >= 3 { lim.max_ring_tall } else { lim.max_ring };
        let ring_size = rng.range(lim.min_ring as u64, max_ring as u64 + 1) as usize;
        let duration = rng.range(lim.duration.0, lim.duration.1 + 1);

        let mut sc = Scenario::new(format!("gen-{index:06}"), height, ring_size)
            .with_seed(rng.next_u64())
            .with_duration(duration);
        let layout = sc.layout();
        let aps = layout.aps();
        let all_nodes: Vec<NodeId> = layout.nodes.keys().copied().collect();

        // --- protocol configuration ---
        sc.cfg = self.sample_cfg(&mut rng, height);

        // --- network model (bands, loss, duplication, reordering) ---
        sc.net = self.sample_net(&mut rng);

        // --- explicit joins (always some foreground workload) ---
        let joins = rng.range(3, 13);
        for j in 0..joins {
            let at = rng.range(0, duration / 2);
            let ap = *rng.pick(&aps);
            sc = sc.join(at, ap, Guid(1_000_000 + index * 1_000 + j), Luid(1));
        }

        // --- churn / mobility background (coin-flipped per dimension) ---
        if rng.chance(0.5) {
            let params = ChurnParams {
                initial_members: rng.range(3, 16) as usize,
                mean_join_interval: if rng.chance(0.5) { 0.0 } else { rng.range(80, 400) as f64 },
                mean_lifetime: rng.range(300, 1_500) as f64,
                failure_fraction: rng.uniform() * 0.5,
                duration,
            };
            sc = sc.with_churn(params);
        }
        if rng.chance(0.4) {
            let population = rng.range(3, 9) as usize;
            let dwell = rng.range(60, 400) as f64;
            // Disjoint GUID range: churn numbers from 0, explicit joins
            // from 1M + index·1000, mobility from 2M + index·1000 — one
            // member, one lifecycle, so the committed-join oracle's
            // departed-set never exempts an unrelated roamer.
            sc = sc.with_mobility_base(population, dwell, 2_000_000 + index * 1_000);
        }

        // --- crash plan ---
        let f = rng.uniform() * lim.max_crash_f;
        let window = (duration / 10, duration * 3 / 4);
        sc = sc.with_crashes(bernoulli_crashes(&layout, f, window, rng.next_u64()));

        // --- link partitions (timed heal) ---
        let partitions = rng.range(0, lim.max_partitions as u64 + 1);
        for _ in 0..partitions {
            let a = *rng.pick(&all_nodes);
            let b = *rng.pick(&all_nodes);
            if a == b {
                continue;
            }
            let len = rng.range(duration / 20 + 1, duration / 4 + 2);
            let at = rng.range(0, duration - len);
            sc = sc.partition(at, at + len, a, b);
        }

        // --- queries ---
        let queries = rng.range(0, 4);
        for _ in 0..queries {
            let at = rng.range(duration / 2, duration);
            let node = *rng.pick(&all_nodes);
            sc = sc.query(at, node, QueryScope::Global);
        }

        debug_assert!(sc.validate().is_ok(), "generated scenario must validate");
        sc
    }

    /// Mutate `parent` along exactly one dimension. Pure: the same
    /// `(master_seed, parent, seed)` triple always yields the same mutant,
    /// and the result always passes [`Scenario::validate`] — operators
    /// whose candidate fails validation (a shrunk topology orphaning a
    /// scheduled crash, a duration cut below the last event) are retried
    /// with fresh rolls, falling back to [`MutationOp::Reseed`] (which
    /// can never fail) after a bounded number of attempts.
    ///
    /// Mutation deliberately reaches *outside* the generation envelope:
    /// rates may double past `GenLimits::max_loss`, schedules may grow
    /// denser than sampling would ever draw them. The only hard clamps are
    /// [`Scenario::validate`] and cost ceilings (node count, probability
    /// caps) that keep mutants affordable.
    pub fn mutate(&self, parent: &Scenario, seed: u64) -> Mutated {
        let mut rng = SplitMix64::new(
            self.master_seed ^ 0x6D75_7461_7465 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for _ in 0..16 {
            let op = *rng.pick(&MutationOp::ALL);
            if let Some(sc) = self.apply_op(parent, op, &mut rng) {
                if sc.validate().is_ok() {
                    return Mutated { op, scenario: Self::name_mutant(sc, parent, op, seed) };
                }
            }
        }
        let mut sc = parent.clone();
        sc.seed = rng.next_u64();
        let op = MutationOp::Reseed;
        Mutated { op, scenario: Self::name_mutant(sc, parent, op, seed) }
    }

    /// Name a mutant after the root of its lineage plus the operator that
    /// made it, so chains stay bounded (`gen-000123+loss@1f`, not an
    /// ever-growing suffix train); the full parent chain lives in the
    /// artifact lineage metadata, not the name.
    fn name_mutant(mut sc: Scenario, parent: &Scenario, op: MutationOp, seed: u64) -> Scenario {
        let base = parent.name.split('+').next().unwrap_or("mutant").to_string();
        sc.name = format!("{base}+{}@{seed:x}", op.short());
        sc
    }

    fn apply_op(
        &self,
        parent: &Scenario,
        op: MutationOp,
        rng: &mut SplitMix64,
    ) -> Option<Scenario> {
        let mut sc = parent.clone();
        match op {
            MutationOp::Topology => {
                let grow = rng.chance(0.5);
                if rng.chance(0.5) {
                    sc.ring_size =
                        if grow { sc.ring_size + 1 } else { sc.ring_size.checked_sub(1)? };
                    if sc.ring_size < 2 {
                        return None;
                    }
                } else {
                    sc.height = if grow { sc.height + 1 } else { sc.height.checked_sub(1)? };
                    if sc.height < 1 || sc.height > 3 {
                        return None;
                    }
                }
                if HierarchySpec::new(sc.height, sc.ring_size).node_count() > MUTATION_NODE_CAP {
                    return None;
                }
            }
            MutationOp::Latency => {
                let band = match rng.range(0, 4) {
                    0 => &mut sc.net.wireless,
                    1 => &mut sc.net.intra_ring,
                    2 => &mut sc.net.inter_tier,
                    _ => &mut sc.net.wide_area,
                };
                if rng.chance(0.5) {
                    band.min = (band.min * 2).min(200);
                    band.max = (band.max * 2).min(400).max(band.min);
                } else {
                    band.min /= 2;
                    band.max = (band.max / 2).max(band.min);
                }
            }
            MutationOp::Loss => {
                if rng.chance(0.5) {
                    sc.net.loss = scale_prob(sc.net.loss, rng, 0.2);
                } else {
                    sc.net.wireless_loss = scale_prob(sc.net.wireless_loss, rng, 0.2);
                }
            }
            MutationOp::DupReorder => {
                if rng.chance(0.5) {
                    sc.net.dup = scale_prob(sc.net.dup, rng, 0.3);
                } else {
                    sc.net.reorder = scale_prob(sc.net.reorder, rng, 0.4);
                    if sc.net.reorder > 0.0 && sc.net.reorder_extra == 0 {
                        sc.net.reorder_extra = rng.range(5, 51);
                    }
                    if sc.net.reorder == 0.0 {
                        sc.net.reorder_extra = 0;
                    }
                }
            }
            MutationOp::Crashes => match rng.range(0, 3) {
                0 => {
                    let nodes: Vec<NodeId> = sc.layout().nodes.keys().copied().collect();
                    let node = *rng.pick(&nodes);
                    let at = rng.range(1, sc.duration.max(2));
                    sc.crashes.push(PlannedCrash { at, node });
                }
                1 => {
                    if sc.crashes.is_empty() {
                        return None;
                    }
                    let i = rng.range(0, sc.crashes.len() as u64) as usize;
                    sc.crashes.remove(i);
                }
                _ => {
                    if sc.crashes.is_empty() {
                        return None;
                    }
                    let i = rng.range(0, sc.crashes.len() as u64) as usize;
                    sc.crashes[i].at = rng.range(1, sc.duration.max(2));
                }
            },
            MutationOp::Partitions => match rng.range(0, 3) {
                0 => {
                    let nodes: Vec<NodeId> = sc.layout().nodes.keys().copied().collect();
                    let a = *rng.pick(&nodes);
                    let b = *rng.pick(&nodes);
                    if a == b {
                        return None;
                    }
                    let len = rng.range(sc.duration / 20 + 1, sc.duration / 3 + 2);
                    let at = rng.range(0, sc.duration.saturating_sub(len).max(1));
                    sc = sc.partition(at, at + len, a, b);
                }
                1 => {
                    if sc.partitions.is_empty() {
                        return None;
                    }
                    let i = rng.range(0, sc.partitions.len() as u64) as usize;
                    sc.partitions.remove(i);
                }
                _ => {
                    if sc.partitions.is_empty() {
                        return None;
                    }
                    let i = rng.range(0, sc.partitions.len() as u64) as usize;
                    let len = sc.partitions[i].heal_at - sc.partitions[i].at;
                    let at = rng.range(0, sc.duration.saturating_sub(len).max(1));
                    sc.partitions[i].at = at;
                    sc.partitions[i].heal_at = at + len;
                }
            },
            MutationOp::Churn => {
                if sc.mh_schedule.is_empty() || rng.chance(0.3) {
                    // A fresh join burst, with GUIDs from a range disjoint
                    // from every generator range (churn: 0+, joins: 1M+,
                    // mobility: 2M+) so no identity ever joins twice.
                    let aps = sc.layout().aps();
                    let base = 3_000_000 + rng.range(0, 1 << 20) * 1_000;
                    let burst = rng.range(1, 6);
                    for j in 0..burst {
                        let at = rng.range(0, sc.duration);
                        let ap = *rng.pick(&aps);
                        sc = sc.join(at, ap, Guid(base + j), Luid(1));
                    }
                } else {
                    // Drop one complete lifecycle — every event of one
                    // member, so no orphaned leave/handoff survives.
                    let guids: Vec<Guid> =
                        sc.mh_schedule.iter().map(|(_, _, e)| mh_guid(e)).collect();
                    let victim = *rng.pick(&guids);
                    sc.mh_schedule.retain(|(_, _, e)| mh_guid(e) != victim);
                }
            }
            MutationOp::Queries => match rng.range(0, 3) {
                0 => {
                    let nodes: Vec<NodeId> = sc.layout().nodes.keys().copied().collect();
                    let at = rng.range(0, sc.duration);
                    let node = *rng.pick(&nodes);
                    sc = sc.query(at, node, QueryScope::Global);
                }
                1 => {
                    if sc.queries.is_empty() {
                        return None;
                    }
                    let i = rng.range(0, sc.queries.len() as u64) as usize;
                    sc.queries.remove(i);
                }
                _ => {
                    if sc.queries.is_empty() {
                        return None;
                    }
                    let i = rng.range(0, sc.queries.len() as u64) as usize;
                    sc.queries[i].at = rng.range(0, sc.duration);
                }
            },
            MutationOp::Duration => {
                sc.duration = if rng.chance(0.5) {
                    sc.duration.saturating_mul(3) / 2
                } else {
                    (sc.duration / 2).max(200)
                };
            }
            MutationOp::Reseed => {
                sc.seed = rng.next_u64();
            }
        }
        Some(sc)
    }

    fn sample_cfg(&self, rng: &mut SplitMix64, height: usize) -> ProtocolConfig {
        let mut cfg =
            if rng.chance(0.6) { ProtocolConfig::live() } else { ProtocolConfig::default() };
        cfg.scheme = match rng.range(0, 10) {
            0..=5 => MembershipScheme::Tms,
            6..=7 => MembershipScheme::Bms,
            _ if height >= 2 => MembershipScheme::Ims { level: rng.range(1, height as u64) as u8 },
            _ => MembershipScheme::Tms,
        };
        cfg.aggregate_mq = rng.chance(0.9);
        cfg.rotate_holder = rng.chance(0.9);
        cfg.token_retransmit_timeout = rng.range(20, 61);
        cfg.token_retransmit_limit = rng.range(2, 4) as u32;
        cfg.token_interval = rng.range(5, 31);
        cfg.heartbeat_interval = rng.range(40, 160);
        // Keep the loss suspicion window comfortably above the retransmit
        // budget so recovery never races ordinary forwarding.
        cfg.token_lost_timeout =
            (cfg.token_retransmit_timeout * u64::from(cfg.token_retransmit_limit) * 3)
                .max(rng.range(300, 801));
        cfg.parent_timeout = cfg.heartbeat_interval * rng.range(3, 6);
        cfg.child_timeout = cfg.heartbeat_interval * rng.range(3, 6);
        cfg.max_ops_per_token = rng.range(64, 1_025) as usize;
        cfg
    }

    fn sample_net(&self, rng: &mut SplitMix64) -> NetConfig {
        let band = |rng: &mut SplitMix64, lo: u64, hi: u64, span: u64| {
            let min = rng.range(lo, hi + 1);
            LatencyBand { min, max: min + rng.range(0, span + 1) }
        };
        let mut net = NetConfig {
            wireless: band(rng, 1, 40, 40),
            intra_ring: band(rng, 1, 12, 10),
            inter_tier: band(rng, 2, 30, 30),
            wide_area: band(rng, 2, 30, 30),
            loss: 0.0,
            wireless_loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_extra: 0,
        };
        if rng.chance(0.5) {
            net.loss = rng.uniform() * self.limits.max_loss;
        }
        if rng.chance(0.3) {
            net.wireless_loss = rng.uniform() * 0.03;
        }
        if rng.chance(0.4) {
            net.dup = rng.uniform() * 0.10;
        }
        if rng.chance(0.4) {
            net.reorder = rng.uniform() * 0.20;
            net.reorder_extra = rng.range(5, 51);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed_and_index() {
        let g = ScenarioGen::new(42);
        assert_eq!(g.scenario(7), g.scenario(7));
        assert_ne!(g.scenario(7), g.scenario(8));
        assert_ne!(ScenarioGen::new(42).scenario(7), ScenarioGen::new(43).scenario(7));
    }

    #[test]
    fn every_generated_scenario_validates() {
        for (gen, n) in [(ScenarioGen::new(1), 40u64), (ScenarioGen::smoke(1), 40)] {
            for i in 0..n {
                let sc = gen.scenario(i);
                sc.validate().unwrap_or_else(|e| panic!("index {i}: {e}"));
            }
        }
    }

    #[test]
    fn workload_guid_spaces_are_disjoint() {
        // Churn, mobility and the explicit joins each get a private GUID
        // range: no GUID may ever join twice in one generated schedule
        // (two lifecycles on one identity would blind the committed-join
        // oracle via its departed-set).
        for master in [5u64, 6, 7] {
            let g = ScenarioGen::smoke(master);
            for i in 0..40 {
                let sc = g.scenario(i);
                let mut seen = std::collections::BTreeSet::new();
                for (_, _, e) in &sc.mh_schedule {
                    if let MhEvent::Join { guid, .. } = e {
                        assert!(seen.insert(*guid), "guid {guid} joins twice in {}", sc.name);
                    }
                }
            }
        }
    }

    #[test]
    fn large_envelope_yields_10k_to_50k_node_topologies_with_shallow_faults() {
        let g = ScenarioGen::large(11);
        for i in 0..12u64 {
            let sc = g.scenario(i);
            let spec = HierarchySpec::new(sc.height, sc.ring_size);
            let nodes = spec.node_count();
            assert!(
                (10_000..=50_000).contains(&nodes),
                "index {i}: {nodes} nodes outside the large envelope"
            );
            assert_eq!(sc.height, 3, "large envelope is three-level");
            // Shallow fault schedule: the crash plan stays far below the
            // full envelope's density.
            assert!(
                sc.crashes.len() <= nodes / 100,
                "index {i}: {} crashes on {nodes} nodes",
                sc.crashes.len()
            );
            assert!(sc.partitions.len() <= 1);
            sc.validate().unwrap_or_else(|e| panic!("index {i}: {e}"));
        }
    }

    #[test]
    fn the_space_crosses_every_fault_dimension() {
        // Over a block of seeds, each widened fault dimension must be hit:
        // crashes, partitions, loss, duplication, reordering, churn,
        // mobility (handoffs), queries, both token policies, both heights.
        let g = ScenarioGen::smoke(3);
        let scs: Vec<Scenario> = (0..60).map(|i| g.scenario(i)).collect();
        assert!(scs.iter().any(|s| !s.crashes.is_empty()), "no crashes sampled");
        assert!(scs.iter().any(|s| !s.partitions.is_empty()), "no partitions sampled");
        assert!(scs.iter().any(|s| s.net.loss > 0.0), "no loss sampled");
        assert!(scs.iter().any(|s| s.net.dup > 0.0), "no duplication sampled");
        assert!(scs.iter().any(|s| s.net.reorder > 0.0), "no reordering sampled");
        assert!(scs.iter().any(|s| !s.queries.is_empty()), "no queries sampled");
        assert!(
            scs.iter().any(|s| s
                .mh_schedule
                .iter()
                .any(|(_, _, e)| matches!(e, MhEvent::HandoffIn { .. }))),
            "no mobility handoffs sampled"
        );
        assert!(
            scs.iter().any(|s| s
                .mh_schedule
                .iter()
                .any(|(_, _, e)| matches!(e, MhEvent::FailureDetected { .. }))),
            "no churn failures sampled"
        );
        assert!(
            scs.iter().any(|s| s.cfg.token_policy == TokenPolicy::Continuous)
                && scs.iter().any(|s| s.cfg.token_policy == TokenPolicy::OnDemand),
            "both token policies must appear"
        );
        assert!(
            scs.iter().any(|s| s.height == 1) && scs.iter().any(|s| s.height == 2),
            "both heights must appear"
        );
        assert!(
            scs.iter().any(|s| s.cfg.scheme != MembershipScheme::Tms),
            "non-TMS schemes must appear"
        );
    }

    #[test]
    fn mutation_is_deterministic_and_always_validates() {
        let g = ScenarioGen::smoke(9);
        let parent = g.scenario(3);
        for seed in 0..60u64 {
            let a = g.mutate(&parent, seed);
            let b = g.mutate(&parent, seed);
            assert_eq!(a.op, b.op, "seed {seed}: operator must be deterministic");
            assert_eq!(a.scenario, b.scenario, "seed {seed}: mutant must be deterministic");
            a.scenario.validate().unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", a.op));
        }
    }

    #[test]
    fn mutation_perturbs_exactly_the_reported_dimension() {
        // For every mutant, the diff against the parent must be confined
        // to the dimension the operator names — one axis at a time is the
        // contract that makes coverage deltas attributable.
        let g = ScenarioGen::smoke(17);
        let parent = g.scenario(5);
        for seed in 0..120u64 {
            let m = g.mutate(&parent, seed);
            let sc = &m.scenario;
            let same_topology = sc.height == parent.height && sc.ring_size == parent.ring_size;
            let same_net = sc.net == parent.net;
            let same_crashes = sc.crashes == parent.crashes;
            let same_partitions = sc.partitions == parent.partitions;
            let same_mh = sc.mh_schedule == parent.mh_schedule;
            let same_queries = sc.queries == parent.queries;
            let same_duration = sc.duration == parent.duration;
            let same_seed = sc.seed == parent.seed;
            let same_cfg = sc.cfg == parent.cfg;
            assert!(same_cfg, "seed {seed}: no operator touches the protocol config");
            let untouched = |dims: &[bool]| dims.iter().all(|&d| d);
            match m.op {
                MutationOp::Topology => {
                    assert!(!same_topology, "seed {seed}: topology op changed nothing");
                    assert!(untouched(&[
                        same_net,
                        same_crashes,
                        same_partitions,
                        same_mh,
                        same_queries,
                        same_duration,
                        same_seed
                    ]));
                }
                MutationOp::Latency | MutationOp::Loss | MutationOp::DupReorder => {
                    assert!(!same_net, "seed {seed}: {} op changed nothing", m.op);
                    assert!(untouched(&[
                        same_topology,
                        same_crashes,
                        same_partitions,
                        same_mh,
                        same_queries,
                        same_duration,
                        same_seed
                    ]));
                }
                MutationOp::Crashes => {
                    assert!(!same_crashes, "seed {seed}: crash op changed nothing");
                    assert!(untouched(&[
                        same_topology,
                        same_net,
                        same_partitions,
                        same_mh,
                        same_queries,
                        same_duration,
                        same_seed
                    ]));
                }
                MutationOp::Partitions => {
                    assert!(!same_partitions, "seed {seed}: partition op changed nothing");
                    assert!(untouched(&[
                        same_topology,
                        same_net,
                        same_crashes,
                        same_mh,
                        same_queries,
                        same_duration,
                        same_seed
                    ]));
                }
                MutationOp::Churn => {
                    assert!(!same_mh, "seed {seed}: churn op changed nothing");
                    assert!(untouched(&[
                        same_topology,
                        same_net,
                        same_crashes,
                        same_partitions,
                        same_queries,
                        same_duration,
                        same_seed
                    ]));
                }
                MutationOp::Queries => {
                    assert!(!same_queries, "seed {seed}: query op changed nothing");
                    assert!(untouched(&[
                        same_topology,
                        same_net,
                        same_crashes,
                        same_partitions,
                        same_mh,
                        same_duration,
                        same_seed
                    ]));
                }
                MutationOp::Duration => {
                    assert!(!same_duration, "seed {seed}: duration op changed nothing");
                    assert!(untouched(&[
                        same_topology,
                        same_net,
                        same_crashes,
                        same_partitions,
                        same_mh,
                        same_queries,
                        same_seed
                    ]));
                }
                MutationOp::Reseed => {
                    assert!(!same_seed, "seed {seed}: reseed op changed nothing");
                    assert!(untouched(&[
                        same_topology,
                        same_net,
                        same_crashes,
                        same_partitions,
                        same_mh,
                        same_queries,
                        same_duration
                    ]));
                }
            }
        }
    }

    #[test]
    fn mutation_reaches_every_structural_operator() {
        let g = ScenarioGen::smoke(23);
        let parent = g.scenario(0);
        let ops: std::collections::BTreeSet<MutationOp> =
            (0..400).map(|s| g.mutate(&parent, s).op).collect();
        for op in MutationOp::ALL {
            assert!(ops.contains(&op), "{op} never fired over 400 mutation seeds");
        }
    }

    #[test]
    fn mutation_can_escape_the_generation_envelope() {
        // The point of mutation: rates double past the envelope cap that
        // blind sampling can never cross.
        let g = ScenarioGen::smoke(31);
        let mut sc = g.scenario(1);
        let cap = g.limits().max_loss;
        let mut escaped = false;
        for round in 0..12u64 {
            for seed in 0..40u64 {
                let m = g.mutate(&sc, round * 1_000 + seed);
                if m.scenario.net.loss > cap {
                    escaped = true;
                }
                if m.op == MutationOp::Loss {
                    sc = m.scenario;
                    break;
                }
            }
        }
        assert!(escaped, "repeated loss mutations never exceeded the envelope cap {cap}");
    }

    #[test]
    fn mutant_names_stay_bounded_across_generations() {
        let g = ScenarioGen::smoke(37);
        let mut sc = g.scenario(2);
        let root_len = sc.name.len();
        for seed in 0..30u64 {
            sc = g.mutate(&sc, seed).scenario;
            assert!(sc.name.len() <= root_len + 24, "lineage leaked into the name: {:?}", sc.name);
            assert!(sc.name.starts_with("gen-000002+"), "root base lost: {:?}", sc.name);
        }
    }

    #[test]
    fn mutation_short_tags_round_trip() {
        for op in MutationOp::ALL.iter().chain(std::iter::once(&MutationOp::Reseed)) {
            assert_eq!(MutationOp::from_short(op.short()), Some(*op));
        }
        assert_eq!(MutationOp::from_short("nope"), None);
    }
}
