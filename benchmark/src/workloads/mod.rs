//! The four workloads, the scenarios they generate from `--seed`, and the
//! shared bookkeeping: what a lap must repeat exactly, how a finished run
//! is judged, and what a workload hands back.

pub mod fleet;
pub mod live_day;
pub mod small_worlds;

use crate::json::Value;
use rgb_core::node::NodeState;
use rgb_core::obs::{Histogram, LevelHistograms};
use rgb_core::prelude::*;
use rgb_sim::fault::bernoulli_crashes;
use rgb_sim::{
    ChurnParams, LatencyBand, LinkClass, Metrics, NetConfig, Scenario, Simulation, SplitMix64,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fleet_steady_seq", "fleet_steady_par", "small_worlds", "live_day"];

/// Shards of `fleet_steady_par` and workers of `live_day`: fixed at the 2
/// cores of the reference host, not at `nproc`, so a bigger host measures
/// the same program.
pub const ENGINE_THREADS: usize = 2;

/// `setup_s` is a median of at least this many set-ups per run: on the sim
/// workloads the protocol lap's plus one per timed lap.
pub const MIN_SETUPS: usize = 6;
/// Fewest timed laps behind a median.
pub const MIN_LAPS: usize = MIN_SETUPS - 1;
/// Timed laps of the traced pass before its one traced lap.
pub const TRACED_PASS_LAPS: usize = 2;
/// Ticks per `run_until` span in a traced lap.
pub const SLICE_TICKS: u64 = 100;

/// Command-line parameters of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Timed laps accumulate until they cover this much wall time; the
    /// `live_day` window lasts exactly this long.
    pub seconds: u64,
    pub trace: bool,
    /// Tiny worlds, one lap: exercises every code path in seconds. Smoke
    /// numbers are never reported.
    pub smoke: bool,
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Names of the correctness checks that failed (empty = correct).
    pub failed_checks: Vec<String>,
    /// Membership operations and queries scheduled.
    pub attempted: u64,
    /// Those not committed (answered) inside the run window.
    pub failed: u64,
    /// The end-to-end metrics; `main` adds `peak_rss_mb` at exit when the
    /// workload did not read it itself.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lap times, counts and digests for the info line.
    pub info: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Record one correctness check; a failure names itself in the result.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            // One line, bounded: a divergence report can list whole views.
            let detail: String = detail().replace('\n', "; ").chars().take(400).collect();
            self.failed_checks.push(format!("{name}: {detail}"));
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Derive an independent scenario seed from the command-line seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::stream(seed, salt).next_u64()
}

fn guid_of(event: &MhEvent) -> Guid {
    match event {
        MhEvent::Join { guid, .. }
        | MhEvent::Leave { guid }
        | MhEvent::HandoffIn { guid, .. }
        | MhEvent::FailureDetected { guid }
        | MhEvent::Disconnect { guid }
        | MhEvent::Resume { guid, .. } => *guid,
    }
}

/// Move every mobile-host event to one of `candidates` (picked by the
/// original AP's id, so a host keeps one AP for its whole life).
fn relocate_hosts(sc: &mut Scenario, candidates: &[NodeId]) {
    for (_, ap, _) in &mut sc.mh_schedule {
        *ap = candidates[(ap.0 % candidates.len() as u64) as usize];
    }
}

/// Drop every host any of whose events `doomed` flags.
fn drop_hosts(sc: &mut Scenario, doomed: impl Fn(u64, NodeId) -> bool) {
    let out: BTreeSet<Guid> = sc
        .mh_schedule
        .iter()
        .filter(|&&(at, ap, _)| doomed(at, ap))
        .map(|(_, _, e)| guid_of(e))
        .collect();
    sc.mh_schedule.retain(|(_, _, e)| !out.contains(&guid_of(e)));
}

/// Issue queries at a root-ring node the crash plan spares.
fn query_a_surviving_root(sc: &mut Scenario, crashed: &BTreeSet<NodeId>) {
    let layout = sc.layout();
    if let Some(&alive) = layout.root_ring().nodes.iter().find(|n| !crashed.contains(n)) {
        for q in &mut sc.queries {
            q.node = alive;
        }
    }
}

// Why the generators below place hosts instead of scattering them.
//
// The contract of this benchmark is that no scheduled operation fails and
// that every metric holds still from seed to seed, so a membership change
// must be able to commit in its ring inside the run window on *every*
// seed. Two properties of the protocol decide where that is possible:
//
// - Under the continuous token policy a node loads its queued changes into
//   the token only in the round it starts, and holdership rotates one ring
//   position per round. In a 46-ring a round takes ~495 ticks, so a change
//   queued at a random proxy waits up to 46 rounds (~22k ticks); only ring
//   positions 0..=5 start a round inside the fleet's 3,000 ticks.
// - A change in flight when a node of its ring crashes can be lost with
//   the token, and under the on-demand policy a ring whose leader dies
//   never circulates a token again.
//
// Scattered hosts would therefore miss the window by construction (about
// four in five on the fleet), and `ok_share`, `frames_per_change` and the
// join quantiles would swing with the seed's luck. The engines' load is
// token and heartbeat traffic either way; the hosts are placed where the
// protocol can serve them, and the crashes stay in to keep the repair
// paths on the measured path.

/// The fleet scenario shared by `fleet_steady_seq` and `fleet_steady_par`:
/// the repo's canonical 99,498-NE scale tier (`bench_scale`'s cadence and
/// banded network) under a churn burst, Bernoulli NE crashes and one global
/// query. Hosts attach, in bottom rings the crash plan spares, at the first
/// two ring positions whose round starts after the last host event (tick
/// 1,000): positions 3 and 4 of a 46-ring, rounds at ticks ~1,500–2,500.
pub fn fleet_scenario(seed: u64, smoke: bool) -> Scenario {
    const DURATION: u64 = 3_000;
    const CHURN_WINDOW: u64 = 1_000;
    let ring = if smoke { 27 } else { 46 };
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 25;
    cfg.token_retransmit_timeout = 75;
    cfg.token_lost_timeout = 600;
    cfg.heartbeat_interval = 150;
    cfg.parent_timeout = 750;
    cfg.child_timeout = 750;
    let banded = NetConfig { wide_area: LatencyBand { min: 25, max: 80 }, ..NetConfig::default() };
    let s = derive_seed(seed, 0x0066_6c65_6574); // "fleet"
    let mut sc = Scenario::new("fleet_steady", 3, ring)
        .with_cfg(cfg)
        .with_net(banded)
        .with_seed(s)
        .with_duration(DURATION)
        .with_delivered_cap(64)
        .with_churn(ChurnParams {
            initial_members: 2_000,
            mean_join_interval: 5.0,
            mean_lifetime: 2_000.0,
            failure_fraction: 0.2,
            duration: CHURN_WINDOW,
        });
    // Position p starts its round after p circulations, each a hop per ring
    // node plus the grant hop and the kick pause; 150 ticks of slack cover
    // the wireless hop and latency jitter.
    let hop = (sc.net.intra_ring.min + sc.net.intra_ring.max) / 2;
    let round = ring as u64 * hop + hop + sc.cfg.token_interval;
    let first = (CHURN_WINDOW + 150).div_ceil(round) as usize;
    let layout = sc.layout();
    let root = layout.root_ring().nodes[0];
    let crashes = bernoulli_crashes(&layout, 0.0005, (250, 500), s ^ 1);
    let crashed: BTreeSet<NodeId> = crashes.iter().map(|c| c.node).collect();
    let candidates: Vec<NodeId> = layout
        .rings_at(layout.height() - 1)
        .filter(|r| !r.nodes.iter().any(|n| crashed.contains(n)))
        .flat_map(|r| [r.nodes[first], r.nodes[first + 1]])
        .collect();
    relocate_hosts(&mut sc, &candidates);
    let mut sc = sc.with_crashes(crashes).query(2_700, root, QueryScope::Global);
    query_a_surviving_root(&mut sc, &crashed);
    sc
}

/// World `i` of `small_worlds`: the `rolling_upgrade_churn` preset (258
/// NEs, on-demand tokens, one crash per ring in bottom-up waves, background
/// churn, two global queries, 8,000 ticks). Hosts attach to surviving
/// proxies of bottom rings whose leader survives, stay at least 100 ticks,
/// and keep clear of their ring's crash (200 ticks before, 300 after) and
/// of the last 400 ticks of the run.
pub fn small_world(seed: u64, i: u64) -> Scenario {
    const QUIET_BEFORE_CRASH: u64 = 200;
    const QUIET_AFTER_CRASH: u64 = 300;
    const QUIET_TAIL: u64 = 400;
    const MIN_STAY: u64 = 100;
    let s = derive_seed(seed, 0x736d_616c_6c00 ^ i); // "small"
    let mut sc = rgb_sim::presets::rolling_upgrade_churn(s);
    let layout = sc.layout();
    let crashed: BTreeSet<NodeId> = sc.crashes.iter().map(|c| c.node).collect();
    let ring_of = |node: NodeId| layout.placement(node).expect("node of the layout").ring;
    let crash_at: BTreeMap<RingId, u64> =
        sc.crashes.iter().map(|c| (ring_of(c.node), c.at)).collect();
    let candidates: Vec<NodeId> = layout
        .rings_at(layout.height() - 1)
        .filter(|r| r.nodes.iter().min().is_some_and(|leader| !crashed.contains(leader)))
        .flat_map(|r| r.nodes.iter().copied().filter(|n| !crashed.contains(n)))
        .collect();
    relocate_hosts(&mut sc, &candidates);
    let joined: BTreeMap<Guid, u64> = sc
        .mh_schedule
        .iter()
        .filter(|(_, _, e)| matches!(e, MhEvent::Join { .. }))
        .map(|&(at, _, e)| (guid_of(&e), at))
        .collect();
    let short_stay: BTreeSet<Guid> = sc
        .mh_schedule
        .iter()
        .filter(|&&(at, _, e)| {
            joined.get(&guid_of(&e)).is_some_and(|&j| at > j && at < j + MIN_STAY)
        })
        .map(|(_, _, e)| guid_of(e))
        .collect();
    sc.mh_schedule.retain(|(_, _, e)| !short_stay.contains(&guid_of(e)));
    let duration = sc.duration;
    drop_hosts(&mut sc, |at, ap| {
        let near_crash = crash_at
            .get(&ring_of(ap))
            .is_some_and(|&c| at + QUIET_BEFORE_CRASH >= c && at <= c + QUIET_AFTER_CRASH);
        near_crash || at + QUIET_TAIL > duration
    });
    query_a_surviving_root(&mut sc, &crashed);
    sc
}

/// Exact-repeat facts of one finished sim lap. Every lap of a workload
/// must reproduce the protocol lap's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeat {
    pub events: u64,
    pub sent_total: u64,
    /// `SystemDigest::views_fingerprint` (folded over worlds for
    /// `small_worlds`).
    pub fingerprint: u64,
}

/// Fold world `next`'s fingerprint into a running one (order-sensitive).
pub fn fold_fingerprint(acc: u64, next: u64) -> u64 {
    (acc.rotate_left(7) ^ next).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Drive the sequential engine to `deadline`, counting `step()` calls —
/// `Simulation::run_until`'s own loop with a counter in it.
pub fn run_counted(sim: &mut Simulation, deadline: u64) -> u64 {
    let mut events = 0u64;
    while sim.peek_at().is_some_and(|at| at <= deadline) {
        sim.step();
        events += 1;
    }
    events
}

/// Wall, CPU and allocator cost of one lap's run phase.
pub struct LapCost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// A timed lap: what it cost as a whole, the wall time of each of its parts
/// (the worlds of `small_worlds`, the `SLICE_TICKS` slices of a sequential
/// fleet lap; every lap of a workload has the same parts doing the same
/// work), and the relative clock speed sampled between them.
pub struct TimedLap {
    pub cost: LapCost,
    pub parts_s: Vec<f64>,
    pub speed: f64,
}

/// The lap time both timing figures rest on: each part's median over the
/// laps, summed, every lap taken at the reference clock.
///
/// The reference host slows down in levels that last seconds, so a lap is
/// usually part fast, part slow. Taking the median part by part keeps a
/// slow stretch of one lap from deciding the whole lap's place in the order
/// (README, "Noise study").
pub fn steady_lap_s(laps: &[TimedLap]) -> f64 {
    let at_reference: Vec<Vec<f64>> =
        laps.iter().map(|l| l.parts_s.iter().map(|part| part * l.speed).collect()).collect();
    let parts: Vec<&[f64]> = at_reference.iter().map(Vec::as_slice).collect();
    crate::stats::sum_of_part_medians(&parts)
}

/// Time `f` on every meter at once.
pub fn metered<R>(f: impl FnOnce() -> R) -> (R, LapCost) {
    let (allocs0, bytes0) = crate::alloc::totals();
    let cpu0 = crate::host::cpu_seconds().unwrap_or(0.0);
    let wall0 = Instant::now();
    let r = f();
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_seconds().unwrap_or(0.0) - cpu0;
    let (allocs1, bytes1) = crate::alloc::totals();
    (r, LapCost { wall_s, cpu_s, allocs: allocs1 - allocs0, alloc_bytes: bytes1 - bytes0 })
}

/// Whether the timed laps run so far are enough for this pass: one in smoke
/// mode, two before the traced lap of a traced pass, otherwise at least
/// `MIN_LAPS` and `--seconds` of wall time since the first one `started`
/// (their set-ups count: they are measured too).
pub fn enough_laps(p: &Params, laps: &[TimedLap], started: Instant) -> bool {
    if p.smoke {
        !laps.is_empty()
    } else if p.trace {
        laps.len() >= TRACED_PASS_LAPS
    } else {
        laps.len() >= MIN_LAPS && started.elapsed().as_secs() >= p.seconds
    }
}

/// The exact-repeat companion to the noisy timings on the single-threaded
/// workloads: allocation calls and bytes must not differ between laps.
pub fn check_allocs_repeat(laps: &[TimedLap], out: &mut Outcome) {
    let Some(first) = laps.first().map(|l| (l.cost.allocs, l.cost.alloc_bytes)) else { return };
    out.check(
        "allocs_repeat",
        laps.iter().all(|l| (l.cost.allocs, l.cost.alloc_bytes) == first),
        || {
            format!(
                "allocation counts differ across laps: {:?}",
                laps.iter().map(|l| l.cost.allocs).collect::<Vec<_>>()
            )
        },
    );
}

/// End-to-end metrics and run record every sim workload derives the same
/// way from its protocol lap (`counters`, `reference`), timed laps and
/// set-up time.
///
/// Both timing figures rest on `steady_lap_s`: the CPU meter ticks in 10 ms
/// steps, too coarse for a part, so `cpu_us_per_event` is the steady lap
/// time times the CPU the laps used per second of wall (1 on the sequential
/// engine, the price of two shards on `fleet_steady_par`). `setup_s` and
/// the `setups` samples behind it come in at the reference clock already.
pub fn report_sim_laps(
    counters: &Counters,
    reference: Repeat,
    laps: &[TimedLap],
    setup_s: f64,
    setups: &[f64],
    engine_threads: usize,
    out: &mut Outcome,
) {
    let sum = |f: fn(&LapCost) -> f64| laps.iter().map(|l| f(&l.cost)).sum::<f64>();
    let lap_s = steady_lap_s(laps);
    let cpu_per_wall = sum(|c| c.cpu_s) / sum(|c| c.wall_s);
    let events = reference.events as f64;
    out.end_to_end.extend([
        ("setup_s", setup_s),
        ("events_per_s", events / lap_s),
        ("cpu_us_per_event", lap_s * cpu_per_wall * 1e6 / events),
    ]);
    counters.protocol_metrics(out);
    out.info.extend([
        ("nodes", Value::Num(counters.nodes as f64)),
        ("events_per_lap", Value::Num(reference.events as f64)),
        ("sent_total", Value::Num(reference.sent_total as f64)),
        ("views_fingerprint", Value::Str(format!("{:016x}", reference.fingerprint))),
        ("steady_lap_s", Value::Num(lap_s)),
        ("cpu_per_wall", Value::Num(cpu_per_wall)),
        ("lap_s", crate::json::nums(laps.iter().map(|l| l.cost.wall_s))),
        ("lap_clock_speed", crate::json::nums(laps.iter().map(|l| l.speed))),
        ("setup_samples_s", crate::json::nums(setups.iter().copied())),
        ("engine_threads", Value::Num(engine_threads as f64)),
        ("join_samples", Value::Num(counters.join_latency().len() as f64)),
    ]);
}

/// Run-health metrics of a traced sim pass: lap spread, allocations per
/// event, and what the traced lap cost over the median untraced one.
pub fn report_lap_health(
    laps: &[TimedLap],
    events_per_lap: u64,
    traced_lap_s: f64,
    out: &mut Outcome,
) {
    let lap_walls: Vec<f64> = laps.iter().map(|l| l.cost.wall_s).collect();
    let timed_events = (events_per_lap * laps.len() as u64) as f64;
    let speeds: Vec<f64> = laps.iter().map(|l| l.speed).collect();
    out.layer("bench.lap_spread_share", crate::stats::spread_share(&lap_walls));
    out.layer("bench.clock_speed", crate::stats::median(&speeds));
    out.layer("bench.raw_events_per_s", events_per_lap as f64 / crate::stats::median(&lap_walls));
    out.layer(
        "bench.allocs_per_event",
        laps.iter().map(|l| l.cost.allocs).sum::<u64>() as f64 / timed_events,
    );
    out.layer(
        "bench.alloc_bytes_per_event",
        laps.iter().map(|l| l.cost.alloc_bytes).sum::<u64>() as f64 / timed_events,
    );
    out.layer("bench.trace_overhead_share", traced_lap_s / crate::stats::median(&lap_walls) - 1.0);
}

/// Workload counters read from an engine's public surfaces after a run:
/// what happened, for weighting the replayed unit prices and for the
/// protocol-level metrics. Sums over worlds for `small_worlds`.
#[derive(Default)]
pub struct Counters {
    pub nodes: u64,
    pub events: u64,
    pub sent_total: u64,
    pub lost: u64,
    pub stale_timer_skips: u64,
    pub codec_rejected: u64,
    pub by_label: [u64; MsgLabel::COUNT],
    pub by_class: [u64; LinkClass::COUNT],
    pub mq_inserted: u64,
    pub mq_aggregated_away: u64,
    pub mh_events: u64,
    pub crashes: u64,
    pub queries: u64,
    pub answered: u64,
    pub guids: u64,
    pub ok_guids: u64,
    pub root_visible: u64,
    pub levels: LevelHistograms,
    pub first_seen_overflow: u64,
    pub peak_queue_len: u64,
    pub state_bytes: u64,
}

impl Counters {
    /// Fold in one finished world: its scenario, merged metrics, node
    /// states and crash set.
    pub fn absorb<'a>(
        &mut self,
        sc: &Scenario,
        metrics: &Metrics,
        nodes: impl Iterator<Item = (NodeId, &'a NodeState)>,
        crashed: &BTreeSet<NodeId>,
    ) {
        self.sent_total += metrics.sent_total;
        self.lost += metrics.lost;
        self.stale_timer_skips += metrics.stale_timer_skips;
        self.codec_rejected += metrics.codec_rejected;
        for label in MsgLabel::ALL {
            self.by_label[label as usize] += metrics.sent_label(label);
        }
        for class in LinkClass::ALL {
            self.by_class[class.index()] += metrics.sent_class(class);
        }
        self.levels.merge(&metrics.levels);
        self.mh_events += sc.mh_schedule.len() as u64;
        self.crashes += sc.crashes.len() as u64;
        self.queries += sc.queries.len() as u64;
        self.answered += metrics.query_latency.len();

        let mut alive: BTreeMap<NodeId, &NodeState> = BTreeMap::new();
        for (id, state) in nodes {
            self.nodes += 1;
            self.mq_inserted += state.mq.total_inserted();
            self.mq_aggregated_away += state.mq.total_aggregated_away();
            if !crashed.contains(&id) {
                alive.insert(id, state);
            }
        }
        let verdict = judge(sc, |node, guid| {
            alive.get(&node).map(|s| s.ring_members.contains_operational(guid))
        });
        self.guids += verdict.guids;
        self.ok_guids += verdict.ok;
        self.root_visible += verdict.root_visible;
    }

    /// Scheduled membership operations and queries.
    pub fn attempted(&self) -> u64 {
        self.guids + self.queries
    }

    /// Those committed in their ring (answered) inside the run window.
    pub fn ok_ops(&self) -> u64 {
        self.ok_guids + self.answered.min(self.queries)
    }

    /// Join-commit latency over every ring level.
    pub fn join_latency(&self) -> Histogram {
        let mut pooled = Histogram::new();
        for (_, level) in self.levels.iter() {
            pooled.merge(&level.join);
        }
        pooled
    }

    /// The four protocol-level end-to-end metrics every workload derives
    /// the same way from its counters, plus `attempted`/`failed`.
    pub fn protocol_metrics(&self, out: &mut Outcome) {
        let join = self.join_latency();
        let ok = self.ok_ops();
        out.attempted = self.attempted();
        out.failed = self.attempted() - ok;
        out.end_to_end.push(("frames_per_change", self.sent_total as f64 / ok.max(1) as f64));
        out.end_to_end.push(("join_p50_ticks", join.quantile(0.5).unwrap_or(0) as f64));
        out.end_to_end.push(("join_p90_ticks", join.quantile(0.9).unwrap_or(0) as f64));
        out.end_to_end.push(("ok_share", ok as f64 / self.attempted().max(1) as f64));
        out.check("codec_rejected", self.codec_rejected == 0, || {
            format!("{} frames failed to decode", self.codec_rejected)
        });
    }

    /// The per-layer metrics of the protocol itself (message queue, obs
    /// surfaces, commit health), read straight off the counters.
    pub fn protocol_layer_metrics(&self, out: &mut Outcome) {
        let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let q = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64;
        let mut repair = Histogram::new();
        let mut query = Histogram::new();
        for (_, level) in self.levels.iter() {
            repair.merge(&level.repair);
            query.merge(&level.query);
        }
        out.layer("core.mq.aggregated_share", share(self.mq_aggregated_away, self.mq_inserted));
        out.layer("core.obs.join_samples", self.join_latency().len() as f64);
        out.layer("core.obs.first_seen_overflow", self.first_seen_overflow as f64);
        out.layer("core.obs.repair_p50_ticks", q(&repair, 0.5));
        out.layer("core.obs.repair_p90_ticks", q(&repair, 0.9));
        out.layer("core.obs.query_p50_ticks", q(&query, 0.5));
        for (level, name) in [
            "core.obs.join_p90_ticks.L0",
            "core.obs.join_p90_ticks.L1",
            "core.obs.join_p90_ticks.L2",
        ]
        .into_iter()
        .enumerate()
        {
            out.layer(name, self.levels.get(level as u8).map_or(0.0, |l| q(&l.join, 0.9)));
        }
        out.layer("bench.root_visible_share", share(self.root_visible, self.guids));
        out.layer("bench.failed.ring_uncommitted_guids", (self.guids - self.ok_guids) as f64);
        out.layer(
            "bench.failed.queries_unanswered",
            self.queries.saturating_sub(self.answered) as f64,
        );
    }

    /// The per-layer counters of a simulator engine (not on `live_day`'s
    /// path).
    pub fn sim_layer_metrics(&self, out: &mut Outcome) {
        let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        out.layer("sim.queue.peak_len", self.peak_queue_len as f64);
        out.layer("sim.sim.frames_per_event", share(self.sent_total, self.events));
        out.layer("sim.sim.stale_timer_skip_share", share(self.stale_timer_skips, self.events));
        out.layer("sim.sim.lost_share", share(self.lost, self.sent_total));
        out.layer("sim.sim.bytes_per_node", share(self.state_bytes, self.nodes));
    }
}

/// How a finished run did against its schedule.
pub struct Verdict {
    /// Distinct guids in the schedule.
    pub guids: u64,
    /// Guids every alive node of the bottom ring of their last AP shows
    /// present or absent as `Scenario::expected_guids` demands.
    pub ok: u64,
    /// Guids the alive root-ring nodes all show as expected (global
    /// propagation).
    pub root_visible: u64,
}

/// Judge final membership against the schedule. `member_at(node, guid)` is
/// `None` for a crashed node, else whether the node's ring list holds the
/// guid as operational.
pub fn judge(sc: &Scenario, member_at: impl Fn(NodeId, Guid) -> Option<bool>) -> Verdict {
    let layout = sc.layout();
    let expected = sc.expected_guids();
    let mut schedule = sc.mh_schedule.clone();
    schedule.sort_by_key(|&(t, ap, _)| (t, ap));
    let last_ap: BTreeMap<Guid, NodeId> =
        schedule.iter().map(|(_, ap, e)| (guid_of(e), *ap)).collect();
    let agrees = |nodes: &[NodeId], guid: Guid, present: bool| {
        let mut alive = nodes.iter().filter_map(|&n| member_at(n, guid)).peekable();
        alive.peek().is_some() && alive.all(|shown| shown == present)
    };
    let root = &layout.root_ring().nodes;
    let mut verdict = Verdict { guids: last_ap.len() as u64, ok: 0, root_visible: 0 };
    for (&guid, &ap) in &last_ap {
        let present = expected.contains(&guid);
        let ring = layout.placement(ap).and_then(|p| layout.ring(p.ring));
        if ring.is_ok_and(|r| agrees(&r.nodes, guid, present)) {
            verdict.ok += 1;
        }
        if agrees(root, guid, present) {
            verdict.root_visible += 1;
        }
    }
    verdict
}

/// The set-up-path spans every workload records once in the traced pass,
/// around the constructors `try_build_sim`/`LiveEngine::new` call inside.
pub fn trace_setup_path(sc: &Scenario, rec: &mut crate::spans::Recorder, out: &mut Outcome) {
    let layout = rec.leaf("Scenario::layout", || sc.layout());
    let nodes = layout.node_count() as f64;
    let indexer = layout.indexer();
    let states = rec.leaf("NodeState::from_layout", || {
        indexer
            .iter()
            .map(|(_, id)| {
                NodeState::from_layout(&layout, id, sc.cfg.clone()).expect("valid layout")
            })
            .collect::<Vec<_>>()
    });
    drop(states);
    let matrix =
        rec.leaf("LinkClassMatrix::new", || rgb_sim::LinkClassMatrix::new(&layout, &indexer));
    out.layer("core.topology.layout_ns_per_node", rec.total_ns("Scenario::layout") as f64 / nodes);
    out.layer("core.node.from_layout_ns", rec.total_ns("NodeState::from_layout") as f64 / nodes);
    out.layer(
        "sim.network.matrix_build_ns_per_node",
        rec.total_ns("LinkClassMatrix::new") as f64 / nodes,
    );
    out.layer("sim.network.classify_ns", crate::layers::classify_ns(&matrix, indexer.len(), rec));
}
