//! `live_day`: a 2,379-NE hierarchy on the `rgb_net` reactor through
//! `LiveEngine`, driven open loop for a `--seconds`-long window.
//!
//! It is the only wall-clock, multi-threaded path (mailboxes, `Router`, the
//! reactor wheel): the sim-only shortcuts it must not pay for show as flat
//! here. Frames per second are timer-paced, so the efficiency figure is
//! `cpu_us_per_event` and the user-visible one is join-commit latency,
//! which the driver measures itself — each action is applied at its
//! scheduled instant whatever the cluster's progress, and latency is timed
//! from that due instant.

use super::{
    derive_seed, judge, run_counted, trace_setup_path, Counters, Outcome, Params, ENGINE_THREADS,
    MIN_SETUPS,
};
use crate::clock::Clock;
use crate::json::{self, Value};
use crate::layers::Ledger;
use crate::spans::Recorder;
use crate::{alloc, host, stats};
use rgb_core::prelude::*;
use rgb_net::{ClusterStats, LiveConfig, LiveEngine};
use rgb_sim::{Engine, NetConfig, Scenario, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const RING: usize = 13;
/// Members joined before the window; their commit is part of `setup_s`.
const POPULATE: u64 = 100;
/// Tick at which the measured window opens (room for the populate phase).
const WINDOW_START: u64 = 1_000;
const SMOKE_WINDOW: u64 = 2_000;
const TICK: Duration = Duration::from_millis(1);
/// Give up on the populate phase after this long.
const POPULATE_BUDGET: Duration = Duration::from_secs(20);
/// Simulated ticks the Sim twin runs past the scenario end before its
/// views are compared with the settled live cluster's.
const SIM_SETTLE_TICKS: u64 = 4_000;
/// The window's meters are read every this many ticks; `cpu_us_per_event`
/// is the median over these pieces.
const PIECE_TICKS: u64 = 1_000;
/// Snapshot round trips probed after the window.
const SNAPSHOT_PROBES: usize = 200;

/// One join or handoff whose commit latency the driver measures.
#[derive(Clone, Copy)]
struct Op {
    at: u64,
    ap: NodeId,
    guid: Guid,
    ring: RingId,
}

struct Plan {
    sc: Scenario,
    window: u64,
    ops: Vec<Op>,
}

/// Generate the day from the seed: 100 populate joins at tick 0; in the
/// window, joins ramped over the first 40 %, handoffs into the neighbouring
/// *ring* in 40–60 % (so the new ring's views do not already hold the
/// member), leaves in 60–80 %, a global query every 1,200 ticks, a quiet
/// 20 % tail. No crashes or partitions. Counts scale with the window: 50
/// joins, 8.3 handoffs (at most one per populate member) and 25 leaves per
/// second, so the join quantiles rest on ~700 samples.
fn plan(seed: u64, window: u64) -> Plan {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 20;
    cfg.token_retransmit_timeout = 60;
    cfg.token_lost_timeout = 400;
    cfg.heartbeat_interval = 50;
    cfg.parent_timeout = 200;
    cfg.child_timeout = 200;
    let s = derive_seed(seed, 0x6c69_7665); // "live"
    let mut sc = Scenario::new("live_day", 3, RING)
        .with_cfg(cfg)
        .with_net(NetConfig::unit())
        .with_seed(s)
        .with_duration(WINDOW_START + window);
    let layout = sc.layout();
    let aps = layout.aps();
    let root = layout.root_ring().nodes[0];
    let ring_of = |ap: NodeId| layout.placement(ap).expect("AP is in the layout").ring;
    let mut rng = SplitMix64::new(s);
    let mut ops = Vec::new();

    let mut home = Vec::new();
    for g in 0..POPULATE {
        let ap = *rng.pick(&aps);
        home.push(ap);
        sc = sc.join(0, ap, Guid(g), Luid(1));
        ops.push(Op { at: 0, ap, guid: Guid(g), ring: ring_of(ap) });
    }
    let joins = 50 * window / 1_000;
    let mut joined = Vec::new();
    for i in 0..joins {
        let at = WINDOW_START + i * (window * 2 / 5) / joins;
        let ap = *rng.pick(&aps);
        let guid = Guid(1_000 + i);
        joined.push((guid, ap));
        sc = sc.join(at, ap, guid, Luid(1));
        ops.push(Op { at, ap, guid, ring: ring_of(ap) });
    }
    let handoffs = (joins / 6).min(POPULATE);
    for k in 0..handoffs {
        let at = WINDOW_START + window * 2 / 5 + k * (window / 5) / handoffs;
        let from = home[k as usize];
        let pos = aps.iter().position(|&a| a == from).expect("home is an AP");
        let to = aps[(pos + RING) % aps.len()];
        sc = sc.mh(at, to, MhEvent::HandoffIn { guid: Guid(k), luid: Luid(2), from: Some(from) });
        ops.push(Op { at, ap: to, guid: Guid(k), ring: ring_of(to) });
    }
    let leaves = joins / 2;
    for (k, &(guid, ap)) in joined.iter().take(leaves as usize).enumerate() {
        let at = WINDOW_START + window * 3 / 5 + k as u64 * (window / 5) / leaves;
        sc = sc.mh(at, ap, MhEvent::Leave { guid });
    }
    let mut at = WINDOW_START + 1_200;
    while at + 200 < WINDOW_START + window {
        sc = sc.query(at, root, QueryScope::Global);
        at += 1_200;
    }
    Plan { sc, window, ops }
}

/// Watches the app-event stream for the commits the driver is waiting on.
#[derive(Default)]
struct Tracker {
    /// Per bottom ring: ops applied and not yet seen committed.
    pending: BTreeMap<RingId, Vec<(Op, Instant)>>,
    /// Commit latency of window ops, in ticks.
    latency_ticks: Vec<f64>,
    populate_left: u64,
    answered: u64,
}

impl Tracker {
    fn expect(&mut self, op: Op, due: Instant) {
        self.pending.entry(op.ring).or_default().push((op, due));
    }

    /// A commit is the first view a *peer* of the injecting AP installs
    /// that holds the member: the AP itself may admit a handoff early.
    fn on_event(&mut self, node: NodeId, event: &AppEvent) {
        let Tracker { pending, latency_ticks, populate_left, answered } = self;
        match event {
            AppEvent::ViewChange { view } => {
                let Some(waiting) = pending.get_mut(&view.id.ring) else { return };
                let now = Instant::now();
                waiting.retain(|(op, due)| {
                    if node == op.ap || !view.contains(op.guid) {
                        return true;
                    }
                    if op.at == 0 {
                        *populate_left -= 1;
                    } else {
                        let ticks =
                            now.saturating_duration_since(*due).as_secs_f64() / TICK.as_secs_f64();
                        latency_ticks.push(ticks);
                    }
                    false
                });
            }
            AppEvent::QueryResult { .. } => *answered += 1,
            _ => {}
        }
    }
}

/// A deployed, populated cluster and what getting there cost.
struct Deployed {
    engine: LiveEngine,
    /// Wall instant of tick 0.
    t0: Instant,
    tracker: Tracker,
    deploy_s: f64,
    /// `LiveEngine::new` plus the populate phase.
    setup_s: f64,
}

/// Set-up as a user pays it: deploy the reactor pool, join the initial
/// members, wait until each is operational in its bottom ring.
fn deploy(plan: &Plan, live: &LiveConfig, rec: &mut Recorder) -> Result<Deployed, String> {
    let t = Instant::now();
    let mut engine = rec
        .leaf("LiveEngine::new", || LiveEngine::new(&plan.sc, live))
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let deploy_s = (t0 - t).as_secs_f64();
    let mut tracker = Tracker { populate_left: POPULATE, ..Tracker::default() };
    for op in plan.ops.iter().filter(|op| op.at == 0) {
        tracker.expect(*op, t0);
    }
    engine.run_until(0);
    let populated = engine.cluster().wait_event(POPULATE_BUDGET, |node, event| {
        tracker.on_event(node, event);
        (tracker.populate_left == 0).then_some(())
    });
    let setup_s = t.elapsed().as_secs_f64();
    if populated.is_none() {
        engine.shutdown();
        return Err(format!("{} initial members never committed", tracker.populate_left));
    }
    Ok(Deployed { engine, t0, tracker, deploy_s, setup_s })
}

/// Which members the first few diverging nodes hold in only one world
/// (`SystemDigest::view_divergence` prints whole views, hundreds of guids).
fn divergence_summary(sim: &SystemDigest, live: &SystemDigest) -> String {
    let live_views: BTreeMap<NodeId, &BTreeSet<Guid>> =
        live.nodes.iter().map(|d| (d.node, &d.members)).collect();
    let mut lines = Vec::new();
    for d in &sim.nodes {
        match live_views.get(&d.node) {
            None => lines.push(format!("{}: no live view", d.node)),
            Some(view) if **view != d.members => lines.push(format!(
                "{}: sim-only {:?} live-only {:?}",
                d.node,
                d.members.difference(view).collect::<Vec<_>>(),
                view.difference(&d.members).collect::<Vec<_>>()
            )),
            Some(_) => {}
        }
    }
    format!(
        "{} nodes differ: {}",
        lines.len(),
        lines.iter().take(3).cloned().collect::<Vec<_>>().join("; ")
    )
}

/// Meters read at the edges of the measured window and of its pieces.
struct Edge {
    wall: Instant,
    cpu_s: f64,
    allocs: (u64, u64),
    stats: ClusterStats,
}

fn edge(engine: &LiveEngine) -> Edge {
    Edge {
        wall: Instant::now(),
        cpu_s: host::cpu_seconds().unwrap_or(0.0),
        allocs: alloc::totals(),
        stats: engine.cluster().stats(),
    }
}

pub fn run(p: &Params, rec: &mut Recorder) -> Outcome {
    let window = if p.smoke { SMOKE_WINDOW } else { p.seconds * 1_000 };
    let plan = plan(p.seed, window);
    let live = LiveConfig::default()
        .with_workers(ENGINE_THREADS)
        .with_tick(TICK)
        .with_settle(Duration::from_secs(60));
    let mut out = Outcome::default();

    // Set-up laps: deploy, populate, tear down. The last deployment is the
    // one the window runs on.
    let mut clock = Clock::default();
    let mut setups = Vec::new();
    let mut deploys = Vec::new();
    let mut shutdowns = Vec::new();
    let setup_laps = if p.smoke { 1 } else { MIN_SETUPS };
    let mut deployed = None;
    for lap in 0..setup_laps {
        rec.set_lap(lap as u32 + 1);
        clock.sample();
        let deployed_now = deploy(&plan, &live, rec);
        clock.sample();
        match deployed_now {
            Ok(d) => {
                setups.push(d.setup_s * clock.take());
                deploys.push(d.deploy_s);
                if lap + 1 < setup_laps {
                    let t = Instant::now();
                    rec.leaf("LiveEngine::shutdown", || d.engine.shutdown());
                    shutdowns.push(t.elapsed().as_secs_f64());
                } else {
                    deployed = Some(d);
                }
            }
            Err(why) => out.check("populate", false, || why),
        }
    }
    let Some(Deployed { mut engine, t0, mut tracker, .. }) = deployed else {
        // Nothing ran: report the failure, not numbers.
        out.attempted = 1;
        out.failed = 1;
        return out;
    };

    // The window: every distinct action tick, plus the edges of the window
    // and of its pieces.
    let mut ops_at: BTreeMap<u64, Vec<Op>> = BTreeMap::new();
    for op in plan.ops.iter().filter(|op| op.at > 0) {
        ops_at.entry(op.at).or_default().push(*op);
    }
    let (open, close) = (WINDOW_START, WINDOW_START + plan.window);
    let action_ticks: BTreeSet<u64> = plan
        .sc
        .mh_schedule
        .iter()
        .map(|&(at, _, _)| at)
        .chain(plan.sc.queries.iter().map(|q| q.at))
        .filter(|&at| at > 0)
        .collect();
    let piece_edges: BTreeSet<u64> =
        (open..close).step_by(PIECE_TICKS as usize).chain([close]).collect();
    let ticks: BTreeSet<u64> = action_ticks.union(&piece_edges).copied().collect();
    let mut late_ms = Vec::new();
    let mut edges = Vec::new();
    // Clock speed of each piece, sampled at every stop of the driver (20 us
    // of its CPU a time, ~0.3 % of the window's).
    let mut speeds = Vec::new();
    for tick in ticks {
        let due = t0 + TICK * tick as u32;
        engine.cluster().wait_event(
            due.saturating_duration_since(Instant::now()),
            |node, event| {
                tracker.on_event(node, event);
                None::<()>
            },
        );
        clock.sample();
        if piece_edges.contains(&tick) {
            edges.push(edge(&engine));
            speeds.push(clock.take());
        }
        if action_ticks.contains(&tick) {
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            for op in ops_at.get(&tick).into_iter().flatten() {
                tracker.expect(*op, due);
            }
            engine.run_until(tick);
        }
    }
    let (opened, closed) = (&edges[0], &edges[edges.len() - 1]);

    // Settle, then read the final state through the operator API.
    let t = Instant::now();
    let settled = rec.leaf("LiveEngine::settle", || engine.settle());
    let settle_s = t.elapsed().as_secs_f64();
    engine.cluster().wait_event(Duration::from_millis(50), |node, event| {
        tracker.on_event(node, event);
        None::<()>
    });
    let layout = plan.sc.layout();
    let ids: Vec<NodeId> = layout.nodes.keys().copied().collect();
    let mut rng = SplitMix64::new(p.seed);
    let mut snapshot_ms = Vec::new();
    for _ in 0..SNAPSHOT_PROBES {
        let node = *rng.pick(&ids);
        let t = Instant::now();
        let snap = rec
            .leaf("Cluster::snapshot", || engine.cluster().snapshot(node, Duration::from_secs(1)));
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check("snapshot", snap.is_some(), || format!("node {node} did not answer a snapshot"));
    }
    let outcome = engine.outcome();
    let live_digest = rec.leaf("system_digest", || engine.system_digest(settled));
    let levels = engine.obs_levels();
    let final_stats = engine.cluster().stats();
    let workers = engine.cluster().worker_count();
    let t = Instant::now();
    rec.leaf("LiveEngine::shutdown", || engine.shutdown());
    shutdowns.push(t.elapsed().as_secs_f64());
    // Read before the Sim twin runs in this process: the peak is the live
    // cluster's, not the reference run's.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    // The same scenario on Backend::Sim must converge to the same views.
    let t = Instant::now();
    let twin = plan.sc.clone().with_delivered_cap(64);
    let mut sim =
        rec.leaf("try_build_sim", || twin.try_build_sim().expect("generated scenario validates"));
    let sim_build_s = t.elapsed().as_secs_f64();
    // The live run got its settle phase; the twin gets simulated time to
    // finish propagating the last changes to the root ring.
    run_counted(&mut sim, plan.sc.duration + SIM_SETTLE_TICKS);
    let sim_digest = sim.system_digest(true);

    out.check("settled", settled, || "root ring never converged on the expected membership".into());
    out.check("view_divergence", sim_digest.view_divergence(&live_digest).is_none(), || {
        divergence_summary(&sim_digest, &live_digest)
    });
    out.check("backpressure_dropped", final_stats.backpressure_dropped == 0, || {
        format!("{} frames met a full mailbox", final_stats.backpressure_dropped)
    });
    out.check("codec_rejected", final_stats.codec_rejected == 0, || {
        format!("{} frames failed to decode", final_stats.codec_rejected)
    });
    out.check("app_events_dropped", final_stats.app_events_dropped == 0, || {
        format!("{} app events overflowed the stream", final_stats.app_events_dropped)
    });

    let verdict = judge(&plan.sc, |node, guid| outcome.views.get(&node).map(|v| v.contains(&guid)));
    let queries = plan.sc.queries.len() as u64;
    let answered = tracker.answered.min(queries);
    let attempted = verdict.guids + queries;
    let ok = verdict.ok + answered;
    let frames = closed.stats.frames_sent - opened.stats.frames_sent;
    let wall_s = (closed.wall - opened.wall).as_secs_f64();
    let cpu_s = closed.cpu_s - opened.cpu_s;
    // The host slows down in levels that last seconds: the median piece,
    // each taken at the reference clock, keeps a slow stretch of the window
    // from deciding the figure. `speeds[i + 1]` closed piece `i`.
    let piece_cpu_us: Vec<f64> = edges
        .windows(2)
        .zip(&speeds[1..])
        .map(|(w, speed)| {
            (w[1].cpu_s - w[0].cpu_s) * speed * 1e6
                / (w[1].stats.frames_sent - w[0].stats.frames_sent).max(1) as f64
        })
        .collect();
    out.attempted = attempted;
    out.failed = attempted - ok;
    out.end_to_end.extend([
        ("setup_s", stats::median(&setups)),
        ("events_per_s", frames as f64 / wall_s),
        ("cpu_us_per_event", stats::median(&piece_cpu_us)),
        ("peak_rss_mb", peak_rss_mb),
        ("frames_per_change", frames as f64 / ok.max(1) as f64),
        ("join_p50_ticks", stats::quantile(&tracker.latency_ticks, 0.5)),
        ("join_p90_ticks", stats::quantile(&tracker.latency_ticks, 0.9)),
        ("ok_share", ok as f64 / attempted.max(1) as f64),
    ]);
    out.info.extend([
        ("nodes", Value::Num(ids.len() as f64)),
        ("window_ticks", Value::Num(plan.window as f64)),
        ("window_frames", Value::Num(frames as f64)),
        ("window_wall_s", Value::Num(wall_s)),
        ("window_cpu_s", Value::Num(cpu_s)),
        ("piece_cpu_us_per_event", json::nums(piece_cpu_us.iter().copied())),
        ("piece_clock_speed", json::nums(speeds[1..].iter().copied())),
        ("setup_samples_s", json::nums(setups.iter().copied())),
        ("engine_threads", Value::Num(workers as f64)),
        ("join_samples", Value::Num(tracker.latency_ticks.len() as f64)),
        (
            "ops_uncommitted_in_stream",
            Value::Num(tracker.pending.values().map(Vec::len).sum::<usize>() as f64),
        ),
        ("settle_s", Value::Num(settle_s)),
    ]);

    if p.trace {
        // Label and class mix and message-queue counts come from the Sim
        // twin of the same scenario (the reactor keeps no such counters);
        // everything else below is read off the live run.
        let mut c = Counters::default();
        c.absorb(&plan.sc, &sim.metrics, sim.nodes_iter(), sim.crashed_set());
        c.levels = levels;
        (c.guids, c.ok_guids, c.root_visible) = (verdict.guids, verdict.ok, verdict.root_visible);
        (c.queries, c.answered) = (queries, answered);
        rec.set_lap(0);
        trace_setup_path(&plan.sc, rec, &mut out);
        c.protocol_layer_metrics(&mut out);
        Ledger::measure(p.seed, &plan.sc.net, rec).report(&c, None, &mut out);
        let nodes = ids.len() as f64;
        out.layer("sim.scenario.build_ns_per_node", sim_build_s * 1e9 / nodes);
        out.layer("core.obs.join_samples", tracker.latency_ticks.len() as f64);
        out.layer("core.introspect.digest_ns_per_node", rec.mean_ns("system_digest") / nodes);
        out.layer("net.cluster.deploy_s", stats::median(&deploys));
        out.layer("net.cluster.shutdown_s", stats::median(&shutdowns));
        out.layer("net.cluster.settle_s", settle_s);
        out.layer("net.cluster.snapshot_ms_p50", stats::quantile(&snapshot_ms, 0.5));
        out.layer("net.cluster.snapshot_ms_p90", stats::quantile(&snapshot_ms, 0.9));
        out.layer("net.transport.frames_sent", frames as f64);
        out.layer("net.transport.dropped_frames", final_stats.dropped_frames as f64);
        out.layer("net.transport.backpressure_dropped", final_stats.backpressure_dropped as f64);
        out.layer("net.reactor.cpu_util_share", cpu_s / wall_s / workers as f64);
        out.layer("net.reactor.frames_per_tick", frames as f64 / plan.window as f64);
        out.layer("net.reactor.app_events_dropped", final_stats.app_events_dropped as f64);
        out.layer("net.reactor.codec_rejected", final_stats.codec_rejected as f64);
        out.layer("bench.driver_late_ms_p95", stats::quantile(&late_ms, 0.95));
        out.layer(
            "bench.allocs_per_event",
            (closed.allocs.0 - opened.allocs.0) as f64 / frames.max(1) as f64,
        );
        out.layer(
            "bench.alloc_bytes_per_event",
            (closed.allocs.1 - opened.allocs.1) as f64 / frames.max(1) as f64,
        );
        // The window carries no spans; the traced pass costs it nothing.
        out.layer("bench.trace_overhead_share", 0.0);
        out.layer("bench.clock_speed", stats::median(&speeds[1..]));
        out.layer("bench.raw_events_per_s", frames as f64 / wall_s);
    }
    out
}
