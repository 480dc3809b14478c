//! `fleet_steady_seq` and `fleet_steady_par`: one 99,498-NE scenario value
//! on `Backend::Sim` and on `try_build_par(2)`.
//!
//! A working set of ~300 MB makes queue, timer and arena locality dominate:
//! a codec or protocol micro-gain is diluted here and a memory-layout gain
//! shows here. Running the *same* scenario on both engines separates gains
//! in the shared `sim` layers (both move) from Par-only gains in barriers
//! and partitioning (only `fleet_steady_par` moves), and catches a Seq gain
//! bought at Par's expense.

use super::{
    check_allocs_repeat, enough_laps, fleet_scenario, metered, report_lap_health, report_sim_laps,
    run_counted, trace_setup_path, Counters, LapCost, Outcome, Params, Repeat, TimedLap,
    ENGINE_THREADS, SLICE_TICKS,
};
use crate::clock::Clock;
use crate::layers::Ledger;
use crate::spans::Recorder;
use crate::stats;
use rgb_sim::{ParSimulation, Scenario, Simulation};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

enum World {
    Seq(Box<Simulation>),
    Par(Box<ParSimulation>),
}

impl World {
    /// Set-up as a user pays it: from a `Scenario` in hand to a booted
    /// engine with the whole schedule primed.
    fn build(sc: &Scenario, par: bool) -> World {
        if par {
            World::Par(Box::new(
                sc.try_build_par(ENGINE_THREADS).expect("generated scenario validates"),
            ))
        } else {
            World::Seq(Box::new(sc.try_build_sim().expect("generated scenario validates")))
        }
    }

    fn enable_obs_tracking(&mut self) {
        match self {
            World::Seq(sim) => sim.enable_obs_tracking(),
            World::Par(sim) => sim.enable_obs_tracking(),
        }
    }

    /// Run to `deadline`; events processed on the way.
    fn run(&mut self, deadline: u64) -> u64 {
        match self {
            World::Seq(sim) => run_counted(sim, deadline),
            World::Par(sim) => {
                let before = sim.processed_events();
                sim.run_until(deadline);
                sim.processed_events() - before
            }
        }
    }

    /// The run phase of a timed lap. The sequential engine runs it in
    /// `SLICE_TICKS` slices, each a part of the lap, the clock sampled before
    /// each. The parallel engine pays ~40 ms to enter `run_until` (threads,
    /// channels, barrier), so its lap is one part, and a third thread
    /// samples the clock every 10 ms (20 us of work) while the shards run.
    fn run_timed(&mut self, deadline: u64, clock: &mut Clock) -> (u64, LapCost, Vec<f64>) {
        let mut parts_s = Vec::new();
        let (events, cost) = metered(|| match self {
            World::Seq(sim) => {
                let (mut tick, mut events) = (0, 0);
                while tick < deadline {
                    tick = (tick + SLICE_TICKS).min(deadline);
                    clock.sample();
                    let t = Instant::now();
                    events += run_counted(sim, tick);
                    parts_s.push(t.elapsed().as_secs_f64());
                }
                events
            }
            World::Par(_) => {
                let done = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        while !done.load(Relaxed) {
                            clock.sample();
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    });
                    let t = Instant::now();
                    let events = self.run(deadline);
                    parts_s.push(t.elapsed().as_secs_f64());
                    done.store(true, Relaxed);
                    events
                })
            }
        });
        (events, cost, parts_s)
    }

    fn repeat(&self, events: u64, rec: &mut Recorder) -> Repeat {
        let (sent_total, digest) = match self {
            World::Seq(sim) => {
                (sim.metrics.sent_total, rec.leaf("system_digest", || sim.system_digest(true)))
            }
            World::Par(sim) => (
                sim.counter_totals().sent_total,
                rec.leaf("system_digest", || sim.system_digest(true)),
            ),
        };
        Repeat { events, sent_total, fingerprint: digest.views_fingerprint() }
    }

    fn counters(&self, sc: &Scenario, events: u64) -> Counters {
        let mut c = Counters { events, ..Counters::default() };
        match self {
            World::Seq(sim) => {
                c.absorb(sc, &sim.metrics, sim.nodes_iter(), sim.crashed_set());
                c.first_seen_overflow = sim.obs_first_seen_overflow();
                c.peak_queue_len = sim.peak_queue_len() as u64;
                c.state_bytes = sim.memory_stats().total_bytes() as u64;
            }
            World::Par(sim) => {
                c.absorb(sc, &sim.metrics(), sim.nodes_iter(), &sim.crashed_set());
                c.first_seen_overflow = sim.obs_first_seen_overflow();
                c.state_bytes = sim.memory_stats().total_bytes() as u64;
            }
        }
        c
    }
}

pub fn run(par: bool, p: &Params, rec: &mut Recorder) -> Outcome {
    let sc = fleet_scenario(p.seed, p.smoke);
    let mut out = Outcome::default();
    let mut clock = Clock::default();
    // Set-up times, and the clock speed of the lap each belongs to.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let build = |rec: &mut Recorder, clock: &mut Clock| {
        clock.sample();
        let t = Instant::now();
        let name = if par { "try_build_par" } else { "try_build_sim" };
        let world = rec.leaf(name, || World::build(&sc, par));
        let setup_s = t.elapsed().as_secs_f64();
        clock.sample();
        (world, setup_s)
    };

    // Protocol lap: obs tracking on, untimed. Its event count, sent_total
    // and final digest are what every later lap must reproduce, and its
    // histograms are the join-latency metrics.
    rec.set_lap(1);
    let (mut world, setup_s) = build(rec, &mut clock);
    setups.push((setup_s, clock.take()));
    world.enable_obs_tracking();
    let events = world.run(sc.duration);
    let reference = world.repeat(events, rec);
    let mut counters = world.counters(&sc, events);
    drop(world);

    // Timed laps: fixed work, repeated until they cover `--seconds`.
    let mut laps: Vec<TimedLap> = Vec::new();
    let started = Instant::now();
    while !enough_laps(p, &laps, started) {
        rec.set_lap(laps.len() as u32 + 2);
        let (mut world, setup_s) = build(rec, &mut clock);
        let (events, cost, parts_s) = world.run_timed(sc.duration, &mut clock);
        let speed = clock.take();
        let repeat = world.repeat(events, rec);
        out.check("counts_repeat", repeat == reference, || {
            format!("timed lap {} gave {repeat:?}, protocol lap {reference:?}", laps.len() + 1)
        });
        setups.push((setup_s, speed));
        laps.push(TimedLap { cost, parts_s, speed });
    }
    if !par {
        check_allocs_repeat(&laps, &mut out);
    }

    // fleet_steady_par answers for the sequential engine's digest too: one
    // untimed Seq lap of the same scenario must end on the same views.
    let mut seq_lap_s = None;
    if par {
        rec.set_lap(0);
        let mut seq = World::build(&sc, false);
        let t = Instant::now();
        let events = seq.run(sc.duration);
        seq_lap_s = Some(t.elapsed().as_secs_f64());
        let seq_repeat = seq.repeat(events, rec);
        if let World::Seq(sim) = &seq {
            counters.peak_queue_len = sim.peak_queue_len() as u64;
        }
        out.check("par_matches_seq", seq_repeat == reference, || {
            format!("Seq lap gave {seq_repeat:?}, Par protocol lap {reference:?}")
        });
    }

    let threads = if par { ENGINE_THREADS } else { 1 };
    let setups: Vec<f64> = setups.iter().map(|(setup_s, speed)| setup_s * speed).collect();
    report_sim_laps(
        &counters,
        reference,
        &laps,
        stats::median(&setups),
        &setups,
        threads,
        &mut out,
    );

    if p.trace {
        traced_pass(par, p, &sc, &counters, reference, &laps, seq_lap_s, rec, &mut out);
    }
    out
}

/// One traced lap (spans around `run_until`) plus the replayed layers.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    par: bool,
    p: &Params,
    sc: &Scenario,
    counters: &Counters,
    reference: Repeat,
    laps: &[TimedLap],
    seq_lap_s: Option<f64>,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    rec.set_lap(laps.len() as u32 + 2);
    let build_name = if par { "try_build_par" } else { "try_build_sim" };
    let builds_before = rec.total_ns(build_name);
    let mut world = rec.leaf(build_name, || World::build(sc, par));
    let traced_build_ns = rec.total_ns(build_name) - builds_before;
    let t = Instant::now();
    let mut events = 0;
    match &mut world {
        World::Seq(sim) => {
            let mut tick = 0;
            while tick < sc.duration {
                tick = (tick + SLICE_TICKS).min(sc.duration);
                events += rec.leaf("Simulation::run_until", || run_counted(sim, tick));
            }
        }
        World::Par(sim) => {
            let before = sim.processed_events();
            rec.leaf("ParSimulation::run_until", || sim.run_until(sc.duration));
            events = sim.processed_events() - before;
        }
    }
    let traced_lap = t.elapsed().as_secs_f64();
    let repeat = world.repeat(events, rec);
    out.check("counts_repeat", repeat == reference, || {
        format!("traced lap gave {repeat:?}, protocol lap {reference:?}")
    });

    let nodes = counters.nodes as f64;
    if let World::Par(sim) = &world {
        let stats = sim.par_stats();
        let (lo, hi) = sim.lookahead_range();
        let s = |nanos: u64| nanos as f64 / 1e9;
        let loop_s =
            s(stats.execute_nanos + stats.flush_nanos + stats.barrier_nanos + stats.drain_nanos);
        out.layer("sim.par.build_s", traced_build_ns as f64 / 1e9);
        out.layer("sim.par.execute_s", s(stats.execute_nanos));
        out.layer("sim.par.flush_s", s(stats.flush_nanos));
        out.layer("sim.par.barrier_s", s(stats.barrier_nanos));
        out.layer("sim.par.drain_s", s(stats.drain_nanos));
        out.layer("sim.par.barrier_share", s(stats.barrier_nanos) / loop_s.max(1e-9));
        out.layer("sim.par.windows", stats.windows as f64);
        out.layer("sim.par.idle_skips", stats.idle_skips as f64);
        out.layer("sim.par.frames_batched", stats.frames_batched as f64);
        out.layer("sim.par.batches", stats.batches as f64);
        out.layer("sim.par.max_batch", stats.max_batch as f64);
        out.layer("sim.par.lookahead_min", lo as f64);
        out.layer("sim.par.lookahead_max", hi as f64);
        let median_lap = stats::median(&laps.iter().map(|l| l.cost.wall_s).collect::<Vec<_>>());
        out.layer("sim.par.speedup_vs_seq", seq_lap_s.unwrap_or(0.0) / median_lap);
    } else {
        out.layer("sim.scenario.build_ns_per_node", traced_build_ns as f64 / nodes);
    }
    drop(world);

    rec.set_lap(0);
    trace_setup_path(sc, rec, out);
    if par {
        // The Seq twin's build, for the set-up ledger row both fleet
        // workloads share.
        let t = Instant::now();
        drop(rec.leaf("try_build_sim", || sc.try_build_sim()));
        out.layer("sim.scenario.build_ns_per_node", t.elapsed().as_nanos() as f64 / nodes);
    }
    out.layer("core.introspect.digest_ns_per_node", rec.mean_ns("system_digest") / nodes);
    let step_ns = (!par).then(|| rec.total_ns("Simulation::run_until") as f64 / events as f64);
    counters.protocol_layer_metrics(out);
    counters.sim_layer_metrics(out);
    Ledger::measure(p.seed, &sc.net, rec).report(counters, step_ns, out);
    report_lap_health(laps, reference.events, traced_lap, out);
}
