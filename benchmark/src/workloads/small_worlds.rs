//! `small_worlds`: 256 independent 258-NE `rolling_upgrade_churn` worlds,
//! built and run back to back on `Backend::Sim`.
//!
//! Each world is cache-resident, so per-event CPU in `wire`,
//! `NodeState::handle_into`, timers and the repair/reattach paths is the
//! whole cost — the opposite regime to the fleet. It is also the set-up
//! path used differently: hundreds of tiny builds against one giant one.

use super::{
    check_allocs_repeat, enough_laps, fold_fingerprint, metered, report_lap_health,
    report_sim_laps, run_counted, small_world, trace_setup_path, Counters, LapCost, Outcome,
    Params, Repeat, TimedLap, ENGINE_THREADS, SLICE_TICKS,
};
use crate::clock::Clock;
use crate::json::Value;
use crate::layers::Ledger;
use crate::spans::Recorder;
use crate::{alloc, stats};
use rgb_sim::{Backend, Scenario};
use std::time::Instant;

const WORLDS: u64 = 256;
const SMOKE_WORLDS: u64 = 16;
/// Worlds of the protocol lap also run on `Backend::Par(2)`.
const PAR_SAMPLES: usize = 8;

/// What one lap over every world measured.
struct Lap {
    /// Each world's `try_build_sim` time.
    setups_s: Vec<f64>,
    /// Each world's run time; wall and CPU of the whole lap, builds and
    /// digests included (see `lap`); allocations of the run phases.
    timed: TimedLap,
    repeat: Repeat,
}

/// Build and run every world once, sampling the clock before each. `observe`
/// sees each finished world.
fn lap(
    worlds: &[Scenario],
    track: bool,
    traced: bool,
    clock: &mut Clock,
    rec: &mut Recorder,
    mut observe: impl FnMut(&Scenario, &rgb_sim::Simulation, u64),
) -> Lap {
    let mut setups_s = Vec::with_capacity(worlds.len());
    let mut parts_s = Vec::with_capacity(worlds.len());
    let (mut allocs, mut alloc_bytes) = (0, 0);
    let mut repeat = Repeat { events: 0, sent_total: 0, fingerprint: 0 };
    // The CPU meter ticks in 10 ms steps, coarser than one world's run, so
    // the meters are read once around the whole lap; the timing figures
    // rest on the per-world wall times and use the lap's CPU only as CPU
    // per second of wall.
    clock.take();
    let ((), whole) = metered(|| {
        for sc in worlds {
            clock.sample();
            let t = Instant::now();
            let mut sim =
                rec.leaf("try_build_sim", || sc.try_build_sim().expect("preset validates"));
            setups_s.push(t.elapsed().as_secs_f64());
            if track {
                sim.enable_obs_tracking();
            }
            let before = alloc::totals();
            let t = Instant::now();
            let events = if traced {
                let (mut tick, mut events) = (0, 0);
                while tick < sc.duration {
                    tick = (tick + SLICE_TICKS).min(sc.duration);
                    events += rec.leaf("Simulation::run_until", || run_counted(&mut sim, tick));
                }
                events
            } else {
                run_counted(&mut sim, sc.duration)
            };
            parts_s.push(t.elapsed().as_secs_f64());
            let after = alloc::totals();
            allocs += after.0 - before.0;
            alloc_bytes += after.1 - before.1;
            let digest = rec.leaf("system_digest", || sim.system_digest(true));
            repeat.events += events;
            repeat.sent_total += sim.metrics.sent_total;
            repeat.fingerprint = fold_fingerprint(repeat.fingerprint, digest.views_fingerprint());
            observe(sc, &sim, events);
        }
    });
    let cost = LapCost { allocs, alloc_bytes, ..whole };
    Lap { setups_s, timed: TimedLap { cost, parts_s, speed: clock.take() }, repeat }
}

pub fn run(p: &Params, rec: &mut Recorder) -> Outcome {
    let count = if p.smoke { SMOKE_WORLDS } else { WORLDS };
    let worlds: Vec<Scenario> = (0..count).map(|i| small_world(p.seed, i)).collect();
    let mut out = Outcome::default();
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut clock = Clock::default();

    // Protocol lap: obs tracking on, untimed; gathers the counters and the
    // exact-repeat reference, and replays a sample of worlds on Par(2).
    rec.set_lap(1);
    let mut counters = Counters::default();
    let protocol = lap(&worlds, true, false, &mut clock, rec, |sc, sim, events| {
        counters.events += events;
        counters.absorb(sc, &sim.metrics, sim.nodes_iter(), sim.crashed_set());
        counters.first_seen_overflow += sim.obs_first_seen_overflow();
        counters.peak_queue_len = counters.peak_queue_len.max(sim.peak_queue_len() as u64);
        counters.state_bytes += sim.memory_stats().total_bytes() as u64;
    });
    let at_reference = |lap: &Lap| lap.setups_s.iter().map(|s| s * lap.timed.speed).collect();
    setups.push(at_reference(&protocol));
    let reference = protocol.repeat;
    let stride = (worlds.len() / PAR_SAMPLES).max(1);
    for sc in worlds.iter().step_by(stride).take(PAR_SAMPLES) {
        let seq = sc.run_on_digest(Backend::Sim).expect("preset validates").1;
        let par = sc.run_on_digest(Backend::Par(ENGINE_THREADS)).expect("preset validates").1;
        out.check("par_matches_seq", seq == par, || {
            format!("world seed {:#x}: Par({ENGINE_THREADS}) digest differs from Sim", sc.seed)
        });
    }

    let mut laps: Vec<TimedLap> = Vec::new();
    let started = Instant::now();
    while !enough_laps(p, &laps, started) {
        rec.set_lap(laps.len() as u32 + 2);
        let timed = lap(&worlds, false, false, &mut clock, rec, |_, _, _| {});
        out.check("counts_repeat", timed.repeat == reference, || {
            format!(
                "timed lap {} gave {:?}, protocol lap {reference:?}",
                laps.len() + 1,
                timed.repeat
            )
        });
        setups.push(at_reference(&timed));
        laps.push(timed.timed);
    }
    check_allocs_repeat(&laps, &mut out);

    // Set-up is steadied like the lap time: each world's median build time
    // over the laps at the reference clock, summed.
    let setup_parts: Vec<&[f64]> = setups.iter().map(Vec::as_slice).collect();
    let setup_laps: Vec<f64> = setups.iter().map(|lap| lap.iter().sum()).collect();
    let setup_s = stats::sum_of_part_medians(&setup_parts);
    report_sim_laps(&counters, reference, &laps, setup_s, &setup_laps, 1, &mut out);
    out.info.push(("worlds", Value::Num(count as f64)));

    if p.trace {
        rec.set_lap(laps.len() as u32 + 2);
        let builds_before = rec.total_ns("try_build_sim");
        let traced = lap(&worlds, false, true, &mut clock, rec, |_, _, _| {});
        out.check("counts_repeat", traced.repeat == reference, || {
            format!("traced lap gave {:?}, protocol lap {reference:?}", traced.repeat)
        });
        let nodes = counters.nodes as f64;
        out.layer(
            "sim.scenario.build_ns_per_node",
            (rec.total_ns("try_build_sim") - builds_before) as f64 / nodes,
        );
        out.layer(
            "core.introspect.digest_ns_per_node",
            rec.mean_ns("system_digest") / (nodes / count as f64),
        );
        let step_ns = rec.total_ns("Simulation::run_until") as f64 / reference.events as f64;
        rec.set_lap(0);
        trace_setup_path(&worlds[0], rec, &mut out);
        counters.protocol_layer_metrics(&mut out);
        counters.sim_layer_metrics(&mut out);
        Ledger::measure(p.seed, &worlds[0].net, rec).report(&counters, Some(step_ns), &mut out);
        report_lap_health(&laps, reference.events, traced.timed.cost.wall_s, &mut out);
    }
    out
}
