//! Trace equivalence of the sharded conservative-parallel engine.
//!
//! The acceptance bar of the `rgb_sim::par` subsystem: across seeds ×
//! shard counts × fault plans, [`ParSimulation`] must produce
//! **byte-identical [`SystemDigest`] sequences** to the sequential
//! [`Simulation`] — same alive-node digests in the same order, same crash
//! sets, same clocks — at every observation checkpoint, not only at the
//! end. The checkpoint stride is deliberately coprime-ish to the latency
//! bands so window boundaries and checkpoint boundaries interleave in
//! every relative phase.
//!
//! The matrix covers the four scheduling regimes:
//! - **instant** — zero latency ⇒ zero lookahead ⇒ the merged fallback
//!   (same-tick cascades, the hardest ordering case);
//! - **lossy tokens** — continuous tokens + loss + dup/reorder ⇒ windowed
//!   execution with heavy per-node RNG traffic;
//! - **churn + crash + partition** — the full fault surface, scheduled
//!   disruptions crossing shard boundaries;
//! - **sparse bursts** — a heterogeneous-floor network (wide-area floor
//!   several times the inter-tier floor) and long quiet stretches between
//!   disruptions, so per-pair lookahead lets shard clocks drift apart and
//!   idle-window skipping jumps the gaps. The digest comparison proves
//!   neither shortcut changes a single observable byte.

mod common;

use common::{assert_golden, Golden};
use rgb_core::prelude::*;
use rgb_sim::workload::ChurnParams;
use rgb_sim::{Backend, LatencyBand, NetConfig, ParStats, Scenario, ScenarioOutcome};

/// The fault-plan matrix (mirrors the engine-determinism scenarios, plus
/// a partition so every scheduled-event kind crosses the driver).
fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut lossy = NetConfig::unit();
    lossy.loss = 0.05;
    lossy.wireless_loss = 0.02;
    lossy.dup = 0.05;
    lossy.reorder = 0.05;
    lossy.reorder_extra = 7;
    let mut live = ProtocolConfig::live();
    live.token_interval = 10;
    live.token_retransmit_timeout = 30;
    live.heartbeat_interval = 100;
    live.token_lost_timeout = 400;

    let mut out = Vec::new();

    // Same-tick stress: zero latency puts every cascade on one tick and
    // forces the merged (zero-lookahead) driver.
    let sc = Scenario::new("instant joins", 2, 3).with_net(NetConfig::instant()).with_seed(seed);
    let aps = sc.layout().aps();
    let mut sc = sc;
    for (i, &ap) in aps.iter().enumerate() {
        sc = sc.join((i % 3) as u64, ap, Guid(i as u64), Luid(1));
    }
    out.push(sc.with_duration(5_000));

    // Loss + dup/reorder + continuous tokens: windowed execution under
    // constant retransmission and re-arming.
    let sc = Scenario::new("lossy tokens", 2, 4)
        .with_cfg(live.clone())
        .with_net(lossy.clone())
        .with_seed(seed)
        .with_duration(6_000);
    let ap = sc.layout().aps()[1];
    out.push(sc.join(0, ap, Guid(1), Luid(1)));

    // Churn + crash + partition: every scheduled-disruption kind, loss,
    // and a default (banded) network.
    let sc = Scenario::new("churn crash partition", 2, 3)
        .with_cfg(live)
        .with_seed(seed)
        .with_duration(8_000)
        .with_churn(ChurnParams {
            initial_members: 12,
            mean_join_interval: 300.0,
            mean_lifetime: 2_000.0,
            failure_fraction: 0.3,
            duration: 8_000,
        });
    let victim = sc.layout().aps()[2];
    let roots = sc.layout().root_ring().nodes.clone();
    let sc = sc.crash(4_000, victim).partition(1_000, 2_500, roots[0], roots[1]).query(
        6_000,
        roots[0],
        QueryScope::Global,
    );
    out.push(sc);

    // Sparse bursts over a heterogeneous-floor net: sponsor pairs run on
    // a tight inter-tier floor while everyone else gets five times the
    // window; activity arrives in bursts thousands of ticks apart so most
    // windows are empty (idle-skip territory). Default (on-demand) config
    // keeps the world quiet between bursts apart from heartbeats.
    let banded = NetConfig {
        intra_ring: LatencyBand { min: 5, max: 15 },
        inter_tier: LatencyBand { min: 8, max: 30 },
        wide_area: LatencyBand { min: 40, max: 90 },
        ..NetConfig::default()
    };
    let sc = Scenario::new("sparse bursts", 2, 3).with_net(banded).with_seed(seed);
    let aps = sc.layout().aps();
    let roots = sc.layout().root_ring().nodes.clone();
    let mut sc = sc.with_duration(30_000);
    for (i, &ap) in aps.iter().take(6).enumerate() {
        sc = sc.join(i as u64 * 4_500, ap, Guid(100 + i as u64), Luid(1));
    }
    out.push(sc.crash(12_000, aps[6]).query(24_000, roots[0], QueryScope::Global));

    out
}

/// Digest stream at checkpoints every `stride` ticks, via the given
/// engine. `settled` is fixed to `false` so the digest compares pure
/// engine state, not the caller's quiescence verdict.
fn digest_stream_seq(sc: &Scenario, stride: u64) -> Vec<SystemDigest> {
    let mut sim = sc.build_sim();
    let mut out = Vec::new();
    let mut t = 0;
    while t < sc.duration {
        t = (t + stride).min(sc.duration);
        sim.run_until(t);
        out.push(sim.system_digest(false));
    }
    out
}

fn digest_stream_par(sc: &Scenario, stride: u64, shards: usize) -> Vec<SystemDigest> {
    let mut sim = sc.try_build_par(shards).expect("scenario validates");
    let mut out = Vec::new();
    let mut t = 0;
    while t < sc.duration {
        t = (t + stride).min(sc.duration);
        sim.run_until(t);
        out.push(sim.system_digest(false));
    }
    out
}

#[test]
fn par_digest_streams_match_sequential_across_the_matrix() {
    for seed in [1u64, 7, 23] {
        for sc in scenarios(seed) {
            let seq = digest_stream_seq(&sc, 499);
            for shards in [1usize, 2, 3, 4, 5, 8] {
                let par = digest_stream_par(&sc, 499, shards);
                assert_eq!(
                    seq.len(),
                    par.len(),
                    "seed {seed}, '{}', {shards} shards: checkpoint counts",
                    sc.name
                );
                for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                    assert_eq!(
                        a, b,
                        "seed {seed}, '{}', {shards} shards: digest diverged at checkpoint {i} \
                         (t={})",
                        sc.name, a.now
                    );
                }
            }
        }
    }
}

/// The matrix above compares the engines with each other; this compares
/// each family, at seed 7 on Seq and Par(3), with what it did when the pins
/// were taken (see `common`).
#[test]
fn scenario_families_reproduce_their_pinned_fingerprints() {
    let pins = [
        Golden {
            digests: 4338711283607944643,
            sent_total: 258,
            app_events: 134,
            lost: 0,
            stale_timer_skips: 99,
            timer_fires: [0, 0, 0, 0, 0, 0],
        },
        Golden {
            digests: 2904503120191425536,
            sent_total: 4285,
            app_events: 39,
            lost: 249,
            stale_timer_skips: 3962,
            timer_fires: [205, 328, 103, 1200, 0, 0],
        },
        Golden {
            digests: 7211921134004447858,
            sent_total: 5692,
            app_events: 440,
            lost: 0,
            stale_timer_skips: 5343,
            timer_fires: [18, 696, 17, 919, 0, 0],
        },
        Golden {
            digests: 11057331218499270821,
            sent_total: 164,
            app_events: 85,
            lost: 0,
            stale_timer_skips: 63,
            timer_fires: [0, 0, 0, 0, 0, 0],
        },
    ];
    let families = scenarios(7);
    assert_eq!(families.len(), pins.len());
    for (sc, want) in families.iter().zip(&pins) {
        assert_golden(sc, want);
    }
}

#[test]
fn par_outcomes_and_counter_totals_match_sequential() {
    for seed in [3u64, 11] {
        for sc in scenarios(seed) {
            let mut seq = sc.build_sim();
            seq.run_until(sc.duration);
            let seq_outcome = ScenarioOutcome::from_sim(&seq);
            for shards in [2usize, 4] {
                let mut par = sc.try_build_par(shards).expect("scenario validates");
                par.run_until(sc.duration);
                assert_eq!(
                    ScenarioOutcome::from_par(&par),
                    seq_outcome,
                    "seed {seed}, '{}', {shards} shards",
                    sc.name
                );
                // Merged shard metrics equal the sequential totals: the
                // same events happened, just distributed.
                let pm = par.metrics();
                let sm = &seq.metrics;
                assert_eq!(pm.sent_total, sm.sent_total, "'{}' sent_total", sc.name);
                assert_eq!(pm.lost, sm.lost, "'{}' lost", sc.name);
                assert_eq!(pm.duplicated, sm.duplicated, "'{}' duplicated", sc.name);
                assert_eq!(pm.reordered, sm.reordered, "'{}' reordered", sc.name);
                assert_eq!(
                    pm.partition_dropped, sm.partition_dropped,
                    "'{}' partition_dropped",
                    sc.name
                );
                assert_eq!(pm.app_events, sm.app_events, "'{}' app_events", sc.name);
                assert_eq!(pm.codec_rejected, sm.codec_rejected, "'{}' codec_rejected", sc.name);
                assert_eq!(pm.by_label(), sm.by_label(), "'{}' per-label sends", sc.name);
                assert!(
                    par.processed_events() > 0,
                    "'{}' parallel engine processed nothing",
                    sc.name
                );
            }
        }
    }
}

#[test]
fn run_on_backends_produce_identical_outcomes() {
    let sc =
        Scenario::new("knob", 2, 3).with_duration(4_000).with_seed(9).with_churn(ChurnParams {
            initial_members: 8,
            mean_join_interval: 0.0,
            mean_lifetime: 800.0,
            failure_fraction: 0.25,
            duration: 4_000,
        });
    let seq = sc.run_on(Backend::Sim).expect("valid scenario");
    assert_eq!(seq, sc.run_on(Backend::Par(1)).expect("valid scenario"));
    assert_eq!(seq, sc.run_on(Backend::Par(4)).expect("valid scenario"));
}

/// `run_until(now)` drains what is due at `now` on both engines — on the
/// merged path (instant network) and on the windowed one, where the window
/// starts at its own deadline.
#[test]
fn run_until_now_drains_what_is_due_now_on_both_engines() {
    for net in [NetConfig::instant(), NetConfig::default()] {
        let sc = Scenario::new("due now", 2, 3).with_net(net).with_seed(7);
        let ap = sc.layout().aps()[4];
        let root = sc.layout().root_ring().nodes[0];
        let sc = sc.join(0, ap, Guid(1), Luid(1));
        for shards in [1usize, 2, 3] {
            // Boot-time sends (and, with no wireless latency, the tick-0
            // join) are due at the start.
            let mut seq = sc.build_sim();
            let mut par = sc.try_build_par(shards).expect("scenario validates");
            seq.run_until(0);
            par.run_until(0);
            assert_eq!(seq.system_digest(false), par.system_digest(false), "{shards} shards, t=0");
            assert_eq!(seq.queue_len(), par.queue_len(), "{shards} shards, t=0");
            assert_eq!(seq.pending_disruptions(), par.pending_disruptions(), "{shards} shards");

            // A delay-0 query scheduled mid-run is due at the clock.
            seq.run_until(100);
            par.run_until(100);
            seq.schedule_query(0, root, QueryScope::Global);
            par.schedule_query(0, root, QueryScope::Global);
            seq.run_until(100);
            par.run_until(100);
            assert_eq!(seq.pending_disruptions(), 0, "the query was due at 100");
            assert_eq!(par.pending_disruptions(), 0, "{shards} shards: the query was due at 100");
            assert_eq!(seq.system_digest(true), par.system_digest(true), "{shards} shards, t=100");
            seq.run_until(2_000);
            par.run_until(2_000);
            assert_eq!(seq.system_digest(false), par.system_digest(false), "{shards} shards, end");
            assert_eq!(seq.metrics.query_latency.len(), 1);
            assert_eq!(par.metrics().query_latency.len(), 1, "{shards} shards");
        }
    }
}

#[test]
fn windowed_runs_report_par_stats_and_lookahead_slack() {
    let all = scenarios(7);
    let sparse = all.last().expect("sparse bursts scenario");
    let mut par = sparse.try_build_par(4).expect("scenario validates");
    par.run_until(sparse.duration);
    let (lo, hi) = par.lookahead_range();
    assert!(lo >= 8 && hi >= 40, "banded floors surface in the matrix ({lo}, {hi})");
    assert!(lo < hi, "per-pair matrix must offer slack over the global floor");
    let stats = par.par_stats();
    assert!(stats.windows > 0, "windowed run counts windows");
    assert!(stats.idle_skips > 0, "sparse scenario must skip idle windows");
    assert!(stats.batches > 0, "cross-shard traffic flows as batches");
    assert!(stats.frames_batched >= stats.batches, "every batch carries at least one frame");
    assert!(stats.max_batch >= 1);

    // The per-shard loads are the terms of those sums, one per shard.
    let loads = par.shard_loads();
    assert_eq!(loads.len(), par.shard_count());
    let mut summed = ParStats::default();
    loads.iter().for_each(|l| summed.merge(&l.par));
    assert_eq!(summed, stats);
    assert_eq!(loads.iter().map(|l| l.processed).sum::<u64>(), par.processed_events());
    assert_eq!(loads.iter().map(|l| l.nodes).sum::<usize>(), par.layout.node_count());
    assert!(loads.iter().all(|l| l.par.windows > 0), "every shard ran windows: {loads:?}");

    // Zero lookahead admits no window: the layout is held as one shard.
    let instant = all[0].try_build_par(4).expect("scenario validates");
    assert_eq!(instant.shard_count(), 1, "an instant network holds one shard");
}

/// A crash and a query scheduled on an id outside the layout, and a delay-0
/// crash of a layout node not yet run, count alike on both engines: every
/// scheduled event sits in some world's queue until it runs, and the crash
/// set is what the worlds have run.
#[test]
fn events_outside_the_layout_count_alike_on_both_engines() {
    let ghost = NodeId(9_999);
    for net in [NetConfig::instant(), NetConfig::default()] {
        let sc = Scenario::new("outside the layout", 2, 3).with_net(net).with_seed(7);
        let victim = sc.layout().aps()[1];
        let mut seq = sc.build_sim();
        let mut par = sc.try_build_par(2).expect("scenario validates");
        seq.run_until(100);
        par.run_until(100);
        seq.crash_at(10, ghost);
        par.crash_at(10, ghost);
        seq.schedule_query(20, ghost, QueryScope::Global);
        par.schedule_query(20, ghost, QueryScope::Global);
        seq.crash_at(0, victim);
        par.crash_at(0, victim);
        for phase in ["scheduled", "run"] {
            if phase == "run" {
                seq.run_until(500);
                par.run_until(500);
            }
            let shards = par.shard_count();
            assert_eq!(seq.pending_disruptions(), par.pending_disruptions(), "{phase}, {shards}");
            assert_eq!(seq.queue_len(), par.queue_len(), "{phase}, {shards} shards");
            assert_eq!(seq.crashed_set(), &par.crashed_set(), "{phase}, {shards} shards");
            for node in [ghost, victim] {
                assert_eq!(seq.is_crashed(node), par.is_crashed(node), "{phase}, {node}");
            }
            assert_eq!(seq.system_digest(false), par.system_digest(false), "{phase}, {shards}");
        }
        assert!(par.is_crashed(ghost) && par.is_crashed(victim), "both crashes ran");
    }
}

#[test]
fn obs_enabled_digest_streams_stay_byte_identical() {
    use rgb_core::obs::{FlightRecorder, TraceSink};
    for sc in scenarios(7) {
        let mut seq = sc.build_sim();
        seq.enable_obs(Box::new(FlightRecorder::new(1024)));
        let mut par = sc.try_build_par(4).expect("scenario validates");
        par.enable_obs(|_| Box::new(FlightRecorder::new(1024)) as Box<dyn TraceSink>);
        let mut t = 0;
        while t < sc.duration {
            t = (t + 499).min(sc.duration);
            seq.run_until(t);
            par.run_until(t);
            assert_eq!(
                seq.system_digest(false),
                par.system_digest(false),
                "'{}': digest diverged with obs enabled at t={t}",
                sc.name
            );
        }
        // The obs-enabled trajectory is the obs-disabled trajectory: the
        // instrumentation reads protocol state, never writes it.
        let plain = digest_stream_seq(&sc, 499);
        assert_eq!(
            plain.last().unwrap(),
            &seq.system_digest(false),
            "'{}': enabling obs changed the trajectory",
            sc.name
        );
    }
}

#[test]
fn mid_run_digests_are_checkpoint_consistent_under_odd_strides() {
    // Different checkpoint strides must not change the trajectory — the
    // window protocol may not leak observation granularity into state.
    let sc = &scenarios(5)[1];
    let coarse = digest_stream_par(sc, 1_999, 4);
    let fine = digest_stream_par(sc, 499, 4);
    let last_coarse = coarse.last().unwrap();
    let last_fine = fine.last().unwrap();
    assert_eq!(last_coarse, last_fine, "final digest depends on observation stride");
}
