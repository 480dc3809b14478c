//! Scale benchmark: churn scenarios from ~20k to ~10⁶ nodes driven
//! through the sequential engine and a shard-count sweep of the
//! conservative-parallel engine (`rgb_sim::par`), reporting **events/sec**
//! (median of N runs), speedup vs sequential, per-pair lookahead range,
//! window/batching counters, per-shard loads, bytes/node and peak RSS per
//! mode, written as `BENCH_scale.json` (schema `rgb-bench/scale-v2`).
//!
//! ```text
//! cargo run --release -p rgb-bench --bin bench_scale -- \
//!     [--smoke | --million] [--runs N] [--check-digests] \
//!     [--min-speedup X [--gate-shards S] [--warn-speedup Y]] \
//!     [--out BENCH_scale.json] [--obs-out OBS.json] [--budget-secs T]
//! ```
//!
//! - Default (full) tier runs the 100k-node scenario (h=3, r=46 ⇒ 99,498
//!   NEs); `--smoke` runs the CI-sized 20k-node variant (r=27 ⇒ 20,439
//!   NEs); `--million` runs the gated scale tier (r=100 ⇒ 1,010,100 NEs,
//!   ~1.3 GiB resident). `--smoke` and `--million` both **imply
//!   `--check-digests`**.
//! - `--runs N` (default 3) repeats every mode N times and reports the
//!   **median** wall time — single-shot numbers on shared CI runners are
//!   noise.
//! - `--check-digests` replays the scenario sequentially and on 4 shards,
//!   comparing [`SystemDigest`]s at every checkpoint — the engines are
//!   trace-equivalent by construction and this gate keeps CI honest about
//!   it. A mismatch exits non-zero.
//! - `--min-speedup X` fails the run (exit 1) when the median speedup at
//!   `--gate-shards` (default 4) is below X; `--warn-speedup Y` (default
//!   2.0) additionally emits a GitHub `::warning::` when the speedup
//!   clears the gate but misses Y. The gate **refuses to run on a
//!   single-core host**: a 1-core "speedup" measures scheduler overhead,
//!   not the engine.
//! - `--obs-out OBS.json` runs one extra obs-instrumented pass on the
//!   4-shard engine — flight recorder per shard, periodic timeline
//!   samples, per-ring-level latency histograms — and writes the
//!   `rgb-obs v1` JSON document there plus a Prometheus text sibling at
//!   `OBS.prom`. The sweep's own timings are never polluted: the
//!   obs pass is a separate run.
//! - `--budget-secs` fails the run if the whole sweep (digest check
//!   included) exceeds the budget — the CI job's time box.
//! - Every mode records `peak_rss_bytes`: the process's `VmHWM` after the
//!   mode's runs, the watermark reset before them (`null` where `/proc`
//!   does not offer it). `bytes_per_node` is what the engine *accounts*
//!   for; this is what it *costs*, allocator slack and retained capacity
//!   included. The `--smoke` tier fails when the sequential mode's peak
//!   exceeds `SMOKE_PEAK_RSS_PER_NODE` bytes per NE, so memory that grows
//!   with run time rather than with the world (a queue that never
//!   shrinks) cannot come back unnoticed.
//! - Every parallel mode records what each shard did — `shards`: `nodes`,
//!   `events`, `execute_ms`, `barrier_ms` per shard, from
//!   `ParSimulation::shard_loads` — and `event_imbalance`, the `max / mean`
//!   of the per-shard event counts (both `[]` / `null` for `seq`). The
//!   static ring split is the whole load balance of a windowed run, so the
//!   `--smoke` tier fails when any shard count of the sweep reads above
//!   `SMOKE_EVENT_IMBALANCE`; the counts are deterministic, so the gate
//!   needs no cores. The `--obs-out` document carries the same two members
//!   for its 4-shard pass.
//! - Every mode also records its `event_mix` from the engine's counters:
//!   live timer expiries by kind, stale timer pops and the remainder
//!   (frame deliveries plus scheduled events). Events/sec counts all of
//!   them alike; the mix says what they were.
//!
//! Speedup is hardware-honest: the report embeds `cores` (what the OS
//! grants this process), and when `cores == 1` every `speedup_vs_seq` is
//! written as `null` with a note saying why — the determinism claim is
//! machine-independent, the speedup claim is not.

use rgb_core::obs::{FlightRecorder, TraceSink};
use rgb_core::prelude::*;
use rgb_sim::fault::bernoulli_crashes;
use rgb_sim::{
    shard_loads_json, write_obs, ChurnParams, Engine, LatencyBand, Metrics, NetConfig, ObsReport,
    ParStats, Scenario, ShardLoad, Timeline,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Peak-RSS ceiling of the `--smoke` tier, bytes per NE, held against the
/// sequential mode: it runs first, so its watermark is the engine's own and
/// not earlier modes' freed-but-retained heap. The 20,439-NE smoke scenario
/// peaks at ~3,600 B per NE; the ceiling leaves 20 % for allocator and
/// runner differences and is below the ~4,900 B the same 3,000 ticks cost
/// while the timer wheel kept every bucket's high-water capacity (a cost
/// that grew with every further heartbeat period).
const SMOKE_PEAK_RSS_PER_NODE: u64 = 4_300;

/// Event-imbalance ceiling of the `--smoke` tier, `max / mean` of the events
/// each shard processed, held against every shard count of the sweep. The
/// smoke scenario reads 1.001 / 1.005 / 1.012 at 2 / 4 / 8 shards; a cut
/// that hands one shard `2/(k+1)` of the world reads 1.33 / 1.60 / 1.78.
/// Event counts are deterministic, so unlike the speedup gate this one
/// holds on a single-core runner.
const SMOKE_EVENT_IMBALANCE: f64 = 1.05;

/// The process's peak resident set (`VmHWM`) in bytes; `None` where
/// `/proc/self/status` is missing or unreadable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok()? * 1024)
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so the next
/// [`peak_rss_bytes`] reading covers one mode only. Best effort: where the
/// write is refused the reading stays the whole process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One measured engine configuration: every wall time plus the medians.
struct Measurement {
    mode: String,
    events: u64,
    wall_ms: Vec<f64>,
    median_ms: f64,
    events_per_sec: f64,
    bytes_per_node: usize,
    /// `VmHWM` over this mode's runs (see [`peak_rss_bytes`]).
    peak_rss_bytes: Option<u64>,
    /// What the events were (see [`event_mix`]).
    event_mix: String,
    /// `(global floor, max pair floor)` from the lookahead matrix.
    lookahead: Option<(u64, u64)>,
    par_stats: Option<ParStats>,
    /// What each shard held and did in the timed part of the first run
    /// (empty for the sequential mode).
    shards: Vec<ShardLoad>,
}

/// Median of an unsorted sample (mean of the middle two when even).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The scale scenario: a three-level hierarchy under continuous tokens,
/// heartbeats, Poisson churn and a sprinkle of crashes, over a **banded**
/// network whose wide-area floor is well above the inter-tier floor — so
/// the per-pair lookahead matrix has real slack to exploit (sponsor pairs
/// sync on the tight floor, everyone else on the wide one).
fn scale_scenario(ring: usize, duration: u64) -> Scenario {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 25;
    cfg.token_retransmit_timeout = 75;
    cfg.token_lost_timeout = 600;
    cfg.heartbeat_interval = 150;
    cfg.parent_timeout = 750;
    cfg.child_timeout = 750;
    let banded = NetConfig { wide_area: LatencyBand { min: 25, max: 80 }, ..NetConfig::default() };
    let scenario = Scenario::new(format!("scale churn r{ring}"), 3, ring)
        .with_cfg(cfg)
        .with_net(banded)
        .with_seed(0x5CA1E)
        .with_duration(duration)
        .with_delivered_cap(64)
        .with_churn(ChurnParams {
            initial_members: 2_000,
            mean_join_interval: 5.0,
            mean_lifetime: duration as f64 / 2.0,
            failure_fraction: 0.2,
            duration,
        });
    let layout = scenario.layout();
    let crashes = bernoulli_crashes(&layout, 0.0005, (duration / 4, duration / 2), 0x5CA1E ^ 1);
    scenario.with_crashes(crashes)
}

/// The event mix of a run as a JSON object, from the engine's own
/// counters: live timer expiries by kind, stale timer pops, and the rest —
/// frame deliveries plus the scenario's scheduled events.
fn event_mix(events: u64, metrics: &Metrics) -> String {
    let mut out = String::from("{ ");
    let mut timers = metrics.stale_timer_skips;
    for (kind, fires) in metrics.timer_fires() {
        timers += fires;
        let _ = write!(out, "\"{kind}\": {fires}, ");
    }
    let _ = write!(
        out,
        "\"stale_timer_pops\": {}, \"deliveries_and_scheduled\": {} }}",
        metrics.stale_timer_skips,
        events.saturating_sub(timers)
    );
    out
}

/// Drive the sequential engine `runs` times; wall times are per-run, the
/// event count is checked identical across runs (the engine is
/// deterministic — a drift here is a bug, not noise).
fn run_seq(scenario: &Scenario, runs: usize) -> Measurement {
    let mut wall_ms = Vec::with_capacity(runs);
    let mut events = 0u64;
    let mut bytes_per_node = 0usize;
    let mut mix = String::new();
    reset_peak_rss();
    for run in 0..runs {
        let mut sim = scenario.build_sim();
        let start = Instant::now();
        let mut n = 0u64;
        while sim.peek_at().is_some_and(|t| t <= scenario.duration) {
            sim.step();
            n += 1;
        }
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if run == 0 {
            events = n;
            bytes_per_node = sim.memory_stats().bytes_per_node();
            mix = event_mix(n, &sim.metrics);
        } else {
            assert_eq!(n, events, "sequential engine must be deterministic across runs");
        }
    }
    let median_ms = median(&wall_ms);
    Measurement {
        mode: "seq".into(),
        events,
        events_per_sec: events as f64 / (median_ms / 1e3).max(1e-9),
        median_ms,
        wall_ms,
        bytes_per_node,
        peak_rss_bytes: peak_rss_bytes(),
        event_mix: mix,
        lookahead: None,
        par_stats: None,
        shards: Vec::new(),
    }
}

/// Drive the parallel engine at `shards`, `runs` times.
fn run_par(scenario: &Scenario, shards: usize, runs: usize) -> Measurement {
    let mut wall_ms = Vec::with_capacity(runs);
    let mut events = 0u64;
    let mut bytes_per_node = 0usize;
    let mut lookahead = (0u64, 0u64);
    let mut par_stats = ParStats::default();
    let mut loads = Vec::new();
    let mut mix = String::new();
    reset_peak_rss();
    for run in 0..runs {
        let mut sim = scenario.try_build_par(shards).expect("scenario validates");
        let booted = sim.shard_loads();
        let start = Instant::now();
        sim.run_until(scenario.duration);
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let mut run_loads = sim.shard_loads();
        for (load, boot) in run_loads.iter_mut().zip(&booted) {
            load.processed -= boot.processed;
        }
        let n: u64 = run_loads.iter().map(|l| l.processed).sum();
        if run == 0 {
            events = n;
            bytes_per_node = sim.memory_stats().bytes_per_node();
            lookahead = sim.lookahead_range();
            par_stats = sim.par_stats();
            loads = run_loads;
            mix = event_mix(n, &sim.metrics());
        } else {
            assert_eq!(n, events, "parallel engine must be deterministic across runs");
        }
    }
    let median_ms = median(&wall_ms);
    Measurement {
        mode: format!("shards{shards}"),
        events,
        events_per_sec: events as f64 / (median_ms / 1e3).max(1e-9),
        median_ms,
        wall_ms,
        bytes_per_node,
        peak_rss_bytes: peak_rss_bytes(),
        event_mix: mix,
        lookahead: Some(lookahead),
        par_stats: Some(par_stats),
        shards: loads,
    }
}

/// One extra obs-instrumented pass on the parallel engine: a flight
/// recorder per shard, timeline samples every `duration/20` ticks, and
/// the per-ring-level latency surfaces — written by [`write_obs`] as the
/// `rgb-obs v1` JSON document at `path` plus a Prometheus text sibling.
/// Run separately so the sweep's timings stay clean.
fn run_obs(scenario: &Scenario, shards: usize, path: &str) {
    const TRACE_CAP: usize = 4096;
    const SLICES: u64 = 20;
    let mut sim = scenario.try_build_par(shards).expect("scenario validates");
    sim.enable_obs(|_| Box::new(FlightRecorder::new(TRACE_CAP)) as Box<dyn TraceSink>);
    let start = Instant::now();
    let mut timeline = Timeline::new();
    let stride = (scenario.duration / SLICES).max(1);
    sim.run_observed(scenario.duration, stride, |s| {
        timeline.sample(s.now(), start.elapsed().as_nanos(), &s.metrics());
        true
    });
    let wall_nanos = start.elapsed().as_nanos();
    let metrics = sim.metrics();
    let trace = sim.trace_snapshot();
    let shard_loads = sim.shard_loads();
    let report = ObsReport {
        scenario: &scenario.name,
        backend: "par",
        ticks: scenario.duration,
        wall_nanos,
        metrics: &metrics,
        timeline: &timeline,
        trace: &trace,
        trace_dropped: sim.trace_dropped(),
        shards: &shard_loads,
    };
    let prom = write_obs(path.as_ref(), &report).expect("write obs documents");
    eprintln!(
        "  obs: wrote {path} and {} ({} trace records, {} evicted; repair p50 {:?} / p99 {:?} \
         ticks)",
        prom.display(),
        trace.len(),
        report.trace_dropped,
        metrics.levels.repair_quantile(0.5),
        metrics.levels.repair_quantile(0.99),
    );
}

/// Digest-compare the two engines at checkpoints; returns the number of
/// compared checkpoints, or an error message naming the first divergence.
fn check_digests(scenario: &Scenario, shards: usize, stride: u64) -> Result<usize, String> {
    let mut seq = scenario.build_sim();
    let mut par = scenario.try_build_par(shards).expect("scenario validates");
    let mut checked = 0usize;
    let diverged = seq.run_observed(scenario.duration, stride, |s| {
        par.run_until(s.now);
        checked += 1;
        s.system_digest(false) == par.system_digest(false)
    });
    match diverged {
        Some(t) => Err(format!("digest diverged at t={t} ({shards} shards)")),
        None => Ok(checked),
    }
}

/// `speedup_vs_seq` for one mode: `None` (rendered `null`) on a 1-core
/// host, where the number would be scheduler noise dressed up as data.
fn speedup(m: &Measurement, seq_eps: f64, cores: usize) -> Option<f64> {
    (cores > 1).then(|| m.events_per_sec / seq_eps.max(1e-9))
}

fn render_json(
    tier: &str,
    nodes: usize,
    duration: u64,
    cores: usize,
    runs_per_mode: usize,
    digest_checkpoints: Option<usize>,
    runs: &[Measurement],
) -> String {
    let seq_eps =
        runs.iter().find(|m| m.mode == "seq").map(|m| m.events_per_sec).unwrap_or(f64::INFINITY);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"rgb-bench/scale-v2\",");
    let _ = writeln!(out, "  \"tier\": \"{tier}\",");
    let _ = writeln!(out, "  \"nodes\": {nodes},");
    let _ = writeln!(out, "  \"duration\": {duration},");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"runs_per_mode\": {runs_per_mode},");
    if cores == 1 {
        let _ = writeln!(
            out,
            "  \"note\": \"single-core host: speedup_vs_seq withheld (null); wall times remain \
             valid, relative speedup does not\","
        );
    }
    match digest_checkpoints {
        Some(n) => {
            let _ = writeln!(out, "  \"digest_checkpoints_equal\": {n},");
        }
        None => {
            let _ = writeln!(out, "  \"digest_checkpoints_equal\": null,");
        }
    }
    out.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let walls = m.wall_ms.iter().map(|w| format!("{w:.1}")).collect::<Vec<_>>().join(", ");
        let _ = write!(
            out,
            "    {{ \"mode\": \"{}\", \"events\": {}, \"wall_ms\": [{walls}], \
             \"median_ms\": {:.1}, \"events_per_sec\": {:.0}",
            m.mode, m.events, m.median_ms, m.events_per_sec,
        );
        match speedup(m, seq_eps, cores) {
            Some(s) => {
                let _ = write!(out, ", \"speedup_vs_seq\": {s:.2}");
            }
            None => {
                let _ = write!(out, ", \"speedup_vs_seq\": null");
            }
        }
        let _ = write!(out, ", \"bytes_per_node\": {}", m.bytes_per_node);
        let peak_rss = m.peak_rss_bytes.map_or("null".to_owned(), |b| b.to_string());
        let _ = write!(out, ", \"peak_rss_bytes\": {peak_rss}");
        let _ = write!(out, ", \"event_mix\": {}", m.event_mix);
        match m.lookahead {
            Some((lo, hi)) => {
                let _ = write!(out, ", \"lookahead\": [{lo}, {hi}]");
            }
            None => {
                let _ = write!(out, ", \"lookahead\": null");
            }
        }
        match &m.par_stats {
            Some(s) => {
                let _ = write!(
                    out,
                    ", \"par_stats\": {{ \"windows\": {}, \"idle_skips\": {}, \
                     \"frames_batched\": {}, \"batches\": {}, \"max_batch\": {}, \
                     \"phase_nanos\": {{ \"execute\": {}, \"flush\": {}, \"barrier\": {}, \
                     \"drain\": {} }} }}",
                    s.windows,
                    s.idle_skips,
                    s.frames_batched,
                    s.batches,
                    s.max_batch,
                    s.execute_nanos,
                    s.flush_nanos,
                    s.barrier_nanos,
                    s.drain_nanos
                );
            }
            None => {
                let _ = write!(out, ", \"par_stats\": null");
            }
        }
        let _ = write!(out, ", {}", shard_loads_json(&m.shards));
        out.push_str(" }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let million = args.iter().any(|a| a == "--million");
    if smoke && million {
        eprintln!("--smoke and --million are mutually exclusive");
        std::process::exit(2);
    }
    let check = smoke || million || args.iter().any(|a| a == "--check-digests");
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_scale.json".to_owned());
    let obs_out = flag_value("--obs-out");
    let budget_secs: Option<u64> = flag_value("--budget-secs").map(|v| v.parse().expect("secs"));
    let runs_per_mode: usize = flag_value("--runs").map_or(3, |v| v.parse().expect("--runs N"));
    let min_speedup: Option<f64> =
        flag_value("--min-speedup").map(|v| v.parse().expect("--min-speedup X"));
    let gate_shards: usize =
        flag_value("--gate-shards").map_or(4, |v| v.parse().expect("--gate-shards S"));
    let warn_speedup: f64 =
        flag_value("--warn-speedup").map_or(2.0, |v| v.parse().expect("--warn-speedup Y"));

    // Tiers: 20k smoke (r=27 ⇒ 20,439 NEs), 100k full (r=46 ⇒ 99,498),
    // 10⁶ gated (r=100 ⇒ 1,010,100). The million tier runs a shorter
    // duration: the point is memory footprint and window-protocol
    // overhead at width, not a long trace.
    let (tier, ring, duration) = if million {
        ("million", 100, 1_500)
    } else if smoke {
        ("smoke", 27, 3_000)
    } else {
        ("full", 46, 5_000)
    };
    let shard_sweep: &[usize] = if million { &[4, 8] } else { &[2, 4, 8] };
    let scenario = scale_scenario(ring, duration);
    let nodes = scenario.layout().node_count();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "bench_scale: {tier} tier, {nodes} nodes, duration {duration}, {cores} core(s), median \
         of {runs_per_mode} run(s)"
    );
    if min_speedup.is_some() && cores == 1 {
        eprintln!(
            "SPEEDUP GATE REFUSED: single-core host — a 1-core speedup measures scheduler \
             overhead, not the engine. Run the gate on a multi-core runner."
        );
        std::process::exit(1);
    }

    let t0 = Instant::now();
    let mut runs = vec![run_seq(&scenario, runs_per_mode)];
    for &shards in shard_sweep {
        runs.push(run_par(&scenario, shards, runs_per_mode));
    }
    let seq_eps = runs[0].events_per_sec;
    for m in &runs {
        let stats = m
            .par_stats
            .map(|s| {
                format!(
                    "  {} windows, {} idle skipped, {} frames/{} batches",
                    s.windows, s.idle_skips, s.frames_batched, s.batches
                )
            })
            .unwrap_or_default();
        eprintln!(
            "  {:<8} {:>10} events  {:>9.1} ms median  {:>10.0} events/s  {:>6} B/node  peak RSS \
             {} B/node{}{}",
            m.mode,
            m.events,
            m.median_ms,
            m.events_per_sec,
            m.bytes_per_node,
            m.peak_rss_bytes.map_or("n/a".to_owned(), |b| (b / nodes as u64).to_string()),
            m.lookahead.map(|(lo, hi)| format!("  lookahead {lo}..{hi}")).unwrap_or_default(),
            stats,
        );
    }

    let digest_checkpoints = if check {
        let stride = duration / 5;
        match check_digests(&scenario, 4, stride) {
            Ok(n) => {
                eprintln!("  digest check: {n} checkpoints byte-identical (seq vs 4 shards)");
                Some(n)
            }
            Err(e) => {
                eprintln!("DIGEST MISMATCH: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let json = render_json(tier, nodes, duration, cores, runs_per_mode, digest_checkpoints, &runs);
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    eprintln!("wrote {out_path}");

    if let Some(path) = &obs_out {
        run_obs(&scenario, 4, path);
    }

    if let (true, Some(peak)) = (smoke, runs[0].peak_rss_bytes) {
        let per_node = peak / nodes as u64;
        if per_node > SMOKE_PEAK_RSS_PER_NODE {
            eprintln!(
                "MEMORY CEILING EXCEEDED: seq peaked at {per_node} B/node > \
                 {SMOKE_PEAK_RSS_PER_NODE} B/node"
            );
            std::process::exit(1);
        }
        eprintln!("memory ceiling: seq peaked at {per_node} of {SMOKE_PEAK_RSS_PER_NODE} B/node");
    }

    if smoke {
        for m in &runs {
            let Some(imbalance) = ShardLoad::event_imbalance(&m.shards) else { continue };
            if imbalance > SMOKE_EVENT_IMBALANCE {
                let events: Vec<u64> = m.shards.iter().map(|l| l.processed).collect();
                eprintln!(
                    "SHARD IMBALANCE: {} max/mean events {imbalance:.3} > \
                     {SMOKE_EVENT_IMBALANCE}; shards processed {events:?}",
                    m.mode
                );
                std::process::exit(1);
            }
            eprintln!("shard balance: {} max/mean events {imbalance:.3}", m.mode);
        }
    }

    if let Some(gate) = min_speedup {
        let mode = format!("shards{gate_shards}");
        let m = runs.iter().find(|m| m.mode == mode).unwrap_or_else(|| {
            eprintln!("SPEEDUP GATE: --gate-shards {gate_shards} not in the sweep");
            std::process::exit(1);
        });
        let s = m.events_per_sec / seq_eps.max(1e-9);
        if s < gate {
            eprintln!("SPEEDUP GATE FAILED: {s:.2}x at {gate_shards} shards < required {gate:.2}x");
            std::process::exit(1);
        }
        if s < warn_speedup {
            println!(
                "::warning::scale speedup {s:.2}x at {gate_shards} shards clears the {gate:.2}x \
                 gate but is below the {warn_speedup:.2}x target"
            );
        }
        eprintln!("speedup gate: {s:.2}x at {gate_shards} shards (required {gate:.2}x)");
    }

    if let Some(budget) = budget_secs {
        let spent = t0.elapsed().as_secs();
        if spent > budget {
            eprintln!("TIME BUDGET EXCEEDED: {spent}s > {budget}s");
            std::process::exit(1);
        }
        eprintln!("time budget: {spent}s of {budget}s");
    }
}
