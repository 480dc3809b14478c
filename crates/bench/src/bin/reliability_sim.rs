//! Experiment E9: reliability comparison of the three structures of §5.2
//! under identical fault processes — RGB's ring hierarchy, the tree
//! without representatives, and the CONGRESS tree with representatives —
//! by Monte-Carlo partition counting, plus the exact single-fault damage
//! enumeration, plus (E9c) full-protocol fault runs built from declarative
//! `rgb_sim::Scenario` values: Bernoulli NE faults injected into a running
//! populated hierarchy, measuring how often the surviving root-ring nodes
//! still agree on a common membership view after local repair.
//!
//! ```text
//! cargo run --release -p rgb-bench --bin reliability_sim [trials] [--obs-out OBS.json]
//! ```
//!
//! With `--obs-out`, one representative E9c fault run is re-executed with
//! the observability layer enabled and exported as an `rgb-obs v1` JSON
//! document (plus a Prometheus-style `OBS.prom` sibling) — repair
//! latency per ring level under Bernoulli faults is the surface E16
//! reads.

use rgb_analysis::tables::{pct3, render};
use rgb_baselines::{
    mean_partitions_single_fault_ring, mean_partitions_single_fault_with_reps,
    mean_partitions_single_fault_without_reps, ring_hierarchy_fw, single_fault_fw_with_reps,
    single_fault_fw_without_reps, tree_no_reps_fw, tree_with_reps_fw, TreeHierarchy,
};
use rgb_core::prelude::*;
use rgb_sim::fault::bernoulli_crashes;
use rgb_sim::{Backend, Scenario};

/// The E9c scenario: a populated (h=2, r=5) hierarchy running continuous
/// tokens, Bernoulli NE faults at probability `f` injected mid-run (at
/// least two root nodes kept alive so view agreement is never vacuous).
fn fault_scenario(f: f64, seed: u64) -> Scenario {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 20;
    cfg.token_retransmit_timeout = 60;
    cfg.token_lost_timeout = 400;
    cfg.heartbeat_interval = 100;
    cfg.parent_timeout = 500;
    cfg.child_timeout = 500;
    let mut scenario = Scenario::new("E9c: bernoulli faults under churn", 2, 5)
        .with_cfg(cfg)
        .with_seed(seed)
        .with_duration(8_000)
        // Only the final views matter; cap the per-node app-event log so
        // tens of thousands of trials never accumulate delivery history.
        .with_delivered_cap(16);
    let layout = scenario.layout();
    // One member per AP, joined at the start.
    for (i, &ap) in layout.aps().iter().enumerate() {
        scenario = scenario.join(i as u64, ap, Guid(i as u64), Luid(1));
    }
    // Faults strike after the population has settled.
    let crashes = bernoulli_crashes(&layout, f, (2_000, 3_000), seed ^ 0x9e37_79b9);
    // Keep at least two root nodes alive or "agreement" is vacuous.
    let root = layout.root_ring().nodes.clone();
    let mut crashed_root = 0usize;
    let crashes: Vec<_> = crashes
        .into_iter()
        .filter(|c| {
            if root.contains(&c.node) {
                if crashed_root + 2 >= root.len() {
                    return false;
                }
                crashed_root += 1;
            }
            true
        })
        .collect();
    scenario.with_crashes(crashes)
}

/// One E9c trial: returns whether the surviving root-ring nodes ended in
/// view agreement.
fn protocol_fault_trial(f: f64, seed: u64) -> bool {
    let scenario = fault_scenario(f, seed);
    let root = scenario.layout().root_ring().nodes.clone();
    let outcome = scenario.run_on(Backend::Sim).expect("valid scenario");
    let alive_root: Vec<NodeId> =
        root.iter().copied().filter(|n| !outcome.crashed.contains(n)).collect();
    outcome.agreed_view(&alive_root).is_some()
}

/// `--obs-out`: re-run one representative fault trial (f = 5%, seed 1000)
/// with a flight recorder attached and export the run's metrics, timeline,
/// per-ring-level latency histograms, and protocol trace.
fn write_obs(path: &str) {
    use rgb_core::obs::FlightRecorder;
    use rgb_sim::{ObsReport, Timeline};

    let scenario = fault_scenario(0.05, 1_000);
    let mut sim = scenario.try_build_sim().expect("valid scenario");
    sim.enable_obs(Box::new(FlightRecorder::new(4096)));
    let start = std::time::Instant::now();
    let mut timeline = Timeline::new();
    let stride = (scenario.duration / 16).max(1);
    let mut t = 0u64;
    while t < scenario.duration {
        t = (t + stride).min(scenario.duration);
        sim.run_until(t);
        timeline.sample(t, start.elapsed().as_nanos(), &sim.metrics);
    }
    let trace = sim.trace_snapshot();
    let report = ObsReport {
        scenario: &scenario.name,
        backend: "sim",
        ticks: scenario.duration,
        wall_nanos: start.elapsed().as_nanos(),
        metrics: &sim.metrics,
        timeline: &timeline,
        trace: &trace,
        trace_dropped: sim.trace_dropped(),
        shards: &[],
    };
    let prom = rgb_sim::write_obs(path.as_ref(), &report).expect("write obs documents");
    println!(
        "\nobs: wrote {path} and {} ({} trace records; repair p50 {:?} / p99 {:?} ticks)",
        prom.display(),
        trace.len(),
        sim.metrics.levels.repair_quantile(0.5),
        sim.metrics.levels.repair_quantile(0.99)
    );
}

fn main() {
    let mut trials: u64 = 50_000;
    let mut obs_out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--obs-out" {
            obs_out = Some(it.next().unwrap_or_else(|| {
                eprintln!("missing value for --obs-out");
                std::process::exit(2);
            }));
        } else if let Ok(n) = arg.parse() {
            trials = n;
        }
    }

    println!("E9a — exact single-fault damage (expected partitions | 1 fault)\n");
    let mut rows = Vec::new();
    for &(h_tree, r) in &[(3u32, 5u64), (3, 10), (4, 5)] {
        let tree = TreeHierarchy::new(h_tree, r);
        rows.push(vec![
            format!("{}", r.pow(h_tree - 1)),
            r.to_string(),
            format!("{:.3}", mean_partitions_single_fault_ring((h_tree - 1) as usize, r as usize)),
            format!("{:.3}", mean_partitions_single_fault_without_reps(&tree)),
            format!("{:.3}", mean_partitions_single_fault_with_reps(&tree)),
            format!("{:.3}", single_fault_fw_without_reps(&tree)),
            format!("{:.3}", single_fault_fw_with_reps(&tree)),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "n",
                "r",
                "ring E[parts]",
                "tree-no-reps E[parts]",
                "tree-reps E[parts]",
                "no-reps P(intact)",
                "reps P(intact)",
            ],
            &rows
        )
    );

    println!("\nE9b — Monte-Carlo P[#partitions <= k] at fault probability f ({trials} trials)\n");
    let mut rows = Vec::new();
    for &(f, k) in &[(0.005f64, 1usize), (0.005, 3), (0.02, 1), (0.02, 3)] {
        // 125-AP scale: ring (h=3, r=5) vs trees (h=4, r=5 → 125 leaves).
        let ring = ring_hierarchy_fw(3, 5, f, k, trials, 11);
        let no_reps = tree_no_reps_fw(4, 5, f, k, trials, 12);
        let with_reps = tree_with_reps_fw(4, 5, f, k, trials, 13);
        rows.push(vec![
            format!("{:.1}", f * 100.0),
            k.to_string(),
            pct3(ring),
            pct3(no_reps),
            pct3(with_reps),
        ]);
    }
    println!(
        "{}",
        render(&["f(%)", "k", "ring fw(%)", "tree-no-reps fw(%)", "tree-reps fw(%)"], &rows)
    );

    let protocol_trials = (trials / 2_500).clamp(4, 20);
    println!(
        "\nE9c — full-protocol Scenario runs: populated (h=2, r=5) hierarchy,\n\
         Bernoulli NE faults mid-run, local repair + re-attachment enabled\n\
         ({protocol_trials} trials per row)\n"
    );
    let mut rows = Vec::new();
    for &f in &[0.01f64, 0.05, 0.10] {
        let agreed = (0..protocol_trials).filter(|&t| protocol_fault_trial(f, 1_000 + t)).count();
        rows.push(vec![
            format!("{:.0}", f * 100.0),
            format!("{agreed}/{protocol_trials}"),
            pct3(agreed as f64 / protocol_trials as f64),
        ]);
    }
    println!("{}", render(&["f(%)", "agreeing trials", "root view agreement"], &rows));

    println!("\nA single fault never partitions RGB (local repair, E[parts]=1.000)");
    println!("while both trees lose subtrees; per-fault survival orders ring >");
    println!("tree-without-reps > tree-with-reps — the §5.2 argument, measured.");
    println!("(The trees field fewer/more physical machines than the ring at equal");
    println!("leaf count, so the f-based rows also reflect exposure differences;");
    println!("the single-fault table isolates pure per-fault damage.)");

    if let Some(path) = &obs_out {
        write_obs(path);
    }
}
