//! Prints the paper-table experiments of `EXPERIMENTS.md` (E1–E6, E8–E11):
//! each one named, or all of them in index order.
//!
//! ```text
//! cargo run --release -p rgb-bench --bin experiments -- [E1 … E11] [--trials N] [--obs-out OBS.json]
//! ```
//!
//! `--trials N` sets the Monte-Carlo draws of E4 (default 300,000 per
//! cell) and E9 (default 50,000). `--obs-out`, with E9 alone, re-runs one
//! E9c fault run with a flight recorder and exports it as an `rgb-obs v1`
//! JSON document plus a Prometheus-style `OBS.prom` sibling: the per-level
//! repair latency E16 reads. A bad argument exits 2.

use rgb_bench::experiments::{e1, e10, e11, e2, e3, e4, e5, e6, e8, e9, fault_scenario, Report};

/// Every experiment, in index order (E7 is `tests/ablations.rs`).
const ALL: [&str; 10] = ["E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11"];

fn run(id: &str, trials: Option<u64>) -> Report {
    match id {
        "E1" => e1(),
        "E2" => e2(),
        "E3" => e3(),
        "E4" => e4(trials.unwrap_or(300_000)),
        "E5" => e5(),
        "E6" => e6(),
        "E8" => e8(),
        "E9" => e9(trials.unwrap_or(50_000)),
        "E10" => e10(),
        _ => e11(), // ids come from ALL
    }
}

fn fail(msg: &str) -> ! {
    eprintln!(
        "experiments: {msg}\nusage: experiments [E1 … E11] [--trials N] [--obs-out OBS.json]"
    );
    std::process::exit(2);
}

/// `--obs-out`: re-run one representative E9c fault trial (f = 5%, seed
/// 1000) with a flight recorder attached and export the run's metrics,
/// timeline, per-ring-level latency histograms, and protocol trace.
fn write_obs(path: &str) {
    use rgb_core::obs::FlightRecorder;
    use rgb_sim::{ObsReport, Timeline};

    let scenario = fault_scenario(0.05, 1_000);
    let mut sim = scenario.try_build_sim().expect("valid scenario");
    sim.enable_obs(Box::new(FlightRecorder::new(4096)));
    let start = std::time::Instant::now();
    let mut timeline = Timeline::new();
    sim.run_observed(scenario.duration, (scenario.duration / 16).max(1), |s| {
        timeline.sample(s.now, start.elapsed().as_nanos(), &s.metrics);
        true
    });
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
    let (mut ids, mut trials, mut obs_out) = (Vec::new(), None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                trials = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .or_else(|| fail("--trials takes a count"))
            }
            "--obs-out" => {
                obs_out = Some(args.next().unwrap_or_else(|| fail("--obs-out takes a path")))
            }
            id => match ALL.into_iter().find(|e| e.eq_ignore_ascii_case(id)) {
                Some(e) => ids.push(e),
                None => fail(&format!("unknown experiment {id:?}; one of {}", ALL.join(" "))),
            },
        }
    }
    if ids.is_empty() {
        ids = ALL.to_vec();
    }
    if obs_out.is_some() && ids != ["E9"] {
        fail("--obs-out exports one E9c fault run; name E9 alone");
    }
    for id in ids {
        print!("{}", run(id, trials));
    }
    if let Some(path) = obs_out {
        write_obs(&path);
    }
}
