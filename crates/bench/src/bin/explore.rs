//! E12/E15 — deterministic scenario explorer, blind and coverage-guided.
//!
//! Fault-space fuzzing over randomized [`rgb_sim::Scenario`]s with the
//! continuous invariant oracle battery, automatic shrinking of any
//! violation to a minimal reproducer artifact, and (E15) a
//! coverage-guided keep-and-mutate loop over a persistent corpus.
//!
//! ```text
//! explore [--seeds N] [--start-seed S] [--master-seed M] [--smoke]
//!         [--large] [--shards N] [--par-stats] [--k TICKS]
//!         [--shrink-budget N] [--time-budget-secs T] [--repro-dir DIR]
//!         [--replay FILE] [--expect-clean]
//!         [--corpus DIR] [--mutate] [--coverage-stats] [--stats-out FILE]
//!         [--corpus-replay DIR] [--write-presets DIR]
//!         [--obs-run NAME [--obs-out FILE]]
//! ```
//!
//! - Default mode explores the full generation envelope; `--smoke` uses
//!   the bounded envelope the PR pipeline runs
//!   (`--seeds 200 --smoke` is the CI smoke command); `--large` uses the
//!   10k–50k-node envelope, normally together with `--shards N` so each
//!   run executes on the sharded parallel engine (trace-equivalent to the
//!   sequential one, so the oracle battery is judging identical digests).
//!   Large-envelope violations are reported by `(master seed, index)` and
//!   **not** shrunk — delta-debugging a 30k-node scenario is a local
//!   follow-up, not a CI step.
//! - A scenario is identified by the pair `(master seed, index)`:
//!   `--master-seed` picks the generator stream (the nightly job derives
//!   it from the date), `--start-seed`/`--seeds` select the index block.
//! - On violation: the scenario is delta-debugged to a minimal reproducer,
//!   written under `--repro-dir` (default `tests/repros/`), and the
//!   process exits non-zero — which is what fails the nightly job.
//! - `--mutate` switches to the coverage-guided loop (E15): corpus
//!   entries (loaded from `--corpus DIR` when given) are mutated one
//!   dimension at a time, runs with novel coverage fingerprints are
//!   admitted with lineage metadata, and the grown corpus is saved back.
//!   Violations do not stop the session; each is reported (the first few
//!   shrunk) and the process exits non-zero at the end.
//! - `--coverage-stats` runs **both** a blind block and a cold-start
//!   guided block on the identical seed budget and prints the distinct
//!   coverage-fingerprint comparison — the E15 novelty-vs-blind
//!   measurement. `--stats-out FILE` additionally writes the numbers as
//!   JSON (the nightly job uploads it as an artifact).
//! - `--replay FILE` parses a previously written artifact and runs it
//!   under the standard oracles instead of exploring. Artifacts written
//!   by the explorer carry `meta.oracle` — the oracle the repro is
//!   expected to fire. Replay exit codes: **0** expected outcome (clean
//!   for plain/`--expect-clean` artifacts), **1** violation, **3** stale
//!   repro (a `meta.oracle` artifact that replayed clean or fired a
//!   different oracle — the bug it documents is gone or changed; without
//!   this, a silently-clean replay is indistinguishable from a fixed
//!   bug).
//! - `--corpus-replay DIR` replays every `.scn` under DIR on the
//!   sequential *and* the sharded engine (`--shards`, default 4) and
//!   fails unless the digest streams are byte-identical and the standard
//!   oracles stay silent — the PR-pipeline gate for the committed corpus.
//! - `--write-presets DIR` regenerates the named production-shaped corpus
//!   (`rgb_sim::presets`, seed 1) under DIR.
//! - `--obs-run NAME` runs the named preset (seed 1) with the
//!   observability layer enabled on the sequential *and* the sharded
//!   engine, verifies the digest streams stay byte-identical with obs on,
//!   and writes the parallel run's `rgb-obs v1` JSON document to
//!   `--obs-out FILE` (stdout when omitted) plus a Prometheus-style
//!   sibling (`obs.json` → `obs.prom`) — the CI `obs-smoke` job's entry
//!   point.
//! - `--time-budget-secs` stops cleanly (exit 0) once the budget is
//!   spent, reporting how many seeds were covered; the nightly job uses
//!   it to stay time-boxed.

use rgb_sim::explore::{
    artifact, corpus::Corpus, coverage::CoverageKey, coverage::CoverageMap, Explorer, GuidedConfig,
    GuidedStats, ScenarioGen,
};
use rgb_sim::presets;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Exit code for a stale repro: a `meta.oracle` artifact whose replay no
/// longer fires that oracle.
const EXIT_STALE: i32 = 3;

struct Args {
    seeds: u64,
    start_seed: u64,
    master_seed: u64,
    smoke: bool,
    large: bool,
    shards: Option<usize>,
    par_stats: bool,
    k: u64,
    shrink_budget: usize,
    time_budget: Option<Duration>,
    repro_dir: PathBuf,
    replay: Option<PathBuf>,
    expect_clean: bool,
    corpus: Option<PathBuf>,
    mutate: bool,
    coverage_stats: bool,
    stats_out: Option<PathBuf>,
    corpus_replay: Option<PathBuf>,
    write_presets: Option<PathBuf>,
    obs_run: Option<String>,
    obs_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 100,
        start_seed: 0,
        master_seed: 0,
        smoke: false,
        large: false,
        shards: None,
        par_stats: false,
        k: 200,
        shrink_budget: 400,
        time_budget: None,
        repro_dir: PathBuf::from("tests/repros"),
        replay: None,
        expect_clean: false,
        corpus: None,
        mutate: false,
        coverage_stats: false,
        stats_out: None,
        corpus_replay: None,
        write_presets: None,
        obs_run: None,
        obs_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds").parse().expect("--seeds N"),
            "--start-seed" => {
                args.start_seed = value("--start-seed").parse().expect("--start-seed S");
            }
            "--master-seed" => {
                args.master_seed = value("--master-seed").parse().expect("--master-seed M");
            }
            "--smoke" => args.smoke = true,
            "--large" => args.large = true,
            "--shards" => args.shards = Some(value("--shards").parse().expect("--shards N")),
            "--par-stats" => args.par_stats = true,
            "--k" => args.k = value("--k").parse().expect("--k TICKS"),
            "--shrink-budget" => {
                args.shrink_budget = value("--shrink-budget").parse().expect("--shrink-budget N");
            }
            "--time-budget-secs" => {
                let secs: u64 = value("--time-budget-secs").parse().expect("--time-budget-secs T");
                args.time_budget = Some(Duration::from_secs(secs));
            }
            "--repro-dir" => args.repro_dir = PathBuf::from(value("--repro-dir")),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
            "--expect-clean" => args.expect_clean = true,
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus"))),
            "--mutate" => args.mutate = true,
            "--coverage-stats" => args.coverage_stats = true,
            "--stats-out" => args.stats_out = Some(PathBuf::from(value("--stats-out"))),
            "--corpus-replay" => args.corpus_replay = Some(PathBuf::from(value("--corpus-replay"))),
            "--write-presets" => args.write_presets = Some(PathBuf::from(value("--write-presets"))),
            "--obs-run" => args.obs_run = Some(value("--obs-run")),
            "--obs-out" => args.obs_out = Some(PathBuf::from(value("--obs-out"))),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let explorer =
        Explorer { check_every: args.k, shrink_budget: args.shrink_budget, ..Explorer::default() };

    if let Some(dir) = &args.write_presets {
        write_presets(dir);
        return;
    }
    if let Some(path) = &args.replay {
        replay(&explorer, path, args.expect_clean);
        return;
    }
    if let Some(dir) = &args.corpus_replay {
        corpus_replay(&explorer, dir, args.shards.unwrap_or(4));
        return;
    }
    if let Some(name) = &args.obs_run {
        obs_run(name, args.obs_out.as_deref(), args.shards.unwrap_or(4));
        return;
    }

    let gen = if args.large {
        ScenarioGen::large(args.master_seed)
    } else if args.smoke {
        ScenarioGen::smoke(args.master_seed)
    } else {
        ScenarioGen::new(args.master_seed)
    };

    if args.coverage_stats {
        coverage_stats(&explorer, &gen, &args);
        return;
    }
    if args.mutate {
        guided(&explorer, &gen, &args);
        return;
    }
    blind(&explorer, &gen, &args);
}

/// The original blind exploration loop (E12).
fn blind(explorer: &Explorer, gen: &ScenarioGen, args: &Args) {
    let mode = if args.large {
        "large"
    } else if args.smoke {
        "smoke"
    } else {
        "full"
    };
    println!(
        "E12 explore: master seed {}, {} seeds [{}..{}), {mode} envelope, K={}{}",
        args.master_seed,
        args.seeds,
        args.start_seed,
        args.start_seed + args.seeds,
        args.k,
        args.shards.map(|s| format!(", {s} shards")).unwrap_or_default()
    );

    let t0 = Instant::now();
    let mut runs = 0u64;
    let mut events = 0usize;
    // Slowest sharded seed and its window counters (--par-stats; --large
    // implies it, so lookahead regressions surface in nightly fuzz logs).
    let want_par_stats = args.par_stats || args.large;
    let mut slowest: Option<(u64, Duration, rgb_sim::ParStats)> = None;
    for seed in args.start_seed..args.start_seed + args.seeds {
        if let Some(budget) = args.time_budget {
            if t0.elapsed() > budget {
                println!(
                    "time budget spent after {runs}/{} seeds ({} scheduled events): clean",
                    args.seeds, events
                );
                print_par_stats(&slowest);
                return;
            }
        }
        // Sharded runs go through the parallel engine; violations are
        // reported by (master seed, index) without shrinking (the
        // engines are trace-equivalent, so a local sequential re-run of
        // the same pair reproduces and shrinks it).
        if let Some(shards) = args.shards {
            let scenario = gen.scenario(seed);
            let run_t0 = Instant::now();
            let report = explorer
                .run_scenario_par(&scenario, shards)
                .expect("generated scenarios always validate");
            let wall = run_t0.elapsed();
            runs += 1;
            events += report.scheduled_events;
            if want_par_stats {
                if let Some(stats) = report.par_stats {
                    if slowest.as_ref().is_none_or(|(_, w, _)| wall > *w) {
                        slowest = Some((seed, wall, stats));
                    }
                }
            }
            if let Some(v) = report.violation {
                // The envelope flag is part of the scenario's identity:
                // the same (master seed, index) means a different
                // scenario under a different envelope.
                let envelope = if args.large {
                    " --large"
                } else if args.smoke {
                    " --smoke"
                } else {
                    ""
                };
                eprintln!("VIOLATION {v}");
                eprintln!("  master seed : {}", args.master_seed);
                eprintln!("  seed (index): {seed}");
                eprintln!(
                    "  regenerate  : explore{envelope} --master-seed {} --start-seed {seed} \
                     --seeds 1",
                    args.master_seed,
                );
                std::process::exit(1);
            }
            continue;
        }
        let exploration = explorer.explore(gen, seed, 1);
        runs += 1;
        for report in &exploration.reports {
            events += report.scheduled_events;
        }
        if let Some(found) = exploration.found {
            let path = found.write_artifact(&args.repro_dir).expect("write reproducer artifact");
            eprintln!("VIOLATION {}", found.violation);
            eprintln!("  master seed : {}", args.master_seed);
            eprintln!("  seed (index): {}", found.seed);
            eprintln!(
                "  regenerate  : explore{} --master-seed {} --start-seed {} --seeds 1",
                if args.smoke { " --smoke" } else { "" },
                args.master_seed,
                found.seed
            );
            eprintln!("  scenario    : {}", found.scenario.name);
            eprintln!(
                "  shrunk      : {} -> {} scheduled events in {} re-runs",
                found.scenario.scheduled_events(),
                found.shrunk.scheduled_events(),
                found.shrink_attempts
            );
            eprintln!("  reproducer  : {}", path.display());
            eprintln!(
                "  replay with : cargo run -p rgb-bench --bin explore -- --replay {}",
                path.display()
            );
            std::process::exit(1);
        }
        if runs.is_multiple_of(50) {
            println!(
                "  {runs}/{} seeds clean ({events} scheduled events, {:.1}s)",
                args.seeds,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "{runs} seeds clean ({events} scheduled events, {:.1}s): no invariant violations",
        t0.elapsed().as_secs_f64()
    );
    print_par_stats(&slowest);
}

/// The coverage-guided keep-and-mutate loop (E15, `--mutate`): corpus in,
/// grown corpus out, violations reported without stopping the session.
fn guided(explorer: &Explorer, gen: &ScenarioGen, args: &Args) {
    let corpus_dir = args.corpus.as_deref();
    let corpus = load_corpus(corpus_dir);
    println!(
        "E15 guided explore: master seed {}, {} seeds [{}..{}), corpus {} entries ({} stale \
         dropped)",
        args.master_seed,
        args.seeds,
        args.start_seed,
        args.start_seed + args.seeds,
        corpus.len(),
        corpus.stale_dropped,
    );
    let t0 = Instant::now();
    let (result, covered, buckets) = run_guided_chunked(
        explorer,
        gen,
        args.start_seed,
        args.seeds,
        corpus,
        args.time_budget,
        t0,
    );

    println!(
        "guided: {covered} runs, {} novel ({} via mutation), {} mutants run, {} corpus \
         admissions, {:.1}s",
        result.stats.novel,
        result.stats.novel_from_mutation,
        result.stats.from_mutation,
        result.stats.corpus_added,
        t0.elapsed().as_secs_f64()
    );
    print_buckets(&buckets);
    if let Some(dir) = corpus_dir {
        let written = result.corpus.save(dir).expect("save corpus");
        println!("corpus saved: {written} entries under {}", dir.display());
    }
    if let Some(path) = &args.stats_out {
        write_stats_json(
            path,
            "guided",
            covered,
            &result.stats,
            result.coverage.distinct(),
            &buckets,
            None,
        );
    }
    if !result.found.is_empty() {
        for found in &result.found {
            let path = found.write_artifact(&args.repro_dir).expect("write reproducer artifact");
            eprintln!("VIOLATION {}", found.violation);
            eprintln!("  seed (index): {}", found.seed);
            eprintln!("  scenario    : {}", found.scenario.name);
            eprintln!("  reproducer  : {}", path.display());
        }
        eprintln!("{} violation(s) this session", result.found.len());
        std::process::exit(1);
    }
}

/// `--coverage-stats`: blind and cold-start guided on the identical seed
/// budget, reporting the distinct-fingerprint comparison (E15's
/// novelty-vs-blind measurement).
fn coverage_stats(explorer: &Explorer, gen: &ScenarioGen, args: &Args) {
    println!(
        "E15 coverage stats: master seed {}, budget {} runs each, blind vs guided",
        args.master_seed, args.seeds
    );
    let t0 = Instant::now();
    // Blind block: sample the generator, fingerprint every run. A time
    // budget (when given) is split 40/60 — guided pays for shrinking too.
    let blind_budget = args.time_budget.map(|b| b.mul_f64(0.4));
    let mut blind_map = CoverageMap::new();
    let mut blind_runs = 0u64;
    for seed in args.start_seed..args.start_seed + args.seeds {
        if let Some(b) = blind_budget {
            if t0.elapsed() > b {
                break;
            }
        }
        let scenario = gen.scenario(seed);
        let mut report =
            explorer.run_scenario(&scenario).expect("generated scenarios always validate");
        report.seed = seed;
        blind_map.insert(&CoverageKey::of(&scenario, &report));
        blind_runs += 1;
    }
    let blind_wall = t0.elapsed();
    println!(
        "blind : {blind_runs} runs -> {} distinct coverage fingerprints ({:.1}s)",
        blind_map.distinct(),
        blind_wall.as_secs_f64()
    );

    // Guided block: same seed block, same run count, cold-start corpus —
    // the only difference is the keep-and-mutate loop.
    let g0 = Instant::now();
    let (result, guided_runs, buckets) = run_guided_chunked(
        explorer,
        gen,
        args.start_seed,
        blind_runs,
        Corpus::new(),
        args.time_budget.map(|b| b.saturating_sub(blind_wall)),
        g0,
    );
    println!(
        "guided: {guided_runs} runs -> {} distinct coverage fingerprints ({} via mutation, \
         {:.1}s)",
        result.coverage.distinct(),
        result.stats.novel_from_mutation,
        g0.elapsed().as_secs_f64()
    );
    let gain = result.coverage.distinct() as f64 / blind_map.distinct().max(1) as f64;
    println!("coverage gain: {gain:.2}x distinct fingerprints on an identical budget");
    print_buckets(&buckets);
    if let Some(dir) = &args.corpus {
        let written = result.corpus.save(dir).expect("save corpus");
        println!("corpus saved: {written} entries under {}", dir.display());
    }
    if let Some(path) = &args.stats_out {
        write_stats_json(
            path,
            "coverage-stats",
            guided_runs,
            &result.stats,
            result.coverage.distinct(),
            &buckets,
            Some((blind_runs, blind_map.distinct())),
        );
    }
    if !result.found.is_empty() {
        for found in &result.found {
            let path = found.write_artifact(&args.repro_dir).expect("write reproducer artifact");
            eprintln!("VIOLATION {} (reproducer: {})", found.violation, path.display());
        }
        std::process::exit(1);
    }
}

/// Drive [`Explorer::explore_guided`] in chunks so a time budget can cut
/// the session between chunks; the corpus carries coverage across chunks.
/// Returns the final result (stats summed over chunks), runs covered, and
/// the session-level bucket table. The bucket table is summed per chunk
/// because each chunk's map attributes buckets only to its own fresh
/// inserts (corpus-seeded fingerprints are bare) — and every novel
/// fingerprint is admitted to the corpus, so no chunk re-counts another's.
fn run_guided_chunked(
    explorer: &Explorer,
    gen: &ScenarioGen,
    start_seed: u64,
    seeds: u64,
    corpus: Corpus,
    budget: Option<Duration>,
    t0: Instant,
) -> (rgb_sim::explore::GuidedExploration, u64, BTreeMap<String, usize>) {
    const CHUNK: u64 = 25;
    let config = GuidedConfig::default();
    let mut corpus = corpus;
    let mut stats = GuidedStats::default();
    let mut found = Vec::new();
    let mut covered = 0u64;
    let mut coverage = CoverageMap::new();
    let mut buckets = BTreeMap::new();
    while covered < seeds {
        if let Some(b) = budget {
            if t0.elapsed() > b {
                break;
            }
        }
        let n = CHUNK.min(seeds - covered);
        let r = explorer.explore_guided(gen, start_seed + covered, n, corpus, &config);
        corpus = r.corpus;
        coverage = r.coverage;
        for (bucket, count) in coverage.by_bucket() {
            *buckets.entry(bucket.clone()).or_insert(0) += count;
        }
        stats.runs += r.stats.runs;
        stats.from_mutation += r.stats.from_mutation;
        stats.novel += r.stats.novel;
        stats.novel_from_mutation += r.stats.novel_from_mutation;
        stats.corpus_added += r.stats.corpus_added;
        stats.violations += r.stats.violations;
        found.extend(r.found);
        covered += n;
    }
    (rgb_sim::explore::GuidedExploration { stats, coverage, corpus, found }, covered, buckets)
}

/// Replay every `.scn` under `dir` on the sequential and the sharded
/// engine, requiring byte-identical digest streams and silent oracles.
fn corpus_replay(explorer: &Explorer, dir: &Path, shards: usize) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .scn artifacts under {}", dir.display());
    println!(
        "corpus replay: {} artifacts under {}, Seq vs Par({shards})",
        paths.len(),
        dir.display()
    );
    let mut failed = false;
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("read artifact");
        let scenario =
            artifact::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        let t0 = Instant::now();
        // Observation stride scaled to the scenario so short and long
        // runs both get a real stream (and the same checkpoints on both
        // engines).
        let stride = (scenario.duration / 16).max(1);
        let mut seq = scenario.try_build_sim().expect("artifact validates");
        let mut par = scenario.try_build_par(shards).expect("artifact validates");
        let mut t = 0u64;
        let mut checkpoints = 0usize;
        let mut diverged = false;
        while t < scenario.duration {
            t = (t + stride).min(scenario.duration);
            seq.run_until(t);
            par.run_until(t);
            checkpoints += 1;
            if seq.system_digest(false) != par.system_digest(false) {
                eprintln!(
                    "DIGEST DIVERGENCE {} at t={t} (checkpoint {checkpoints})",
                    scenario.name
                );
                diverged = true;
                failed = true;
                break;
            }
        }
        if diverged {
            continue;
        }
        // Oracle pass on the sequential engine (the engines were just
        // proven digest-identical over this scenario).
        let report = explorer.run_scenario(&scenario).expect("artifact validates");
        match report.violation {
            Some(v) => {
                eprintln!("VIOLATION {} in {}", v, scenario.name);
                failed = true;
            }
            None => println!(
                "  {} ok: {checkpoints} identical checkpoints, oracles silent ({:.1}s)",
                scenario.name,
                t0.elapsed().as_secs_f64()
            ),
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("{} corpus artifacts replay identically on both engines", paths.len());
}

/// Regenerate the named production-shaped corpus artifacts (seed 1).
fn write_presets(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    for sc in presets::all(1) {
        let path = dir.join(format!("{}.scn", sc.name));
        std::fs::write(&path, artifact::render(&sc)).expect("write preset artifact");
        println!("wrote {}", path.display());
    }
}

/// `--obs-run NAME`: run the named preset with the observability layer on
/// (flight recorders on every shard, per-ring-level latency histograms),
/// prove the sequential and sharded digest streams stay byte-identical
/// with obs enabled, and export the parallel run as an `rgb-obs v1` JSON
/// document plus a Prometheus-style text sibling.
fn obs_run(name: &str, out: Option<&Path>, shards: usize) {
    use rgb_core::obs::{FlightRecorder, TraceSink};
    use rgb_sim::{obs_json, write_obs, ObsReport, Timeline};

    /// Per-engine flight-recorder capacity (the par engine gets one per
    /// shard; the snapshot is the sorted concatenation).
    const TRACE_CAP: usize = 4096;

    let scenario = presets::by_name(name, 1).unwrap_or_else(|| {
        eprintln!("unknown preset '{name}'; available: {}", presets::NAMES.join(", "));
        std::process::exit(2);
    });
    println!(
        "obs run: preset '{}' ({} nodes, {} ticks), Seq vs Par({shards}), obs enabled on both",
        scenario.name,
        scenario.layout().nodes.len(),
        scenario.duration
    );
    let t0 = Instant::now();
    let mut seq = scenario.try_build_sim().expect("preset validates");
    seq.enable_obs(Box::new(FlightRecorder::new(TRACE_CAP)));
    let mut par = scenario.try_build_par(shards).expect("preset validates");
    par.enable_obs(|_| Box::new(FlightRecorder::new(TRACE_CAP)) as Box<dyn TraceSink>);

    // Same checkpoint stride as --corpus-replay, with a timeline sample at
    // every checkpoint — the digest equality check *is* the smoke test
    // that obs instrumentation never perturbs the protocol.
    let stride = (scenario.duration / 16).max(1);
    let mut timeline = Timeline::new();
    let mut t = 0u64;
    let mut checkpoints = 0usize;
    while t < scenario.duration {
        t = (t + stride).min(scenario.duration);
        seq.run_until(t);
        par.run_until(t);
        timeline.sample(t, t0.elapsed().as_nanos(), &par.metrics());
        checkpoints += 1;
        if seq.system_digest(false) != par.system_digest(false) {
            eprintln!("DIGEST DIVERGENCE with obs enabled at t={t} (checkpoint {checkpoints})");
            std::process::exit(1);
        }
    }
    let wall_nanos = t0.elapsed().as_nanos();
    println!(
        "  {checkpoints} obs-enabled checkpoints byte-identical ({:.1}s)",
        t0.elapsed().as_secs_f64()
    );

    let metrics = par.metrics();
    let trace = par.trace_snapshot();
    let shard_loads = par.shard_loads();
    let report = ObsReport {
        scenario: &scenario.name,
        backend: "par",
        ticks: scenario.duration,
        wall_nanos,
        metrics: &metrics,
        timeline: &timeline,
        trace: &trace,
        trace_dropped: par.trace_dropped(),
        shards: &shard_loads,
    };
    println!(
        "  {} trace records ({} evicted); repair p50 {:?} / p99 {:?} ticks",
        trace.len(),
        report.trace_dropped,
        metrics.levels.repair_quantile(0.5),
        metrics.levels.repair_quantile(0.99)
    );
    match out {
        Some(path) => {
            let prom = write_obs(path, &report).expect("write obs documents");
            println!("obs documents written to {} and {}", path.display(), prom.display());
        }
        None => print!("{}", obs_json(&report)),
    }
}

fn load_corpus(dir: Option<&Path>) -> Corpus {
    match dir {
        Some(dir) => {
            Corpus::load(dir).unwrap_or_else(|e| panic!("load corpus {}: {e}", dir.display()))
        }
        None => Corpus::new(),
    }
}

fn print_buckets(buckets: &BTreeMap<String, usize>) {
    for (bucket, n) in buckets {
        println!("  bucket {bucket:<28} {n} fingerprints");
    }
}

/// Minimal hand-rolled JSON stats dump for nightly artifact upload.
#[allow(clippy::too_many_arguments)]
fn write_stats_json(
    path: &Path,
    mode: &str,
    runs: u64,
    stats: &GuidedStats,
    distinct: usize,
    buckets: &BTreeMap<String, usize>,
    blind: Option<(u64, usize)>,
) {
    let mut bucket_json = String::new();
    for (i, (bucket, n)) in buckets.iter().enumerate() {
        if i > 0 {
            bucket_json.push(',');
        }
        bucket_json.push_str(&format!("\"{bucket}\":{n}"));
    }
    let blind_part = blind
        .map(|(runs, distinct)| format!("\"blind_runs\":{runs},\"blind_distinct\":{distinct},"))
        .unwrap_or_default();
    let json = format!(
        "{{\"mode\":\"{mode}\",\"runs\":{runs},{blind_part}\"guided_distinct\":{distinct},\
         \"novel\":{},\"novel_from_mutation\":{},\"from_mutation\":{},\"corpus_added\":{},\
         \"violations\":{},\"by_bucket\":{{{bucket_json}}}}}\n",
        stats.novel,
        stats.novel_from_mutation,
        stats.from_mutation,
        stats.corpus_added,
        stats.violations,
    );
    std::fs::write(path, json).expect("write stats json");
    println!("stats written to {}", path.display());
}

/// Window/batching counters of the slowest sharded seed (`--par-stats`).
fn print_par_stats(slowest: &Option<(u64, Duration, rgb_sim::ParStats)>) {
    if let Some((seed, wall, stats)) = slowest {
        println!(
            "par-stats (slowest seed {seed}, {:.2}s): {} windows, {} idle skipped, {} frames in \
             {} batches (max batch {})",
            wall.as_secs_f64(),
            stats.windows,
            stats.idle_skips,
            stats.frames_batched,
            stats.batches,
            stats.max_batch
        );
    }
}

/// `--replay`: run one artifact under the standard oracles.
///
/// Exit codes: 0 expected outcome, 1 violation (on a plain or
/// `--expect-clean` artifact, or the expected oracle of a repro — the
/// documented bug is live), 3 stale repro (`meta.oracle` present but the
/// replay stayed clean or fired a different oracle).
fn replay(explorer: &Explorer, path: &std::path::Path, expect_clean: bool) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let (scenario, meta) =
        artifact::parse_with_meta(&text).unwrap_or_else(|e| panic!("parse artifact: {e}"));
    let expected = if expect_clean { None } else { meta.oracle.as_deref() };
    println!(
        "replaying '{}' ({} scheduled events, duration {}{})",
        scenario.name,
        scenario.scheduled_events(),
        scenario.duration,
        expected.map(|o| format!(", expected oracle: {o}")).unwrap_or_default()
    );
    let report =
        explorer.run_scenario(&scenario).unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    match (report.violation, expected) {
        (Some(v), Some(oracle)) if v.oracle == oracle => {
            eprintln!("VIOLATION {v}");
            eprintln!("repro confirmed: '{oracle}' still fires");
            std::process::exit(1);
        }
        (Some(v), Some(oracle)) => {
            eprintln!("VIOLATION {v}");
            eprintln!(
                "STALE REPRO: artifact documents '{oracle}' but '{}' fired instead — \
                 re-shrink or retire it",
                v.oracle
            );
            std::process::exit(EXIT_STALE);
        }
        (Some(v), None) => {
            eprintln!("VIOLATION {v}");
            std::process::exit(1);
        }
        (None, Some(oracle)) => {
            eprintln!(
                "STALE REPRO: replay is clean but the artifact documents '{oracle}' — the bug \
                 is fixed (retire the artifact or re-record it) or the repro rotted"
            );
            std::process::exit(EXIT_STALE);
        }
        (None, None) => println!(
            "replay clean ({} observations, settled at {:?})",
            report.trace.observations.len(),
            report.trace.settled_at()
        ),
    }
}
