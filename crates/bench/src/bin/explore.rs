//! E12/E15 — the deterministic scenario explorer.
//!
//! Fault-space fuzzing over randomized [`rgb_sim::Scenario`]s under the
//! continuous invariant oracle battery: every run is fingerprinted by what
//! it did ([`rgb_sim::explore::CoverageKey`]), violations are shrunk to
//! minimal reproducer artifacts, and (E15) runs with novel coverage grow a
//! corpus whose entries can be mutated one dimension at a time.
//!
//! ```text
//! explore [--seeds N] [--start-seed S] [--master-seed M] [--smoke | --large]
//!         [--shards N] [--mutate | --coverage-stats] [--corpus DIR]
//!         [--time-budget-secs T] [--repro-dir DIR] [--stats-out FILE]
//! explore --replay FILE [--expect-clean]
//! explore --corpus-replay DIR [--shards N]
//! explore --write-presets DIR
//! explore --obs-run NAME [--obs-out FILE] [--shards N]
//! ```
//!
//! Every exploring mode drives the one session loop,
//! [`Explorer::explore`](rgb_sim::explore::Explorer::explore); the modes
//! only set its mutation ceiling:
//!
//! - Default (blind, E12): mutation off, so each run is the generator's
//!   scenario for its seed. `--seeds 200 --smoke` is the PR smoke block.
//! - `--mutate` (guided, E15): each run samples the generator or mutates a
//!   corpus entry, steered by each arm's recent novelty.
//! - `--coverage-stats`: a blind session, then a guided one on as many of
//!   the same seeds, and the comparison of their distinct coverage
//!   fingerprints — the E15 novelty-vs-blind measurement. A time budget is
//!   split 40/60 between them (the guided session pays for shrinking too).
//!
//! What every exploring mode shares:
//!
//! - The envelope is the full one by default, the bounded one with
//!   `--smoke` and the 10k–50k-node one with `--large`. A scenario is
//!   identified by `(envelope, master seed, index)`: `--master-seed` picks
//!   the generator stream (the nightly job derives it from the date),
//!   `--start-seed`/`--seeds` the index block.
//! - `--shards N` runs every scenario on the sharded parallel engine
//!   (trace-equivalent to the sequential one, so the oracles and the
//!   coverage keys see identical digests) and prints the session's merged
//!   `ParStats`.
//! - Seeds run in blocks of [`BLOCK`]: the corpus carries across blocks and
//!   each block restarts the mutation schedule at its first seed. The time
//!   budget (`--time-budget-secs`) is checked between blocks; once it is
//!   spent the session stops and reports how many seeds it covered.
//! - `--corpus DIR` starts each session from the corpus under DIR (stale
//!   artifacts dropped) and saves the last session's grown corpus back.
//! - Each session prints its distinct coverage fingerprints per bucket, its
//!   mutants and corpus admissions; `--stats-out FILE` writes them as JSON
//!   (the PR and nightly jobs upload it).
//! - One violation rule: a violation never stops the session. Each is
//!   reported and written as a reproducer artifact under `--repro-dir`
//!   (default `tests/repros/`), the first three of a session delta-debugged
//!   to a minimal one first — none under `--shards`, where shrinking a
//!   30k-node scenario is a local follow-up (the engines are
//!   trace-equivalent, so a sequential run of the same scenario reproduces
//!   it). The process exits 1 at the end of a session that found any, which
//!   is what fails the nightly job.
//!
//! The other modes run artifacts and presets:
//!
//! - `--replay FILE` parses a previously written artifact and runs it
//!   under the standard oracles. Artifacts written by the explorer carry
//!   `meta.oracle` — the oracle the repro is expected to fire. Replay exit
//!   codes: **0** expected outcome (clean for plain/`--expect-clean`
//!   artifacts), **1** violation, **3** stale repro (a `meta.oracle`
//!   artifact that replayed clean or fired a different oracle — the bug it
//!   documents is gone or changed; without this, a silently-clean replay is
//!   indistinguishable from a fixed bug).
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

use rgb_sim::explore::{
    artifact, Corpus, Exploration, Explorer, FoundViolation, ScenarioGen, SessionConfig,
};
use rgb_sim::{presets, ParStats};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Exit code for a stale repro: a `meta.oracle` artifact whose replay no
/// longer fires that oracle.
const EXIT_STALE: i32 = 3;

/// Seeds per [`Explorer::explore`] call. The guided figures of E15 and E26
/// are measured at this size: each call restarts the mutation schedule.
const BLOCK: u64 = 25;

struct Args {
    seeds: u64,
    start_seed: u64,
    master_seed: u64,
    smoke: bool,
    large: bool,
    shards: Option<usize>,
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
    let explorer = Explorer::default();

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
    explore(&explorer, &gen, &args);
}

/// The generation envelope flag, `None` for the full envelope. It is part
/// of a scenario's identity: the same `(master seed, index)` is a different
/// scenario in another envelope.
fn envelope(args: &Args) -> Option<&'static str> {
    if args.large {
        Some("large")
    } else if args.smoke {
        Some("smoke")
    } else {
        None
    }
}

/// One exploration session and what its driver adds up around it.
struct Session {
    /// `blind` or `guided`.
    kind: &'static str,
    exploration: Exploration,
    /// Seeds run before the session ended or its time budget ran out.
    covered: u64,
    /// Scheduled events across the session's scenarios.
    events: usize,
    /// Window counters merged over the session's sharded runs.
    par: Option<ParStats>,
    wall: Duration,
}

/// The exploring modes (see the module docs): a blind session, a guided
/// one, or both under `--coverage-stats`; then one report and one exit rule.
fn explore(explorer: &Explorer, gen: &ScenarioGen, args: &Args) {
    let mode = if args.coverage_stats {
        "coverage-stats"
    } else if args.mutate {
        "guided"
    } else {
        "blind"
    };
    let corpus = match &args.corpus {
        Some(dir) => {
            Corpus::load(dir).unwrap_or_else(|e| panic!("load corpus {}: {e}", dir.display()))
        }
        None => Corpus::new(),
    };
    println!(
        "E12/E15 explore ({mode}): master seed {}, {} seeds [{}..{}), {} envelope{}, \
         corpus {} entries ({} stale dropped)",
        args.master_seed,
        args.seeds,
        args.start_seed,
        args.start_seed + args.seeds,
        envelope(args).unwrap_or("full"),
        args.shards.map(|s| format!(", {s} shards")).unwrap_or_default(),
        corpus.len(),
        corpus.stale_dropped,
    );

    let guided = SessionConfig {
        shards: args.shards,
        shrink_first: if args.shards.is_some() { 0 } else { SessionConfig::default().shrink_first },
        ..SessionConfig::default()
    };
    let blind = SessionConfig { mutate_fraction: 0.0, ..guided.clone() };
    let t0 = Instant::now();
    let mut sessions = Vec::new();
    if mode != "guided" {
        let budget = args.time_budget.map(|b| if mode == "blind" { b } else { b.mul_f64(0.4) });
        sessions.push(session(explorer, gen, args, &blind, args.seeds, &corpus, budget));
    }
    if mode != "blind" {
        // Under --coverage-stats the guided session runs as many seeds as
        // the blind one covered, so both spend an identical budget.
        let seeds = sessions.first().map_or(args.seeds, |s| s.covered);
        let budget = args.time_budget.map(|b| b.saturating_sub(t0.elapsed()));
        sessions.push(session(explorer, gen, args, &guided, seeds, &corpus, budget));
    }

    for s in &sessions {
        let stats = &s.exploration.stats;
        println!(
            "{}: {} runs ({} scheduled events) -> {} distinct coverage fingerprints ({} via \
             mutation), {} mutants run, {} corpus admissions, {} violations, {:.1}s",
            s.kind,
            s.covered,
            s.events,
            s.exploration.coverage.distinct(),
            stats.novel_from_mutation,
            stats.from_mutation,
            stats.corpus_added,
            stats.violations,
            s.wall.as_secs_f64()
        );
        for (bucket, n) in s.exploration.coverage.by_bucket() {
            println!("  bucket {bucket:<28} {n} fingerprints");
        }
        if let Some(p) = &s.par {
            println!(
                "  par-stats: {} windows, {} idle skipped, {} frames in {} batches (max batch {})",
                p.windows, p.idle_skips, p.frames_batched, p.batches, p.max_batch
            );
        }
    }
    if let [blind, guided] = &sessions[..] {
        let gain = guided.exploration.coverage.distinct() as f64
            / blind.exploration.coverage.distinct().max(1) as f64;
        println!("coverage gain: {gain:.2}x distinct fingerprints on an identical budget");
    }
    let last = sessions.last().expect("every exploring mode runs a session");
    if let Some(dir) = &args.corpus {
        let written = last.exploration.corpus.save(dir).expect("save corpus");
        println!("corpus saved: {written} entries under {}", dir.display());
    }
    if let Some(path) = &args.stats_out {
        write_stats_json(path, mode, &sessions);
    }

    let found: Vec<&FoundViolation> = sessions.iter().flat_map(|s| &s.exploration.found).collect();
    for violation in &found {
        report_violation(violation, gen, args);
    }
    if !found.is_empty() {
        eprintln!("{} violation(s) this session", found.len());
        std::process::exit(1);
    }
    println!("no invariant violations ({:.1}s)", t0.elapsed().as_secs_f64());
}

/// Run `seeds` seeds from `--start-seed` through [`Explorer::explore`] in
/// blocks of [`BLOCK`], starting from `corpus` and checking `budget`
/// between blocks.
fn session(
    explorer: &Explorer,
    gen: &ScenarioGen,
    args: &Args,
    config: &SessionConfig,
    seeds: u64,
    corpus: &Corpus,
    budget: Option<Duration>,
) -> Session {
    let t0 = Instant::now();
    let kind = if config.mutate_fraction > 0.0 { "guided" } else { "blind" };
    let mut s = Session {
        kind,
        exploration: Exploration::new(corpus.clone()),
        covered: 0,
        events: 0,
        par: None,
        wall: Duration::ZERO,
    };
    while s.covered < seeds {
        if budget.is_some_and(|b| t0.elapsed() > b) {
            println!("{kind}: time budget spent after {}/{seeds} seeds", s.covered);
            break;
        }
        let first = args.start_seed + s.covered;
        let n = BLOCK.min(seeds - s.covered);
        explorer.explore(gen, first..first + n, &mut s.exploration, config);
        for report in s.exploration.reports.drain(..) {
            s.events += report.scheduled_events;
            if let Some(stats) = &report.par_stats {
                s.par.get_or_insert_with(ParStats::default).merge(stats);
            }
        }
        s.covered += n;
        if s.covered.is_multiple_of(50) {
            println!(
                "  {kind}: {}/{seeds} seeds, {} violations ({} scheduled events, {:.1}s)",
                s.covered,
                s.exploration.stats.violations,
                s.events,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    s.wall = t0.elapsed();
    s
}

/// Report one violation and write its reproducer under `--repro-dir`.
fn report_violation(found: &FoundViolation, gen: &ScenarioGen, args: &Args) {
    let path = found.write_artifact(&args.repro_dir).expect("write reproducer artifact");
    eprintln!("VIOLATION {}", found.violation);
    eprintln!("  master seed : {}", args.master_seed);
    eprintln!("  seed (index): {}", found.seed);
    // A mutant is not its seed's scenario: only its artifact reproduces it.
    if found.scenario == gen.scenario(found.seed) {
        let envelope = envelope(args).map(|e| format!(" --{e}")).unwrap_or_default();
        eprintln!(
            "  regenerate  : explore{envelope} --master-seed {} --start-seed {} --seeds 1",
            args.master_seed, found.seed
        );
    }
    eprintln!("  scenario    : {}", found.scenario.name);
    if found.shrink_attempts > 0 {
        eprintln!(
            "  shrunk      : {} -> {} scheduled events in {} re-runs",
            found.scenario.scheduled_events(),
            found.shrunk.scheduled_events(),
            found.shrink_attempts
        );
    }
    eprintln!("  reproducer  : {}", path.display());
    eprintln!(
        "  replay with : cargo run -p rgb-bench --bin explore -- --replay {}",
        path.display()
    );
}

/// Minimal hand-rolled JSON stats dump for artifact upload: the last
/// session's counters, preceded by the run count and distinct fingerprints
/// of any session before it (the blind one of `--coverage-stats`).
fn write_stats_json(path: &Path, mode: &str, sessions: &[Session]) {
    let (last, earlier) = sessions.split_last().expect("every exploring mode runs a session");
    let mut json = format!("{{\"mode\":\"{mode}\",\"runs\":{},", last.covered);
    for s in earlier {
        let distinct = s.exploration.coverage.distinct();
        json += &format!("\"{0}_runs\":{1},\"{0}_distinct\":{distinct},", s.kind, s.covered);
    }
    let stats = &last.exploration.stats;
    let buckets: Vec<String> =
        last.exploration.coverage.by_bucket().iter().map(|(b, n)| format!("\"{b}\":{n}")).collect();
    json += &format!(
        "\"{}_distinct\":{},\"novel\":{},\"novel_from_mutation\":{},\"from_mutation\":{},\
         \"corpus_added\":{},\"violations\":{},\"by_bucket\":{{{}}}}}\n",
        last.kind,
        last.exploration.coverage.distinct(),
        stats.novel,
        stats.novel_from_mutation,
        stats.from_mutation,
        stats.corpus_added,
        stats.violations,
        buckets.join(","),
    );
    std::fs::write(path, json).expect("write stats json");
    println!("stats written to {}", path.display());
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
        let mut checkpoints = 0usize;
        let diverged = seq.run_observed(scenario.duration, stride, |s| {
            par.run_until(s.now);
            checkpoints += 1;
            s.system_digest(false) == par.system_digest(false)
        });
        if let Some(t) = diverged {
            eprintln!("DIGEST DIVERGENCE {} at t={t} (checkpoint {checkpoints})", scenario.name);
            failed = true;
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
    let mut checkpoints = 0usize;
    let diverged = seq.run_observed(scenario.duration, stride, |s| {
        par.run_until(s.now);
        timeline.sample(s.now, t0.elapsed().as_nanos(), &par.metrics());
        checkpoints += 1;
        s.system_digest(false) == par.system_digest(false)
    });
    if let Some(t) = diverged {
        eprintln!("DIGEST DIVERGENCE with obs enabled at t={t} (checkpoint {checkpoints})");
        std::process::exit(1);
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
