//! The persistent scenario corpus and the one exploration loop.
//!
//! [`Explorer::explore`] runs a block of generator seeds into an
//! [`Exploration`] session. Each run is a fresh [`ScenarioGen::scenario`]
//! sample or, moirai-fuzz-style, a single-dimension [`ScenarioGen::mutate`]
//! child of a corpus entry; every run is fingerprinted ([`CoverageKey`]),
//! and a run with **novel** coverage earns its scenario a [`CorpusEntry`]
//! (with lineage metadata: generation, parent, the operator that produced
//! it). Blind and guided exploration are two settings of this loop, not two
//! loops: with [`SessionConfig::mutate_fraction`] at `0.0` no run is a
//! mutant, so a block is exactly `gen.scenario(seed)` for each of its seeds,
//! fingerprinted like any other. Entries persist as `rgb-scenario v1`
//! artifacts in a directory ([`Corpus::load`] / [`Corpus::save`]),
//! deduplicated by coverage fingerprint; stale seeds — artifacts that no
//! longer validate against the current scenario schema — are discarded at
//! load.

use super::artifact::{self, ArtifactMeta};
use super::coverage::{CoverageKey, CoverageMap};
use super::gen::ScenarioGen;
use super::{Explorer, FoundViolation, RunReport};
use crate::rng::SplitMix64;
use crate::scenario::Scenario;
use rgb_core::prelude::*;
use std::ops::Range;
use std::path::Path;

/// One corpus entry: a scenario admitted for novel coverage, plus the
/// lineage metadata persisted with it.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The admitted scenario.
    pub scenario: Scenario,
    /// Lineage: generation, parent, operator, admission fingerprint, and
    /// (for violation-bearing entries) the oracle that fired.
    pub meta: ArtifactMeta,
}

impl CorpusEntry {
    /// The artifact text of this entry.
    pub fn render(&self) -> String {
        artifact::render_with_meta(&self.scenario, &self.meta)
    }

    /// Deterministic on-disk file name, derived from the scenario name
    /// with every non-`[A-Za-z0-9._-]` byte mapped to `-` (mutant names
    /// carry `+`/`@`).
    pub fn file_name(&self) -> String {
        let sane: String = self
            .scenario
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
            .collect();
        format!("{sane}.scn")
    }
}

/// An in-memory corpus, loadable from and savable to a directory of
/// `.scn` artifacts.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    /// Artifacts dropped at [`Corpus::load`] because they no longer
    /// validate (stale seeds) or no longer parse.
    pub stale_dropped: usize,
}

impl Corpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, in admission (or load) order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admit `entry`, deduplicating by coverage fingerprint: an entry
    /// whose `meta.coverage` is already present is dropped (returns
    /// `false`).
    pub fn add(&mut self, entry: CorpusEntry) -> bool {
        if let Some(fp) = entry.meta.coverage {
            if self.entries.iter().any(|e| e.meta.coverage == Some(fp)) {
                return false;
            }
        }
        self.entries.push(entry);
        true
    }

    /// Load every `*.scn` artifact under `dir` (sorted by file name, so
    /// load order is deterministic). Artifacts that fail to parse or no
    /// longer pass [`Scenario::validate`] are **discarded** and counted in
    /// [`Corpus::stale_dropped`] — a corpus seed is a behaviour claim, and
    /// a scenario the current schema rejects can no longer back it. A
    /// missing directory is an empty corpus.
    pub fn load(dir: &Path) -> std::io::Result<Corpus> {
        let mut corpus = Corpus::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(corpus),
            Err(e) => return Err(e),
        };
        let mut paths: Vec<_> = entries
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "scn"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)?;
            match artifact::parse_with_meta(&text) {
                Ok((scenario, meta)) if scenario.validate().is_ok() => {
                    corpus.add(CorpusEntry { scenario, meta });
                }
                _ => corpus.stale_dropped += 1,
            }
        }
        Ok(corpus)
    }

    /// Persist every entry under `dir` (created if missing) as
    /// `<name>.scn`; same-named files are overwritten (deterministic
    /// names carry deterministic content). Returns the number of files
    /// written.
    pub fn save(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        for entry in &self.entries {
            std::fs::write(dir.join(entry.file_name()), entry.render())?;
        }
        Ok(self.entries.len())
    }
}

/// Tuning for [`Explorer::explore`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Ceiling on the adaptive mutation probability. The loop steers its
    /// budget between fresh sampling and corpus mutation by their recent
    /// novelty rates (exponentially decayed per arm); this caps how hard it
    /// may lean on mutation, and `0.0` disables mutation entirely: blind
    /// exploration.
    pub mutate_fraction: f64,
    /// Parents above this node count are kept as coverage seeds but not
    /// mutated — the loop must stay affordable per run.
    pub mutation_node_cap: usize,
    /// Parents above this duration are likewise not mutated.
    pub mutation_duration_cap: u64,
    /// Shrink at most this many of a session's violations (ddmin re-runs
    /// the scenario hundreds of times; later finds are recorded unshrunk).
    pub shrink_first: usize,
    /// Run every scenario on the sharded parallel engine with this many
    /// shards ([`Explorer::run_scenario_par`]) instead of the sequential
    /// one. The engines are trace-equivalent, so the oracles and the
    /// coverage keys see the same digests either way.
    pub shards: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            mutate_fraction: 0.9,
            mutation_node_cap: 2_000,
            mutation_duration_cap: 50_000,
            shrink_first: 3,
            shards: None,
        }
    }
}

/// Exponentially-decayed novelty rates of the two exploration arms.
///
/// Early in a session fresh sampling finds novel behaviour almost every
/// run (the envelope is unexplored) while single-dimension mutants mostly
/// land in their parent's bucket; hundreds of runs in, the envelope's
/// reachable behaviours are exhausted and only mutation — which compounds
/// through the corpus and escapes the envelope — still pays. A fixed
/// mutate/fresh split is wrong at one end or the other, so the loop
/// tracks a decayed hit rate per arm and leans on whichever is currently
/// producing novelty.
#[derive(Debug, Clone, Copy)]
struct ArmRates {
    fresh_hits: f64,
    fresh_runs: f64,
    mutate_hits: f64,
    mutate_runs: f64,
}

impl ArmRates {
    /// Optimistic start: both arms assumed half-productive until data
    /// arrives, so neither is starved before it has been tried.
    fn new() -> Self {
        ArmRates { fresh_hits: 0.5, fresh_runs: 1.0, mutate_hits: 0.5, mutate_runs: 1.0 }
    }

    /// The mutation probability for the next run: mutation's share of the
    /// two arms' novelty rates, clamped to `[0.1, ceiling]` so the losing
    /// arm keeps getting probed (its rate is non-stationary — fresh
    /// sampling dries up, mutation compounds).
    fn p_mutate(&self, ceiling: f64) -> f64 {
        let fresh = self.fresh_hits / self.fresh_runs;
        let mutate = self.mutate_hits / self.mutate_runs;
        (mutate / (fresh + mutate + 1e-9)).clamp(0.1, ceiling)
    }

    /// Record one run's outcome; a half-life of ~35 runs keeps the rates
    /// tracking the current phase of the search.
    fn record(&mut self, mutated: bool, novel: bool) {
        const DECAY: f64 = 0.98;
        self.fresh_hits *= DECAY;
        self.fresh_runs *= DECAY;
        self.mutate_hits *= DECAY;
        self.mutate_runs *= DECAY;
        let hit = if novel { 1.0 } else { 0.0 };
        if mutated {
            self.mutate_hits += hit;
            self.mutate_runs += 1.0;
        } else {
            self.fresh_hits += hit;
            self.fresh_runs += 1.0;
        }
    }
}

/// Counters of one exploration session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total runs executed.
    pub runs: u64,
    /// Runs produced by mutating a corpus parent.
    pub from_mutation: u64,
    /// Runs whose coverage fingerprint was novel.
    pub novel: u64,
    /// Novel runs from mutation (vs. fresh sampling) — the direct
    /// measure of what the keep-and-mutate loop buys.
    pub novel_from_mutation: u64,
    /// Entries admitted to the corpus this session.
    pub corpus_added: usize,
    /// Oracle violations found this session.
    pub violations: usize,
}

/// An exploration session: what [`Explorer::explore`] has run and found
/// over every block of seeds it was handed.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Session counters.
    pub stats: SessionStats,
    /// Every fingerprint seen, the starting corpus's included. Its
    /// per-bucket counts cover the session's own novel runs (a corpus
    /// fingerprint is stored bare).
    pub coverage: CoverageMap,
    /// The starting corpus plus the session's admissions.
    pub corpus: Corpus,
    /// Violations in discovery order, the first
    /// [`SessionConfig::shrink_first`] shrunk to minimal reproducers. A
    /// violation does not stop the session.
    pub found: Vec<FoundViolation>,
    /// One report per run, in run order; a long session's driver drains
    /// it between blocks.
    pub reports: Vec<RunReport>,
}

impl Exploration {
    /// A session that starts from `corpus`, whose persisted admission
    /// fingerprints count as seen — a resumed session does not re-admit
    /// behaviours it already holds.
    pub fn new(corpus: Corpus) -> Self {
        let mut coverage = CoverageMap::new();
        for fp in corpus.entries.iter().filter_map(|e| e.meta.coverage) {
            coverage.insert_fingerprint(fp);
        }
        Exploration { coverage, corpus, ..Exploration::default() }
    }
}

impl Explorer {
    /// Run the seeds `seeds` of `gen` into `session`, one run per seed:
    /// a fresh [`ScenarioGen::scenario`] sample, or — with a probability
    /// of at most [`SessionConfig::mutate_fraction`], once the corpus has
    /// an affordable parent — a [`ScenarioGen::mutate`] child of a corpus
    /// entry. A run with a novel [`CoverageKey`] fingerprint admits its
    /// scenario to the corpus with lineage metadata. A violating run is
    /// recorded, shrunk while the session holds fewer than
    /// [`SessionConfig::shrink_first`] finds, and the block goes on.
    ///
    /// Each call restarts the arm rates and the scheduling stream from
    /// `seeds.start`, so where a session is cut into blocks decides which
    /// mutants it runs; with mutation off it decides nothing. Deterministic
    /// for a given `(gen, seeds, session, config)`.
    pub fn explore(
        &self,
        gen: &ScenarioGen,
        seeds: Range<u64>,
        session: &mut Exploration,
        config: &SessionConfig,
    ) {
        let Exploration { stats, coverage, corpus, found, reports } = session;
        // Scheduling RNG: which arm each run takes and which parent it
        // mutates. Separate from both the generation and mutation
        // streams so arm choice never perturbs scenario content.
        let mut sched = SplitMix64::new(seeds.start ^ 0x6775_6964_6564);
        let mut arms = ArmRates::new();

        for seed in seeds {
            let p_mutate = if config.mutate_fraction <= 0.0 {
                0.0
            } else {
                arms.p_mutate(config.mutate_fraction)
            };
            // A mutant's lineage: its parent, its generation and the
            // operator that produced it.
            let (scenario, parent, generation, operator) =
                match self.pick_parent(corpus, p_mutate, config, &mut sched) {
                    Some(parent) => {
                        let mutated = gen.mutate(&parent.scenario, seed);
                        stats.from_mutation += 1;
                        (
                            mutated.scenario,
                            Some(parent.scenario.name.clone()),
                            parent.meta.generation + 1,
                            Some(mutated.op.short().to_string()),
                        )
                    }
                    None => (gen.scenario(seed), None, 0, None),
                };

            let mut report = match config.shards {
                Some(shards) => self.run_scenario_par(&scenario, shards),
                None => self.run_scenario(&scenario),
            }
            .expect("generated and mutated scenarios validate");
            report.seed = seed;
            stats.runs += 1;
            let key = CoverageKey::of(&scenario, &report);
            let violation = report.violation.clone();
            reports.push(report);

            let novel = coverage.insert(&key);
            arms.record(parent.is_some(), novel);
            if novel {
                stats.novel += 1;
                if parent.is_some() {
                    stats.novel_from_mutation += 1;
                }
                let meta = ArtifactMeta {
                    generation,
                    parent,
                    operator,
                    coverage: Some(key.fingerprint()),
                    oracle: violation.as_ref().map(|v| v.oracle.to_string()),
                };
                if corpus.add(CorpusEntry { scenario: scenario.clone(), meta }) {
                    stats.corpus_added += 1;
                }
            }

            if let Some(violation) = violation {
                stats.violations += 1;
                if found.len() < config.shrink_first {
                    found.push(self.shrink_violation(seed, &scenario, &violation));
                } else {
                    // Recorded unshrunk: the scenario is its own (larger)
                    // reproducer.
                    found.push(FoundViolation {
                        seed,
                        violation: violation.clone(),
                        scenario: scenario.clone(),
                        shrunk: scenario.clone(),
                        shrink_attempts: 0,
                        artifact: artifact::render_with_meta(
                            &scenario,
                            &ArtifactMeta {
                                oracle: Some(violation.oracle.to_string()),
                                ..ArtifactMeta::default()
                            },
                        ),
                    });
                }
            }
        }
    }

    /// Pick an affordable mutation parent, or `None` for a fresh sample.
    fn pick_parent<'c>(
        &self,
        corpus: &'c Corpus,
        p_mutate: f64,
        config: &SessionConfig,
        sched: &mut SplitMix64,
    ) -> Option<&'c CorpusEntry> {
        // Burn the arm roll unconditionally so the schedule stream stays
        // aligned whether or not the corpus has eligible parents yet.
        if !sched.chance(p_mutate) {
            return None;
        }
        let eligible: Vec<&CorpusEntry> = corpus
            .entries
            .iter()
            .filter(|e| {
                let nodes =
                    HierarchySpec::new(e.scenario.height, e.scenario.ring_size).node_count();
                nodes <= config.mutation_node_cap
                    && e.scenario.duration <= config.mutation_duration_cap
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        // Frontier bias: half the draws mutate one of the newest
        // admissions — a scenario that just surprised us has the richest
        // unexplored neighbourhood, and chaining mutations through the
        // frontier is how the loop walks *out* of the generation
        // envelope. The other half draws from the whole corpus so old
        // regions keep getting probed.
        let frontier = 8.min(eligible.len());
        if sched.chance(0.5) {
            Some(*sched.pick(&eligible[eligible.len() - frontier..]))
        } else {
            Some(*sched.pick(&eligible))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique scratch directory under the system temp dir; removed on
    /// drop so test reruns stay clean.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("rgb_corpus_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn entry(gen: &ScenarioGen, index: u64, fp: u64) -> CorpusEntry {
        CorpusEntry {
            scenario: gen.scenario(index),
            meta: ArtifactMeta { coverage: Some(fp), ..ArtifactMeta::default() },
        }
    }

    #[test]
    fn corpus_round_trips_through_a_directory() {
        let scratch = Scratch::new("roundtrip");
        let gen = ScenarioGen::smoke(3);
        let mut corpus = Corpus::new();
        assert!(corpus.add(entry(&gen, 0, 111)));
        assert!(corpus.add(entry(&gen, 1, 222)));
        assert!(!corpus.add(entry(&gen, 2, 111)), "duplicate fingerprint must be rejected");
        assert_eq!(corpus.save(&scratch.0).unwrap(), 2);

        let back = Corpus::load(&scratch.0).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.stale_dropped, 0);
        let names: Vec<&str> = back.entries().iter().map(|e| e.scenario.name.as_str()).collect();
        assert!(names.contains(&"gen-000000") && names.contains(&"gen-000001"));
        assert_eq!(
            back.entries().iter().map(|e| e.meta.coverage).collect::<Vec<_>>(),
            vec![Some(111), Some(222)]
        );
    }

    #[test]
    fn stale_artifacts_are_discarded_at_load() {
        let scratch = Scratch::new("stale");
        let gen = ScenarioGen::smoke(5);
        let corpus = {
            let mut c = Corpus::new();
            c.add(entry(&gen, 0, 1));
            c
        };
        corpus.save(&scratch.0).unwrap();
        // A schema-valid file that no longer validates (zero duration)...
        let stale = artifact::render(&Scenario::new("stale", 1, 3).with_duration(0));
        std::fs::write(scratch.0.join("stale.scn"), stale).unwrap();
        // ...and one that doesn't parse at all.
        std::fs::write(scratch.0.join("broken.scn"), "rgb-scenario v1\nbogus: 1\n").unwrap();
        // Non-.scn files are ignored, not counted stale.
        std::fs::write(scratch.0.join("README.md"), "notes").unwrap();

        let back = Corpus::load(&scratch.0).unwrap();
        assert_eq!(back.len(), 1, "only the valid entry survives");
        assert_eq!(back.stale_dropped, 2);
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let corpus = Corpus::load(Path::new("/nonexistent/rgb-corpus")).unwrap();
        assert!(corpus.is_empty());
    }

    #[test]
    fn guided_loop_is_deterministic_and_grows_the_corpus() {
        let gen = ScenarioGen::smoke(41);
        let explorer = Explorer::default();
        let config = SessionConfig::default();
        let (mut a, mut b) = (Exploration::default(), Exploration::default());
        explorer.explore(&gen, 0..25, &mut a, &config);
        explorer.explore(&gen, 0..25, &mut b, &config);
        assert_eq!(a.stats, b.stats, "guided exploration must be deterministic");
        assert_eq!(a.corpus.len(), b.corpus.len());
        assert_eq!(a.stats.runs, 25);
        assert!(a.stats.novel > 0, "25 smoke seeds must surface novel coverage");
        assert_eq!(a.stats.corpus_added, a.corpus.len());
        assert!(
            a.stats.from_mutation > 0,
            "once the corpus is non-empty most runs should be mutants"
        );
        assert_eq!(a.coverage.distinct() as u64, a.stats.novel);
        // Lineage is recorded on mutant admissions.
        if let Some(mutant) = a.corpus.entries().iter().find(|e| e.meta.generation > 0) {
            assert!(mutant.meta.parent.is_some());
            assert!(mutant.meta.operator.is_some());
        }
    }

    #[test]
    fn a_seeded_coverage_map_suppresses_known_behaviours() {
        let gen = ScenarioGen::smoke(41);
        let explorer = Explorer::default();
        // Fresh-only sampling in both sessions, so the second session
        // replays the exact scenarios of the first.
        let config = SessionConfig { mutate_fraction: 0.0, ..SessionConfig::default() };
        let mut first = Exploration::default();
        explorer.explore(&gen, 0..15, &mut first, &config);
        assert!(first.stats.corpus_added > 0);
        // Re-running the same block against the grown corpus re-admits
        // nothing: every fingerprint is already persisted.
        let mut again = Exploration::new(first.corpus.clone());
        explorer.explore(&gen, 0..15, &mut again, &config);
        assert_eq!(again.stats.corpus_added, 0, "known coverage must not be re-admitted");
        assert_eq!(again.corpus.len(), first.corpus.len());
    }

    #[test]
    fn mutation_off_runs_the_blind_block() {
        // Blind exploration is this loop with mutation off: over two blocks
        // of one session every run is the generator's own scenario for its
        // seed, and the session's coverage is what running those scenarios
        // one by one gives.
        let gen = ScenarioGen::smoke(5);
        let explorer = Explorer::default();
        let config = SessionConfig { mutate_fraction: 0.0, ..SessionConfig::default() };
        let mut session = Exploration::default();
        explorer.explore(&gen, 7..32, &mut session, &config);
        explorer.explore(&gen, 32..37, &mut session, &config);
        assert_eq!(session.stats.from_mutation, 0, "mutation off runs no mutant");
        assert_eq!(session.reports.len(), 30);

        let mut blind = CoverageMap::new();
        for (report, seed) in session.reports.iter().zip(7..37) {
            let scenario = gen.scenario(seed);
            let direct = explorer.run_scenario(&scenario).expect("generated scenarios validate");
            assert_eq!((report.seed, report.scenario.as_str()), (seed, scenario.name.as_str()));
            let key = CoverageKey::of(&scenario, &direct);
            assert_eq!(CoverageKey::of(&scenario, report), key, "seed {seed}");
            blind.insert(&key);
        }
        assert_eq!(session.coverage.distinct(), blind.distinct());
        assert_eq!(session.coverage.by_bucket(), blind.by_bucket());
        assert_eq!(session.stats.novel, blind.distinct() as u64);
    }
}
