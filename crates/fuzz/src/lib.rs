#![warn(missing_docs)]

//! # mffuzz
//!
//! An in-tree, offline, deterministic coverage-guided fuzzer for the whole
//! mflang → trace-ir → mfopt → trace-vm → ifprob stack.
//!
//! The loop is conventional — generate or mutate a case, run it through a
//! battery of differential and invariant oracles ([`oracle`]), keep cases
//! that reach new control-flow edges ([`cov`]) — with one structural
//! commitment: **bit-for-bit reproducibility at any parallelism**. Every
//! iteration's randomness is a pure function of the master seed and the
//! iteration's global index, iterations are dispatched in fixed-size
//! chunks over [`mfharness::run_indexed`] (which returns results in
//! submission order), and all cross-iteration state (coverage map, corpus
//! growth, finding list) is merged in index order at chunk boundaries. The
//! same `--seed` therefore produces byte-identical findings and coverage
//! no matter how many worker threads run the chunks.
//!
//! The crate doubles as a mutation-testing harness: the product crates
//! compile (behind their off-by-default `seeded-defects` features) eight
//! known bugs that stay dormant until activated through [`mfdefect`]; the
//! gauntlet test asserts the fuzzer finds every one of them within a
//! bounded iteration count.

pub mod corpus;
pub mod cov;
pub mod gen;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod rng;

use std::time::{Duration, Instant};

use mfreport::json::Json;
use trace_vm::BranchCounts;

pub use corpus::CorpusEntry;
use cov::CovMap;
use rng::Rng;

/// Fuzzing-loop configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Iterations to run (may stop earlier on time budget or findings cap).
    pub iters: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Iterations per scheduling chunk. Corpus and coverage state advance
    /// only at chunk boundaries, so the chunk size — not the worker count —
    /// defines the feedback schedule.
    pub chunk: u64,
    /// Optional wall-clock budget, checked at chunk boundaries.
    pub time_budget: Option<Duration>,
    /// Stop once this many findings accumulate (checked per chunk).
    pub max_findings: usize,
    /// Minimize source-level findings before reporting.
    pub minimize: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 1000,
            jobs: 1,
            chunk: 64,
            time_budget: None,
            max_findings: 12,
            minimize: true,
        }
    }
}

/// How a finding's test case came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseKind {
    /// Freshly generated source.
    Generated,
    /// Text-level mutation (or splice) of corpus entries.
    SourceMutant,
    /// Direct IR mutation of a compiled corpus entry.
    IrMutant,
    /// Perturbed branch counts fed to the profile machinery.
    ProfilePerturb,
    /// Replay of a pre-existing corpus entry.
    CorpusReplay,
}

impl CaseKind {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CaseKind::Generated => "generated",
            CaseKind::SourceMutant => "source-mutant",
            CaseKind::IrMutant => "ir-mutant",
            CaseKind::ProfilePerturb => "profile-perturb",
            CaseKind::CorpusReplay => "corpus-replay",
        }
    }
}

/// One oracle violation, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Global iteration index that produced it (`u64::MAX` for replay).
    pub iteration: u64,
    /// Which oracle fired.
    pub oracle: String,
    /// Human-readable discrepancy description.
    pub detail: String,
    /// The case text: `.mf` source, or rendered IR for IR mutants.
    pub case: String,
    /// Input vectors the case ran with.
    pub input_sets: Vec<Vec<i64>>,
    /// How the case was produced.
    pub kind: CaseKind,
}

/// Everything one fuzzing run concluded.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The master seed.
    pub seed: u64,
    /// Iterations actually executed.
    pub iterations: u64,
    /// Distinct coverage edges at exit.
    pub coverage_edges: usize,
    /// Corpus entries added by coverage feedback this run.
    pub corpus_added: usize,
    /// Corpus size at exit (initial + added).
    pub corpus_size: usize,
    /// All findings, in iteration order.
    pub findings: Vec<Finding>,
    /// Wall-clock time of the loop (not part of deterministic output).
    pub elapsed: Duration,
    /// Worker threads used (not part of deterministic output).
    pub workers: usize,
}

impl FuzzReport {
    /// Executions per second of wall time.
    pub fn execs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.iterations as f64 / secs
        }
    }

    /// The seed-determined portion of the report: byte-identical for the
    /// same seed and iteration count at any `jobs` setting. Excludes
    /// timing and worker count by construction.
    pub fn deterministic_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mffuzz seed={} iterations={}\n",
            self.seed, self.iterations
        ));
        out.push_str(&format!(
            "coverage: {} edges; corpus: {} entries ({} added)\n",
            self.coverage_edges, self.corpus_size, self.corpus_added
        ));
        out.push_str(&format!("findings: {}\n", self.findings.len()));
        for f in &self.findings {
            out.push_str(&format!(
                "  [{}] {} ({}): {}\n",
                f.iteration,
                f.oracle,
                f.kind.name(),
                f.detail
            ));
        }
        out
    }

    /// The human-readable summary table, mfreport-style.
    pub fn summary_table(&self) -> mfreport::Table {
        let mut table = mfreport::Table::new(&["metric", "value"]);
        table.row_owned(vec!["seed".into(), self.seed.to_string()]);
        table.row_owned(vec!["iterations".into(), self.iterations.to_string()]);
        table.row_owned(vec![
            "coverage edges".into(),
            self.coverage_edges.to_string(),
        ]);
        table.row_owned(vec![
            "corpus entries".into(),
            format!("{} ({} added)", self.corpus_size, self.corpus_added),
        ]);
        table.row_owned(vec!["findings".into(), self.findings.len().to_string()]);
        table.row_owned(vec!["worker threads".into(), self.workers.to_string()]);
        table.row_owned(vec![
            "wall time".into(),
            format!("{:.3}s", self.elapsed.as_secs_f64()),
        ]);
        table.row_owned(vec![
            "execs/sec".into(),
            format!("{:.1}", self.execs_per_sec()),
        ]);
        table
    }

    /// The full report, timing included, as a JSON value.
    pub fn to_json(&self) -> Json {
        let findings = self.findings.iter().map(|f| {
            Json::object([
                ("iteration", f.iteration.into()),
                ("oracle", f.oracle.as_str().into()),
                ("kind", f.kind.name().into()),
                ("detail", f.detail.as_str().into()),
            ])
        });
        Json::object([
            ("seed", self.seed.into()),
            ("iterations", self.iterations.into()),
            ("coverage_edges", self.coverage_edges.into()),
            ("corpus_size", self.corpus_size.into()),
            ("corpus_added", self.corpus_added.into()),
            ("workers", self.workers.into()),
            ("wall_seconds", self.elapsed.as_secs_f64().into()),
            ("execs_per_sec", self.execs_per_sec().into()),
            ("findings", Json::array(findings)),
        ])
    }
}

/// What one iteration hands back for index-order merging.
struct IterOutcome {
    findings: Vec<(&'static str, String)>,
    edges: Vec<cov::Edge>,
    /// `(source, input_sets)` if the case compiled and may join the corpus.
    candidate: Option<(String, Vec<Vec<i64>>)>,
    /// Case text for findings.
    case: String,
    input_sets: Vec<Vec<i64>>,
    kind: CaseKind,
}

impl IterOutcome {
    fn empty(kind: CaseKind) -> Self {
        IterOutcome {
            findings: Vec::new(),
            edges: Vec::new(),
            candidate: None,
            case: String::new(),
            input_sets: Vec::new(),
            kind,
        }
    }
}

/// Runs one fuzz iteration: a pure function of `(seed, index, corpus)`.
fn run_one(seed: u64, index: u64, corpus: &[CorpusEntry]) -> IterOutcome {
    let mut rng = Rng::for_iteration(seed, index);
    let action = if corpus.is_empty() {
        0
    } else {
        match rng.below(100) {
            0..=24 => 0,  // generate fresh
            25..=64 => 1, // source mutation
            65..=84 => 2, // IR mutation
            _ => 3,       // profile perturbation
        }
    };
    match action {
        0 => {
            let case = gen::generate(&mut rng);
            source_outcome(case.source, case.input_sets, CaseKind::Generated)
        }
        1 => {
            let base = &corpus[rng.below(corpus.len())];
            let source = if corpus.len() > 1 && rng.chance(1, 5) {
                let other = &corpus[rng.below(corpus.len())];
                mutate::splice_sources(&mut rng, &base.source, &other.source)
            } else {
                mutate::mutate_source(&mut rng, &base.source)
            };
            let mut input_sets = base.input_sets.clone();
            if rng.chance(1, 3) {
                mutate::mutate_inputs(&mut rng, &mut input_sets);
            }
            source_outcome(source, input_sets, CaseKind::SourceMutant)
        }
        2 => {
            let base = &corpus[rng.below(corpus.len())];
            let Ok(program) = mflang::compile(&base.source) else {
                return IterOutcome::empty(CaseKind::IrMutant);
            };
            let mutant = mutate::mutate_ir(&mut rng, &program);
            let out = oracle::check_ir(&mutant, &base.input_sets);
            IterOutcome {
                findings: out.findings,
                edges: Vec::new(),
                candidate: None,
                case: mutant.to_string(),
                input_sets: base.input_sets.clone(),
                kind: CaseKind::IrMutant,
            }
        }
        _ => {
            let base = &corpus[rng.below(corpus.len())];
            let Ok(program) = mflang::compile(&base.source) else {
                return IterOutcome::empty(CaseKind::ProfilePerturb);
            };
            let mut counts_sets: Vec<BranchCounts> = Vec::new();
            for set in &base.input_sets {
                let inputs: Vec<trace_vm::Input> =
                    set.iter().map(|&v| trace_vm::Input::Int(v)).collect();
                if let Ok(run) = trace_vm::run_program(&program, oracle::fuzz_vm_config(), &inputs)
                {
                    counts_sets.push(mutate::perturb_counts(&mut rng, &run.stats.branches));
                }
            }
            if counts_sets.is_empty() {
                return IterOutcome::empty(CaseKind::ProfilePerturb);
            }
            let out = oracle::check_profile(&program, &counts_sets);
            IterOutcome {
                findings: out.findings,
                edges: Vec::new(),
                candidate: None,
                case: base.source.clone(),
                input_sets: base.input_sets.clone(),
                kind: CaseKind::ProfilePerturb,
            }
        }
    }
}

fn source_outcome(source: String, input_sets: Vec<Vec<i64>>, kind: CaseKind) -> IterOutcome {
    let hash = mfharness::fnv64(source.as_bytes());
    let out = oracle::check_source(&source, &input_sets, hash);
    IterOutcome {
        findings: out.findings,
        candidate: out.compiled.then(|| (source.clone(), input_sets.clone())),
        edges: out.edges,
        case: source,
        input_sets,
        kind,
    }
}

/// The fuzzing loop.
#[derive(Debug)]
pub struct Fuzzer {
    config: FuzzConfig,
    corpus: Vec<CorpusEntry>,
}

impl Fuzzer {
    /// A fuzzer over `initial_corpus` (possibly empty).
    pub fn new(config: FuzzConfig, initial_corpus: Vec<CorpusEntry>) -> Self {
        Fuzzer {
            config,
            corpus: initial_corpus,
        }
    }

    /// Replays the initial corpus through the full oracle battery and then
    /// runs the configured number of fuzz iterations, returning the final
    /// report. Corpus entries grown this run are appended to the in-memory
    /// corpus (callers persist them if desired via [`Fuzzer::into_corpus`]).
    pub fn run(&mut self) -> FuzzReport {
        let start = Instant::now();
        let cfg = self.config.clone();
        let mut cov = CovMap::new();
        let mut findings: Vec<Finding> = Vec::new();
        let mut corpus_added = 0usize;
        let initial_len = self.corpus.len();

        // Corpus replay: every pre-existing entry must satisfy every
        // oracle, and its edges seed the coverage map.
        for entry in &self.corpus[..initial_len] {
            let hash = mfharness::fnv64(entry.source.as_bytes());
            let out = oracle::check_source(&entry.source, &entry.input_sets, hash);
            cov.merge(&out.edges);
            for (oracle_id, detail) in out.findings {
                findings.push(Finding {
                    iteration: u64::MAX,
                    oracle: oracle_id.to_string(),
                    detail: format!("corpus entry '{}': {detail}", entry.name),
                    case: entry.source.clone(),
                    input_sets: entry.input_sets.clone(),
                    kind: CaseKind::CorpusReplay,
                });
            }
        }

        let mut next_index = 0u64;
        while next_index < cfg.iters && findings.len() < cfg.max_findings {
            if let Some(budget) = cfg.time_budget {
                if start.elapsed() >= budget {
                    break;
                }
            }
            let n = cfg.chunk.min(cfg.iters - next_index) as usize;
            let snapshot = &self.corpus;
            let (results, _stats) = mfharness::run_indexed(cfg.jobs.max(1), n, |i| {
                run_one(cfg.seed, next_index + i as u64, snapshot)
            });
            for (i, outcome) in results.into_iter().enumerate() {
                let index = next_index + i as u64;
                let fresh = cov.merge(&outcome.edges);
                if fresh > 0 {
                    if let Some((source, input_sets)) = outcome.candidate {
                        self.corpus.push(CorpusEntry {
                            name: format!("case-{index:06}"),
                            source,
                            input_sets,
                        });
                        corpus_added += 1;
                    }
                }
                for (oracle_id, detail) in outcome.findings {
                    findings.push(Finding {
                        iteration: index,
                        oracle: oracle_id.to_string(),
                        detail,
                        case: outcome.case.clone(),
                        input_sets: outcome.input_sets.clone(),
                        kind: outcome.kind,
                    });
                }
            }
            next_index += n as u64;
        }

        if cfg.minimize {
            for f in &mut findings {
                if matches!(f.kind, CaseKind::Generated | CaseKind::SourceMutant) {
                    let (source, inputs) = minimize::minimize(&f.oracle, &f.case, &f.input_sets);
                    f.case = source;
                    f.input_sets = inputs;
                }
            }
        }

        FuzzReport {
            seed: cfg.seed,
            iterations: next_index,
            coverage_edges: cov.len(),
            corpus_added,
            corpus_size: self.corpus.len(),
            findings,
            elapsed: start.elapsed(),
            workers: cfg.jobs.max(1),
        }
    }

    /// The corpus after fuzzing (initial entries plus coverage-selected
    /// additions, in discovery order).
    pub fn into_corpus(self) -> Vec<CorpusEntry> {
        self.corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(iters: u64) -> FuzzConfig {
        FuzzConfig {
            seed: 0xF15E,
            iters,
            jobs: 2,
            minimize: false,
            ..Default::default()
        }
    }

    #[test]
    fn clean_build_short_run_has_no_findings() {
        mfdefect::clear();
        let report = Fuzzer::new(quick_config(192), Vec::new()).run();
        assert_eq!(report.iterations, 192);
        assert!(
            report.findings.is_empty(),
            "clean build must produce zero findings: {}",
            report.deterministic_text()
        );
        assert!(report.coverage_edges > 0);
        assert!(
            report.corpus_size > 0,
            "coverage feedback must grow a corpus"
        );
    }

    #[test]
    fn same_seed_same_report_at_any_job_count() {
        mfdefect::clear();
        let mut cfg1 = quick_config(160);
        cfg1.jobs = 1;
        let mut cfg4 = quick_config(160);
        cfg4.jobs = 4;
        let a = Fuzzer::new(cfg1, Vec::new()).run();
        let b = Fuzzer::new(cfg4, Vec::new()).run();
        assert_eq!(a.deterministic_text(), b.deterministic_text());
    }

    #[test]
    fn report_serializes() {
        mfdefect::clear();
        let report = Fuzzer::new(quick_config(64), Vec::new()).run();
        let json = report.to_json().render();
        assert!(json.contains("\"findings\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.summary_table().render().contains("coverage edges"));
    }
}
