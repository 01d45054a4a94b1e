//! Units of work and their results.

use std::sync::Arc;
use std::time::Duration;

use mfdyn::{DynSpec, RunLengths, ZooReport};
use trace_ir::Program;
use trace_vm::{Input, Run, RunStats, VmConfig};

use crate::key::RunKey;

/// An observer riding along on a job's run; what it measured comes back in
/// [`RunOutcome::observed`]. It folds into [`RunJob::key`], and both cache
/// tiers hold the product together with the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observe {
    /// The online predictor zoo over these specs ([`mfdyn::Zoo`]).
    Zoo(Vec<DynSpec>),
    /// Run lengths between mispredictions of a predicted-taken table
    /// indexed by branch id ([`mfdyn::RunLengths`]).
    RunLengths(Arc<Vec<bool>>),
}

/// What a job's observer measured: the product of its [`Observe`], or
/// nothing for an unobserved job.
#[derive(Clone, Debug, PartialEq)]
pub enum Observed {
    /// No observer rode along (or an executor did not drive it).
    Nothing,
    /// The per-predictor tallies of an [`Observe::Zoo`] job.
    Zoo(Arc<ZooReport>),
    /// The histogram of an [`Observe::RunLengths`] job.
    RunLengths(Arc<RunLengths>),
}

impl Observed {
    /// Whether this is the product `observe` yields — the condition for
    /// caching it under that job's key.
    pub(crate) fn answers(&self, observe: Option<&Observe>) -> bool {
        matches!(
            (self, observe),
            (Observed::Nothing, None)
                | (Observed::Zoo(_), Some(Observe::Zoo(_)))
                | (Observed::RunLengths(_), Some(Observe::RunLengths(_)))
        )
    }
}

/// One `(program, dataset, vm-config)` execution request.
#[derive(Clone, Debug)]
pub struct RunJob {
    /// Program name, for labels and error messages.
    pub program_name: String,
    /// Dataset name, for labels and error messages.
    pub dataset: String,
    /// The compiled program to execute.
    pub program: Arc<Program>,
    /// The guest `main` inputs.
    pub inputs: Vec<Input>,
    /// VM resource/measurement configuration.
    pub config: VmConfig,
    /// The observer riding along on the run, if any.
    pub observe: Option<Observe>,
    /// The content-addressed identity of this work.
    pub key: RunKey,
}

impl RunJob {
    /// Builds an unobserved job; the key is computed from the arguments.
    pub fn new(
        program_name: impl Into<String>,
        dataset: impl Into<String>,
        program: Arc<Program>,
        inputs: Vec<Input>,
        config: VmConfig,
    ) -> Self {
        let key = RunKey::of(&program, &inputs, &config);
        RunJob {
            program_name: program_name.into(),
            dataset: dataset.into(),
            program,
            inputs,
            config,
            observe: None,
            key,
        }
    }

    /// Builds a job with `observe` riding along, keyed once by the
    /// observer's tags as well: the zoo's spec names, or the predicted
    /// directions spelled out.
    pub fn with_observer(
        program_name: impl Into<String>,
        dataset: impl Into<String>,
        program: Arc<Program>,
        inputs: Vec<Input>,
        config: VmConfig,
        observe: Observe,
    ) -> Self {
        let tags: Vec<String> = match &observe {
            Observe::Zoo(specs) => specs.iter().map(|s| s.name()).collect(),
            Observe::RunLengths(taken) => {
                let bits: String = taken.iter().map(|&t| if t { '1' } else { '0' }).collect();
                vec![format!("run-lengths/{bits}")]
            }
        };
        let key = RunKey::of_tagged(&program, &inputs, &config, &tags);
        RunJob {
            program_name: program_name.into(),
            dataset: dataset.into(),
            program,
            inputs,
            config,
            observe: Some(observe),
            key,
        }
    }

    /// `program/dataset` display label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.program_name, self.dataset)
    }
}

/// Where a completed job's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheSource {
    /// Executed in this batch.
    Computed,
    /// Served by the in-process memo table.
    Memory,
    /// Deserialized from the persistent cache directory.
    Disk,
}

impl CacheSource {
    /// Short lowercase name (report/JSON vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            CacheSource::Computed => "computed",
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
        }
    }
}

/// A completed job.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `program/dataset` label of the submitted job.
    pub label: String,
    /// The job's content key.
    pub key: RunKey,
    /// Everything the VM measured (the run's own stats).
    pub stats: Arc<RunStats>,
    /// The full run: output stream, result and stats.
    pub run: Arc<Run>,
    /// Where the result came from.
    pub source: CacheSource,
    /// Wall-clock time spent producing this result (≈0 for cache hits).
    pub wall: Duration,
    /// What the job's observer measured.
    pub observed: Observed,
}

impl RunOutcome {
    /// The tallies of a job observed by [`Observe::Zoo`]; `None` otherwise
    /// (or when a custom executor that does not drive observers produced
    /// the run).
    pub fn zoo(&self) -> Option<&ZooReport> {
        match &self.observed {
            Observed::Zoo(report) => Some(report),
            _ => None,
        }
    }

    /// The histogram of a job observed by [`Observe::RunLengths`], likewise.
    pub fn run_lengths(&self) -> Option<&RunLengths> {
        match &self.observed {
            Observed::RunLengths(lengths) => Some(lengths),
            _ => None,
        }
    }
}
