//! `paper-cold` and `paper-warm`: regenerate every section of the paper
//! through a fresh run harness, as `repro` does.
//!
//! A cold pass uses one worker and no disk tier, so every job runs on the
//! VM and the cache does no work. A warm pass uses two workers over a
//! cache directory the set-up primed with one identical pass; only jobs
//! the disk tier serves skip the VM (zoo-observed jobs bypass it).

use std::collections::BTreeMap;
use std::path::PathBuf;

use mfbench::collect_subset_with;
use mfharness::{DiskCache, Harness, HarnessOptions, HarnessReport};

use crate::replay::ReplayProgram;
use crate::{bump, golden, guarded, Ctx, PassOutcome, Workload};

/// One of the two paper workloads.
pub struct Paper {
    warm: bool,
    golden_file: PathBuf,
    golden: BTreeMap<String, u64>,
    programs: Vec<&'static str>,
    cache: Option<PathBuf>,
}

impl Paper {
    /// A paper workload comparing against the digests in `golden_dir`.
    pub fn new(warm: bool, golden_dir: PathBuf, quick: bool) -> Self {
        Paper {
            warm,
            golden_file: golden::path(&golden_dir, quick),
            golden: BTreeMap::new(),
            programs: Vec::new(),
            cache: None,
        }
    }

    fn harness(&self) -> Harness {
        let (jobs, disk_cache) = match &self.cache {
            Some(dir) => (2, DiskCache::Dir(dir.clone())),
            None => (1, DiskCache::Off),
        };
        Harness::new(HarnessOptions {
            jobs: Some(jobs),
            disk_cache,
            ..HarnessOptions::default()
        })
    }

    /// The timed part of a pass, in steps: a fresh harness, the
    /// collection, and every section.
    fn collect_and_render(
        &self,
        ctx: &Ctx,
    ) -> Result<(HarnessReport, Vec<(String, String)>), String> {
        let tr = ctx.tracer;
        let h = ctx.step(|| {
            let _span = tr.span("harness.new");
            self.harness()
        });
        let s = ctx.step(|| {
            let _span = tr.span("bench.collect");
            guarded("collection", || collect_subset_with(&h, &self.programs))
        })?;
        let sections = guarded("rendering", || golden::render(ctx, &s, &h))?;
        Ok((h.report(), sections))
    }

    fn run_pass(&self, ctx: &Ctx) -> PassOutcome {
        let first = ctx.clock.borrow().steps();
        let result = self.collect_and_render(ctx);
        let secs = ctx.clock.borrow().raw(first, ctx.clock.borrow().steps());
        let mut out = PassOutcome::default();
        let (report, sections) = match result {
            Ok(r) => r,
            Err(e) => {
                out.ops = 1;
                out.failures.push(e);
                return out;
            }
        };
        out.failures = golden::check(&self.golden, &sections);
        out.ops = report.jobs_submitted + sections.len() as u64;
        let c = &mut out.counts;
        bump(c, "harness.disk_hits", report.cache.disk_hits as f64);
        bump(c, "harness.misses", report.cache.misses as f64);
        bump(c, "harness.hit_rate", report.hit_rate());
        bump(c, "harness.utilization", report.utilization());
        bump(c, "harness.pool_frac", report.wall.as_secs_f64() / secs);
        let longest = report
            .records
            .iter()
            .map(|r| r.wall)
            .max()
            .unwrap_or_default();
        bump(c, "harness.critical_frac", longest.as_secs_f64() / secs);
        bump(
            c,
            "harness.guest_mips",
            report.guest_instrs() as f64 / secs / 1e6,
        );
        let bytes: usize = sections.iter().map(|(_, t)| t.len()).sum();
        bump(c, "report.bytes", bytes as f64);
        out
    }
}

impl Workload for Paper {
    fn setup(&mut self, ctx: &Ctx, index: usize) -> Result<(), String> {
        self.golden = golden::load(&self.golden_file)?;
        self.programs = {
            let _span = ctx.tracer.span("work.datagen");
            golden::programs(ctx.quick)
        };
        if self.warm {
            let dir = ctx.work.join(format!("cache-{index}"));
            if let Some(old) = self.cache.replace(dir.clone()) {
                let _ = std::fs::remove_dir_all(old);
            }
            let primed = self.run_pass(ctx);
            if let Some(f) = primed.failures.first() {
                return Err(format!("priming the cache failed: {f}"));
            }
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, _n: u32) -> PassOutcome {
        self.run_pass(ctx)
    }

    fn replay_set(&self, ctx: &Ctx) -> Vec<ReplayProgram> {
        ReplayProgram::all_datasets(&golden::programs(ctx.quick))
    }
}
