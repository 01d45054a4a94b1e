//! `profile-db`: generations of what one `repro --profile-db` invocation
//! does to the database — reopen the sharded service, read the prior
//! totals and fingerprints, assess version skew, record the suite's runs,
//! compact — while a second thread issues back-to-back snapshot reads on
//! its own handle. The set-up collects the suite once and records the
//! first generation, so every timed generation works on a steady-size,
//! compacted database. The VM is idle during the window.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mfbench::{collect_subset_with, record_suite_svc, suite_skew, SuiteRuns};
use mffault::{RealVfs, Vfs};
use mfharness::{DiskCache, Harness, HarnessOptions};
use mfprofsvc::{MergedTotals, ProfileService, ServiceOptions};

use crate::replay::{ReplayProgram, SHARDS};
use crate::{bump, golden, guarded, mix, Ctx, PassOutcome, WindowOutcome, Workload};

fn options() -> ServiceOptions {
    ServiceOptions {
        shards: SHARDS,
        ..ServiceOptions::default()
    }
}

fn open(dir: &PathBuf) -> Result<ProfileService, String> {
    ProfileService::open(Arc::new(RealVfs) as Arc<dyn Vfs>, dir, options())
        .map_err(|e| format!("opening {}: {e}", dir.display()))
}

/// The profile-db workload.
#[derive(Default)]
pub struct ProfileDb {
    runs: Option<SuiteRuns>,
    /// One generation's counts, as the database reports them.
    base: MergedTotals,
    dir: PathBuf,
    /// Generations recorded so far, the set-up's included.
    generations: u64,
    reader: Option<(Arc<AtomicBool>, JoinHandle<WindowOutcome>)>,
}

/// Shuffles `items` in place with the seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (mix(rng) % (i as u64 + 1)) as usize);
    }
}

/// `base` scaled by `k`, as exact integer arithmetic.
fn times(base: &MergedTotals, k: u64) -> MergedTotals {
    base.iter()
        .map(|(label, rows)| {
            let rows = rows.iter().map(|&(id, e, t)| (id, e * k, t * k)).collect();
            (label.clone(), rows)
        })
        .collect()
}

/// A read taken beside the writer must show every site of every dataset
/// at a whole number of generations: `k × one generation` for some `k`.
fn whole_generations(base: &MergedTotals, got: &MergedTotals) -> Result<(), String> {
    for (label, rows) in got {
        let want: BTreeMap<u32, (u64, u64)> = base
            .get(label)
            .ok_or_else(|| format!("read shows unknown dataset {label}"))?
            .iter()
            .map(|&(id, e, t)| (id, (e, t)))
            .collect();
        for &(id, e, t) in rows {
            let &(be, bt) = want
                .get(&id)
                .ok_or_else(|| format!("{label}: read shows unknown site {id}"))?;
            let whole = if be == 0 {
                e == 0 && t == 0
            } else {
                e % be == 0 && t == e / be * bt
            };
            if !whole {
                return Err(format!(
                    "{label} site {id}: ({e}, {t}) is not a whole generation"
                ));
            }
        }
    }
    Ok(())
}

impl Workload for ProfileDb {
    fn setup(&mut self, ctx: &Ctx, index: usize) -> Result<(), String> {
        let h = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let names = golden::programs(ctx.quick);
        let mut runs = guarded("collection", || collect_subset_with(&h, &names))?;
        // The seed drives the record order.
        let mut rng = ctx.seed ^ 0x9D0F_11E5;
        shuffle(&mut runs.workloads, &mut rng);
        for w in &mut runs.workloads {
            let mut order: Vec<usize> = (0..w.runs.len()).collect();
            shuffle(&mut order, &mut rng);
            w.runs = order.iter().map(|&i| w.runs[i].clone()).collect();
            w.zoo = order.iter().map(|&i| w.zoo[i].clone()).collect();
        }

        let dir = ctx.work.join(format!("db-{index}"));
        let _ = std::fs::remove_dir_all(&self.dir);
        let svc = open(&dir)?;
        let (_, degraded) = record_suite_svc(&svc, &runs).map_err(|e| format!("recording: {e}"))?;
        svc.compact().map_err(|e| format!("compacting: {e}"))?;
        let base = svc.merged_totals().map_err(|e| format!("reading: {e}"))?;
        if degraded > 0 {
            return Err(format!("{degraded} records degraded on a fresh database"));
        }
        let want: MergedTotals = runs
            .workloads
            .iter()
            .flat_map(|w| {
                w.runs.iter().map(move |r| {
                    let rows = r
                        .stats
                        .branches
                        .iter()
                        .map(|(id, e, t)| (id.0, e, t))
                        .collect();
                    (format!("{}/{}", w.name, r.dataset), rows)
                })
            })
            .collect();
        if base != want {
            return Err("the first generation does not read back as recorded".to_string());
        }
        self.runs = Some(runs);
        self.base = base;
        self.dir = dir;
        self.generations = 1;
        Ok(())
    }

    fn begin_window(&mut self, _ctx: &Ctx) {
        let stop = Arc::new(AtomicBool::new(false));
        let (dir, base, flag) = (self.dir.clone(), self.base.clone(), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            let mut out = WindowOutcome::default();
            let reader = match open(&dir) {
                Ok(r) => r,
                Err(e) => {
                    out.ops = 1;
                    out.failures.push(e);
                    return out;
                }
            };
            while !flag.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                let got = reader.merged_totals();
                out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.ops += 1;
                let verdict = got
                    .map_err(|e| format!("snapshot read failed: {e}"))
                    .and_then(|g| whole_generations(&base, &g));
                if let Err(e) = verdict {
                    out.failures.push(e);
                }
            }
            out
        });
        self.reader = Some((stop, handle));
    }

    fn pass(&mut self, ctx: &Ctx, _n: u32) -> PassOutcome {
        let tr = ctx.tracer;
        let s = self.runs.as_ref().expect("set up before the window");
        let generation = || -> Result<_, String> {
            let svc = ctx.step(|| {
                let _span = tr.span("profsvc.open");
                open(&self.dir)
            })?;
            let (prior, prior_fps) = ctx.step(|| {
                let _span = tr.span("profsvc.read");
                (svc.merged_totals(), svc.merged_fingerprints_by_dataset())
            });
            let prior = prior.map_err(|e| format!("reading totals: {e}"))?;
            let prior_fps = prior_fps.map_err(|e| format!("reading fingerprints: {e}"))?;
            let skew = ctx.step(|| {
                let _span = tr.span("bench.suite_skew");
                suite_skew(&prior, &prior_fps, s)
            });
            let skew = skew.map_err(|e| format!("skew: {e}"))?;
            let recorded = ctx.step(|| {
                let _span = tr.span("bench.record_suite_svc");
                record_suite_svc(&svc, s)
            });
            let (_, degraded) = recorded.map_err(|e| format!("recording: {e}"))?;
            ctx.step(|| {
                let _span = tr.span("profsvc.compact");
                svc.compact()
            })
            .map_err(|e| format!("compacting: {e}"))?;
            let commits = svc.counters().group_commits;
            ctx.step(|| {
                let _span = tr.span("profsvc.close");
                drop(svc);
            });
            Ok((prior, skew, degraded, commits))
        };
        let result = generation();
        let mut out = PassOutcome {
            ops: 1,
            ..PassOutcome::default()
        };
        match result {
            Err(e) => out.failures.push(e),
            Ok((prior, skew, degraded, commits)) => {
                let c = &mut out.counts;
                bump(c, "profsvc.group_commits", commits as f64);
                bump(c, "profsvc.degraded_acks", degraded as f64);
                bump(c, "stale.salvaged", skew.total.salvaged as f64);
                bump(c, "stale.degraded", skew.total.degraded as f64);
                bump(c, "stale.orphaned", skew.total.orphaned as f64);
                let why = if degraded > 0 {
                    Some(format!("{degraded} acknowledgments degraded"))
                } else if !skew.is_identity() {
                    Some(format!(
                        "skew of an unchanged suite is not identity: {}",
                        skew.total
                    ))
                } else if prior != times(&self.base, self.generations) {
                    Some(format!(
                        "merged totals are not {} generations of the recorded counts",
                        self.generations
                    ))
                } else {
                    None
                };
                out.failures.extend(why);
                self.generations += 1;
            }
        }
        out
    }

    fn end_window(&mut self, _ctx: &Ctx) -> WindowOutcome {
        let Some((stop, handle)) = self.reader.take() else {
            return WindowOutcome::default();
        };
        stop.store(true, Ordering::SeqCst);
        let mut out = handle.join().unwrap_or_else(|_| WindowOutcome {
            ops: 1,
            failures: vec!["the reader thread panicked".to_string()],
            latencies_ms: Vec::new(),
        });
        if let Ok(svc) = open(&self.dir) {
            out.ops += 1;
            if svc.merged_totals().ok() != Some(times(&self.base, self.generations)) {
                out.failures.push(format!(
                    "final totals are not {} generations of the recorded counts",
                    self.generations
                ));
            }
        }
        out
    }

    fn replay_set(&self, ctx: &Ctx) -> Vec<ReplayProgram> {
        ReplayProgram::all_datasets(&golden::programs(ctx.quick))
    }
}
