//! The traced run's replay: the workload's jobs again, each layer called
//! directly so its time lands in a span of its own. The paper passes and
//! the profile-db generations make single calls (`collect_subset_with`,
//! `record_suite_svc`) that hide the layers beneath them; the replay
//! attributes that time.
//!
//! Per program: compile, optimize, verify, analyze, fingerprint and flatten
//! it. Per dataset: build the `RunJob` (which computes the run key), miss
//! in a `RunCache`, run unobserved on the flat backend, store the result,
//! hit it from a second cache over the same directory, run again observed
//! by the full predictor zoo, and check flat against reference under a
//! small fuel limit. Then the counts are recorded the way
//! `record_suite_svc` does (the suite is regenerated per program to
//! fingerprint it), flushed, read back, remapped and compacted.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mffault::{RealVfs, Vfs};
use mfharness::{RunCache, RunJob};
use mfopt::Pipeline;
use mfprofsvc::{Persistence, ProfileService, ServiceOptions};
use mfwork::Group;
use trace_ir::{BranchId, Program};
use trace_vm::{Backend, BranchCounts, FlatProgram, Input, Vm, VmConfig};

use crate::{bump, dir_bytes, Counts, Ctx};

/// Fuel for the flat-against-reference check runs: enough to pass every
/// program's set-up code, small enough to cost microseconds.
pub const CHECK_FUEL: u64 = 20_000;

/// Snapshot reads the replay times after its flush.
const READS: usize = 20;

/// Shards of the replay's scratch profile database (`repro`'s default).
pub const SHARDS: u32 = 8;

/// One program and the datasets the replay runs it on.
pub struct ReplayProgram {
    /// Table 2 name.
    pub name: &'static str,
    /// FORTRAN/FP or C/integer.
    pub group: Group,
    /// Guest source.
    pub source: String,
    /// The workload's VM configuration on the flat backend.
    pub config: VmConfig,
    /// `(dataset, inputs)` pairs.
    pub datasets: Vec<(String, Vec<Input>)>,
}

impl ReplayProgram {
    /// `w` on the datasets `keep` selects.
    pub fn of(w: &mfwork::Workload, keep: impl Fn(&str) -> bool) -> Self {
        ReplayProgram {
            name: w.name,
            group: w.group,
            source: w.source.clone(),
            config: flat_config(w),
            datasets: w
                .datasets
                .iter()
                .filter(|d| keep(&d.name))
                .map(|d| (d.name.clone(), d.inputs.clone()))
                .collect(),
        }
    }

    /// Every dataset of each named suite program, in suite order.
    pub fn all_datasets(names: &[&str]) -> Vec<Self> {
        mfwork::suite()
            .iter()
            .filter(|w| names.contains(&w.name))
            .map(|w| ReplayProgram::of(w, |_| true))
            .collect()
    }
}

/// A workload's canonical VM configuration on the flat backend, as bench
/// collection runs it.
pub fn flat_config(w: &mfwork::Workload) -> VmConfig {
    VmConfig {
        backend: Backend::Flat,
        ..w.vm_config()
    }
}

/// Runs `program` flat (from `flat`) and on the reference backend under
/// [`CHECK_FUEL`]; a message when the two differ in any way.
pub fn check_backends(
    program: &Program,
    flat: &FlatProgram,
    config: VmConfig,
    inputs: &[Input],
) -> Option<String> {
    let cfg = VmConfig {
        fuel: CHECK_FUEL,
        ..config
    };
    let fast = flat.run(cfg, inputs);
    let reference = Vm::with_config(
        program,
        VmConfig {
            backend: Backend::Reference,
            ..cfg
        },
    )
    .run(inputs);
    (fast != reference).then(|| "flat run differs from the reference run".to_string())
}

/// What the replay measured beyond its spans.
#[derive(Default)]
pub struct ReplayOutcome {
    /// Checks made.
    pub ops: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Per-layer counts and derived rates.
    pub counts: Counts,
    /// Latency of each snapshot read, in ms.
    pub read_ms: Vec<f64>,
}

impl ReplayOutcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Guest instructions and seconds of unobserved execution.
#[derive(Default)]
struct Throughput {
    instrs: u64,
    secs: f64,
}

impl Throughput {
    fn mips(&self) -> f64 {
        if self.secs > 0.0 {
            self.instrs as f64 / self.secs / 1e6
        } else {
            0.0
        }
    }
}

/// Replays `programs` layer by layer under the context's tracer.
pub fn replay(ctx: &Ctx, programs: &[ReplayProgram]) -> ReplayOutcome {
    let tr = ctx.tracer;
    let mut out = ReplayOutcome::default();
    let dir = ctx.work.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("cache");
    let db_dir = dir.join("db");
    let cache = RunCache::with_disk(cache_dir.clone());
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    let options = ServiceOptions {
        shards: SHARDS,
        ..ServiceOptions::default()
    };
    let svc = {
        let _span = tr.span("profsvc.open");
        ProfileService::open(Arc::clone(&vfs), &db_dir, options)
    };
    let svc = match svc {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("opening the replay database: {e}"));
            return out;
        }
    };

    let (mut all, mut int, mut fp) = (
        Throughput::default(),
        Throughput::default(),
        Throughput::default(),
    );
    let mut expected: BTreeMap<String, BranchCounts> = BTreeMap::new();
    let mut compiled: Vec<(Program, BTreeMap<BranchId, u64>)> = Vec::new();
    for p in programs {
        let program = {
            let _span = tr.span_with("lang.compile", || p.name.to_string());
            mflang::compile(&p.source)
        };
        let program = match program {
            Ok(program) => program,
            Err(e) => {
                out.check(false, || format!("{}: compile error {e}", p.name));
                continue;
            }
        };
        let before = program.static_instr_count();
        bump(&mut out.counts, "lang.ir_instrs", before as f64);
        let mut optimized = program.clone();
        {
            let _span = tr.span_with("opt.pipeline", || p.name.to_string());
            Pipeline::standard().run(&mut optimized);
        }
        bump(
            &mut out.counts,
            "opt.instrs_removed",
            before.saturating_sub(optimized.static_instr_count()) as f64,
        );
        let errors = {
            let _span = tr.span_with("analysis.verify", || p.name.to_string());
            mfcheck::verify_program(&optimized)
                .into_iter()
                .filter(|d| d.severity == mfcheck::Severity::Error)
                .count()
        };
        out.check(errors == 0, || {
            format!("{}: verifier reports {errors} errors", p.name)
        });
        {
            let _span = tr.span_with("predict.analyze", || p.name.to_string());
            std::hint::black_box(mfpredict::analyze(&program));
        }
        let fps = {
            let _span = tr.span_with("stale.fingerprint", || p.name.to_string());
            mfstale::site_fingerprints(&program)
        };
        let flat = {
            let _span = tr.span_with("vm.flat_compile", || p.name.to_string());
            FlatProgram::compile(&program)
        };
        bump(&mut out.counts, "vm.flat_ops", flat.op_count() as f64);
        let program = Arc::new(program);
        for (ds, inputs) in &p.datasets {
            let label = format!("{}/{ds}", p.name);
            let job = {
                let _span = tr.span_with("harness.key", || label.clone());
                RunJob::new(
                    p.name,
                    ds.clone(),
                    Arc::clone(&program),
                    inputs.clone(),
                    p.config,
                )
            };
            {
                let _span = tr.span_with("harness.lookup", || label.clone());
                std::hint::black_box(cache.lookup(&job));
            }
            let t0 = Instant::now();
            let run = {
                let _span = tr.span_with("vm.exec", || label.clone());
                flat.run(p.config, inputs)
            };
            let secs = t0.elapsed().as_secs_f64();
            let run = match run {
                Ok(run) => Arc::new(run),
                Err(e) => {
                    out.check(false, || format!("{label}: {e}"));
                    continue;
                }
            };
            let instrs = run.stats.total_instrs;
            for t in [
                &mut all,
                if p.group == Group::CInteger {
                    &mut int
                } else {
                    &mut fp
                },
            ] {
                t.instrs += instrs;
                t.secs += secs;
            }
            {
                let _span = tr.span_with("harness.store", || label.clone());
                cache.insert(&job, &run);
            }
            let hit = {
                let _span = tr.span_with("harness.lookup", || label.clone());
                RunCache::with_disk(cache_dir.clone()).lookup(&job)
            };
            out.check(hit.is_some_and(|h| *h.stats == run.stats), || {
                format!("{label}: stored run not served back from disk")
            });
            let mut zoo = mfdyn::Zoo::for_program(&mfdyn::full_zoo(), &program);
            let observed = {
                let _span = tr.span_with("dynpred.observe", || label.clone());
                flat.run_branches(p.config, inputs, &mut zoo)
            };
            out.check(
                observed.as_ref().is_ok_and(|o| o.stats == run.stats),
                || format!("{label}: observing the run changed it"),
            );
            bump(
                &mut out.counts,
                "dynpred.branches",
                run.stats.branches.total_executed() as f64,
            );
            let mismatch = {
                let _span = tr.span_with("vm.check_exec", || label.clone());
                check_backends(&program, &flat, p.config, inputs)
            };
            out.check(mismatch.is_none(), || {
                format!("{label}: {}", mismatch.unwrap_or_default())
            });
            expected.insert(label, run.stats.branches.clone());
        }
        compiled.push((Arc::unwrap_or_clone(program), fps));
    }
    bump(&mut out.counts, "vm.guest_instrs", all.instrs as f64);
    bump(&mut out.counts, "vm.exec_mips", all.mips());
    bump(&mut out.counts, "vm.exec_mips.int", int.mips());
    bump(&mut out.counts, "vm.exec_mips.fp", fp.mips());

    record(ctx, &svc, programs, &expected, &mut out);
    read_back(ctx, &svc, &expected, &mut out);
    for (i, (program, fps)) in compiled.iter().enumerate() {
        let name = programs[i].name;
        let recorded: Vec<(BranchId, u64, u64)> = expected
            .iter()
            .filter(|(label, _)| label.split('/').next() == Some(name))
            .flat_map(|(_, counts)| counts.iter())
            .collect();
        let remap = {
            let _span = tr.span_with("stale.remap", || name.to_string());
            mfstale::remap_counts(&recorded, fps, fps)
        };
        out.check(remap.report.is_identity(), || {
            format!("{name}: remap onto the same program is not the identity")
        });
        let sites: Vec<BranchId> = fps.keys().copied().collect();
        let _span = tr.span_with("predict.static_tier", || name.to_string());
        std::hint::black_box(mfpredict::static_tier_profile(program, &sites));
    }
    let compacted = {
        let _span = tr.span("profsvc.compact");
        svc.compact()
    };
    out.check(compacted.is_ok(), || {
        "compacting the replay database failed".to_string()
    });
    drop(svc);
    let reopened = {
        let _span = tr.span("profsvc.open");
        ProfileService::open(vfs, &db_dir, options)
    };
    match reopened {
        Ok(svc) => read_back(ctx, &svc, &expected, &mut out),
        Err(e) => out.check(false, || format!("reopening the replay database: {e}")),
    }
    bump(&mut out.counts, "profdb.bytes", dir_bytes(&db_dir) as f64);
    if !ctx.quick {
        calibrate(ctx, &mut out);
    }
    out
}

/// Enqueues every recorded run the way `record_suite_svc` does and
/// flushes them in one group commit per shard.
fn record(
    ctx: &Ctx,
    svc: &ProfileService,
    programs: &[ReplayProgram],
    expected: &BTreeMap<String, BranchCounts>,
    out: &mut ReplayOutcome,
) {
    let tr = ctx.tracer;
    for p in programs {
        let suite = {
            let _span = tr.span_with("work.datagen", || p.name.to_string());
            mfwork::suite()
        };
        let Some(w) = suite.into_iter().find(|w| w.name == p.name) else {
            continue;
        };
        let program = {
            let _span = tr.span_with("lang.compile", || p.name.to_string());
            w.compile()
        };
        let Ok(program) = program else { continue };
        let fps = {
            let _span = tr.span_with("stale.fingerprint", || p.name.to_string());
            mfstale::site_fingerprints(&program)
        };
        for (label, counts) in expected.range(format!("{}/", p.name)..) {
            if !label.starts_with(&format!("{}/", p.name)) {
                break;
            }
            let _span = tr.span_with("profsvc.enqueue", || label.clone());
            if let Err(e) = svc.enqueue_with_fps(label, counts, &fps) {
                out.check(false, || format!("{label}: enqueue failed: {e}"));
            }
        }
    }
    let acks = {
        let _span = tr.span("profsvc.flush");
        svc.flush()
    };
    match acks {
        Ok(acks) => {
            let degraded = acks
                .values()
                .filter(|p| **p == Persistence::Degraded)
                .count();
            bump(&mut out.counts, "profsvc.degraded_acks", degraded as f64);
            out.check(degraded == 0, || {
                format!("{degraded} records acknowledged degraded")
            });
        }
        Err(e) => out.check(false, || format!("flush failed: {e}")),
    }
    bump(
        &mut out.counts,
        "profsvc.group_commits",
        svc.counters().group_commits as f64,
    );
}

/// Times [`READS`] snapshot reads and checks each against the recorded
/// counts.
fn read_back(
    ctx: &Ctx,
    svc: &ProfileService,
    expected: &BTreeMap<String, BranchCounts>,
    out: &mut ReplayOutcome,
) {
    let want: BTreeMap<String, Vec<(u32, u64, u64)>> = expected
        .iter()
        .map(|(label, counts)| {
            let rows = counts.iter().map(|(id, e, t)| (id.0, e, t)).collect();
            (label.clone(), rows)
        })
        .collect();
    for _ in 0..READS {
        let t0 = Instant::now();
        let got = {
            let _span = ctx.tracer.span("profsvc.read");
            svc.merged_totals()
        };
        out.read_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(got.as_ref().is_ok_and(|g| *g == want), || {
            "snapshot read differs from the recorded counts".to_string()
        });
    }
}

/// li/8queens, unobserved on the flat backend: the suite's dominant
/// program, timed the same way in every workload's replay so the
/// interpreter's throughput can be set beside `vmbench`'s li number.
fn calibrate(ctx: &Ctx, out: &mut ReplayOutcome) {
    let Some(li) = mfwork::suite().into_iter().find(|w| w.name == "li") else {
        return;
    };
    let (Ok(program), Some(d)) = (li.compile(), li.dataset("8queens")) else {
        return;
    };
    let flat = FlatProgram::compile(&program);
    let t0 = Instant::now();
    let run = {
        let _span = ctx
            .tracer
            .span_with("vm.calibrate", || "li/8queens".to_string());
        flat.run(flat_config(&li), &d.inputs)
    };
    let secs = t0.elapsed().as_secs_f64();
    match run {
        Ok(run) => bump(
            &mut out.counts,
            "vm.li_8queens_mips",
            run.stats.total_instrs as f64 / secs / 1e6,
        ),
        Err(e) => out.check(false, || format!("li/8queens: {e}")),
    }
}
