//! `vmbench`: guest-instrs/sec for both VM backends over the workload
//! suite, written as `BENCH_vm.json` so the interpreter's performance
//! trajectory is tracked in-repo. Each workload is additionally measured
//! under two profile-guided flat layouts — one fed the *real* branch
//! profile of a reference run, one fed the committed `mfpredict` model's
//! pseudo-profile (free prediction: no profiling run required) — so the
//! report quantifies how much of the profile-layout win static
//! prediction recovers.
//!
//! ```text
//! vmbench                        # full suite, calibrated batches
//! vmbench --quick --out b.json   # CI smoke: small subset, short batches
//! vmbench --gate 2.0             # fail unless flat >= 2x reference
//! ```
//!
//! Each workload's first dataset runs on the reference (tree-walking) and
//! flat (pre-compiled bytecode) backends. A measurement is a calibrated
//! batch: iterations double until the batch takes long enough to time
//! reliably, and throughput is `guest instructions x iterations / batch
//! seconds`. The flat backend's one-time flatten cost is paid during
//! warmup, matching how the harness amortizes it (one `Vm` per program,
//! many runs).
//!
//! Exit status: 0 on success, 1 when a `--gate` ratio is not met, 2 on
//! usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mfwork::{suite, Workload};
use trace_vm::{Backend, BranchCounts, FlatProgram, Input, Vm, VmConfig};

const USAGE: &str = "\
usage: vmbench [OPTION...]

options:
  --quick             small workload subset and short batches (CI smoke)
  --workload NAME     benchmark only NAME (repeatable)
  --out PATH          where to write the JSON report (default BENCH_vm.json)
  --gate RATIO        exit 1 unless the geometric-mean flat/reference
                      speedup is at least RATIO
  --gate-min RATIO    exit 1 unless EVERY workload's flat/reference
                      speedup is at least RATIO (per-workload floor)
  -h, --help          this message

exit status: 0 ok, 1 gate not met, 2 usage/IO error";

/// The quick subset: one small workload per shape class, so a CI smoke
/// run still touches floats, arrays, and call-heavy control flow.
const QUICK: &[&str] = &["doduc", "spiff", "mfcom"];

struct Options {
    quick: bool,
    workloads: Vec<String>,
    out: PathBuf,
    gate: Option<f64>,
    gate_min: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        quick: false,
        workloads: Vec::new(),
        out: PathBuf::from("BENCH_vm.json"),
        gate: None,
        gate_min: None,
    };
    let mut iter = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .map(|s| s.to_string())
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--quick" => options.quick = true,
            "--workload" => options.workloads.push(value("--workload", &mut iter)?),
            "--out" => options.out = PathBuf::from(value("--out", &mut iter)?),
            flag @ ("--gate" | "--gate-min") => {
                let ratio: f64 = value(flag, &mut iter)?
                    .parse()
                    .map_err(|_| format!("{flag} requires a ratio like 2.0"))?;
                if !ratio.is_finite() || ratio <= 0.0 {
                    return Err(format!("{flag} requires a positive finite ratio"));
                }
                if flag == "--gate" {
                    options.gate = Some(ratio);
                } else {
                    options.gate_min = Some(ratio);
                }
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    Ok(Some(options))
}

/// One workload's measurement on both backends and both profile-guided
/// flat layouts.
struct Row {
    name: String,
    dataset: String,
    guest_instrs: u64,
    reference_ips: f64,
    flat_ips: f64,
    /// Flat backend, blocks laid out along a real profile of this run.
    profile_flat_ips: f64,
    /// Flat backend, blocks laid out along the static model's
    /// pseudo-profile — prediction for free, no profiling run.
    ml_flat_ips: f64,
    /// Mispredicted conditional branches under perfect static profile
    /// prediction (the paper's measure): each branch contributes its
    /// minority direction count, `min(taken, executed - taken)`.
    profile_mispredicts: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.flat_ips / self.reference_ips
    }

    /// Layout speedup of the real-profile flat build over the unprofiled
    /// block-order layout.
    fn profile_layout_speedup(&self) -> f64 {
        self.profile_flat_ips / self.flat_ips
    }

    /// Layout speedup of the ML pseudo-profile flat build over the
    /// unprofiled block-order layout.
    fn ml_layout_speedup(&self) -> f64 {
        self.ml_flat_ips / self.flat_ips
    }

    /// Guest instructions retired per profile-predicted mispredict — the
    /// paper's run-length measure. Branch-free workloads report the whole
    /// run as one gap.
    fn instrs_per_mispredict(&self) -> f64 {
        self.guest_instrs as f64 / (self.profile_mispredicts.max(1)) as f64
    }
}

/// Measures guest-instrs/sec for one workload on both backends and both
/// profile-guided flat layouts:
/// `(guest_instrs, profile_mispredicts, reference_ips, flat_ips,
/// profile_flat_ips, ml_flat_ips)`.
///
/// The warmup runs pay one-time costs (the flat backend's flatten pass) and
/// pin the per-run instruction count. A shared batch size is calibrated on
/// the reference backend, then every engine runs in *interleaved* rounds
/// with each engine's best round reported: machine-speed drift (frequency
/// scaling, competing load) hits all engines alike instead of biasing
/// whichever happened to run last, and best-of samples each engine at
/// the machine's fast state.
///
/// The real-profile layout is fed the branch counters of the reference
/// warmup run — a self-profile, the best case for layout. The ML layout
/// is fed the committed static model's pseudo-profile: what layout gets
/// without any profiling run at all.
fn measure_engines(
    w: &Workload,
    inputs: &[Input],
    max_batch_secs: f64,
) -> (u64, u64, f64, f64, f64, f64) {
    let program = w.compile().expect("bundled workload compiles");
    let vms = [Backend::Reference, Backend::Flat].map(|backend| {
        Vm::with_config(
            &program,
            VmConfig {
                backend,
                ..w.vm_config()
            },
        )
    });
    let warmup = vms
        .each_ref()
        .map(|vm| vm.run(inputs).unwrap_or_else(|e| panic!("{}: {e}", w.name)));
    assert_eq!(
        warmup[0].stats.total_instrs, warmup[1].stats.total_instrs,
        "{}: backends disagree on instruction count",
        w.name
    );
    let instrs = warmup[0].stats.total_instrs;
    // Perfect static profile prediction mispredicts exactly the minority
    // direction of every branch (Fisher & Freudenberger's bound).
    let mispredicts: u64 = warmup[0]
        .stats
        .branches
        .iter()
        .map(|(_, executed, taken)| taken.min(executed - taken))
        .sum();

    let flat_config = VmConfig {
        backend: Backend::Flat,
        ..w.vm_config()
    };
    let profile_flat = FlatProgram::compile_with_profile(&program, &warmup[0].stats.branches);
    let ml_profile: BranchCounts = mfpredict::pseudo_profile(mfpredict::ml_directions(&program))
        .into_iter()
        .collect();
    let ml_flat = FlatProgram::compile_with_profile(&program, &ml_profile);

    type Engine<'a> = Box<dyn Fn(&[Input]) -> trace_vm::Run + 'a>;
    let engines: [Engine; 4] = [
        Box::new(|inputs| {
            vms[0]
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        }),
        Box::new(|inputs| {
            vms[1]
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        }),
        Box::new(|inputs| {
            profile_flat
                .run(flat_config, inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        }),
        Box::new(|inputs| {
            ml_flat
                .run(flat_config, inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        }),
    ];
    // Layout must be invisible in the semantics: every engine retires the
    // same guest instruction count.
    for engine in &engines {
        assert_eq!(
            engine(inputs).stats.total_instrs,
            instrs,
            "{}: engines disagree on instruction count",
            w.name
        );
    }

    let batch = |engine: &Engine, iters: u64| -> f64 {
        let start = Instant::now();
        for _ in 0..iters {
            let run = engine(inputs);
            // Consuming the result keeps the run from being optimized out
            // and re-checks determinism while we are here.
            assert_eq!(
                run.stats.total_instrs, instrs,
                "{}: nondeterministic run",
                w.name
            );
        }
        start.elapsed().as_secs_f64().max(1e-9)
    };

    let mut iters: u64 = 1;
    while batch(&engines[0], iters) < max_batch_secs / 4.0 && iters < 4096 {
        iters *= 2;
    }
    let mut best = [0.0f64; 4];
    for _ in 0..3 {
        for (k, engine) in engines.iter().enumerate() {
            let ips = (instrs as f64 * iters as f64) / batch(engine, iters);
            best[k] = best[k].max(ips);
        }
    }
    (instrs, mispredicts, best[0], best[1], best[2], best[3])
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

fn json_report(rows: &[Row], mode: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"vm-backends\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"unit\": \"guest_instrs_per_sec\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"dataset\": \"{}\", \"guest_instrs\": {}, \
             \"reference_ips\": {:.0}, \"flat_ips\": {:.0}, \"speedup\": {:.3}, \
             \"profile_flat_ips\": {:.0}, \"ml_flat_ips\": {:.0}, \
             \"profile_layout_speedup\": {:.3}, \"ml_layout_speedup\": {:.3}, \
             \"profile_mispredicts\": {}, \"instrs_per_mispredict\": {:.1}}}{}\n",
            r.name,
            r.dataset,
            r.guest_instrs,
            r.reference_ips,
            r.flat_ips,
            r.speedup(),
            r.profile_flat_ips,
            r.ml_flat_ips,
            r.profile_layout_speedup(),
            r.ml_layout_speedup(),
            r.profile_mispredicts,
            r.instrs_per_mispredict(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let speedups: Vec<f64> = rows.iter().map(Row::speedup).collect();
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "  \"geomean_profile_layout_speedup\": {:.3},\n",
        geomean(rows.iter().map(Row::profile_layout_speedup))
    ));
    out.push_str(&format!(
        "  \"geomean_ml_layout_speedup\": {:.3},\n",
        geomean(rows.iter().map(Row::ml_layout_speedup))
    ));
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.3},\n",
        geomean(speedups.iter().copied())
    ));
    out.push_str(&format!(
        "  \"min_speedup\": {:.3}\n",
        if min.is_finite() { min } else { 0.0 }
    ));
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("vmbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let max_batch_secs = if options.quick { 0.1 } else { 1.0 };
    let selected: Vec<Workload> = suite()
        .into_iter()
        .filter(|w| {
            if !options.workloads.is_empty() {
                options.workloads.iter().any(|n| n == w.name)
            } else {
                !options.quick || QUICK.contains(&w.name)
            }
        })
        .collect();
    if selected.is_empty() {
        eprintln!("vmbench: no workloads selected\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut rows = Vec::with_capacity(selected.len());
    for w in &selected {
        let d = &w.datasets[0];
        let (instrs, profile_mispredicts, reference_ips, flat_ips, profile_flat_ips, ml_flat_ips) =
            measure_engines(w, &d.inputs, max_batch_secs);
        let row = Row {
            name: w.name.to_string(),
            dataset: d.name.clone(),
            guest_instrs: instrs,
            reference_ips,
            flat_ips,
            profile_flat_ips,
            ml_flat_ips,
            profile_mispredicts,
        };
        eprintln!(
            "{:<12} {:<10} {:>12} instrs  reference {:>12.0}/s  flat {:>12.0}/s  \
             {:>5.2}x  layout: profile {:>5.2}x  ml {:>5.2}x",
            row.name,
            row.dataset,
            row.guest_instrs,
            row.reference_ips,
            row.flat_ips,
            row.speedup(),
            row.profile_layout_speedup(),
            row.ml_layout_speedup()
        );
        rows.push(row);
    }

    let report = json_report(&rows, if options.quick { "quick" } else { "full" });
    if let Err(e) = std::fs::write(&options.out, &report) {
        eprintln!("vmbench: writing {} failed: {e}", options.out.display());
        return ExitCode::from(2);
    }
    // The paper's cross-cut: how the flat backend's win relates to branch
    // density. Short runs between mispredicted branches mean control-heavy
    // code, where edge heads and fused compare-branches save the most;
    // long runs mean straight-line arithmetic, where only the saved
    // per-instruction dispatch and fuel work remain.
    eprintln!("\nspeedup vs instructions-per-mispredict (profile-predicted):");
    eprintln!(
        "{:<12} {:>16} {:>9}",
        "workload", "instrs/mispredict", "speedup"
    );
    let mut by_ipm: Vec<&Row> = rows.iter().collect();
    by_ipm.sort_by(|a, b| {
        a.instrs_per_mispredict()
            .total_cmp(&b.instrs_per_mispredict())
    });
    for r in by_ipm {
        eprintln!(
            "{:<12} {:>16.1} {:>8.2}x",
            r.name,
            r.instrs_per_mispredict(),
            r.speedup()
        );
    }

    let overall = geomean(rows.iter().map(Row::speedup));
    eprintln!(
        "vmbench: geomean flat/reference speedup {overall:.2}x over {} workloads; wrote {}",
        rows.len(),
        options.out.display()
    );

    let mut failed = false;
    if let Some(gate) = options.gate {
        if overall < gate {
            eprintln!("vmbench: GATE FAILED: {overall:.2}x < required {gate:.2}x");
            failed = true;
        } else {
            eprintln!("vmbench: gate met ({overall:.2}x >= {gate:.2}x)");
        }
    }
    if let Some(floor) = options.gate_min {
        let worst = rows
            .iter()
            .min_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("at least one workload");
        if worst.speedup() < floor {
            eprintln!(
                "vmbench: MIN GATE FAILED: {} at {:.2}x < required {floor:.2}x",
                worst.name,
                worst.speedup()
            );
            failed = true;
        } else {
            eprintln!(
                "vmbench: min gate met (worst {} at {:.2}x >= {floor:.2}x)",
                worst.name,
                worst.speedup()
            );
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
