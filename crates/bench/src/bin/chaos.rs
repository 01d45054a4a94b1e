//! `chaos` — the full-pipeline chaos battery (see `mfbench::chaos`).
//!
//! Runs seeded filesystem fault storms through the whole stack — profile
//! service, version-skew remap, flat backend against the reference,
//! dynamic predictor zoo — with program edits injected between rounds, and
//! reports every invariant violation.
//!
//! Exit status: 0 = clean battery, 1 = findings, 2 = usage or I/O error.
//!
//! ```text
//! chaos [--seeds N] [--start-seed N] [--rounds N] [--jobs N]
//!       [--no-edits] [--quick] [--out PATH] [--json]
//! ```

use std::process::ExitCode;

use mfbench::chaos::{run_battery, ChaosConfig};

const USAGE: &str = "usage: chaos [--seeds N] [--start-seed N] [--rounds N] [--jobs N] \
                     [--no-edits] [--quick] [--out PATH] [--json]";

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
}

fn main() -> ExitCode {
    let mut cfg = ChaosConfig::default();
    let mut out_path: Option<String> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let r = match a.as_str() {
            "--seeds" => parse("--seeds", args.next()).map(|v| cfg.seeds = v),
            "--start-seed" => parse("--start-seed", args.next()).map(|v| cfg.start_seed = v),
            "--rounds" => parse("--rounds", args.next()).map(|v| cfg.rounds = v),
            "--jobs" => parse("--jobs", args.next()).map(|v| cfg.jobs = v),
            "--no-edits" => {
                cfg.edits = false;
                Ok(())
            }
            "--quick" => {
                cfg.seeds = 8;
                cfg.rounds = 3;
                Ok(())
            }
            "--out" => match args.next() {
                Some(p) => {
                    out_path = Some(p);
                    Ok(())
                }
                None => Err("--out needs a value".to_string()),
            },
            "--json" => {
                json = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = r {
            eprintln!("chaos: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    if cfg.seeds == 0 || cfg.rounds == 0 || cfg.jobs == 0 {
        eprintln!("chaos: --seeds, --rounds, and --jobs must be at least 1");
        return ExitCode::from(2);
    }

    let report = run_battery(&cfg);

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, report.to_json().render()) {
            eprintln!("chaos: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", report.to_json().render());
    } else {
        println!(
            "chaos battery: {} seeds x {} rounds (edits {})",
            cfg.seeds,
            cfg.rounds,
            if cfg.edits { "on" } else { "off" }
        );
        for o in &report.outcomes {
            if o.service_unavailable {
                println!("  seed {:>3}: service unavailable (attributed)", o.seed);
                continue;
            }
            let skew: usize = o
                .rounds
                .iter()
                .map(|r| r.salvaged + r.orphaned + r.degraded)
                .sum();
            println!(
                "  seed {:>3}: edits [{}], {} committed, {} degraded acks, \
                 {} read / {} record / {} compact failures, skew {}, findings {}",
                o.seed,
                o.edits.join(" "),
                o.committed,
                o.degraded_acks,
                o.profile_read_failures,
                o.record_failures,
                o.maintenance_failures,
                skew,
                o.findings.len()
            );
            for f in &o.findings {
                println!("    FINDING: {f}");
            }
        }
        println!("findings: {}", report.findings());
    }
    if report.findings() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
