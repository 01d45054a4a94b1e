//! `e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//!     [--golden DIR] [--spans PATH] [--json PATH]
//! e2e bless [--golden DIR]
//! e2e compare [--bench BENCHMARK.json] BASE.json... -- NEW.json...
//! ```
//!
//! A run prints every metric with its unit on stderr and, as the last
//! line of stdout, the result object. Exit codes: 0 when every operation
//! succeeded, 1 when any failed (or `compare` found a regression), 2 on a
//! usage or set-up error.

use std::path::PathBuf;
use std::process::ExitCode;

use mfe2e::run::{self, Options};
use mfe2e::{compare, golden, json};

const USAGE: &str = "\
usage: e2e --workload NAME --seed N --seconds S --trace 0|1 [--quick]
           [--golden DIR] [--spans PATH] [--json PATH]
       e2e bless [--golden DIR]
       e2e compare [--bench BENCHMARK.json] BASE.json... -- NEW.json...

workloads: paper-cold paper-warm edit-compile profile-db
  --quick        smoke-test scale: three programs, exactly two passes
  --golden DIR   golden section digests (default: this package's golden/)
  --spans PATH   write the traced run's spans as JSON
  --json PATH    also write the result, tagged with workload and seed";

fn default_golden() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
}

fn fail(message: &str) -> ExitCode {
    eprintln!("e2e: {message}");
    ExitCode::from(2)
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bless") => bless(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => measure(&args),
    };
    result.unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")))
}

fn bless(args: &[String]) -> Result<ExitCode, String> {
    let mut dir = default_golden();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--golden" => dir = PathBuf::from(value(a, &mut it)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    golden::bless(&dir)?;
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let (mut base, mut new, mut after) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = PathBuf::from(value(a, &mut it)?),
            "--" => after = true,
            f if after => new.push(f.to_string()),
            f => base.push(f.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("compare needs base and new records around '--'".to_string());
    }
    let rows = compare::compare(&compare::rules(&bench)?, &base, &new)?;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "change", "spread"
    );
    for r in &rows {
        println!(
            "{:<14} {:<12} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            (r.new - r.base) / r.base * 100.0,
            r.spread * 100.0,
            r.verdict
        );
    }
    Ok(if rows.iter().any(|r| r.verdict == "worse") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn measure(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        golden: default_golden(),
        spans: None,
    };
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => opts.workload = value(a, &mut it)?.clone(),
            "--seed" => opts.seed = parsed(a, value(a, &mut it)?)?,
            "--seconds" => opts.seconds = parsed(a, value(a, &mut it)?)?,
            "--trace" => {
                opts.trace = match value(a, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--quick" => opts.quick = true,
            "--golden" => opts.golden = PathBuf::from(value(a, &mut it)?),
            "--spans" => opts.spans = Some(PathBuf::from(value(a, &mut it)?)),
            "--json" => json_out = Some(PathBuf::from(value(a, &mut it)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let outcome = run::run(&opts)?;
    for m in &outcome.metrics {
        eprintln!("{:<26} {:>16} {}", m.name, json::number(m.value), m.unit);
    }
    for msg in &outcome.messages {
        eprintln!("e2e: failed: {msg}");
    }
    eprintln!(
        "{}: {} operations, {} failed",
        opts.workload, outcome.attempted, outcome.failed
    );
    let result = outcome.to_json();
    if let Some(path) = json_out {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}\n",
            json::quote(&opts.workload),
            opts.seed,
            u8::from(opts.trace),
            &result[1..]
        );
        std::fs::write(&path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
