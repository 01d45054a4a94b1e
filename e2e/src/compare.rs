//! `e2e compare BASE.json… -- NEW.json…`: applies `BENCHMARK.json`'s
//! bounds to every end-to-end metric on every workload.
//!
//! Each file is a record `e2e --json` wrote (one run). Per workload and
//! metric the verdict is:
//! * `unresolved` — either side's quartile spread is wider than the bound,
//!   unless every new run reads better than every base run (`better`);
//! * `worse` — the new median is worse than the base median by more than
//!   the bound;
//! * `better` — the new median is better by more than the base spread and
//!   the new run wins at least nine tenths of the pairs (i-th against i-th);
//! * `within` otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, spread};

/// One end-to-end metric's rule from `BENCHMARK.json`.
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// `true` when lower is better.
    pub lower: bool,
    /// Largest tolerated worsening, as a share of the base median.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json`.
///
/// # Errors
///
/// A message when the file is unreadable or lacks the keys.
pub fn rules(path: &Path) -> Result<Vec<Rule>, String> {
    let doc = read(path)?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Rule {
                    name: name.to_string(),
                    lower: better == "lower",
                    bound,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

fn read(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metric values per workload, in file order.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples(files: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for f in files {
        let doc = read(Path::new(f))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{f}: no workload"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{f}: no metrics"))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// One compared pair.
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// New median.
    pub new: f64,
    /// Larger of the two quartile spreads.
    pub spread: f64,
    /// `better`, `within`, `worse` or `unresolved`.
    pub verdict: &'static str,
}

/// The verdict for one metric: `base` and `new` are the runs' values.
pub fn verdict(rule: &Rule, base: &[f64], new: &[f64]) -> &'static str {
    let (bm, nm) = (median(base), median(new));
    let better = |a: f64, b: f64| if rule.lower { a < b } else { a > b };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if spread(base).max(spread(new)) > rule.bound {
        return if all_better { "better" } else { "unresolved" };
    }
    let change = (nm - bm) / bm.abs().max(f64::MIN_POSITIVE);
    let worsening = if rule.lower { change } else { -change };
    if worsening > rule.bound {
        return "worse";
    }
    let wins = new
        .iter()
        .zip(base)
        .filter(|&(&n, &b)| better(n, b))
        .count();
    let pairs = new.len().min(base.len());
    if -worsening > spread(base) && pairs > 0 && wins * 10 >= pairs * 9 {
        "better"
    } else {
        "within"
    }
}

/// Compares two sets of records; rows in workload, then rule, order.
///
/// # Errors
///
/// A message when a file cannot be read.
pub fn compare(rules: &[Rule], base: &[String], new: &[String]) -> Result<Vec<Row>, String> {
    let (base, new) = (samples(base)?, samples(new)?);
    let mut rows = Vec::new();
    for (workload, b) in &base {
        let Some(n) = new.get(workload) else { continue };
        for rule in rules {
            let (Some(bv), Some(nv)) = (b.get(&rule.name), n.get(&rule.name)) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: rule.name.clone(),
                base: median(bv),
                new: median(nv),
                spread: spread(bv).max(spread(nv)),
                verdict: verdict(rule, bv, nv),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let rule = Rule {
            name: "wall_s".into(),
            lower: true,
            bound: 0.10,
        };
        let base = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            verdict(&rule, &base, &[1.0, 1.01, 1.0, 0.99, 1.0]),
            "within"
        );
        assert_eq!(
            verdict(&rule, &base, &[1.2, 1.21, 1.19, 1.2, 1.22]),
            "worse"
        );
        assert_eq!(
            verdict(&rule, &base, &[0.8, 0.81, 0.79, 0.8, 0.82]),
            "better"
        );
        assert_eq!(
            verdict(&rule, &base, &[0.5, 1.5, 0.7, 1.4, 1.0]),
            "unresolved"
        );
    }
}
