//! Smoke test of the benchmark at `--quick` scale (three small programs,
//! two passes of edits, two generations). Run it on the release build,
//! which is what the benchmark measures:
//!
//! ```text
//! cargo test --release --manifest-path e2e/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use mfe2e::json::{self, Value};

const E2E: &str = env!("CARGO_BIN_EXE_e2e");

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `e2e` at quick scale; returns the exit code and the result object.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, Value) {
    let out = Command::new(E2E)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), result)
}

/// Every declared metric is emitted with its unit.
fn assert_metrics(workload: &str, result: &Value, list: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, unit) in declared(list) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{workload}: {name}"
        );
    }
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
}

/// The span file is one tree per root: parents exist, children nest
/// inside them, and every span carries the one run id.
fn assert_span_tree(path: &Path) {
    let doc = json::parse(&std::fs::read_to_string(path).expect("span file")).expect("span JSON");
    let run_id = doc.get("run_id").and_then(Value::as_str).expect("run id");
    let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
    assert!(!spans.is_empty());
    let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).expect(k);
    let by_id: BTreeMap<u64, &Value> = spans.iter().map(|s| (num(s, "id") as u64, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids are unique");
    for s in spans {
        assert_eq!(s.get("run_id").and_then(Value::as_str), Some(run_id));
        assert!(num(s, "start_ns") <= num(s, "end_ns"));
        if let Some(p) = s.get("parent").and_then(Value::as_f64) {
            let parent = by_id.get(&(p as u64)).expect("parent exists");
            assert!(num(parent, "start_ns") <= num(s, "start_ns"));
            assert!(num(s, "end_ns") <= num(parent, "end_ns"));
        }
    }
}

/// Count-valued metrics (and, without a concurrent reader, the operation
/// total) of a result.
fn counts(result: &Value, with_ops: bool) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .filter(|(_, m)| {
            matches!(
                m.get("unit").and_then(Value::as_str),
                Some("count" | "bytes")
            )
        })
        .map(|(k, m)| {
            (
                k.clone(),
                m.get("value").and_then(Value::as_f64).expect("value"),
            )
        })
        .collect();
    if with_ops {
        out.insert(
            "attempted".into(),
            result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted"),
        );
    }
    out
}

fn smoke(workload: &str) {
    let (code, result) = run(workload, false, &[]);
    assert_eq!(code, 0, "{workload}");
    assert_metrics(workload, &result, "end_to_end");

    let spans = tmp(&format!("{workload}-spans.json"));
    let spans_arg = spans.to_str().expect("utf-8 path");
    let (code, first) = run(workload, true, &["--spans", spans_arg]);
    assert_eq!(code, 0, "{workload}");
    assert_metrics(workload, &first, "per_layer");
    assert_span_tree(&spans);
    let unattributed = first
        .get("metrics")
        .and_then(|m| m.get("trace.unattributed_frac"));
    let unattributed = unattributed
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    assert!(unattributed.expect("unattributed") <= 0.10, "{workload}");

    let (_, second) = run(workload, true, &[]);
    let with_ops = workload != "profile-db";
    assert_eq!(
        counts(&first, with_ops),
        counts(&second, with_ops),
        "{workload}: counts differ"
    );
}

#[test]
fn paper_cold() {
    smoke("paper-cold");
}

#[test]
fn paper_warm() {
    smoke("paper-warm");
}

#[test]
fn edit_compile() {
    smoke("edit-compile");
}

#[test]
fn profile_db() {
    smoke("profile-db");
}

#[test]
fn corrupted_golden_digest_fails_the_run() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let dir = tmp("corrupt-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in ["paper.fnv", "paper-quick.fnv"] {
        let text = std::fs::read_to_string(src.join(name)).expect("golden file");
        // Flip the last hex digit of the first digest.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let last = lines[0].pop().expect("digest digit");
        lines[0].push(if last == '0' { '1' } else { '0' });
        std::fs::write(dir.join(name), lines.join("\n") + "\n").expect("write golden");
    }
    let (code, result) = run(
        "paper-cold",
        false,
        &["--golden", dir.to_str().expect("utf-8")],
    );
    assert_eq!(code, 1);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(
        result
            .get("failed")
            .and_then(Value::as_f64)
            .expect("failed")
            >= 1.0
    );
}
