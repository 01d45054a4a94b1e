//! Pins the exit-code contract shared by every driver binary in the
//! workspace: 0 = clean run, 1 = findings (the tool worked and found
//! something wrong), 2 = usage or I/O error (the tool could not do its
//! job). `mffuzz` pins the same contract in its own crate's CLI tests.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn mflint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mflint"))
        .args(args)
        .output()
        .expect("mflint runs")
}

fn dynbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dynbench"))
        .args(args)
        .output()
        .expect("dynbench runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mfbench-exit-{tag}-{}", std::process::id()))
}

#[test]
fn repro_help_and_small_section_exit_zero() {
    assert_eq!(repro(&["--help"]).status.code(), Some(0));
    // --table2 alone runs nothing, so it stays fast.
    assert_eq!(repro(&["--table2", "--no-cache"]).status.code(), Some(0));
}

#[test]
fn repro_usage_errors_exit_two() {
    for args in [
        &["--frobnicate"][..],
        &["--jobs", "0"][..],
        &["--jobs", "many"][..],
        &["--jobs"][..],
    ] {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro {args:?}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("usage") || stderr(&out).to_lowercase().contains("repro:"),
            "usage error should explain itself: {}",
            stderr(&out)
        );
    }
}

#[test]
fn repro_unwritable_json_metrics_exits_two() {
    // An I/O failure is a "could not do the job" error, not a finding:
    // exit 2, same as a bad flag.
    let out = repro(&[
        "--table2",
        "--no-cache",
        "--json-metrics",
        "/nonexistent-mfbench-dir/metrics.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("failed"), "stderr: {}", stderr(&out));
}

#[test]
fn repro_writable_json_metrics_exits_zero() {
    let path = temp_path("metrics.json");
    let out = repro(&[
        "--table2",
        "--no-cache",
        "--json-metrics",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&path).expect("metrics written");
    assert!(body.trim_start().starts_with('{'), "json body: {body}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn repro_profile_db_flag_values_are_validated() {
    for args in [
        &["--io-retries", "many"][..],
        &["--io-retries"][..],
        &["--fault-seed", "stormy"][..],
        &["--fault-seed"][..],
        &["--profile-db"][..],
        &["--shards", "0"][..],
        &["--shards", "lots"][..],
        &["--shards"][..],
    ] {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn repro_profile_db_to_a_writable_dir_exits_zero() {
    let dir = temp_path("profdb-ok");
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "--table2",
        "--no-cache",
        "--profile-db",
        dir.to_str().unwrap(),
        "--shards",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("Profile database") && stdout.contains("persistent"),
        "summary section missing: {stdout}"
    );
    assert!(stdout.contains("shards"), "shard count missing: {stdout}");
    // The service really hit the disk: the manifest pins the shard
    // count, and no legacy single-log segment sits in the root.
    let manifest = std::fs::read(dir.join("MANIFEST")).expect("manifest written");
    assert_eq!(manifest.len(), 17, "manifest is the fixed 17-byte header");
    assert_eq!(&manifest[..4], b"MFPS");
    let root_segments = std::fs::read_dir(&dir)
        .expect("db dir created")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "mfdb")
        })
        .count();
    assert_eq!(root_segments, 0, "sharded db keeps no root segments");

    // A second open honors the manifest, not the flag: asking for a
    // different shard count is not an error, just ignored.
    let out = repro(&[
        "--table2",
        "--no-cache",
        "--profile-db",
        dir.to_str().unwrap(),
        "--shards",
        "9",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let reread = std::fs::read(dir.join("MANIFEST")).expect("manifest kept");
    assert_eq!(manifest, reread, "manifest must pin the original count");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_empty_profile_db_announces_first_generation() {
    // Opening a fresh (or still-empty) database must say so explicitly —
    // "no prior runs" is the expected first-generation state, not a
    // silent absence of the reuse section, and never a failure.
    let dir = temp_path("profdb-firstgen");
    let _ = std::fs::remove_dir_all(&dir);
    for _round in 0..2 {
        // The --table2 fast path records nothing, so the database stays
        // empty: both invocations are "first generation".
        let out = repro(&[
            "--table2",
            "--no-cache",
            "--profile-db",
            dir.to_str().unwrap(),
            "--shards",
            "2",
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            stdout.contains("Profile reuse (version skew)"),
            "reuse section missing: {stdout}"
        );
        assert!(
            stdout.contains("first generation (no prior runs)"),
            "first-generation line missing: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_unusable_profile_db_exits_two_unless_faults_were_requested() {
    // A file where the db directory should be: the store degrades to
    // in-memory accumulation. Without fault injection that loses data
    // the user asked to keep — exit 2, with the warning surfaced.
    let blocker = temp_path("profdb-blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let db = blocker.join("db");

    let out = repro(&[
        "--table2",
        "--no-cache",
        "--profile-db",
        db.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("not persistent"),
        "stderr: {}",
        stderr(&out)
    );

    // Under --fault-seed, degradation is the experiment, not a failure.
    let out = repro(&[
        "--table2",
        "--no-cache",
        "--profile-db",
        db.to_str().unwrap(),
        "--fault-seed",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn repro_dyn_is_a_section_flag_not_an_option() {
    // --dyn is advertised and parses as a section (sections never take
    // values); actually rendering it needs the full suite, which the
    // dynbench tests cover in their quick form.
    let help = repro(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&help.stdout).into_owned();
    assert!(stdout.contains("--dyn"), "usage must list --dyn: {stdout}");
    assert_eq!(repro(&["--dyn=now"]).status.code(), Some(2));
}

#[test]
fn dynbench_help_and_usage_errors() {
    let help = dynbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&help.stdout).into_owned();
    assert!(stdout.contains("usage: dynbench"), "help text: {stdout}");

    for args in [
        &["--frobnicate"][..],
        &["--jobs", "0"][..],
        &["--jobs", "many"][..],
        &["--jobs"][..],
        &["--gate-min-ipm", "-1"][..],
        &["--gate-min-ipm", "fast"][..],
        &["--gate-min-ipm"][..],
        &["--out"][..],
    ] {
        let out = dynbench(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "dynbench {args:?}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("dynbench:"),
            "usage error should explain itself: {}",
            stderr(&out)
        );
    }
}

#[test]
fn dynbench_unwritable_out_exits_two_before_collecting() {
    // The --out preflight makes an unwritable path fail fast (exit 2)
    // instead of after the whole suite ran.
    let out = dynbench(&["--out", "/nonexistent-mfbench-dir/dyn.json"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot write"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn dynbench_gate_spans_the_contract() {
    // 0: a clean quick run passes its own gate.
    let out = dynbench(&["--quick", "--gate", "--no-cache"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("gate passed"),
        "stderr: {}",
        stderr(&out)
    );

    // 1: an unreachable geomean floor is a finding, not a usage error.
    let out = dynbench(&[
        "--quick",
        "--gate",
        "--gate-min-ipm",
        "1000000000",
        "--no-cache",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("gate violation"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn mflint_json_metrics_exit_codes_and_shape() {
    let clean = temp_path("lint-metrics.mf");
    std::fs::write(&clean, "fn main(n: int) { emit(n); }").unwrap();

    // 2: the flag needs a value; an unwritable path is an I/O error.
    assert_eq!(
        mflint(&[clean.to_str().unwrap(), "--json-metrics"])
            .status
            .code(),
        Some(2)
    );
    let out = mflint(&[
        clean.to_str().unwrap(),
        "--json-metrics",
        "/nonexistent-mfbench-dir/lint.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));

    // 0: clean lint, metrics written with the stable keys.
    let path = temp_path("lint-metrics.json");
    let out = mflint(&[
        clean.to_str().unwrap(),
        "--json-metrics",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&path).expect("metrics written");
    for key in [
        "\"tool\": \"mflint\"",
        "\"programs_checked\": 1",
        "\"errors\": 0",
        "\"warnings\": 0",
        "\"diagnostics\": {}",
        "\"verify_digest\": \"0x",
    ] {
        assert!(body.contains(key), "missing {key} in: {body}");
    }

    // 1: findings still exit 1, and the metrics file carries the counts.
    let proved = temp_path("lint-metrics-proved.mf");
    std::fs::write(
        &proved,
        "fn main(n: int) { var x: int = 3; if (x < 10) { emit(1); } else { emit(0); } }",
    )
    .unwrap();
    let out = mflint(&[
        proved.to_str().unwrap(),
        "--deny-warnings",
        "--json-metrics",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&path).expect("metrics rewritten");
    assert!(
        body.contains("\"branch-always-taken\": 1"),
        "per-code counts missing: {body}"
    );

    let _ = std::fs::remove_file(clean);
    let _ = std::fs::remove_file(proved);
    let _ = std::fs::remove_file(path);
}

#[test]
fn mflint_exit_codes_span_the_contract() {
    // 0: clean source.
    let clean = temp_path("clean.mf");
    std::fs::write(&clean, "fn main(n: int) { emit(n); }").unwrap();
    assert_eq!(mflint(&[clean.to_str().unwrap()]).status.code(), Some(0));

    // 1: findings.
    let broken = temp_path("broken.mf");
    std::fs::write(&broken, "fn main( { emit(1); }").unwrap();
    assert_eq!(mflint(&[broken.to_str().unwrap()]).status.code(), Some(1));

    // 2: usage.
    assert_eq!(mflint(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(mflint(&[]).status.code(), Some(2));

    let _ = std::fs::remove_file(clean);
    let _ = std::fs::remove_file(broken);
}

fn vmbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vmbench"))
        .args(args)
        .output()
        .expect("vmbench runs")
}

#[test]
fn vmbench_usage_errors_exit_two() {
    for args in [
        &["--frobnicate"][..],
        &["--gate"][..],
        &["--gate", "fast"][..],
        &["--gate", "-1"][..],
        &["--gate-min"][..],
        &["--gate-min", "nope"][..],
        &["--gate-min", "0"][..],
        &["--workload", "no-such-workload"][..],
    ] {
        let out = vmbench(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "vmbench {args:?}: {}",
            stderr(&out)
        );
    }
    assert_eq!(vmbench(&["--help"]).status.code(), Some(0));
}

#[test]
fn vmbench_gate_min_is_a_per_workload_floor() {
    // One small workload, quick batches: enough to exercise the gate
    // logic without a full benchmark run.
    let out_path = temp_path("vmbench.json");
    let base = |extra: &[&str]| {
        let mut args = vec![
            "--quick",
            "--workload",
            "uncompress",
            "--out",
            out_path.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        vmbench(&args)
    };

    // An impossible per-workload floor fails with exit 1 and names the
    // offending workload, even when the geomean gate passes.
    let out = base(&["--gate", "0.001", "--gate-min", "1000"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("MIN GATE FAILED: uncompress"),
        "stderr: {}",
        stderr(&out)
    );

    // A trivially met floor passes, and the report carries the
    // mispredict-derived run-length column.
    let out = base(&["--gate-min", "0.001"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("min gate met"),
        "stderr: {}",
        stderr(&out)
    );
    let body = std::fs::read_to_string(&out_path).expect("report written");
    assert!(
        body.contains("\"instrs_per_mispredict\"") && body.contains("\"profile_mispredicts\""),
        "report misses run-length fields: {body}"
    );

    let _ = std::fs::remove_file(out_path);
}

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("chaos runs")
}

#[test]
fn chaos_exit_codes_span_the_contract() {
    // 0: a tiny clean battery; the summary must account for its seeds.
    let out = chaos(&["--seeds", "2", "--rounds", "2"]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(text.contains("findings: 0"), "summary: {text}");

    // 2: usage errors.
    for args in [
        &["--frobnicate"][..],
        &["--seeds"][..],
        &["--seeds", "0"][..],
        &["--rounds", "none"][..],
        &["--jobs", "0"][..],
    ] {
        let out = chaos(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "chaos {args:?}: {}",
            stderr(&out)
        );
    }
    assert_eq!(chaos(&["--help"]).status.code(), Some(0));
}

#[test]
fn chaos_json_report_lands_on_disk() {
    let out_path = temp_path("chaos.json");
    let out = chaos(&[
        "--seeds",
        "2",
        "--rounds",
        "2",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&out_path).expect("report written");
    assert!(
        body.contains("\"outcomes\"") && body.contains("\"findings\": 0"),
        "report: {body}"
    );
    let _ = std::fs::remove_file(out_path);
}

fn svcbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svcbench"))
        .args(args)
        .output()
        .expect("svcbench runs")
}

#[test]
fn svcbench_usage_errors_exit_two() {
    for args in [
        &["--shards", "0"][..],
        &["--writers", "0"][..],
        &["--frobnicate"][..],
    ] {
        let out = svcbench(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "svcbench {args:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
    }
}

#[test]
fn svcbench_tiny_run_writes_the_single_log_and_sharded_rows() {
    let root = temp_path("svcbench-root");
    let out_path = temp_path("svcbench.json");
    let _ = std::fs::remove_dir_all(&root);
    let out = svcbench(&[
        "--sites",
        "1k",
        "--shards",
        "1",
        "--writers",
        "2",
        "--ops",
        "2",
        "--root",
        root.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&out_path).expect("report written");
    let rows: Vec<&str> = body.lines().filter(|l| l.contains("\"config\"")).collect();
    assert_eq!(
        rows.len(),
        2,
        "one baseline row and one sharded row: {body}"
    );
    assert!(
        rows[0].contains("\"config\": \"single-log\", \"shards\": 0,"),
        "{body}"
    );
    assert!(
        rows[1].contains("\"config\": \"shards-1\", \"shards\": 1,"),
        "{body}"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn mflint_warns_on_version_skewed_profiles() {
    // A profile whose fingerprint comments prove it was recorded against
    // an older program version: the site ids no longer line up, so the
    // lint must warn profile-version-skew (exit 0 without
    // --deny-warnings, exit 1 with).
    let v1 = "fn dead(z: int) -> int {\n\
              \x20 if (z > 100) { emit(z); return 1; }\n\
              \x20 return 0;\n\
              }\n\
              fn main(n: int) {\n\
              \x20 var t: int = 0;\n\
              \x20 for (var i: int = 0; i < n; i = i + 1) {\n\
              \x20   if (i < 3) { emit(i); t = t + 1; } else { emit(t); }\n\
              \x20 }\n\
              \x20 emit(t);\n\
              }\n";
    let v2 = v1.replace(
        "fn dead(z: int) -> int {\n\
         \x20 if (z > 100) { emit(z); return 1; }\n\
         \x20 return 0;\n\
         }\n",
        "",
    );
    assert_ne!(v1, v2);

    let p1 = mflang::compile(v1).expect("v1 compiles");
    let fps1 = mfstale::site_fingerprints(&p1);
    let mut profile = String::new();
    for (id, fp) in &fps1 {
        profile.push_str(&format!("# fp br{} {:x}\n", id.0, fp));
    }
    for id in fps1.keys() {
        profile.push_str(&format!("br{} 12 5\n", id.0));
    }

    let src = temp_path("skew-src.mf");
    let prof = temp_path("skew-prof.txt");
    std::fs::write(&src, v2).unwrap();
    std::fs::write(&prof, profile).unwrap();

    let out = mflint(&[src.to_str().unwrap(), "--profile", prof.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        text.contains("profile-version-skew"),
        "no skew warning: {text}"
    );

    let out = mflint(&[
        src.to_str().unwrap(),
        "--profile",
        prof.to_str().unwrap(),
        "--deny-warnings",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(prof);
}
