//! End-to-end determinism of the `mftrain` pipeline: the training
//! feature matrix and the serialized model artifact must be
//! byte-identical across worker counts and across consecutive runs.
//! This is the repro contract behind the committed in-tree artifact —
//! CI retrains from scratch and compares bytes (`mftrain --check`).
//!
//! Each test gives its runs a private run cache, so its time does not
//! depend on what earlier commands left in the shared one: its first run
//! collects the suite's training half (all that training reads), and its
//! second is served from disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `mftrain` over the run cache `cache`, which one test's runs share.
fn mftrain(cache: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mftrain"))
        .args(args)
        .env("MFHARNESS_CACHE", cache)
        .output()
        .expect("mftrain runs")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mftrain-it-{tag}-{}", std::process::id()))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn features_and_artifact_are_jobs_invariant() {
    let cache = temp_path("cache-jobs");
    let f1 = temp_path("feat-j1.tsv");
    let f8 = temp_path("feat-j8.tsv");
    let m1 = temp_path("model-j1.bin");
    let m8 = temp_path("model-j8.bin");

    for (jobs, feat, model) in [("1", &f1, &m1), ("8", &f8, &m8)] {
        let out = mftrain(
            &cache,
            &[
                "--jobs",
                jobs,
                "--features",
                feat.to_str().unwrap(),
                "--out",
                model.to_str().unwrap(),
            ],
        );
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    }

    let features_1 = std::fs::read(&f1).expect("features at --jobs 1");
    let features_8 = std::fs::read(&f8).expect("features at --jobs 8");
    assert_eq!(
        features_1, features_8,
        "feature matrix differs between --jobs 1 and --jobs 8"
    );

    let model_1 = std::fs::read(&m1).expect("artifact at --jobs 1");
    let model_8 = std::fs::read(&m8).expect("artifact at --jobs 8");
    assert_eq!(
        model_1, model_8,
        "model artifact differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(&model_1[..4], b"MFPM", "artifact magic");

    for p in [f1, f8, m1, m8] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn consecutive_runs_reproduce_the_artifact() {
    let cache = temp_path("cache-runs");
    let a = temp_path("model-run-a.bin");
    let b = temp_path("model-run-b.bin");
    for model in [&a, &b] {
        let out = mftrain(&cache, &["--jobs", "2", "--out", model.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    }
    let bytes_a = std::fs::read(&a).expect("first run artifact");
    let bytes_b = std::fs::read(&b).expect("second run artifact");
    assert_eq!(bytes_a, bytes_b, "consecutive mftrain runs drifted");

    // The committed in-tree artifact is what these runs reproduce.
    let committed =
        std::fs::read(mfpredict::COMMITTED_MODEL_PATH).expect("committed artifact exists");
    assert_eq!(
        bytes_a, committed,
        "retrained artifact differs from the committed model"
    );

    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
    let _ = std::fs::remove_dir_all(cache);
}
