//! The mutation gauntlet: every seeded defect must be caught.
//!
//! The product crates compile fourteen known bugs behind their (off by
//! default) `seeded-defects` features, dormant until armed through the
//! process-global `mfdefect` registry. This test arms each defect in turn
//! and asserts the fuzzer finds it — through the *expected* oracle —
//! within a bounded iteration count. A fuzzer change that blinds any
//! oracle fails here, not in the field.
//!
//! Everything lives in ONE test function: the registry is process-global,
//! so defect activation must never overlap with another test's run.

use mffuzz::{minimize, oracle, FuzzConfig, Fuzzer};

/// Per-defect iteration budget and the oracles allowed to catch it.
const GAUNTLET: &[(&str, u64, &[&str])] = &[
    (
        "opt-fold-add-off-by-one",
        3000,
        &["diff-opt", "branch-counts", "pass-defect"],
    ),
    ("opt-dce-drops-emit", 1000, &["diff-opt", "pass-defect"]),
    (
        "opt-thread-swaps-edges",
        3000,
        &["diff-opt", "branch-counts", "pass-defect"],
    ),
    ("vm-branch-count-polarity", 1000, &["trace-replay"]),
    ("vm-profile-drop-increment", 1000, &["trace-replay"]),
    ("vm-flat-fuse-swapped-arms", 1000, &["flat-diff"]),
    ("lang-switch-case-compare", 4000, &["switch-diff"]),
    ("profile-directive-ordinal", 4000, &["directive-roundtrip"]),
    (
        "profile-combine-taken-inflate",
        1000,
        &["combine-convexity"],
    ),
    ("profdb-checksum-skipped", 1000, &["profdb-roundtrip"]),
    ("profsvc-batch-ack-early", 1000, &["profsvc-groupcommit"]),
    ("predict-widen-dropped-bound", 3000, &["predict-soundness"]),
    (
        "dynpred-history-not-updated",
        1000,
        &["dynpred-consistency"],
    ),
    ("stale-fingerprint-ignores-operator", 1000, &["stale-remap"]),
];

#[test]
fn fuzzer_catches_every_seeded_defect() {
    // The roster here must cover the registry exactly; a defect added to
    // mfdefect without a gauntlet row is a silent hole.
    let rostered: Vec<&str> = GAUNTLET.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(rostered, mfdefect::KNOWN, "gauntlet roster out of date");

    for &(defect, budget, expected_oracles) in GAUNTLET {
        mfdefect::clear();
        assert!(mfdefect::activate(defect), "unknown defect {defect}");

        let config = FuzzConfig {
            seed: 0xDEFEC7,
            iters: budget,
            jobs: 2,
            max_findings: 1,
            minimize: false,
            ..Default::default()
        };
        let report = Fuzzer::new(config, Vec::new()).run();
        assert!(
            !report.findings.is_empty(),
            "defect '{defect}' survived {budget} iterations undetected"
        );
        let caught: Vec<&str> = report.findings.iter().map(|f| f.oracle.as_str()).collect();
        assert!(
            report
                .findings
                .iter()
                .any(|f| expected_oracles.contains(&f.oracle.as_str())),
            "defect '{defect}' was caught, but by {caught:?} instead of one of \
             {expected_oracles:?}"
        );
        eprintln!(
            "gauntlet: {defect} caught at iteration {} by {}",
            report.findings[0].iteration, report.findings[0].oracle
        );
    }
    mfdefect::clear();

    // Minimization against a live defect: the shrunken case must still
    // reproduce the same oracle violation.
    assert!(mfdefect::activate("opt-fold-add-off-by-one"));
    let source = "fn main(a: int, b: int) {\n    var x: int = 2 + 3;\n    var y: int = a;\n    \
                  y = y * 1;\n    emit(x);\n    emit(y);\n}\n";
    let inputs = vec![vec![7, 9]];
    let before = oracle::check_source(source, &inputs, 0);
    assert!(
        before.findings.iter().any(|(o, _)| *o == "diff-opt"),
        "fold defect must fire before minimizing: {:?}",
        before.findings
    );
    let (min_src, min_inputs) = minimize::minimize("diff-opt", source, &inputs);
    let after = oracle::check_source(&min_src, &min_inputs, 0);
    assert!(
        after.findings.iter().any(|(o, _)| *o == "diff-opt"),
        "minimized case no longer reproduces:\n{min_src}"
    );
    assert!(min_src.len() <= source.len());
    mfdefect::clear();

    // And with every defect cleared again, the same seed runs clean.
    let config = FuzzConfig {
        seed: 0xDEFEC7,
        iters: 256,
        jobs: 2,
        minimize: false,
        ..Default::default()
    };
    let report = Fuzzer::new(config, Vec::new()).run();
    assert!(
        report.findings.is_empty(),
        "cleared defects still produce findings: {}",
        report.deterministic_text()
    );
}
