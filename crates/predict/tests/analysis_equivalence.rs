//! The in-place interval fixpoint against the one it replaced
//! (`fixpoint_model`): bit-identical `ProgramProofs` on every suite
//! program, corpus entry and example, each compiled with cascaded and
//! with jump-table switches, raw and through the standard pipeline.
//! `mffuzz`'s `analysis_equivalence` test holds it to the same model over
//! generated programs.

mod fixpoint_model;

use std::path::Path;

#[test]
fn the_suite_corpus_and_examples_analyze_as_the_model_does() {
    let (mut sources, mut checked) = (0, fixpoint_model::Checked::default());
    for w in mfwork::suite() {
        sources += 1;
        checked += fixpoint_model::check_source(w.name, &w.source);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for dir in ["corpus", "examples"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "mf"))
            .collect();
        files.sort();
        for file in files {
            let source = std::fs::read_to_string(&file).unwrap();
            sources += 1;
            checked += fixpoint_model::check_source(&file.display().to_string(), &source);
        }
    }
    // Every source compiles in both switch modes.
    assert_eq!(checked.builds, 4 * sources);
    assert!(sources > 15, "the corpus and examples were found");
    assert!(checked.proofs > 0 && checked.facts > 0, "{checked:?}");
}
