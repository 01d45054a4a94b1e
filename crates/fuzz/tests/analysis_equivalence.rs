//! The in-place interval fixpoint against the one it replaced, over
//! generated programs: `mfpredict::analyze` must give the model's
//! `ProgramProofs` bit for bit on each, compiled with cascaded and with
//! jump-table switches, raw and through the standard pipeline. The model
//! and the check are shared with `mfpredict`'s equivalence test over the
//! suite, corpus and examples.

#[path = "../../predict/tests/fixpoint_model/mod.rs"]
mod fixpoint_model;

use mffuzz::gen::generate;
use mffuzz::rng::Rng;

/// Generated programs per run; a release run takes well under a second.
const PROGRAMS: u64 = 1000;

#[test]
fn generated_programs_analyze_as_the_model_does() {
    let mut checked = fixpoint_model::Checked::default();
    for seed in 0..PROGRAMS {
        let case = generate(&mut Rng::new(seed));
        checked += fixpoint_model::check_source(&format!("seed {seed}"), &case.source);
    }
    assert_eq!(checked.builds, 4 * PROGRAMS as usize);
    assert!(checked.proofs > 0 && checked.facts > 0, "{checked:?}");
}
