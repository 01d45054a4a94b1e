//! The pass manager.
//!
//! Passes are held as a named list so the pipeline can be extended with
//! custom passes in tests and sanitized by [`Pipeline::run_checked`]: the
//! semantic verifier runs after every pass that changed anything, so a
//! defect is attributed to the exact pass (and round) that introduced it.

use std::fmt;

use trace_ir::{FuncId, Function, Program};

use mfcheck::{all_uses_initialized, Diagnostic, Severity};

use crate::cleanup::{dead_code, jump_thread, remove_unreachable};
use crate::fold::fold_initialized;
use crate::local::{copy_propagate, local_cse};

/// One intraprocedural optimization pass: rewrites a function in place
/// and reports whether it changed anything.
pub type PassFn = fn(&mut Function) -> bool;

/// Name the verifier uses when the *input* program is already defective
/// (no pass is to blame).
const INPUT_STAGE: &str = "<input>";

/// A defect the semantic verifier attributed to one pipeline stage.
#[derive(Clone, Debug)]
pub struct PassDefect {
    /// The pass that introduced the defect, or `"<input>"` when the
    /// program was defective before any pass ran.
    pub pass: &'static str,
    /// 1-based round the pass ran in (0 for the input stage).
    pub round: u32,
    /// The function being optimized when the defect appeared.
    pub func: String,
    /// Every error-severity diagnostic the verifier reported.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for PassDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pass == INPUT_STAGE {
            write!(
                f,
                "input program is defective before optimization ({} error{})",
                self.diagnostics.len(),
                if self.diagnostics.len() == 1 { "" } else { "s" }
            )?;
        } else {
            write!(
                f,
                "pass `{}` (round {}, fn {}) introduced {} error{}",
                self.pass,
                self.round,
                self.func,
                self.diagnostics.len(),
                if self.diagnostics.len() == 1 { "" } else { "s" }
            )?;
        }
        for d in &self.diagnostics {
            write!(f, "\n{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PassDefect {}

/// How the pipeline runs one of its passes.
#[derive(Clone, Copy, Debug)]
enum Pass {
    /// [`crate::fold_constants`], whose definite-initialization
    /// precondition the pipeline tracks per function.
    Fold,
    /// A standard pass; each preserves definite initialization.
    Standard(PassFn),
    /// A pass added with [`Pipeline::with_pass`], trusted with nothing.
    Custom(PassFn),
}

impl Pass {
    /// Runs the pass over `func`. `initialized` says `func` is known to
    /// pass definite initialization in this run: fold sets it the first
    /// time the check passes and skips the check while it holds, and a
    /// custom pass that changes `func` clears it.
    fn apply(self, func: &mut Function, initialized: &mut bool) -> bool {
        match self {
            Pass::Fold => {
                *initialized = *initialized || all_uses_initialized(func);
                *initialized && fold_initialized(func)
            }
            Pass::Standard(pass) => pass(func),
            Pass::Custom(pass) => {
                let changed = pass(func);
                *initialized &= !changed;
                changed
            }
        }
    }
}

/// An ordered sequence of optimization passes run to a fixpoint (bounded by
/// a round limit).
///
/// Constant folding is only sound in a function whose every use is
/// definitely initialized, and deciding that takes a dataflow solve. A run
/// checks each function until it passes and then trusts it for the rest
/// of the run: every standard pass preserves definite initialization
/// (they only rewrite a use to a register read or written earlier in its
/// block, delete definitions nobody reads, or remove and shorten paths),
/// so the answer cannot change. A function that fails is checked again at
/// every fold, since dead-code elimination may delete its uninitialized
/// read, and a pass added with [`Pipeline::with_pass`] drops the
/// function's trust whenever it reports a change. The verifier's
/// `use-before-def` check in [`Pipeline::run_checked`] and the pass
/// property tests guard the claim.
#[derive(Clone, Debug)]
pub struct Pipeline {
    rounds: u32,
    passes: Vec<(&'static str, Pass)>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::standard()
    }
}

impl Pipeline {
    /// The full classical pipeline, corresponding to the paper's "typical
    /// classical intraprocedural optimizations" *plus* the global dead-code
    /// elimination the paper turned off for profiling and measured in
    /// Table 1.
    pub fn standard() -> Self {
        Pipeline {
            rounds: 4,
            passes: vec![
                ("fold-constants", Pass::Fold),
                ("copy-propagate", Pass::Standard(copy_propagate)),
                ("local-cse", Pass::Standard(local_cse)),
                ("jump-thread", Pass::Standard(jump_thread)),
                ("remove-unreachable", Pass::Standard(remove_unreachable)),
                ("dead-code", Pass::Standard(dead_code)),
            ],
        }
    }

    /// No passes at all — the profiling configuration (DCE off), used as the
    /// baseline side of the Table 1 measurement.
    pub fn none() -> Self {
        Pipeline {
            rounds: 0,
            passes: Vec::new(),
        }
    }

    /// Sets the round limit.
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Appends a custom pass to the end of each round's pass sequence.
    /// Used by tests (and ablations) to splice experimental rewrites into
    /// the managed, verified pipeline. A custom pass may break definite
    /// initialization, so the next fold after it reports a change checks
    /// the function again.
    pub fn with_pass(mut self, name: &'static str, pass: PassFn) -> Self {
        self.passes.push((name, Pass::Custom(pass)));
        self
    }

    /// Runs the pipeline over every function. Returns true if any pass
    /// changed anything.
    ///
    /// # Panics
    ///
    /// Debug builds assert the program still validates afterwards; the
    /// passes preserve structural validity by construction.
    pub fn run(&self, program: &mut Program) -> bool {
        let mut initialized = vec![false; program.functions.len()];
        let mut any = false;
        for _ in 0..self.rounds {
            let mut changed = false;
            for (func, initialized) in program.functions.iter_mut().zip(&mut initialized) {
                for &(_, pass) in &self.passes {
                    changed |= pass.apply(func, initialized);
                }
            }
            any |= changed;
            if !changed {
                break;
            }
        }
        debug_assert_eq!(program.validate(), Ok(()));
        any
    }

    /// Runs the pipeline with the semantic verifier interleaved: the
    /// whole input is verified once, and then, after every pass that
    /// reports a change to a function, the program's structure and that
    /// function. A pass is a `fn(&mut Function)`, so only the function it
    /// changed can gain an error, and the diagnostics equal what
    /// [`mfcheck::verify_program`] would report. The transformation
    /// sequence is identical to [`Pipeline::run`] — only observation is
    /// added — so the optimized program (and any content-addressed cache
    /// key over it) is the same.
    ///
    /// # Errors
    ///
    /// Returns a [`PassDefect`] naming the pass (and round, and function)
    /// after which error-severity diagnostics first appeared, or the
    /// `"<input>"` stage when the program was defective to begin with.
    pub fn run_checked(&self, program: &mut Program) -> Result<bool, PassDefect> {
        // With `changed`, only that function's diagnostics, unless the
        // structure broke: `verify_program` then reports just that.
        let errors = |program: &Program, changed: Option<usize>| -> Vec<Diagnostic> {
            let diagnostics = match changed {
                Some(fi) if program.validate().is_ok() => {
                    mfcheck::verify_function(program, FuncId::from_index(fi))
                }
                _ => mfcheck::verify_program(program),
            };
            diagnostics
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect()
        };
        let input_errors = errors(program, None);
        if !input_errors.is_empty() {
            return Err(PassDefect {
                pass: INPUT_STAGE,
                round: 0,
                func: String::new(),
                diagnostics: input_errors,
            });
        }
        let mut initialized = vec![false; program.functions.len()];
        let mut any = false;
        for round in 1..=self.rounds {
            let mut changed = false;
            for (fi, initialized) in initialized.iter_mut().enumerate() {
                for &(name, pass) in &self.passes {
                    if !pass.apply(&mut program.functions[fi], initialized) {
                        continue;
                    }
                    changed = true;
                    let found = errors(program, Some(fi));
                    if !found.is_empty() {
                        return Err(PassDefect {
                            pass: name,
                            round,
                            func: program.functions[fi].name.clone(),
                            diagnostics: found,
                        });
                    }
                }
            }
            any |= changed;
            if !changed {
                break;
            }
        }
        Ok(any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::{BinOp, BranchKind, Instr};

    #[test]
    fn none_pipeline_is_identity() {
        let mut p = mflang::compile("fn main() { emit(1 + 2); }").unwrap();
        let before = p.clone();
        assert!(!Pipeline::none().run(&mut p));
        assert_eq!(p, before);
    }

    #[test]
    fn standard_reaches_fixpoint() {
        let mut p = mflang::compile(
            r#"
            fn main() {
                var debug: int = 0;
                var scale: int = 4 * 8;
                if (debug) { emit(123); }
                emit(scale);
            }
            "#,
        )
        .unwrap();
        Pipeline::standard().run(&mut p);
        let snapshot = p.clone();
        // Idempotent once at fixpoint.
        Pipeline::standard().run(&mut p);
        assert_eq!(p, snapshot);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn run_checked_matches_run_on_clean_programs() {
        let src = r#"
            fn main() {
                var total: int = 0;
                for (var i: int = 0; i < 10; i = i + 1) {
                    if (i % 3 == 0) { total = total + i; }
                }
                emit(total);
            }
        "#;
        let mut a = mflang::compile(src).unwrap();
        let mut b = a.clone();
        let changed_plain = Pipeline::standard().run(&mut a);
        let changed_checked = Pipeline::standard().run_checked(&mut b).unwrap();
        assert_eq!(changed_plain, changed_checked);
        assert_eq!(a, b, "verification must not perturb the transforms");
    }

    /// A deliberately broken "optimization": deletes the entry block's
    /// first defining instruction, leaving its uses uninitialized.
    fn clobber_first_def(func: &mut Function) -> bool {
        let entry = &mut func.blocks[0];
        if let Some(pos) = entry.instrs.iter().position(|i| i.dst().is_some()) {
            entry.instrs.remove(pos);
            true
        } else {
            false
        }
    }

    #[test]
    fn run_checked_names_the_offending_pass() {
        let mut p = mflang::compile("fn main() { var x: int = 3; emit(x + 1); }").unwrap();
        let pipeline = Pipeline::none()
            .rounds(1)
            .with_pass("clobber", clobber_first_def);
        let defect = pipeline.run_checked(&mut p).unwrap_err();
        assert_eq!(defect.pass, "clobber");
        assert_eq!(defect.round, 1);
        assert_eq!(defect.func, "main");
        assert!(defect
            .diagnostics
            .iter()
            .any(|d| d.code == "use-before-def"));
        let rendered = defect.to_string();
        assert!(rendered.contains("pass `clobber`"), "{rendered}");
    }

    /// Breaks only the function named `helper`, as [`clobber_first_def`].
    fn clobber_helper(func: &mut Function) -> bool {
        func.name == "helper" && clobber_first_def(func)
    }

    #[test]
    fn run_checked_reports_what_verify_program_reports() {
        let src = "fn main() { var y: int = 2; emit(helper(y) + y); } \
                   fn helper(a: int) -> int { var x: int = a * 3; return x + 1; }";
        let mut p = mflang::compile(src).unwrap();
        assert_eq!(p.functions[1].name, "helper");
        let pipeline = Pipeline::none()
            .rounds(1)
            .with_pass("clobber-helper", clobber_helper);
        let defect = pipeline.run_checked(&mut p).unwrap_err();
        assert_eq!((defect.pass, defect.round), ("clobber-helper", 1));
        assert_eq!(defect.func, "helper");
        let errors: Vec<Diagnostic> = mfcheck::verify_program(&p)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(!errors.is_empty());
        assert_eq!(defect.diagnostics, errors);
    }

    #[test]
    fn run_checked_rejects_defective_input() {
        let mut p = mflang::compile("fn main() { emit(7); }").unwrap();
        // Corrupt the input: read a fresh, never-defined register.
        let r = p.functions[0].new_reg();
        p.functions[0].blocks[0].instrs.push(Instr::Emit { src: r });
        let defect = Pipeline::standard().run_checked(&mut p).unwrap_err();
        assert_eq!(defect.pass, "<input>");
        assert_eq!(defect.round, 0);
    }

    #[test]
    fn a_function_that_fails_definite_init_is_checked_again() {
        // `x` is never defined, and its only read feeds a result nobody
        // uses. Round 1 refuses to fold and dead-code removes the read;
        // round 2 must check again, pass, and fold the constant branch.
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.new_reg();
        let one = f.const_int(1);
        let _unused = f.binop(BinOp::Add, x, one);
        let zero = f.const_int(0);
        let t = f.new_block();
        let e = f.new_block();
        f.branch(zero, t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.emit_value(one);
        f.ret(None);
        f.switch_to(e);
        f.ret(None);
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        let p = pb.finish("main").unwrap();
        assert!(!mfcheck::all_uses_initialized(&p.functions[0]));

        let mut one_round = p.clone();
        Pipeline::standard().rounds(1).run(&mut one_round);
        assert_eq!(one_round.static_branch_count(), 1, "round 1 must not fold");
        assert!(mfcheck::all_uses_initialized(&one_round.functions[0]));

        let mut optimized = p;
        Pipeline::standard().run(&mut optimized);
        assert_eq!(optimized.static_branch_count(), 0, "round 2 folds");
        // The branch on 0 went to its not-taken arm: the emitting arm is
        // gone.
        let blocks = &optimized.functions[0].blocks;
        assert!(
            blocks
                .iter()
                .all(|b| !b.instrs.iter().any(|i| matches!(i, Instr::Emit { .. }))),
            "{}",
            optimized.functions[0]
        );
    }

    /// A broken custom pass: copies the entry block's first definition, a
    /// constant, into a fresh register *before* that definition, and
    /// emits the copy at the end of the block. It fires while the block
    /// emits once, so only once.
    fn read_before_def(func: &mut Function) -> bool {
        let entry = &func.blocks[0];
        let emits = entry
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Emit { .. }))
            .count();
        let (1, Some(&Instr::Const { dst: src, .. })) = (emits, entry.instrs.first()) else {
            return false;
        };
        let copy = func.new_reg();
        let entry = &mut func.blocks[0];
        entry.instrs.insert(0, Instr::Mov { dst: copy, src });
        entry.instrs.push(Instr::Emit { src: copy });
        true
    }

    #[test]
    fn a_custom_pass_that_breaks_definite_init_stops_the_fold() {
        // The function passes the check before the custom pass runs in
        // round 1. Trusting it in round 2 would fold the early read of
        // `k` into `const 5`; the VM reads 0 there.
        let src = "fn main() { var k: int = 5; emit(k); }";
        let pipeline = Pipeline::standard().with_pass("read-before-def", read_before_def);
        let mut p = mflang::compile(src).unwrap();
        pipeline.run(&mut p);
        assert!(!mfcheck::all_uses_initialized(&p.functions[0]));
        let run = trace_vm::Vm::new(&p).run(&[]).unwrap();
        assert_eq!(
            run.output_ints(),
            vec![5, 0],
            "the read before the definition must stay a read:\n{}",
            p.functions[0]
        );

        let mut checked = mflang::compile(src).unwrap();
        let defect = pipeline.run_checked(&mut checked).unwrap_err();
        assert_eq!(defect.pass, "read-before-def");
        assert_eq!(defect.round, 1);
        assert!(defect
            .diagnostics
            .iter()
            .any(|d| d.code == "use-before-def"));
    }
}
