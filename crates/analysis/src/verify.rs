//! Semantic verifier: dataflow-backed diagnostics layered on top of the
//! IR's structural `Program::validate`.
//!
//! Structural validation guarantees that every reference resolves; the
//! verifier checks properties that need analysis to decide — reads of
//! registers no definition is guaranteed to reach, stores whose value can
//! never be observed, blocks no path executes, and degenerate control
//! transfers. The optimizer's `Pipeline::run_checked` runs these checks
//! between passes to attribute any regression to the pass that
//! introduced it.

use std::fmt;

use trace_ir::{BlockId, Fnv64, FuncId, Program, Terminator};

use crate::cfg::Cfg;
use crate::dataflow::{liveness, uninitialized_uses, BitSet};

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but semantics-preserving (dead store, unreachable
    /// block). Optimization passes are expected to *remove* these, and
    /// lowered-but-unoptimized code may legitimately contain them.
    Warning,
    /// A semantic defect: executing the program may observe garbage or
    /// the IR breaks a structural invariant.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One verifier finding, locatable down to the instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (`use-before-def`, `dead-store`,
    /// `unreachable-block`, `degenerate-branch`, `empty-jump-table`,
    /// `invalid-structure`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The function the finding is in, if attributable.
    pub func: Option<String>,
    /// The block, if attributable.
    pub block: Option<BlockId>,
    /// The instruction index within the block; `None` with a `block`
    /// means the finding is on the terminator.
    pub instr: Option<usize>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(func) = &self.func {
            write!(f, "\n  --> fn {func}")?;
            if let Some(block) = self.block {
                write!(f, ", {block}")?;
                match self.instr {
                    Some(i) => write!(f, ", instr {i}")?,
                    None => write!(f, ", terminator")?,
                }
            }
        }
        Ok(())
    }
}

/// True when no diagnostic in `diags` is an [`Severity::Error`].
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    !diags.iter().any(|d| d.severity == Severity::Error)
}

/// Runs the semantic checks over one function.
///
/// `func_id` selects the function inside `program`; the program is needed
/// for its name table only. Assumes the program already passed structural
/// validation — out-of-range references may panic here.
pub fn verify_function(program: &Program, func_id: FuncId) -> Vec<Diagnostic> {
    let func = &program.functions[func_id.index()];
    let cfg = Cfg::new(func);
    let mut diags = Vec::new();

    // Use-before-def: a read no definition is guaranteed to reach. The VM
    // would hand such a read a default value, silently diverging from
    // source semantics, so this is an error.
    for u in uninitialized_uses(func, &cfg) {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "use-before-def",
            message: format!("{} is read before any definition reaches it", u.reg),
            func: Some(func.name.clone()),
            block: Some(u.block),
            instr: u.instr,
        });
    }

    // Unreachable blocks: no path from the entry executes them.
    for (bi, _) in func.iter_blocks() {
        if !cfg.is_reachable(bi) {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "unreachable-block",
                message: format!("{bi} is unreachable from the entry block"),
                func: Some(func.name.clone()),
                block: Some(bi),
                instr: None,
            });
        }
    }

    // Dead stores: side-effect-free definitions whose value no later use
    // can observe. Backward scan per reachable block from live-out.
    let live = liveness(func, &cfg);
    let mut live_now = BitSet::empty(func.num_regs as usize);
    for &bi in cfg.rpo() {
        let block = &func.blocks[bi.index()];
        live_now.clone_from(&live.live_out[bi.index()]);
        block.term.for_each_use(|r| {
            live_now.insert(r.index());
        });
        for (ii, instr) in block.instrs.iter().enumerate().rev() {
            if let Some(dst) = instr.dst() {
                if !live_now.contains(dst.index()) && !instr.has_side_effects() {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        code: "dead-store",
                        message: format!("{dst} is written but never read"),
                        func: Some(func.name.clone()),
                        block: Some(bi),
                        instr: Some(ii),
                    });
                }
                live_now.remove(dst.index());
            }
            instr.for_each_use(|r| {
                live_now.insert(r.index());
            });
        }
    }

    // Terminator invariants.
    for (bi, block) in func.iter_blocks() {
        match &block.term {
            Terminator::Branch {
                taken, not_taken, ..
            } if taken == not_taken => {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "degenerate-branch",
                    message: format!("both branch targets are {taken}; should be a jump"),
                    func: Some(func.name.clone()),
                    block: Some(bi),
                    instr: None,
                });
            }
            Terminator::JumpTable { targets, .. } if targets.is_empty() => {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "empty-jump-table",
                    message: "jump table has no targets; should be a jump to the default"
                        .to_string(),
                    func: Some(func.name.clone()),
                    block: Some(bi),
                    instr: None,
                });
            }
            _ => {}
        }
    }

    diags
}

/// Runs structural validation and then the semantic checks over every
/// function of `program`.
///
/// A structural failure produces a single `invalid-structure` error and
/// short-circuits — the dataflow analyses assume resolvable references.
pub fn verify_program(program: &Program) -> Vec<Diagnostic> {
    if let Err(e) = program.validate() {
        return vec![Diagnostic {
            severity: Severity::Error,
            code: "invalid-structure",
            message: e.to_string(),
            func: None,
            block: None,
            instr: None,
        }];
    }
    let mut diags = Vec::new();
    for i in 0..program.functions.len() {
        diags.extend(verify_function(program, FuncId::from_index(i)));
    }
    diags
}

/// FNV-1a offset basis — the digest of a diagnostic-free program.
pub const CLEAN_DIGEST: u64 = Fnv64::new().finish();

/// A stable fingerprint of a program's verification result: FNV-1a over
/// the rendered diagnostics. [`CLEAN_DIGEST`] for a clean program; equal
/// digests mean equal findings, so the harness can cache-compare
/// verification outcomes across runs.
pub fn verify_digest(program: &Program) -> u64 {
    let mut hash = Fnv64::new();
    for d in verify_program(program) {
        hash.write(d.to_string().as_bytes());
        hash.write(b"\n");
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::BranchKind;

    fn build(f: FunctionBuilder) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        pb.finish("f").unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_straight_line_function_verifies() {
        let mut f = FunctionBuilder::new("f", 1);
        f.emit_value(f.param(0));
        f.ret(None);
        let p = build(f);
        let diags = verify_program(&p);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert!(is_clean(&diags));
        assert_eq!(verify_digest(&p), CLEAN_DIGEST);
    }

    #[test]
    fn catches_use_before_def_on_one_path() {
        // x is initialized only in the true arm but read at the join.
        let mut f = FunctionBuilder::new("f", 1);
        let t = f.new_block();
        let e = f.new_block();
        let join = f.new_block();
        f.branch(f.param(0), t, e, 1, BranchKind::If);
        f.switch_to(t);
        let x = f.new_reg();
        let one = f.const_int(1);
        f.mov_to(x, one);
        f.jump(join);
        f.switch_to(e);
        f.jump(join);
        f.switch_to(join);
        f.emit_value(x);
        f.ret(None);
        let p = build(f);
        let diags = verify_program(&p);
        assert!(!is_clean(&diags));
        let ubd: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "use-before-def")
            .collect();
        assert_eq!(ubd.len(), 1);
        assert_eq!(ubd[0].severity, Severity::Error);
        assert_eq!(ubd[0].block, Some(BlockId(3)));
        assert_eq!(ubd[0].instr, Some(0));
        let rendered = ubd[0].to_string();
        assert!(rendered.contains("error[use-before-def]"), "{rendered}");
        assert!(rendered.contains("fn f, bb3, instr 0"), "{rendered}");
        assert_ne!(verify_digest(&p), CLEAN_DIGEST);
    }

    #[test]
    fn warns_on_dead_store_and_unreachable_block() {
        let mut f = FunctionBuilder::new("f", 1);
        let x = f.const_int(5); // never read
        let dead = f.new_block();
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        let p = build(f);
        let diags = verify_program(&p);
        assert!(is_clean(&diags), "warnings only: {diags:?}");
        assert!(codes(&diags).contains(&"dead-store"));
        assert!(codes(&diags).contains(&"unreachable-block"));
        let ds = diags.iter().find(|d| d.code == "dead-store").unwrap();
        assert!(ds.message.contains(&x.to_string()));
    }

    #[test]
    fn warns_on_degenerate_branch() {
        let mut f = FunctionBuilder::new("f", 1);
        let next = f.new_block();
        f.branch(f.param(0), next, next, 1, BranchKind::If);
        f.switch_to(next);
        f.ret(None);
        let p = build(f);
        let diags = verify_program(&p);
        assert!(is_clean(&diags));
        assert!(codes(&diags).contains(&"degenerate-branch"));
    }

    #[test]
    fn invalid_structure_short_circuits() {
        // Build by hand with an out-of-range register.
        let mut p = build({
            let mut f = FunctionBuilder::new("f", 0);
            f.ret(None);
            f
        });
        p.functions[0].blocks[0].instrs.push(trace_ir::Instr::Emit {
            src: trace_ir::Reg(99),
        });
        let diags = verify_program(&p);
        assert_eq!(codes(&diags), vec!["invalid-structure"]);
        assert!(!is_clean(&diags));
    }

    #[test]
    fn compiled_programs_have_no_errors() {
        let src = "fn main(n: int) {\n\
                   var acc: int = 0;\n\
                   for (var i: int = 0; i < n; i = i + 1) {\n\
                   if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }\n\
                   }\n\
                   emit(acc);\n\
                   }\n";
        let p = mflang::compile(src).expect("compiles");
        let diags = verify_program(&p);
        assert!(
            is_clean(&diags),
            "lowered code must be error-free: {diags:?}"
        );
    }
}
