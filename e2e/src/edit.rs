//! `edit-compile`: the developer loop over a seeded stream of source
//! edits. Each edit is applied to one suite program's source and then
//! compiled, optimized, verified, fingerprinted, remapped against the
//! program's prior profile, given static-tier predictions for its degraded
//! sites, flattened along the remapped profile, and run flat against the
//! reference backend under a small fuel limit.
//!
//! Passes are stratified: every pass edits every program with every edit
//! kind the same number of times, so a pass costs about the same whatever
//! the seed picks inside it.

use std::collections::BTreeMap;

use mfopt::Pipeline;
use trace_ir::BranchId;
use trace_vm::{BranchCounts, FlatProgram, Input, VmConfig};

use crate::replay::{check_backends, flat_config, ReplayProgram};
use crate::{bump, golden, mix, Ctx, PassOutcome, Workload};

/// Each program's dataset with the fewest guest instructions: the prior
/// profile is recorded from it, and the check runs use its inputs.
const SMALLEST: [(&str, &str); 15] = [
    ("spice2g6", "circuit2"),
    ("doduc", "tiny"),
    ("nasa7", "ref"),
    ("matrix300", "ref"),
    ("fpppp", "4atoms"),
    ("tomcatv", "ref"),
    ("lfk", "ref"),
    ("gcc", "string_mod"),
    ("espresso", "ti"),
    ("li", "kittyv"),
    ("eqntott", "add4"),
    ("compress", "cmprssc"),
    ("uncompress", "cmprssc"),
    ("mfcom", "fortran_metric"),
    ("spiff", "case3"),
];

/// Edits per (program, kind) cell in one pass.
const VARIANTS: usize = 9;
/// Passes in the stream before it wraps: 10 × 405 = 4,050 edits.
const STREAM_PASSES: usize = 10;
/// Quick scale: fewer variants over the quick programs, 2 × 54 edits.
const QUICK_VARIANTS: usize = 6;

/// Comparison operators a flip edit turns into their neighbour.
const FLIPS: [(&str, &str); 6] = [
    (" <= ", " < "),
    (" >= ", " > "),
    (" < ", " <= "),
    (" > ", " >= "),
    (" == ", " != "),
    (" != ", " == "),
];

/// One program the stream edits, with its prior profile.
struct Target {
    name: &'static str,
    source: String,
    /// Functions other than `main`.
    fns: Vec<String>,
    /// Byte offset and `FLIPS` index of every comparison operator.
    cmps: Vec<(usize, usize)>,
    prior: Vec<(BranchId, u64, u64)>,
    prior_fps: BTreeMap<BranchId, u64>,
    inputs: Vec<Input>,
    config: VmConfig,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Append,
    Rename,
    Flip,
}

/// One edit of the stream.
#[derive(Clone, Copy, Debug)]
struct Edit {
    target: usize,
    kind: Kind,
    /// Picks the function, the comparison, or the appended name.
    pick: u64,
}

/// The edit-compile workload.
#[derive(Default)]
pub struct EditCompile {
    targets: Vec<Target>,
    stream: Vec<Edit>,
    pass_len: usize,
}

/// The text inside the source's string literals.
fn string_literals(source: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = source;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let mut close = None;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => {
                    close = Some(i);
                    break;
                }
                _ => escaped = false,
            }
        }
        let Some(close) = close else { break };
        out.push(&body[..close]);
        rest = &body[close + 1..];
    }
    out
}

/// Functions other than `main` a rename may target. `rename_fn` also
/// rewrites string literals, so a name that occurs in one (li's builtin
/// table names `cons`, `car` and `cdr`) would make the rename change the
/// program's behaviour; those are left out.
fn function_names(source: &str) -> Vec<String> {
    let literals = string_literals(source);
    let in_literal = |name: &str| {
        literals.iter().any(|l| {
            l.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .any(|w| w == name)
        })
    };
    let mut out = Vec::new();
    for (at, _) in source.match_indices("fn ") {
        if at > 0 && !matches!(source.as_bytes()[at - 1], b'\n' | b' ' | b'}') {
            continue;
        }
        let rest = &source[at + 3..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty()
            && name != "main"
            && rest[name.len()..].trim_start().starts_with('(')
            && !in_literal(&name)
        {
            out.push(name);
        }
    }
    out.sort();
    out.dedup();
    out
}

fn comparisons(source: &str) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = FLIPS
        .iter()
        .enumerate()
        .flat_map(|(i, (op, _))| source.match_indices(op).map(move |(at, _)| (at, i)))
        .collect();
    out.sort_unstable();
    out
}

impl Target {
    fn new(w: &mfwork::Workload, dataset: &str) -> Result<Self, String> {
        let d = w
            .dataset(dataset)
            .ok_or_else(|| format!("{}: no dataset {dataset}", w.name))?;
        let program = w.compile().map_err(|e| format!("{}: {e}", w.name))?;
        let config = flat_config(w);
        let run = FlatProgram::compile(&program)
            .run(config, &d.inputs)
            .map_err(|e| format!("{}/{dataset}: {e}", w.name))?;
        Ok(Target {
            name: w.name,
            fns: function_names(&w.source),
            cmps: comparisons(&w.source),
            source: w.source.clone(),
            prior: run.stats.branches.iter().collect(),
            prior_fps: mfstale::site_fingerprints(&program),
            inputs: d.inputs.clone(),
            config,
        })
    }

    /// The edit in words, for failure messages.
    fn describe(&self, edit: Edit) -> String {
        match edit.kind {
            Kind::Append => format!("append e2e_added_{}", edit.pick),
            Kind::Rename => format!("rename {}", self.fns[edit.pick as usize % self.fns.len()]),
            Kind::Flip => {
                let (at, i) = self.cmps[edit.pick as usize % self.cmps.len()];
                format!("flip '{}' at byte {at}", FLIPS[i].0.trim())
            }
        }
    }

    fn apply(&self, edit: Edit) -> String {
        match edit.kind {
            Kind::Append => {
                let k = 3 + edit.pick % 7;
                mfstale::edit::append_fn(
                    &self.source,
                    &format!(
                        "fn e2e_added_{}(m: int) -> int {{\n    if (m > {k}) {{ emit(m); return m - {k}; }}\n    return m + 1;\n}}",
                        edit.pick
                    ),
                )
            }
            Kind::Rename => {
                let old = &self.fns[edit.pick as usize % self.fns.len()];
                mfstale::edit::rename_fn(&self.source, old, &format!("{old}_e{}", edit.pick))
            }
            Kind::Flip => {
                let (at, i) = self.cmps[edit.pick as usize % self.cmps.len()];
                let (from, to) = FLIPS[i];
                format!(
                    "{}{to}{}",
                    &self.source[..at],
                    &self.source[at + from.len()..]
                )
            }
        }
    }
}

/// What went wrong with one edit, if anything; `counts` collects the
/// remap tallies.
fn one_edit(ctx: &Ctx, t: &Target, edit: Edit, counts: &mut crate::Counts) -> Option<String> {
    let tr = ctx.tracer;
    let source = {
        let _span = tr.span_with("stale.edit", || format!("{}: {}", t.name, t.describe(edit)));
        t.apply(edit)
    };
    let program = {
        let _span = tr.span("lang.compile");
        mflang::compile(&source)
    };
    let program = match program {
        Ok(p) => p,
        Err(e) => return Some(format!("does not compile: {e}")),
    };
    let mut optimized = program.clone();
    {
        let _span = tr.span("opt.pipeline");
        Pipeline::standard().run(&mut optimized);
    }
    let errors = {
        let _span = tr.span("analysis.verify");
        mfcheck::verify_program(&optimized)
            .into_iter()
            .filter(|d| d.severity == mfcheck::Severity::Error)
            .count()
    };
    let fps = {
        let _span = tr.span("stale.fingerprint");
        mfstale::site_fingerprints(&program)
    };
    let remap = {
        let _span = tr.span("stale.remap");
        mfstale::remap_counts(&t.prior, &t.prior_fps, &fps)
    };
    let tier = {
        let _span = tr.span("predict.static_tier");
        mfpredict::static_tier_profile(&program, &remap.degraded)
    };
    let profile: BranchCounts = remap.counts.iter().copied().chain(tier).collect();
    let flat = {
        let _span = tr.span("vm.flat_compile");
        FlatProgram::compile_with_profile(&program, &profile)
    };
    let mismatch = {
        let _span = tr.span("vm.check_exec");
        check_backends(&program, &flat, t.config, &t.inputs)
    };
    let r = remap.report;
    bump(counts, "stale.salvaged", r.salvaged as f64);
    bump(counts, "stale.degraded", r.degraded as f64);
    bump(counts, "stale.orphaned", r.orphaned as f64);
    if errors > 0 {
        return Some(format!("verifier reports {errors} errors"));
    }
    if r.matched + r.salvaged + r.orphaned != t.prior.len() {
        return Some(format!("remap lost entries: {r}"));
    }
    // A rename moves no site, so the remap must keep every count.
    if matches!(edit.kind, Kind::Rename) && (r.orphaned > 0 || r.degraded > 0) {
        return Some(format!("rename did not salvage every site: {r}"));
    }
    mismatch
}

impl Workload for EditCompile {
    fn setup(&mut self, ctx: &Ctx, _index: usize) -> Result<(), String> {
        let (names, variants): (Vec<&str>, usize) = if ctx.quick {
            (golden::QUICK_PROGRAMS.to_vec(), QUICK_VARIANTS)
        } else {
            (SMALLEST.iter().map(|(n, _)| *n).collect(), VARIANTS)
        };
        let suite = mfwork::suite();
        self.targets = SMALLEST
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|(name, dataset)| {
                let w = suite
                    .iter()
                    .find(|w| w.name == *name)
                    .ok_or_else(|| format!("{name} is not in the suite"))?;
                Target::new(w, dataset)
            })
            .collect::<Result<_, _>>()?;
        let mut rng = ctx.seed ^ 0xED17_C0DE;
        self.pass_len = self.targets.len() * 3 * variants;
        let passes = if ctx.quick { 2 } else { STREAM_PASSES };
        self.stream.clear();
        for _ in 0..passes * variants {
            for target in 0..self.targets.len() {
                for kind in [Kind::Append, Kind::Rename, Kind::Flip] {
                    let kind = match kind {
                        Kind::Rename if self.targets[target].fns.is_empty() => Kind::Append,
                        Kind::Flip if self.targets[target].cmps.is_empty() => Kind::Append,
                        k => k,
                    };
                    let pick = mix(&mut rng) >> 16;
                    self.stream.push(Edit { target, kind, pick });
                }
            }
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, n: u32) -> PassOutcome {
        let passes = self.stream.len() / self.pass_len;
        let first = (n as usize % passes) * self.pass_len;
        let edits = &self.stream[first..first + self.pass_len];
        let mut counts = crate::Counts::new();
        let failures = edits
            .iter()
            .filter_map(|&e| {
                let t = &self.targets[e.target];
                ctx.step(|| one_edit(ctx, t, e, &mut counts))
                    .map(|why| format!("{}: {}: {why}", t.name, t.describe(e)))
            })
            .collect();
        PassOutcome {
            ops: edits.len() as u64,
            failures,
            counts,
        }
    }

    fn replay_set(&self, _ctx: &Ctx) -> Vec<ReplayProgram> {
        let suite = mfwork::suite();
        self.targets
            .iter()
            .filter_map(|t| {
                let w = suite.iter().find(|w| w.name == t.name)?;
                let dataset = SMALLEST.iter().find(|(n, _)| *n == t.name)?.1;
                Some(ReplayProgram::of(w, |d| d == dataset))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_scans_find_functions_and_comparisons() {
        let src = "fn helper(x: int) -> int { if (x < 3) { return 1; } return x; }\n\
                   fn named(x: int) -> int { return x; }\n\
                   fn main(n: int) { var s: [int] = \"a \\\" named\"; if (n >= 2) { emit(helper(n)); } }";
        assert_eq!(function_names(src), vec!["helper".to_string()]);
        let cmps = comparisons(src);
        assert_eq!(cmps.len(), 2);
        assert_eq!(FLIPS[cmps[0].1].0, " < ");
        assert_eq!(FLIPS[cmps[1].1].0, " >= ");
    }
}
