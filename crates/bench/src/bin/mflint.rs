//! `mflint`: the standalone lint driver over the `mfcheck` analysis stack.
//!
//! ```text
//! mflint examples/branch_mix.mf          # compile + semantic verification
//! mflint --suite                         # lint every bundled workload
//! mflint prog.mf --pipeline              # also verify between opt passes
//! mflint prog.mf --profile counts.txt    # check a profile against prog
//! mflint --profile counts.txt            # internal profile consistency only
//! ```
//!
//! Sources are `.mf` guest programs. Profiles are either the raw counter
//! format (`br<id> <executed> <taken>` per line, `#` comments) or `!MF!
//! IFPROB` directive text; directive files need exactly one source so the
//! branch keys can be resolved.
//!
//! Raw profiles may carry structural site fingerprints as `# fp br<id>
//! <hex>` comment lines (legacy parsers skip them as comments). With
//! fingerprints and exactly one source program, the profile is remapped
//! onto the program by `mfstale` before site checking: counts recorded
//! against an older program version salvage onto their surviving sites,
//! and the skew is reported as `warning[profile-version-skew]` instead of
//! a spray of `corrupt-profile` unknown-site errors.
//!
//! Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
//! or I/O errors.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ifprob::directives;
use mfcheck::{verify_digest, verify_program, Diagnostic, Severity};
use mfopt::Pipeline;
use mfpredict::Proof;
use mfreport::json::Json;
use trace_ir::Program;
use trace_vm::{Backend, GuestValue, Input, Recorder, Run, Vm, VmConfig};

const USAGE: &str = "\
usage: mflint [FILE.mf ...] [OPTION...]

options:
  --suite             lint every bundled workload program as well
  --pipeline          run the standard optimization pipeline with
                      inter-pass verification; a defective pass is a
                      finding, named in the report
  --profile PATH      check a branch profile: raw `br<id> <executed>
                      <taken>` lines or `!MF! IFPROB` directive text
                      (directives require exactly one source program).
                      Raw profiles with `# fp br<id> <hex>` fingerprint
                      comments are version-skew remapped onto the source
                      program first; skew is a warning, not corruption
  --backend NAME      also execute every linted program on the NAME VM
                      backend ('reference' or 'flat') and diff all
                      observables against the other backend; any
                      divergence is an error[backend-diff] finding.
                      Inputs come from a `// mffuzz-inputs:` header
                      (files), the bundled datasets (--suite), or
                      default to zeros
  --deny-warnings     treat warnings as findings
  --json-metrics PATH write a machine-readable summary (programs checked,
                      error/warning totals, per-code diagnostic counts,
                      per-program verification digests) as JSON to PATH
  -h, --help          this message

exit status: 0 clean, 1 findings, 2 usage/IO error";

struct Options {
    files: Vec<PathBuf>,
    suite: bool,
    pipeline: bool,
    profile: Option<PathBuf>,
    backend: Option<Backend>,
    deny_warnings: bool,
    json_metrics: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        files: Vec::new(),
        suite: false,
        pipeline: false,
        profile: None,
        backend: None,
        deny_warnings: false,
        json_metrics: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--suite" => options.suite = true,
            "--pipeline" => options.pipeline = true,
            "--deny-warnings" => options.deny_warnings = true,
            "--json-metrics" => match iter.next() {
                Some(v) => options.json_metrics = Some(PathBuf::from(v)),
                None => return Err("--json-metrics requires a path".to_string()),
            },
            "--profile" => match iter.next() {
                Some(v) => options.profile = Some(PathBuf::from(v)),
                None => return Err("--profile requires a path".to_string()),
            },
            "--backend" => match iter.next() {
                Some(v) => options.backend = Some(v.parse()?),
                None => return Err("--backend requires 'reference' or 'flat'".to_string()),
            },
            _ if arg.starts_with('-') => return Err(format!("unknown flag '{arg}'")),
            _ => options.files.push(PathBuf::from(arg)),
        }
    }
    if options.files.is_empty() && !options.suite && options.profile.is_none() {
        return Err("nothing to lint: pass FILE.mf, --suite, or --profile".to_string());
    }
    Ok(Some(options))
}

/// A linted program: where it came from plus its compiled IR, and — for
/// the `--backend` differential — the inputs and VM limits to execute it
/// under.
struct Linted {
    origin: String,
    program: Program,
    input_sets: Vec<Vec<Input>>,
    vm_config: VmConfig,
}

/// Input sets for a lint-level execution of a source file: the corpus
/// `// mffuzz-inputs:` header when present (sets separated by `|`, each a
/// whitespace-separated integer list), otherwise one all-zero set sized
/// to the entry function's arity.
fn file_input_sets(source: &str, program: &Program) -> Vec<Vec<Input>> {
    const MARKER: &str = "// mffuzz-inputs:";
    if let Some(header) = source.lines().next().and_then(|l| l.strip_prefix(MARKER)) {
        let sets: Vec<Vec<Input>> = header
            .split('|')
            .map(|set| {
                set.split_whitespace()
                    .filter_map(|w| w.parse().ok())
                    .map(Input::Int)
                    .collect()
            })
            .collect();
        if !sets.is_empty() {
            return sets;
        }
    }
    let arity = program.functions[program.entry.index()].num_params as usize;
    vec![vec![Input::Int(0); arity]]
}

/// Running totals across everything linted, broken down by diagnostic
/// code so `--json-metrics` can report where the findings came from.
#[derive(Default)]
struct Findings {
    errors: usize,
    warnings: usize,
    per_code: BTreeMap<&'static str, usize>,
}

impl Findings {
    fn count(&mut self, diagnostics: &[Diagnostic]) {
        for d in diagnostics {
            match d.severity {
                Severity::Error => self.errors += 1,
                Severity::Warning => self.warnings += 1,
            }
            *self.per_code.entry(d.code).or_default() += 1;
        }
    }

    fn error(&mut self, code: &'static str) {
        self.errors += 1;
        *self.per_code.entry(code).or_default() += 1;
    }

    fn warning(&mut self, code: &'static str) {
        self.warnings += 1;
        *self.per_code.entry(code).or_default() += 1;
    }

    fn fail(&self, deny_warnings: bool) -> bool {
        self.errors > 0 || (deny_warnings && self.warnings > 0)
    }
}

fn report(origin: &str, diagnostics: &[Diagnostic]) {
    for d in diagnostics {
        println!("{origin}: {d}");
    }
}

fn lint_program(
    linted: &Linted,
    pipeline: bool,
    backend: Option<Backend>,
    findings: &mut Findings,
) {
    let diagnostics = verify_program(&linted.program);
    report(&linted.origin, &diagnostics);
    findings.count(&diagnostics);
    predict_lints(linted, &diagnostics, findings);

    if pipeline {
        let mut optimized = linted.program.clone();
        if let Err(defect) = Pipeline::standard().run_checked(&mut optimized) {
            println!("{}: error[pass-defect]: {defect}", linted.origin);
            findings.error("pass-defect");
        }
    }

    if let Some(backend) = backend {
        backend_diff(linted, backend, findings);
    }
}

/// Warnings derived from the `mfpredict` interval abstract interpreter:
/// branch directions the analysis proves constant, blocks it proves
/// unreachable, and divisions it proves always trap. Proofs quantify
/// over every possible execution, so each of these marks source the
/// author probably did not mean to write.
fn predict_lints(linted: &Linted, diagnostics: &[Diagnostic], findings: &mut Findings) {
    // Proofs assume the IR is semantically well-formed; a program the
    // verifier rejects gets no interval-based advice.
    if diagnostics.iter().any(|d| d.severity == Severity::Error) {
        return;
    }
    let p = &linted.program;
    let analysis = mfpredict::analyze(p);
    for (&id, &proof) in &analysis.proofs {
        let direction = match proof {
            Proof::AlwaysTaken => "always",
            Proof::NeverTaken => "never",
            Proof::Unknown => continue,
        };
        let code = match proof {
            Proof::AlwaysTaken => "branch-always-taken",
            _ => "branch-never-taken",
        };
        let info = &p.branch_info[id.index()];
        let func = &p.functions[info.func.index()].name;
        let at = if info.line > 0 {
            format!("line {}", info.line)
        } else {
            "synthetic".to_string()
        };
        println!(
            "{}: warning[{code}]: interval analysis proves {id} \
             (fn {func}, {at}) is {direction} taken",
            linted.origin
        );
        findings.warning(code);
    }
    for &(f, b) in &analysis.dead_blocks {
        let func = &p.functions[f.index()].name;
        println!(
            "{}: warning[provably-dead-block]: interval analysis proves \
             {b} in fn {func} can never execute",
            linted.origin
        );
        findings.warning("provably-dead-block");
    }
    for &(f, b) in &analysis.div_by_zero {
        let func = &p.functions[f.index()].name;
        println!(
            "{}: warning[provable-div-by-zero]: interval analysis proves \
             the divisor in {b} of fn {func} is always zero (the block \
             traps whenever it executes)",
            linted.origin
        );
        findings.warning("provable-div-by-zero");
    }
}

/// Bit-level value equality: floats compare by bit pattern so NaN payloads
/// and signed zeros count as observable.
fn values_eq(a: &[GuestValue], b: &[GuestValue]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (GuestValue::Float(x), GuestValue::Float(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

/// What diverged between two runs of the same program and their recorded
/// event streams, if anything.
fn run_divergence((a, ra): (&Run, &Recorder), (b, rb): (&Run, &Recorder)) -> Option<&'static str> {
    if !values_eq(&a.output, &b.output) {
        return Some("emitted output differs");
    }
    match (&a.result, &b.result) {
        (Some(x), Some(y)) if values_eq(std::slice::from_ref(x), std::slice::from_ref(y)) => {}
        (None, None) => {}
        _ => return Some("entry return value differs"),
    }
    if a.stats != b.stats {
        return Some("run statistics differ");
    }
    if ra != rb {
        return Some("recorded branch or edge stream differs");
    }
    None
}

/// Executes the linted program on `backend` and on the other backend with
/// the same inputs, and reports any observable divergence — the two
/// engines are required to be bit-identical, so a difference is a VM bug,
/// not a program bug.
fn backend_diff(linted: &Linted, backend: Backend, findings: &mut Findings) {
    let other = match backend {
        Backend::Reference => Backend::Flat,
        Backend::Flat => Backend::Reference,
    };
    for (si, inputs) in linted.input_sets.iter().enumerate() {
        let run_on = |b: Backend| {
            let config = VmConfig {
                backend: b,
                ..linted.vm_config
            };
            let mut recorder = Recorder::default();
            let run = Vm::with_config(&linted.program, config).run_observed(inputs, &mut recorder);
            run.map(|run| (run, recorder))
        };
        let divergence = match (run_on(backend), run_on(other)) {
            (Ok((a, ra)), Ok((b, rb))) => run_divergence((&a, &ra), (&b, &rb)),
            (Err(a), Err(b)) => (a != b).then_some("runtime errors differ"),
            (Ok(_), Err(_)) => Some("one backend faults, the other completes"),
            (Err(_), Ok(_)) => Some("one backend faults, the other completes"),
        };
        if let Some(what) = divergence {
            println!(
                "{}: error[backend-diff]: input set {si}: {what} between the \
                 {} and {} backends",
                linted.origin,
                backend.name(),
                other.name()
            );
            findings.error("backend-diff");
        }
    }
}

/// Checks a profile's internal consistency, and its branch sites against
/// `program` when one is available.
fn lint_profile(
    path: &std::path::Path,
    text: &str,
    program: Option<&Linted>,
    findings: &mut Findings,
) {
    let origin = path.display();

    // Directive text carries the IFPROB marker; it can only be resolved
    // against a program's source-level branch keys.
    if text.contains(directives::MARKER) {
        let Some(linted) = program else {
            println!(
                "{origin}: error[profile-needs-program]: directive profiles require \
                 exactly one source program to resolve branch keys"
            );
            findings.error("profile-needs-program");
            return;
        };
        match directives::parse_directives(&linted.program, text) {
            Ok(counts) => {
                let entries: Vec<_> = counts.iter().collect();
                check_entries_against(&origin, &entries, Some(&linted.program), findings);
            }
            Err(e) => {
                println!("{origin}: error[bad-directive]: {e}");
                findings.error("bad-directive");
            }
        }
        return;
    }

    match mfcheck::parse_raw_profile(text) {
        Ok(entries) => {
            let old_fps = parse_fp_comments(text);
            if let (Some(linted), false) = (program, old_fps.is_empty()) {
                // Fingerprinted profile against a known program: remap
                // across any version skew before site checking, so a
                // profile recorded against an older program version is
                // reported as skew, not corruption.
                let new_fps = mfstale::site_fingerprints(&linted.program);
                let remapped = mfstale::remap_counts(&entries, &old_fps, &new_fps);
                let r = &remapped.report;
                if !r.is_identity() {
                    println!(
                        "{origin}: warning[profile-version-skew]: profile predates \
                         this program version: {} matched, {} salvaged by \
                         fingerprint, {} orphaned (counts dropped), {} degraded \
                         site{} fall back to the static tier",
                        r.matched,
                        r.salvaged,
                        r.orphaned,
                        r.degraded,
                        if r.degraded == 1 { "" } else { "s" },
                    );
                    findings.warning("profile-version-skew");
                }
                check_entries_against(&origin, &remapped.counts, Some(&linted.program), findings);
            } else {
                check_entries_against(&origin, &entries, program.map(|l| &l.program), findings);
            }
        }
        Err(e) => {
            println!("{origin}: error[bad-profile]: {e}");
            findings.error("bad-profile");
        }
    }
}

/// Extracts `# fp br<id> <hex>` fingerprint comment lines from raw
/// profile text. Anything else — including malformed fingerprint
/// comments — is an ordinary comment and is skipped, keeping the format
/// fully backward compatible.
fn parse_fp_comments(text: &str) -> BTreeMap<trace_ir::BranchId, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("# fp br") else {
            continue;
        };
        let mut words = rest.split_whitespace();
        let (Some(id), Some(fp), None) = (words.next(), words.next(), words.next()) else {
            continue;
        };
        let Ok(id) = id.parse::<u32>() else { continue };
        let fp = fp.strip_prefix("0x").unwrap_or(fp);
        let Ok(fp) = u64::from_str_radix(fp, 16) else {
            continue;
        };
        out.insert(trace_ir::BranchId(id), fp);
    }
    out
}

fn check_entries_against(
    origin: &std::path::Display,
    entries: &[(trace_ir::BranchId, u64, u64)],
    program: Option<&Program>,
    findings: &mut Findings,
) {
    let issues = match program {
        Some(p) => mfcheck::check_against_program(p, entries),
        None => mfcheck::check_entries(entries),
    };
    for issue in &issues {
        println!("{origin}: error[corrupt-profile]: {issue}");
        findings.error("corrupt-profile");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("mflint: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut findings = Findings::default();
    let mut linted: Vec<Linted> = Vec::new();

    for path in &options.files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mflint: reading {} failed: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match mflang::compile(&source) {
            Ok(program) => {
                let input_sets = file_input_sets(&source, &program);
                linted.push(Linted {
                    origin: path.display().to_string(),
                    program,
                    input_sets,
                    vm_config: VmConfig::default(),
                });
            }
            Err(e) => {
                println!("{}: error[compile]: {e}", path.display());
                findings.error("compile");
            }
        }
    }

    // File programs are the profile-resolution candidates; the suite rides
    // along for verification only.
    let file_programs = linted.len();
    if options.suite {
        for w in mfwork::suite() {
            match w.compile() {
                Ok(program) => linted.push(Linted {
                    origin: format!("workload `{}`", w.name),
                    program,
                    input_sets: w.datasets.iter().map(|d| d.inputs.clone()).collect(),
                    vm_config: w.vm_config(),
                }),
                Err(e) => {
                    println!("workload `{}`: error[compile]: {e}", w.name);
                    findings.error("compile");
                }
            }
        }
    }

    for l in &linted {
        lint_program(l, options.pipeline, options.backend, &mut findings);
    }

    if let Some(path) = &options.profile {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mflint: reading {} failed: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let resolve_against = if file_programs == 1 {
            Some(&linted[0])
        } else {
            None
        };
        lint_profile(path, &text, resolve_against, &mut findings);
    }

    println!(
        "mflint: {} program{} checked, {} error{}, {} warning{}",
        linted.len(),
        if linted.len() == 1 { "" } else { "s" },
        findings.errors,
        if findings.errors == 1 { "" } else { "s" },
        findings.warnings,
        if findings.warnings == 1 { "" } else { "s" },
    );
    if let Some(path) = &options.json_metrics {
        if let Err(e) = std::fs::write(path, metrics_json(&linted, &findings).render()) {
            eprintln!("mflint: writing {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote lint metrics to {}", path.display());
    }
    if findings.fail(options.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `--json-metrics` body: totals, per-code diagnostic counts (sorted
/// by code, so the key order is stable), and each linted program's
/// verification digest as a hex string — the same digest `repro
/// --verify-each` stamps on run records, so a lint run and a collection
/// run over the same program can be cross-checked.
fn metrics_json(linted: &[Linted], findings: &Findings) -> Json {
    let codes = findings.per_code.iter().map(|(&code, &n)| (code, n.into()));
    let programs = linted.iter().map(|l| {
        let digest = format!("{:#018x}", verify_digest(&l.program));
        Json::object([
            ("origin", l.origin.as_str().into()),
            ("verify_digest", digest.into()),
        ])
    });
    Json::object([
        ("tool", "mflint".into()),
        ("programs_checked", linted.len().into()),
        ("errors", findings.errors.into()),
        ("warnings", findings.warnings.into()),
        ("diagnostics", Json::object(codes)),
        ("programs", Json::array(programs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_comments_parse_and_malformed_lines_stay_comments() {
        let text = "\
# ordinary comment
# fp br0 0x1f
# fp br3 2A
br0 10 4
# fp br1 not-hex
# fp br2
# fp brX 10
# fp br4 10 extra
";
        let fps = parse_fp_comments(text);
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[&trace_ir::BranchId(0)], 0x1f);
        assert_eq!(fps[&trace_ir::BranchId(3)], 0x2a);
    }

    #[test]
    fn fingerprinted_profile_remaps_across_a_deleted_function() {
        // v1 has a dead function ahead of main; v2 deletes it, shifting
        // every branch id. With fingerprints the counts salvage; without
        // them the stale ids would be unknown-site corruption.
        let v1 = "\
fn dead(z: int) -> int {
    if (z > 100) { emit(z); return 1; }
    return 0;
}
fn main(n: int) {
    for (var i: int = 0; i < n; i = i + 1) {
        if (i < 3) { emit(i); } else { emit(0 - i); }
    }
}
";
        let v2 = "\
fn main(n: int) {
    for (var i: int = 0; i < n; i = i + 1) {
        if (i < 3) { emit(i); } else { emit(0 - i); }
    }
}
";
        let p1 = mflang::compile(v1).expect("v1 compiles");
        let p2 = mflang::compile(v2).expect("v2 compiles");
        let fps1 = mfstale::site_fingerprints(&p1);
        let mut text = String::new();
        for (id, fp) in &fps1 {
            text.push_str(&format!("# fp br{} {:x}\n", id.0, fp));
        }
        // Counts only for main's sites (the dead function never ran).
        let loop_sites: Vec<_> = fps1.keys().filter(|id| id.0 >= 1).collect();
        assert!(!loop_sites.is_empty());
        for id in &loop_sites {
            text.push_str(&format!("br{} 12 5\n", id.0));
        }
        let entries = mfcheck::parse_raw_profile(&text).expect("profile parses");
        let old_fps = parse_fp_comments(&text);
        let new_fps = mfstale::site_fingerprints(&p2);
        let remapped = mfstale::remap_counts(&entries, &old_fps, &new_fps);
        let r = &remapped.report;
        assert!(!r.is_identity(), "deleting a function is skew: {r:?}");
        assert_eq!(r.orphaned, 0, "every counted site survives: {r:?}");
        assert_eq!(r.salvaged, loop_sites.len(), "{r:?}");
        // The remapped counts must check clean against v2.
        assert!(mfcheck::check_against_program(&p2, &remapped.counts).is_empty());
    }
}
