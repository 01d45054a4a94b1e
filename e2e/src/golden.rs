//! The paper workloads' reference output: one FNV-64 digest per rendered
//! section, blessed on the reference (tree-walking) backend and compared
//! against every flat-backend pass. The harness summary is not a section:
//! its timings differ on every run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mfbench::{
    collect_subset_with, combination_table, coverage_table, crossmode_table,
    distribution_table_with, dyn_table, dynamic_table_with, fig1_chart, fig2_chart, fig3_chart,
    heuristic_table, inlining_table_with, percent_correct_table, percent_taken_table,
    selects_table, table1, table2, table3, SuiteRuns,
};
use mfharness::{DiskCache, Harness, HarnessOptions};
use mfwork::Group;

use crate::trace::Tracer;
use crate::Ctx;

/// Chart width, as `repro` prints them.
const WIDTH: usize = 60;

/// Renders one section from the collected runs (and, for the extension
/// tables, further runs through the same harness).
type Render = fn(&SuiteRuns, &Harness) -> String;

/// The analytic sections: pure functions of the collected runs.
const SECTIONS: [(&str, Render); 14] = [
    ("table1", |s, _| table1(s).render()),
    ("table2", |_, _| table2().render()),
    ("table3", |s, _| table3(s).render()),
    ("fig1", |s, _| {
        fig1_chart(s, Group::FortranFp).render(WIDTH)
            + &fig1_chart(s, Group::CInteger).render(WIDTH)
    }),
    ("fig2", |s, _| {
        fig2_chart(s, true).render(WIDTH) + &fig2_chart(s, false).render(WIDTH)
    }),
    ("fig3", |s, _| {
        fig3_chart(s, true).render(WIDTH) + &fig3_chart(s, false).render(WIDTH)
    }),
    ("correct", |s, _| percent_correct_table(s).render()),
    ("taken", |s, _| percent_taken_table(s).render()),
    ("combine", |s, _| combination_table(s).render()),
    ("heuristic", |s, _| heuristic_table(s).render()),
    ("selects", |s, _| selects_table(s).render()),
    ("crossmode", |s, _| {
        crossmode_table(s).map(|t| t.render()).unwrap_or_default()
    }),
    ("coverage", |s, _| coverage_table(s).render()),
    ("dyn", |s, _| dyn_table(s).render()),
];

/// The extension sections, which submit runs of their own. The quick
/// scale leaves them out.
const EXT_SECTIONS: [(&str, Render); 3] = [
    ("dynamic", |_, h| dynamic_table_with(h).render()),
    ("inline", |_, h| inlining_table_with(h).render()),
    ("distribution", |_, h| distribution_table_with(h).render()),
];

/// The smoke-test subset (the same three programs `mfbench`'s own tests
/// collect).
pub const QUICK_PROGRAMS: [&str; 3] = ["doduc", "spiff", "mfcom"];

/// The programs a paper pass collects: every Table 2 program except `li`,
/// whose 9queens and 8queens runs alone take four fifths of an uncached
/// `repro` and would leave room for a single pass per window.
pub fn programs(quick: bool) -> Vec<&'static str> {
    if quick {
        return QUICK_PROGRAMS.to_vec();
    }
    mfwork::suite()
        .iter()
        .map(|w| w.name)
        .filter(|&n| n != "li")
        .collect()
}

/// Renders every section of one pass, each a timed step under its own
/// span.
pub fn render(ctx: &Ctx, s: &SuiteRuns, h: &Harness) -> Vec<(String, String)> {
    let ext: &[(&str, Render)] = if ctx.quick { &[] } else { &EXT_SECTIONS };
    let mut out = Vec::new();
    for (kind, list) in [("report.render", &SECTIONS[..]), ("bench.ext_table", ext)] {
        for &(name, f) in list {
            let text = ctx.step(|| {
                let _span = ctx.tracer.span_with(kind, || name.to_string());
                f(s, h)
            });
            out.push((name.to_string(), text));
        }
    }
    out
}

/// The digest file for a scale.
pub fn path(dir: &Path, quick: bool) -> PathBuf {
    dir.join(if quick {
        "paper-quick.fnv"
    } else {
        "paper.fnv"
    })
}

/// Reads a digest file: one `section hex-digest` pair per line.
///
/// # Errors
///
/// A message when the file is missing or malformed.
pub fn load(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading golden digests {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let parsed = line
            .split_once(' ')
            .and_then(|(name, hex)| Some((name, u64::from_str_radix(hex.trim(), 16).ok()?)));
        let (name, digest) =
            parsed.ok_or_else(|| format!("{}: malformed line '{line}'", path.display()))?;
        out.insert(name.to_string(), digest);
    }
    Ok(out)
}

/// Compares rendered sections with the golden digests; one message per
/// mismatching or missing section.
pub fn check(golden: &BTreeMap<String, u64>, sections: &[(String, String)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, text) in sections {
        match golden.get(name) {
            Some(&want) if want == mfharness::fnv64(text.as_bytes()) => {}
            Some(_) => failures.push(format!("section {name} differs from the golden output")),
            None => failures.push(format!("section {name} has no golden digest")),
        }
    }
    failures
}

/// Renders every section on the reference backend and writes the digest
/// files for both scales into `dir`.
///
/// # Errors
///
/// A message when a run panics or a file cannot be written.
pub fn bless(dir: &Path) -> Result<(), String> {
    mfbench::set_backend(trace_vm::Backend::Reference);
    let tracer = Tracer::new("bless".to_string());
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for quick in [false, true] {
        let ctx = Ctx::new(&tracer, dir.to_path_buf(), 0, quick);
        let h = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let names = programs(quick);
        let sections = crate::guarded("reference collection", || {
            let s = collect_subset_with(&h, &names);
            render(&ctx, &s, &h)
        })?;
        let body: String = sections
            .iter()
            .map(|(name, text)| format!("{name} {:016x}\n", mfharness::fnv64(text.as_bytes())))
            .collect();
        let file = path(dir, quick);
        std::fs::write(&file, body).map_err(|e| format!("writing {}: {e}", file.display()))?;
        eprintln!(
            "e2e: blessed {} sections into {}",
            sections.len(),
            file.display()
        );
    }
    mfbench::set_backend(trace_vm::Backend::Flat);
    Ok(())
}
