#![warn(missing_docs)]

//! # mfwork
//!
//! The program sample base: one guest program per row of the paper's
//! Table 2, written in `mflang` and executed on `trace-vm`, plus seeded
//! dataset generators standing in for the SPEC inputs.
//!
//! The originals are licensed SPEC sources we cannot ship, so each workload
//! implements the *real algorithm* of its namesake — LZW compression, a
//! Lisp interpreter, an LCS diff, two-level logic minimization, modified
//! nodal circuit analysis, Gaussian elimination, SOR mesh smoothing, … — so
//! that its control-flow character (branch density, direction bias,
//! module-selection behaviour across datasets) is genuine. See DESIGN.md §2
//! for the substitution argument.
//!
//! Each row is static data ([`rows`]): the program's name, description,
//! group and source generator, and per dataset its name, description and
//! input generator ([`DatasetRow`]). Table 2 prints the metadata and
//! generates nothing. [`suite`] generates every row, [`workload`] one row
//! by name, and [`DatasetRow::generate`] one dataset, so a table that runs
//! a few program×dataset pairs generates those alone. `mfbench`'s harness
//! workers generate the rows a collection runs, build their programs and
//! key their runs.
//!
//! ```
//! use mfwork::{row, suite, workload};
//!
//! let programs = suite();
//! assert!(programs.len() >= 14);
//! let doduc = workload("doduc").unwrap();
//! assert_eq!(doduc.datasets, programs[1].datasets);
//! assert_eq!(doduc.datasets.len(), 3);
//! let tiny = row("doduc").unwrap().dataset("tiny").unwrap();
//! assert_eq!(tiny.generate(), doduc.datasets[0]);
//! let program = doduc.compile().unwrap();
//! let run = doduc.run(&program, &doduc.datasets[0]).unwrap();
//! assert!(run.stats.total_instrs > 0);
//! ```

mod datagen;
mod programs;

pub use programs::*;

use mflang::CompileError;
use mfopt::Pipeline;
use trace_ir::Program;
use trace_vm::{Input, Run, RuntimeError, Vm, VmConfig};

/// The paper's two program groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Group {
    /// FORTRAN / floating-point programs (Figure 1a / 2a side).
    FortranFp,
    /// C / integer programs (Figure 1b / 2b side).
    CInteger,
}

/// One dataset: a named set of entry-function inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// The dataset name used throughout the experiment tables.
    pub name: String,
    /// What the dataset is (Table 2's description column).
    pub description: String,
    /// The inputs handed to the guest `main`.
    pub inputs: Vec<Input>,
}

impl Dataset {
    /// Creates a dataset.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        inputs: Vec<Input>,
    ) -> Self {
        Dataset {
            name: name.into(),
            description: description.into(),
            inputs,
        }
    }
}

/// A guest program plus its datasets — one Table 2 row.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Program name (`li`, `compress`, `spice2g6`, …).
    pub name: &'static str,
    /// Table 2's description.
    pub description: &'static str,
    /// FORTRAN/FP or C/integer.
    pub group: Group,
    /// Guest source text.
    pub source: String,
    /// The datasets, in canonical order.
    pub datasets: Vec<Dataset>,
}

impl Workload {
    /// Compiles the guest source with optimization off — the profiling
    /// configuration (the paper ran with global DCE disabled).
    ///
    /// # Errors
    ///
    /// Returns the guest program's [`CompileError`]; the bundled sources
    /// always compile (tests guarantee it).
    pub fn compile(&self) -> Result<Program, CompileError> {
        mflang::compile(&self.source)
    }

    /// Compiles with the full classical pipeline including DCE — the
    /// "what the compiler would have done" side of Table 1.
    ///
    /// # Errors
    ///
    /// Returns the guest program's [`CompileError`].
    pub fn compile_optimized(&self) -> Result<Program, CompileError> {
        let mut p = self.compile()?;
        Pipeline::standard().run(&mut p);
        Ok(p)
    }

    /// The canonical VM configuration for measured runs of this workload
    /// (every workload has the same one, [`vm_config`]). External runners
    /// (e.g. the mfharness scheduler) must use this so their statistics
    /// are bit-identical to [`Workload::run`].
    pub fn vm_config(&self) -> VmConfig {
        vm_config()
    }

    /// Runs `program` (a compilation of this workload) on `dataset`.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the guest faults — the bundled
    /// workloads never do.
    pub fn run(&self, program: &Program, dataset: &Dataset) -> Result<Run, RuntimeError> {
        Vm::with_config(program, self.vm_config()).run(&dataset.inputs)
    }

    /// Finds a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }
}

/// One dataset of a Table 2 row as static data: what Table 2 prints
/// about it, and the generator of its inputs.
#[derive(Clone, Copy, Debug)]
pub struct DatasetRow {
    /// The dataset name used throughout the experiment tables.
    pub name: &'static str,
    /// What the dataset is (Table 2's description column).
    pub description: &'static str,
    /// Generates the inputs handed to the guest `main`.
    pub inputs: fn() -> Vec<Input>,
}

impl DatasetRow {
    /// Generates this dataset alone.
    pub fn generate(&self) -> Dataset {
        Dataset::new(self.name, self.description, (self.inputs)())
    }
}

/// One Table 2 row as static data: the program's metadata and the
/// generators of its source and datasets.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Program name (`li`, `compress`, `spice2g6`, …).
    pub name: &'static str,
    /// Table 2's description.
    pub description: &'static str,
    /// FORTRAN/FP or C/integer.
    pub group: Group,
    /// Generates the guest source text.
    pub source: fn() -> String,
    /// The datasets, in canonical order.
    pub datasets: &'static [DatasetRow],
}

impl Row {
    /// Generates the whole row: its source and every dataset.
    pub fn generate(&self) -> Workload {
        Workload {
            name: self.name,
            description: self.description,
            group: self.group,
            source: (self.source)(),
            datasets: self.datasets.iter().map(DatasetRow::generate).collect(),
        }
    }

    /// Finds a dataset by name without generating any.
    pub fn dataset(&self, name: &str) -> Option<&'static DatasetRow> {
        self.datasets.iter().find(|d| d.name == name)
    }
}

/// Table 2's rows in order (FORTRAN/FP first).
static ROWS: [Row; 15] = [
    spice::ROW,
    doduc::ROW,
    numeric::NASA7_ROW,
    numeric::MATRIX300_ROW,
    fpppp::ROW,
    numeric::TOMCATV_ROW,
    numeric::LFK_ROW,
    gcc::ROW,
    espresso::ROW,
    li::ROW,
    eqntott::ROW,
    compress::COMPRESS_ROW,
    compress::UNCOMPRESS_ROW,
    mfcom::ROW,
    spiff::ROW,
];

/// The canonical VM configuration for measured runs of any workload, for
/// callers that run a row without generating its [`Workload`].
pub fn vm_config() -> VmConfig {
    // Generous but bounded: a workload stuck in a loop fails the run
    // instead of hanging the harness.
    VmConfig {
        fuel: 4_000_000_000,
        ..VmConfig::default()
    }
}

/// Table 2's rows in order (FORTRAN/FP first), as static data.
pub fn rows() -> &'static [Row] {
    &ROWS
}

/// The Table 2 row named `name`, or `None` for a name outside the suite.
pub fn row(name: &str) -> Option<&'static Row> {
    ROWS.iter().find(|r| r.name == name)
}

/// The program names of the sample base, in Table 2 order.
pub fn names() -> impl Iterator<Item = &'static str> {
    ROWS.iter().map(|r| r.name)
}

/// Generates the one Table 2 row named `name`, or `None` for a name
/// outside the suite. Generating a row builds its datasets, so a caller
/// that needs a few programs pays for those alone.
pub fn workload(name: &str) -> Option<Workload> {
    row(name).map(Row::generate)
}

/// The full program sample base, in Table 2 order (FORTRAN/FP first).
pub fn suite() -> Vec<Workload> {
    ROWS.iter().map(Row::generate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table2_inventory() {
        let s = suite();
        let names: Vec<_> = s.iter().map(|w| w.name).collect();
        for expected in [
            "spice2g6",
            "doduc",
            "nasa7",
            "matrix300",
            "fpppp",
            "tomcatv",
            "lfk",
            "gcc",
            "espresso",
            "li",
            "eqntott",
            "compress",
            "uncompress",
            "mfcom",
            "spiff",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
    }

    #[test]
    fn every_workload_compiles_both_ways() {
        for w in suite() {
            let p = w
                .compile()
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
            assert!(p.validate().is_ok(), "{} produced invalid IR", w.name);
            let o = w
                .compile_optimized()
                .unwrap_or_else(|e| panic!("{} failed optimized compile: {e}", w.name));
            assert!(o.validate().is_ok());
            assert!(
                o.static_instr_count() <= p.static_instr_count(),
                "{}: optimization grew the program",
                w.name
            );
        }
    }

    #[test]
    fn verified_compile_matches_unverified_on_one_workload() {
        let w = suite().into_iter().find(|w| w.name == "spiff").unwrap();
        let plain = w.compile_optimized().unwrap();
        let mut verified = w.compile().unwrap();
        Pipeline::standard().run_checked(&mut verified).unwrap();
        assert_eq!(plain, verified, "verification must not change the output");
    }

    #[test]
    fn groups_are_split_as_in_the_paper() {
        let s = suite();
        let fortran = s.iter().filter(|w| w.group == Group::FortranFp).count();
        let c = s.iter().filter(|w| w.group == Group::CInteger).count();
        assert_eq!(fortran, 7);
        assert_eq!(c, 8);
    }

    #[test]
    fn workload_generates_the_suite_row_of_its_name() {
        for r in rows() {
            assert!(std::ptr::eq(row(r.name).unwrap(), r), "{}", r.name);
            let w = workload(r.name).unwrap_or_else(|| panic!("{} has no row", r.name));
            // The static metadata is what the generator builds.
            assert_eq!(w.name, r.name);
            assert_eq!(w.description, r.description, "{}", r.name);
            assert_eq!(w.group, r.group, "{}", r.name);
            assert_eq!(w.source, (r.source)(), "{}", r.name);
            assert_eq!(w.datasets.len(), r.datasets.len(), "{}", r.name);
            for (spec, d) in r.datasets.iter().zip(&w.datasets) {
                assert_eq!(spec.name, d.name, "{}", r.name);
                assert_eq!(spec.description, d.description, "{}/{}", r.name, d.name);
                assert!(std::ptr::eq(r.dataset(spec.name).unwrap(), spec));
                // One dataset generated alone equals that dataset of the
                // generated row.
                let alone = spec.generate();
                assert_eq!(alone.name, d.name, "{}", r.name);
                assert_eq!(alone.description, d.description, "{}/{}", r.name, d.name);
                assert_eq!(alone.inputs, d.inputs, "{}/{}", r.name, d.name);
            }
        }
        for name in ["no-such-program", ""] {
            assert!(workload(name).is_none());
            assert!(row(name).is_none());
        }
        assert!(row("doduc").unwrap().dataset("no-such-dataset").is_none());
    }

    #[test]
    fn dataset_lookup() {
        let s = suite();
        let li = s.iter().find(|w| w.name == "li").unwrap();
        assert!(li.dataset("8queens").is_some());
        assert!(li.dataset("nope").is_none());
    }
}
