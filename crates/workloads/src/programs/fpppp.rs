//! `fpppp`: quantum chemistry two-electron integrals.
//!
//! The SPEC program's inner loop is "a giant expression with no flow of
//! control" — the paper's outlier at 150–170 instructions per break
//! unpredicted. We reproduce that shape: a quadruple loop over atom
//! quadruplets `(i ≤ j, k ≤ l)` whose body is one enormous generated basic
//! block of chained floating-point operations (no branches inside), so the
//! only control flow is the loop nest itself.

use std::fmt::Write as _;

use trace_vm::Input;

use crate::{DatasetRow, Group, Row};

/// Number of chained operation groups in the giant basic block. Each group
/// is ~8 straight-line float operations.
const BLOCK_GROUPS: usize = 60;

/// Generates the guest source. The giant block is produced by code
/// generation rather than hand-writing 500 lines; the result is ordinary
/// `mflang` source.
fn generate_source() -> String {
    let mut body = String::new();
    // Seed temporaries from the quadruplet's geometry.
    body.push_str(
        "        var t0: float = gx * gy + 0.3;\n         var t1: float = gy * gz + 0.7;\n         var t2: float = gz * gx + 1.1;\n         var t3: float = gx + gy + gz + 0.013;\n",
    );
    let mut n = 4;
    for g in 0..BLOCK_GROUPS {
        let a = n - 4;
        let b = n - 3;
        let c = n - 2;
        let d = n - 1;
        let coef1 = 0.11 + (g % 7) as f64 * 0.017;
        let coef2 = 0.23 + (g % 5) as f64 * 0.029;
        let coef3 = 1.0 + (g % 3) as f64 * 0.5;
        // `{:?}` keeps the decimal point on round values (1.0, not 1), so
        // the literal stays a float in the guest language.
        writeln!(
            body,
            "        var t{n}: float = t{a} * {coef1:?} + t{b} * t{c} - t{d} * {coef2:?};"
        )
        .expect("write to String");
        writeln!(
            body,
            "        var t{}: float = t{b} + t{n} * t{a} - {coef3:?} * t{c};",
            n + 1
        )
        .expect("write to String");
        writeln!(
            body,
            "        var t{}: float = t{} / (1.0 + fabs(t{n})) + t{d};",
            n + 2,
            n + 1
        )
        .expect("write to String");
        writeln!(
            body,
            "        var t{}: float = t{} * 0.5 + t{} * 0.25 + t{a} * 0.125;",
            n + 3,
            n + 2,
            n
        )
        .expect("write to String");
        n += 4;
    }
    // Fold the last temporaries into the integral estimate.
    let last = n - 1;
    let prev = n - 2;
    writeln!(
        body,
        "        var contrib: float = (t{last} + t{prev}) / (1.0 + fabs(t{last} * t{prev}));"
    )
    .expect("write to String");

    format!(
        r#"
// fpppp: two-electron integral evaluation over atom quadruplets.
fn main(natoms: int, sweeps: int) {{
    var pos: [float] = new_float(natoms * 3);
    for (var i: int = 0; i < natoms; i = i + 1) {{
        pos[i * 3] = float(i) * 1.1;
        pos[i * 3 + 1] = sin(float(i));
        pos[i * 3 + 2] = cos(float(i) * 0.5);
    }}
    var total: float = 0.0;
    for (var sweep: int = 0; sweep < sweeps; sweep = sweep + 1) {{
      for (var i: int = 0; i < natoms; i = i + 1) {{
       for (var j: int = i; j < natoms; j = j + 1) {{
        for (var k: int = 0; k < natoms; k = k + 1) {{
         for (var l: int = k; l < natoms; l = l + 1) {{
            var gx: float = pos[i * 3] - pos[k * 3] + 0.01 * float(sweep + 1);
            var gy: float = pos[j * 3 + 1] - pos[l * 3 + 1] + 0.02;
            var gz: float = pos[i * 3 + 2] - pos[l * 3 + 2] + 0.03;
{body}
            total = total + contrib;
         }}
        }}
       }}
      }}
    }}
    emit(int(total * 1000.0));
}}
"#
    )
}

/// The `fpppp` row with its two SPEC datasets (different atom counts).
pub const ROW: Row = Row {
    name: "fpppp",
    description: "Quantum chemistry",
    group: Group::FortranFp,
    source: generate_source,
    datasets: &[
        DatasetRow {
            name: "4atoms",
            description: "Smaller parameter setting from SPEC",
            inputs: || vec![Input::Int(4), Input::Int(14)],
        },
        DatasetRow {
            name: "8atoms",
            description: "Larger parameter setting from SPEC",
            inputs: || vec![Input::Int(8), Input::Int(2)],
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    #[test]
    fn giant_block_dominates() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let run = Vm::new(&p).run(&[Input::Int(4), Input::Int(2)]).unwrap();
        // The defining property: enormous instructions-per-branch ratio
        // compared with every other workload (fpppp's Figure 1 outlier).
        let ipb = run.stats.total_instrs as f64 / run.stats.branches.total_executed() as f64;
        assert!(ipb > 60.0, "fpppp instrs/branch only {ipb}");
    }

    #[test]
    fn output_finite_and_deterministic() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let a = Vm::new(&p).run(&[Input::Int(4), Input::Int(1)]).unwrap();
        let b = Vm::new(&p).run(&[Input::Int(4), Input::Int(1)]).unwrap();
        assert_eq!(a.output_ints(), b.output_ints());
        // `contrib` is bounded by construction, so the total must be sane.
        assert!(a.output_ints()[0].abs() < 10_000_000);
    }

    #[test]
    fn datasets_present() {
        let w = ROW.generate();
        assert_eq!(w.datasets.len(), 2);
        assert_eq!(w.datasets[0].name, "4atoms");
        assert_eq!(w.datasets[1].name, "8atoms");
    }
}
