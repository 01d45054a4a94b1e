//! The dataset-less FORTRAN/floating-point programs: `tomcatv`,
//! `matrix300`, `nasa7`, and the Livermore FORTRAN Kernels.
//!
//! The paper lists all four as "program does not read a dataset"; each is
//! represented here by a single canonical `ref` dataset carrying only its
//! size parameters (scaled down from SPEC sizes so the full matrix runs in
//! seconds — a pure ratio measure like instructions-per-break is unaffected
//! by the scaling).

use trace_vm::Input;

use crate::{DatasetRow, Group, Row};

const TOMCATV: &str = r#"
// tomcatv: mesh generation with Thompson's solver, reduced to its
// control-flow skeleton: build a distorted mesh, then relax it with an
// SOR-style stencil sweep until the residual is small.
fn main(n: int, iters: int) {
    var x: [float] = new_float(n * n);
    var y: [float] = new_float(n * n);
    var rx: [float] = new_float(n * n);
    var ry: [float] = new_float(n * n);

    // Mesh generation: algebraic grid with a sinusoidal distortion.
    for (var i: int = 0; i < n; i = i + 1) {
        for (var j: int = 0; j < n; j = j + 1) {
            var fi: float = float(i) / float(n - 1);
            var fj: float = float(j) / float(n - 1);
            x[i * n + j] = fi + 0.1 * sin(6.28318 * fj);
            y[i * n + j] = fj + 0.1 * sin(6.28318 * fi);
        }
    }

    var maxres: float = 0.0;
    for (var it: int = 0; it < iters; it = it + 1) {
        maxres = 0.0;
        for (var i: int = 1; i < n - 1; i = i + 1) {
            for (var j: int = 1; j < n - 1; j = j + 1) {
                var k: int = i * n + j;
                var xxm: float = x[k - n];
                var xxp: float = x[k + n];
                var xym: float = x[k - 1];
                var xyp: float = x[k + 1];
                var newx: float = 0.25 * (xxm + xxp + xym + xyp);
                var yxm: float = y[k - n];
                var yxp: float = y[k + n];
                var yym: float = y[k - 1];
                var yyp: float = y[k + 1];
                var newy: float = 0.25 * (yxm + yxp + yym + yyp);
                rx[k] = newx - x[k];
                ry[k] = newy - y[k];
                var r: float = fabs(rx[k]) + fabs(ry[k]);
                if (r > maxres) { maxres = r; }
            }
        }
        // Over-relaxed update sweep.
        for (var i: int = 1; i < n - 1; i = i + 1) {
            for (var j: int = 1; j < n - 1; j = j + 1) {
                var k: int = i * n + j;
                x[k] = x[k] + 1.2 * rx[k];
                y[k] = y[k] + 1.2 * ry[k];
            }
        }
    }
    // Scaled residual and a center sample for validation.
    emit(int(maxres * 1000000.0));
    emit(int(x[(n / 2) * n + n / 2] * 1000000.0));
    emit(int(y[(n / 2) * n + n / 2] * 1000000.0));
}
"#;

const MATRIX300: &str = r#"
// matrix300: dense linear solve (Gaussian elimination with partial
// pivoting) on a diagonally dominant system, then a residual check.
global state: int;

fn next_rand() -> float {
    state = (state * 1103515245 + 12345) % 2147483648;
    return float(state % 1000) / 1000.0 + 0.001;
}

fn main(n: int) {
    state = 12345;
    var a: [float] = new_float(n * n);
    var saved: [float] = new_float(n * n);
    var b: [float] = new_float(n);
    var xs: [float] = new_float(n);
    var piv: [int] = new_int(n);

    for (var i: int = 0; i < n; i = i + 1) {
        var rowsum: float = 0.0;
        for (var j: int = 0; j < n; j = j + 1) {
            var v: float = next_rand();
            a[i * n + j] = v;
            rowsum = rowsum + v;
        }
        a[i * n + i] = rowsum + 1.0;
        b[i] = float(i + 1);
        for (var j2: int = 0; j2 < n; j2 = j2 + 1) {
            saved[i * n + j2] = a[i * n + j2];
        }
    }

    // Forward elimination with partial pivoting.
    for (var k: int = 0; k < n; k = k + 1) {
        var best: int = k;
        var bestv: float = fabs(a[k * n + k]);
        for (var i: int = k + 1; i < n; i = i + 1) {
            var cand: float = fabs(a[i * n + k]);
            if (cand > bestv) { bestv = cand; best = i; }
        }
        if (best != k) {
            for (var j: int = 0; j < n; j = j + 1) {
                var tmp: float = a[k * n + j];
                a[k * n + j] = a[best * n + j];
                a[best * n + j] = tmp;
            }
            var tb: float = b[k];
            b[k] = b[best];
            b[best] = tb;
        }
        piv[k] = best;
        for (var i: int = k + 1; i < n; i = i + 1) {
            var f: float = a[i * n + k] / a[k * n + k];
            a[i * n + k] = 0.0;
            for (var j: int = k + 1; j < n; j = j + 1) {
                a[i * n + j] = a[i * n + j] - f * a[k * n + j];
            }
            b[i] = b[i] - f * b[k];
        }
    }

    // Back substitution.
    for (var i: int = n - 1; i >= 0; i = i - 1) {
        var s: float = b[i];
        for (var j: int = i + 1; j < n; j = j + 1) {
            s = s - a[i * n + j] * xs[j];
        }
        xs[i] = s / a[i * n + i];
    }

    // Residual against the saved matrix (pivoting permuted b, so apply the
    // recorded swaps to a fresh right-hand side).
    var bb: [float] = new_float(n);
    for (var i: int = 0; i < n; i = i + 1) { bb[i] = float(i + 1); }
    var maxres: float = 0.0;
    for (var i: int = 0; i < n; i = i + 1) {
        var s: float = 0.0;
        for (var j: int = 0; j < n; j = j + 1) {
            s = s + saved[i * n + j] * xs[j];
        }
        var r: float = fabs(s - bb[i]);
        if (r > maxres) { maxres = r; }
    }
    emit(int(maxres * 1000000000.0));
    emit(int(xs[0] * 1000000.0));
    emit(int(xs[n - 1] * 1000000.0));
}
"#;

const NASA7: &str = r#"
// nasa7: seven synthetic numeric kernels, one guest function each,
// mirroring the structure of the SPEC program (MXM, CFFT-like butterflies,
// CHOLSKY, BTRIX, GMTRY, EMIT, VPENTA).
global checksum: float;

fn kernel_mxm(n: int) {
    var a: [float] = new_float(n * n);
    var b: [float] = new_float(n * n);
    var c: [float] = new_float(n * n);
    for (var i: int = 0; i < n * n; i = i + 1) {
        a[i] = float(i % 7) * 0.5;
        b[i] = float(i % 5) * 0.25;
    }
    for (var i: int = 0; i < n; i = i + 1) {
        for (var j: int = 0; j < n; j = j + 1) {
            var s: float = 0.0;
            for (var k: int = 0; k < n; k = k + 1) {
                s = s + a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = s;
        }
    }
    checksum = checksum + c[0] + c[n * n - 1];
}

fn kernel_fft(n: int) {
    // Butterfly index pattern over a power-of-two array.
    var re: [float] = new_float(n);
    var im: [float] = new_float(n);
    for (var i: int = 0; i < n; i = i + 1) {
        re[i] = float(i % 16) / 16.0;
        im[i] = 0.0;
    }
    var span: int = n / 2;
    while (span >= 1) {
        for (var start: int = 0; start < n; start = start + 2 * span) {
            for (var k: int = 0; k < span; k = k + 1) {
                var p: int = start + k;
                var q: int = p + span;
                var ang: float = 0.0 - 3.14159265 * float(k) / float(span);
                var wr: float = cos(ang);
                var wi: float = sin(ang);
                var tr: float = re[p] - re[q];
                var ti: float = im[p] - im[q];
                re[p] = re[p] + re[q];
                im[p] = im[p] + im[q];
                re[q] = tr * wr - ti * wi;
                im[q] = tr * wi + ti * wr;
            }
        }
        span = span / 2;
    }
    checksum = checksum + re[1] + im[n / 2];
}

fn kernel_cholsky(n: int) {
    var a: [float] = new_float(n * n);
    for (var i: int = 0; i < n; i = i + 1) {
        for (var j: int = 0; j <= i; j = j + 1) {
            a[i * n + j] = 1.0 / float(i + j + 1);
            if (i == j) { a[i * n + j] = a[i * n + j] + float(n); }
        }
    }
    for (var j: int = 0; j < n; j = j + 1) {
        var s: float = a[j * n + j];
        for (var k: int = 0; k < j; k = k + 1) {
            s = s - a[j * n + k] * a[j * n + k];
        }
        a[j * n + j] = sqrt(s);
        for (var i: int = j + 1; i < n; i = i + 1) {
            var t: float = a[i * n + j];
            for (var k2: int = 0; k2 < j; k2 = k2 + 1) {
                t = t - a[i * n + k2] * a[j * n + k2];
            }
            a[i * n + j] = t / a[j * n + j];
        }
    }
    checksum = checksum + a[n * n - 1];
}

fn kernel_btrix(n: int, batches: int) {
    // Batched tridiagonal solves (Thomas algorithm).
    var c: [float] = new_float(n);
    var d: [float] = new_float(n);
    for (var b: int = 0; b < batches; b = b + 1) {
        for (var i: int = 0; i < n; i = i + 1) {
            d[i] = float(i + b + 1);
        }
        c[0] = 0.0 - 0.25;
        d[0] = d[0] / 2.0;
        for (var i: int = 1; i < n; i = i + 1) {
            var m: float = 2.0 + 0.5 * c[i - 1];
            c[i] = (0.0 - 0.5) / m;
            d[i] = (d[i] + 0.5 * d[i - 1]) / m;
        }
        for (var i: int = n - 2; i >= 0; i = i - 1) {
            d[i] = d[i] - c[i] * d[i + 1];
        }
        checksum = checksum + d[0];
    }
}

fn kernel_gmtry(n: int) {
    // Geometry setup: distances and normalization, sqrt-heavy.
    var xs: [float] = new_float(n);
    var ys: [float] = new_float(n);
    for (var i: int = 0; i < n; i = i + 1) {
        xs[i] = cos(float(i) * 0.1);
        ys[i] = sin(float(i) * 0.1);
    }
    var total: float = 0.0;
    for (var i: int = 0; i < n; i = i + 1) {
        for (var j: int = 0; j < n; j = j + 1) {
            var dx: float = xs[i] - xs[j];
            var dy: float = ys[i] - ys[j];
            var d2: float = dx * dx + dy * dy + 0.0001;
            total = total + 1.0 / sqrt(d2);
        }
    }
    checksum = checksum + total * 0.0001;
}

fn kernel_emit(n: int) {
    // Vortex emission: append-and-accumulate with a periodic condition.
    var strength: [float] = new_float(n);
    var count: int = 0;
    var acc: float = 0.0;
    for (var step: int = 0; step < n; step = step + 1) {
        if (step % 4 == 0 && count < n) {
            strength[count] = 1.0 / float(step + 1);
            count = count + 1;
        }
        for (var v: int = 0; v < count; v = v + 1) {
            acc = acc + strength[v] * 0.001;
        }
    }
    checksum = checksum + acc;
}

fn kernel_vpenta(n: int, rows: int) {
    // Pentadiagonal forward sweeps over several rows.
    var d: [float] = new_float(n);
    for (var r: int = 0; r < rows; r = r + 1) {
        for (var i: int = 0; i < n; i = i + 1) { d[i] = float((i + r) % 9); }
        for (var i: int = 2; i < n; i = i + 1) {
            d[i] = d[i] - 0.3 * d[i - 1] - 0.1 * d[i - 2];
        }
        checksum = checksum + d[n - 1];
    }
}

fn main(scale: int) {
    checksum = 0.0;
    kernel_mxm(8 * scale);
    kernel_fft(64 * scale);
    kernel_cholsky(8 * scale);
    kernel_btrix(24 * scale, 8 * scale);
    kernel_gmtry(16 * scale);
    kernel_emit(24 * scale);
    kernel_vpenta(32 * scale, 8 * scale);
    emit(int(checksum * 1000.0));
}
"#;

const LFK: &str = r#"
// Livermore FORTRAN Kernels: a representative subset (kernels 1, 2, 3, 5,
// 6, 9, 10, 11, 12) inside one repetition driver, as in subroutine KERNEL.
global total: float;

fn main(n: int, reps: int) {
    total = 0.0;
    var x: [float] = new_float(n + 16);
    var y: [float] = new_float(n + 16);
    var z: [float] = new_float(n + 16);
    var u: [float] = new_float(n + 16);
    for (var i: int = 0; i < n + 16; i = i + 1) {
        x[i] = 0.001 * float(i);
        y[i] = 0.002 * float(i % 17);
        z[i] = 0.003 * float(i % 13);
        u[i] = 0.004 * float(i % 11);
    }

    for (var r: int = 0; r < reps; r = r + 1) {
        // K1: hydro fragment
        for (var k: int = 0; k < n; k = k + 1) {
            x[k] = 0.9 * (z[k + 10] + 0.01 * (z[k + 11] + z[k]));
        }
        // K2: incomplete Cholesky conjugate gradient excerpt
        var ipntp: int = 0;
        var ii: int = n;
        while (ii > 1) {
            var ipnt: int = ipntp;
            ipntp = ipntp + ii;
            ii = ii / 2;
            var i2: int = ipnt + 1;
            var kx: int = ipntp;
            while (i2 < ipntp - 1) {
                if (kx < n) {
                    x[kx] = z[i2 % n] - 0.5 * x[i2 % n] - 0.5 * x[(i2 + 1) % n];
                }
                kx = kx + 1;
                i2 = i2 + 2;
            }
        }
        // K3: inner product
        var q: float = 0.0;
        for (var k3: int = 0; k3 < n; k3 = k3 + 1) { q = q + z[k3] * x[k3]; }
        total = total + q * 0.001;
        // K5: tridiagonal elimination, below diagonal
        for (var k5: int = 1; k5 < n; k5 = k5 + 1) {
            x[k5] = z[k5] * (y[k5] - x[k5 - 1]);
        }
        // K6: general linear recurrence (short inner loop)
        for (var i6: int = 1; i6 < n; i6 = i6 + 1) {
            var w: float = 0.01;
            var lim: int = i6;
            if (lim > 6) { lim = 6; }
            for (var k6: int = 0; k6 < lim; k6 = k6 + 1) {
                w = w + y[k6] * x[i6 - k6 - 1];
            }
            x[i6] = x[i6] + w * 0.0001;
        }
        // K9: integrate predictors
        for (var i9: int = 0; i9 < n; i9 = i9 + 1) {
            u[i9] = z[i9] + 0.1 * (x[i9] + y[i9]) + 0.05 * (x[i9] * 0.3 + y[i9] * 0.7);
        }
        // K10: difference predictors
        for (var i10: int = 1; i10 < n; i10 = i10 + 1) {
            y[i10] = y[i10] + (u[i10] - u[i10 - 1]);
        }
        // K11: first sum
        for (var i11: int = 1; i11 < n; i11 = i11 + 1) {
            x[i11] = x[i11 - 1] + y[i11];
        }
        // K12: first difference
        for (var i12: int = 0; i12 < n - 1; i12 = i12 + 1) {
            z[i12] = (y[i12 + 1] - y[i12]) * 0.5;
        }
    }
    var s: float = 0.0;
    for (var i: int = 0; i < n; i = i + 1) { s = s + x[i] + z[i]; }
    emit(int((total + s * 0.001) * 1000.0));
}
"#;

/// The `tomcatv` row.
pub const TOMCATV_ROW: Row = Row {
    name: "tomcatv",
    description: "Mesh generation and solver",
    group: Group::FortranFp,
    source: || TOMCATV.to_string(),
    datasets: &[DatasetRow {
        name: "ref",
        description: "Program does not read a dataset",
        inputs: || vec![Input::Int(48), Input::Int(40)],
    }],
};

/// The `matrix300` row.
pub const MATRIX300_ROW: Row = Row {
    name: "matrix300",
    description: "300x300 linear matrix solver (scaled to 60x60)",
    group: Group::FortranFp,
    source: || MATRIX300.to_string(),
    datasets: &[DatasetRow {
        name: "ref",
        description: "Program does not read a dataset",
        inputs: || vec![Input::Int(60)],
    }],
};

/// The `nasa7` row.
pub const NASA7_ROW: Row = Row {
    name: "nasa7",
    description: "7 synthetic kernels",
    group: Group::FortranFp,
    source: || NASA7.to_string(),
    datasets: &[DatasetRow {
        name: "ref",
        description: "Program does not read a dataset",
        inputs: || vec![Input::Int(3)],
    }],
};

/// The Livermore FORTRAN Kernels row.
pub const LFK_ROW: Row = Row {
    name: "lfk",
    description: "Livermore FORTRAN Kernels (subset, subr KERNEL only)",
    group: Group::FortranFp,
    source: || LFK.to_string(),
    datasets: &[DatasetRow {
        name: "ref",
        description: "Program does not read a dataset",
        inputs: || vec![Input::Int(120), Input::Int(40)],
    }],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn run(source: &str, inputs: &[Input]) -> Vec<i64> {
        let p = mflang::compile(source).unwrap();
        Vm::new(&p).run(inputs).unwrap().output_ints()
    }

    #[test]
    fn tomcatv_converges() {
        let out = run(TOMCATV, &[Input::Int(12), Input::Int(30)]);
        // Residual (scaled by 1e6) shrinks to near zero after relaxation.
        assert!(out[0] < 20_000, "residual too large: {}", out[0]);
        // Center of the unit-square mesh is near (0.5, 0.5) ± distortion.
        assert!((350_000..=650_000).contains(&out[1]), "x center {}", out[1]);
        assert!((350_000..=650_000).contains(&out[2]), "y center {}", out[2]);
    }

    #[test]
    fn matrix300_solves_accurately() {
        let out = run(MATRIX300, &[Input::Int(20)]);
        // Residual scaled by 1e9: the solve must be accurate.
        assert!(out[0].abs() < 100_000, "residual {} too large", out[0]);
    }

    #[test]
    fn nasa7_checksum_deterministic() {
        let a = run(NASA7, &[Input::Int(1)]);
        let b = run(NASA7, &[Input::Int(1)]);
        assert_eq!(a, b);
        assert_ne!(a[0], 0);
        let c = run(NASA7, &[Input::Int(2)]);
        assert_ne!(a[0], c[0], "scale must change the checksum");
    }

    #[test]
    fn lfk_deterministic_nonzero() {
        let a = run(LFK, &[Input::Int(40), Input::Int(3)]);
        assert_eq!(a.len(), 1);
        assert_ne!(a[0], 0);
    }

    #[test]
    fn numeric_codes_are_branch_sparse() {
        // The FORTRAN/FP side of Figure 1: numeric codes run many
        // instructions per conditional branch.
        let p = mflang::compile(MATRIX300).unwrap();
        let run = Vm::new(&p).run(&[Input::Int(24)]).unwrap();
        let ipb = run.stats.total_instrs as f64 / run.stats.branches.total_executed() as f64;
        assert!(ipb > 8.0, "matrix300 instrs/branch = {ipb}");
    }
}
