//! `spice2g6`: electronic circuit simulation.
//!
//! A real (small) SPICE: modified nodal analysis with a dense Gaussian
//! solver, Newton iteration for the nonlinear devices, and companion-model
//! transient analysis for capacitors. Each device model is its own guest
//! function (resistor stamp, capacitor companion, diode, BJT-style
//! junction, FET-style quadratic device) — deliberately so, because the
//! paper attributes spice2g6's poor cross-dataset predictability to
//! "different datasets using entirely different modules of the simulator".
//! The datasets here do exactly that: linear RC circuits never enter the
//! diode/BJT/FET model code, the adder netlists live in it.
//!
//! Element encoding (5 ints each): `type, node+, node-, value-index,
//! aux-index`; types 1 R, 2 C, 3 DC current source, 4 sinusoidal current
//! source, 5 diode, 6 BJT junction, 7 FET device. Node 0 is ground.

use trace_vm::Input;

use crate::datagen::Lcg;
use crate::{DatasetRow, Group, Row};

const SPICE: &str = r#"
global g_mat: [float];     // dense conductance matrix
global rhs: [float];       // right-hand side currents
global volts: [float];     // node voltages (current Newton estimate)
global volts_prev: [float];// previous timestep voltages
global nn: int;            // number of non-ground nodes

global elem: [int];
global vals: [float];
global n_elems: int;

global newton_iters: int;  // statistics
global model_evals: int;

// ---- matrix stamping --------------------------------------------------
fn stamp_g(a: int, b: int, g: float) {
    if (a > 0) { g_mat[(a - 1) * nn + (a - 1)] = g_mat[(a - 1) * nn + (a - 1)] + g; }
    if (b > 0) { g_mat[(b - 1) * nn + (b - 1)] = g_mat[(b - 1) * nn + (b - 1)] + g; }
    if (a > 0 && b > 0) {
        g_mat[(a - 1) * nn + (b - 1)] = g_mat[(a - 1) * nn + (b - 1)] - g;
        g_mat[(b - 1) * nn + (a - 1)] = g_mat[(b - 1) * nn + (a - 1)] - g;
    }
}

fn stamp_i(a: int, b: int, i: float) {
    if (a > 0) { rhs[a - 1] = rhs[a - 1] - i; }
    if (b > 0) { rhs[b - 1] = rhs[b - 1] + i; }
}

fn node_v(a: int) -> float {
    if (a == 0) { return 0.0; }
    return volts[a - 1];
}

// ---- device models ------------------------------------------------------
fn model_resistor(a: int, b: int, gval: float) {
    stamp_g(a, b, gval);
}

fn model_capacitor(a: int, b: int, c: float, dt: float) {
    // Backward-Euler companion: G = C/dt, Ieq = -G * v_prev.
    var g: float = c / dt;
    var vp: float = 0.0;
    if (a > 0) { vp = vp + volts_prev[a - 1]; }
    if (b > 0) { vp = vp - volts_prev[b - 1]; }
    stamp_g(a, b, g);
    stamp_i(a, b, 0.0 - g * vp);
}

// Junction current with clamped exponential; vt = thermal voltage.
fn junction(v: float, is: float, vt: float) -> float {
    var x: float = v / vt;
    if (x > 40.0) { x = 40.0; }
    if (x < -40.0) { x = -40.0; }
    return is * (exp(x) - 1.0);
}

fn model_diode(a: int, b: int, is: float) {
    model_evals = model_evals + 1;
    var vt: float = 0.02585;
    var v: float = node_v(a) - node_v(b);
    // Junction voltage limiting (the classic SPICE pnjlim idea).
    if (v > 0.9) { v = 0.9; }
    var i: float = junction(v, is, vt);
    var g: float = (junction(v + 0.0001, is, vt) - i) / 0.0001;
    if (g < 0.000000001) { g = 0.000000001; }
    stamp_g(a, b, g);
    stamp_i(a, b, i - g * v);
}

fn model_bjt(a: int, b: int, is: float, beta: float) {
    // Diode-connected transistor junction with beta-scaled conduction and
    // a soft Early-effect term.
    model_evals = model_evals + 1;
    var vt: float = 0.02585;
    var v: float = node_v(a) - node_v(b);
    if (v > 0.85) { v = 0.85; }
    var ibase: float = junction(v, is, vt);
    var i: float = ibase * (1.0 + beta * 0.01) + v * 0.00001;
    var g: float = (junction(v + 0.0001, is, vt) * (1.0 + beta * 0.01) - ibase * (1.0 + beta * 0.01)) / 0.0001 + 0.00001;
    if (g < 0.000000001) { g = 0.000000001; }
    stamp_g(a, b, g);
    stamp_i(a, b, i - g * v);
}

fn model_fet(a: int, b: int, k: float, vth: float) {
    // Square-law device: cutoff / conduction regimes branch on vgs.
    model_evals = model_evals + 1;
    var v: float = node_v(a) - node_v(b);
    var i: float = 0.0;
    var g: float = 0.000000001;
    if (v > vth) {
        var ov: float = v - vth;
        if (ov > 2.0) { ov = 2.0; }
        i = k * ov * ov;
        g = 2.0 * k * ov + 0.000000001;
    } else {
        i = v * 0.0000001;   // subthreshold leakage
        g = 0.0000001;
    }
    stamp_g(a, b, g);
    stamp_i(a, b, i - g * v);
}

// ---- assembly + solve ---------------------------------------------------
fn assemble(step: int, dt: float) {
    for (var i: int = 0; i < nn * nn; i = i + 1) { g_mat[i] = 0.0; }
    for (var i2: int = 0; i2 < nn; i2 = i2 + 1) {
        rhs[i2] = 0.0;
        // gmin to ground keeps the matrix nonsingular.
        g_mat[i2 * nn + i2] = 0.000000001;
    }
    for (var e: int = 0; e < n_elems; e = e + 1) {
        var base: int = e * 5;
        var t: int = elem[base];
        var a: int = elem[base + 1];
        var b: int = elem[base + 2];
        var v1: float = vals[elem[base + 3]];
        var v2: float = vals[elem[base + 4]];
        if (t == 1) { model_resistor(a, b, v1); }
        if (t == 2) { model_capacitor(a, b, v1, dt); }
        if (t == 3) { stamp_i(a, b, v1); }
        if (t == 4) { stamp_i(a, b, v1 * sin(v2 * float(step))); }
        if (t == 5) { model_diode(a, b, v1); }
        if (t == 6) { model_bjt(a, b, v1, v2); }
        if (t == 7) { model_fet(a, b, v1, v2); }
    }
}

// In-place Gaussian elimination (no pivoting needed: diagonally dominant
// by construction plus gmin).
fn solve() {
    for (var k: int = 0; k < nn; k = k + 1) {
        var pivot: float = g_mat[k * nn + k];
        for (var i: int = k + 1; i < nn; i = i + 1) {
            var f: float = g_mat[i * nn + k] / pivot;
            if (fabs(f) > 0.0) {
                for (var j: int = k; j < nn; j = j + 1) {
                    g_mat[i * nn + j] = g_mat[i * nn + j] - f * g_mat[k * nn + j];
                }
                rhs[i] = rhs[i] - f * rhs[k];
            }
        }
    }
    for (var i3: int = nn - 1; i3 >= 0; i3 = i3 - 1) {
        var s: float = rhs[i3];
        for (var j2: int = i3 + 1; j2 < nn; j2 = j2 + 1) {
            s = s - g_mat[i3 * nn + j2] * volts[j2];
        }
        volts[i3] = s / g_mat[i3 * nn + i3];
    }
}

fn main(desc: [int], values: [float], n_nodes: int, elems: int, steps: int, max_newton: int) {
    nn = n_nodes;
    elem = desc;
    vals = values;
    n_elems = elems;
    g_mat = new_float(nn * nn);
    rhs = new_float(nn);
    volts = new_float(nn);
    volts_prev = new_float(nn);
    newton_iters = 0;
    model_evals = 0;

    var dt: float = 0.0001;
    var trace_hash: float = 0.0;
    var before: [float] = new_float(nn);
    for (var step: int = 0; step < steps; step = step + 1) {
        // Newton loop: iterate until the update is small.
        var it: int = 0;
        var done: int = 0;
        while (it < max_newton && !done) {
            for (var c: int = 0; c < nn; c = c + 1) { before[c] = volts[c]; }
            assemble(step, dt);
            solve();
            // Convergence: max |delta V|.
            var maxd: float = 0.0;
            for (var i: int = 0; i < nn; i = i + 1) {
                var d: float = fabs(volts[i] - before[i]);
                if (d > maxd) { maxd = d; }
            }
            newton_iters = newton_iters + 1;
            it = it + 1;
            if (maxd < 0.000001) { done = 1; }
        }
        for (var i2: int = 0; i2 < nn; i2 = i2 + 1) {
            volts_prev[i2] = volts[i2];
        }
        trace_hash = trace_hash + volts[0] * float((step % 13) + 1);
    }

    for (var i4: int = 0; i4 < nn; i4 = i4 + 1) {
        emit(int(volts[i4] * 1000000.0));
    }
    emit(int(trace_hash * 1000.0));
    emit(newton_iters);
    emit(model_evals);
}
"#;

/// Builds a netlist incrementally.
struct Netlist {
    desc: Vec<i64>,
    vals: Vec<f64>,
    n_nodes: i64,
    n_elems: i64,
}

impl Netlist {
    fn new(n_nodes: i64) -> Self {
        Netlist {
            desc: Vec::new(),
            vals: Vec::new(),
            n_nodes,
            n_elems: 0,
        }
    }

    fn val(&mut self, v: f64) -> i64 {
        self.vals.push(v);
        self.vals.len() as i64 - 1
    }

    fn element(&mut self, ty: i64, a: i64, b: i64, v1: f64, v2: f64) {
        let i1 = self.val(v1);
        let i2 = self.val(v2);
        self.desc.extend_from_slice(&[ty, a, b, i1, i2]);
        self.n_elems += 1;
    }

    fn resistor(&mut self, a: i64, b: i64, g: f64) {
        self.element(1, a, b, g, 0.0);
    }

    fn capacitor(&mut self, a: i64, b: i64, c: f64) {
        self.element(2, a, b, c, 0.0);
    }

    fn isource(&mut self, a: i64, b: i64, i: f64) {
        self.element(3, a, b, i, 0.0);
    }

    fn sin_source(&mut self, a: i64, b: i64, amp: f64, w: f64) {
        self.element(4, a, b, amp, w);
    }

    fn diode(&mut self, a: i64, b: i64, is: f64) {
        self.element(5, a, b, is, 0.0);
    }

    fn bjt(&mut self, a: i64, b: i64, is: f64, beta: f64) {
        self.element(6, a, b, is, beta);
    }

    fn fet(&mut self, a: i64, b: i64, k: f64, vth: f64) {
        self.element(7, a, b, k, vth);
    }

    fn inputs(self, steps: i64, max_newton: i64) -> Vec<Input> {
        vec![
            Input::Ints(self.desc),
            Input::Floats(self.vals),
            Input::Int(self.n_nodes),
            Input::Int(self.n_elems),
            Input::Int(steps),
            Input::Int(max_newton),
        ]
    }
}

/// An RC ladder driven by a current source: purely linear.
fn rc_ladder(stages: i64, drive: f64) -> Netlist {
    let mut n = Netlist::new(stages);
    n.isource(0, 1, drive);
    for s in 1..=stages {
        n.resistor(s, s - 1, 0.01);
        n.capacitor(s, 0, 1e-6);
    }
    n
}

/// A diode ring with sinusoidal drive.
fn diode_mixer(seed: u64, nodes: i64) -> Netlist {
    let mut g = Lcg::new(seed);
    let mut n = Netlist::new(nodes);
    n.sin_source(0, 1, 0.02, 0.11);
    for s in 1..nodes {
        n.resistor(s, s + 1, 0.005 + g.range(1, 9) as f64 * 0.001);
        n.diode(s, 0, 1e-12);
        if g.chance(50) {
            n.capacitor(s, 0, 2e-6);
        }
    }
    n.resistor(nodes, 0, 0.02);
    n
}

/// A "4-bit all-NAND adder" built from junction devices: each gate is a
/// resistor pull plus two transistor junctions.
fn nand_adder(seed: u64, gates: usize, fet: bool) -> Netlist {
    let mut g = Lcg::new(seed);
    // Each gate occupies one node; supply injected at every node.
    let nodes = gates as i64 + 2;
    let mut n = Netlist::new(nodes);
    n.isource(0, 1, 0.03);
    for gate in 0..gates {
        let out = gate as i64 + 1;
        let other = 1 + g.below(nodes as u64 - 1) as i64;
        n.resistor(out, 0, 0.002);
        if fet {
            n.fet(out, 0, 0.002, 0.4 + g.range(0, 3) as f64 * 0.05);
            n.fet(out, other, 0.001, 0.5);
        } else {
            n.bjt(out, 0, 1e-13, 50.0 + g.range(0, 80) as f64);
            n.bjt(out, other, 1e-13, 40.0);
        }
        if g.chance(30) {
            n.capacitor(out, 0, 1e-6);
        }
    }
    n
}

/// Grey-code counter stand-in: a long RC chain clocked by a sinusoid.
fn greycode(stages: i64) -> Netlist {
    let mut n = Netlist::new(stages);
    n.sin_source(0, 1, 0.015, 0.3);
    for s in 1..stages {
        n.resistor(s, s + 1, 0.008);
        n.capacitor(s, 0, 1.5e-6);
    }
    n.resistor(stages, 0, 0.01);
    n
}

/// The `spice2g6` row with its nine datasets.
pub const ROW: Row = Row {
    name: "spice2g6",
    description: "Electronic design simulator",
    group: Group::FortranFp,
    source: || SPICE.to_string(),
    datasets: &[
        DatasetRow {
            name: "circuit1",
            description: "Spice 2G User's Guide appendix example (RC, linear)",
            inputs: || rc_ladder(10, 0.01).inputs(120, 6),
        },
        DatasetRow {
            name: "circuit2",
            description: "Appendix example (very short run)",
            inputs: || diode_mixer(601, 6).inputs(4, 6),
        },
        DatasetRow {
            name: "circuit3",
            description: "Appendix example (diode mixer)",
            inputs: || diode_mixer(602, 10).inputs(90, 8),
        },
        DatasetRow {
            name: "circuit4",
            description: "Appendix example (mixed RC + junctions)",
            inputs: || {
                let mut n = diode_mixer(603, 8);
                n.bjt(3, 0, 1e-13, 60.0);
                n.bjt(5, 2, 1e-13, 75.0);
                n.inputs(110, 8)
            },
        },
        DatasetRow {
            name: "circuit5",
            description: "Appendix example (larger linear + diode mix)",
            inputs: || {
                let mut n = rc_ladder(14, 0.012);
                n.diode(7, 0, 1e-12);
                n.diode(11, 0, 1e-12);
                n.inputs(140, 6)
            },
        },
        DatasetRow {
            name: "add_bjt",
            description: "4-bit all-NAND adder, TTL gates",
            inputs: || nand_adder(604, 18, false).inputs(60, 8),
        },
        DatasetRow {
            name: "add_fet",
            description: "4-bit all-NAND adder, MOSFET gates",
            inputs: || nand_adder(605, 18, true).inputs(60, 8),
        },
        DatasetRow {
            name: "greysmall",
            description: "Greycode counter, smaller SPEC input",
            inputs: || greycode(8).inputs(100, 4),
        },
        DatasetRow {
            name: "greybig",
            description: "Greycode counter, larger SPEC input",
            inputs: || greycode(8).inputs(1500, 4),
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn run(inputs: &[Input]) -> Vec<i64> {
        let p = mflang::compile(SPICE).unwrap();
        Vm::new(&p).run(inputs).unwrap().output_ints()
    }

    #[test]
    fn resistive_divider_solves_ohms_law() {
        // I = 10mA into node 1; node1 -R(g=0.01)- ground in parallel with
        // -R(g=0.01)-: V = I / (g1+g2) = 0.01 / 0.02 = 0.5 V.
        let mut n = Netlist::new(1);
        n.isource(0, 1, 0.01);
        n.resistor(1, 0, 0.01);
        n.resistor(1, 0, 0.01);
        let out = run(&n.inputs(1, 3));
        let v = out[0] as f64 / 1e6;
        assert!((v - 0.5).abs() < 1e-4, "divider voltage {v}");
    }

    #[test]
    fn rc_charges_toward_steady_state() {
        // One RC stage: steady state v = I/g = 0.01/0.01 = 1 V.
        let mut n = Netlist::new(1);
        n.isource(0, 1, 0.01);
        n.resistor(1, 0, 0.01);
        n.capacitor(1, 0, 1e-6);
        let short = run(&n.inputs(3, 3))[0];
        let mut n2 = Netlist::new(1);
        n2.isource(0, 1, 0.01);
        n2.resistor(1, 0, 0.01);
        n2.capacitor(1, 0, 1e-6);
        let long = run(&n2.inputs(400, 3))[0];
        assert!(long > short, "capacitor must charge over time");
        let v = long as f64 / 1e6;
        assert!((v - 1.0).abs() < 0.05, "steady state {v}");
    }

    #[test]
    fn diode_clamps_voltage() {
        // Current forced through a diode: voltage pins near 0.6-0.8 V
        // regardless of drive.
        let mut n = Netlist::new(1);
        n.isource(0, 1, 0.01);
        n.diode(1, 0, 1e-12);
        let v1 = run(&n.inputs(1, 30))[0] as f64 / 1e6;
        let mut n2 = Netlist::new(1);
        n2.isource(0, 1, 0.05);
        n2.diode(1, 0, 1e-12);
        let v2 = run(&n2.inputs(1, 30))[0] as f64 / 1e6;
        assert!((0.4..1.0).contains(&v1), "diode drop {v1}");
        assert!(v2 > v1 && v2 - v1 < 0.2, "log-like I-V: {v1} -> {v2}");
    }

    #[test]
    fn fet_regimes_differ() {
        // Below threshold almost no conduction; above, strong conduction.
        let mut weak = Netlist::new(1);
        weak.isource(0, 1, 0.0000001);
        weak.fet(1, 0, 0.002, 0.5);
        weak.resistor(1, 0, 0.0001);
        let v_weak = run(&weak.inputs(1, 12))[0] as f64 / 1e6;
        let mut strong = Netlist::new(1);
        strong.isource(0, 1, 0.01);
        strong.fet(1, 0, 0.002, 0.5);
        strong.resistor(1, 0, 0.0001);
        let v_strong = run(&strong.inputs(1, 12))[0] as f64 / 1e6;
        assert!(v_weak < 0.5, "subthreshold node at {v_weak}");
        assert!(v_strong > 0.5, "conducting node at {v_strong}");
    }

    #[test]
    fn datasets_use_different_model_modules() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        // Linear circuits never evaluate a nonlinear model.
        let grey = Vm::new(&p)
            .run(&w.dataset("greysmall").unwrap().inputs)
            .unwrap()
            .output_ints();
        assert_eq!(*grey.last().unwrap(), 0, "greycode is linear");
        // The adder datasets do nothing but evaluate junction models.
        let bjt = Vm::new(&p)
            .run(&w.dataset("add_bjt").unwrap().inputs)
            .unwrap()
            .output_ints();
        assert!(*bjt.last().unwrap() > 100, "adder evaluates models");
    }

    #[test]
    fn greybig_runs_much_longer_than_greysmall() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let small = Vm::new(&p)
            .run(&w.dataset("greysmall").unwrap().inputs)
            .unwrap();
        let big = Vm::new(&p)
            .run(&w.dataset("greybig").unwrap().inputs)
            .unwrap();
        assert!(big.stats.total_instrs > 8 * small.stats.total_instrs);
    }

    #[test]
    fn newton_converges_early() {
        // With an easy circuit, the convergence test should stop Newton
        // before max iterations (data-dependent loop, as in real SPICE).
        let mut n = Netlist::new(2);
        n.isource(0, 1, 0.01);
        n.resistor(1, 0, 0.01);
        n.resistor(1, 2, 0.01);
        n.resistor(2, 0, 0.01);
        let out = run(&n.inputs(10, 50));
        let iters = out[out.len() - 2];
        assert!(iters < 10 * 50, "Newton never converged early: {iters}");
    }
}
