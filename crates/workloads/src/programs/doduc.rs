//! `doduc`: Monte-Carlo-flavoured nuclear reactor thermohydraulics.
//!
//! The SPEC program integrates a stiff system with many table lookups and
//! regime tests. This guest reproduces that character: an explicit
//! integrator over a small state vector whose coefficient selection branches
//! on the current regime (temperature/pressure thresholds and a property
//! table searched by bisection), so branch behaviour is data-dependent but
//! strongly biased — like the original, whose three SPEC datasets (tiny,
//! small, ref) differ mainly in simulated duration.

use trace_vm::Input;

use crate::{DatasetRow, Group, Row};

const DODUC: &str = r#"
global table_t: [float];   // property table: temperature grid
global table_v: [float];   // property table: values
global lookups: int;

fn build_tables(m: int) {
    table_t = new_float(m);
    table_v = new_float(m);
    for (var i: int = 0; i < m; i = i + 1) {
        table_t[i] = float(i) * 10.0;
        table_v[i] = 1.0 + 0.05 * sin(float(i) * 0.3);
    }
}

// Bisection search of the property table (the doduc hot spot).
fn property(t: float) -> float {
    lookups = lookups + 1;
    var lo: int = 0;
    var hi: int = len(table_t) - 1;
    if (t <= table_t[0]) { return table_v[0]; }
    if (t >= table_t[hi]) { return table_v[hi]; }
    while (hi - lo > 1) {
        var mid: int = (lo + hi) / 2;
        if (table_t[mid] <= t) { lo = mid; } else { hi = mid; }
    }
    var f: float = (t - table_t[lo]) / (table_t[hi] - table_t[lo]);
    return table_v[lo] + f * (table_v[hi] - table_v[lo]);
}

// Heat source with regime switching.
fn source(temp: float, power: float) -> float {
    if (temp > 550.0) {
        // Over-temperature regime: strong negative feedback.
        return power - 0.02 * (temp - 550.0);
    }
    if (temp < 200.0) {
        // Startup regime.
        return power * 1.5;
    }
    return power;
}

fn main(steps: int) {
    build_tables(64);
    lookups = 0;

    var temp: float = 180.0;      // coolant temperature
    var rho: float = 1.0;         // density
    var power: float = 8.0;       // reactor power
    var flow: float = 2.5;        // coolant flow
    var energy: float = 0.0;

    for (var s: int = 0; s < steps; s = s + 1) {
        var k: float = property(temp);
        var q: float = source(temp, power);
        // Two half-steps (RK2-like).
        var dt: float = 0.01;
        var dtemp1: float = (q * k - flow * (temp - 150.0) * 0.004) * dt;
        var mid: float = temp + 0.5 * dtemp1;
        var kmid: float = property(mid);
        var dtemp2: float = (source(mid, power) * kmid - flow * (mid - 150.0) * 0.004) * dt;
        temp = temp + dtemp2;

        // Density feedback on power.
        rho = 1.0 / (1.0 + 0.0004 * (temp - 180.0));
        if (rho < 0.6) { rho = 0.6; }
        power = power * (0.9995 + 0.0008 * (rho - 0.97));
        if (power > 12.0) { power = 12.0; }
        if (power < 0.5) { power = 0.5; }

        // Periodic control-rod adjustment.
        if (s % 50 == 0 && temp > 400.0) {
            power = power * 0.98;
        }
        energy = energy + power * dt;
    }

    emit(int(temp * 1000.0));
    emit(int(power * 1000.0));
    emit(int(energy * 1000.0));
    emit(lookups);
}
"#;

/// The `doduc` row with its three SPEC-style datasets.
pub const ROW: Row = Row {
    name: "doduc",
    description: "Nuclear reactor modeling",
    group: Group::FortranFp,
    source: || DODUC.to_string(),
    datasets: &[
        DatasetRow {
            name: "tiny",
            description: "Shortest SPEC-style run",
            inputs: || vec![Input::Int(3_000)],
        },
        DatasetRow {
            name: "small",
            description: "Medium SPEC-style run",
            inputs: || vec![Input::Int(8_000)],
        },
        DatasetRow {
            name: "ref",
            description: "Reference SPEC-style run",
            inputs: || vec![Input::Int(20_000)],
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    #[test]
    fn stabilizes_and_counts_lookups() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let out = Vm::new(&p).run(&[Input::Int(2000)]).unwrap().output_ints();
        let temp = out[0] as f64 / 1000.0;
        let power = out[1] as f64 / 1000.0;
        assert!(
            (150.0..700.0).contains(&temp),
            "temperature ran away: {temp}"
        );
        assert!((0.5..=12.0).contains(&power), "power out of clamp: {power}");
        assert_eq!(out[3], 2 * 2000, "two property lookups per step");
    }

    #[test]
    fn datasets_differ_only_in_length() {
        let w = ROW.generate();
        assert_eq!(w.datasets.len(), 3);
        let p = w.compile().unwrap();
        let tiny = Vm::new(&p).run(&w.datasets[0].inputs).unwrap();
        let small = Vm::new(&p).run(&w.datasets[1].inputs).unwrap();
        assert!(small.stats.total_instrs > 2 * tiny.stats.total_instrs);
        // Same program paths: percent-taken nearly identical (the paper's
        // "program constant").
        let pt_tiny = tiny.stats.branches.percent_taken().unwrap();
        let pt_small = small.stats.branches.percent_taken().unwrap();
        assert!((pt_tiny - pt_small).abs() < 0.05);
    }
}
