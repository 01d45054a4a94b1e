//! `espresso`: two-level logic (PLA) minimization.
//!
//! The real espresso iterates EXPAND / IRREDUNDANT / REDUCE over a cube
//! cover. This guest implements the core of that loop on the classic
//! (mask, value) cube representation: EXPAND raises literals to don't-care
//! while staying disjoint from the OFF-set, IRREDUNDANT removes cubes
//! contained in other cubes, and the loop iterates to a fixpoint. The
//! result is verified exhaustively: every ON minterm stays covered, no OFF
//! minterm ever becomes covered.

use trace_vm::Input;

use crate::datagen::Lcg;
use crate::{DatasetRow, Group, Row};

const ESPRESSO: &str = r#"
// Cubes are (mask, val) pairs: mask bit set = variable specified, val bit
// gives the required value (only meaningful under mask).
global on_mask: [int];
global on_val: [int];
global n_on: int;
global off_mask: [int];
global off_val: [int];
global n_off: int;
global nvars: int;
global alive: [int];

// Two cubes intersect iff they agree on commonly specified variables.
fn intersects(m1: int, v1: int, m2: int, v2: int) -> int {
    var common: int = m1 & m2;
    return ((v1 ^ v2) & common) == 0;
}

// Cube 1 contains cube 2 iff cube 1's constraints are a subset.
fn contains(m1: int, v1: int, m2: int, v2: int) -> int {
    if ((m1 & ~m2) != 0) { return 0; }
    return ((v1 ^ v2) & m1) == 0;
}

// EXPAND: try clearing each specified literal; keep the raise if the cube
// still avoids the whole OFF-set.
fn expand() -> int {
    var changed: int = 0;
    for (var c: int = 0; c < n_on; c = c + 1) {
        if (!alive[c]) { continue; }
        for (var v: int = 0; v < nvars; v = v + 1) {
            var bit: int = 1 << v;
            if ((on_mask[c] & bit) == 0) { continue; }
            var new_mask: int = on_mask[c] & ~bit;
            var ok: int = 1;
            for (var o: int = 0; o < n_off; o = o + 1) {
                if (intersects(new_mask, on_val[c], off_mask[o], off_val[o])) {
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                on_mask[c] = new_mask;
                on_val[c] = on_val[c] & new_mask;
                changed = 1;
            }
        }
    }
    return changed;
}

// IRREDUNDANT (single-cube containment): kill cubes contained in another
// live cube.
fn irredundant() -> int {
    var changed: int = 0;
    for (var i: int = 0; i < n_on; i = i + 1) {
        if (!alive[i]) { continue; }
        for (var j: int = 0; j < n_on; j = j + 1) {
            if (i == j || !alive[j]) { continue; }
            if (contains(on_mask[j], on_val[j], on_mask[i], on_val[i])) {
                // Tie-break: equal cubes kill the higher index only.
                if (contains(on_mask[i], on_val[i], on_mask[j], on_val[j]) && i < j) {
                    continue;
                }
                alive[i] = 0;
                changed = 1;
                break;
            }
        }
    }
    return changed;
}

fn minterm_covered(m: int) -> int {
    for (var c: int = 0; c < n_on; c = c + 1) {
        if (!alive[c]) { continue; }
        if (((m ^ on_val[c]) & on_mask[c]) == 0) { return 1; }
    }
    return 0;
}

fn main(data: [int], header: int) {
    // data layout: nvars, n_on, n_off, then (mask, val) pairs for ON then
    // OFF cubes.
    nvars = data[0];
    n_on = data[1];
    n_off = data[2];
    on_mask = new_int(n_on);
    on_val = new_int(n_on);
    off_mask = new_int(n_off);
    off_val = new_int(n_off);
    alive = new_int(n_on);
    var p: int = 3;
    for (var i: int = 0; i < n_on; i = i + 1) {
        on_mask[i] = data[p];
        on_val[i] = data[p + 1];
        alive[i] = 1;
        p = p + 2;
    }
    for (var i2: int = 0; i2 < n_off; i2 = i2 + 1) {
        off_mask[i2] = data[p];
        off_val[i2] = data[p + 1];
        p = p + 2;
    }

    // Record original coverage for the verification pass.
    var total: int = 1 << nvars;
    var before: [int] = new_int(total);
    for (var m: int = 0; m < total; m = m + 1) {
        before[m] = minterm_covered(m);
    }

    // The espresso loop.
    var rounds: int = 0;
    var changed: int = 1;
    while (changed && rounds < 8) {
        changed = 0;
        if (expand()) { changed = 1; }
        if (irredundant()) { changed = 1; }
        rounds = rounds + 1;
    }

    // Verification + result summary.
    var live: int = 0;
    var literals: int = 0;
    for (var c: int = 0; c < n_on; c = c + 1) {
        if (alive[c]) {
            live = live + 1;
            var mm: int = on_mask[c];
            while (mm != 0) {
                literals = literals + (mm & 1);
                mm = mm >> 1;
            }
        }
    }
    var lost: int = 0;      // ON minterms that lost coverage (must be 0)
    var violations: int = 0; // OFF minterms now covered (must be 0)
    var cover_hash: int = 0;
    for (var m2: int = 0; m2 < total; m2 = m2 + 1) {
        var now: int = minterm_covered(m2);
        if (before[m2] && !now) { lost = lost + 1; }
        cover_hash = (cover_hash * 31 + now) % 1000000007;
        if (now) {
            for (var o: int = 0; o < n_off; o = o + 1) {
                if (((m2 ^ off_val[o]) & off_mask[o]) == 0) {
                    violations = violations + 1;
                    break;
                }
            }
        }
    }
    emit(n_on);
    emit(live);
    emit(literals);
    emit(rounds);
    emit(lost);
    emit(violations);
    emit(cover_hash);
    emit(header);
}
"#;

/// A generated PLA: header word plus packed cube data.
fn gen_pla(seed: u64, nvars: u32, n_on: usize, n_off: usize) -> Vec<i64> {
    assert!(nvars <= 12, "minterm budget: 2^nvars <= 4096");
    let mut g = Lcg::new(seed);
    let full = (1u64 << nvars) - 1;

    // ON cubes: random cubes of varying specificity.
    let mut on: Vec<(i64, i64)> = Vec::new();
    for _ in 0..n_on {
        let specified = g.range(2, nvars as i64) as u32;
        let mut mask = 0u64;
        while mask.count_ones() < specified {
            mask |= 1 << g.below(u64::from(nvars));
        }
        let val = g.next_u64() & mask;
        on.push((mask as i64, val as i64));
    }
    // OFF cubes: distinct minterms not intersecting any ON cube. `open[m]`
    // holds while minterm `m` is uncovered and not yet drawn; once none is
    // open no later draw could be accepted, so the loop stops early (the
    // generator is dropped after it, so the skipped draws are unobservable).
    let covered = |m: u64| {
        on.iter()
            .any(|&(mask, val)| (m ^ val as u64) & mask as u64 == 0)
    };
    let mut open: Vec<bool> = (0..=full).map(|m| !covered(m)).collect();
    let mut left = open.iter().filter(|&&o| o).count();
    let mut off: Vec<(i64, i64)> = Vec::new();
    let mut guard = 0;
    while off.len() < n_off && left > 0 && guard < 200_000 {
        guard += 1;
        let m = (g.next_u64() & full) as usize;
        if open[m] {
            open[m] = false;
            left -= 1;
            off.push((full as i64, m as i64));
        }
    }

    let mut data = vec![i64::from(nvars), on.len() as i64, off.len() as i64];
    for (m, v) in on.iter().chain(off.iter()) {
        data.push(*m);
        data.push(*v);
    }
    data
}

/// A PLA and its tag as guest inputs.
fn pack(data: Vec<i64>, tag: i64) -> Vec<Input> {
    vec![Input::Ints(data), Input::Int(tag)]
}

/// The `espresso` row.
pub const ROW: Row = Row {
    name: "espresso",
    description: "PLA optimizer",
    group: Group::CInteger,
    source: || ESPRESSO.to_string(),
    datasets: &[
        DatasetRow {
            name: "bca",
            description: "Dense control PLA",
            inputs: || pack(gen_pla(301, 10, 90, 220), 1),
        },
        DatasetRow {
            name: "cps",
            description: "Wide sparse PLA",
            inputs: || pack(gen_pla(302, 12, 60, 320), 2),
        },
        DatasetRow {
            name: "ti",
            description: "Narrow deep PLA",
            inputs: || pack(gen_pla(303, 9, 130, 160), 3),
        },
        DatasetRow {
            name: "tial",
            description: "Large mixed PLA",
            inputs: || pack(gen_pla(304, 12, 140, 300), 4),
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    /// The reference generator [`gen_pla`] replaced: the same draws, but
    /// each one scanned against every ON cube and every OFF minterm so far,
    /// and no early stop.
    fn gen_pla_scan(seed: u64, nvars: u32, n_on: usize, n_off: usize) -> Vec<i64> {
        let mut g = Lcg::new(seed);
        let full = (1u64 << nvars) - 1;
        let mut on: Vec<(i64, i64)> = Vec::new();
        for _ in 0..n_on {
            let specified = g.range(2, nvars as i64) as u32;
            let mut mask = 0u64;
            while mask.count_ones() < specified {
                mask |= 1 << g.below(u64::from(nvars));
            }
            let val = g.next_u64() & mask;
            on.push((mask as i64, val as i64));
        }
        let covered = |m: u64| {
            on.iter()
                .any(|&(mask, val)| (m ^ val as u64) & mask as u64 == 0)
        };
        let mut off: Vec<(i64, i64)> = Vec::new();
        let mut guard = 0;
        while off.len() < n_off && guard < 200_000 {
            guard += 1;
            let m = g.next_u64() & full;
            if !covered(m) && !off.iter().any(|&(_, v)| v == m as i64) {
                off.push((full as i64, m as i64));
            }
        }
        let mut data = vec![i64::from(nvars), on.len() as i64, off.len() as i64];
        for (m, v) in on.iter().chain(off.iter()) {
            data.push(*m);
            data.push(*v);
        }
        data
    }

    #[test]
    fn gen_pla_matches_the_scanning_reference() {
        for (seed, nvars, n_on, n_off) in [
            (301, 10, 90, 220),
            (302, 12, 60, 320),
            (303, 9, 130, 160),
            (304, 12, 140, 300),
        ] {
            assert_eq!(
                gen_pla(seed, nvars, n_on, n_off),
                gen_pla_scan(seed, nvars, n_on, n_off),
                "dataset parameters ({seed}, {nvars}, {n_on}, {n_off})"
            );
        }
        // Sparse, moderate and dense ON sets. The dense one asks for every
        // minterm, so it always exhausts the uncovered ones: the early stop,
        // or an empty OFF set once the ON cubes cover everything.
        let (mut early, mut empty) = (0, 0);
        for seed in 1..=2 {
            for nvars in 2..=12u32 {
                let n = nvars as usize;
                for (n_on, n_off) in [(2, 8), (n, 64), (12 * n, 1 << n)] {
                    let want = gen_pla_scan(seed, nvars, n_on, n_off);
                    assert_eq!(
                        gen_pla(seed, nvars, n_on, n_off),
                        want,
                        "({seed}, {nvars}, {n_on}, {n_off})"
                    );
                    let got_off = want[2] as usize;
                    empty += usize::from(got_off == 0);
                    early += usize::from(got_off > 0 && got_off < n_off);
                }
            }
        }
        assert!(
            early > 0 && empty > 0,
            "early stops {early}, empty OFF sets {empty}"
        );
    }

    fn run_pla(data: Vec<i64>) -> Vec<i64> {
        let p = mflang::compile(ESPRESSO).unwrap();
        Vm::new(&p)
            .run(&[Input::Ints(data), Input::Int(0)])
            .unwrap()
            .output_ints()
    }

    #[test]
    fn never_loses_coverage_or_hits_offset() {
        for seed in [301, 302, 303] {
            let out = run_pla(gen_pla(seed, 8, 40, 80));
            assert_eq!(out[4], 0, "seed {seed}: lost ON coverage");
            assert_eq!(out[5], 0, "seed {seed}: OFF-set violated");
        }
    }

    #[test]
    fn minimization_shrinks_literals() {
        // Two mergeable minterms: x&y | x&!y should expand/absorb to x.
        // nvars=2, ON: (11,11)=x&y and (11,01)=x&!y (bit0 = x), OFF: (11,00),(11,10).
        let data = vec![2, 2, 2, 3, 3, 3, 1, 3, 0, 3, 2];
        let out = run_pla(data);
        assert_eq!(out[1], 1, "should minimize to a single cube");
        assert_eq!(out[2], 1, "single literal x");
        assert_eq!(out[4], 0);
        assert_eq!(out[5], 0);
    }

    #[test]
    fn redundant_duplicate_removed() {
        // Same cube twice.
        let data = vec![2, 2, 1, 3, 3, 3, 3, 3, 0];
        let out = run_pla(data);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn datasets_have_disjoint_on_off() {
        for (seed, nv, non, noff) in [(301u64, 10u32, 90usize, 220usize), (303, 9, 130, 160)] {
            let data = gen_pla(seed, nv, non, noff);
            let n_on = data[1] as usize;
            let n_off = data[2] as usize;
            assert!(n_off > 0);
            let on = &data[3..3 + 2 * n_on];
            let off = &data[3 + 2 * n_on..3 + 2 * (n_on + n_off)];
            for o in off.chunks(2) {
                for c in on.chunks(2) {
                    let common = c[0] & o[0];
                    assert!(
                        (c[1] ^ o[1]) & common != 0,
                        "ON cube intersects OFF minterm"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_output() {
        let a = run_pla(gen_pla(55, 8, 30, 60));
        let b = run_pla(gen_pla(55, 8, 30, 60));
        assert_eq!(a, b);
    }
}
