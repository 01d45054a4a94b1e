//! Static vs dynamic branch prediction on one program — the tradeoff the
//! paper's introduction frames (static: free at run time, whole-program
//! knowledge; dynamic: adapts while running, costs hardware).
//!
//! Observes the test run's branch stream, then compares: the loop
//! heuristic, profile feedback from a different dataset, self-prediction
//! (the static bound), 1-bit and 2-bit hardware counters, and the 2-bit
//! hybrid seeded by the run's own profile.
//!
//! ```text
//! cargo run --release --example static_vs_dynamic
//! ```

use fisher92::ir::BranchId;
use fisher92::lang::compile;
use fisher92::predict::{evaluate, BreakConfig, Direction, Predictor};
use fisher92::report::Table;
use fisher92::vm::{Input, Vm};
use mfdyn::{RunLengths, Zoo};

const SOURCE: &str = r#"
// A hash-join-ish kernel: build a table from one array, probe with another.
global table_keys: [int];
global table_vals: [int];

fn hash(k: int) -> int {
    var h: int = (k * 2654435761) % 4096;
    if (h < 0) { h = h + 4096; }
    return h;
}

fn insert(k: int, v: int) {
    var h: int = hash(k);
    while (table_keys[h] != 0) {
        h = h + 1;
        if (h == 4096) { h = 0; }
    }
    table_keys[h] = k;
    table_vals[h] = v;
}

fn probe(k: int) -> int {
    var h: int = hash(k);
    while (table_keys[h] != 0) {
        if (table_keys[h] == k) { return table_vals[h]; }
        h = h + 1;
        if (h == 4096) { h = 0; }
    }
    return -1;
}

fn main(build: [int], probes: [int]) {
    table_keys = new_int(4096);
    table_vals = new_int(4096);
    for (var i: int = 0; i < len(build); i = i + 1) {
        insert(build[i], i + 1);
    }
    var hits: int = 0;
    var sum: int = 0;
    for (var j: int = 0; j < len(probes); j = j + 1) {
        var v: int = probe(probes[j]);
        if (v >= 0) { hits = hits + 1; sum = sum + v; }
    }
    emit(hits);
    emit(sum);
}
"#;

fn keys(seed: i64, n: usize, range: i64) -> Vec<i64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = (s * 1103515245 + 12345) % 2147483647;
            1 + s.abs() % range
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = compile(SOURCE)?;
    let vm = Vm::new(&program);

    // Train on a miss-heavy workload, test on a hit-heavy one — observed by
    // the hardware schemes (one table entry per branch site) and by the
    // run lengths between the training profile's mispredictions.
    let train = vm.run(&[keys(1, 1500, 100_000), keys(2, 8_000, 1_000_000)].map(Input::Ints))?;
    let from_train = Predictor::from_counts(&train.stats.branches, Direction::NotTaken);
    let specs = mfdyn::site_zoo(&program);
    let train_taken: Vec<bool> = (0..program.branch_info.len())
        .map(|i| from_train.predict(BranchId::from_index(i)) == Direction::Taken)
        .collect();
    let mut observers = (Zoo::new(&specs), RunLengths::new(&train_taken));
    let test_inputs = [keys(3, 1500, 100_000), keys(4, 20_000, 120_000)].map(Input::Ints);
    let test = vm.run_observed(&test_inputs, &mut observers)?;
    let (zoo, lengths) = (observers.0.report(), observers.1);

    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&["PREDICTOR", "KIND", "% CORRECT", "INSTRS/BREAK"]);
    let unavoidable = test.stats.events.unavoidable();
    let ipb = |mispredicts: u64| {
        test.stats.total_instrs as f64 / (mispredicts + unavoidable).max(1) as f64
    };

    let heuristic = Predictor::heuristic(&program);
    let oracle = Predictor::from_counts(&test.stats.branches, Direction::NotTaken);
    for (name, p) in [
        ("loop heuristic", &heuristic),
        ("profile (other dataset)", &from_train),
        ("self (static bound)", &oracle),
    ] {
        let m = evaluate(&test.stats, p, cfg);
        t.row_owned(vec![
            name.to_string(),
            "static".to_string(),
            format!("{:.1}%", m.correct_fraction() * 100.0),
            format!("{:.1}", m.instrs_per_break),
        ]);
    }
    for (name, spec) in [
        "1-bit counters",
        "2-bit counters",
        "2-bit seeded by own profile",
    ]
    .into_iter()
    .zip(specs)
    {
        let r = zoo.get(spec).expect("spec in zoo");
        t.row_owned(vec![
            name.to_string(),
            "dynamic".to_string(),
            format!("{:.1}%", r.percent_correct()),
            format!("{:.1}", ipb(r.mispredicted)),
        ]);
    }
    print!("{}", t.render());

    let gaps = lengths.summary();
    println!(
        "\nrun lengths between mispredicts (profile predictor): \
         mean {:.0}, p10 {}, median {}, p90 {} — {}x p90/p10 spread",
        gaps.mean,
        gaps.p10,
        gaps.p50,
        gaps.p90,
        gaps.p90.checked_div(gaps.p10).unwrap_or(0)
    );
    Ok(())
}
