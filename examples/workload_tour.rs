//! Tour one program of the paper's sample base: run every dataset, then
//! print the Figure 2 / Figure 3 views for that program.
//!
//! ```text
//! cargo run --release --example workload_tour          # default: li
//! cargo run --release --example workload_tour espresso
//! ```

use fisher92::predict::experiment::{self, DatasetRun};
use fisher92::predict::BreakConfig;
use fisher92::profile::CombineRule;
use fisher92::report::Table;
use fisher92::workloads::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "li".to_string());
    let all = suite();
    let Some(w) = all.iter().find(|w| w.name == name) else {
        eprintln!(
            "unknown workload `{name}`; available: {}",
            all.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(1);
    };

    println!("{} — {}", w.name, w.description);
    let program = w.compile()?;
    println!(
        "{} functions, {} static branches, {} static instructions\n",
        program.functions.len(),
        program.static_branch_count(),
        program.static_instr_count()
    );

    let mut runs = Vec::new();
    for d in &w.datasets {
        let run = w.run(&program, d)?;
        println!(
            "ran {:<12} {:>12} instructions, {:>10} branch executions",
            d.name,
            run.stats.total_instrs,
            run.stats.branches.total_executed()
        );
        runs.push(DatasetRun::new(d.name.clone(), run.stats));
    }

    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&[
        "DATASET",
        "SELF I/B",
        "OTHERS I/B",
        "BEST SINGLE",
        "WORST SINGLE",
        "% TAKEN",
    ]);
    for i in 0..runs.len() {
        let self_m = experiment::self_metrics(&runs[i].stats, cfg);
        let others = if runs.len() > 1 {
            format!(
                "{:.1}",
                experiment::loo_metrics(&runs, i, CombineRule::Scaled, cfg).instrs_per_break
            )
        } else {
            "-".to_string()
        };
        let (best, worst) = match experiment::best_worst(&runs, i, cfg) {
            Some(bw) => (
                format!("{} ({:.0}%)", bw.best.0, bw.best.1 * 100.0),
                format!("{} ({:.0}%)", bw.worst.0, bw.worst.1 * 100.0),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        let taken = runs[i]
            .percent_taken()
            .map(|p| format!("{:.1}%", p * 100.0))
            .unwrap_or_default();
        t.row_owned(vec![
            runs[i].dataset.clone(),
            format!("{:.1}", self_m.instrs_per_break),
            others,
            best,
            worst,
            taken,
        ]);
    }
    println!("\n{}", t.render());
    if let Some((lo, hi)) = experiment::percent_taken_spread(&runs) {
        println!(
            "percent-taken spread: {:.1}% (the paper saw ≤9% on everything but spice2g6)",
            (hi - lo) * 100.0
        );
    }
    Ok(())
}
