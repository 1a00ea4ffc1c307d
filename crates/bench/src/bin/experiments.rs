//! The experiment runner.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pss-bench --release --bin experiments -- all          # every experiment
//! cargo run -p pss-bench --release --bin experiments -- E3 E4       # a subset
//! cargo run -p pss-bench --release --bin experiments -- all --quick # reduced sweeps
//! ```
//!
//! Each experiment prints its tables to stdout and writes Markdown and JSON
//! files under `results/`.

use std::fs;
use std::path::Path;

use pss_bench::experiments::{all_experiments, run_experiment, ExperimentOutput};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let requested: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let outputs: Vec<ExperimentOutput> = if requested.is_empty()
        || requested.iter().any(|a| a.eq_ignore_ascii_case("all"))
    {
        all_experiments(quick)
    } else {
        requested
            .iter()
            .filter_map(|id| {
                let out = run_experiment(id, quick);
                if out.is_none() {
                    eprintln!("unknown experiment id: {id} (expected E1..E13, E15..E18 or 'all')");
                }
                out
            })
            .collect()
    };

    let results_dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(results_dir) {
        eprintln!("warning: could not create results/: {e}");
    }

    let mut combined_md = String::from("# Experiment results\n\n");
    for out in &outputs {
        println!("{}", out.to_text());
        combined_md.push_str(&out.to_markdown());
        combined_md.push('\n');

        for (i, table) in out.tables.iter().enumerate() {
            let csv_path =
                results_dir.join(format!("{}_table{}.csv", out.id.to_lowercase(), i + 1));
            if let Err(e) = fs::write(&csv_path, pss_metrics::table_to_csv(table)) {
                eprintln!("warning: could not write {}: {e}", csv_path.display());
            }
        }
        let json_path = results_dir.join(format!("{}.json", out.id.to_lowercase()));
        if let Err(e) = fs::write(&json_path, out.to_json()) {
            eprintln!("warning: could not write {}: {e}", json_path.display());
        }
    }

    let md_path = results_dir.join("experiments.md");
    if let Err(e) = fs::write(&md_path, &combined_md) {
        eprintln!("warning: could not write {}: {e}", md_path.display());
    } else {
        println!("wrote {}", md_path.display());
    }
}
