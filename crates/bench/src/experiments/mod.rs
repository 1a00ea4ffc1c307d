//! The experiment registry (E1–E11 of DESIGN.md, plus the streaming
//! latency experiment E12, the burst-ingestion experiment E13,
//! the multi-tenant ingestion soak E15, the chaos soak E16, the
//! stream-sharding experiment E17 and the checkpoint experiment E18).
//! E14, which measured the retired full-frontier checkpoint format, is
//! gone; E18 covers checkpoint size, capture/restore cost and recovery.

use pss_metrics::Table;

pub mod burst;
pub mod chaos;
pub mod classical;
pub mod competitive;
pub mod delta_ablation;
pub mod dual_bound;
pub mod fig2_chen;
pub mod fig3_profiles;
pub mod lower_bound;
pub mod pd_vs_cll;
pub mod prop2;
pub mod rejection_policy;
pub mod route;
pub mod scaling;
pub mod seglog;
pub mod serve;
pub mod streaming;

/// The output of one experiment: its identifier, a short description, the
/// generated tables and free-form notes (observations recorded in
/// EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (e.g. "E3").
    pub id: String,
    /// One-line description.
    pub title: String,
    /// The generated tables.
    pub tables: Vec<Table>,
    /// Observations / pass-fail notes.
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Renders the whole experiment as plain text.
    pub fn to_text(&self) -> String {
        let mut out = format!("#### {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_text());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Renders the whole experiment as a JSON object (hand-rolled; the
    /// workspace has no serialisation dependency).
    pub fn to_json(&self) -> String {
        use pss_metrics::table::json_string;
        let tables: Vec<String> = self.tables.iter().map(|t| t.to_json()).collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\"id\":{},\"title\":{},\"tables\":[{}],\"notes\":[{}]}}",
            json_string(&self.id),
            json_string(&self.title),
            tables.join(","),
            notes.join(",")
        )
    }

    /// Renders the whole experiment as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("**Observations**\n\n");
            for n in &self.notes {
                out.push_str(&format!("* {n}\n"));
            }
        }
        out
    }
}

/// Runs every experiment.  `quick` reduces sweep sizes (used by the smoke
/// tests); the recorded EXPERIMENTS.md numbers use `quick = false`.
pub fn all_experiments(quick: bool) -> Vec<ExperimentOutput> {
    vec![
        fig2_chen::run(quick),
        fig3_profiles::run(quick),
        competitive::run(quick),
        lower_bound::run(quick),
        pd_vs_cll::run(quick),
        rejection_policy::run(quick),
        prop2::run(quick),
        dual_bound::run(quick),
        classical::run(quick),
        scaling::run(quick),
        delta_ablation::run(quick),
        streaming::run(quick),
        burst::run(quick),
        serve::run(quick),
        chaos::run(quick),
        route::run(quick),
        seglog::run(quick),
    ]
}

/// Runs a single experiment by id (`"E1"`, …, `"E18"`; there is no
/// `"E14"`), if it exists.
pub fn run_experiment(id: &str, quick: bool) -> Option<ExperimentOutput> {
    match id.to_ascii_uppercase().as_str() {
        "E1" => Some(fig2_chen::run(quick)),
        "E2" => Some(fig3_profiles::run(quick)),
        "E3" => Some(competitive::run(quick)),
        "E4" => Some(lower_bound::run(quick)),
        "E5" => Some(pd_vs_cll::run(quick)),
        "E6" => Some(rejection_policy::run(quick)),
        "E7" => Some(prop2::run(quick)),
        "E8" => Some(dual_bound::run(quick)),
        "E9" => Some(classical::run(quick)),
        "E10" => Some(scaling::run(quick)),
        "E11" => Some(delta_ablation::run(quick)),
        "E12" => Some(streaming::run(quick)),
        "E13" => Some(burst::run(quick)),
        "E15" => Some(serve::run(quick)),
        "E16" => Some(chaos::run(quick)),
        "E17" => Some(route::run(quick)),
        "E18" => Some(seglog::run(quick)),
        _ => None,
    }
}
