//! `pss-lint`: the workspace invariant linter.
//!
//! Hand-rolled token rules (no syn, no proc-macros — the build is
//! offline) over lightly-lexed sources: comments, strings and
//! `#[cfg(test)]` blocks are blanked first, so rules fire on live code
//! only.  See [`rules`] for the rule table and [`source`] for the
//! preprocessing and the `pss-lint: allow(<rule>)` waiver syntax.
//!
//! The library half is pure (rules take `(path, Source)` and return
//! findings) so `tests/lint_rules.rs` can prove each rule fires on a
//! fixture; the `pss-lint` binary walks the workspace and exits
//! non-zero on any finding.

pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::Finding;
pub use source::{preprocess, Source};

/// Runs every per-file rule on one (non-test) file.
pub fn check_file(rel_path: &str, src: &Source) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rules::total_cmp(rel_path, src));
    findings.extend(rules::codec_totality(rel_path, src));
    findings.extend(rules::ordering_outside_facade(rel_path, src));
    findings.extend(rules::no_seqcst(rel_path, src));
    findings.extend(rules::float_eq(rel_path, src));
    findings.extend(rules::spin_outside_facade(rel_path, src));
    findings.extend(rules::feed_outside_core(rel_path, src));
    findings.extend(rules::arrival_override(rel_path, src));
    findings.extend(rules::checkpoint_outside_chain(rel_path, src));
    findings.extend(rules::serve_unwrap(rel_path, src));
    findings.extend(rules::decision_oracle(rel_path, src));
    findings
}

/// Walks the workspace at `root` and runs every rule, returning all
/// findings sorted by path and line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut toggles: Vec<(String, String, usize)> = Vec::new();
    for rel in workspace_sources(root)? {
        let raw = fs::read_to_string(root.join(&rel))?;
        if is_crate_root(&rel) {
            findings.extend(rules::crate_attrs(&rel, &raw));
        }
        if rules::is_test_path(&rel) {
            continue;
        }
        let src = preprocess(&raw);
        findings.extend(check_file(&rel, &src));
        for (name, idx) in rules::collect_toggles(&src) {
            toggles.push((name, rel.clone(), idx));
        }
    }
    let matrix = fs::read_to_string(root.join("tests/toggle_matrix.rs")).unwrap_or_default();
    findings.extend(rules::toggle_matrix(&toggles, &matrix));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Whether `rel` is a crate root subject to the `crate-attrs` rule.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Every workspace-owned `.rs` file (sorted, `/`-separated relative
/// paths).  `vendor/` is out of scope: vendored code keeps its upstream
/// style.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        collect_rs(&root.join(top), root, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path();
            for sub in ["src", "tests", "examples", "benches"] {
                collect_rs(&dir.join(sub), root, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked paths live under the workspace root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}
