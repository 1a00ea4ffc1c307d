//! The lint rules: token-level matchers over preprocessed sources.
//!
//! Each rule is a pure function from `(path, Source)` to findings, so
//! the fixture self-tests in `tests/lint_rules.rs` can drive every rule
//! against inline sources and prove it fires.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `total-cmp` | no `.partial_cmp(` calls — prices/densities are totals-ordered via `total_cmp` |
//! | `codec-totality` | no `unwrap`/`expect`/indexing in the total-decode codec modules |
//! | `ordering-outside-facade` | atomic `Ordering::` tokens only inside the `pss-check` facade and its two audited consumers |
//! | `no-seqcst` | `SeqCst` never appears in non-test code (every site must justify a weaker ordering) |
//! | `float-eq` | no bare `==`/`!=` against float literals outside the tolerance module |
//! | `toggle-matrix` | every `pub fn with_*(… bool)` toggle is exercised by `tests/toggle_matrix.rs` |
//! | `crate-attrs` | every crate's `lib.rs` carries its unsafe-code posture attribute |
//! | `spin-outside-facade` | serving-layer spins and yields go through `pss_check::{thread, hint}` |
//! | `feed-outside-core` | the simulator and the serving layer feed runs only through `pss_sim::ShardCore` |
//! | `arrival-override` | runs implement only `on_arrivals`; `on_arrival` is the trait's provided one-job burst |
//! | `checkpoint-outside-chain` | the simulator and the serving layer checkpoint runs only through `pss_sim::CheckpointChain` |
//! | `serve-unwrap` | no `unwrap`/`expect` in the serving layer, whose worker and control plane must not panic |
//! | `decision-oracle` | decisions are compared only through the feed record's bit-exact `==`, never by hand on `dual.to_bits()` |

use super::source::Source;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (also the waiver token).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

fn finding(path: &str, idx: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        path: path.to_string(),
        line: idx + 1,
        rule,
        message,
    }
}

/// Whether `path` (workspace-relative, `/`-separated) is test code: the
/// root and per-crate `tests/` trees, and bench sources (benchmarks
/// assert nothing; they get the test-code dispensation).
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

/// `total-cmp`: forbids `.partial_cmp(` calls.  The workspace compares
/// prices, densities and speeds — all finite by construction — and a
/// stray NaN must be a loud bug at its *source*, not a silently-ignored
/// comparison; `f64::total_cmp` keeps every sort total.
pub fn total_cmp(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "total-cmp";
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.contains(".partial_cmp(") && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "use f64::total_cmp (total order) instead of partial_cmp".into(),
            ));
        }
    }
    out
}

/// The modules `codec-totality` applies to: decoders that must be total
/// functions of arbitrary input bytes.
pub const CODEC_MODULES: &[&str] = &["crates/types/src/snapshot.rs", "crates/types/src/seglog.rs"];

/// `codec-totality`: inside the codec modules, forbids `.unwrap()`,
/// `.expect(` and direct indexing — a decoder fed attacker-controlled or
/// truncated bytes must return `Err`, never panic.
pub fn codec_totality(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "codec-totality";
    if !CODEC_MODULES.contains(&path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if src.waived(idx, RULE) {
            continue;
        }
        if line.contains(".unwrap()") || line.contains(".expect(") {
            out.push(finding(
                path,
                idx,
                RULE,
                "codec modules must be total: return a decode error instead of panicking".into(),
            ));
        }
        if let Some(col) = indexing_site(line) {
            out.push(finding(
                path,
                idx,
                RULE,
                format!(
                    "indexing at column {} can panic on truncated input; \
                     use .get()/slice patterns",
                    col + 1
                ),
            ));
        }
    }
    out
}

/// Finds a `[` that follows an expression (identifier, call, or another
/// index) — i.e. an indexing site, as opposed to an array literal, slice
/// pattern, or attribute.
fn indexing_site(line: &str) -> Option<usize> {
    let chars: Vec<char> = line.chars().collect();
    for (col, &c) in chars.iter().enumerate() {
        if c != '[' || col == 0 {
            continue;
        }
        // Only the directly-adjacent character counts: `buf[`, `f(a)[`,
        // `m[i][` index; `= [`, `([`, `#[` do not.
        let p = chars[col - 1];
        if p.is_alphanumeric() || p == '_' || p == ')' || p == ']' || p == '?' {
            return Some(col);
        }
    }
    None
}

/// Paths allowed to spell atomic orderings: the facade itself and the
/// two fully-audited lock-free consumers.
pub const ORDERING_ALLOWED: &[&str] = &["crates/serve/src/queue.rs", "crates/serve/src/daemon.rs"];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Whether `line` contains `Ordering::<atomic variant>` (as opposed to
/// `cmp::Ordering` variants, which are unrestricted).
fn has_atomic_ordering(line: &str) -> bool {
    let mut rest = line;
    while let Some(at) = rest.find("Ordering::") {
        rest = &rest[at + "Ordering::".len()..];
        if ATOMIC_ORDERINGS.iter().any(|v| {
            rest.starts_with(v)
                && !rest[v.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
        }) {
            return true;
        }
    }
    false
}

/// `ordering-outside-facade`: atomic `Ordering::` tokens may only appear
/// in the `pss-check` facade/model and the two audited lock-free files
/// (`queue.rs`, `daemon.rs`).  Everything else uses the facade's derived
/// types (`Counter`, `Gauge`, `AtomicF64`), which fix the ordering in
/// one reviewed place.
pub fn ordering_outside_facade(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "ordering-outside-facade";
    if path.starts_with("crates/check/src") || ORDERING_ALLOWED.contains(&path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if has_atomic_ordering(line) && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "atomic orderings belong in pss_check::sync consumers (queue.rs/daemon.rs) \
                 or the facade's derived types — not ad-hoc call sites"
                    .into(),
            ));
        }
    }
    out
}

/// `no-seqcst`: forbids `SeqCst` in non-test code everywhere (including
/// the audited files).  Every synchronisation site must name the weakest
/// sufficient ordering; `SeqCst` is how "I didn't think about it" looks
/// in code.  (The model checker treats SeqCst as AcqRel, so code relying
/// on the global order would also be under-checked.)
pub fn no_seqcst(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "no-seqcst";
    if path.starts_with("crates/check/src") {
        // The facade/model must spell every ordering to interpret them.
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.contains("SeqCst") && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "SeqCst is banned outside tests: justify and use the weakest \
                 sufficient ordering (see src/README.md, memory-ordering contract)"
                    .into(),
            ));
        }
    }
    out
}

/// The module allowed to compare floats exactly: the tolerance module
/// itself.
pub const FLOAT_EQ_ALLOWED: &[&str] = &["crates/types/src/num.rs"];

/// `float-eq`: forbids `==`/`!=` against a float literal outside the
/// tolerance module.  Accumulated prices/energies carry rounding error;
/// comparisons go through `pss_types::num` (`approx_eq`, `EPS`).  Exact
/// sentinel comparisons (`== 0.0` for "never set") take a waiver with a
/// justification.
pub fn float_eq(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "float-eq";
    if FLOAT_EQ_ALLOWED.contains(&path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if src.waived(idx, RULE) {
            continue;
        }
        if float_literal_comparison(line) {
            out.push(finding(
                path,
                idx,
                RULE,
                "float compared with ==/!= against a literal; use pss_types::num \
                 (approx_eq/EPS) or waive with a justification"
                    .into(),
            ));
        }
    }
    out
}

/// Whether `line` has `== <float literal>` / `<float literal> ==` (or
/// `!=`).  Heuristic: a float literal is `digits.digits` possibly with
/// an exponent or `f64`/`f32` suffix.
fn float_literal_comparison(line: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let n = chars.len();
    for i in 0..n.saturating_sub(1) {
        if !((chars[i] == '=' || chars[i] == '!') && chars[i + 1] == '=') {
            continue;
        }
        // Not part of `===`/`<=`/`>=`/`=>` tokens.
        if chars[i] == '=' && i > 0 && matches!(chars[i - 1], '<' | '>' | '=' | '!') {
            continue;
        }
        if i + 2 < n && chars[i + 2] == '=' {
            continue;
        }
        // Right operand.
        let right: String = chars[i + 2..]
            .iter()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_alphanumeric() || **c == '.' || **c == '_')
            .collect();
        // Left operand (scan backwards over one token).
        let left_end = chars[..i].iter().rposition(|c| !c.is_whitespace());
        let left: String = match left_end {
            Some(e) => {
                let start = chars[..=e]
                    .iter()
                    .rposition(|c| !(c.is_alphanumeric() || *c == '.' || *c == '_'))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                chars[start..=e].iter().collect()
            }
            None => String::new(),
        };
        if is_float_literal(&right) || is_float_literal(&left) {
            return true;
        }
    }
    false
}

fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    let mut saw_dot = false;
    let mut saw_digit = false;
    for (k, c) in t.chars().enumerate() {
        match c {
            '0'..='9' | '_' => saw_digit = true,
            '.' if k > 0 => saw_dot = true,
            'e' | 'E' if saw_digit => {}
            _ => return false,
        }
    }
    saw_digit && saw_dot
}

/// Collects `(name, 0-based line)` of `pub fn with_*` toggles taking a
/// `bool` — the builder switches `tests/toggle_matrix.rs` must cover.
pub fn collect_toggles(src: &Source) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let Some(at) = line.find("pub fn with_") else {
            continue;
        };
        let rest = &line[at + "pub fn ".len()..];
        let Some(paren) = rest.find('(') else {
            continue;
        };
        let name = &rest[..paren];
        if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let args = &rest[paren..];
        if args.contains("bool") {
            out.push((name.to_string(), idx));
        }
    }
    out
}

/// `toggle-matrix`: every collected toggle name must appear in the
/// differential toggle-matrix test, so a new `with_*` switch cannot
/// ship without differential coverage.  `matrix_text` is the raw text of
/// `tests/toggle_matrix.rs`.
pub fn toggle_matrix(toggles: &[(String, String, usize)], matrix_text: &str) -> Vec<Finding> {
    const RULE: &str = "toggle-matrix";
    let mut out = Vec::new();
    for (name, path, idx) in toggles {
        if !matrix_text.contains(name.as_str()) {
            out.push(finding(
                path,
                *idx,
                RULE,
                format!("toggle `{name}` is not exercised by tests/toggle_matrix.rs"),
            ));
        }
    }
    out
}

/// The tree `spin-outside-facade` applies to: the serving layer, whose
/// spin and retry loops the model checker must see as schedule points.
pub const SPIN_SCOPE: &str = "crates/serve/src/";

/// The spin and yield calls `spin-outside-facade` routes through the
/// facade, as path suffixes.
const SPIN_CALLS: &[&str] = &["thread::yield_now", "hint::spin_loop"];

/// `spin-outside-facade`: in the serving layer, forbids
/// `std::thread::yield_now` and `std::hint::spin_loop` (or a
/// `thread::`/`hint::` path to them) outside `#[cfg(test)]` code.  Spins
/// call `pss_check::thread::yield_now` / `pss_check::hint::spin_loop` by
/// full path: std in normal builds, a schedule point under
/// `--cfg pss_model_check`, so the checker can run the thread a spinner
/// waits for.
pub fn spin_outside_facade(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "spin-outside-facade";
    if !path.starts_with(SPIN_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if src.waived(idx, RULE) {
            continue;
        }
        let direct = SPIN_CALLS.iter().any(|call| {
            line.match_indices(call)
                .any(|(at, _)| !line[..at].ends_with("pss_check::"))
        });
        if direct {
            out.push(finding(
                path,
                idx,
                RULE,
                "serving-layer spins go through pss_check::thread::yield_now or \
                 pss_check::hint::spin_loop, so the model checker sees a schedule point"
                    .into(),
            ));
        }
    }
    out
}

/// The trees `feed-outside-core` applies to: the drivers of online runs.
pub const FEED_SCOPE: &[&str] = &["crates/sim/src/", "crates/serve/src/"];

/// The one file in [`FEED_SCOPE`] allowed to call a run's arrival methods.
pub const FEED_CORE: &str = "crates/sim/src/feed.rs";

/// `feed-outside-core`: in the simulator and the serving layer, forbids
/// `.on_arrival(` and `.on_arrivals(` calls outside `#[cfg(test)]` code
/// and the feed core.  Every driver feeds through `pss_sim::ShardCore`,
/// which applies the model's arrival rules (release floor, expiry, one
/// decision per job, the price fold) in one place, so the daemon and the
/// simulator cannot drift apart.
pub fn feed_outside_core(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "feed-outside-core";
    if path == FEED_CORE || !FEED_SCOPE.iter().any(|scope| path.starts_with(scope)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let feeds = line.contains(".on_arrival(") || line.contains(".on_arrivals(");
        if feeds && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "feed runs through pss_sim::ShardCore::feed, where the arrival rules live".into(),
            ));
        }
    }
    out
}

/// The one file in [`FEED_SCOPE`] allowed to touch a run's `(log, blob)`
/// pair.
pub const CHECKPOINT_CHAIN: &str = "crates/sim/src/checkpoint.rs";

/// The checkpoint calls `checkpoint-outside-chain` confines to
/// [`CHECKPOINT_CHAIN`].
const CHECKPOINT_CALLS: &[&str] = &[
    ".snapshot_live(",
    "restore_with_log(",
    ".sync_from(",
    ".compact(",
    ".encode_tail(",
    ".absorb_tail(",
];

/// `checkpoint-outside-chain`: in the simulator and the serving layer,
/// forbids capturing, restoring, syncing, compacting or shipping a run's
/// `(log, blob)` pair outside `#[cfg(test)]` code and
/// [`CHECKPOINT_CHAIN`].  Every driver goes through
/// `pss_sim::CheckpointChain`, which keeps the pair's rules (sync before
/// capture, compact at capture, restore then truncate) in one place, so
/// the daemon and the drills cannot drift apart.
pub fn checkpoint_outside_chain(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "checkpoint-outside-chain";
    if path == CHECKPOINT_CHAIN || !FEED_SCOPE.iter().any(|scope| path.starts_with(scope)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let touches = CHECKPOINT_CALLS.iter().any(|call| line.contains(call));
        if touches && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "checkpoint runs through pss_sim::CheckpointChain, where the (log, blob) rules live"
                    .into(),
            ));
        }
    }
    out
}

/// `serve-unwrap`: in the serving layer ([`SPIN_SCOPE`]), forbids
/// `.unwrap()` and `.expect(` outside `#[cfg(test)]` code.  A panic there
/// kills a worker or the control plane: return a typed error instead, and
/// take a lock that a panicked worker may have poisoned with
/// `unwrap_or_else(PoisonError::into_inner)`.  Indexing stays allowed.
pub fn serve_unwrap(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "serve-unwrap";
    if !path.starts_with(SPIN_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let panics = line.contains(".unwrap()") || line.contains(".expect(");
        if panics && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "the serving layer must not panic: return a typed error instead".into(),
            ));
        }
    }
    out
}

/// The one file allowed to compare decisions by their dual bits: the feed
/// record's, whose bit-exact `==` is every driver's determinism oracle.
pub const DECISION_RECORD: &str = "crates/sim/src/record.rs";

/// `decision-oracle`: forbids `dual.to_bits()` outside `#[cfg(test)]` code
/// and [`DECISION_RECORD`].  Such a call marks a decision comparison written
/// by hand, and hand-written comparisons drift apart in the fields they
/// check: compare `pss_sim::FeedRecord`s with `==` instead.
pub fn decision_oracle(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "decision-oracle";
    if path == DECISION_RECORD {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.contains("dual.to_bits()") && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "compare decisions through pss_sim::FeedRecord's bit-exact ==, not by hand".into(),
            ));
        }
    }
    out
}

/// The one file allowed to define `on_arrival`: the trait's, whose
/// provided method feeds a one-job burst.
pub const ARRIVAL_TRAIT: &str = "crates/types/src/scheduler.rs";

/// `arrival-override`: forbids `fn on_arrival(` outside `#[cfg(test)]`
/// code and [`ARRIVAL_TRAIT`].  A run implements `on_arrivals` only, and
/// the provided `on_arrival` feeds it a one-job burst, so a lone job and a
/// burst cannot take two arrival paths that drift apart.
pub fn arrival_override(path: &str, src: &Source) -> Vec<Finding> {
    const RULE: &str = "arrival-override";
    if path == ARRIVAL_TRAIT {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.contains("fn on_arrival(") && !src.waived(idx, RULE) {
            out.push(finding(
                path,
                idx,
                RULE,
                "implement on_arrivals only: the provided on_arrival feeds it a one-job burst"
                    .into(),
            ));
        }
    }
    out
}

/// Per-crate unsafe-code posture, enforced by `crate-attrs`: `serve` is
/// the only crate allowed `unsafe` (the queue's slot cells), and it must
/// opt into explicit unsafe blocks inside unsafe fns; every other crate
/// forbids unsafe outright.
pub fn required_crate_attr(lib_path: &str) -> &'static str {
    if lib_path == "crates/serve/src/lib.rs" {
        "#![deny(unsafe_op_in_unsafe_fn)]"
    } else {
        "#![forbid(unsafe_code)]"
    }
}

/// `crate-attrs`: checks one `lib.rs` for its required attribute.
pub fn crate_attrs(lib_path: &str, raw: &str) -> Vec<Finding> {
    const RULE: &str = "crate-attrs";
    let required = required_crate_attr(lib_path);
    if raw.lines().any(|l| l.trim() == required) {
        Vec::new()
    } else {
        vec![finding(
            lib_path,
            0,
            RULE,
            format!("missing required crate attribute `{required}`"),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_heuristic_hits_and_misses() {
        assert!(indexing_site("let x = buf[0];").is_some());
        assert!(indexing_site("let y = f(a)[1];").is_some());
        assert!(indexing_site("let z = m[i][j];").is_some());
        assert!(indexing_site("#[derive(Debug)]").is_none());
        assert!(indexing_site("let a = [0u8; 4];").is_none());
        assert!(indexing_site("let [a, b] = pair;").is_none());
    }

    #[test]
    fn atomic_orderings_detected_cmp_orderings_ignored() {
        assert!(has_atomic_ordering("x.load(Ordering::Acquire)"));
        assert!(has_atomic_ordering("use Ordering::SeqCst;"));
        assert!(!has_atomic_ordering("Ordering::Less => {}"));
        assert!(!has_atomic_ordering("std::cmp::Ordering::Equal"));
        assert!(!has_atomic_ordering("Ordering::Releaseish"));
    }

    #[test]
    fn float_literal_comparisons_detected() {
        assert!(float_literal_comparison("if x == 0.0 {"));
        assert!(float_literal_comparison("if 1.5e3 != y {"));
        assert!(float_literal_comparison("a == 0.25f64"));
        assert!(!float_literal_comparison("if n == 0 {"));
        assert!(!float_literal_comparison("if a <= 0.5 {"));
        assert!(!float_literal_comparison("let f = |x| x >= 1.0;"));
        assert!(!float_literal_comparison("if name == other_name {"));
    }

    #[test]
    fn float_literal_token_shapes() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("12.5f64"));
        assert!(is_float_literal("1_000.25"));
        assert!(!is_float_literal("0"));
        assert!(!is_float_literal("x.len"));
        assert!(!is_float_literal(".5"));
        assert!(!is_float_literal(""));
    }

    #[test]
    fn toggle_collection_requires_bool_arg() {
        let src = super::super::source::preprocess(
            "pub fn with_warm_start(mut self, on: bool) -> Self {\n\
             pub fn with_label(mut self, s: &str) -> Self {\n",
        );
        assert_eq!(
            collect_toggles(&src),
            vec![("with_warm_start".to_string(), 0)]
        );
    }
}
