//! Fixture self-tests for every `pss-lint` rule: each rule must fire on
//! a minimal violating source and stay quiet on the compliant variant,
//! so a silently-dead rule cannot pass CI.

use pss_check::lint::rules;
use pss_check::lint::{check_file, preprocess};

fn rule_hits(path: &str, src: &str, rule: &str) -> usize {
    check_file(path, &preprocess(src))
        .into_iter()
        .filter(|f| f.rule == rule)
        .count()
}

#[test]
fn total_cmp_fires_on_partial_cmp_call() {
    let bad = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", bad, "total-cmp"), 1);
    let good = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.total_cmp(b)); }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", good, "total-cmp"), 0);
    // A `PartialOrd` impl *defines* partial_cmp without calling it.
    let def = "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", def, "total-cmp"), 0);
}

#[test]
fn codec_totality_fires_only_in_codec_modules() {
    let bad = "fn d(b: &[u8]) -> u8 { b[0] }\nfn u(r: Result<u8, ()>) -> u8 { r.unwrap() }\n";
    assert_eq!(
        rule_hits("crates/types/src/snapshot.rs", bad, "codec-totality"),
        2
    );
    assert_eq!(
        rule_hits("crates/types/src/seglog.rs", bad, "codec-totality"),
        2
    );
    // Same source outside the codec modules: out of scope.
    assert_eq!(rule_hits("crates/core/src/pd.rs", bad, "codec-totality"), 0);
    let good = "fn d(b: &[u8]) -> Option<u8> { b.first().copied() }\n";
    assert_eq!(
        rule_hits("crates/types/src/snapshot.rs", good, "codec-totality"),
        0
    );
}

#[test]
fn codec_totality_ignores_attributes_and_literals() {
    let src = "#[derive(Debug)]\nstruct S;\nconst K: [u8; 2] = [1, 2];\nfn p(b: &[u8]) -> Option<[u8; 2]> { match b { [a, c] => Some([*a, *c]), _ => None } }\n";
    assert_eq!(
        rule_hits("crates/types/src/snapshot.rs", src, "codec-totality"),
        0
    );
}

#[test]
fn ordering_rule_fires_outside_the_audited_files() {
    let bad = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Acquire) }\n";
    assert_eq!(
        rule_hits("crates/sim/src/sharded.rs", bad, "ordering-outside-facade"),
        1
    );
    // The two audited lock-free files and the facade itself are exempt.
    assert_eq!(
        rule_hits("crates/serve/src/queue.rs", bad, "ordering-outside-facade"),
        0
    );
    assert_eq!(
        rule_hits("crates/serve/src/daemon.rs", bad, "ordering-outside-facade"),
        0
    );
    assert_eq!(
        rule_hits("crates/check/src/sync.rs", bad, "ordering-outside-facade"),
        0
    );
    // cmp::Ordering is a different enum and is unrestricted.
    let cmp = "fn g(a: i32, b: i32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
    assert_eq!(
        rule_hits("crates/sim/src/sharded.rs", cmp, "ordering-outside-facade"),
        0
    );
}

#[test]
fn seqcst_banned_even_in_audited_files() {
    let bad = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::SeqCst) }\n";
    assert_eq!(rule_hits("crates/serve/src/queue.rs", bad, "no-seqcst"), 1);
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", bad, "no-seqcst"), 1);
    // ...except inside #[cfg(test)] blocks.
    let test_only = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicUsize) -> usize { a.load(Ordering::SeqCst) }\n}\n";
    assert_eq!(
        rule_hits("crates/serve/src/queue.rs", test_only, "no-seqcst"),
        0
    );
    // The model interprets orderings, so the facade may spell SeqCst.
    assert_eq!(
        rule_hits("crates/check/src/model/atomic.rs", bad, "no-seqcst"),
        0
    );
}

#[test]
fn float_eq_fires_on_literal_comparisons() {
    let bad = "fn f(x: f64) -> bool { x == 0.0 }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", bad, "float-eq"), 1);
    // The tolerance module itself is exempt.
    assert_eq!(rule_hits("crates/types/src/num.rs", bad, "float-eq"), 0);
    // Integer comparisons and range checks are fine.
    let good = "fn g(n: usize, x: f64) -> bool { n == 0 && x <= 1.5 }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", good, "float-eq"), 0);
}

#[test]
fn spin_rule_routes_serving_layer_spins_through_the_facade() {
    const RULE: &str = "spin-outside-facade";
    let bad = "fn a() { std::thread::yield_now(); }\n\
               fn b() { thread::yield_now(); }\n\
               fn c() { std::hint::spin_loop(); }\n";
    assert_eq!(rule_hits("crates/serve/src/router.rs", bad, RULE), 3);
    // The facade spelled by full path is the compliant form.
    let good = "fn a() { pss_check::thread::yield_now(); pss_check::hint::spin_loop(); }\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", good, RULE), 0);
    // A line with one facade call and one std call still fires.
    let mixed = "fn a() { pss_check::thread::yield_now(); std::thread::yield_now(); }\n";
    assert_eq!(rule_hits("crates/serve/src/chaos.rs", mixed, RULE), 1);
    // Test modules and code outside the serving layer are out of scope.
    let test_only = "#[cfg(test)]\nmod tests {\n    fn a() { std::thread::yield_now(); }\n}\n";
    assert_eq!(rule_hits("crates/serve/src/queue.rs", test_only, RULE), 0);
    assert_eq!(
        rule_hits("crates/bench/src/experiments/serve.rs", bad, RULE),
        0
    );
}

#[test]
fn feed_rule_confines_arrival_calls_to_the_feed_core() {
    const RULE: &str = "feed-outside-core";
    let bad = "fn a(r: &mut R, j: &Job) { r.on_arrival(j, 0.0).ok(); }\n\
               fn b(r: &mut R, js: &[Job]) { r.on_arrivals(js, 0.0).ok(); }\n";
    assert_eq!(rule_hits("crates/sim/src/sharded.rs", bad, RULE), 2);
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", bad, RULE), 2);
    // The core itself, test modules, waived lines and other crates are
    // out of scope.
    assert_eq!(rule_hits("crates/sim/src/feed.rs", bad, RULE), 0);
    let test_only = "#[cfg(test)]\nmod tests {\n    fn a(r: &mut R, j: &Job) { r.on_arrival(j, 0.0).ok(); }\n}\n";
    assert_eq!(rule_hits("crates/sim/src/engine.rs", test_only, RULE), 0);
    let waived = "// pss-lint: allow(feed-outside-core) — timing the raw call\nfn a(r: &mut R, j: &Job) { r.on_arrival(j, 0.0).ok(); }\n";
    assert_eq!(rule_hits("crates/sim/src/replay.rs", waived, RULE), 0);
    assert_eq!(
        rule_hits("crates/bench/src/experiments/burst.rs", bad, RULE),
        0
    );
}

#[test]
fn arrival_rule_keeps_one_arrival_method_per_run() {
    const RULE: &str = "arrival-override";
    let bad = "impl OnlineScheduler for R {\n    \
               fn on_arrival(&mut self, j: &Job, now: f64) -> Result<Decision, E> { todo!() }\n}\n";
    assert_eq!(rule_hits("crates/baselines/src/avr.rs", bad, RULE), 1);
    assert_eq!(rule_hits("crates/core/src/online.rs", bad, RULE), 1);
    assert_eq!(rule_hits("examples/datacenter.rs", bad, RULE), 1);
    // Implementing the burst method, or calling the provided one, is fine.
    let good = "fn on_arrivals(&mut self, js: &[Job], now: f64) -> R { todo!() }\n\
                fn f(r: &mut R, j: &Job) { r.on_arrival(j, 0.0).ok(); }\n";
    assert_eq!(rule_hits("crates/baselines/src/avr.rs", good, RULE), 0);
    // The trait's own file, test modules and waived lines are out of scope.
    assert_eq!(rule_hits("crates/types/src/scheduler.rs", bad, RULE), 0);
    let test_only =
        "#[cfg(test)]\nmod tests {\n    fn on_arrival(&mut self, j: &Job, now: f64) {}\n}\n";
    assert_eq!(rule_hits("crates/sim/src/replay.rs", test_only, RULE), 0);
    let waived = "// pss-lint: allow(arrival-override) — a wrapper under test\nfn on_arrival(&mut self, j: &Job, now: f64) {}\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", waived, RULE), 0);
}

#[test]
fn checkpoint_rule_confines_the_log_and_blob_calls_to_the_chain() {
    const RULE: &str = "checkpoint-outside-chain";
    let bad = "fn a(r: &R, l: &mut SegmentLog) { r.snapshot_live(l).ok(); }\n\
               fn b(b: &StateBlob, l: &SegmentLog) { R::restore_with_log(b, l).ok(); }\n\
               fn c(r: &R, l: &mut SegmentLog) { l.sync_from(r.frontier()).ok(); }\n\
               fn d(l: &mut SegmentLog) { let c = l.cursor(); l.compact(c); }\n\
               fn e(l: &mut SegmentLog, t: &[u8]) { l.encode_tail(LogCursor(0)).ok(); l.absorb_tail(t).ok(); }\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", bad, RULE), 5);
    assert_eq!(rule_hits("crates/sim/src/engine.rs", bad, RULE), 5);
    // The chain itself, test modules, waived lines and other crates are
    // out of scope.
    assert_eq!(rule_hits("crates/sim/src/checkpoint.rs", bad, RULE), 0);
    let test_only = "#[cfg(test)]\nmod tests {\n    fn a(r: &R, l: &mut SegmentLog) { r.snapshot_live(l).ok(); }\n}\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", test_only, RULE), 0);
    let waived = "// pss-lint: allow(checkpoint-outside-chain) — timing the raw capture\nfn a(r: &R, l: &mut SegmentLog) { r.snapshot_live(l).ok(); }\n";
    assert_eq!(rule_hits("crates/sim/src/replay.rs", waived, RULE), 0);
    assert_eq!(
        rule_hits("crates/bench/src/experiments/seglog.rs", bad, RULE),
        0
    );
    // Calling the chain is the compliant form.
    let good =
        "fn a(c: &mut CheckpointChain, k: &Core) { c.sync(k).ok(); c.capture(k, 0, 0.0).ok(); }\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", good, RULE), 0);
}

#[test]
fn serve_unwrap_flags_panicking_unwraps_in_the_serving_layer() {
    const RULE: &str = "serve-unwrap";
    let bad = "fn a(m: &Mutex<u8>) -> u8 { *m.lock().unwrap() }\n\
               fn b(h: Option<u8>) -> u8 { h.expect(\"live\") }\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", bad, RULE), 2);
    assert_eq!(rule_hits("crates/serve/src/router.rs", bad, RULE), 2);
    // Test modules, waived lines and other crates are out of scope.
    let test_only = "#[cfg(test)]\nmod tests {\n    fn a(q: &Q) { q.push(7).unwrap(); }\n}\n";
    assert_eq!(rule_hits("crates/serve/src/queue.rs", test_only, RULE), 0);
    let waived = "// pss-lint: allow(serve-unwrap) — a constant that parses\nfn a() -> u8 { \"7\".parse().unwrap() }\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", waived, RULE), 0);
    assert_eq!(rule_hits("crates/sim/src/feed.rs", bad, RULE), 0);
    // Recovering a poisoned lock, defaulting and indexing are compliant.
    let good = "fn a(m: &Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(PoisonError::into_inner) }\n\
                fn b(h: Option<u8>, v: &[u8]) -> u8 { h.unwrap_or(v[0]) }\n";
    assert_eq!(rule_hits("crates/serve/src/daemon.rs", good, RULE), 0);
}

#[test]
fn waiver_comment_suppresses_the_named_rule_only() {
    let waived =
        "// pss-lint: allow(float-eq) — exact sentinel\nfn f(x: f64) -> bool { x == 0.0 }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", waived, "float-eq"), 0);
    // A waiver for one rule does not silence another.
    let cross = "// pss-lint: allow(float-eq)\nfn f(a: &A) -> usize { a.load(Ordering::SeqCst) }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", cross, "no-seqcst"), 1);
    // And it only reaches one line below.
    let too_far = "// pss-lint: allow(float-eq)\nfn f() {}\nfn g(x: f64) -> bool { x == 0.0 }\n";
    assert_eq!(rule_hits("crates/core/src/pd.rs", too_far, "float-eq"), 1);
}

#[test]
fn rules_skip_comments_and_strings() {
    let src = "// a.load(Ordering::SeqCst) in prose\nconst DOC: &str = \"x == 0.0 and b[0] and .partial_cmp(\";\n";
    for rule in ["no-seqcst", "float-eq", "codec-totality", "total-cmp"] {
        assert_eq!(rule_hits("crates/types/src/snapshot.rs", src, rule), 0);
    }
}

#[test]
fn toggle_matrix_flags_uncovered_toggles() {
    let src = preprocess(
        "pub fn with_fast_path(mut self, on: bool) -> Self { self }\n\
         pub fn with_slow_path(mut self, on: bool) -> Self { self }\n",
    );
    let toggles: Vec<(String, String, usize)> = rules::collect_toggles(&src)
        .into_iter()
        .map(|(name, idx)| (name, "crates/x/src/lib.rs".to_string(), idx))
        .collect();
    let matrix = "fn matrix() { b.with_fast_path(true); }";
    let findings = rules::toggle_matrix(&toggles, matrix);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("with_slow_path"));
    assert_eq!(findings[0].line, 2);
}

#[test]
fn crate_attrs_requires_the_per_crate_posture() {
    let plain = "#![warn(missing_docs)]\npub fn f() {}\n";
    assert_eq!(rules::crate_attrs("crates/core/src/lib.rs", plain).len(), 1);
    let forbid = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(rules::crate_attrs("crates/core/src/lib.rs", forbid).is_empty());
    // serve is the one crate allowed unsafe; it must deny implicit
    // unsafe-op-in-unsafe-fn instead.
    assert_eq!(
        rules::crate_attrs("crates/serve/src/lib.rs", forbid).len(),
        1
    );
    let deny = "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
    assert!(rules::crate_attrs("crates/serve/src/lib.rs", deny).is_empty());
}

#[test]
fn workspace_walk_excludes_vendor() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let files = pss_check::lint::workspace_sources(root).unwrap();
    assert!(files.iter().any(|f| f == "crates/check/src/lint/rules.rs"));
    assert!(files.iter().any(|f| f == "src/lib.rs"));
    assert!(!files.iter().any(|f| f.starts_with("vendor/")));
    assert!(!files.iter().any(|f| f.starts_with("target/")));
}
