//! Golden-fixture and self-hosting tests for `taqos-analyze`.
//!
//! The fixture tree under `tests/fixtures/analysis/` mirrors the real
//! workspace layout (`crates/<name>/src/...`) so [`Config::for_workspace`]
//! applies the same per-crate policies it applies to the repository itself:
//! `crates/netsim` files are hot-path, `crates/qos` is result-affecting,
//! `crates/bench` may read the wall clock. Each fixture file contains known
//! violations at known lines, plus suppressed and out-of-scope constructs
//! that must stay silent.
//!
//! [`Config::for_workspace`]: taqos_analyze::Config::for_workspace

use std::path::PathBuf;
use taqos_analyze::{analyze_root, Baseline, Violation};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analysis")
}

fn fixture_violations() -> Vec<Violation> {
    analyze_root(fixture_root()).expect("fixture tree analyzes")
}

fn triples(violations: &[Violation]) -> Vec<(&str, u32, &str)> {
    violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule.id()))
        .collect()
}

#[test]
fn fixture_tree_reports_exactly_the_planted_violations() {
    let violations = fixture_violations();
    assert_eq!(
        triples(&violations),
        [
            // Unsafe without SAFETY, and both malformed-directive forms.
            ("crates/core/src/lib.rs", 9, "unsafe-no-safety"),
            ("crates/core/src/lib.rs", 13, "lint-malformed"),
            ("crates/core/src/lib.rs", 14, "lint-malformed"),
            // Panic rules apply file-wide in a hot-path module; allocation
            // rules only inside the `taqos-lint: hot` function.
            ("crates/netsim/src/network/mod.rs", 4, "panic-path"),
            ("crates/netsim/src/network/mod.rs", 6, "panic-path"),
            ("crates/netsim/src/network/mod.rs", 8, "panic-index"),
            ("crates/netsim/src/network/mod.rs", 20, "hot-alloc"),
            ("crates/netsim/src/network/mod.rs", 21, "hot-alloc"),
            ("crates/netsim/src/network/mod.rs", 22, "hot-alloc"),
            // Result-affecting crate: HashMap and a float in a *Stats
            // struct (the f64 in non-Stats `Gauge` is fine).
            ("crates/qos/src/lib.rs", 6, "float-stats-field"),
            ("crates/qos/src/lib.rs", 14, "hash-iter"),
            ("crates/qos/src/lib.rs", 15, "hash-iter"),
            // Wall clock and entropy-seeded RNG outside crates/bench.
            ("crates/traffic/src/lib.rs", 4, "wall-clock"),
            ("crates/traffic/src/lib.rs", 8, "unseeded-rng"),
        ]
    );
}

#[test]
fn allow_directives_suppress_and_bench_is_wall_clock_exempt() {
    let violations = fixture_violations();
    // The annotated expect/index sites in the netsim fixture (lines 13-14)
    // and the whole bench fixture must stay silent.
    assert!(!violations
        .iter()
        .any(|v| v.file.ends_with("network/mod.rs") && (13..=14).contains(&v.line)));
    assert!(!violations
        .iter()
        .any(|v| v.file.starts_with("crates/bench")));
    // Test code is exempt from everything except unsafe hygiene: the
    // unwraps in the fixture's #[cfg(test)] module are not reported.
    assert!(!violations
        .iter()
        .any(|v| v.file.ends_with("network/mod.rs") && v.line > 30));
}

#[test]
fn ratchet_accepts_identical_runs_and_roundtrips_through_json() {
    let violations = fixture_violations();
    let baseline = Baseline::from_violations(&violations);
    let diff = baseline.diff(&violations);
    assert!(diff.new.is_empty() && diff.resolved.is_empty());

    let reparsed = Baseline::parse(&baseline.to_json()).expect("own output parses");
    let diff = reparsed.diff(&violations);
    assert!(diff.new.is_empty() && diff.resolved.is_empty());
}

#[test]
fn ratchet_fails_on_a_new_violation() {
    let violations = fixture_violations();
    // A baseline missing one entry models code that grew a violation after
    // the ratchet was written: the check must fail on exactly that site.
    let mut stale = violations.clone();
    let grown = stale.remove(0);
    let baseline = Baseline::from_violations(&stale);
    let diff = baseline.diff(&violations);
    assert_eq!(diff.resolved.len(), 0);
    assert_eq!(diff.new.len(), 1);
    assert_eq!(diff.new[0].fingerprint, grown.fingerprint);
}

#[test]
fn ratchet_demands_shrinking_when_a_violation_is_fixed() {
    let violations = fixture_violations();
    let baseline = Baseline::from_violations(&violations);
    // Fixing a violation leaves a stale baseline entry: the check flags it
    // as resolved (fail) until the baseline is rewritten, and the rewritten
    // baseline is smaller and clean.
    let mut fixed = violations.clone();
    let gone = fixed.remove(0);
    let diff = baseline.diff(&fixed);
    assert_eq!(diff.new.len(), 0);
    assert_eq!(diff.resolved.len(), 1);
    assert_eq!(diff.resolved[0].fingerprint, gone.fingerprint);

    let rewritten = Baseline::from_violations(&fixed);
    assert_eq!(rewritten.entries.len(), baseline.entries.len() - 1);
    let diff = rewritten.diff(&fixed);
    assert!(diff.new.is_empty() && diff.resolved.is_empty());
}

#[test]
fn fingerprints_survive_line_drift() {
    let violations = fixture_violations();
    let baseline = Baseline::from_violations(&violations);
    // Moving every violation ten lines down (as an unrelated refactor
    // above them would) must not produce new or resolved entries: identity
    // is content-based, not line-based.
    let mut drifted = violations.clone();
    for v in &mut drifted {
        v.line += 10;
    }
    taqos_analyze::fingerprint(&mut drifted);
    let diff = baseline.diff(&drifted);
    assert!(diff.new.is_empty() && diff.resolved.is_empty());
}

#[test]
fn workspace_self_hosts_clean_against_the_committed_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let violations = analyze_root(&root).expect("workspace analyzes");
    let src = std::fs::read_to_string(root.join("analysis-baseline.json"))
        .expect("committed analysis-baseline.json");
    let baseline = Baseline::parse(&src).expect("committed baseline parses");
    let diff = baseline.diff(&violations);
    let describe = |v: &Violation| format!("{}:{} {}", v.file, v.line, v.rule.id());
    assert!(
        diff.new.is_empty(),
        "violations not in the committed baseline:\n{}",
        diff.new
            .iter()
            .map(|v| describe(v))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        diff.resolved.is_empty(),
        "stale baseline entries (rewrite with --write-baseline to shrink):\n{}",
        diff.resolved
            .iter()
            .map(|e| format!("{}:{} {}", e.file, e.line, e.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
