//! # taqos-analyze — workspace determinism & hot-path invariant linter
//!
//! Everything this repository claims — engine equivalence, exact-integer
//! stats, seeded fault/telemetry reproducibility — rests on invariants
//! that `rustc` cannot check: no iteration-order-dependent containers in
//! result-affecting code, no wall-clock reads outside the bench harness,
//! no unseeded randomness, no floats in accounting structs, no silent
//! panic paths or allocations on the per-cycle engine path. This crate is
//! the machine check for those conventions: an offline, zero-dependency
//! static analyzer (hand-rolled comment/string-aware lexer plus
//! lightweight scope tracking, in the spirit of `crates/compat`) that
//! walks the workspace `src` trees and enforces four lint families:
//!
//! 1. **determinism** — [`Rule::HashIter`], [`Rule::WallClock`],
//!    [`Rule::UnseededRng`], [`Rule::FloatStatsField`];
//! 2. **panic paths** — [`Rule::PanicPath`], [`Rule::PanicIndex`] in the
//!    hot-path modules;
//! 3. **hot-path allocation** — [`Rule::HotAlloc`] inside functions
//!    carrying the hot annotation;
//! 4. **unsafe hygiene** — [`Rule::UnsafeNoSafety`].
//!
//! Pre-existing violations live in a committed baseline
//! (`analysis-baseline.json`) compared by content fingerprint: CI fails on
//! any *new* violation, and the baseline may only shrink (see
//! [`Baseline`]). Per-site suppressions are spelled
//! `taqos-lint: allow(<rule>) -- <reason>` in a trailing or immediately
//! preceding line comment; the reason is mandatory. Functions are opted
//! into the allocation audit with a `taqos-lint: hot` comment directly
//! above them.
//!
//! ```text
//! cargo run -p taqos-analyze                      # full human report
//! cargo run -p taqos-analyze -- --check --baseline analysis-baseline.json
//! cargo run -p taqos-analyze -- --write-baseline analysis-baseline.json
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod json;
pub mod lexer;
pub mod report;
pub mod scan;
mod walk;

pub use baseline::{fingerprint, Baseline, Diff, Entry};
pub use scan::{FilePolicy, Rule, Violation};
pub use walk::rust_sources;

use std::path::{Path, PathBuf};

/// What to analyze and which policy applies where. [`Config::for_workspace`]
/// encodes this repository's layout; tests point the same rules at fixture
/// trees.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Crate directories whose results feed `NetStats` equality, so
    /// iteration order must be deterministic (`hash-iter` applies).
    pub result_affecting: Vec<String>,
    /// Root-relative paths of the per-cycle hot-path modules (`panic-path`
    /// and `panic-index` apply); an entry ending in `/` covers every file of
    /// that directory module.
    pub hot_path_files: Vec<String>,
    /// Crate directories allowed to read the wall clock (the bench
    /// harness times real executions).
    pub wall_clock_exempt: Vec<String>,
}

impl Config {
    /// The policy for this repository.
    pub fn for_workspace(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            result_affecting: [
                "crates/netsim",
                "crates/topology",
                "crates/qos",
                "crates/core",
                "crates/telemetry",
            ]
            .map(String::from)
            .to_vec(),
            hot_path_files: [
                "crates/netsim/src/network/",
                "crates/netsim/src/port.rs",
                "crates/netsim/src/packet.rs",
                "crates/netsim/src/closed_loop/",
                "crates/netsim/src/fault.rs",
            ]
            .map(String::from)
            .to_vec(),
            wall_clock_exempt: ["crates/bench"].map(String::from).to_vec(),
        }
    }

    /// Derives the per-file policy for a root-relative path.
    pub fn policy_for(&self, rel_path: &str) -> FilePolicy {
        let crate_dir = crate_dir_of(rel_path);
        FilePolicy {
            result_affecting: self.result_affecting.iter().any(|c| c == crate_dir),
            wall_clock_exempt: self.wall_clock_exempt.iter().any(|c| c == crate_dir),
            hot_path: self
                .hot_path_files
                .iter()
                .any(|f| rel_path == f || (f.ends_with('/') && rel_path.starts_with(f.as_str()))),
        }
    }
}

/// The crate directory (`crates/<name>`) a root-relative path belongs to,
/// or `"."` for the root package.
fn crate_dir_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return &rel_path[.."crates/".len() + name.len()];
        }
    }
    "."
}

/// Analyzes every Rust source under the configured root and returns the
/// fingerprinted violation list, sorted by (file, line, rule).
pub fn analyze(config: &Config) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for rel in rust_sources(&config.root)? {
        let source =
            std::fs::read_to_string(config.root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        violations.extend(scan::scan_file(&rel, &source, config.policy_for(&rel)));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    fingerprint(&mut violations);
    Ok(violations)
}

/// Convenience for tests: analyze a root with this repository's policy.
pub fn analyze_root(root: impl AsRef<Path>) -> Result<Vec<Violation>, String> {
    analyze(&Config::for_workspace(root.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_dir_classification() {
        assert_eq!(
            crate_dir_of("crates/netsim/src/network/mod.rs"),
            "crates/netsim"
        );
        assert_eq!(crate_dir_of("src/lib.rs"), ".");
    }

    #[test]
    fn workspace_policy_mapping() {
        let cfg = Config::for_workspace(".");
        let hot = cfg.policy_for("crates/netsim/src/network/launch.rs");
        assert!(hot.hot_path && hot.result_affecting && !hot.wall_clock_exempt);
        let bench = cfg.policy_for("crates/bench/src/lib.rs");
        assert!(bench.wall_clock_exempt && !bench.result_affecting && !bench.hot_path);
        let component = cfg.policy_for("crates/netsim/src/closed_loop/controller.rs");
        assert!(component.hot_path, "directory entries cover their files");
        let qos = cfg.policy_for("crates/qos/src/pvc.rs");
        assert!(qos.result_affecting && !qos.hot_path);
    }
}
