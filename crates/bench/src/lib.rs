//! # taqos-bench — benchmark harness for the paper's tables and figures
//!
//! One binary per table/figure regenerates the corresponding rows or series:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1`          | Table 1 — simulated configurations |
//! | `fig3_area`       | Figure 3 — router area overhead |
//! | `fig4_latency`    | Figure 4 — latency/throughput on uniform random & tornado |
//! | `table2_fairness` | Table 2 — relative throughput under the hotspot |
//! | `fig5_preemption` | Figure 5 — preempted packets & replayed hops |
//! | `fig6_slowdown`   | Figure 6 — slowdown & throughput deviation |
//! | `fig7_energy`     | Figure 7 — router energy per flit by hop type |
//! | `sla`             | Differentiated service — delivered vs programmed shares |
//! | `ablations`       | PVC parameter ablations |
//! | `chip_scale`      | Chip-scale experiments — isolation, latency under load, MLP-mix divergence, column scaling, QOS area |
//!
//! Every binary accepts `--quick` to run a shortened configuration (smaller
//! warm-up and measurement windows) and prints plain-text tables to stdout.
//! The `bench_netsim` binary measures engine throughput (cycles/sec) against
//! the seed-equivalent reference engine, writing `BENCH_netsim.json`.

#![warn(missing_docs)]

use std::collections::BTreeMap;

/// Minimal command-line option parser for the harness binaries: recognises
/// `--flag` switches and `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    flags: Vec<String>,
    values: BTreeMap<String, String>,
}

impl CliArgs {
    /// Parses the given iterator of arguments (excluding the program name).
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut parsed = CliArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                continue;
            };
            let takes_value = iter
                .peek()
                .map(|next| !next.starts_with("--"))
                .unwrap_or(false);
            if takes_value {
                let value = iter.next().expect("peeked value exists");
                parsed.values.insert(name.to_string(), value);
            } else {
                parsed.flags.push(name.to_string());
            }
        }
        parsed
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Whether `--name` was passed as a switch.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `--name value` parsed as the requested type, or the
    /// provided default when the option is absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when a value is present but does
    /// not parse (`--cycles 10k`): falling back to the default there would
    /// silently run a different experiment from the one asked for.
    pub(crate) fn parsed_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                format!(
                    "--{name}: cannot parse `{raw}` as {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// `parsed_or` for the harness binaries' `main`: an unparseable value
    /// prints the error and exits with status 2.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parsed_or(name, default).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }
}

/// Formats a floating point value with a fixed number of decimals, right
/// aligned in a column of the given width.
pub fn cell(value: f64, width: usize, decimals: usize) -> String {
    format!("{value:>width$.decimals$}")
}

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> CliArgs {
        CliArgs::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_values() {
        let a = args(&["--quick", "--pattern", "tornado", "--workload", "2"]);
        assert!(a.has_flag("quick"));
        assert!(!a.has_flag("slow"));
        assert_eq!(a.value("pattern"), Some("tornado"));
        assert_eq!(a.value_or("workload", 1u32), 2);
        assert_eq!(a.value_or("missing", 7u32), 7);
    }

    #[test]
    fn unparseable_value_is_an_error_naming_the_flag() {
        let a = args(&["--cycles", "10k", "--rate", "0.08"]);
        let err = a
            .parsed_or("cycles", 200_000u64)
            .expect_err("`10k` is not a cycle count");
        assert!(err.contains("--cycles") && err.contains("10k"), "{err}");
        assert_eq!(a.parsed_or("rate", 0.5f64), Ok(0.08));
        assert_eq!(a.parsed_or("missing", 7u32), Ok(7));
    }

    #[test]
    fn trailing_flag_is_not_a_value() {
        let a = args(&["--pattern", "--quick"]);
        assert!(a.has_flag("pattern"));
        assert!(a.has_flag("quick"));
        assert_eq!(a.value("pattern"), None);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(cell(3.456, 8, 2), "    3.46");
        assert_eq!(rule(4), "----");
    }
}
