//! What one measurement process found: named metrics with units, checks,
//! and free-text notes. A child process prints its report on standard
//! output, one record per line; the driver process parses and merges them.

use crate::json::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// [`Json::Int`] for exact counts, [`Json::Num`] for measurements.
    pub value: Json,
    /// Unit, as `BENCHMARK.json` states it.
    pub unit: String,
}

/// One evaluated correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The evidence, for the log.
    pub detail: String,
}

/// Metrics, checks and notes of one or more measurement processes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Checks in the order they were evaluated.
    pub checks: Vec<Check>,
    /// Checks evaluated inside library calls, known only as a tally.
    pub tally_attempted: u64,
    /// Failures among [`Self::tally_attempted`].
    pub tally_failed: u64,
    /// Human-readable context lines.
    pub notes: Vec<String>,
}

/// Whether `name` is a valid metric name: non-empty, at most 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    /// Records a measured value.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a non-finite value: both are
    /// harness bugs, not measurements.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.push(name, Json::Num(value), unit);
    }

    /// Records an exact count.
    pub fn count(&mut self, name: &str, value: u64, unit: &str) {
        self.push(name, Json::Int(value), unit);
    }

    fn push(&mut self, name: &str, value: Json, unit: &str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records a check with its evidence.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a context line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Checks evaluated, named and tallied.
    pub fn attempted(&self) -> u64 {
        self.checks.len() as u64 + self.tally_attempted
    }

    /// Checks that failed, named and tallied.
    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64 + self.tally_failed
    }

    /// Appends everything `other` recorded.
    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.checks.extend(other.checks);
        self.tally_attempted += other.tally_attempted;
        self.tally_failed += other.tally_failed;
        self.notes.extend(other.notes);
    }

    /// The line protocol a child prints: `M name value unit`,
    /// `C ok name | detail`, `T attempted failed`, `N text`.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("M {} {} {}\n", m.name, m.value.render(), m.unit));
        }
        for c in &self.checks {
            let detail = c.detail.replace('\n', " ");
            out.push_str(&format!("C {} {} | {detail}\n", u8::from(c.ok), c.name));
        }
        if self.tally_attempted > 0 {
            out.push_str(&format!(
                "T {} {}\n",
                self.tally_attempted, self.tally_failed
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("N {}\n", n.replace('\n', " ")));
        }
        out
    }

    /// Parses [`Self::to_lines`] output; lines of any other shape are kept
    /// as notes so nothing a child printed is lost.
    pub fn from_lines(text: &str) -> Report {
        let mut report = Report::default();
        for line in text.lines() {
            if !report.parse_line(line) && !line.trim().is_empty() {
                report.notes.push(line.to_string());
            }
        }
        report
    }

    fn parse_line(&mut self, line: &str) -> bool {
        let Some((tag, rest)) = line.split_once(' ') else {
            return false;
        };
        match tag {
            "M" => {
                let mut parts = rest.splitn(3, ' ');
                let (Some(name), Some(value), Some(unit)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return false;
                };
                let Ok(value) = Json::parse(value) else {
                    return false;
                };
                if !valid_metric_name(name) || value.as_f64().is_none() {
                    return false;
                }
                self.push(name, value, unit);
                true
            }
            "C" => {
                let Some((ok, rest)) = rest.split_once(' ') else {
                    return false;
                };
                let (name, detail) = rest.split_once(" | ").unwrap_or((rest, ""));
                self.check(name, ok == "1", detail);
                true
            }
            "T" => {
                let Some((attempted, failed)) = rest.split_once(' ') else {
                    return false;
                };
                let (Ok(attempted), Ok(failed)) = (attempted.parse::<u64>(), failed.parse::<u64>())
                else {
                    return false;
                };
                self.tally_attempted += attempted;
                self.tally_failed += failed;
                true
            }
            "N" => {
                self.note(rest);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "setup_s",
            "netsim.step_p99_ns",
            "core.exp.table2_s",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "tab\t",
            "unit/s",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn recording_an_invalid_name_panics() {
        Report::default().metric("no spaces", 1.0, "s");
    }

    #[test]
    fn the_line_protocol_round_trips() {
        let mut report = Report::default();
        report.metric("job_wall_s", 10.123_456_789_012, "s");
        report.count("netsim.delivered_packets", 408_745, "count");
        report.check("engine equivalence", true, "50000 cycles | digest 12ab");
        report.check("conservation", false, "");
        report.tally_attempted = 40;
        report.tally_failed = 2;
        report.note("pinned to cpu 1");
        let parsed = Report::from_lines(&report.to_lines());
        assert_eq!(parsed, report);
        assert_eq!(parsed.attempted(), 42);
        assert_eq!(parsed.failed(), 3);
        assert_eq!(
            parsed.get("netsim.delivered_packets").map(|m| &m.value),
            Some(&Json::Int(408_745))
        );
    }

    #[test]
    fn foreign_lines_become_notes_and_reports_merge() {
        let mut a = Report::from_lines("warning: something\nM bad name 1 s\n\nM ok 1.5 s\n");
        assert_eq!(a.metrics.len(), 1);
        assert_eq!(a.notes, ["warning: something", "M bad name 1 s"]);
        let mut b = Report::default();
        b.check("x", true, "");
        a.merge(b);
        assert_eq!((a.attempted(), a.failed()), (1, 0));
    }
}
