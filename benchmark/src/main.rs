//! The repo benchmark: six workloads, host-side end-to-end metrics, and an
//! outside-in per-layer trace. See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run.sh                                  # every workload, untraced
//! benchmark/run.sh --workload chip_fault_8x8 --seed 7 --seconds 10 --trace 1
//! benchmark/run.sh --smoke                          # budgets / 20, all checks on
//! ```
//!
//! The process started by that command is the *driver*: it measures nothing
//! itself. Each measurement happens in a fresh child (this binary re-run
//! with `--child`), pinned to one CPU when `taskset` is available and with
//! address-space randomisation off when `setarch` is, one child at a time,
//! so a single busy thread exists at any moment.

mod clock;
mod engine;
mod json;
mod manifest;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

use crate::json::Json;
use crate::report::Report;
use crate::stats::{failed_share, Summary};
use crate::workloads::EngineWorkload;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Name of workload 6.
const SUITE: &str = "experiments_quick";
/// Cold builds per run, one per fresh child; `setup_s` is their median.
const SETUP_CHILDREN: usize = 31;
/// Where the traced run writes its Chrome trace.
const RESULTS_DIR: &str = "benchmark/results";

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] | --manifest
  --workload NAME  one of the six workloads (default: all, one after another)
  --seed N         workload seed (default 1)
  --seconds S      wall time one run measures for (default: run_seconds of BENCHMARK.json)
  --trace 0|1      0: untraced run, end-to-end metrics (default); 1: traced run, per-layer metrics
  --smoke          budgets / 20 and --seconds / 20, every check on; runs both the
                   untraced and the traced run unless --trace picks one
  --manifest       print BENCHMARK.json as the harness defines it";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace`, when given.
    trace: Option<bool>,
    smoke: bool,
    manifest: bool,
    /// Internal: run one measurement in this process and print its report.
    child: Option<String>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: manifest::RUN_SECONDS as f64,
            trace: None,
            smoke: false,
            manifest: false,
            child: None,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => {
                    args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                        return Err("--seconds must be in (0, 60]".to_string());
                    }
                }
                "--trace" => {
                    args.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    });
                }
                "--child" => args.child = Some(value()?),
                "--smoke" => args.smoke = true,
                "--manifest" => args.manifest = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if let Some(name) = &args.workload {
            if !manifest::WORKLOADS.iter().any(|(w, _)| w == name) {
                return Err(format!("unknown workload {name}"));
            }
        }
        Ok(args)
    }

    /// Whether to make the untraced and the traced run.
    fn runs(&self) -> &'static [bool] {
        match (self.trace, self.smoke) {
            (Some(false), _) | (None, false) => &[false],
            (Some(true), _) => &[true],
            (None, true) => &[false, true],
        }
    }

    /// Seconds the slices or passes may take.
    fn measure_seconds(&self) -> f64 {
        if self.smoke {
            self.seconds / 20.0
        } else {
            self.seconds
        }
    }
}

/// The `key = value` pairs of `[profile.release]` in a manifest.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut pairs = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((key, value)) = line.split_once('=') {
                pairs.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
    }
    pairs
}

/// Same codegen as the product: the benchmark package is outside the root
/// workspace, so the root `[profile.release]` does not reach it. Refuses to
/// run unless the two tables agree.
fn check_release_profiles() -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            format!("{path}: {e} (run from the repository root, e.g. via benchmark/run.sh)")
        })
    };
    let root = release_profile(&read("Cargo.toml")?);
    let own = release_profile(&read("benchmark/Cargo.toml")?);
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: root Cargo.toml has {root:?}, benchmark/Cargo.toml has {own:?}"
        ))
    }
}

/// How measurement children are launched: pinned to one CPU and with
/// address-space randomisation off, where the tools to do so exist, and
/// always with one malloc arena.
#[derive(Debug, Clone, Default)]
struct Launcher {
    /// CPU the children are pinned to (`taskset -c`). One busy thread on
    /// one CPU; it also makes the library's `parallel_map` resolve to one
    /// worker, so the suite is timed single-threaded.
    cpu: Option<String>,
    /// Whether children run under `setarch -R`. With randomisation on, the
    /// peak resident set of identical runs moved 5 % (4.07-4.28 MiB); with
    /// it off, identical runs read identically.
    aslr_off: bool,
}

impl Launcher {
    /// Probes for `taskset` and `setarch` by running `true` under each.
    fn detect() -> Launcher {
        let works = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .arg("true")
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success())
        };
        let cpu = last_allowed_cpu().filter(|cpu| works("taskset", &["-c", cpu]));
        Launcher {
            cpu,
            aslr_off: works("setarch", &[std::env::consts::ARCH, "-R"]),
        }
    }

    /// The command line that runs `exe` under the launcher's wrappers.
    fn command(&self, exe: &Path) -> Command {
        let mut words: Vec<&std::ffi::OsStr> = Vec::new();
        if self.aslr_off {
            words.extend(["setarch", std::env::consts::ARCH, "-R"].map(std::ffi::OsStr::new));
        }
        if let Some(cpu) = &self.cpu {
            words.extend(["taskset", "-c", cpu].map(std::ffi::OsStr::new));
        }
        words.push(exe.as_os_str());
        let mut command = Command::new(words[0]);
        // The library's `parallel_map` runs every batch on short-lived
        // worker threads. Which arena glibc hands each of them is a race,
        // and the peak resident set of identical suite runs moved 14 %
        // with it (22.4-25.5 MiB); with one arena it moves 0.7 %.
        command.args(&words[1..]).env("MALLOC_ARENA_MAX", "1");
        command
    }

    fn describe(&self) -> String {
        format!(
            "{}, ASLR {}, one malloc arena",
            self.cpu
                .as_ref()
                .map_or("not pinned".to_string(), |cpu| format!(
                    "pinned to cpu {cpu}"
                )),
            if self.aslr_off { "off" } else { "on" }
        )
    }
}

/// The highest-numbered CPU this process may run on.
fn last_allowed_cpu() -> Option<String> {
    let list = engine::proc_status("Cpus_allowed_list")?;
    let last = list.rsplit([',', '-']).next()?.trim();
    last.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// Runs one measurement in a fresh child process and parses its report.
fn spawn_child(
    args: &Args,
    workload: &str,
    what: &str,
    launcher: &Launcher,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = launcher.command(&exe);
    command
        .args(["--child", what, "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{what} child of {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{what} child of {workload} ended with {}",
            output.status
        ));
    }
    Ok(Report::from_lines(&String::from_utf8_lossy(&output.stdout)))
}

/// The child side: one measurement, report on standard output.
fn run_child(args: &Args, what: &str) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let job = EngineWorkload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .map(|workload| engine::Job {
            workload,
            seed: args.seed,
            seconds: args.measure_seconds(),
            smoke: args.smoke,
        });
    let (report, spans) = match (what, &job) {
        ("setup", Some(job)) => (engine::cold_build(job), None),
        ("setup", None) => (suite::cold_build(), None),
        ("check", Some(job)) => (engine::checked_prefix(job), None),
        ("timed", Some(job)) => (engine::timed_run(job), None),
        ("timed", None) => (
            suite::timed_run(args.seed, args.measure_seconds(), args.smoke),
            None,
        ),
        ("traced", Some(job)) => {
            let (report, spans) = engine::traced_run(job);
            (report, Some(spans))
        }
        ("traced", None) => {
            let (report, spans) = suite::traced_run(args.seed, args.measure_seconds(), args.smoke);
            (report, Some(spans))
        }
        _ => return Err(format!("unknown child mode {what} for {name}")),
    };
    print!("{}", report.to_lines());
    if let Some(spans) = spans {
        std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
        let path = format!("{RESULTS_DIR}/{name}.trace.json");
        std::fs::write(&path, spans.to_chrome_trace().render() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
        println!("N wrote {path} ({} spans)", spans.spans().len());
    }
    Ok(())
}

/// `setup_s` over fresh children, one cold build each.
fn measure_setup(
    args: &Args,
    workload: &str,
    launcher: &Launcher,
    report: &mut Report,
) -> Result<(), String> {
    let children = if args.smoke { 5 } else { SETUP_CHILDREN };
    let mut samples = Vec::with_capacity(children);
    for _ in 0..children {
        let child = spawn_child(args, workload, "setup", launcher)?;
        let sample = child
            .get("setup_s")
            .and_then(|m| m.value.as_f64())
            .ok_or("setup child reported no setup_s")?;
        samples.push(sample);
    }
    let summary = Summary::of(&samples).expect("at least one set-up child ran");
    report.metric("setup_s", summary.p10, "s");
    report.note(format!(
        "setup_s: 10th percentile of {} cold builds, one per fresh process; min {:.6} q1 {:.6} median {:.6} q3 {:.6} p90 {:.6} (IQR ratio {:.3})",
        summary.count,
        summary.min,
        summary.q1,
        summary.median,
        summary.q3,
        summary.p90,
        summary.iqr_ratio()
    ));
    Ok(())
}

/// Runs one workload and prints its metrics, checks and result line.
/// Returns whether every check held.
fn run_workload(
    args: &Args,
    workload: &str,
    traced: bool,
    launcher: &Launcher,
) -> Result<bool, String> {
    let mut report = Report::default();
    let is_suite = workload == SUITE;
    if traced {
        report.merge(spawn_child(args, workload, "traced", launcher)?);
        report.count("harness.pinned", u64::from(launcher.cpu.is_some()), "bool");
        report.count("harness.aslr_off", u64::from(launcher.aslr_off), "bool");
        let failed = report.failed();
        report.count("harness.checks_failed", failed, "count");
    } else {
        measure_setup(args, workload, launcher, &mut report)?;
        if !is_suite {
            report.merge(spawn_child(args, workload, "check", launcher)?);
        }
        report.merge(spawn_child(args, workload, "timed", launcher)?);
    }

    // The metrics the contract names for this mode, in manifest order;
    // everything else a child measured is printed as context.
    let named: Vec<(String, &str)> = if traced {
        manifest::per_layer()
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect()
    } else {
        manifest::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mode = if traced { "traced" } else { "untraced" };
    println!(
        "== {workload}: seed {}, {} s, {mode}{}, {} ==",
        args.seed,
        args.measure_seconds(),
        if args.smoke { ", smoke" } else { "" },
        launcher.describe(),
    );
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in &named {
        let value = match report.get(name) {
            Some(metric) => metric.value.clone(),
            // A layer that does no work on this workload reports zero; an
            // end-to-end metric must have been measured.
            None if traced => Json::Int(0),
            None => {
                missing.push(name.clone());
                continue;
            }
        };
        println!("  {name:<34} {:>22} {unit}", value.render());
        metrics.push((
            name.clone(),
            Json::obj([("value", value), ("unit", Json::Str(unit.to_string()))]),
        ));
    }
    if !missing.is_empty() {
        return Err(format!("{workload}: no measurement of {missing:?}"));
    }
    println!("  -- context --");
    for metric in &report.metrics {
        if !named.iter().any(|(name, _)| *name == metric.name) {
            println!(
                "  {:<34} {:>22} {}",
                metric.name,
                metric.value.render(),
                metric.unit
            );
        }
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    for check in &report.checks {
        let verdict = if check.ok { "ok  " } else { "FAIL" };
        println!("  {verdict} {} ({})", check.name, check.detail);
    }
    let (attempted, failed) = (report.attempted(), report.failed());
    println!(
        "  checks: {attempted} attempted, {failed} failed (failed_share {})",
        failed_share(failed, attempted)
    );
    let correct = failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn run() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.manifest {
        print!("{}", manifest::render());
        return Ok(true);
    }
    if let Some(what) = &args.child {
        run_child(&args, what)?;
        return Ok(true);
    }
    if !Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root, e.g. via benchmark/run.sh".to_string());
    }
    check_release_profiles()?;
    let launcher = Launcher::detect();
    let mut all_correct = true;
    for (workload, _) in manifest::WORKLOADS {
        if args.workload.as_deref().is_none_or(|w| w == workload) {
            for &traced in args.runs() {
                all_correct &= run_workload(&args, workload, traced, &launcher)?;
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "chip_fault_8x8",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workload.as_deref(), Some("chip_fault_8x8"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, Some(true)));
        assert_eq!(args.runs(), [true]);
        assert!(!args.smoke && args.child.is_none());
        let defaults = parse(&[]).expect("valid");
        assert_eq!((defaults.seed, defaults.runs()), (1, &[false][..]));
        assert_eq!(defaults.seconds, manifest::RUN_SECONDS as f64);
        let smoke = parse(&["--smoke"]).expect("valid");
        assert_eq!(
            (smoke.measure_seconds(), smoke.runs()),
            (0.5, &[false, true][..])
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn release_profiles_compare_by_content() {
        let root = "[package]\nname = \"x\"\n\n[profile.release]\nlto = \"thin\" # why\ncodegen-units=1\n\n[profile.bench]\ninherits = \"release\"\n";
        let own = "[profile.release]\ncodegen-units = 1\nlto = \"thin\"\n";
        assert_eq!(release_profile(root), release_profile(own));
        assert_eq!(release_profile(root).len(), 2);
        assert_ne!(
            release_profile(root),
            release_profile("[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n")
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_package_mirrors_the_root_release_profile() {
        let own = include_str!("../Cargo.toml");
        // Absent when the package is built outside the repository.
        if let Ok(root) =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        {
            assert_eq!(release_profile(&root), release_profile(own));
        }
    }
}
