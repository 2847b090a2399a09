//! Golden outputs of the paper programs: every entry of
//! `taqos_bench::PROGRAMS` at `Profile::Quick` and the stdout of four
//! examples, all run in process. Each prints byte-identical output run to run,
//! so any difference from the committed `tests/golden/<name>.txt` is a
//! behaviour change.
//!
//! Re-bless after an intended change (and list every changed line in
//! CHANGES.md):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q
//! ```
//!
//! Each golden example is compiled into this test as a module: its `run`
//! writes into a `String` what its `main` prints.

use std::collections::BTreeSet;
use std::error::Error;
use std::path::PathBuf;

use taqos_bench::{Profile, PROGRAMS};

#[path = "../examples/denial_of_service.rs"]
mod denial_of_service;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/server_consolidation.rs"]
mod server_consolidation;
#[path = "../examples/topology_explorer.rs"]
mod topology_explorer;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` with the committed golden file of `name`, or rewrites
/// that file when `UPDATE_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", path.display()));
    if expected == actual {
        return;
    }
    let expected: Vec<&str> = expected.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    let mut diff = String::new();
    for line in 0..expected.len().max(actual.len()) {
        let (old, new) = (expected.get(line), actual.get(line));
        if old != new {
            for (sign, text) in [('-', old), ('+', new)] {
                if let Some(text) = text {
                    diff.push_str(&format!("{:>4} {sign}{text}\n", line + 1));
                }
            }
        }
    }
    panic!(
        "{name}: output differs from {} (line, -golden, +actual):\n{diff}\
         re-bless with UPDATE_GOLDEN=1 cargo test -q only for an intended change",
        path.display()
    );
}

fn check_program(name: &str) {
    let program = PROGRAMS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in taqos_bench::PROGRAMS"));
    check(name, &(program.run)(Profile::Quick));
}

/// Runs one example's `run` in process. Its `main` is only taken as a
/// value, which is what keeps `dead_code` quiet about it in this crate.
fn check_example(
    name: &str,
    _main: fn() -> Result<(), Box<dyn Error>>,
    run: impl FnOnce(&mut String) -> Result<(), Box<dyn Error>>,
) {
    let mut out = String::new();
    run(&mut out).unwrap_or_else(|e| panic!("{name}: {e}"));
    check(name, &out);
}

macro_rules! golden {
    ($check:ident, $list:ident: $($test:ident => $name:literal $(($($arg:expr),*))?,)*) => {
        const $list: &[&str] = &[$($name),*];
        $(
            #[test]
            fn $test() {
                $check($name $($(, $arg)*)?);
            }
        )*
    };
}

golden! { check_program, PROGRAM_TESTS:
    table1 => "table1",
    fig3_area => "fig3_area",
    fig4_latency => "fig4_latency",
    fig4_latency_tornado => "fig4_latency-tornado",
    table2_fairness => "table2_fairness",
    fig5_preemption => "fig5_preemption",
    fig5_preemption_workload2 => "fig5_preemption-workload2",
    fig6_slowdown => "fig6_slowdown",
    fig6_slowdown_workload2 => "fig6_slowdown-workload2",
    fig7_energy => "fig7_energy",
    sla => "sla",
    ablations => "ablations",
    chip_scale => "chip_scale",
}

golden! { check_example, EXAMPLE_TESTS:
    example_quickstart => "quickstart" (quickstart::main, quickstart::run),
    example_topology_explorer => "topology_explorer" (
        topology_explorer::main,
        |out| topology_explorer::run(out, topology_explorer::DEFAULT_RATE_PCT)
    ),
    example_denial_of_service => "denial_of_service" (denial_of_service::main, denial_of_service::run),
    example_server_consolidation => "server_consolidation" (
        server_consolidation::main,
        server_consolidation::run
    ),
}

/// Every registry entry has a test above, and every committed golden file
/// belongs to one.
#[test]
fn every_program_and_golden_file_is_tested() {
    let registry: BTreeSet<&str> = PROGRAMS.iter().map(|p| p.name).collect();
    let tested: BTreeSet<&str> = PROGRAM_TESTS.iter().copied().collect();
    assert_eq!(registry, tested, "one golden test per registry entry");

    let files: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden is readable")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|file| file.to_string_lossy().into_owned())
        .collect();
    let expected: BTreeSet<String> = PROGRAM_TESTS
        .iter()
        .chain(EXAMPLE_TESTS)
        .map(|name| format!("{name}.txt"))
        .collect();
    assert_eq!(files, expected, "tests/golden holds one file per test");
}
