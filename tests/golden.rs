//! Golden outputs of the paper programs: every entry of
//! `taqos_bench::PROGRAMS` at `Profile::Quick`, run in process, and the
//! stdout of four examples. Each prints byte-identical output run to run,
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
//! The examples run from the binaries `cargo test` builds next to this
//! test (`<target>/<profile>/examples/`). `cargo test --test golden` alone
//! does not build them: it runs whatever example binaries an earlier plain
//! `cargo test` left there.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use taqos_bench::{Profile, PROGRAMS};

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

fn check_example(name: &str) {
    let examples = std::env::current_exe()
        .expect("test binary path")
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binaries live in <target>/<profile>/deps")
        .join("examples");
    let binary = examples.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    let output = Command::new(&binary).output().unwrap_or_else(|e| {
        panic!(
            "{name}: cannot run {} ({e}); `cargo test` builds the examples, \
             `cargo test --test golden` alone does not",
            binary.display()
        )
    });
    assert!(output.status.success(), "{name}: {}", output.status);
    check(
        name,
        &String::from_utf8(output.stdout).expect("examples print UTF-8"),
    );
}

macro_rules! golden {
    ($check:ident, $list:ident: $($test:ident => $name:literal,)*) => {
        const $list: &[&str] = &[$($name),*];
        $(
            #[test]
            fn $test() {
                $check($name);
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
    example_quickstart => "quickstart",
    example_topology_explorer => "topology_explorer",
    example_denial_of_service => "denial_of_service",
    example_server_consolidation => "server_consolidation",
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
