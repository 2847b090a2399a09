//! Runs the paper programs of [`taqos_bench::PROGRAMS`] and prints their
//! tables to stdout, one progress line per program to stderr.
//!
//! ```text
//! cargo run --release -p taqos-bench --bin paper -- <name>… | all [--quick]
//! ```
//!
//! `--quick` runs the shortened configurations the golden files under
//! `tests/golden/` pin. An unknown name exits with status 2.

use std::process::ExitCode;

use taqos_bench::{Profile, Program, PROGRAMS};

fn main() -> ExitCode {
    let mut profile = Profile::Full;
    let mut selected: Vec<&Program> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            profile = Profile::Quick;
        } else if arg == "all" {
            selected.extend(PROGRAMS);
        } else if let Some(program) = PROGRAMS.iter().find(|p| p.name == arg) {
            selected.push(program);
        } else {
            eprintln!("unknown program `{arg}`");
            selected.clear();
            break;
        }
    }
    if selected.is_empty() {
        eprintln!("usage: paper <name>… | all [--quick]");
        eprintln!("programs:");
        for program in PROGRAMS {
            eprintln!("  {}", program.name);
        }
        return ExitCode::from(2);
    }
    for (i, program) in selected.iter().enumerate() {
        eprintln!(
            "[{}/{}] {} ({profile:?})",
            i + 1,
            selected.len(),
            program.name
        );
        print!("{}", (program.run)(profile));
    }
    ExitCode::SUCCESS
}
