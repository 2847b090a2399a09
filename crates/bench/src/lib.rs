//! # taqos-bench — the paper's tables and figures as one registry
//!
//! [`PROGRAMS`] lists every paper program: one entry per panel, each a name
//! and a function that runs its `taqos_core::experiment` calls and renders
//! the plain-text table. The render functions live in one module per
//! experiment module (`latency` renders Figure 4, `preemption` Figures 5
//! and 6, and so on), plus `table1`. The `paper` binary runs entries by name
//! (`paper <name>… | all [--quick]`), and the root test `tests/golden.rs`
//! runs every entry at [`Profile::Quick`] against its committed
//! `tests/golden/<name>.txt`. Engine performance is measured by the
//! standalone `benchmark/` package.

#![warn(missing_docs)]

use std::fmt;

use taqos_core::experiment::latency::SweepPattern::{Tornado, UniformRandom};
use taqos_core::experiment::preemption::AdversarialWorkload::{Workload1, Workload2};

use energy_area::{fig3, fig7};
use preemption::{fig5, fig6};

mod ablation;
mod chip_scale;
mod differentiated;
mod energy_area;
mod fairness;
mod latency;
mod preemption;
mod table1;

/// How long a program simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Shortened warm-up and measurement windows; what the golden files pin.
    Quick,
    /// The default configurations the paper's numbers come from.
    Full,
}

impl Profile {
    /// `quick` under [`Profile::Quick`], `full` under [`Profile::Full`].
    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Profile::Quick => quick,
            Profile::Full => full,
        }
    }
}

/// One paper program: a name and the function that renders its output.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// The name `paper` selects it by and its golden file is called after.
    pub name: &'static str,
    /// Runs the experiments and returns the rendered tables.
    pub run: fn(Profile) -> String,
}

/// Every paper program, in the order `paper all` runs them.
#[rustfmt::skip]
pub static PROGRAMS: &[Program] = &[
    Program { name: "table1", run: |_| render(table1::render) },
    Program { name: "fig3_area", run: |_| render(fig3) },
    Program { name: "fig4_latency", run: |p| render(|o| latency::render(o, p, UniformRandom)) },
    Program { name: "fig4_latency-tornado", run: |p| render(|o| latency::render(o, p, Tornado)) },
    Program { name: "table2_fairness", run: |p| render(|o| fairness::render(o, p)) },
    Program { name: "fig5_preemption", run: |p| render(|o| fig5(o, p, Workload1)) },
    Program { name: "fig5_preemption-workload2", run: |p| render(|o| fig5(o, p, Workload2)) },
    Program { name: "fig6_slowdown", run: |p| render(|o| fig6(o, p, Workload1)) },
    Program { name: "fig6_slowdown-workload2", run: |p| render(|o| fig6(o, p, Workload2)) },
    Program { name: "fig7_energy", run: |_| render(fig7) },
    Program { name: "sla", run: |p| render(|o| differentiated::render(o, p)) },
    Program { name: "ablations", run: |p| render(|o| ablation::render(o, p)) },
    Program { name: "chip_scale", run: |p| render(|o| chip_scale::render(o, p)) },
];

/// Runs one program body into a fresh `String`.
fn render(body: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    body(&mut out).expect("writing to a String cannot fail");
    out
}

/// A horizontal rule of the given width.
fn rule(width: usize) -> String {
    "-".repeat(width)
}
