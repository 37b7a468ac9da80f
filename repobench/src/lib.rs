//! # numagap-repobench — the repository benchmark
//!
//! One command runs a named workload for a fixed time from a seed, checks
//! that every output is correct, and prints the end-to-end metrics (or,
//! with `--trace 1`, the per-layer metrics) as the last line of its
//! standard output. It drives the repository only through the crates'
//! public entry points; see `NOTES.md` beside this package.

pub mod cells;
pub mod gen;
pub mod host;
pub mod http;
pub mod isolate;
pub mod layers;
pub mod report;
pub mod sweep;

use report::{check_fingerprint, Outcome, COMMITTED};

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["paper-sweep", "wan-hostile"];

/// The seed whose fingerprints `fingerprints.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// Runs `workload` (one of [`WORKLOADS`]) and checks its virtual
/// fingerprint against the committed table.
///
/// # Panics
///
/// Panics on an unknown workload name; the command line checks names first.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let generate = match workload {
        "paper-sweep" => gen::paper_sweep,
        "wan-hostile" => gen::wan_hostile,
        other => panic!("unknown workload {other}"),
    };
    let mut outcome = sweep::run(generate, seed, seconds, trace);
    check_fingerprint(
        &mut outcome.tally,
        COMMITTED,
        workload,
        seed,
        outcome.fingerprint,
    );
    outcome
}
