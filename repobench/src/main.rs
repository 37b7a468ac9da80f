//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, the run's virtual fingerprint, and as the last
//! line of standard output one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Every problem found goes to standard error.

use std::process::ExitCode;

use numagap_repobench::report::result_line;
use numagap_repobench::{isolate, run_workload, DEFAULT_SEED, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repobench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 45.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return usage(&format!("unknown workload '{value}'")),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 3600.0 => seconds = v,
                _ => return usage("--seconds takes a number in (0, 3600]"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag '{other}'")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sched = match isolate::pingpong(1).1 {
        1 => "fiber-pool:1".to_string(),
        n => format!("threads:{n}"),
    };
    println!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\", \"sched\": \"{sched}\"}}}}",
        env!("REPOBENCH_RUSTC"),
        env!("REPOBENCH_COMMIT"),
        env!("REPOBENCH_SOURCE"),
    );
    let outcome = run_workload(&workload, seed, seconds, trace);
    for p in &outcome.tally.problems {
        eprintln!("FAILED: {p}");
    }
    eprintln!(
        "error_rate {} ({} of {})",
        outcome.tally.error_rate(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    println!(
        "{{\"fingerprint\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"virtual\": \"{:016x}\"}}}}",
        outcome.fingerprint
    );
    println!("{}", result_line(&outcome, trace));
    ExitCode::SUCCESS
}
