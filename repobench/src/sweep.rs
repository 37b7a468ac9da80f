//! The simulation workloads, `paper-sweep` and `wan-hostile`: the seed's
//! cells run one at a time, pass after pass, until the time budget is
//! spent. Every pass re-checks every cell and must reproduce the first
//! pass's virtual fingerprints exactly.

use std::time::{Duration, Instant};

use numagap_apps::AppId;

use crate::cells::{prepare, reissue, run_cell, CellRun, ReadyCell, Rebook};
use crate::gen::SimCell;
use crate::host::{fnv, median, usage, Usage};
use crate::isolate::serial_seconds;
use crate::layers::{isolation, Metrics, SimLayers};
use crate::report::{Outcome, Tally};

/// Set-up samples before the first pass. One more precedes every pass, so
/// the `setup_s` median samples the whole run, not only its first moments.
const INITIAL_SETUPS: usize = 3;
/// Host seconds a set-up sample lasts at least. A set-up takes a few
/// milliseconds, so a sample repeats it and reports the time of one.
const SETUP_SAMPLE_S: f64 = 0.1;
/// Fewest untraced passes of a `--trace 0` run.
const MIN_PASSES: usize = 3;
/// Fewest passes of each kind (untraced, traced) in a `--trace 1` run.
const MIN_TRACED_PASSES: usize = 2;

/// One pass over every cell.
#[derive(Debug)]
struct Pass {
    wall_s: f64,
    usage: Usage,
    cells: Vec<CellRun>,
    rebook: Rebook,
}

fn run_pass(
    cfg: &numagap_apps::SuiteConfig,
    cells: &[ReadyCell],
    capture: bool,
    first: Option<&[u64]>,
    tally: &mut Tally,
) -> Pass {
    let u0 = usage();
    let t0 = Instant::now();
    let mut runs: Vec<CellRun> = cells.iter().map(|c| run_cell(cfg, c, capture)).collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = usage().since(&u0);
    let mut rebook = Rebook::default();
    for (i, (run, rc)) in runs.iter_mut().zip(cells).enumerate() {
        if let Some((spec, booked)) = run.capture.take() {
            let rb = reissue(&spec, &booked);
            if rb.mismatches > 0 {
                run.problems.push(format!(
                    "{}: {} re-issued bookings differ from the run",
                    rc.cell.label, rb.mismatches
                ));
            }
            rebook.elapsed += rb.elapsed;
            rebook.transfers += rb.transfers;
            rebook.mismatches += rb.mismatches;
            rebook.inter += rb.inter;
            rebook.hops += rb.hops;
        }
        if let Some(first) = first {
            if run.problems.is_empty() && run.fingerprint != first[i] {
                run.problems.push(format!(
                    "{}: virtual fingerprint changed between passes",
                    rc.cell.label
                ));
            }
        }
        tally.item(run.problems.clone());
    }
    Pass {
        wall_s,
        usage,
        cells: runs,
        rebook,
    }
}

/// Runs a simulation workload for about `seconds` and returns its metrics.
pub fn run(generate: fn(u64) -> Vec<SimCell>, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut setup = || {
        let t0 = Instant::now();
        let mut n = 0;
        loop {
            let ready = prepare(generate(seed));
            n += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= SETUP_SAMPLE_S {
                setups.push(elapsed / f64::from(n));
                break ready;
            }
        }
    };
    for _ in 1..INITIAL_SETUPS {
        setup();
    }

    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut first: Option<Vec<u64>> = None;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let (cfg, cells) = loop {
        let (cfg, cells) = setup();
        let capture = trace && plain.len() > traced.len();
        let pass = run_pass(&cfg, &cells, capture, first.as_deref(), &mut tally);
        if first.is_none() {
            first = Some(pass.cells.iter().map(|c| c.fingerprint).collect());
        }
        if capture {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let enough = if trace {
            plain.len() >= MIN_TRACED_PASSES && traced.len() >= MIN_TRACED_PASSES
        } else {
            plain.len() >= MIN_PASSES
        };
        let walls: Vec<f64> = plain.iter().chain(&traced).map(|p| p.wall_s).collect();
        let next = Duration::from_secs_f64(median(&walls));
        if enough && start.elapsed() + next > budget {
            break (cfg, cells);
        }
    };

    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let mut m: Metrics = Vec::new();
    if trace {
        let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let mut apps: Vec<(AppId, f64)> = Vec::new();
        for rc in &cells {
            if !apps.iter().any(|(a, _)| *a == rc.cell.app) {
                apps.push((rc.cell.app, serial_seconds(&cfg, rc.cell.app)));
            }
        }
        let compute_s: f64 = cells
            .iter()
            .map(|rc| {
                apps.iter()
                    .find(|(a, _)| *a == rc.cell.app)
                    .map_or(0.0, |x| x.1)
            })
            .sum();
        let mut rebook = traced[0].rebook;
        rebook.elapsed = Duration::from_secs_f64(median(
            &traced
                .iter()
                .map(|p| p.rebook.elapsed.as_secs_f64())
                .collect::<Vec<_>>(),
        ));
        let mut layers = SimLayers::from_runs(&traced[0].cells, rebook, plain_wall, compute_s);
        layers.park_wakes = median(
            &traced
                .iter()
                .map(|p| p.cells.iter().map(|c| c.profile.park_wakes).sum::<u64>() as f64)
                .collect::<Vec<_>>(),
        ) as u64;
        layers.push(&mut m);
        let (user, sys) = plain.iter().fold((0.0, 0.0), |(u, s), p| {
            (u + p.usage.user_s, s + p.usage.sys_s)
        });
        m.push(("sim.sys_share", sys / (user + sys).max(1e-12)));
        m.push(("host.wall_s", plain_wall));
        m.push(("trace.overhead", traced_wall / plain_wall - 1.0));
        isolation(&cfg, &mut m, &mut tally);
    } else {
        // Each cell's CPU time is its median over the passes, which drops a
        // pass disturbed by the host; the workload's is their sum.
        let cpu_s = (0..cells.len())
            .map(|i| median(&plain.iter().map(|p| p.cells[i].cpu_s).collect::<Vec<_>>()))
            .sum();
        m.push(("setup_s", median(&setups)));
        m.push(("cpu_s", cpu_s));
        m.push(("peak_rss_mb", usage().peak_rss_mb));
    }
    let show = |ps: &[Pass]| {
        ps.iter()
            .map(|p| format!("{:.3}/{:.3}", p.wall_s, p.usage.cpu_s()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "pass wall/cpu (s): untraced {} | traced {}",
        show(&plain),
        show(&traced)
    );
    let fingerprint = fnv(first.as_deref().unwrap_or(&[]));
    Outcome {
        tally,
        metrics: m,
        fingerprint,
    }
}
