//! STREAM-style isolation cells, one per layer, run in every traced run
//! beside the real-run shares: a two-rank ping-pong on `IdealNetwork`
//! (sim), the serial references (apps), record + replay of one DAG (model),
//! an `AnalyticModel::bound` loop and the HTTP round trip against the
//! in-process `Service::whatif` (serve). Net booking's isolation cell is the
//! re-issue of captured streams in [`crate::cells::reissue`].

use std::time::Instant;

use numagap_apps::{serial_checksum, AppId, SuiteConfig};
use numagap_model::{record_app, replay};
use numagap_net::das_spec;
use numagap_rt::Machine;
use numagap_serve::{AnalyticModel, ServeOpts, Server};
use numagap_sim::{Filter, IdealNetwork, ProcId, Sim, SimDuration, Tag};

use crate::cells::checksum_problem;
use crate::gen::{query_grid, CLUSTERS, GRID_SIDE, ISOLATION_APP, PROCS, REF_POINT};
use crate::host::median;
use crate::http::post;

/// Host nanoseconds per kernel↔rank switch of a two-rank ping-pong with
/// `rounds` round trips (median of three runs), and the simulator's
/// rank-thread count.
pub fn pingpong(rounds: u64) -> (f64, usize) {
    let mut per_switch = Vec::new();
    let mut threads = 0;
    for _ in 0..3 {
        let mut sim = Sim::new(IdealNetwork::new(2, SimDuration::from_micros(1)));
        let tag = Tag::app(1);
        sim.spawn(move |ctx| {
            for i in 0..rounds {
                ctx.send(ProcId(1), tag, i, 8);
                ctx.recv(Filter::tag(tag));
            }
        });
        sim.spawn(move |ctx| {
            for i in 0..rounds {
                ctx.recv(Filter::tag(tag));
                ctx.send(ProcId(0), tag, i, 8);
            }
        });
        let t0 = Instant::now();
        let out = sim
            .run()
            .expect("ping-pong on an ideal network cannot fail");
        let wall = t0.elapsed().as_secs_f64();
        per_switch.push(wall * 1e9 / out.profile.switches.max(1) as f64);
        threads = out.sim_threads;
    }
    (median(&per_switch), threads)
}

/// Host seconds of each application's serial reference (median of three).
pub fn serial_seconds(cfg: &SuiteConfig, app: AppId) -> f64 {
    let mut t = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(serial_checksum(app, cfg));
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Results of the model and analytic isolation cells.
#[derive(Debug, Default)]
pub struct ModelCells {
    /// Host seconds per cold recording (`record_app`), median of three.
    pub record_s: f64,
    /// Host microseconds per replayed point.
    pub replay_us_per_point: f64,
    /// Ops in the recorded DAG.
    pub dag_ops: u64,
    /// Host nanoseconds per `AnalyticModel::bound` evaluation.
    pub analytic_ns_per_point: f64,
    /// Correctness problems found on the way.
    pub problems: Vec<String>,
}

/// Records [`ISOLATION_APP`] three times, replays one DAG across the query
/// grid's diagonal and loops the analytic bound over the whole grid. Checks
/// the recording's checksum, that the identity replay reproduces the
/// recorded makespan and that the bound never exceeds the replay.
pub fn model_cells(cfg: &SuiteConfig, expected: f64) -> ModelCells {
    let (app, variant) = ISOLATION_APP;
    let (l, b) = REF_POINT;
    let machine = Machine::new(das_spec(CLUSTERS, PROCS, l, b));
    let mut out = ModelCells::default();
    let mut times = Vec::new();
    let mut dag = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        match record_app(app, cfg, variant, &machine) {
            Ok((run, d)) => {
                times.push(t0.elapsed().as_secs_f64());
                if let Some(p) = checksum_problem(app, run.checksum, expected) {
                    out.problems.push(format!("isolation recording: {p}"));
                }
                dag = Some(d);
            }
            Err(e) => out
                .problems
                .push(format!("isolation recording failed: {e}")),
        }
    }
    let Some(dag) = dag else {
        return out;
    };
    out.record_s = median(&times);
    out.dag_ops = dag.total_ops() as u64;
    if replay(&dag, &dag.base_spec).elapsed != dag.base_elapsed {
        out.problems
            .push("identity replay differs from the recorded makespan".to_string());
    }

    let grid = query_grid();
    let diagonal: Vec<(f64, f64)> = (0..GRID_SIDE).map(|i| grid[i * GRID_SIDE + i]).collect();
    let specs: Vec<_> = diagonal
        .iter()
        .map(|&(l, b)| das_spec(CLUSTERS, PROCS, l, b))
        .collect();
    let t0 = Instant::now();
    let replays: Vec<SimDuration> = specs.iter().map(|s| replay(&dag, s).elapsed).collect();
    out.replay_us_per_point = t0.elapsed().as_secs_f64() * 1e6 / specs.len() as f64;

    let analytic = AnalyticModel::compile(&dag);
    for (&(l, b), &r) in diagonal.iter().zip(&replays) {
        if analytic.bound(l, b) > r {
            out.problems.push(format!(
                "analytic bound exceeds replay at ({l} ms, {b} MB/s)"
            ));
        }
    }
    let points = &grid;
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        for &(l, b) in points {
            std::hint::black_box(analytic.bound(std::hint::black_box(l), b));
        }
    }
    out.analytic_ns_per_point = t0.elapsed().as_secs_f64() * 1e9 / (reps * points.len()) as f64;
    out
}

/// HTTP round trip minus the in-process `Service::whatif` on the same
/// (warm) body, in milliseconds: medians over `reps` alternating calls
/// against a fresh one-worker server on an ephemeral port. Also checks
/// that both paths return identical bytes.
pub fn http_overhead(body: &str, reps: usize) -> (f64, Vec<String>) {
    let opts = ServeOpts {
        port: 0,
        workers: 1,
        cache_capacity: 1,
        deadline_ms: 120_000,
    };
    let server = match Server::start(&opts) {
        Ok(s) => s,
        Err(e) => return (0.0, vec![format!("cannot start the what-if server: {e}")]),
    };
    let mut problems = Vec::new();
    // One untimed call records the key into the cache.
    let _ = post(server.addr(), "/v1/whatif", body);
    let mut http = Vec::new();
    let mut local = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let reply = post(server.addr(), "/v1/whatif", body);
        http.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let direct = server.service().whatif(body);
        local.push(t0.elapsed().as_secs_f64());
        match (reply, direct) {
            (Ok(r), Ok(d)) if r.status == 200 && r.body == d.body => {}
            _ => problems.push("HTTP and in-process answers differ".to_string()),
        }
    }
    problems.dedup();
    ((median(&http) - median(&local)) * 1e3, problems)
}
