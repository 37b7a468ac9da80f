//! Fiber-vs-threads differential suite.
//!
//! In fiber mode the kernel resumes every rank inline on its own thread; in
//! thread mode each rank is its own OS thread behind a parked handoff.
//! Virtual time must not be able to tell them apart: this suite runs all 11
//! app/variant combinations on three machines (the paper's full mesh, a
//! ring-wired WAN, and the hostile storm preset) in both modes, asserting
//! the makespan, the whole-run kernel accounting and the checksum are
//! bit-identical.
//!
//! A second group locks down the scheduler's own observables: rank dispatch
//! order is a pure function of the canonical event order (equal in both
//! modes and across reruns), a mid-run panic fails only the owning rank, an
//! aborted run unwinds every live rank, and per-rank state that lives in
//! thread-locals (payload-clone bytes, the runtime's lint sink) stays with
//! its rank although every fiber shares one thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use numagap_apps::{run_app, AppId, AppRun, Scale, SuiteConfig, Variant};
use numagap_net::{
    das_spec, CrossTrafficPlan, HeteroPreset, LinkParams, LinkSchedule, Topology, TwoLayerSpec,
    WanTopology,
};
use numagap_rt::{Combiner, LintRecord, Machine};
use numagap_sim::{
    Filter, IdealNetwork, ProcId, SchedMode, Sim, SimDuration, SimError, SimTime, Tag,
};

const CLUSTERS: usize = 4;
const PROCS_PER_CLUSTER: usize = 8;

const MODES: [SchedMode; 2] = [SchedMode::Fiber, SchedMode::Threads];

/// All 11 app/variant combinations in Table 1 order.
fn combos() -> Vec<(AppId, Variant)> {
    let mut v = Vec::new();
    for app in AppId::ALL {
        v.push((app, Variant::Unoptimized));
        if app.has_optimized() {
            v.push((app, Variant::Optimized));
        }
    }
    assert_eq!(v.len(), 11);
    v
}

/// The hostile-storm machine: slow-home heterogeneous clusters, seeded
/// cross-traffic and a diurnal WAN schedule — the same shape the golden
/// makespan suite pins, so a drift here names the scheduler, not the model.
fn storm_spec() -> TwoLayerSpec {
    let topo = HeteroPreset::SlowHome.apply(Topology::symmetric(CLUSTERS, PROCS_PER_CLUSTER));
    TwoLayerSpec::new(topo)
        .inter(LinkParams::wide_area(10.0, 1.0))
        .cross_traffic(CrossTrafficPlan::new(7).intensity(0.5))
        .link_schedule(
            LinkSchedule::diurnal(7, SimDuration::from_millis(500))
                .latency_factor(3.0)
                .bandwidth_factor(0.33),
        )
}

/// Everything virtual a run exposes, collapsed for exact comparison.
fn fingerprint(run: &AppRun) -> (u64, u64, u64, u64, u64, u64) {
    (
        run.elapsed.as_nanos(),
        run.kernel.messages,
        run.kernel.events,
        run.kernel.bytes,
        run.net.inter_msgs,
        run.checksum.to_bits(),
    )
}

fn assert_equivalent_on(name: &str, spec: &TwoLayerSpec) {
    let cfg = SuiteConfig::at(Scale::Small);
    for (app, variant) in combos() {
        let oracle = Machine::new(spec.clone()).with_sched_mode(SchedMode::Threads);
        let oracle_run = run_app(app, &cfg, variant, &oracle)
            .unwrap_or_else(|e| panic!("{app}/{variant} on {name} (threads): {e}"));
        let fiber = Machine::new(spec.clone()).with_sched_mode(SchedMode::Fiber);
        let fiber_run = run_app(app, &cfg, variant, &fiber)
            .unwrap_or_else(|e| panic!("{app}/{variant} on {name} (fiber): {e}"));
        assert_eq!(
            fingerprint(&oracle_run),
            fingerprint(&fiber_run),
            "{app}/{variant} on {name}: fiber mode diverged from the thread oracle"
        );
    }
}

#[test]
fn fiber_matches_threads_on_the_paper_mesh() {
    assert_equivalent_on("mesh", &das_spec(CLUSTERS, PROCS_PER_CLUSTER, 10.0, 1.0));
}

#[test]
fn fiber_matches_threads_on_a_ring_wan() {
    let spec = das_spec(CLUSTERS, PROCS_PER_CLUSTER, 10.0, 1.0).wan_topology(WanTopology::Ring);
    assert_equivalent_on("ring", &spec);
}

#[test]
fn fiber_matches_threads_under_the_hostile_storm() {
    assert_equivalent_on("hostile-storm", &storm_spec());
}

/// A deterministic multi-rank workload on the raw kernel: a token ring
/// where every hop recomputes, so ranks suspend and resume continually.
fn ring_sim(mode: SchedMode, record: bool) -> Sim<IdealNetwork> {
    const N: usize = 6;
    const ROUNDS: u32 = 5;
    let mut sim = Sim::new(IdealNetwork::new(N, SimDuration::from_micros(20)));
    sim.sched_mode(mode);
    if record {
        sim.record_dispatch();
    }
    for me in 0..N {
        sim.spawn(move |ctx| {
            let mut token = me as u64;
            for round in 0..ROUNDS {
                ctx.compute(SimDuration::from_micros(10 + me as u64));
                ctx.send(ProcId((me + 1) % N), Tag::app(round), token, 8);
                let m = ctx.recv(Filter::tag(Tag::app(round)));
                token = token.wrapping_add(m.expect_clone::<u64>());
            }
            token
        });
    }
    sim
}

/// Rank dispatch order (the kernel's grant sequence) is a pure function of
/// the canonical event order — not of the scheduler mode, and not of host
/// scheduling. (With strict rendezvous at most one rank is runnable per
/// instant, so the grant sequence *is* the dispatch order.)
#[test]
fn dispatch_order_is_a_pure_function_of_the_event_order() {
    let baseline = ring_sim(SchedMode::Threads, true).run().expect("ring runs");
    let baseline_log = baseline.dispatch.expect("dispatch recorded");
    assert!(!baseline_log.is_empty());
    for mode in MODES {
        for rerun in 0..2 {
            let out = ring_sim(mode, true).run().expect("ring runs");
            assert_eq!(out.elapsed, baseline.elapsed, "{mode:?} rerun={rerun}");
            assert_eq!(
                out.dispatch.expect("dispatch recorded"),
                baseline_log,
                "dispatch order moved under {mode:?} rerun={rerun}"
            );
        }
    }
}

/// Dispatch recording is opt-in: the default run leaves the outcome's log
/// empty so production sweeps pay nothing for it.
#[test]
fn dispatch_log_is_absent_unless_requested() {
    let out = ring_sim(SchedMode::Fiber, false).run().expect("ring runs");
    assert!(out.dispatch.is_none());
}

/// A mid-run panic in fiber mode fails only the owning rank: the panic
/// unwinds the rank's own fiber, not the kernel's thread it runs on, so
/// every other rank still finishes and reports its result.
#[test]
fn panic_in_a_fiber_fails_only_the_owning_rank() {
    let mut sim = Sim::new(IdealNetwork::new(4, SimDuration::from_micros(20)));
    sim.sched_mode(SchedMode::Fiber);
    for me in 0..4usize {
        sim.spawn(move |ctx| {
            ctx.compute(SimDuration::from_micros(10));
            if me == 2 {
                panic!("rank 2 exploded mid-run");
            }
            ctx.compute(SimDuration::from_micros(10));
            me as u64
        });
    }
    let out = sim
        .run()
        .expect("a rank panic is a per-rank failure, not a kernel error");
    assert_eq!(out.sim_threads, 1, "fiber mode runs on the kernel's thread");
    for (rank, result) in out.results.iter().enumerate() {
        match result {
            Ok(v) if rank != 2 => {
                assert_eq!(*v.downcast_ref::<u64>().expect("u64 result"), rank as u64);
            }
            Err(failure) if rank == 2 => {
                assert_eq!(failure.rank, 2);
                assert!(
                    failure.message.contains("rank 2 exploded"),
                    "diagnostic lost: {}",
                    failure.message
                );
            }
            other => panic!("rank {rank}: unexpected outcome {other:?}"),
        }
    }
}

/// Counts its drops: held on every rank's stack to prove the rank unwound.
struct Held(Arc<AtomicUsize>);

impl Drop for Held {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs `nranks` ranks that each hold a [`Held`] and then run `body`;
/// returns the error the run must end in and the drop count after it.
fn aborted_run<F>(
    mode: SchedMode,
    nranks: usize,
    limit: Option<SimTime>,
    body: F,
) -> (SimError, usize)
where
    F: Fn(&mut numagap_sim::ProcCtx) + Send + Sync + Copy + 'static,
{
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new(IdealNetwork::new(nranks, SimDuration::from_micros(5)));
    sim.sched_mode(mode);
    if let Some(limit) = limit {
        sim.time_limit(limit);
    }
    for _ in 0..nranks {
        let held = Held(Arc::clone(&drops));
        sim.spawn(move |ctx| {
            let _held = held;
            body(ctx);
        });
    }
    let err = sim.run().expect_err("the run must abort");
    (err, drops.load(Ordering::SeqCst))
}

/// A deadlocked run unwinds every live rank through the kernel's abort
/// before the error returns: each rank's stack values are dropped, so no
/// suspended fiber (or thread) outlives the run.
#[test]
fn deadlock_unwinds_every_live_rank() {
    for mode in MODES {
        let (err, drops) = aborted_run(mode, 5, None, |ctx| {
            ctx.compute(SimDuration::from_micros(1 + ctx.rank() as u64));
            let _ = ctx.recv(Filter::tag(Tag::app(9)));
        });
        assert!(matches!(err, SimError::Deadlock { .. }), "{mode:?}: {err}");
        assert_eq!(drops, 5, "{mode:?}: a rank was left suspended");
    }
}

/// The same for a run cut by its time limit while every rank is mid-loop.
#[test]
fn time_limit_unwinds_every_live_rank() {
    for mode in MODES {
        let limit = Some(SimTime::from_nanos(1_000_000));
        let (err, drops) = aborted_run(mode, 4, limit, |ctx| loop {
            ctx.compute(SimDuration::from_micros(100 + ctx.rank() as u64));
        });
        assert!(matches!(err, SimError::TimeLimit { .. }), "{mode:?}: {err}");
        assert_eq!(drops, 4, "{mode:?}: a rank was left suspended");
    }
}

/// Two ranks that take turns on the kernel's thread each leave a
/// different unflushed `Combiner` behind; each rank's lint must come back
/// in its own slot.
#[test]
fn lint_sinks_stay_per_rank_when_ranks_interleave() {
    for mode in MODES {
        let report = Machine::new(das_spec(1, 2, 10.0, 1.0))
            .with_sched_mode(mode)
            .run(|ctx| {
                let me = ctx.rank();
                let mut combiner = Combiner::<u32>::new(Tag::app(40 + me as u32), 4, 100);
                // Alternate: each compute hands the thread to the other rank.
                for i in 0..(2 + me as u32) {
                    combiner.add(ctx, 1 - me, i);
                    ctx.compute(SimDuration::from_micros(10));
                }
                // Rank 0 drops its combiner while rank 1 is still adding.
                drop(combiner);
                ctx.compute(SimDuration::from_micros(50));
            })
            .expect("combiner run completes");
        for me in 0..2usize {
            assert_eq!(
                report.rank_lints[me],
                vec![LintRecord::UnflushedCombiner {
                    data_tag: Tag::app(40 + me as u32),
                    buffered: 2 + me,
                }],
                "{mode:?}: rank {me} got the wrong lints"
            );
        }
    }
}

/// The same interleaving for the payload-clone counter: ranks 0 and 1
/// clone payloads of different sizes in alternation, and each rank's
/// `bytes_cloned` must be its own, identically in both modes.
#[test]
fn clone_bytes_stay_per_rank_when_ranks_interleave() {
    const ROUNDS: u64 = 4;
    for mode in MODES {
        let mut sim = Sim::new(IdealNetwork::new(3, SimDuration::from_micros(20)));
        sim.sched_mode(mode);
        for me in 0..2u64 {
            sim.spawn(move |ctx| {
                for _ in 0..ROUNDS {
                    let m = ctx.recv(Filter::tag(Tag::app(me as u32)));
                    let _ = m.expect_clone::<Vec<u8>>();
                    ctx.compute(SimDuration::from_micros(3 + me));
                }
            });
        }
        sim.spawn(|ctx| {
            for _ in 0..ROUNDS {
                ctx.send(ProcId(0), Tag::app(0), vec![7u8; 4096], 4096);
                ctx.send(ProcId(1), Tag::app(1), vec![9u8; 1000], 1000);
                ctx.compute(SimDuration::from_micros(5));
            }
        });
        let out = sim.run().expect("clone workload runs");
        let per_rank: Vec<u64> = out.proc_stats.iter().map(|s| s.bytes_cloned).collect();
        assert_eq!(per_rank, vec![ROUNDS * 4096, ROUNDS * 1000, 0], "{mode:?}");
        assert_eq!(out.profile.bytes_cloned, ROUNDS * 5096, "{mode:?}");
    }
}
