//! Running one simulated cell through `numagap_apps::run_app_report`, its
//! correctness checks, and the outside-in timing of network booking: a
//! capture [`Observer`] records every booked transfer in `on_send` order,
//! and [`reissue`] books the same calls into a fresh `TwoLayerNetwork`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use numagap_apps::{
    checksum_tolerance, run_app_report, serial_checksum, total_checksum, total_work, AppId, Scale,
    SuiteConfig,
};
use numagap_net::{NetStats, TwoLayerNetwork, TwoLayerSpec};
use numagap_rt::{Machine, TransportConfig, TransportStats};
use numagap_sim::{
    FaultEvent, FaultKind, HotProfile, KernelStats, Message, Network, Observer, ProcId,
    SimDuration, SimTime, Tag,
};

use crate::gen::SimCell;
use crate::host::{fnv, usage};

/// A generated cell with its machine built and its expected checksum.
#[derive(Debug)]
pub struct ReadyCell {
    /// The generated cell.
    pub cell: SimCell,
    /// The machine it runs on.
    pub machine: Machine,
    /// The serial reference checksum of its application.
    pub expected: f64,
}

/// Builds machines, the small-scale suite config and the serial references
/// (one per application) for a list of cells: the sweep workloads' set-up.
pub fn prepare(cells: Vec<SimCell>) -> (SuiteConfig, Vec<ReadyCell>) {
    let cfg = SuiteConfig::at(Scale::Small);
    let mut refs: Vec<(AppId, f64)> = Vec::new();
    let ready = cells
        .into_iter()
        .map(|cell| {
            let expected = match refs.iter().find(|(a, _)| *a == cell.app) {
                Some(&(_, v)) => v,
                None => {
                    let v = serial_checksum(cell.app, &cfg);
                    refs.push((cell.app, v));
                    v
                }
            };
            let mut machine =
                Machine::new(cell.spec.clone()).time_limit(SimDuration::from_secs(3600));
            if cell.transport {
                machine = machine.with_reliable_transport(TransportConfig::for_spec(&cell.spec));
            }
            ReadyCell {
                cell,
                machine,
                expected,
            }
        })
        .collect();
    (cfg, ready)
}

/// One transfer as the kernel booked it.
#[derive(Debug, Clone, Copy)]
pub struct Booked {
    src: usize,
    dst: usize,
    tag: Tag,
    wire_bytes: u64,
    sent_at: SimTime,
    arrival: SimTime,
    seq: u64,
    fault: Option<FaultKind>,
}

/// Records every booked transfer; hands the list over when the run ends.
struct Capture {
    booked: Vec<Booked>,
    sink: Arc<Mutex<Vec<Booked>>>,
}

impl Observer for Capture {
    fn on_send(&mut self, dst: ProcId, msg: &Message) {
        self.booked.push(Booked {
            src: msg.src.0,
            dst: dst.0,
            tag: msg.tag,
            wire_bytes: msg.wire_bytes,
            sent_at: msg.sent_at,
            arrival: msg.arrived_at,
            seq: msg.seq,
            fault: None,
        });
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        if let Some(b) = self.booked.iter_mut().rev().find(|b| b.seq == event.seq) {
            b.fault = Some(event.kind);
        }
    }

    fn on_finish(&mut self, _now: SimTime) {
        *self.sink.lock().expect("capture sink poisoned") = std::mem::take(&mut self.booked);
    }
}

/// Everything measured from one cell run.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// Process CPU seconds (user + system) inside `run_app_report`.
    pub cpu_s: f64,
    /// What went wrong (empty = the cell is correct).
    pub problems: Vec<String>,
    /// Hash of makespan, events, messages and bytes.
    pub fingerprint: u64,
    /// Kernel accounting.
    pub kernel: KernelStats,
    /// Kernel hot-path counters.
    pub profile: HotProfile,
    /// Network statistics.
    pub net: NetStats,
    /// Reliable-transport totals, when the cell ran over it.
    pub transport: Option<TransportStats>,
    /// Application work units.
    pub work: u64,
    /// The spec the machine ran with and the transfers it booked, when
    /// captured.
    pub capture: Option<(TwoLayerSpec, Vec<Booked>)>,
}

/// Checks a run's checksum against the serial reference with the
/// `numagap run --verify` tolerance; `None` when it passes.
pub fn checksum_problem(app: AppId, got: f64, expected: f64) -> Option<String> {
    let tol = checksum_tolerance(app).max(1e-15);
    let err = (got - expected).abs() / expected.abs().max(got.abs()).max(1e-30);
    (err > tol)
        .then(|| format!("checksum {got} vs serial {expected} (rel err {err:.3e} > {tol:e})"))
}

/// Runs one cell, optionally capturing its booked transfers.
pub fn run_cell(cfg: &SuiteConfig, rc: &ReadyCell, capture: bool) -> CellRun {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let observer: Option<Box<dyn Observer>> = capture.then(|| {
        Box::new(Capture {
            booked: Vec::new(),
            sink: Arc::clone(&sink),
        }) as Box<dyn Observer>
    });
    let c = &rc.cell;
    let u0 = usage();
    let result = run_app_report(c.app, cfg, c.variant, &rc.machine, observer);
    let cpu_s = usage().since(&u0).cpu_s();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            return CellRun {
                cpu_s,
                problems: vec![format!("{}: simulation failed: {e}", c.label)],
                ..CellRun::default()
            }
        }
    };
    let k = report.kernel_stats;
    let mut problems = Vec::new();
    if let Some(p) = checksum_problem(c.app, total_checksum(&report.results), rc.expected) {
        problems.push(format!("{}: {p}", c.label));
    }
    let captured = capture.then(|| {
        let booked = std::mem::take(&mut *sink.lock().expect("capture sink poisoned"));
        (report.spec.clone(), booked)
    });
    CellRun {
        cpu_s,
        problems,
        fingerprint: fnv(&[report.elapsed.as_nanos(), k.events, k.messages, k.bytes]),
        kernel: k,
        profile: report.profile,
        transport: report.transport_totals(),
        work: total_work(&report.results),
        net: report.net_stats,
        capture: captured,
    }
}

/// Outcome of re-issuing a captured transfer stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebook {
    /// Host time of the booking loop.
    pub elapsed: Duration,
    /// Transfers booked.
    pub transfers: u64,
    /// Arrivals (or fault dispositions) that differ from the recorded run.
    pub mismatches: u64,
    /// Inter-cluster transfers and the wide-area hops they walk.
    pub inter: u64,
    /// Sum of WAN hops over inter-cluster transfers.
    pub hops: u64,
}

/// Books `booked` into a fresh network built from `spec`, in the recorded
/// order, with the fault disposition after each transfer when the spec
/// carries a fault plan — the same calls the kernel made. Times the loop
/// and counts every arrival that differs from the recording.
pub fn reissue(spec: &TwoLayerSpec, booked: &[Booked]) -> Rebook {
    let mut net = TwoLayerNetwork::new(spec.clone());
    let faults = net.faults_enabled();
    let mut mismatches = 0;
    let t0 = Instant::now();
    for b in booked {
        let (src, dst) = (ProcId(b.src), ProcId(b.dst));
        let t = net.transfer(src, dst, b.wire_bytes, b.sent_at);
        if t.arrival != b.arrival {
            mismatches += 1;
        }
        if faults {
            let d = net.fault_disposition(src, dst, b.tag, b.wire_bytes, b.sent_at, &t);
            if d.kind != b.fault {
                mismatches += 1;
            }
        }
    }
    let elapsed = t0.elapsed();
    let topo = &spec.topology;
    let mut inter = 0;
    let mut hops = 0;
    for b in booked {
        let (cs, cd) = (topo.cluster_of_rank(b.src), topo.cluster_of_rank(b.dst));
        if cs != cd {
            inter += 1;
            hops += spec.wan_topology.hops(cs, cd, topo.nclusters()) as u64;
        }
    }
    Rebook {
        elapsed,
        transfers: booked.len() as u64,
        mismatches,
        inter,
        hops,
    }
}
