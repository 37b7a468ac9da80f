//! Per-layer accounting: the real-run split of host time across sim, net, rt
//! and apps, and the isolation suite.

use numagap_apps::{serial_checksum, SuiteConfig};
use numagap_rt::TransportStats;

use crate::cells::{CellRun, Rebook};
use crate::gen::{analytic_body, query_grid, ISOLATION_APP};
use crate::isolate::{http_overhead, model_cells, pingpong};
use crate::report::Tally;

/// Metric list being built: `(name, value)`.
pub type Metrics = Vec<(&'static str, f64)>;

/// Layer counters of a set of simulated cells, with the host time split.
#[derive(Debug, Default, Clone)]
pub struct SimLayers {
    /// Untraced host seconds of the cells.
    pub wall_s: f64,
    /// Host seconds of network booking (re-issued captures).
    pub book_s: f64,
    /// Host seconds of application compute (serial references).
    pub compute_s: f64,
    /// Kernel↔rank switches.
    pub switches: u64,
    /// Kernel events.
    pub events: u64,
    /// Event-queue heap pops.
    pub heap_pops: u64,
    /// Mailbox candidates scanned.
    pub mailbox_scanned: u64,
    /// Real thread wakes (host-timing dependent).
    pub park_wakes: u64,
    /// Largest event-queue depth of any cell.
    pub queue_peak: u64,
    /// Re-issue accounting.
    pub rebook: Rebook,
    /// Background cross-traffic messages booked.
    pub cross_msgs: u64,
    /// Reliable-transport totals, when any cell used it.
    pub transport: Option<TransportStats>,
    /// Application work units.
    pub work: u64,
}

impl SimLayers {
    /// Sums the counters of `runs`; `rebook` and the times come from the
    /// caller, which measured them.
    pub fn from_runs(runs: &[CellRun], rebook: Rebook, wall_s: f64, compute_s: f64) -> Self {
        let mut l = SimLayers {
            wall_s,
            book_s: rebook.elapsed.as_secs_f64(),
            compute_s,
            rebook,
            ..SimLayers::default()
        };
        for r in runs {
            l.switches += r.profile.switches;
            l.events += r.kernel.events;
            l.heap_pops += r.profile.heap_pops;
            l.mailbox_scanned += r.profile.mailbox_scanned;
            l.park_wakes += r.profile.park_wakes;
            l.queue_peak = l.queue_peak.max(r.profile.queue_peak);
            l.cross_msgs += r.net.cross_msgs;
            l.work += r.work;
            if let Some(t) = &r.transport {
                l.transport
                    .get_or_insert_with(TransportStats::default)
                    .merge(t);
            }
        }
        l
    }

    /// Host nanoseconds per booked transfer.
    pub fn book_ns(&self) -> f64 {
        self.book_s * 1e9 / self.rebook.transfers.max(1) as f64
    }

    /// Pushes the sim, net, rt and apps metrics.
    pub fn push(&self, m: &mut Metrics) {
        let rest = (self.wall_s - self.book_s - self.compute_s).max(0.0);
        m.push(("sim.switches", self.switches as f64));
        m.push(("sim.events", self.events as f64));
        m.push(("sim.heap_pops", self.heap_pops as f64));
        m.push(("sim.mailbox_scanned", self.mailbox_scanned as f64));
        m.push(("sim.park_wakes", self.park_wakes as f64));
        m.push(("sim.queue_peak", self.queue_peak as f64));
        m.push(("sim.switch_ns", rest * 1e9 / self.switches.max(1) as f64));
        m.push((
            "sim.us_per_event",
            self.wall_s * 1e6 / self.events.max(1) as f64,
        ));
        m.push(("net.transfers", self.rebook.transfers as f64));
        m.push((
            "net.hops_per_inter_msg",
            self.rebook.hops as f64 / self.rebook.inter.max(1) as f64,
        ));
        m.push(("net.cross_msgs", self.cross_msgs as f64));
        m.push(("net.book_ns", self.book_ns()));
        m.push(("net.book_share", self.book_s / self.wall_s.max(1e-12)));
        if let Some(t) = &self.transport {
            m.push(("rt.data_sent", t.data_sent as f64));
            m.push(("rt.retransmits", t.retransmits as f64));
            m.push(("rt.acks_sent", t.acks_sent as f64));
            m.push(("rt.goodput", t.goodput()));
        }
        m.push(("apps.compute_s", self.compute_s));
        m.push((
            "apps.compute_share",
            self.compute_s / self.wall_s.max(1e-12),
        ));
        m.push(("apps.work_units", self.work as f64));
    }
}

/// Runs the isolation suite and pushes its metrics:
/// `sim.pingpong_switch_ns`, `model.*`, `serve.analytic_ns_per_point` and
/// `serve.http_overhead_ms`.
pub fn isolation(cfg: &SuiteConfig, m: &mut Metrics, tally: &mut Tally) {
    let (switch_ns, _) = pingpong(5000);
    m.push(("sim.pingpong_switch_ns", switch_ns));

    let cells = model_cells(cfg, serial_checksum(ISOLATION_APP.0, cfg));
    m.push(("model.record_s", cells.record_s));
    m.push(("model.replay_us_per_point", cells.replay_us_per_point));
    m.push(("model.dag_ops", cells.dag_ops as f64));
    m.push(("serve.analytic_ns_per_point", cells.analytic_ns_per_point));
    tally.item(cells.problems);

    let (ms, problems) = http_overhead(&analytic_body(&query_grid()[..64]), 40);
    m.push(("serve.http_overhead_ms", ms));
    tally.item(problems);
}
