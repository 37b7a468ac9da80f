//! The result line, the metric tables it must cover, failure accounting and
//! the committed virtual-time fingerprints.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), name and unit. `BENCHMARK.json` lists
/// the same names.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("sim.switches", "count"),
    ("sim.events", "count"),
    ("sim.heap_pops", "count"),
    ("sim.mailbox_scanned", "count"),
    ("sim.park_wakes", "count"),
    ("sim.queue_peak", "count"),
    ("sim.switch_ns", "ns"),
    ("sim.pingpong_switch_ns", "ns"),
    ("sim.us_per_event", "us"),
    ("sim.sys_share", "ratio"),
    ("net.transfers", "count"),
    ("net.hops_per_inter_msg", "hops"),
    ("net.cross_msgs", "count"),
    ("net.book_ns", "ns"),
    ("net.book_share", "ratio"),
    ("rt.data_sent", "count"),
    ("rt.retransmits", "count"),
    ("rt.acks_sent", "count"),
    ("rt.goodput", "ratio"),
    ("apps.compute_s", "s"),
    ("apps.compute_share", "ratio"),
    ("apps.work_units", "count"),
    ("model.record_s", "s"),
    ("model.replay_us_per_point", "us"),
    ("model.dag_ops", "count"),
    ("serve.analytic_ns_per_point", "ns"),
    ("serve.http_overhead_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("host.wall_s", "s"),
];

/// Counts attempted and failed items (cells or requests) and keeps every
/// failure's description: nothing fails silently.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Items checked.
    pub attempted: u64,
    /// Items with at least one problem.
    pub failed: u64,
    /// Every problem found.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one item with its problems (none = correct).
    pub fn item(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A finished run: the tally plus the metrics to print.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failure accounting.
    pub tally: Tally,
    /// `(name, value)`; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// The virtual-time fingerprint of the seed's inputs.
    pub fingerprint: u64,
}

/// Default-seed fingerprints committed with the benchmark:
/// `<workload> <seed> <hex>` per line.
pub const COMMITTED: &str = include_str!("../fingerprints.txt");

/// The committed fingerprint for `(workload, seed)`, if one is recorded.
pub fn committed(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, h) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(h, 16).ok())
            .flatten()
    })
}

/// Compares a run's fingerprint with the committed table; counts as one
/// checked item so a mismatch shows in the error rate.
pub fn check_fingerprint(tally: &mut Tally, table: &str, workload: &str, seed: u64, got: u64) {
    if let Some(want) = committed(table, workload, seed) {
        let problems = if want == got {
            Vec::new()
        } else {
            vec![format!(
                "virtual fingerprint {got:016x} differs from the committed {want:016x}"
            )]
        };
        tally.item(problems);
    }
}

/// Renders the result line. Every metric of the selected table is present;
/// one the workload does not exercise reads 0.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let t = &outcome.tally;
    let correct = t.failed == 0 && t.attempted > 0;
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.attempted.max(1),
        if t.attempted == 0 { 1 } else { t.failed }
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
