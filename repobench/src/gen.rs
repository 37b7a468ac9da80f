//! Seeded input generators. The workload seed is the only input: every cell
//! and machine spec the program sees is a pure function of it, so the same
//! seed gives the same inputs on any commit.

use numagap_apps::{AppId, Variant};
use numagap_net::{
    das_spec, uniform_spec, CrossTrafficPlan, FaultPlan, LinkSchedule, TwoLayerSpec, WanTopology,
    PAPER_BANDWIDTHS_MBS, PAPER_LATENCIES_MS,
};
use numagap_sim::SimDuration;

/// Clusters of the paper's DAS machine.
pub const CLUSTERS: usize = 4;
/// Processors per cluster of the paper's DAS machine.
pub const PROCS: usize = 8;

/// SplitMix64: small, fast and good enough to pick inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named sub-stream of a seed, so adding draws to
    /// one workload never shifts another's inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices out of `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// The 11 app/variant pairs of the paper (FFT has no optimized variant).
pub fn pairs() -> Vec<(AppId, Variant)> {
    let mut out = Vec::new();
    for app in AppId::ALL {
        out.push((app, Variant::Unoptimized));
        if app.has_optimized() {
            out.push((app, Variant::Optimized));
        }
    }
    out
}

/// The what-if service's name for an application.
pub fn app_name(app: AppId) -> &'static str {
    match app {
        AppId::Water => "water",
        AppId::Barnes => "barnes",
        AppId::Tsp => "tsp",
        AppId::Asp => "asp",
        AppId::Awari => "awari",
        AppId::Fft => "fft",
    }
}

/// The what-if service's name for a variant.
pub fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Unoptimized => "unopt",
        Variant::Optimized => "opt",
    }
}

/// One simulated cell: an application variant on one machine.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Stable human-readable name.
    pub label: String,
    /// Application.
    pub app: AppId,
    /// Variant.
    pub variant: Variant,
    /// The machine's interconnect.
    pub spec: TwoLayerSpec,
    /// Whether ranks run over the reliable transport.
    pub transport: bool,
}

/// Fig 3 grid points each pair runs at, besides its single-cluster baseline.
pub const POINTS_PER_PAIR: usize = 2;

/// The Fig 3 latency × bandwidth grid, latency-major.
pub fn fig3_grid() -> Vec<(f64, f64)> {
    let mut g = Vec::new();
    for &l in &PAPER_LATENCIES_MS {
        for &b in &PAPER_BANDWIDTHS_MBS {
            g.push((l, b));
        }
    }
    g
}

/// `paper-sweep`: every pair at the single-cluster baseline and at
/// [`POINTS_PER_PAIR`] seed-chosen Fig 3 points on the 4×8 full mesh.
pub fn paper_sweep(seed: u64) -> Vec<SimCell> {
    let mut rng = Rng::new(seed, 1);
    let grid = fig3_grid();
    let mut cells = Vec::new();
    for (app, variant) in pairs() {
        let name = format!("{}/{}", app_name(app), variant_name(variant));
        cells.push(SimCell {
            label: format!("{name}/baseline"),
            app,
            variant,
            spec: uniform_spec(CLUSTERS * PROCS),
            transport: false,
        });
        for i in rng.sample(grid.len(), POINTS_PER_PAIR) {
            let (l, b) = grid[i];
            cells.push(SimCell {
                label: format!("{name}/{l}ms/{b}MBs"),
                app,
                variant,
                spec: das_spec(CLUSTERS, PROCS, l, b),
                transport: false,
            });
        }
    }
    cells
}

/// `wan-hostile`'s fixed app ↔ routed-WAN assignment: each multi-hop shape
/// carries one unoptimized application.
pub const HOSTILE_CELLS: [(AppId, WanTopology); 3] = [
    (AppId::Awari, WanTopology::FatTree { pod: 2 }),
    (AppId::Fft, WanTopology::Torus2d { x: 2, y: 2 }),
    (AppId::Barnes, WanTopology::Ring),
];

/// Processors per cluster on `wan-hostile`: polling ranks make its cells
/// several times dearer than the paper's, so a 4x4 machine keeps enough
/// passes in a run for steady medians.
pub const HOSTILE_PROCS: usize = 4;

/// `wan-hostile`: [`HOSTILE_CELLS`] on a 4x[`HOSTILE_PROCS`] machine at
/// 10 ms / 1 MByte/s with seeded cross-traffic, a diurnal link schedule and
/// WAN drop/duplicate/reorder faults, under the reliable transport. The
/// seed picks each cell's cross-traffic, schedule and fault seeds.
pub fn wan_hostile(seed: u64) -> Vec<SimCell> {
    let mut rng = Rng::new(seed, 2);
    HOSTILE_CELLS
        .iter()
        .map(|&(app, topo)| {
            let (cross, wave, faults) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            let spec = das_spec(CLUSTERS, HOSTILE_PROCS, 10.0, 1.0)
                .wan_topology(topo)
                .cross_traffic(CrossTrafficPlan::new(cross).intensity(0.3))
                .link_schedule(
                    LinkSchedule::diurnal(wave, SimDuration::from_millis(500))
                        .latency_factor(3.0)
                        .bandwidth_factor(0.33),
                )
                .fault_plan(
                    FaultPlan::new(faults)
                        .drop_prob(0.05)
                        .duplicate_prob(0.025)
                        .reorder_prob(0.025),
                );
            SimCell {
                label: format!("{}/unopt/{}", app_name(app), topo.flag()),
                app,
                variant: Variant::Unoptimized,
                spec,
                transport: true,
            }
        })
        .collect()
}

/// The what-if service's default recording point, where the model and
/// serve isolation cells record.
pub const REF_POINT: (f64, f64) = (10.0, 0.3);
/// Side of the square query grid of the model and serve isolation cells.
pub const GRID_SIDE: usize = 16;

/// The isolation cells' what-if query grid: `GRID_SIDE`² log-spaced points
/// spanning the Fig 3 latency and bandwidth ranges, latency-major.
pub fn query_grid() -> Vec<(f64, f64)> {
    let n = GRID_SIDE as f64 - 1.0;
    let mut g = Vec::new();
    for i in 0..GRID_SIDE {
        for j in 0..GRID_SIDE {
            let l = 0.5 * 600f64.powf(i as f64 / n);
            let b = 0.03 * 210f64.powf(j as f64 / n);
            g.push((l, b));
        }
    }
    g
}

/// The recording the model and serve isolation cells run against:
/// optimized Water on the 4x8 mesh, a message-heavy DAG whose replay is
/// mostly network booking.
pub const ISOLATION_APP: (AppId, Variant) = (AppId::Water, Variant::Optimized);

/// A `/v1/whatif` body asking for the analytic bound of [`ISOLATION_APP`]
/// at `points`.
pub fn analytic_body(points: &[(f64, f64)]) -> String {
    let (app, variant) = ISOLATION_APP;
    let pts: Vec<String> = points.iter().map(|(l, b)| format!("[{l}, {b}]")).collect();
    format!(
        "{{\"app\": \"{}\", \"variant\": \"{}\", \"scale\": \"small\", \
         \"mode\": \"analytic\", \"points\": [{}]}}",
        app_name(app),
        variant_name(variant),
        pts.join(", ")
    )
}
