//! Processor-to-cluster layout of a two-layer machine.

use numagap_sim::{ProcId, SimDuration};

/// Which ranks live in which cluster.
///
/// Ranks are assigned to clusters contiguously: cluster 0 holds ranks
/// `0..s0`, cluster 1 holds `s0..s0+s1`, and so on — matching how the DAS
/// testbed numbered its nodes.
///
/// # Examples
///
/// ```
/// use numagap_net::Topology;
///
/// let topo = Topology::symmetric(4, 8);
/// assert_eq!(topo.nprocs(), 32);
/// assert_eq!(topo.cluster_of_rank(9), 1);
/// assert!(topo.is_inter(0, 31));
/// assert!(!topo.is_inter(8, 15));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    cluster_sizes: Vec<usize>,
    cluster_of: Vec<usize>,
    members: Vec<Vec<usize>>,
    /// Per-cluster compute speed in permille of nominal (1000 = nominal,
    /// 500 = half speed). Empty means every cluster is nominal — the
    /// homogeneous default, kept empty so it compares equal to topologies
    /// built before heterogeneity existed and round-trips old serialized
    /// forms.
    speeds_permille: Vec<u64>,
}

impl Topology {
    /// Builds a topology from explicit cluster sizes.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or any cluster is empty.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "topology needs at least one cluster");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every cluster needs at least one processor"
        );
        let mut cluster_of = Vec::new();
        let mut members = Vec::with_capacity(sizes.len());
        let mut rank = 0;
        for (c, &size) in sizes.iter().enumerate() {
            let mut m = Vec::with_capacity(size);
            for _ in 0..size {
                cluster_of.push(c);
                m.push(rank);
                rank += 1;
            }
            members.push(m);
        }
        Topology {
            cluster_sizes: sizes.to_vec(),
            cluster_of,
            members,
            speeds_permille: Vec::new(),
        }
    }

    /// Assigns per-cluster compute speeds in permille of nominal: `1000`
    /// is nominal, `400` computes 2.5x slower, `2000` twice as fast. The
    /// runtime scales every `compute` call by the caller's cluster speed;
    /// communication costs are unaffected (the NICs and gateways are the
    /// same hardware everywhere).
    ///
    /// # Panics
    ///
    /// Panics unless `speeds` has one entry per cluster, each in
    /// `[100, 10000]` (0.1x to 10x nominal).
    pub fn with_cluster_speeds(mut self, speeds: &[u64]) -> Self {
        assert_eq!(
            speeds.len(),
            self.nclusters(),
            "need one speed per cluster ({} clusters, {} speeds)",
            self.nclusters(),
            speeds.len()
        );
        assert!(
            speeds.iter().all(|&s| (100..=10_000).contains(&s)),
            "cluster speeds must be in [100, 10000] permille, got {speeds:?}"
        );
        // Normalize the homogeneous case to the empty representation so
        // `with_cluster_speeds(&[1000; n])` equals the plain topology.
        if speeds.iter().all(|&s| s == 1000) {
            self.speeds_permille = Vec::new();
        } else {
            self.speeds_permille = speeds.to_vec();
        }
        self
    }

    /// Compute speed of a cluster in permille of nominal.
    pub fn speed_permille(&self, cluster: usize) -> u64 {
        self.speeds_permille.get(cluster).copied().unwrap_or(1000)
    }

    /// Whether any cluster runs at a non-nominal compute speed.
    pub fn is_heterogeneous(&self) -> bool {
        self.speeds_permille.iter().any(|&s| s != 1000)
    }

    /// Scales a nominal compute duration by `rank`'s cluster speed: a
    /// cluster at 500 permille takes twice the nominal time.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn scale_compute(&self, rank: usize, d: SimDuration) -> SimDuration {
        let pm = self.speed_permille(self.cluster_of_rank(rank));
        if pm == 1000 {
            return d;
        }
        SimDuration::from_nanos((d.as_nanos() as u128 * 1000 / pm as u128) as u64)
    }

    /// `clusters` clusters of `procs_per_cluster` processors each.
    pub fn symmetric(clusters: usize, procs_per_cluster: usize) -> Self {
        Topology::new(&vec![procs_per_cluster; clusters])
    }

    /// A single uniform cluster (the all-Myrinet baseline).
    pub fn uniform(nprocs: usize) -> Self {
        Topology::new(&[nprocs])
    }

    /// Total number of processors.
    pub fn nprocs(&self) -> usize {
        self.cluster_of.len()
    }

    /// Number of clusters.
    pub fn nclusters(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Cluster index of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn cluster_of_rank(&self, rank: usize) -> usize {
        self.cluster_of[rank]
    }

    /// Cluster index of a process.
    pub fn cluster_of(&self, p: ProcId) -> usize {
        self.cluster_of_rank(p.0)
    }

    /// Ranks belonging to a cluster, in ascending order.
    pub fn members(&self, cluster: usize) -> &[usize] {
        &self.members[cluster]
    }

    /// The designated first rank of a cluster (used as coordinator/gateway
    /// process by cluster-aware algorithms).
    pub fn cluster_root(&self, cluster: usize) -> usize {
        self.members[cluster][0]
    }

    /// Whether two ranks are in different clusters.
    pub fn is_inter(&self, a: usize, b: usize) -> bool {
        self.cluster_of[a] != self.cluster_of[b]
    }

    /// Size of each cluster.
    pub fn cluster_sizes(&self) -> &[usize] {
        &self.cluster_sizes
    }

    /// A compact `CxP` label like `4x8` when symmetric, or the explicit
    /// sizes joined with `+` (`8+8+4+2`) when asymmetric.
    pub fn label(&self) -> String {
        let first = self.cluster_sizes[0];
        if self.cluster_sizes.iter().all(|&s| s == first) {
            format!("{}x{}", self.nclusters(), first)
        } else {
            self.cluster_sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_layout() {
        let t = Topology::symmetric(4, 8);
        assert_eq!(t.nprocs(), 32);
        assert_eq!(t.nclusters(), 4);
        assert_eq!(t.cluster_of_rank(0), 0);
        assert_eq!(t.cluster_of_rank(7), 0);
        assert_eq!(t.cluster_of_rank(8), 1);
        assert_eq!(t.cluster_of_rank(31), 3);
        assert_eq!(t.members(2), &[16, 17, 18, 19, 20, 21, 22, 23]);
        assert_eq!(t.cluster_root(3), 24);
        assert_eq!(t.label(), "4x8");
    }

    #[test]
    fn asymmetric_layout() {
        let t = Topology::new(&[2, 3]);
        assert_eq!(t.nprocs(), 5);
        assert_eq!(t.members(1), &[2, 3, 4]);
        assert!(t.is_inter(1, 2));
        assert!(!t.is_inter(3, 4));
        assert_eq!(t.label(), "2+3");
    }

    #[test]
    fn cluster_speeds_scale_compute() {
        let t = Topology::symmetric(2, 2).with_cluster_speeds(&[400, 1000]);
        assert!(t.is_heterogeneous());
        assert_eq!(t.speed_permille(0), 400);
        assert_eq!(t.speed_permille(1), 1000);
        let d = SimDuration::from_micros(100);
        // Cluster 0 at 0.4x speed: 2.5x the time. Cluster 1: unchanged.
        assert_eq!(t.scale_compute(0, d), SimDuration::from_micros(250));
        assert_eq!(t.scale_compute(2, d), d);
    }

    #[test]
    fn uniform_speeds_normalize_to_the_homogeneous_form() {
        let plain = Topology::symmetric(2, 2);
        let explicit = Topology::symmetric(2, 2).with_cluster_speeds(&[1000, 1000]);
        assert_eq!(plain, explicit);
        assert!(!explicit.is_heterogeneous());
        assert_eq!(
            plain.scale_compute(0, SimDuration::from_micros(7)),
            SimDuration::from_micros(7)
        );
    }

    #[test]
    #[should_panic(expected = "one speed per cluster")]
    fn rejects_speed_count_mismatch() {
        let _ = Topology::symmetric(2, 2).with_cluster_speeds(&[1000]);
    }

    #[test]
    #[should_panic(expected = "cluster speeds must be in")]
    fn rejects_out_of_range_speeds() {
        let _ = Topology::symmetric(2, 2).with_cluster_speeds(&[1000, 50]);
    }

    #[test]
    fn uniform_is_single_cluster() {
        let t = Topology::uniform(16);
        assert_eq!(t.nclusters(), 1);
        assert!(!t.is_inter(0, 15));
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_empty() {
        let _ = Topology::new(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_empty_cluster() {
        let _ = Topology::new(&[4, 0]);
    }
}
