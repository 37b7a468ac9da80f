//! ASP — All-pairs Shortest Paths (parallel Floyd–Warshall).
//!
//! The distance matrix is replicated row-block-wise; at iteration `k` the
//! owner of row `k` broadcasts it, and everybody relaxes their own rows.
//! Broadcasts are totally ordered through a *sequencer*: the sender first
//! obtains a sequence number by RPC (the Orca runtime's ordering mechanism).
//!
//! * **Unoptimized**: the sequencer lives on rank 0 forever, so with 4
//!   clusters 75 % of sequence requests pay the wide-area round trip; row
//!   broadcasts use a topology-oblivious binomial tree.
//! * **Optimized** (paper §3.2): the sequencer *migrates* to the cluster of
//!   the current sender (it moves only `clusters−1` times in a whole run),
//!   and rows are broadcast cluster-aware — each WAN link carries a row once.

use rand::Rng;

use numagap_rt::{Ctx, SequencerServer};
use numagap_sim::{Filter, Message, Tag};

use crate::common::{block_owner, block_range, mix64, seeded_rng, RankOutput, Variant};

/// Weights use this as "no edge"; small enough that additions never wrap.
pub const INF: u32 = u32::MAX / 4;

/// ASP problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AspConfig {
    /// Number of vertices (matrix is `n x n`).
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Edge probability (remaining pairs get `INF`).
    pub edge_prob: f64,
    /// Virtual nanoseconds charged per relaxed matrix cell.
    pub cell_ns: f64,
    /// Extension (paper §3.2: "another solution would be to drop the
    /// sequencer altogether, since processors know who will send which
    /// row"): when true, the optimized variant skips sequence-number
    /// requests entirely and relies on the static row schedule for order.
    pub skip_sequencer: bool,
}

impl AspConfig {
    /// Test-scale instance.
    pub fn small() -> Self {
        AspConfig {
            n: 48,
            seed: 42,
            edge_prob: 0.4,
            cell_ns: 300.0,
            skip_sequencer: false,
        }
    }

    /// Bench-scale instance (grain calibrated to the paper's 1500-vertex
    /// run: ~6 ms of row relaxation per broadcast per processor at 32p).
    pub fn medium() -> Self {
        AspConfig {
            n: 512,
            seed: 42,
            edge_prob: 0.3,
            cell_ns: 750.0,
            skip_sequencer: false,
        }
    }

    /// The paper's problem size (1500 vertices).
    pub fn paper() -> Self {
        AspConfig {
            n: 1500,
            seed: 42,
            edge_prob: 0.1,
            cell_ns: 57.0,
            skip_sequencer: false,
        }
    }

    /// Generates the deterministic weighted adjacency matrix.
    pub fn generate(&self) -> Vec<Vec<u32>> {
        let mut rng = seeded_rng(self.seed ^ mix64(0xA59));
        let n = self.n;
        let mut m = vec![vec![INF; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i == j {
                    *cell = 0;
                } else if rng.gen::<f64>() < self.edge_prob {
                    *cell = rng.gen_range(1..100);
                }
            }
        }
        m
    }
}

/// Serial Floyd–Warshall reference.
pub fn serial_asp(cfg: &AspConfig) -> Vec<Vec<u32>> {
    let mut d = cfg.generate();
    let n = cfg.n;
    for k in 0..n {
        for i in 0..n {
            let dik = d[i][k];
            if dik >= INF {
                continue;
            }
            for j in 0..n {
                let via = dik + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// Checksum of a distance matrix: sum of all finite entries plus a count of
/// unreachable pairs (scaled), so both values and reachability must match.
pub fn matrix_checksum(d: &[Vec<u32>]) -> f64 {
    let mut sum = 0.0;
    let mut unreachable = 0u64;
    for row in d {
        for &v in row {
            if v >= INF {
                unreachable += 1;
            } else {
                sum += v as f64;
            }
        }
    }
    sum + unreachable as f64 * 1e-3
}

const SEQ_TAG: Tag = {
    // service_tag(0) is not const-evaluable through the helper; spell it out.
    Tag::internal_const(4 * (1 << 24))
};
const MIGRATE_TAG: Tag = Tag::internal_const(4 * (1 << 24) + 1);

fn row_tag(k: usize) -> Tag {
    Tag::app(k as u32)
}

/// Binomial-tree parent/children of `me` within `group`, rooted at position
/// `root_pos`.
fn binomial_relations(group: &[usize], root_pos: usize, me: usize) -> (Option<usize>, Vec<usize>) {
    let p = group.len();
    let me_pos = group
        .iter()
        .position(|&r| r == me)
        .expect("rank not in group");
    let rel = (me_pos + p - root_pos) % p;
    let mut mask = 1usize;
    let mut parent = None;
    while mask < p {
        if rel & mask != 0 {
            parent = Some(group[((rel ^ mask) + root_pos) % p]);
            break;
        }
        mask <<= 1;
    }
    if rel == 0 {
        while mask < p {
            mask <<= 1;
        }
    }
    let mut children = Vec::new();
    let mut m = mask >> 1;
    while m > 0 {
        if rel + m < p {
            children.push(group[(rel + m + root_pos) % p]);
        }
        m >>= 1;
    }
    (parent, children)
}

/// Broadcast-tree relations for iteration `k` under a given variant.
/// Returns `(parent, children)` for `me`; the root has no parent.
fn tree_relations(ctx: &Ctx<'_>, owner: usize, variant: Variant) -> (Option<usize>, Vec<usize>) {
    let me = ctx.rank();
    match variant {
        Variant::Unoptimized => {
            let group: Vec<usize> = (0..ctx.nprocs()).collect();
            binomial_relations(&group, owner, me)
        }
        Variant::Optimized => {
            let topo = ctx.topology();
            let my_cluster = topo.cluster_of_rank(me);
            let owner_cluster = topo.cluster_of_rank(owner);
            let entry = if my_cluster == owner_cluster {
                owner
            } else {
                topo.cluster_root(my_cluster)
            };
            let members = topo.members(my_cluster).to_vec();
            let entry_pos = members
                .iter()
                .position(|&r| r == entry)
                .expect("entry rank is a member of its cluster");
            let (mut parent, mut children) = binomial_relations(&members, entry_pos, me);
            if me == owner {
                // The global root additionally feeds every remote cluster.
                for c in 0..topo.nclusters() {
                    if c != owner_cluster {
                        children.insert(0, topo.cluster_root(c));
                    }
                }
            } else if me == entry {
                parent = Some(owner);
            }
            (parent, children)
        }
    }
}

/// Where the sequencer lives at iteration `k`.
fn seq_host(ctx: &Ctx<'_>, owner: usize, variant: Variant) -> usize {
    match variant {
        Variant::Unoptimized => 0,
        Variant::Optimized => {
            let topo = ctx.topology();
            topo.cluster_root(topo.cluster_of_rank(owner))
        }
    }
}

struct SeqState {
    server: Option<SequencerServer>,
    pending: Vec<Message>,
}

impl SeqState {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match self.server.as_mut() {
            Some(server) => server.serve(ctx, &msg),
            None => self.pending.push(msg),
        }
    }

    fn install(&mut self, ctx: &mut Ctx<'_>, next: u64) {
        let mut server = SequencerServer::resume(next);
        for msg in self.pending.drain(..) {
            server.serve(ctx, &msg);
        }
        self.server = Some(server);
    }
}

/// Runs parallel ASP on one rank. Returns this rank's partial checksum over
/// its owned rows.
pub fn asp_rank(ctx: &mut Ctx<'_>, cfg: &AspConfig, variant: Variant) -> RankOutput {
    let n = cfg.n;
    let p = ctx.nprocs();
    let me = ctx.rank();
    let mut d = cfg.generate();
    let (my_lo, my_hi) = block_range(n, p, me);
    let row_bytes = (n * 4) as u64;

    let uses_sequencer = !(cfg.skip_sequencer && variant == Variant::Optimized);
    let mut seq = SeqState {
        server: None,
        pending: Vec::new(),
    };
    // Initial sequencer placement: host of iteration 0.
    let host0 = seq_host(ctx, block_owner(n, p, 0), variant);
    if uses_sequencer && me == host0 {
        seq.server = Some(SequencerServer::new());
    }

    let mut relaxed_cells: u64 = 0;
    for k in 0..n {
        let owner = block_owner(n, p, k);
        let host = seq_host(ctx, owner, variant);
        // Migration: the outgoing host hands the counter over the first
        // time it sees the host change (happens `clusters-1` times, or
        // never when unoptimized). Only the host of iteration `k-1` may
        // forward: a faulty WAN can release the MIGRATE to the next host
        // ahead of row broadcasts still in flight on other streams, and
        // that early recipient must simply hold the counter until its own
        // hosting range begins — bouncing it to the *current* host would
        // strand it, since that host has already passed its migration
        // point and will never forward it again.
        if uses_sequencer && host != me {
            let prev_host = if k == 0 {
                host
            } else {
                seq_host(ctx, block_owner(n, p, k - 1), variant)
            };
            if prev_host == me {
                if let Some(server) = seq.server.take() {
                    ctx.send(host, MIGRATE_TAG, server.next_value(), 8);
                }
            }
        }

        let (parent, children) = tree_relations(ctx, owner, variant);
        let row: Vec<u32> = if me == owner {
            // Obtain the sequence number before broadcasting (total order) —
            // unless the extension that drops the sequencer is enabled (the
            // static row schedule already provides a total order).
            if !uses_sequencer {
                // No ordering traffic at all.
            } else if host == me {
                if seq.server.is_none() {
                    // Wait for the migrating counter.
                    let m = ctx.recv_tag(MIGRATE_TAG);
                    let next = *m.expect_ref::<u64>();
                    seq.install(ctx, next);
                }
                let _ = seq
                    .server
                    .as_mut()
                    .expect("owner hosts the sequencer")
                    .issue_local();
            } else {
                let _seq_no: u64 = ctx.rpc(host, SEQ_TAG, (), 8);
            }
            d[k].clone()
        } else {
            // Wait for row k from my tree parent while serving sequencer
            // traffic addressed to me.
            let parent = parent.expect("non-owner must have a tree parent");
            loop {
                let msg = ctx.recv(Filter::one_of(&[row_tag(k), SEQ_TAG, MIGRATE_TAG]));
                if msg.tag == SEQ_TAG {
                    seq.handle(ctx, msg);
                } else if msg.tag == MIGRATE_TAG {
                    let next = *msg.expect_ref::<u64>();
                    seq.install(ctx, next);
                } else {
                    debug_assert_eq!(msg.src.0, parent, "row must come from tree parent");
                    break msg.expect_clone::<Vec<u32>>();
                }
            }
        };
        // Forward down the tree (root and interior nodes).
        let payload: numagap_sim::Payload = std::sync::Arc::new(row.clone());
        for child in children {
            ctx.send_payload(
                child,
                row_tag(k),
                std::sync::Arc::clone(&payload),
                row_bytes,
            );
        }
        // Relax my rows against row k.
        let mut cells = 0u64;
        for i in my_lo..my_hi {
            if i == k {
                continue;
            }
            let dik = d[i][k];
            if dik >= INF {
                continue;
            }
            for j in 0..n {
                let via = dik + row[j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
            cells += n as u64;
        }
        relaxed_cells += cells;
        ctx.compute_ns(cells as f64 * cfg.cell_ns);
        if me == owner && k >= my_lo && k < my_hi {
            // Owner keeps its broadcast row consistent (row k is one of its
            // own rows; it was already relaxed in earlier iterations).
        }
    }

    let mut checksum = 0.0;
    let mut unreachable = 0u64;
    for row in d.iter().take(my_hi).skip(my_lo) {
        for &v in row {
            if v >= INF {
                unreachable += 1;
            } else {
                checksum += v as f64;
            }
        }
    }
    RankOutput::new(checksum + unreachable as f64 * 1e-3, relaxed_cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::total_checksum;
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    fn run(cfg: AspConfig, variant: Variant, machine: Machine) -> (f64, u64) {
        let report = machine
            .run(move |ctx| asp_rank(ctx, &cfg, variant))
            .unwrap();
        (
            total_checksum(&report.results),
            report.net_stats.total_msgs(),
        )
    }

    #[test]
    fn serial_matches_small_bruteforce() {
        // Bellman-Ford per source as an independent oracle.
        let cfg = AspConfig {
            n: 12,
            seed: 3,
            edge_prob: 0.5,
            cell_ns: 1.0,
            skip_sequencer: false,
        };
        let adj = cfg.generate();
        let fw = serial_asp(&cfg);
        for s in 0..cfg.n {
            let mut dist = vec![INF; cfg.n];
            dist[s] = 0;
            for _ in 0..cfg.n {
                for u in 0..cfg.n {
                    if dist[u] >= INF {
                        continue;
                    }
                    for v in 0..cfg.n {
                        if adj[u][v] < INF && dist[u] + adj[u][v] < dist[v] {
                            dist[v] = dist[u] + adj[u][v];
                        }
                    }
                }
            }
            for v in 0..cfg.n {
                assert_eq!(fw[s][v].min(INF), dist[v].min(INF), "s={s} v={v}");
            }
        }
    }

    #[test]
    fn parallel_unopt_matches_serial() {
        let cfg = AspConfig::small();
        let expected = matrix_checksum(&serial_asp(&cfg));
        let (sum, _) = run(cfg, Variant::Unoptimized, Machine::new(uniform_spec(8)));
        assert!((sum - expected).abs() < 1e-6, "{sum} vs {expected}");
    }

    #[test]
    fn parallel_opt_matches_serial_on_clusters() {
        let cfg = AspConfig::small();
        let expected = matrix_checksum(&serial_asp(&cfg));
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let (sum, _) = run(cfg.clone(), variant, Machine::new(das_spec(4, 2, 5.0, 1.0)));
            assert!(
                (sum - expected).abs() < 1e-6,
                "{variant}: {sum} vs {expected}"
            );
        }
    }

    #[test]
    fn optimized_is_faster_on_wide_area() {
        let cfg = AspConfig::small();
        let t = |variant| {
            let cfg = cfg.clone();
            Machine::new(das_spec(4, 2, 30.0, 1.0))
                .run(move |ctx| asp_rank(ctx, &cfg, variant))
                .unwrap()
                .elapsed
        };
        let unopt = t(Variant::Unoptimized);
        let opt = t(Variant::Optimized);
        assert!(
            opt < unopt,
            "optimized ({opt}) must beat unoptimized ({unopt}) at 30ms latency"
        );
    }

    #[test]
    fn single_proc_runs() {
        let cfg = AspConfig::small();
        let expected = matrix_checksum(&serial_asp(&cfg));
        let (sum, msgs) = run(cfg, Variant::Unoptimized, Machine::new(uniform_spec(1)));
        assert!((sum - expected).abs() < 1e-6);
        assert_eq!(msgs, 0, "single-proc ASP must not communicate");
    }

    #[test]
    fn optimized_reduces_inter_cluster_messages() {
        let cfg = AspConfig::small();
        let msgs = |variant| {
            let cfg = cfg.clone();
            Machine::new(das_spec(4, 2, 5.0, 1.0))
                .run(move |ctx| asp_rank(ctx, &cfg, variant))
                .unwrap()
                .net_stats
                .inter_msgs
        };
        let unopt = msgs(Variant::Unoptimized);
        let opt = msgs(Variant::Optimized);
        assert!(opt < unopt, "opt={opt} unopt={unopt}");
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::common::total_checksum;
    use numagap_net::das_spec;
    use numagap_rt::Machine;

    #[test]
    fn dropping_the_sequencer_preserves_the_answer() {
        let mut cfg = AspConfig::small();
        let expected = matrix_checksum(&serial_asp(&cfg));
        cfg.skip_sequencer = true;
        let report = Machine::new(das_spec(4, 2, 10.0, 1.0))
            .run(move |ctx| asp_rank(ctx, &cfg, Variant::Optimized))
            .unwrap();
        assert!((total_checksum(&report.results) - expected).abs() < 1e-6);
    }

    #[test]
    fn dropping_the_sequencer_removes_ordering_traffic() {
        let run = |skip: bool| {
            let cfg = AspConfig {
                skip_sequencer: skip,
                ..AspConfig::small()
            };
            Machine::new(das_spec(4, 2, 30.0, 1.0))
                .run(move |ctx| asp_rank(ctx, &cfg, Variant::Optimized))
                .unwrap()
        };
        let with_seq = run(false);
        let without = run(true);
        assert!(without.elapsed <= with_seq.elapsed);
        assert!(without.kernel_stats.messages < with_seq.kernel_stats.messages);
    }
}
