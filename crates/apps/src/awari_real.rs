//! Distributed construction of *real* Awari endgame databases.
//!
//! [`crate::awari`] reproduces the paper's communication pattern on a
//! synthetic stage-DAG; this module solves the actual game of
//! [`crate::awari_board`] in parallel, which is harder in one essential way:
//! non-capturing moves form **cycles within a level**, so after the
//! cross-level exchange the solver needs iterative within-level propagation
//! rounds (value updates + a global "did anything change" reduction per
//! round) — exactly the structure of Bal & Allis's parallel retrograde
//! analysis.
//!
//! States are hashed to processors. Per level:
//!
//! 1. every owner generates its states' moves; capture moves request the
//!    (final) value from the lower level's owner, non-capturing moves
//!    *subscribe* to the successor's owner;
//! 2. expected message counts are agreed via an allreduce (the move
//!    structure is deterministic but ownership is hashed);
//! 3. request/reply resolves everything resolvable from captures alone;
//! 4. propagation rounds flood newly-resolved values to subscribers until a
//!    global fixpoint; leftovers are draws.

use std::collections::HashMap;

use numagap_rt::tags::coll_tag;
use numagap_rt::{bcast_flat, reduce_flat, Combiner, Ctx};
use numagap_sim::{Filter, Tag};

use crate::awari_board::{
    board_from_index, board_index, level_size, solve, stones_on_board, successors, Wld,
};
use crate::common::{mix64, RankOutput};

/// Configuration for the distributed real-board solver.
#[derive(Debug, Clone, PartialEq)]
pub struct AwariRealConfig {
    /// Build the database for `0..=max_stones` stones.
    pub max_stones: u32,
    /// Workload seed (ownership hashing).
    pub seed: u64,
    /// Virtual nanoseconds to generate one state's moves.
    pub state_ns: f64,
    /// Virtual nanoseconds to process one request/reply/notification item.
    pub edge_ns: f64,
    /// Message-combining threshold.
    pub combine: usize,
}

impl AwariRealConfig {
    /// A 4-stone database (2,940 positions) — test scale.
    pub fn small() -> Self {
        AwariRealConfig {
            max_stones: 4,
            seed: 77,
            state_ns: 50_000.0,
            edge_ns: 5_000.0,
            combine: 16,
        }
    }

    /// A 6-stone database (~50k positions) — bench scale.
    pub fn medium() -> Self {
        AwariRealConfig {
            max_stones: 6,
            seed: 77,
            state_ns: 50_000.0,
            edge_ns: 5_000.0,
            combine: 16,
        }
    }

    fn owner(&self, level: u32, idx: u64, p: usize) -> usize {
        (mix64(self.seed ^ ((level as u64) << 40) ^ idx) % p as u64) as usize
    }

    /// Deterministic per-state checksum contribution.
    fn contribution(&self, level: u32, idx: u64, value: Wld) -> f64 {
        let h = mix64(((level as u64) << 40) ^ idx ^ 0xB0A2D) % 1000;
        match value {
            Wld::Win => h as f64 / 7.0,
            Wld::Loss => -(h as f64) / 3.0,
            Wld::Draw => h as f64 / 11.0,
        }
    }
}

/// Serial reference checksum over the whole database.
pub fn serial_awari_real(cfg: &AwariRealConfig) -> f64 {
    let db = solve(cfg.max_stones);
    let mut checksum = 0.0;
    for (level, values) in db.values.iter().enumerate() {
        for (idx, &v) in values.iter().enumerate() {
            checksum += cfg.contribution(level as u32, idx as u64, v);
        }
    }
    checksum
}

/// A cross-level value request: "what is the value of your state
/// `(level, idx)`? answer to my state `u_idx` (at the level being built)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueRequest {
    u_idx: u64,
    succ_level: u32,
    succ_idx: u64,
}

/// A reply or within-level notification: a successor of `u_idx` has `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueNews {
    u_idx: u64,
    value: Wld,
}

/// A within-level subscription: "notify `u_idx`'s owner when your state
/// `v_idx` resolves".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Subscription {
    u_idx: u64,
    v_idx: u64,
}

fn tags(level: u32) -> [Tag; 4] {
    let base = 0x5000 + 0x10 * level;
    [
        Tag::app(base),     // value requests
        Tag::app(base + 1), // value replies
        Tag::app(base + 2), // subscriptions
        Tag::app(base + 3), // propagation-round notifications
    ]
}

struct OpenState {
    open_succs: u32,
    saw_draw: bool,
}

/// Runs the distributed solver on one rank; the checksum is this rank's
/// share of the database checksum.
pub fn awari_real_rank(ctx: &mut Ctx<'_>, cfg: &AwariRealConfig) -> RankOutput {
    let p = ctx.nprocs();
    let me = ctx.rank();
    // All of my solved states, across levels.
    let mut solved: HashMap<(u32, u64), Wld> = HashMap::new();
    let mut checksum = 0.0;
    let mut work: u64 = 0;
    let mut coll_gen = 0u32;
    let mut next_coll_tag = || {
        coll_gen += 2;
        (coll_tag(0x8000 + coll_gen), coll_tag(0x8000 + coll_gen + 1))
    };

    for level in 0..=cfg.max_stones {
        let [req_tag, reply_tag, sub_tag, notify_tag] = tags(level);
        let n = level_size(level);

        // ---- Phase 1: move generation for my states ----
        let mut requests = Combiner::new(req_tag, 20, cfg.combine);
        let mut subscriptions = Combiner::new(sub_tag, 16, cfg.combine);
        // Per-destination counts, allreduced below so every rank knows what
        // to expect (ownership is hashed, so counts are not locally known).
        let mut reqs_to = vec![0u32; p];
        let mut subs_to = vec![0u32; p];
        let mut my_replies_expected: u64 = 0;
        // My open states and their bookkeeping.
        let mut open: HashMap<u64, OpenState> = HashMap::new();
        let mut wins: Vec<u64> = Vec::new();
        // subscribers[v_idx] = predecessors to notify when v resolves.
        let mut subscribers: HashMap<u64, Vec<u64>> = HashMap::new();

        for idx in 0..n {
            if cfg.owner(level, idx, p) != me {
                continue;
            }
            work += 1;
            ctx.compute_ns(cfg.state_ns);
            let board = board_from_index(level, idx);
            let succs = successors(&board);
            if succs.is_empty() {
                solved.insert((level, idx), Wld::Loss);
                checksum += cfg.contribution(level, idx, Wld::Loss);
                continue;
            }
            let mut state = OpenState {
                open_succs: 0,
                saw_draw: false,
            };
            let mut win = false;
            for (next, captured) in &succs {
                let s2 = stones_on_board(next);
                let v_idx = board_index(next);
                if *captured > 0 {
                    // Lower level: final value, maybe remote.
                    let owner = cfg.owner(s2, v_idx, p);
                    if owner == me {
                        match solved[&(s2, v_idx)] {
                            Wld::Loss => win = true,
                            Wld::Draw => state.saw_draw = true,
                            Wld::Win => {}
                        }
                    } else {
                        reqs_to[owner] += 1;
                        my_replies_expected += 1;
                        state.open_succs += 1;
                        requests.add(
                            ctx,
                            owner,
                            ValueRequest {
                                u_idx: idx,
                                succ_level: s2,
                                succ_idx: v_idx,
                            },
                        );
                    }
                } else {
                    // Within-level: subscribe to the successor's owner.
                    let owner = cfg.owner(level, v_idx, p);
                    state.open_succs += 1;
                    if owner == me {
                        subscribers.entry(v_idx).or_default().push(idx);
                    } else {
                        subs_to[owner] += 1;
                        subscriptions.add(ctx, owner, Subscription { u_idx: idx, v_idx });
                    }
                }
            }
            if win {
                solved.insert((level, idx), Wld::Win);
                checksum += cfg.contribution(level, idx, Wld::Win);
                wins.push(idx);
            } else if state.open_succs == 0 {
                // Everything known already (all capture successors): a loss,
                // or a draw if some capture leads to one.
                let value = if state.saw_draw { Wld::Draw } else { Wld::Loss };
                solved.insert((level, idx), value);
                checksum += cfg.contribution(level, idx, value);
            } else {
                open.insert(idx, state);
            }
        }
        requests.flush(ctx);
        subscriptions.flush(ctx);

        // ---- Phase 2: agree on expected counts ----
        let (t1, t2) = next_coll_tag();
        let combined: Vec<u32> = {
            let mine: Vec<u32> = reqs_to.iter().chain(subs_to.iter()).copied().collect();
            let total = reduce_flat(
                ctx,
                0,
                t1,
                mine,
                |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect(),
                (2 * p) as u64 * 4,
            );
            bcast_flat(ctx, 0, t2, total, (2 * p) as u64 * 4)
        };
        let my_requests_expected = combined[me] as u64;
        let my_subs_expected = combined[p + me] as u64;

        // ---- Phase 3: serve requests, collect replies and subscriptions ----
        let mut replies = Combiner::new(reply_tag, 9, cfg.combine);
        let mut reqs_served = 0u64;
        let mut subs_received = 0u64;
        let mut replies_received = 0u64;
        let filter = Filter::one_of(&[req_tag, reply_tag, sub_tag]);
        while reqs_served < my_requests_expected
            || subs_received < my_subs_expected
            || replies_received < my_replies_expected
        {
            // Once every incoming request is answered, push the stragglers.
            let msg = ctx.recv(filter.clone());
            if msg.tag == req_tag {
                let items = msg.expect_ref::<Vec<ValueRequest>>().clone();
                reqs_served += items.len() as u64;
                ctx.compute_ns(items.len() as f64 * cfg.edge_ns);
                for r in items {
                    let value = solved[&(r.succ_level, r.succ_idx)];
                    let dst = cfg.owner(level, r.u_idx, p);
                    replies.add(
                        ctx,
                        dst,
                        ValueNews {
                            u_idx: r.u_idx,
                            value,
                        },
                    );
                }
                if reqs_served == my_requests_expected {
                    replies.flush(ctx);
                }
            } else if msg.tag == sub_tag {
                let items = msg.expect_ref::<Vec<Subscription>>().clone();
                subs_received += items.len() as u64;
                ctx.compute_ns(items.len() as f64 * cfg.edge_ns);
                for s in items {
                    subscribers.entry(s.v_idx).or_default().push(s.u_idx);
                }
            } else {
                let items = msg.expect_ref::<Vec<ValueNews>>().clone();
                replies_received += items.len() as u64;
                ctx.compute_ns(items.len() as f64 * cfg.edge_ns);
                for news in items {
                    resolve_step(
                        cfg,
                        level,
                        news,
                        &mut open,
                        &mut solved,
                        &mut checksum,
                        &mut wins,
                    );
                }
            }
        }
        if my_requests_expected == 0 {
            replies.flush(ctx);
        }

        // Losses that became decidable once all cross-level replies landed
        // cannot exist yet (within-level successors are still open), so the
        // initial resolved set is exactly `wins` + starved losses; their
        // subscribers are notified in the propagation rounds.
        let mut newly_resolved: Vec<u64> = solved
            .iter()
            .filter(|((l, _), _)| *l == level)
            .map(|((_, i), _)| *i)
            .collect();
        newly_resolved.sort_unstable();

        // ---- Phase 4: within-level propagation to a global fixpoint ----
        let mut round = 0u32;
        loop {
            // Outgoing news: every freshly resolved state with subscribers.
            let mut outgoing: Vec<Vec<ValueNews>> = vec![Vec::new(); p];
            for &v_idx in &newly_resolved {
                if let Some(subs) = subscribers.remove(&v_idx) {
                    let value = solved[&(level, v_idx)];
                    for u_idx in subs {
                        let dst = cfg.owner(level, u_idx, p);
                        outgoing[dst].push(ValueNews { u_idx, value });
                    }
                }
            }
            let changed_local = outgoing.iter().any(|v| !v.is_empty());
            let (t1, t2) = next_coll_tag();
            let changed = {
                let any = reduce_flat(ctx, 0, t1, changed_local as u32, |a, b| a | b, 1);
                bcast_flat(ctx, 0, t2, any, 1) != 0
            };
            if !changed {
                break;
            }
            // Deterministic round exchange: one (possibly empty) batch to
            // every peer, including myself via loopback.
            let round_tag = Tag::app(notify_tag.raw() + 0x100 * (round % 0x100));
            for (dst, batch) in outgoing.into_iter().enumerate() {
                let bytes = 9 * batch.len() as u64;
                ctx.send(dst, round_tag, batch, bytes.max(1));
            }
            newly_resolved.clear();
            let before = solved.len();
            for _ in 0..p {
                let msg = ctx.recv(Filter::tag(round_tag));
                let items = msg.expect_ref::<Vec<ValueNews>>().clone();
                ctx.compute_ns(items.len() as f64 * cfg.edge_ns);
                for news in items {
                    resolve_step(
                        cfg,
                        level,
                        news,
                        &mut open,
                        &mut solved,
                        &mut checksum,
                        &mut wins,
                    );
                }
            }
            // Everything resolved this round feeds the next one. Sorted:
            // HashMap iteration order is random per process, and the
            // checksum accumulation order must be deterministic.
            newly_resolved = solved
                .iter()
                .filter(|((l, _), _)| *l == level)
                .map(|((_, i), _)| *i)
                .collect::<Vec<_>>();
            newly_resolved.sort_unstable();
            let after = solved.len();
            // Only states resolved THIS round carry news; recompute cheaply.
            if after == before {
                newly_resolved.clear();
            } else {
                // Keep only states whose subscribers have not been drained.
                newly_resolved.retain(|idx| subscribers.contains_key(idx));
            }
            round += 1;
        }

        // ---- Phase 5: fixpoint leftovers are draws ----
        let mut leftovers: Vec<u64> = open.keys().copied().collect();
        leftovers.sort_unstable();
        for idx in leftovers {
            open.remove(&idx);
            solved.insert((level, idx), Wld::Draw);
            checksum += cfg.contribution(level, idx, Wld::Draw);
        }
    }

    RankOutput::new(checksum, work)
}

/// Applies one piece of news to an open state; resolves it when decided.
fn resolve_step(
    cfg: &AwariRealConfig,
    level: u32,
    news: ValueNews,
    open: &mut HashMap<u64, OpenState>,
    solved: &mut HashMap<(u32, u64), Wld>,
    checksum: &mut f64,
    wins: &mut Vec<u64>,
) {
    let Some(state) = open.get_mut(&news.u_idx) else {
        return; // already resolved (e.g. a win with further pending news)
    };
    state.open_succs -= 1;
    match news.value {
        Wld::Loss => {
            open.remove(&news.u_idx);
            solved.insert((level, news.u_idx), Wld::Win);
            *checksum += cfg.contribution(level, news.u_idx, Wld::Win);
            wins.push(news.u_idx);
        }
        Wld::Draw => {
            state.saw_draw = true;
            if state.open_succs == 0 {
                // All successors known: some draw, no loss => draw.
                open.remove(&news.u_idx);
                solved.insert((level, news.u_idx), Wld::Draw);
                *checksum += cfg.contribution(level, news.u_idx, Wld::Draw);
            }
        }
        Wld::Win => {
            if state.open_succs == 0 {
                let value = if state.saw_draw { Wld::Draw } else { Wld::Loss };
                open.remove(&news.u_idx);
                solved.insert((level, news.u_idx), value);
                *checksum += cfg.contribution(level, news.u_idx, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{rel_err, total_checksum};
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    #[test]
    fn distributed_matches_serial_on_uniform_machines() {
        let cfg = AwariRealConfig::small();
        let expected = serial_awari_real(&cfg);
        for p in [1usize, 2, 4, 8] {
            let cfg2 = cfg.clone();
            let report = Machine::new(uniform_spec(p))
                .run(move |ctx| awari_real_rank(ctx, &cfg2))
                .unwrap();
            let got = total_checksum(&report.results);
            assert!(rel_err(got, expected) < 1e-12, "p={p}: {got} vs {expected}");
        }
    }

    #[test]
    fn distributed_matches_serial_on_clusters() {
        let cfg = AwariRealConfig::small();
        let expected = serial_awari_real(&cfg);
        for spec in [das_spec(2, 2, 5.0, 1.0), das_spec(4, 2, 1.0, 0.5)] {
            let cfg2 = cfg.clone();
            let report = Machine::new(spec)
                .run(move |ctx| awari_real_rank(ctx, &cfg2))
                .unwrap();
            let got = total_checksum(&report.results);
            assert!(rel_err(got, expected) < 1e-12, "{got} vs {expected}");
        }
    }

    #[test]
    fn total_work_is_the_state_count() {
        let cfg = AwariRealConfig::small();
        let expected_states: u64 = (0..=cfg.max_stones).map(level_size).sum();
        let cfg2 = cfg.clone();
        let report = Machine::new(das_spec(2, 2, 1.0, 1.0))
            .run(move |ctx| awari_real_rank(ctx, &cfg2))
            .unwrap();
        let total: u64 = report.results.iter().map(|r| r.work).sum();
        assert_eq!(total, expected_states);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = AwariRealConfig {
            max_stones: 3,
            ..AwariRealConfig::small()
        };
        let run = || {
            let cfg = cfg.clone();
            Machine::new(das_spec(2, 2, 2.0, 1.0))
                .run(move |ctx| awari_real_rank(ctx, &cfg))
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(total_checksum(&a.results), total_checksum(&b.results));
    }
}
