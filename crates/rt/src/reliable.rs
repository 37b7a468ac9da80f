//! A reliable transport over the (possibly faulty) simulated network.
//!
//! With a [`numagap_net::FaultPlan`] installed, the WAN drops, duplicates
//! and reorders messages. This module restores exactly-once, in-order
//! per-sender delivery on top of it, the way the DAS gateways' TCP stacks
//! did for the real machine: every inter-cluster message is wrapped in a
//! sequence-numbered envelope, acknowledged by the receiver, retransmitted
//! on timeout with exponential backoff, deduplicated, and released to the
//! application only in sequence order. Intra-cluster (Myrinet) messages are
//! never faulted and bypass the envelope entirely.
//!
//! Acknowledgements travel on a dedicated internal tag block that the fault
//! plan exempts — modeling a small reliable out-of-band control plane. This
//! is a deliberate modeling decision: end-to-end reliable *termination*
//! over a fully lossy channel is the Two Generals problem, so some control
//! traffic must be dependable for every run to finish. Data traffic, which
//! carries the bandwidth and latency the paper studies, remains fully
//! exposed to the fault plan.
//!
//! Because the simulator has no timeout-receive primitive (a blocked `recv`
//! only wakes on a matching message), a transport-mode rank never blocks in
//! the kernel: it polls with `try_recv` and short compute ticks, growing the
//! tick geometrically while idle. The cost is purely virtual-time
//! granularity; determinism is unaffected. A consequence worth knowing: a
//! genuine protocol deadlock no longer trips the kernel's deadlock detector
//! (nobody is ever blocked), so transport runs should set a
//! [`crate::Machine::time_limit`].

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use numagap_net::{Topology, TwoLayerSpec};
use numagap_sim::{Filter, Message, Payload, ProcCtx, ProcId, SimDuration, SimTime, Tag};

use crate::lint::{self, LintRecord};
use crate::tags::ACK_TAG;

/// Tuning knobs of the reliable transport.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// How long to wait for an acknowledgement before retransmitting.
    pub retransmit_timeout: SimDuration,
    /// Maximum number of timeout doublings (exponential backoff cap).
    pub backoff_doublings: u32,
    /// During the exit flush, give up on an unacknowledged message after
    /// this many retransmissions (the peer has exited; see
    /// [`TransportStats::abandoned`]).
    pub max_flush_retries: u32,
    /// Smallest idle polling tick.
    pub poll_min: SimDuration,
    /// Largest idle polling tick (the idle tick doubles up to this).
    pub poll_max: SimDuration,
    /// Extra wire bytes charged per data message for the sequence-number
    /// envelope.
    pub header_bytes: u64,
    /// Wire bytes charged per acknowledgement.
    pub ack_bytes: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            retransmit_timeout: SimDuration::from_millis(40),
            backoff_doublings: 5,
            max_flush_retries: 8,
            poll_min: SimDuration::from_micros(20),
            poll_max: SimDuration::from_millis(2),
            header_bytes: 16,
            ack_bytes: 16,
        }
    }
}

impl TransportConfig {
    /// A config scaled to a machine spec: the retransmit timeout covers a
    /// few WAN round trips, and the polling ticks sit between the LAN and
    /// WAN latencies.
    pub fn for_spec(spec: &TwoLayerSpec) -> Self {
        let wan = spec.inter.latency;
        TransportConfig {
            retransmit_timeout: wan * 4 + SimDuration::from_millis(2),
            poll_min: spec.intra.latency.max(SimDuration::from_micros(10)),
            poll_max: wan.max(SimDuration::from_millis(1)),
            ..TransportConfig::default()
        }
    }
}

/// Per-rank counters of the reliable transport, reported in
/// [`crate::RunReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Distinct data messages sent under an envelope (first transmissions).
    pub data_sent: u64,
    /// Retransmissions (timeout-driven resends of enveloped messages).
    pub retransmits: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Arriving copies suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Unacknowledged messages given up on during the exit flush (the peer
    /// exited without consuming them).
    pub abandoned: u64,
    /// Messages released to the application through the transport (both
    /// enveloped WAN and raw LAN traffic).
    pub delivered: u64,
}

impl TransportStats {
    /// Sums another rank's counters into this one.
    pub fn merge(&mut self, other: &TransportStats) {
        self.data_sent += other.data_sent;
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.abandoned += other.abandoned;
        self.delivered += other.delivered;
    }

    /// Fraction of data transmissions that were useful (first copies):
    /// `data_sent / (data_sent + retransmits)`. `1.0` when nothing was sent.
    pub fn goodput(&self) -> f64 {
        let total = self.data_sent + self.retransmits;
        if total == 0 {
            1.0
        } else {
            self.data_sent as f64 / total as f64
        }
    }
}

/// The sequence-numbered envelope every inter-cluster data message travels
/// in while the reliable transport is enabled. Public so analyses can
/// recognize transport traffic by downcasting payloads.
#[derive(Debug)]
pub struct ReliableEnvelope {
    /// Position in the sender-to-receiver stream (per ordered rank pair,
    /// counted from zero).
    pub conn_seq: u64,
    /// The application payload.
    pub inner: Payload,
}

/// Acknowledgement payload, carried on [`ACK_TAG`].
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// The `conn_seq` being acknowledged (the stream is identified by the
    /// ack's sender and receiver ranks).
    pub conn_seq: u64,
}

struct UnackedMsg {
    dst: usize,
    tag: Tag,
    conn_seq: u64,
    envelope: Payload,
    wire_bytes: u64,
    deadline: SimTime,
    backoff: SimDuration,
    retries: u32,
}

/// Per-rank state of the reliable transport. Owned by [`crate::Ctx`]; all
/// methods take the raw simulator context explicitly because `Ctx` holds
/// both.
pub(crate) struct TransportState {
    cfg: TransportConfig,
    /// Next stream sequence number per destination rank.
    next_seq: Vec<u64>,
    /// Next in-order stream sequence number expected per source rank.
    expected: Vec<u64>,
    /// Out-of-order arrivals held back until the gap fills, keyed by
    /// `(src, conn_seq)`.
    stash: BTreeMap<(usize, u64), Message>,
    /// In-order messages ready for the application, arrival order.
    buffer: VecDeque<Message>,
    /// Sent but not yet acknowledged envelopes, send order.
    unacked: Vec<UnackedMsg>,
    stats: TransportStats,
}

impl TransportState {
    pub(crate) fn new(cfg: TransportConfig, nprocs: usize) -> Self {
        TransportState {
            cfg,
            next_seq: vec![0; nprocs],
            expected: vec![0; nprocs],
            stash: BTreeMap::new(),
            buffer: VecDeque::new(),
            unacked: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Sends through the transport: enveloped and tracked when the pair
    /// crosses clusters, raw otherwise (the Myrinet layer is reliable).
    pub(crate) fn send(
        &mut self,
        sim: &mut ProcCtx,
        topo: &Topology,
        dst: usize,
        tag: Tag,
        payload: Payload,
        wire_bytes: u64,
    ) {
        let inter = topo.cluster_of_rank(sim.rank()) != topo.cluster_of_rank(dst);
        if !inter {
            sim.send_payload(ProcId(dst), tag, payload, wire_bytes);
            return;
        }
        let conn_seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let envelope: Payload = Arc::new(ReliableEnvelope {
            conn_seq,
            inner: payload,
        });
        let framed = wire_bytes + self.cfg.header_bytes;
        sim.send_payload(ProcId(dst), tag, Arc::clone(&envelope), framed);
        self.unacked.push(UnackedMsg {
            dst,
            tag,
            conn_seq,
            envelope,
            wire_bytes: framed,
            deadline: sim.now() + self.cfg.retransmit_timeout,
            backoff: self.cfg.retransmit_timeout,
            retries: 0,
        });
        self.stats.data_sent += 1;
    }

    /// Drains the kernel mailbox: acks clear unacked entries; enveloped data
    /// is acknowledged, deduplicated, and released in stream order; raw
    /// (intra-cluster) messages pass straight through. Returns whether
    /// anything arrived.
    fn service(&mut self, sim: &mut ProcCtx) -> bool {
        let mut progressed = false;
        while let Some(msg) = sim.try_recv(Filter::any()) {
            progressed = true;
            if msg.tag == ACK_TAG {
                let ack = *msg.expect_ref::<Ack>();
                let peer = msg.src.0;
                self.unacked
                    .retain(|u| !(u.dst == peer && u.conn_seq == ack.conn_seq));
                continue;
            }
            let Some(env) = msg.downcast_ref::<ReliableEnvelope>() else {
                self.buffer.push_back(msg);
                continue;
            };
            let src = msg.src.0;
            let conn_seq = env.conn_seq;
            // Acknowledge every arriving copy, including duplicates and
            // out-of-order arrivals — the sender must stop retransmitting
            // even if we are still holding the message back.
            let inner = Arc::clone(&env.inner);
            sim.send(msg.src, ACK_TAG, Ack { conn_seq }, self.cfg.ack_bytes);
            self.stats.acks_sent += 1;
            let unwrapped = Message {
                wire_bytes: msg.wire_bytes.saturating_sub(self.cfg.header_bytes),
                payload: inner,
                ..msg
            };
            if conn_seq < self.expected[src] {
                self.stats.duplicates_suppressed += 1;
            } else if conn_seq == self.expected[src] {
                self.buffer.push_back(unwrapped);
                self.expected[src] += 1;
                // Release any stashed successors the gap was hiding.
                while let Some(m) = self.stash.remove(&(src, self.expected[src])) {
                    self.buffer.push_back(m);
                    self.expected[src] += 1;
                }
            } else if self.stash.insert((src, conn_seq), unwrapped).is_some() {
                self.stats.duplicates_suppressed += 1;
            }
        }
        progressed
    }

    /// Retransmits every unacked envelope whose deadline has passed,
    /// doubling its backoff. When `flushing`, entries that exhausted
    /// [`TransportConfig::max_flush_retries`] are abandoned instead (their
    /// peer has exited).
    fn retransmit_due(&mut self, sim: &mut ProcCtx, flushing: bool) {
        let now = sim.now();
        let cap = self.cfg.retransmit_timeout * (1u64 << self.cfg.backoff_doublings);
        let max_flush_retries = self.cfg.max_flush_retries;
        let mut abandoned = 0u64;
        let mut resend: Vec<(usize, Tag, Payload, u64)> = Vec::new();
        self.unacked.retain_mut(|u| {
            if u.deadline > now {
                return true;
            }
            if flushing && u.retries >= max_flush_retries {
                abandoned += 1;
                return false;
            }
            u.retries += 1;
            u.backoff = (u.backoff * 2).min(cap);
            u.deadline = now + u.backoff;
            resend.push((u.dst, u.tag, Arc::clone(&u.envelope), u.wire_bytes));
            true
        });
        for (dst, tag, envelope, wire_bytes) in resend {
            sim.send_payload(ProcId(dst), tag, envelope, wire_bytes);
            self.stats.retransmits += 1;
        }
        self.stats.abandoned += abandoned;
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.unacked.iter().map(|u| u.deadline).min()
    }

    fn take_match(&mut self, filter: &Filter) -> Option<Message> {
        let i = self.buffer.iter().position(|m| filter.matches(m))?;
        let msg = self.buffer.remove(i);
        if msg.is_some() {
            self.stats.delivered += 1;
        }
        msg
    }

    /// One idle step of the poll loop: retransmit what is due, then advance
    /// virtual time to the earlier of the grown idle tick and the next
    /// retransmit deadline.
    fn idle_step(&mut self, sim: &mut ProcCtx, idle: &mut SimDuration) {
        self.retransmit_due(sim, false);
        let mut step = *idle;
        if let Some(d) = self.next_deadline() {
            step = step.min(d.saturating_since(sim.now()).max(self.cfg.poll_min));
        }
        sim.compute(step);
        *idle = (*idle * 2).min(self.cfg.poll_max);
    }

    /// Blocking receive: polls until a buffered message matches `filter`.
    pub(crate) fn recv(&mut self, sim: &mut ProcCtx, filter: &Filter) -> Message {
        let mut idle = self.cfg.poll_min;
        loop {
            if self.service(sim) {
                idle = self.cfg.poll_min;
            }
            if let Some(msg) = self.take_match(filter) {
                return msg;
            }
            self.idle_step(sim, &mut idle);
        }
    }

    /// Non-blocking receive: drains arrivals once and scans the buffer.
    pub(crate) fn try_recv(&mut self, sim: &mut ProcCtx, filter: &Filter) -> Option<Message> {
        self.service(sim);
        self.retransmit_due(sim, false);
        self.take_match(filter)
    }

    /// Exit flush: keeps servicing acks and retransmitting until every sent
    /// message is acknowledged or abandoned, then reports undelivered
    /// leftovers as a lint and returns the final counters.
    pub(crate) fn finish(&mut self, sim: &mut ProcCtx) -> TransportStats {
        let mut idle = self.cfg.poll_min;
        while !self.unacked.is_empty() {
            if self.service(sim) {
                idle = self.cfg.poll_min;
            }
            if self.unacked.is_empty() {
                break;
            }
            self.retransmit_due(sim, true);
            if self.unacked.is_empty() {
                break;
            }
            let mut step = idle;
            if let Some(d) = self.next_deadline() {
                step = step.min(d.saturating_since(sim.now()).max(self.cfg.poll_min));
            }
            sim.compute(step);
            idle = (idle * 2).min(self.cfg.poll_max);
        }
        let undelivered = self.buffer.len() + self.stash.len();
        if undelivered > 0 {
            lint::report(LintRecord::TransportUndelivered {
                buffered: undelivered,
            });
        }
        self.stats
    }
}

impl std::fmt::Debug for TransportState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportState")
            .field("unacked", &self.unacked.len())
            .field("buffered", &self.buffer.len())
            .field("stashed", &self.stash.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_counts_first_copies() {
        let mut s = TransportStats::default();
        assert_eq!(s.goodput(), 1.0);
        s.data_sent = 80;
        s.retransmits = 20;
        assert!((s.goodput() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = TransportStats {
            data_sent: 1,
            retransmits: 2,
            acks_sent: 3,
            duplicates_suppressed: 4,
            abandoned: 5,
            delivered: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.data_sent, 2);
        assert_eq!(a.delivered, 12);
    }

    #[test]
    fn config_scales_with_spec() {
        let spec = numagap_net::das_spec(2, 2, 10.0, 1.0);
        let cfg = TransportConfig::for_spec(&spec);
        assert!(cfg.retransmit_timeout >= spec.inter.latency * 4);
        assert!(cfg.poll_min <= cfg.poll_max);
    }
}
