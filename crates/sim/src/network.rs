//! The network abstraction the kernel charges message transfers against.
//!
//! The kernel is generic over [`Network`] so the cost model is pluggable:
//! `numagap-net` provides the two-layer cluster/WAN model, and this module
//! provides [`IdealNetwork`], a trivial constant-delay model used in unit
//! tests and as the "perfectly uniform" baseline.

use crate::message::Tag;
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Timing outcome of handing one message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the *sender's CPU* becomes free again (send software overhead).
    pub sender_free: SimTime,
    /// When the message lands in the receiver's mailbox.
    pub arrival: SimTime,
}

/// What kind of fault the network injected into a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was silently discarded and never delivered.
    Drop,
    /// A second copy of the message was delivered (later than the original).
    Duplicate,
    /// The message was delivered, but later than its fault-free arrival,
    /// allowing it to be overtaken by subsequent sends on the same pair.
    Delay,
}

impl FaultKind {
    /// Stable lower-case label used in logs and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
        }
    }
}

/// A fault the network injected, surfaced through [`crate::Observer::on_fault`].
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// What happened to the message.
    pub kind: FaultKind,
    /// Sender rank.
    pub src: ProcId,
    /// Destination rank.
    pub dst: ProcId,
    /// Kernel sequence number of the affected message (matches the `seq`
    /// passed to [`crate::Observer::on_send`]).
    pub seq: u64,
    /// The message tag.
    pub tag: Tag,
    /// Virtual time the message departed.
    pub at: SimTime,
    /// Why the fault fired (e.g. `"wan-drop"`, `"link-outage"`).
    pub cause: &'static str,
}

/// How the network disposed of one message under fault injection.
///
/// Returned by [`Network::fault_disposition`]; the kernel schedules one
/// delivery per entry in `arrivals` (zero entries = dropped).
#[derive(Debug, Clone)]
pub struct FaultDisposition {
    /// Mailbox arrival times, one delivery each. Empty means dropped.
    pub arrivals: Vec<SimTime>,
    /// The injected fault, if any. `None` means the fault-free single
    /// on-time delivery.
    pub kind: Option<FaultKind>,
    /// Short cause label for the fault event (ignored when `kind` is `None`).
    pub cause: &'static str,
}

impl FaultDisposition {
    /// The fault-free disposition: one delivery at the transfer's arrival.
    pub fn on_time(transfer: &Transfer) -> Self {
        FaultDisposition {
            arrivals: vec![transfer.arrival],
            kind: None,
            cause: "",
        }
    }

    /// The message is discarded.
    pub fn dropped(cause: &'static str) -> Self {
        FaultDisposition {
            arrivals: Vec::new(),
            kind: Some(FaultKind::Drop),
            cause,
        }
    }

    /// The message arrives on time and a duplicate copy arrives at `dup_at`.
    pub fn duplicated(transfer: &Transfer, dup_at: SimTime, cause: &'static str) -> Self {
        FaultDisposition {
            arrivals: vec![transfer.arrival, dup_at],
            kind: Some(FaultKind::Duplicate),
            cause,
        }
    }

    /// The single delivery is postponed to `at`.
    pub fn delayed(at: SimTime, cause: &'static str) -> Self {
        FaultDisposition {
            arrivals: vec![at],
            kind: Some(FaultKind::Delay),
            cause,
        }
    }
}

/// A pluggable message cost model.
///
/// Implementations are stateful: they track per-link occupancy so concurrent
/// transfers contend for bandwidth. `transfer` is called in deterministic
/// event order by the kernel.
pub trait Network: Send + 'static {
    /// Charges a `wire_bytes`-byte message from `src` to `dst` departing at
    /// `now`, updating internal link state.
    fn transfer(&mut self, src: ProcId, dst: ProcId, wire_bytes: u64, now: SimTime) -> Transfer;

    /// When the sender's CPU becomes free after handing a `wire_bytes`-byte
    /// message to the network at `now` — the sender-side software cost of
    /// the eventual [`Network::transfer`] call, computed *without* touching
    /// link state. The kernel resumes the sender from this value immediately
    /// and defers the link booking itself to the end of the timestamp, where
    /// bookings are replayed in canonical `(departure, rank, send index)`
    /// order so contention arbitration cannot observe event tiebreak order.
    /// Must equal the `sender_free` field of the `Transfer` later returned
    /// for the same message. Defaults to `now` (no sender-side overhead).
    fn sender_free(&self, wire_bytes: u64, now: SimTime) -> SimTime {
        let _ = wire_bytes;
        now
    }

    /// Number of processor endpoints this network connects.
    fn num_procs(&self) -> usize;

    /// Receiver-side software overhead charged when the application actually
    /// receives a message of this size. Defaults to zero.
    fn recv_overhead(&self, wire_bytes: u64) -> SimDuration {
        let _ = wire_bytes;
        SimDuration::ZERO
    }

    /// Whether this network may inject faults. When `false` (the default)
    /// the kernel never calls [`Network::fault_disposition`] and the event
    /// schedule is byte-identical to a build without fault support.
    fn faults_enabled(&self) -> bool {
        false
    }

    /// Decides the fate of one message under fault injection: deliver on
    /// time, drop, duplicate, or delay. Called by the kernel in deterministic
    /// event order, once per send, only when [`Network::faults_enabled`]
    /// returns `true`. `now` is the departure time used for outage windows.
    fn fault_disposition(
        &mut self,
        src: ProcId,
        dst: ProcId,
        tag: Tag,
        wire_bytes: u64,
        now: SimTime,
        transfer: &Transfer,
    ) -> FaultDisposition {
        let _ = (src, dst, tag, wire_bytes, now);
        FaultDisposition::on_time(transfer)
    }
}

/// A uniform network with constant per-message latency, infinite bandwidth
/// and zero sender overhead. Deliveries never contend.
///
/// # Examples
///
/// ```
/// use numagap_sim::{IdealNetwork, Network, ProcId, SimDuration, SimTime};
///
/// let mut net = IdealNetwork::new(4, SimDuration::from_micros(1));
/// let t = net.transfer(ProcId(0), ProcId(1), 1024, SimTime::ZERO);
/// assert_eq!(t.arrival, SimTime::ZERO + SimDuration::from_micros(1));
/// assert_eq!(t.sender_free, SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct IdealNetwork {
    procs: usize,
    latency: SimDuration,
}

impl IdealNetwork {
    /// Creates an ideal network over `procs` endpoints with fixed `latency`.
    pub fn new(procs: usize, latency: SimDuration) -> Self {
        IdealNetwork { procs, latency }
    }

    /// Creates a zero-latency network (messages arrive "instantly", but still
    /// in deterministic event order).
    pub fn instantaneous(procs: usize) -> Self {
        Self::new(procs, SimDuration::ZERO)
    }
}

impl Network for IdealNetwork {
    fn transfer(&mut self, _src: ProcId, _dst: ProcId, _wire_bytes: u64, now: SimTime) -> Transfer {
        Transfer {
            sender_free: now,
            arrival: now + self.latency,
        }
    }

    fn num_procs(&self) -> usize {
        self.procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_network_is_stateless() {
        let mut net = IdealNetwork::new(2, SimDuration::from_nanos(10));
        let a = net.transfer(ProcId(0), ProcId(1), 1, SimTime::ZERO);
        let b = net.transfer(ProcId(0), ProcId(1), 1_000_000, SimTime::ZERO);
        assert_eq!(a, b, "size must not affect an infinite-bandwidth network");
    }

    #[test]
    fn instantaneous_delivers_at_now() {
        let mut net = IdealNetwork::instantaneous(2);
        let t = net.transfer(ProcId(1), ProcId(0), 64, SimTime::from_nanos(5));
        assert_eq!(t.arrival, SimTime::from_nanos(5));
    }

    #[test]
    fn num_procs_reported() {
        assert_eq!(IdealNetwork::instantaneous(7).num_procs(), 7);
    }
}
