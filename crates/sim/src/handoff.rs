//! The kernel ↔ process control handoff of the 1:1 thread mode: a one-slot
//! parked rendezvous.
//!
//! In [`crate::SchedMode::Threads`] each simulated process is an OS thread,
//! and every simulated operation is a strict rendezvous with the kernel: the process publishes a [`Request`]
//! and sleeps until the kernel publishes the completing [`Grant`]. The
//! original implementation used a pair of `std::sync::mpsc` channels per
//! process, which costs two channel sends (each with its own lock, queue
//! node and futex wake) per virtual context switch. This module replaces
//! the pair with a single `Mutex`/`Condvar`-protected slot per process.
//!
//! Because the protocol alternates strictly (there is never more than one
//! outstanding request *or* grant), a one-deep slot is enough. The waiter
//! spins briefly before parking; the publisher only issues a condvar notify
//! when the peer has actually recorded itself as parked. Since the stretch
//! between a grant and the next request is usually nanoseconds of real
//! work, the common case hands off inside the spin window with **zero**
//! thread wakes — the `numagap selfperf` bench records the measured wake
//! rate in [`crate::HotProfile::park_wakes`].
//!
//! Determinism note: whether a particular handoff parks or spins depends on
//! host timing, but it can never change *what* is handed off or in what
//! order — virtual time is bit-identical either way. `park_wakes` is the
//! only host-timing-dependent counter in the profile and is excluded from
//! exact benchmark comparison.

use crate::sync::{Condvar, Mutex};

use crate::process::{Grant, Request};

/// Iterations a waiter spins on the slot before starting to yield.
///
/// Under `cfg(loom)` a single probe: every spin iteration is a schedule
/// choice point for the model checker, so a long budget explodes the
/// search space without adding distinct behaviors (spinning is pure
/// polling — one probe covers the "saw it before parking" interleaving).
#[cfg(not(loom))]
const SPIN: u32 = 192;
#[cfg(loom)]
const SPIN: u32 = 1;

/// `yield_now` polls after the busy-spin phase, before parking. A peer that
/// was itself parked takes microseconds of scheduler latency to wake and
/// respond — far beyond any busy-spin budget — and one side parking makes
/// the *other* side's next wait exceed its spin too, so a single park
/// otherwise cascades into two futex wakes per context switch forever (the
/// legacy channel behavior). Yielding covers that latency cheaply: with no
/// other runnable thread a yield returns almost immediately, and with one
/// it donates the time slice the waking peer needs.
#[cfg(not(loom))]
const YIELDS: u32 = 64;
#[cfg(loom)]
const YIELDS: u32 = 0;

/// The peer thread hung up: the process side was dropped (normal thread
/// exit after `Exit`, or a panic unwinding the entry function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hangup;

#[derive(Default)]
struct Slot {
    grant: Option<Grant>,
    request: Option<Request>,
    /// The process thread is parked on `to_proc`.
    proc_parked: bool,
    /// The kernel is parked on `to_kernel` waiting for this process.
    kernel_parked: bool,
    /// The process side was dropped; no request will ever arrive again.
    proc_gone: bool,
    /// Condvar notifies issued while the peer was recorded as parked.
    park_wakes: u64,
}

/// One process's rendezvous slot, shared between the kernel and the
/// process thread (via `Arc`).
pub(crate) struct Handoff {
    slot: Mutex<Slot>,
    to_proc: Condvar,
    to_kernel: Condvar,
}

impl Handoff {
    pub(crate) fn new() -> Self {
        Handoff {
            slot: Mutex::new(Slot::default()),
            to_proc: Condvar::new(),
            to_kernel: Condvar::new(),
        }
    }

    /// Kernel side: publishes a grant, waking the process if it is parked.
    /// Returns `Err(Hangup)` if the process side already hung up.
    pub(crate) fn grant(&self, grant: Grant) -> Result<(), Hangup> {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        if s.proc_gone {
            return Err(Hangup);
        }
        debug_assert!(s.grant.is_none(), "grant published over a pending grant");
        s.grant = Some(grant);
        if s.proc_parked {
            s.park_wakes += 1;
            self.to_proc.notify_one();
        }
        Ok(())
    }

    /// Kernel side: takes the next request, spinning briefly before
    /// parking. Returns `Err(Hangup)` if the process hung up instead.
    pub(crate) fn recv_request(&self) -> Result<Request, Hangup> {
        for i in 0..SPIN + YIELDS {
            if let Ok(mut s) = self.slot.try_lock() {
                if let Some(req) = s.request.take() {
                    return Ok(req);
                }
                if s.proc_gone {
                    return Err(Hangup);
                }
            }
            if i < SPIN {
                crate::sync::spin_loop();
            } else {
                crate::sync::yield_now();
            }
        }
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        loop {
            if let Some(req) = s.request.take() {
                return Ok(req);
            }
            if s.proc_gone {
                return Err(Hangup);
            }
            s.kernel_parked = true;
            s = self.to_kernel.wait(s).expect("handoff mutex poisoned");
            s.kernel_parked = false;
        }
    }

    /// Process side: publishes a request, waking the kernel if it is
    /// parked. Infallible: the kernel outlives every process thread's use
    /// of the slot.
    pub(crate) fn send_request(&self, request: Request) {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        debug_assert!(
            s.request.is_none(),
            "request published over a pending request"
        );
        s.request = Some(request);
        if s.kernel_parked {
            s.park_wakes += 1;
            self.to_kernel.notify_one();
        }
    }

    /// Process side: takes the next grant, spinning briefly before parking.
    pub(crate) fn wait_grant(&self) -> Grant {
        for i in 0..SPIN + YIELDS {
            if let Ok(mut s) = self.slot.try_lock() {
                if let Some(grant) = s.grant.take() {
                    return grant;
                }
            }
            if i < SPIN {
                crate::sync::spin_loop();
            } else {
                crate::sync::yield_now();
            }
        }
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        loop {
            if let Some(grant) = s.grant.take() {
                return grant;
            }
            s.proc_parked = true;
            s = self.to_proc.wait(s).expect("handoff mutex poisoned");
            s.proc_parked = false;
        }
    }

    /// Process side: marks the slot dead on thread exit (normal or panic)
    /// and wakes the kernel if it is waiting for a request that will never
    /// come. Called from [`crate::process::HangupGuard`]'s `Drop`.
    pub(crate) fn hangup(&self) {
        let mut s = self.slot.lock().expect("handoff mutex poisoned");
        s.proc_gone = true;
        if s.kernel_parked {
            s.park_wakes += 1;
            self.to_kernel.notify_one();
        }
    }

    /// Total condvar notifies that woke an actually-parked peer, both
    /// directions. Host-timing dependent (spins that succeed wake nobody).
    pub(crate) fn park_wakes(&self) -> u64 {
        self.slot.lock().expect("handoff mutex poisoned").park_wakes
    }
}

/// Exhaustive model checking of the handoff protocol (vendored loom shim).
///
/// Run with `RUSTFLAGS='--cfg loom' cargo test -p numagap-sim --lib loom_`.
/// Each test explores **every** interleaving of lock/condvar operations
/// between the kernel side, the process side, and shutdown; the model's
/// condvars never wake spuriously, so any reliance on a racy notify shows
/// up as a deadlock with the offending schedule attached.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use crate::time::SimTime;
    use crate::SimDuration;
    use loom::sync::Arc;
    use loom::thread;

    /// No lost wakeup on the grant path, and each grant is delivered
    /// exactly once: two grant/request rounds must complete under every
    /// interleaving (a lost or doubled grant deadlocks or trips the
    /// strict-alternation debug asserts).
    #[test]
    fn loom_two_rendezvous_rounds_deliver_each_grant_once() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || {
                let g = h2.wait_grant();
                assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(7)));
                h2.send_request(Request::Compute(SimDuration::from_nanos(3)));
                let g = h2.wait_grant();
                assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(9)));
                h2.hangup();
            });
            h.grant(Grant::Proceed(SimTime::from_nanos(7)))
                .expect("process alive for first grant");
            match h.recv_request() {
                Ok(Request::Compute(d)) => assert_eq!(d, SimDuration::from_nanos(3)),
                other => panic!("wrong request, ok={}", other.is_ok()),
            }
            h.grant(Grant::Proceed(SimTime::from_nanos(9)))
                .expect("process alive for second grant");
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }

    /// Shutdown racing a parked (or parking) kernel: `hangup` must wake a
    /// kernel waiting in `recv_request` under every interleaving — the
    /// schedule where the kernel checks `proc_gone`, then the hangup lands,
    /// then the kernel parks, is the classic lost-wakeup window.
    #[test]
    fn loom_hangup_always_wakes_a_waiting_kernel() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || h2.hangup());
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }

    /// A request published right before shutdown must never be lost to the
    /// concurrent hangup: the kernel drains the pending request first and
    /// only then observes `Hangup`, whatever the interleaving.
    #[test]
    fn loom_pending_request_wins_over_hangup() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || {
                h2.send_request(Request::Compute(SimDuration::from_nanos(1)));
                h2.hangup();
            });
            match h.recv_request() {
                Ok(Request::Compute(d)) => assert_eq!(d, SimDuration::from_nanos(1)),
                other => panic!("request lost to hangup, ok={}", other.is_ok()),
            }
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }

    /// Grant racing shutdown: under every interleaving the kernel either
    /// delivers the grant to a still-live process (which then consumes it
    /// and hangs up) or observes the hangup — never a silent drop on a live
    /// receiver, never a wake for a dead one.
    #[test]
    fn loom_grant_vs_hangup_is_delivered_or_reported() {
        loom::model(|| {
            let h = Arc::new(Handoff::new());
            let h2 = Arc::clone(&h);
            let proc_side = thread::spawn(move || {
                let g = h2.wait_grant();
                assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(5)));
                h2.hangup();
            });
            // The process only hangs up after consuming the grant, so the
            // kernel's publish must always succeed — Err(Hangup) here would
            // mean the slot died with a waiter still parked in wait_grant.
            h.grant(Grant::Proceed(SimTime::from_nanos(5)))
                .expect("grant must reach the waiting process");
            assert!(matches!(h.recv_request(), Err(Hangup)));
            proc_side.join().expect("process side");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::sync::Arc;

    #[test]
    fn request_and_grant_round_trip_across_threads() {
        let h = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let worker = std::thread::spawn(move || {
            // Process side: wait for a grant, answer with a request.
            let g = h2.wait_grant();
            assert!(matches!(g, Grant::Proceed(t) if t == SimTime::from_nanos(7)));
            h2.send_request(Request::Compute(crate::SimDuration::from_nanos(3)));
            h2.hangup();
        });
        h.grant(Grant::Proceed(SimTime::from_nanos(7))).unwrap();
        match h.recv_request() {
            Ok(Request::Compute(d)) => assert_eq!(d, crate::SimDuration::from_nanos(3)),
            other => panic!("unexpected: {:?}", other.is_ok()),
        }
        assert!(matches!(h.recv_request(), Err(Hangup)));
        worker.join().unwrap();
    }

    #[test]
    fn hangup_wakes_a_parked_kernel() {
        let h = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let worker = std::thread::spawn(move || {
            // Give the kernel time to exhaust its spin budget and park.
            std::thread::sleep(std::time::Duration::from_millis(20));
            h2.hangup();
        });
        assert!(matches!(h.recv_request(), Err(Hangup)));
        worker.join().unwrap();
    }

    #[test]
    fn grant_after_hangup_reports_it() {
        let h = Handoff::new();
        h.hangup();
        assert!(matches!(h.grant(Grant::Abort), Err(Hangup)));
    }
}
