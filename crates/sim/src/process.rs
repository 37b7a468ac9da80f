//! The process-side view of the simulation: [`ProcCtx`].
//!
//! The kernel grants control to exactly one process at a time; every
//! simulated operation is a rendezvous with the kernel, which keeps the
//! whole run deterministic regardless of host scheduling. In fiber mode the
//! rendezvous is a pair of plain cells ([`Baton`]) and a fiber yield on the
//! kernel's own thread; in thread mode it rides on the one-slot parked
//! handoff in [`crate::handoff`].

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use crate::handoff::Handoff;
use crate::message::{self, Filter, Message, Payload, Tag};
use crate::time::{SimDuration, SimTime};
use crate::ProcId;

/// Requests a process sends to the kernel.
pub(crate) enum Request {
    /// Advance this process's clock by the given amount of compute time.
    Compute(SimDuration),
    /// Hand a message to the network (asynchronous send).
    Send {
        dst: ProcId,
        tag: Tag,
        wire_bytes: u64,
        payload: Payload,
    },
    /// Block until a matching message is available.
    Recv(Filter),
    /// Poll for a matching message without blocking.
    TryRecv(Filter),
    /// The process finished with this result; `bytes_cloned` carries the
    /// rank's payload-copy counter for [`crate::HotProfile`].
    Exit {
        result: Box<dyn Any + Send>,
        bytes_cloned: u64,
    },
}

/// Kernel replies completing a request.
pub(crate) enum Grant {
    /// The operation completed; the process clock is now this.
    Proceed(SimTime),
    /// A `Recv` completed with this message.
    Msg(SimTime, Message),
    /// A `TryRecv` completed (possibly empty-handed).
    TryMsg(SimTime, Option<Message>),
    /// The kernel is tearing the run down (deadlock / time limit); unwind.
    Abort,
}

/// Marker panic payload used to silently unwind a process when the kernel
/// aborts a run. Never observed by user code.
pub(crate) struct AbortToken;

/// Fiber mode's rendezvous slot. The rank and the kernel run on one thread
/// and strictly take turns, so plain cells are all the synchronization it
/// needs: the kernel stores the grant and resumes the rank; the rank stores
/// its next request and yields back.
#[derive(Default)]
pub(crate) struct Baton {
    pub(crate) grant: Cell<Option<Grant>>,
    pub(crate) request: Cell<Option<Request>>,
    /// Panic message recorded when the rank body unwound.
    pub(crate) failure: Cell<Option<String>>,
}

/// Hangs up the process side of a thread-mode handoff when dropped. Lives
/// inside [`ProcCtx`], so it fires on every way a process thread can end:
/// normal return (after `Exit` is published), a user panic unwinding the
/// entry function, or an [`AbortToken`] unwind — waking a kernel that would
/// otherwise park forever waiting for the next request.
pub(crate) struct HangupGuard(pub(crate) Arc<Handoff>);

impl Drop for HangupGuard {
    fn drop(&mut self) {
        self.0.hangup();
    }
}

/// How a process reaches the kernel.
pub(crate) enum Link {
    /// Fiber mode: the rank runs inline on the kernel's thread.
    Fiber(Rc<Baton>),
    /// Thread mode: the rank is its own OS thread.
    Thread(HangupGuard),
}

/// Handle through which a simulated process interacts with the virtual world.
///
/// A `ProcCtx` is passed by the kernel to each process entry function. All of
/// its methods advance or query *virtual* time; none of them touch wall-clock
/// time. It is neither `Send` nor `Sync`: a rank talks to the kernel only
/// from its own execution context.
///
/// # Examples
///
/// ```
/// use numagap_sim::{Sim, IdealNetwork, SimDuration, Tag, Filter};
///
/// let mut sim = Sim::new(IdealNetwork::instantaneous(2));
/// sim.spawn(|ctx| {
///     ctx.send(numagap_sim::ProcId(1), Tag::app(0), 123u64, 8);
/// });
/// sim.spawn(|ctx| {
///     let m = ctx.recv(Filter::tag(Tag::app(0)));
///     assert_eq!(m.expect_clone::<u64>(), 123);
/// });
/// sim.run().unwrap();
/// ```
pub struct ProcCtx {
    pub(crate) id: ProcId,
    pub(crate) nprocs: usize,
    pub(crate) now: SimTime,
    link: Link,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx")
            .field("rank", &self.id.0)
            .field("nprocs", &self.nprocs)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl ProcCtx {
    pub(crate) fn new(id: ProcId, nprocs: usize, link: Link) -> Self {
        ProcCtx {
            id,
            nprocs,
            now: SimTime::ZERO,
            link,
        }
    }

    /// This process's rank, in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.id.0
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Total number of processes in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time at this process.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Publishes a request without waiting for its grant.
    fn post(&self, req: Request) {
        match &self.link {
            Link::Fiber(baton) => baton.request.set(Some(req)),
            Link::Thread(guard) => guard.0.send_request(req),
        }
    }

    /// Takes the grant the kernel published; unwinds on an abort.
    fn take_grant(&self) -> Grant {
        let grant = match &self.link {
            Link::Fiber(baton) => baton.grant.take().expect("rank resumed without a grant"),
            Link::Thread(guard) => guard.0.wait_grant(),
        };
        if matches!(grant, Grant::Abort) {
            std::panic::panic_any(AbortToken);
        }
        grant
    }

    fn rendezvous(&mut self, req: Request) -> Grant {
        self.post(req);
        if let Link::Fiber(_) = self.link {
            crate::fiber::yield_now();
        }
        self.take_grant()
    }

    /// Waits for the kernel's initial wake before user code runs.
    pub(crate) fn start(&mut self) {
        match self.take_grant() {
            Grant::Proceed(t) => self.now = t,
            _ => unreachable!("initial grant must be a proceed"),
        }
    }

    /// Spends `d` of virtual CPU time.
    pub fn compute(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        match self.rendezvous(Request::Compute(d)) {
            Grant::Proceed(now) => self.now = now,
            _ => unreachable!("compute answered with a non-proceed grant"),
        }
    }

    /// Sends `value` to `dst` with matching `tag`, charging `wire_bytes` on
    /// the network. Asynchronous: returns as soon as the sender-side software
    /// overhead has been paid; delivery happens later in virtual time.
    pub fn send<T: Any + Send + Sync>(&mut self, dst: ProcId, tag: Tag, value: T, wire_bytes: u64) {
        self.send_payload(dst, tag, Arc::new(value), wire_bytes);
    }

    /// Sends an already-shared payload (cheap for multicast fan-out).
    pub fn send_payload(&mut self, dst: ProcId, tag: Tag, payload: Payload, wire_bytes: u64) {
        assert!(
            dst.0 < self.nprocs,
            "send to rank {} but only {} processes exist",
            dst.0,
            self.nprocs
        );
        match self.rendezvous(Request::Send {
            dst,
            tag,
            wire_bytes,
            payload,
        }) {
            Grant::Proceed(now) => self.now = now,
            _ => unreachable!("send answered with a non-proceed grant"),
        }
    }

    /// Blocks until a message matching `filter` arrives, and returns it.
    /// Messages are matched in arrival (FIFO) order.
    pub fn recv(&mut self, filter: Filter) -> Message {
        match self.rendezvous(Request::Recv(filter)) {
            Grant::Msg(now, msg) => {
                self.now = now;
                msg
            }
            _ => unreachable!("recv answered with a non-message grant"),
        }
    }

    /// Returns a matching message if one has already arrived, without
    /// blocking or advancing time (beyond receive overhead on a hit).
    pub fn try_recv(&mut self, filter: Filter) -> Option<Message> {
        match self.rendezvous(Request::TryRecv(filter)) {
            Grant::TryMsg(now, msg) => {
                self.now = now;
                msg
            }
            _ => unreachable!("try_recv answered with a non-trymsg grant"),
        }
    }

    /// Convenience: receives a message with `tag` from anyone and clones out
    /// a typed payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload type does not match `T` (a protocol bug).
    pub fn recv_typed<T: Any + Send + Sync + Clone>(&mut self, tag: Tag) -> (ProcId, T) {
        let m = self.recv(Filter::tag(tag));
        let v = m.expect_clone::<T>();
        (m.src, v)
    }

    /// Convenience: receives a message with `tag` from anyone and takes the
    /// payload as a shared handle without copying it (the zero-copy path;
    /// see [`Message::expect_shared`]).
    ///
    /// # Panics
    ///
    /// Panics if the payload type does not match `T` (a protocol bug).
    pub fn recv_shared<T: Any + Send + Sync>(&mut self, tag: Tag) -> (ProcId, Arc<T>) {
        let m = self.recv(Filter::tag(tag));
        let src = m.src;
        (src, m.expect_shared::<T>())
    }

    pub(crate) fn finish(self, result: Box<dyn Any + Send>) {
        self.post(Request::Exit {
            result,
            bytes_cloned: message::clone_bytes(),
        });
        // `self` drops here. A fiber then returns, which is its hangup; a
        // thread's HangupGuard marks the slot dead so the kernel's join sees
        // a finished thread, not a silent stall.
    }
}
