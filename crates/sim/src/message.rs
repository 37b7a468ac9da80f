//! Messages exchanged between simulated processes.
//!
//! A message carries a *real* in-memory payload (so applications compute real,
//! verifiable answers) together with an explicitly declared *wire size* that
//! the network cost model charges for. The two are decoupled on purpose: the
//! simulator does not serialize payloads, it only accounts for the bytes the
//! corresponding real system would have put on the wire.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::time::SimTime;
use crate::ProcId;

/// A message tag used for matching receives to sends.
///
/// Application code should use [`Tag::app`]; the runtime and collectives
/// layers reserve the upper tag space via [`Tag::internal`].
///
/// # Examples
///
/// ```
/// use numagap_sim::Tag;
///
/// let t = Tag::app(7);
/// assert_ne!(t, Tag::app(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(u32);

impl Tag {
    /// Tags `>= INTERNAL_BASE` are reserved for runtime-internal protocols.
    pub const INTERNAL_BASE: u32 = 1 << 24;

    /// An application-level tag. The full `u32` space below
    /// [`Tag::INTERNAL_BASE`] is available.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `tag` falls in the
    /// reserved internal range.
    pub const fn app(tag: u32) -> Tag {
        assert!(
            tag < Self::INTERNAL_BASE,
            "application tag collides with the reserved internal range"
        );
        Tag(tag)
    }

    /// A runtime-internal tag, offset into the reserved range.
    pub fn internal(offset: u32) -> Tag {
        Tag(Self::INTERNAL_BASE
            .checked_add(offset)
            .expect("internal tag offset overflowed"))
    }

    /// `const` variant of [`Tag::internal`] for tag constants.
    ///
    /// # Panics
    ///
    /// Panics at compile time if the offset overflows the tag space.
    pub const fn internal_const(offset: u32) -> Tag {
        assert!(offset <= u32::MAX - Self::INTERNAL_BASE);
        Tag(Self::INTERNAL_BASE + offset)
    }

    /// The raw tag value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= Self::INTERNAL_BASE {
            write!(f, "internal+{}", self.0 - Self::INTERNAL_BASE)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Type-erased, cheaply clonable message payload.
///
/// Payloads are shared (`Arc`) so a broadcast does not deep-copy its data for
/// every recipient — mirroring how a zero-copy messaging layer behaves.
pub type Payload = Arc<dyn Any + Send + Sync>;

use std::cell::Cell;

thread_local! {
    /// Payload bytes deep-copied out of messages on this thread, feeding
    /// [`crate::HotProfile::bytes_cloned`]. In thread mode each simulated
    /// process is one OS thread, so the counter is reset when a process
    /// starts and harvested when it exits. In fiber mode every rank runs on
    /// the kernel's thread, so the kernel swaps each rank's count in and out
    /// around every resume ([`swap_clone_bytes`]) to keep the per-rank
    /// attribution exact.
    static CLONE_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Resets this thread's payload-clone byte counter (kernel use).
pub(crate) fn reset_clone_bytes() {
    CLONE_BYTES.with(|c| c.set(0));
}

/// Replaces this thread's payload-clone byte counter, returning the old
/// value (kernel use, around a fiber resume).
pub(crate) fn swap_clone_bytes(v: u64) -> u64 {
    CLONE_BYTES.with(|c| c.replace(v))
}

/// Reads this thread's payload-clone byte counter (kernel use).
pub(crate) fn clone_bytes() -> u64 {
    CLONE_BYTES.with(Cell::get)
}

/// A delivered message.
#[derive(Clone)]
pub struct Message {
    /// Kernel-assigned sequence number, unique per run and increasing in
    /// send order. Lets observers correlate a send with its eventual match.
    pub seq: u64,
    /// Sender rank.
    pub src: ProcId,
    /// Matching tag.
    pub tag: Tag,
    /// Bytes charged on the wire (including any payload framing the sender
    /// declared; the network adds its own per-message header on top).
    pub wire_bytes: u64,
    /// Virtual time at which the message was handed to the network.
    pub sent_at: SimTime,
    /// Virtual time at which the message arrived in the receiver's mailbox.
    pub arrived_at: SimTime,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// Borrows the payload as a concrete type.
    ///
    /// Returns `None` if the payload is of a different type.
    pub fn downcast_ref<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Borrows the payload as a concrete type.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the payload has a different type;
    /// this indicates a protocol bug (mismatched tag/type pairing).
    pub fn expect_ref<T: Any + Send + Sync>(&self) -> &T {
        self.downcast_ref::<T>().unwrap_or_else(|| {
            panic!(
                "message payload type mismatch on tag {} from rank {}: expected {}",
                self.tag,
                self.src.0,
                std::any::type_name::<T>()
            )
        })
    }

    /// Clones the payload out as an owned value.
    ///
    /// This deep-copies the payload; prefer [`Message::expect_shared`] when
    /// a shared handle is enough (multicast fan-in, combining relays). The
    /// copied volume is charged to the receiving process's
    /// [`crate::HotProfile::bytes_cloned`] counter at the message's declared
    /// wire size.
    ///
    /// # Panics
    ///
    /// Panics if the payload has a different type.
    pub fn expect_clone<T: Any + Send + Sync + Clone>(&self) -> T {
        let v = self.expect_ref::<T>().clone();
        CLONE_BYTES.with(|c| c.set(c.get().saturating_add(self.wire_bytes)));
        v
    }

    /// Takes the payload as a shared, typed handle without copying the
    /// data — the zero-copy path for multicast and combining consumers.
    /// When this message holds the last reference (the common unicast
    /// case), `Arc::try_unwrap` on the result yields the owned value, still
    /// without a copy.
    ///
    /// # Panics
    ///
    /// Panics if the payload has a different type.
    pub fn expect_shared<T: Any + Send + Sync>(self) -> Arc<T> {
        let (tag, src) = (self.tag, self.src);
        self.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "message payload type mismatch on tag {tag} from rank {}: expected {}",
                src.0,
                std::any::type_name::<T>()
            )
        })
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("seq", &self.seq)
            .field("src", &self.src)
            .field("tag", &self.tag)
            .field("wire_bytes", &self.wire_bytes)
            .field("sent_at", &self.sent_at)
            .field("arrived_at", &self.arrived_at)
            .finish_non_exhaustive()
    }
}

/// Which tags a [`Filter`] accepts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TagFilter {
    /// Any tag.
    #[default]
    Any,
    /// Exactly one tag.
    One(Tag),
    /// Any tag in the set (used by processes that serve several protocols
    /// at once, e.g. a sequencer owner that is also waiting for data).
    Set(Vec<Tag>),
}

impl TagFilter {
    /// Whether a tag passes.
    pub fn accepts(&self, tag: Tag) -> bool {
        match self {
            TagFilter::Any => true,
            TagFilter::One(t) => *t == tag,
            TagFilter::Set(ts) => ts.contains(&tag),
        }
    }
}

/// A receive-side filter: which messages a blocked `recv` accepts.
///
/// Unset fields are wildcards.
///
/// # Examples
///
/// ```
/// use numagap_sim::{Filter, Tag, ProcId};
///
/// let f = Filter::tag(Tag::app(3)).from(ProcId(1));
/// let g = Filter::one_of(&[Tag::app(1), Tag::app(2)]);
/// assert!(f.src.is_some());
/// assert!(g.tag.accepts(Tag::app(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Filter {
    /// Accept only messages from this rank, if set.
    pub src: Option<ProcId>,
    /// Accept only messages whose tag passes.
    pub tag: TagFilter,
}

impl Filter {
    /// Accepts any message.
    pub fn any() -> Filter {
        Filter::default()
    }

    /// Accepts messages with exactly this tag (any sender).
    pub fn tag(tag: Tag) -> Filter {
        Filter {
            src: None,
            tag: TagFilter::One(tag),
        }
    }

    /// Accepts messages with any of the given tags (any sender).
    pub fn one_of(tags: &[Tag]) -> Filter {
        Filter {
            src: None,
            tag: TagFilter::Set(tags.to_vec()),
        }
    }

    /// Restricts the filter to a specific sender.
    pub fn from(mut self, src: ProcId) -> Filter {
        self.src = Some(src);
        self
    }

    /// Whether a message passes the filter.
    pub fn matches(&self, msg: &Message) -> bool {
        self.src.is_none_or(|s| s == msg.src) && self.tag.accepts(msg.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: Tag) -> Message {
        Message {
            seq: 0,
            src: ProcId(src),
            tag,
            wire_bytes: 8,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
            payload: Arc::new(42u64),
        }
    }

    #[test]
    fn app_and_internal_tags_are_disjoint() {
        let a = Tag::app(0);
        let i = Tag::internal(0);
        assert_ne!(a, i);
        assert!(i.raw() >= Tag::INTERNAL_BASE);
    }

    #[test]
    #[should_panic(expected = "reserved internal range")]
    fn app_tag_rejects_reserved_range() {
        let _ = Tag::app(Tag::INTERNAL_BASE);
    }

    #[test]
    fn filter_wildcards() {
        let m = msg(3, Tag::app(7));
        assert!(Filter::any().matches(&m));
        assert!(Filter::tag(Tag::app(7)).matches(&m));
        assert!(!Filter::tag(Tag::app(8)).matches(&m));
        assert!(Filter::tag(Tag::app(7)).from(ProcId(3)).matches(&m));
        assert!(!Filter::tag(Tag::app(7)).from(ProcId(4)).matches(&m));
        assert!(Filter::any().from(ProcId(3)).matches(&m));
    }

    #[test]
    fn downcast_helpers() {
        let m = msg(0, Tag::app(0));
        assert_eq!(m.downcast_ref::<u64>(), Some(&42));
        assert_eq!(m.downcast_ref::<i32>(), None);
        assert_eq!(m.expect_clone::<u64>(), 42);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn expect_ref_panics_on_wrong_type() {
        let m = msg(0, Tag::app(0));
        let _ = m.expect_ref::<String>();
    }

    #[test]
    fn tag_display() {
        assert_eq!(Tag::app(5).to_string(), "5");
        assert_eq!(Tag::internal(2).to_string(), "internal+2");
    }
}
