//! Runtime-level protocol lints.
//!
//! Some defects are invisible to the kernel event stream because they live
//! in runtime abstractions: a combining buffer dropped with items still
//! queued sends nothing (so no observer event exists to flag), and barrier
//! epoch skew is only meaningful when compared *across* ranks after the run.
//!
//! Each simulated process gets a thread-local sink, armed by
//! [`crate::Machine`] around the rank entry function. Runtime primitives
//! report into it from their `Drop` impls; the records come back per rank in
//! [`crate::RunReport::rank_lints`], where `numagap-analysis` turns them
//! into diagnostics.

use std::cell::RefCell;
use std::fmt;

use numagap_sim::Tag;

/// One runtime lint observation on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintRecord {
    /// A combining buffer was dropped while still holding unsent items.
    UnflushedCombiner {
        /// The tag batches would have been delivered under.
        data_tag: Tag,
        /// Items lost in the buffer.
        buffered: usize,
    },
    /// Final generation a [`crate::Barrier`] reached on this rank; compared
    /// across ranks to detect epoch mismatches.
    BarrierGeneration {
        /// The barrier id.
        id: u32,
        /// Generations completed when the barrier was dropped.
        generation: u64,
    },
    /// The reliable transport still held received-but-never-consumed
    /// messages when the rank finished: the application exited without
    /// receiving everything its peers sent it.
    TransportUndelivered {
        /// Messages left in the transport's delivery buffer and
        /// reorder stash.
        buffered: usize,
    },
}

impl fmt::Display for LintRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintRecord::UnflushedCombiner { data_tag, buffered } => write!(
                f,
                "combiner for tag {data_tag} dropped with {buffered} unflushed item(s)"
            ),
            LintRecord::BarrierGeneration { id, generation } => {
                write!(f, "barrier {id} finished at generation {generation}")
            }
            LintRecord::TransportUndelivered { buffered } => write!(
                f,
                "rank finished with {buffered} transport-delivered message(s) never received"
            ),
        }
    }
}

thread_local! {
    static SINK: RefCell<Option<Vec<LintRecord>>> = const { RefCell::new(None) };
}

/// Arms collection on the current thread (one simulated process).
pub(crate) fn arm() {
    SINK.with(|s| *s.borrow_mut() = Some(Vec::new()));
}

/// Disarms collection and returns everything recorded since [`arm`].
pub(crate) fn take() -> Vec<LintRecord> {
    SINK.with(|s| s.borrow_mut().take()).unwrap_or_default()
}

/// Records a lint if collection is armed on this thread; a no-op otherwise
/// (so runtime types behave normally outside a [`crate::Machine`] run).
pub fn report(record: LintRecord) {
    SINK.with(|s| {
        if let Some(v) = s.borrow_mut().as_mut() {
            v.push(record);
        }
    });
}

/// Exchanges the thread-local sink with a rank's saved slot — the
/// rank-locals swapper [`crate::Machine`] registers with the simulator. In
/// fiber mode every rank runs on the kernel's thread, so the sink travels
/// with the rank's execution context instead of the thread: the kernel calls
/// this immediately before a fiber resume (loading the rank's sink) and
/// immediately after (saving it back). The `slot` is type-erased by the
/// kernel; it always holds an `Option<Vec<LintRecord>>`, lazily initialized
/// to the disarmed state.
pub(crate) fn swap_sink(slot: &mut Option<Box<dyn std::any::Any + Send>>) {
    let boxed = slot
        .get_or_insert_with(|| Box::new(None::<Vec<LintRecord>>) as Box<dyn std::any::Any + Send>);
    let saved = boxed
        .downcast_mut::<Option<Vec<LintRecord>>>()
        .expect("rank-locals slot holds a lint sink");
    SINK.with(|s| std::mem::swap(&mut *s.borrow_mut(), saved));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_reports_are_dropped() {
        report(LintRecord::BarrierGeneration {
            id: 0,
            generation: 1,
        });
        assert_eq!(take(), Vec::new());
    }

    #[test]
    fn armed_reports_come_back_in_order() {
        arm();
        report(LintRecord::BarrierGeneration {
            id: 2,
            generation: 5,
        });
        report(LintRecord::UnflushedCombiner {
            data_tag: Tag::app(1),
            buffered: 3,
        });
        let got = take();
        assert_eq!(got.len(), 2);
        assert!(matches!(
            got[0],
            LintRecord::BarrierGeneration { id: 2, .. }
        ));
        // Disarmed after take.
        report(LintRecord::BarrierGeneration {
            id: 0,
            generation: 0,
        });
        assert_eq!(take(), Vec::new());
    }

    #[test]
    fn display_is_informative() {
        let s = LintRecord::UnflushedCombiner {
            data_tag: Tag::app(7),
            buffered: 4,
        }
        .to_string();
        assert!(s.contains("tag 7") && s.contains('4'), "{s}");
    }
}
