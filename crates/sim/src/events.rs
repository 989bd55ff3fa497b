//! The event queue of the simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rod_core::ids::{NodeId, OperatorId, StreamId};

/// A work item travelling through the dataflow: one tuple on one stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuple {
    /// Time the tuple's ancestor entered the system at a source — carried
    /// through operators so sink emissions yield end-to-end latency.
    pub birth: f64,
}

/// Handle of a pooled tuple batch in the engine's slab (see
/// `crate::batched`). Events stay `Copy` by carrying the slot index;
/// the tuples live in the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchId(pub u32);

impl BatchId {
    /// The underlying slab slot.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Simulator events.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A run of source arrivals on one system input: tuples
    /// `first..first + len` of that input's arrival-time vector, filled
    /// into a pooled batch when the event fires (so the pool never holds
    /// batches that have not arrived yet).
    SourceBatch {
        /// Position of the stream in the graph's system inputs.
        input: usize,
        /// Index of the run's first tuple in the input's arrivals.
        first: usize,
        /// Tuples in the run.
        len: usize,
    },
    /// A pooled batch of tuples leaves the query network on a sink
    /// stream (where the latency is recorded).
    SinkBatch {
        /// The sink stream.
        stream: StreamId,
        /// Pool handle of the batch.
        batch: BatchId,
    },
    /// A pooled batch delivered to one specific consumer port, possibly
    /// after a network hop.
    BatchConsumerArrival {
        /// The consuming operator.
        op: OperatorId,
        /// Which of its input ports receives the batch.
        port: usize,
        /// Pool handle of the batch.
        batch: BatchId,
        /// CPU charged to the receiving node *per tuple* in the batch.
        recv_overhead: f64,
    },
    /// A node finishes its current service and should dispatch the next
    /// queued item.
    ServiceComplete {
        /// The node whose service finished.
        node: NodeId,
    },
    /// Periodic control tick of the dynamic load manager (only scheduled
    /// when migration is enabled).
    ControlTick,
    /// Periodic timeline snapshot (only scheduled when sampling is
    /// enabled).
    SampleTick,
    /// A migrating operator finishes its state transfer and resumes on
    /// its destination node.
    MigrationComplete {
        /// The operator that finished migrating.
        op: OperatorId,
        /// Its new host.
        dest: NodeId,
    },
    /// An injected fail-stop outage begins on a node.
    OutageStart {
        /// The failing node.
        node: NodeId,
    },
    /// The failure monitor notices a node is down (outage start plus the
    /// configured detection delay) and triggers failover of its operators
    /// to their table-designated backups.
    FailureDetected {
        /// The node detected as failed.
        node: NodeId,
    },
    /// An injected outage ends; the node resumes draining its queue.
    OutageEnd {
        /// The recovering node.
        node: NodeId,
    },
}

/// A timestamped event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Simulation time.
    pub time: f64,
    /// Tie-break sequence number (FIFO among simultaneous events).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap semantics: earlier time (then lower seq) is "greater".
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-time event queue.
///
/// Events pop in ascending `(time, seq)` order, where `seq` is the push
/// order — so simultaneous events are served strictly FIFO and a run is a
/// pure function of its inputs. [`pop`](EventQueue::pop) enforces this
/// with an always-on assertion: any non-monotone pop (which would make
/// seed-identical reruns diverge) is a bug, not a condition to tolerate.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// `(time, seq)` of the last popped event, for the FIFO assertion.
    last_popped: Option<(f64, u64)>,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pops the earliest event, asserting deterministic order: times
    /// never go backwards, and equal-time events come out in push order.
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.heap.pop()?;
        if let Some((t, s)) = self.last_popped {
            assert!(
                event.time > t || (event.time == t && event.seq > s),
                "non-deterministic pop: ({}, {}) after ({t}, {s})",
                event.time,
                event.seq
            );
        }
        self.last_popped = Some((event.time, event.seq));
        Some(event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::ServiceComplete { node: NodeId(0) });
        q.push(1.0, EventKind::ServiceComplete { node: NodeId(1) });
        q.push(2.0, EventKind::ServiceComplete { node: NodeId(2) });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(
                1.0,
                EventKind::SourceBatch {
                    input: i,
                    first: 0,
                    len: 1,
                },
            );
        }
        let inputs: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::SourceBatch { input, .. } => input,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(inputs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_time_fifo_survives_interleaved_pushes() {
        // Pops interleaved with pushes at the same timestamp must still
        // honour push order — the regression mode is a heap that reorders
        // equal keys once siftup touches them.
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::ServiceComplete { node: NodeId(0) });
        q.push(1.0, EventKind::ServiceComplete { node: NodeId(1) });
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::ServiceComplete { node: NodeId(0) }
        ));
        q.push(1.0, EventKind::ServiceComplete { node: NodeId(2) });
        q.push(0.5, EventKind::ServiceComplete { node: NodeId(3) });
        // 0.5 pushed after a 1.0 pop would violate the monotone
        // assertion; drain expecting the panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.pop()));
        assert!(result.is_err(), "time went backwards without assertion");
    }

    #[test]
    fn pop_order_is_reproducible() {
        // Two identically-fed queues drain identically, event for event.
        let feed = |q: &mut EventQueue| {
            for i in 0..20 {
                q.push(
                    (i % 5) as f64,
                    EventKind::ServiceComplete { node: NodeId(i) },
                );
            }
        };
        let (mut a, mut b) = (EventQueue::new(), EventQueue::new());
        feed(&mut a);
        feed(&mut b);
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.5, EventKind::ServiceComplete { node: NodeId(0) });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
