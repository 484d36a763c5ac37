//! The event calendar: one binary heap of `(time, actor, message)`
//! entries.
//!
//! The queue is generic over the message type so protocol crates can define
//! their own message enums. Determinism is guaranteed by breaking timestamp
//! ties with a monotonically increasing sequence number: two events scheduled
//! for the same instant are delivered in scheduling order, independent of
//! container internals.
//!
//! # Structure
//!
//! A single `BinaryHeap` ordered by `(at, seq)`, so the pop order is that
//! exact total order and the memory held follows the pending count, not the
//! run's history.
//!
//! An earlier version was a calendar queue: 2 048 time buckets of 2.1 ms
//! each, an occupancy bitmap and an overflow heap past the 4.3 s window,
//! built so million-client runs would not pay a heap's `O(log n)` sifts.
//! The cohort engine since runs those scenarios in ~26 k events, so that
//! traffic no longer exists, and the ring's costs showed instead: every
//! bucket kept the largest `Vec` it ever needed, and a migration burst
//! piled hundreds of entries into one bucket, where each insert shifted
//! them. The Fig. 8/9 scale-out (`sim_scaleout_exact`: 200 k granules,
//! 100 k migrations) never holds more than 2 399 events, yet the ring
//! ended it with capacity for 248 128 entries — 13.25 MB, nearly half the
//! run's peak RSS. The heap holds the same events in 134 KB.
//!
//! Where events spread evenly the ring was faster: in `micro_primitives`'
//! `event_queue` section (~2 200 pending, delays of 20–120 ms and
//! 0.5–2 s) it took 73–99 ns per schedule/pop pair against the heap's
//! 99–114 ns, on a shared 2-core Xeon. On the simulator's own traffic the
//! heap is not slower: traced `sim_scaleout_exact` runs spend less time in
//! migration workers, whose bursts no longer pile into one bucket.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Index of an actor in the simulation world.
///
/// The kernel attaches no meaning to the value; the world that owns the
/// queue maps IDs to compute nodes, storage services, clients, etc.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ActorId(pub u32);

/// An event popped from the queue, ready to dispatch.
#[derive(Debug, PartialEq, Eq)]
pub struct ScheduledEvent<M> {
    /// Virtual delivery time.
    pub at: Nanos,
    /// Destination actor.
    pub dest: ActorId,
    /// The message payload.
    pub msg: M,
}

struct Entry<M> {
    at: Nanos,
    seq: u64,
    dest: ActorId,
    msg: M,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Entry<M> {
    /// `(at, seq)` as one integer: the same order, compared in one step
    /// (a fifth fewer nanoseconds per schedule/pop pair than comparing the
    /// fields one after the other).
    fn key(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with the scheduling sequence number as a deterministic
        // tie-breaker.
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event queue.
pub struct EventQueue<M> {
    heap: BinaryHeap<Entry<M>>,
    /// The timestamp of the last popped event.
    now: Nanos,
    seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Create an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `msg` for delivery to `dest` after `delay` virtual time.
    pub fn schedule(&mut self, delay: Nanos, dest: ActorId, msg: M) {
        self.schedule_at(self.now.saturating_add(delay), dest, msg);
    }

    /// Schedule `msg` for delivery at absolute time `at`.
    ///
    /// Events cannot be scheduled in the past; `at` is clamped to `now` so
    /// causality is preserved even with zero-latency messages.
    pub fn schedule_at(&mut self, at: Nanos, dest: ActorId, msg: M) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, dest, msg });
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some(ScheduledEvent {
            at: e.at,
            dest: e.dest,
            msg: e.msg,
        })
    }

    /// Pop the next event if it is due by `t`; otherwise leave the queue
    /// and its clock untouched.
    pub fn pop_until(&mut self, t: Nanos) -> Option<ScheduledEvent<M>> {
        if self.heap.peek()?.at > t {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::SECOND;
    use proptest::prelude::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, ActorId(0), "c");
        q.schedule(10, ActorId(0), "a");
        q.schedule(20, ActorId(0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at, e.msg))
            .collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, ActorId(0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn time_advances_with_pops_and_clamps_past_schedules() {
        let mut q = EventQueue::new();
        q.schedule(100, ActorId(1), "late");
        assert_eq!(q.pop().unwrap().at, 100);
        // Scheduling at an absolute time in the past clamps to `now`.
        q.schedule_at(50, ActorId(1), "clamped");
        let e = q.pop().unwrap();
        assert_eq!((e.at, e.msg), (100, "clamped"));
    }

    #[test]
    fn relative_scheduling_is_from_current_time() {
        let mut q = EventQueue::new();
        q.schedule(10, ActorId(0), ());
        q.pop().unwrap();
        q.schedule(5, ActorId(0), ());
        assert_eq!(q.pop().unwrap().at, 15);
    }

    #[test]
    fn pop_until_stops_at_the_bound_without_moving_the_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ActorId(0), "a");
        q.schedule_at(20, ActorId(0), "b");
        assert_eq!(q.pop_until(9), None);
        assert_eq!(q.pop_until(10).map(|e| e.msg), Some("a"));
        assert_eq!(q.pop_until(19), None);
        // The refused pop left the clock at 10, not 19.
        q.schedule(5, ActorId(0), "c");
        assert_eq!(q.pop_until(20).map(|e| (e.at, e.msg)), Some((15, "c")));
        assert_eq!(q.pop_until(20).map(|e| e.msg), Some("b"));
        assert_eq!(q.pop_until(u64::MAX), None);
    }

    /// The Fig. 8/9 scale-out's shape at its depth: about 2 000 events
    /// pending while a million schedule/pop pairs slide across 1 000
    /// virtual seconds. A queue whose memory follows its history (a
    /// calendar ring keeping every bucket's largest `Vec`) ends this
    /// holding ~100x its pending count.
    #[test]
    fn retained_capacity_follows_pending_not_history() {
        const PENDING: u64 = 2_000;
        let mut q = EventQueue::new();
        let mut rng = DetRng::seed(46);
        // Holding `PENDING` events at a mean delay of 2 s advances the
        // clock 1 000 virtual seconds per million pops; one event in ten
        // lands far out.
        let delay = |rng: &mut DetRng| {
            if rng.range(0, 10) == 0 {
                rng.range(6 * SECOND, 16 * SECOND)
            } else {
                rng.range(0, 2 * SECOND)
            }
        };
        for i in 0..PENDING {
            q.schedule(delay(&mut rng), ActorId(0), i);
        }
        let mut peak = q.pending();
        let mut last = 0;
        for i in 0..1_000_000 {
            let e = q.pop().unwrap();
            assert!(e.at >= last);
            last = e.at;
            q.schedule(delay(&mut rng), ActorId(0), i);
            peak = peak.max(q.pending());
        }
        assert!(last >= 900 * SECOND, "slid to {last}");
        assert!(
            q.heap.capacity() <= 2 * peak,
            "capacity {} for a peak of {peak} pending",
            q.heap.capacity()
        );
    }

    proptest! {
        /// Pop order is always non-decreasing in time, regardless of the
        /// insertion pattern, and every event is delivered exactly once.
        #[test]
        fn pops_are_monotone(delays in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, d) in delays.iter().enumerate() {
                q.schedule_at(*d, ActorId(0), i);
            }
            let mut last = 0;
            let mut count = 0;
            while let Some(e) = q.pop() {
                prop_assert!(e.at >= last);
                last = e.at;
                count += 1;
            }
            prop_assert_eq!(count, delays.len());
        }

        /// The queue pops the exact `(at, seq)` order under interleaved
        /// schedule/pop traffic with delays up to 10 s, checked against a
        /// stable sort by time of every pending event (clamped past times
        /// included), which breaks ties in scheduling order by itself.
        #[test]
        fn matches_reference_heap(
            ops in proptest::collection::vec((0u64..10_000_000_000, 0u8..4), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<(Nanos, usize)> = Vec::new();
            let mut now = 0;
            let mut id = 0usize;
            let reference_pop = |reference: &mut Vec<(Nanos, usize)>, now: &mut Nanos| {
                reference.sort_by_key(|&(at, _)| at);
                (!reference.is_empty()).then(|| {
                    let next = reference.remove(0);
                    *now = next.0;
                    next
                })
            };
            for (at, kind) in ops {
                if kind == 0 {
                    // Interleave pops with schedules.
                    let a = q.pop().map(|e| (e.at, e.msg));
                    prop_assert_eq!(a, reference_pop(&mut reference, &mut now));
                } else {
                    q.schedule_at(at, ActorId(0), id);
                    reference.push((at.max(now), id));
                    id += 1;
                }
            }
            loop {
                let a = q.pop().map(|e| (e.at, e.msg));
                let b = reference_pop(&mut reference, &mut now);
                prop_assert_eq!(a, b);
                if b.is_none() {
                    break;
                }
            }
        }
    }
}
