//! Cancellable discrete-event queue with reservable event ids.

use std::cmp::Ordering;
#[allow(clippy::disallowed_types)]
// xtask-allow: R7 — membership-only tombstone set behind the deterministic IdHasher below; iteration order is never observed
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::Instant;

/// Identifier of a scheduled event, usable to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

/// A block of consecutive event ids from [`EventQueue::reserve`], indexed
/// from 0 in reservation order. The empty block (the default) holds none.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReservedIds {
    first: u64,
    len: u64,
}

impl ReservedIds {
    /// The block's `i`-th id, if it has one.
    pub fn get(self, i: usize) -> Option<EventId> {
        let i = u64::try_from(i).ok().filter(|&i| i < self.len)?;
        Some(EventId(self.first + i))
    }
}

/// Identity hasher for [`EventId`] tombstones. Ids are already unique
/// sequence numbers, and the tombstone lookup sits on the hot `pop` path —
/// SipHash would cost more than the heap operation it guards.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached if a caller hashes something other than the u64 id;
        // fold bytes so the hasher still works, if slowly.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

#[allow(clippy::disallowed_types)]
// xtask-allow: R7 — tombstones are only inserted/probed/removed by unique EventId; nothing ever iterates the set
type IdTombstones = HashSet<EventId, BuildHasherDefault<IdHasher>>;

struct Entry<E> {
    at: Instant,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap and we want the earliest
        // event first. Ties break by id — scheduling order, or reservation
        // order for a reserved id — for determinism.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// A min-heap of timestamped events with stable FIFO ordering for ties and
/// O(log n) cancellation via tombstones.
///
/// The queue tracks the current simulation time: popping an event advances
/// `now` to that event's timestamp, and scheduling in the past is clamped to
/// `now` (events never fire retroactively).
///
/// Every event is keyed `(at, id)`, and events pop in key order. An id can
/// be taken now and used later: [`EventQueue::reserve`] hands out ids, and
/// [`EventQueue::schedule_reserved`] schedules an event under one, which
/// then pops exactly where it would have popped had it been scheduled at
/// reservation time — provided its key has not already been passed, which
/// [`EventQueue::has_fired`] tells.
///
/// # Example
///
/// ```
/// use simkit::{Duration, EventQueue};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule_after(Duration::from_micros(10), 'a');
/// let _b = q.schedule_after(Duration::from_micros(5), 'b');
/// q.cancel(a);
/// let fired: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(fired, vec!['b']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: IdTombstones,
    next_id: u64,
    now: Instant,
    /// Every key `(now, id)` with `id` below this has fired (or been passed
    /// by [`EventQueue::advance_to`]); so has every key before `now`.
    fired_below: u64,
    high_water: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("at", &self.at)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with `now` at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: IdTombstones::default(),
            next_id: 0,
            now: Instant::ZERO,
            fired_below: 0,
            high_water: 0,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `event` at absolute time `at`. Times in the past are clamped
    /// to `now` so the event still fires (immediately), preserving causality.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.push(Entry {
            at: at.max(self.now),
            id,
            event,
        });
        id
    }

    /// Reserves a block of `n` consecutive event ids. An event later
    /// scheduled under one of them with [`EventQueue::schedule_reserved`]
    /// ties with other events at its instant as if it had been scheduled
    /// now: after every event scheduled before the reservation, before
    /// every event scheduled after it, and among the block in index order.
    /// An id that is never used costs nothing.
    pub fn reserve(&mut self, n: usize) -> ReservedIds {
        let first = self.next_id;
        self.next_id = first.saturating_add(u64::try_from(n).unwrap_or(u64::MAX));
        ReservedIds {
            first,
            len: self.next_id - first,
        }
    }

    /// Schedules `event` at `at` under `id`, an id from
    /// [`EventQueue::reserve`] not used before. The key `(at, id)` must not
    /// have fired yet (see [`EventQueue::has_fired`]): the event then pops
    /// exactly where it would have, had it been scheduled when `id` was
    /// reserved.
    pub fn schedule_reserved(&mut self, at: Instant, id: EventId, event: E) {
        debug_assert!(id.0 < self.next_id, "{id:?} was never reserved");
        debug_assert!(
            !self.has_fired(at, id),
            "({at:?}, {id:?}) has already fired"
        );
        self.push(Entry { at, id, event });
    }

    /// Whether every event keyed at or before `(at, id)` has popped, so
    /// that an event scheduled under that key now would fire out of order.
    /// [`EventQueue::advance_to`] counts as popping everything up to and
    /// including its instant.
    pub fn has_fired(&self, at: Instant, id: EventId) -> bool {
        at < self.now || (at == self.now && id.0 < self.fired_below)
    }

    fn push(&mut self, entry: Entry<E>) {
        self.heap.push(entry);
        let depth = u64::try_from(self.heap.len()).unwrap_or(u64::MAX);
        self.high_water = self.high_water.max(depth);
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: crate::Duration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    /// Removes and returns the earliest pending event, advancing `now` to its
    /// timestamp. Cancelled events are skipped silently.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.id) {
                continue;
            }
            debug_assert!(
                !self.has_fired(entry.at, entry.id),
                "event queue time went backwards"
            );
            self.now = entry.at;
            self.fired_below = entry.id.0 + 1;
            return Some((entry.at, entry.event));
        }
        None
    }

    /// The timestamp of the earliest live pending event, if any.
    pub fn peek_time(&mut self) -> Option<Instant> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.id) {
                let entry = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&entry.id);
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Advances `now` to `t` without firing anything. Intended for "run
    /// until T" simulation loops after every event at or before `T` has
    /// been popped: from here on, [`EventQueue::has_fired`] holds for every
    /// key at or before `t` that uses an id handed out so far.
    ///
    /// # Panics
    ///
    /// Panics if a live event is pending at or before `t`.
    pub fn advance_to(&mut self, t: Instant) {
        if t < self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(
                next > t,
                "advance_to({t:?}) would skip a pending event at {next:?}"
            );
        }
        self.now = t;
        self.fired_below = self.next_id;
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the underlying heap has been since construction,
    /// counting cancelled entries not yet popped — the queue's memory
    /// high-water mark.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(30), 3);
        q.schedule_at(Instant::from_micros(10), 1);
        q.schedule_at(Instant::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(42), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_micros(42));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(100), "later");
        q.pop();
        q.schedule_at(Instant::from_micros(1), "past");
        let (at, ev) = q.pop().expect("event fires");
        assert_eq!(ev, "past");
        assert_eq!(at, Instant::from_micros(100));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(Duration::from_micros(1), "a");
        q.schedule_after(Duration::from_micros(2), "b");
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(Duration::ZERO, "a");
        assert!(q.pop().is_some());
        q.cancel(a);
        q.schedule_after(Duration::ZERO, "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn high_water_tracks_the_deepest_heap() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..5u64 {
            q.schedule_at(Instant::from_micros(i), i);
        }
        while q.pop().is_some() {}
        q.schedule_at(Instant::from_micros(9), 9);
        assert_eq!(q.high_water(), 5);
        let a = q.schedule_at(Instant::from_micros(10), 10);
        q.cancel(a);
        assert_eq!(q.high_water(), 5, "a drained queue keeps its mark");
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Instant, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn a_reserved_id_pops_where_an_immediate_schedule_would_have() {
        // Events at two instants, some scheduled before the reservation and
        // some after it, including equal-instant ties on both sides.
        let (t1, t2) = (Instant::from_micros(5), Instant::from_micros(9));
        let mut immediate = EventQueue::new();
        immediate.schedule_at(t2, "before@t2");
        immediate.schedule_at(t1, "before@t1");
        immediate.schedule_at(t1, "reserved");
        immediate.schedule_at(t1, "after@t1");
        immediate.schedule_at(t2, "after@t2");

        let mut reserved = EventQueue::new();
        reserved.schedule_at(t2, "before@t2");
        reserved.schedule_at(t1, "before@t1");
        let id = reserved.reserve(1).get(0).expect("one id");
        reserved.schedule_at(t1, "after@t1");
        reserved.schedule_at(t2, "after@t2");
        reserved.schedule_reserved(t1, id, "reserved");

        let order = drain(&mut reserved);
        assert_eq!(order, drain(&mut immediate));
        let names: Vec<&str> = order.iter().map(|(_, e)| *e).collect();
        assert_eq!(
            names,
            ["before@t1", "reserved", "after@t1", "before@t2", "after@t2"]
        );
    }

    #[test]
    fn reserved_ids_keep_their_reservation_order() {
        // A block reserved at once and scheduled back to front still pops
        // in reservation order at a shared instant, after the events that
        // were already waiting there and before a later schedule.
        let t = Instant::from_micros(3);
        let mut q = EventQueue::new();
        q.schedule_at(t, 0);
        let ids = q.reserve(3);
        q.schedule_at(t, 4);
        for i in (0..3).rev() {
            q.schedule_reserved(t, ids.get(i).expect("reserved"), i + 1);
        }
        let order: Vec<usize> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn unused_reserved_ids_leave_the_queue_untouched() {
        let mut q = EventQueue::new();
        let ids = q.reserve(4);
        assert!(ids.get(3).is_some() && ids.get(4).is_none());
        assert_eq!(ReservedIds::default().get(0), None);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.schedule_at(Instant::from_micros(1), 'a');
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 1);
    }

    #[test]
    fn has_fired_follows_pops_and_advance_to() {
        let (t1, t2, t3) = (
            Instant::from_micros(1),
            Instant::from_micros(2),
            Instant::from_micros(4),
        );
        let mut q = EventQueue::new();
        let early = q.reserve(2);
        let (early0, early1) = (early.get(0).expect("id"), early.get(1).expect("id"));
        // Before the first pop nothing has fired, not even at time zero.
        assert!(!q.has_fired(Instant::ZERO, early0));
        assert!(!q.has_fired(t1, early0));

        let a = q.schedule_at(t1, 'a');
        let b = q.schedule_at(t1, 'b');
        q.pop();
        // After popping `a`: every key at or before (t1, a) has fired.
        assert!(q.has_fired(t1, early0), "reserved before `a`");
        assert!(q.has_fired(t1, a));
        assert!(!q.has_fired(t1, b), "`b` is still pending");
        assert!(!q.has_fired(t2, early1), "a later instant");
        q.pop();
        assert!(q.has_fired(t1, b));

        // advance_to counts as popping everything at or before its instant,
        // for every id handed out so far.
        let late = q.reserve(1).get(0).expect("one id");
        q.advance_to(t2);
        assert!(q.has_fired(t1, late), "an earlier instant");
        assert!(q.has_fired(t2, late), "reserved before the advance");
        assert!(!q.has_fired(t3, late), "a later instant");
        let fresh = q.reserve(1).get(0).expect("one id");
        assert!(
            !q.has_fired(t2, fresh),
            "an id handed out after the advance can still fire at its instant"
        );
        q.schedule_reserved(t2, fresh, 'c');
        assert_eq!(q.pop(), Some((t2, 'c')));
        assert!(q.has_fired(t2, fresh));
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_to_refuses_to_pass_an_event_at_its_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(2), ());
        q.advance_to(Instant::from_micros(2));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Instant::from_micros(1), "a");
        q.schedule_at(Instant::from_micros(7), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Instant::from_micros(7)));
        assert!(!q.is_empty());
    }
}
