//! The arrival calendar: pending arrival events in ascending time order.
//!
//! [`StorageSystem`](crate::StorageSystem) keeps its future arrivals in
//! an [`ArrivalQueue`], a `VecDeque` held sorted by [`TimeKey`]. Arrival
//! streams reach it already in order — admission loops release a sorted
//! pending list one control window at a time, and batch replays submit
//! a sorted trace — so a push is an append, a pop is `pop_front`, and
//! the queue's footprint is what it holds.
//!
//! The queue pops in ascending [`TimeKey`] order: `f64::total_cmp` on
//! the time, then the submission sequence. That is a strict total order
//! over every key the simulator makes (sequences are unique), so the
//! pop order is a pure function of the queued key set — exactly the
//! order a `BinaryHeap<Reverse<TimeKey>>` pops, which the equivalence
//! property test in `tests/properties.rs` pins bit for bit, NaN, both
//! zeros and the infinities included.

use std::collections::VecDeque;

/// Orders event times totally. Compares the time via `f64::total_cmp`
/// (total even for NaN), then the submission sequence — so two events
/// at the same instant pop in submission order.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimeKey(f64, u64);

impl TimeKey {
    /// A key for an event at `time` with submission sequence `seq`.
    pub fn new(time: f64, seq: u64) -> Self {
        Self(time, seq)
    }

    /// The event time.
    pub fn time(&self) -> f64 {
        self.0
    }

    /// The submission sequence number (the tie-breaker).
    pub fn seq(&self) -> u64 {
        self.1
    }
}

impl Eq for TimeKey {}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-ordered event queue over [`TimeKey`], kept sorted.
///
/// A key at or after the last queued one appends in O(1); popping and
/// peeking read the front. The one cost is an out-of-order key: a
/// binary search plus a shift of the nearer end of the deque. No path
/// in the workspace pushes one — trace replay and `Fleet::run` sort
/// their input, the generators emit in order, and `Fleet::offer` keeps
/// its backlog sorted — but a caller that does still gets key order.
///
/// # Examples
///
/// ```
/// use disksim::calendar::{ArrivalQueue, TimeKey};
///
/// let mut q = ArrivalQueue::new();
/// q.push(TimeKey::new(2.0, 1), "late");
/// q.push(TimeKey::new(1.0, 2), "early");
/// assert_eq!(q.peek(), Some(TimeKey::new(1.0, 2)));
/// assert_eq!(q.pop(), Some((TimeKey::new(1.0, 2), "early")));
/// assert_eq!(q.pop(), Some((TimeKey::new(2.0, 1), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct ArrivalQueue<T> {
    /// Ascending by key.
    entries: VecDeque<(TimeKey, T)>,
}

impl<T> Default for ArrivalQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ArrivalQueue<T> {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        Self {
            entries: VecDeque::new(),
        }
    }

    /// Events queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues an event after every queued key that does not exceed it.
    pub fn push(&mut self, key: TimeKey, item: T) {
        match self.entries.back() {
            Some((last, _)) if key < *last => {
                let at = self.entries.partition_point(|(k, _)| *k <= key);
                self.entries.insert(at, (key, item));
            }
            _ => self.entries.push_back((key, item)),
        }
    }

    /// Removes and returns the minimum event.
    pub fn pop(&mut self) -> Option<(TimeKey, T)> {
        self.entries.pop_front()
    }

    /// The minimum key, without removing its event.
    pub fn peek(&self) -> Option<TimeKey> {
        self.entries.front().map(|(k, _)| *k)
    }

    /// Every queued event in pop order, for checkpointing.
    pub fn sorted_entries(&self) -> Vec<(TimeKey, T)>
    where
        T: Clone,
    {
        self.entries.iter().cloned().collect()
    }

    /// Rebuilds a queue holding exactly `entries`: the inverse of
    /// [`Self::sorted_entries`]. The entries are sorted first, which is
    /// one linear pass when they already are, so a hand-edited
    /// checkpoint still pops in key order; the deque then takes over
    /// the vector's buffer, so a restore allocates nothing.
    pub fn from_sorted_entries(mut entries: Vec<(TimeKey, T)>) -> Self {
        entries.sort_unstable_by_key(|entry| entry.0);
        Self {
            entries: entries.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut ArrivalQueue<u64>) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some((k, v)) = q.pop() {
            assert_eq!(k.seq(), v);
            out.push((k.time(), v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = ArrivalQueue::new();
        for (i, t) in [3.0, 1.0, 2.0, 1.0, 0.5].into_iter().enumerate() {
            q.push(TimeKey::new(t, i as u64), i as u64);
        }
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec![4, 1, 3, 2, 0], "ties pop in submission order");
    }

    #[test]
    fn matches_a_binary_heap_on_a_bursty_stream() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = ArrivalQueue::new();
        let mut h = BinaryHeap::new();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for seq in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Bursts near the clock plus occasional far-future jumps.
            let t = (seq as f64) * 0.002 + (x % 1000) as f64 * 1e-4
                + if x.is_multiple_of(97) { 50.0 } else { 0.0 };
            q.push(TimeKey::new(t, seq), seq);
            h.push(Reverse(TimeKey::new(t, seq)));
            if seq % 3 == 0 {
                assert_eq!(q.pop().map(|(k, _)| k), h.pop().map(|Reverse(k)| k));
            }
        }
        while let Some(Reverse(k)) = h.pop() {
            assert_eq!(q.pop().map(|(k, _)| k), Some(k));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn late_pushes_pop_first() {
        let mut q = ArrivalQueue::new();
        for seq in 0..100u64 {
            q.push(TimeKey::new(seq as f64, seq), seq);
        }
        // Drain past t=10, then push an event in the past.
        for _ in 0..12 {
            q.pop();
        }
        q.push(TimeKey::new(0.25, 1_000), 1_000);
        assert_eq!(q.pop().map(|(_, v)| v), Some(1_000));
    }

    #[test]
    fn non_finite_times_sort_by_total_cmp() {
        let mut q = ArrivalQueue::new();
        let neg_nan = -f64::NAN;
        let keys = [f64::NAN, f64::NEG_INFINITY, 1.0, f64::INFINITY, neg_nan, -0.0, 0.0];
        for (i, t) in keys.into_iter().enumerate() {
            q.push(TimeKey::new(t, i as u64), i as u64);
        }
        let mut expected: Vec<TimeKey> = keys
            .into_iter()
            .enumerate()
            .map(|(i, t)| TimeKey::new(t, i as u64))
            .collect();
        expected.sort();
        let got: Vec<TimeKey> = std::iter::from_fn(|| q.pop().map(|(k, _)| k)).collect();
        // Compare bit patterns: NaN != NaN under `PartialEq`.
        let bits = |ks: &[TimeKey]| -> Vec<(u64, u64)> {
            ks.iter().map(|k| (k.time().to_bits(), k.seq())).collect()
        };
        assert_eq!(bits(&got), bits(&expected));
    }

    #[test]
    fn peek_time_reports_without_popping() {
        let mut q = ArrivalQueue::new();
        assert_eq!(q.peek(), None);
        q.push(TimeKey::new(4.5, 0), 0);
        q.push(TimeKey::new(1.25, 1), 1);
        assert_eq!(q.peek().map(|k| k.time()), Some(1.25));
        assert_eq!(q.len(), 2, "peek must not pop");
        assert_eq!(q.pop().map(|(_, v)| v), Some(1));
        assert_eq!(q.peek().map(|k| k.time()), Some(4.5));
    }
}
