//! Deterministic work-stealing parallelism: the one pool behind the lab
//! engine's experiment scheduler and every parallel sweep.
//!
//! The scheduler is free to interleave work any way it likes, but
//! [`parallel_map`] always returns its outputs in item order, so callers
//! that keep `f` pure get byte-identical results at any thread count —
//! the property the experiment cache and the determinism tests lean
//! on. `disklab::engine` re-exports it. The fleet shards its epoch loop
//! over hand-split contiguous chunks instead; the serial
//! [`merge_runs_by`] here is how it turns its per-enclosure event runs
//! back into one deterministic stream: one `sort_unstable` of 16-byte
//! (key, run, position) entries in a buffer the fleet keeps across
//! epochs.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::thread;

/// The worker count [`parallel_map`] uses by default: the machine's
/// parallelism, capped so a sweep nested inside an engine worker does
/// not fan out absurdly wide.
pub fn default_parallelism() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Maps `f` over `items` across up to `threads` workers — each worker
/// drains its own round-robin deque, then steals from the back of its
/// peers' — and returns the outputs in item order.
///
/// The scheduling is free to interleave any way it likes, but the
/// result is exactly what the serial `items.into_iter().map(f)` would
/// produce — experiments lean on that to keep their artifacts
/// byte-identical across thread counts. `f` must therefore be pure with
/// respect to ordering: each call sees only its own item.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..items.len() {
        queues[i % workers].lock().expect("queue lock").push_back(i);
    }

    thread::scope(|scope| {
        let (items, slots, queues, f) = (&items, &slots, &queues, &f);
        for worker in 0..workers {
            scope.spawn(move || {
                while let Some(i) = next_job(queues, worker) {
                    let item = items[i]
                        .lock()
                        .expect("item lock")
                        .take()
                        .expect("each job is dispatched exactly once");
                    let out = f(item);
                    *slots[i].lock().expect("slot lock") = Some(out);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every dispatched job stores its result")
        })
        .collect()
}

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp`'s:
/// positive values get the sign bit set, negative ones are inverted.
pub fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Streams the elements of `runs` through `emit`, one borrowed element
/// at a time, in exactly the order of the *stable* sort of the runs'
/// concatenation by `key`: on equal keys the element from the earlier
/// run comes first, and within a run original order is kept. Empty runs
/// are fine, and a run need not be sorted.
///
/// Each element becomes one 16-byte entry in `entries`, its key above
/// its run index above its position, so the entries are distinct and
/// their `sort_unstable` order is that stable order: `key` runs once
/// per element, the sort compares plain integers and needs no scratch
/// buffer. `entries` is cleared
/// first and keeps its capacity, so a caller that holds on to it
/// allocates nothing once it has seen its largest batch. Nothing is
/// moved or copied: the caller keeps its runs, and `emit` decides what
/// to do with each element.
///
/// This is the fleet's epoch-boundary event merge: the routing run and
/// every enclosure's run stream straight into the sink, in exactly the
/// order a global stable time-sort of the concatenation would produce,
/// whatever the shard count.
///
/// # Panics
///
/// Panics if there are more than `u32::MAX` runs or a run holds more
/// than `u32::MAX` elements.
pub fn merge_runs_by<T>(
    runs: &[&[T]],
    key: impl Fn(&T) -> u64,
    entries: &mut Vec<u128>,
    mut emit: impl FnMut(&T),
) {
    entries.clear();
    entries.reserve(runs.iter().map(|run| run.len()).sum());
    for (r, run) in runs.iter().enumerate() {
        let r = u32::try_from(r).expect("run index fits in 32 bits");
        assert!(u32::try_from(run.len()).is_ok(), "run length fits in 32 bits");
        entries.extend(
            run.iter()
                .enumerate()
                .map(|(p, e)| (u128::from(key(e)) << 64) | (u128::from(r) << 32) | p as u128),
        );
    }
    entries.sort_unstable();
    for &entry in entries.iter() {
        emit(&runs[(entry >> 32) as u32 as usize][entry as u32 as usize]);
    }
}

/// Pops from the worker's own deque, stealing from peers when empty.
fn next_job(queues: &[Mutex<VecDeque<usize>>], worker: usize) -> Option<usize> {
    if let Some(job) = queues[worker].lock().expect("queue lock").pop_front() {
        return Some(job);
    }
    for offset in 1..queues.len() {
        let victim = (worker + offset) % queues.len();
        if let Some(job) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let squares = |threads| parallel_map((0..100).collect::<Vec<i64>>(), threads, |x| x * x);
        let serial = squares(1);
        assert_eq!(serial, (0..100).map(|x| x * x).collect::<Vec<i64>>());
        for threads in [2, 3, 8, 64] {
            assert_eq!(squares(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(Vec::<u8>::new(), 8, |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(vec![7], 8, |x| x + 1), vec![8]);
    }

    /// Collects `merge_runs_by` into a vector of copies.
    fn merged<T: Copy>(runs: &[Vec<T>], key: impl Fn(&T) -> u64) -> Vec<T> {
        let runs: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        merge_runs_by(&runs, key, &mut Vec::new(), |x| out.push(*x));
        out
    }

    #[test]
    fn merge_matches_stable_sort_with_ties_and_empty_runs() {
        // Keys repeat across runs; payloads record (run, slot) so the
        // stable tie order (earlier run first, then within-run order) is
        // observable. The last run is unsorted.
        let runs: Vec<Vec<(u32, usize, usize)>> = vec![
            vec![(1, 0, 0), (3, 0, 1), (3, 0, 2), (9, 0, 3)],
            vec![],
            vec![(0, 2, 0), (3, 2, 1), (9, 2, 2)],
            vec![(3, 3, 0)],
            vec![],
            vec![(9, 5, 0), (3, 5, 1), (0, 5, 2)],
        ];
        let mut expected: Vec<(u32, usize, usize)> = runs.concat();
        expected.sort_by_key(|e| e.0); // sort_by_key is stable
        assert_eq!(merged(&runs, |e| u64::from(e.0)), expected);
        assert_eq!(merged(&[] as &[Vec<u8>], |&x| u64::from(x)), Vec::<u8>::new());
        assert_eq!(
            merged(&[vec![], vec![]] as &[Vec<u8>], |&x| u64::from(x)),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn merge_borrows_and_leaves_runs_intact() {
        let a = vec![String::from("a"), String::from("c")];
        let b = vec![String::from("b")];
        let mut entries = Vec::new();
        let mut seen = Vec::new();
        let first_byte = |s: &String| u64::from(s.as_bytes()[0]);
        merge_runs_by(&[&a, &b], first_byte, &mut entries, |s| seen.push(s.clone()));
        assert_eq!(seen, ["a", "b", "c"]);
        assert_eq!(a.len() + b.len(), 3, "the runs are only borrowed");
        // A second merge reuses the entry buffer without growing it.
        let capacity = entries.capacity();
        seen.clear();
        merge_runs_by(&[&b, &a], first_byte, &mut entries, |s| seen.push(s.clone()));
        assert_eq!(seen, ["a", "b", "c"]);
        assert_eq!(entries.capacity(), capacity);
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn stealing_drains_all_queues() {
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..3).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..7 {
            queues[i % 3].lock().unwrap().push_back(i);
        }
        let mut seen = Vec::new();
        // Worker 2 alone must still drain everything via stealing.
        while let Some(job) = next_job(&queues, 2) {
            seen.push(job);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }
}
