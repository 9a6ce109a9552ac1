//! Scoped-thread data parallelism (no external dependencies).
//!
//! [`par_map_range_with`] splits an embarrassingly parallel map over
//! `std::thread::scope` workers (Merkle levels, MSS leaf hashing).
//! Under it sits the crate-internal `par_map_chunks_with`, which also
//! hands each worker its part of one shared output buffer (MSS keygen
//! walks its per-leaf W-OTS chains and writes their checkpoints so).
//!
//! Work is only split when it is worth it: each worker must receive at
//! least `min_per_worker` items, and the worker count is capped by
//! [`workers`] (the detected parallelism, overridable with the
//! `NONREP_WORKERS` environment variable). On a single-core host every
//! call degrades to a plain sequential map with no thread overhead.

use std::sync::OnceLock;

/// The default worker budget:
/// `NONREP_WORKERS` if set, otherwise `std::thread::available_parallelism`.
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        if let Ok(v) = std::env::var("NONREP_WORKERS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Maps `f` over contiguous index ranges of `0..n` with an explicit
/// worker budget, concatenating the per-range outputs in order.
///
/// This is the primitive that composes thread-level and lane-level
/// parallelism: each worker owns one contiguous range and is free to
/// process it in lane-width batches through the multi-buffer hash
/// engine ([`crate::digest::mb`]) — Merkle level construction and MSS
/// leaf hashing both do. `f` must return exactly one item per index of
/// its range.
///
/// Falls back to a single `f(0..n)` call when `n / min_per_worker` does
/// not justify a second worker.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map_range_with<R, F>(
    worker_budget: usize,
    n: usize,
    min_per_worker: usize,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<R> + Sync,
{
    par_map_chunks_with(
        worker_budget,
        &mut vec![(); n],
        1,
        min_per_worker,
        |range, _| f(range),
    )
}

/// [`par_map_range_with`] over the items of `slots`, each of which owns
/// `stride` consecutive slots: a worker gets its index range together
/// with that range's slots, so the workers fill one shared buffer in
/// place, with no per-item allocation and no copy afterwards (MSS keygen
/// writes every leaf's W-OTS chain checkpoints this way).
///
/// # Panics
///
/// Panics if `stride` is 0 or does not divide `slots.len()`, and
/// propagates panics from `f` (the scope joins all workers first).
pub(crate) fn par_map_chunks_with<T, R, F>(
    worker_budget: usize,
    slots: &mut [T],
    stride: usize,
    min_per_worker: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) -> Vec<R> + Sync,
{
    assert!(
        stride > 0 && slots.len().is_multiple_of(stride),
        "par: slots must hold whole items"
    );
    let n = slots.len() / stride;
    let max_useful = n.checked_div(min_per_worker).unwrap_or(worker_budget);
    let workers = worker_budget.min(max_useful).max(1);
    if workers == 1 || n == 0 {
        return f(0..n, slots);
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = slots
            .chunks_mut(chunk * stride)
            .enumerate()
            .map(|(w, mine)| {
                let start = w * chunk;
                let end = start + mine.len() / stride;
                s.spawn(move || f(start..end, mine))
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f` mapped over `0..n` through [`par_map_range_with`].
    fn indexed<R: Send>(
        workers: usize,
        n: usize,
        min_per_worker: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        par_map_range_with(workers, n, min_per_worker, |range| range.map(&f).collect())
    }

    #[test]
    fn matches_sequential_map_for_all_worker_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 4, 7, 16] {
            assert_eq!(
                indexed(workers, items.len(), 1, |i| items[i] * 3 + 1),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn indexed_preserves_order() {
        let out = indexed(4, 100, 1, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn small_inputs_stay_sequential() {
        // min_per_worker larger than n forces the sequential path.
        let out = indexed(8, 10, 100, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = indexed(4, 0, 1, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_split_covers_every_index() {
        // 7 items across 4 workers: chunks of 2 with a short tail.
        let out = indexed(4, 7, 1, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn range_map_matches_indexed_map() {
        let expected: Vec<usize> = (0..1000).map(|i| i * 7).collect();
        for workers in [1usize, 2, 3, 8] {
            let got = par_map_range_with(workers, 1000, 1, |range| {
                // Workers may batch their range however they like — here
                // in chunks of 8, mimicking a lane-width inner loop.
                let mut out = Vec::with_capacity(range.len());
                let idx: Vec<usize> = range.collect();
                for chunk in idx.chunks(8) {
                    out.extend(chunk.iter().map(|i| i * 7));
                }
                out
            });
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn chunk_map_hands_each_worker_its_own_slots() {
        // Every index writes its three slots; the buffer must come back
        // filled in order whatever the split, with one result per index.
        for workers in [1usize, 2, 3, 8] {
            let mut slots = vec![0usize; 3 * 100];
            let got = par_map_chunks_with(workers, &mut slots, 3, 1, |range, mine| {
                assert_eq!(mine.len(), 3 * range.len());
                for (slot, k) in mine.iter_mut().zip(3 * range.start..) {
                    *slot = k;
                }
                range.collect()
            });
            assert_eq!(got, (0..100).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(slots, (0..300).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let _ = indexed(2, 100, 1, |i| {
            if i == 73 {
                panic!("boom");
            }
            i
        });
    }
}
