//! Deterministic sharded parallel execution primitives.
//!
//! Every parallel stage in the workspace — the sharded chunker in
//! `freqdedup-chunking`, sharded ingest in `freqdedup-store`, the client's
//! span encryption and the server's worker pool in `freqdedup-server` — is
//! built on the helpers in this module. They share one discipline that
//! makes parallel output **bit-identical** to sequential output at any
//! thread count:
//!
//! 1. work is split into *contiguous index shards* ([`shard_ranges`]);
//! 2. each shard is processed independently on a scoped worker thread
//!    ([`std::thread::scope`] — no detached threads, no channels, no
//!    shared mutable state);
//! 3. shard results are merged **in shard-index order** on the calling
//!    thread ([`par_shards`], [`par_map`]).
//!
//! Because the merge order is the shard order and shard boundaries are a
//! pure function of `(len, shards)`, the only way thread count can leak
//! into a result is if the *per-shard computation itself* is
//! boundary-sensitive: a caller must shard on a key that makes per-shard
//! results concatenable (the chunker, for one, re-chunks each seam until
//! it meets a cut of the next shard).
//!
//! The module lives in `freqdedup-trace` (the workspace's base crate) so
//! that `mle` and `store` — which `core` depends on — can use it without a
//! dependency cycle; `freqdedup_core::par` re-exports it as the canonical
//! public surface.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Thread-count knob shared by every parallel stage.
///
/// `threads == 0` means "auto": resolve to the machine's available
/// parallelism at call time. `threads == 1` is the sequential path (no
/// worker threads are spawned at all). Any other value is used verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParConfig {
    /// Requested worker threads; `0` = auto-detect.
    pub threads: usize,
}

impl ParConfig {
    /// Sequential execution (one thread, nothing spawned).
    #[must_use]
    pub const fn sequential() -> Self {
        ParConfig { threads: 1 }
    }

    /// Auto-detected parallelism ([`std::thread::available_parallelism`]).
    #[must_use]
    pub const fn auto() -> Self {
        ParConfig { threads: 0 }
    }

    /// An explicit thread count (`0` = auto).
    #[must_use]
    pub const fn with_threads(threads: usize) -> Self {
        ParConfig { threads }
    }

    /// The effective thread count: `threads`, or the machine's available
    /// parallelism when `threads == 0` (falling back to 1 if detection
    /// fails).
    #[must_use]
    pub fn resolve(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for ParConfig {
    /// Defaults to sequential: parallelism is opt-in everywhere.
    fn default() -> Self {
        Self::sequential()
    }
}

/// Splits `0..len` into at most `shards` contiguous, near-equal,
/// non-empty ranges (fewer when `len < shards`; empty when `len == 0`).
///
/// The split is a pure function of `(len, shards)`: the first
/// `len % shards` ranges hold one extra element.
#[must_use]
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let rem = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < rem);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Runs `work(shard_index, range)` over the shards of `0..len` on up to
/// `threads` scoped worker threads and returns the results **in
/// shard-index order**.
///
/// With `threads <= 1` (or a single shard) everything runs inline on the
/// calling thread — the sequential path pays no spawn cost. Otherwise one
/// worker per shard is spawned ([`shard_ranges`] caps the shard count at
/// `threads`), shard 0 runs on the calling thread, and workers are joined
/// in order.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_shards<R, F>(threads: usize, len: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let ranges = shard_ranges(len, threads.max(1));
    if ranges.len() <= 1 {
        return ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| work(i, r))
            .collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let mut rest = ranges.iter().cloned().enumerate();
        let first = rest.next().expect("at least two shards");
        let handles: Vec<_> = rest.map(|(i, r)| scope.spawn(move || work(i, r))).collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(work(first.0, first.1));
        for handle in handles {
            out.push(handle.join().expect("parallel shard worker panicked"));
        }
        out
    })
}

/// Applies `f` to every item and returns the outputs in item order —
/// sharded across up to `threads` workers, merged by index.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for shard in par_shards(threads, items.len(), |_, range| {
        items[range].iter().map(&f).collect::<Vec<R>>()
    }) {
        out.extend(shard);
    }
    out
}

/// Runs `work(index, &mut item)` for every item, at most `threads`
/// concurrently (items are grouped into contiguous index runs, one scoped
/// worker per run).
///
/// Used for shard-owned mutable state — e.g. one `DedupEngine` per
/// fingerprint-prefix shard — where each worker owns its items exclusively
/// for the duration of the call.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_for_each_mut<T, F>(threads: usize, items: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let ranges = shard_ranges(items.len(), threads.max(1));
    if ranges.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            work(i, item);
        }
        return;
    }
    std::thread::scope(|scope| {
        let work = &work;
        let mut rest = items;
        let mut offset = 0;
        for range in ranges {
            let (group, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let base = offset;
            offset += range.len();
            scope.spawn(move || {
                for (i, item) in group.iter_mut().enumerate() {
                    work(base + i, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_thread_counts() {
        assert_eq!(ParConfig::sequential().resolve(), 1);
        assert_eq!(ParConfig::with_threads(7).resolve(), 7);
        assert!(ParConfig::auto().resolve() >= 1);
        assert_eq!(ParConfig::default(), ParConfig::sequential());
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for shards in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(len, shards);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= shards.max(1));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                    assert!(!w[0].is_empty() && !w[1].is_empty());
                }
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = ranges
                    .iter()
                    .map(std::iter::ExactSizeIterator::len)
                    .collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1usize, 2, 3, 8] {
            let out = par_map(threads, &items, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_shards_merge_in_shard_order() {
        for threads in [1usize, 2, 5] {
            let shards = par_shards(threads, 50, |i, range| (i, range));
            for (expect, (i, _)) in shards.iter().enumerate() {
                assert_eq!(expect, *i);
            }
            let glued: Vec<usize> = shards.iter().flat_map(|(_, r)| r.clone()).collect();
            assert_eq!(glued, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_for_each_mut_touches_every_item_once() {
        for threads in [1usize, 2, 4, 9] {
            let mut items = vec![0u64; 33];
            par_for_each_mut(threads, &mut items, |i, item| *item += i as u64 + 1);
            let expect: Vec<u64> = (1..=33).collect();
            assert_eq!(items, expect);
        }
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |&x| x);
        assert!(out.is_empty());
        let mut empty: [u8; 0] = [];
        par_for_each_mut(4, &mut empty, |_, _| unreachable!());
    }
}
