//! Dense chunk-ID interning and CSR co-occurrence tables — the data layer
//! the attack hot path runs on.
//!
//! The fingerprint-keyed [`ChunkStats`] tables of [`crate::counting`] are a
//! faithful model of the paper's LevelDB layout, but a poor fit for the
//! `COUNT` + crawl hot path at scale: every unique chunk owns two
//! heap-allocated `HashMap`s (left and right neighbours), every probe pays
//! SipHash over a 64-bit key, and the crawl's memory accesses are scattered
//! across millions of tiny maps. This module replaces that layout with
//! three flat structures:
//!
//! * [`ChunkInterner`] — one pass over the backup maps each fingerprint to
//!   a contiguous `u32` id (first-seen order), backed by the vendored
//!   FxHash hasher. Fingerprints are outputs of a cryptographic hash, so
//!   the fast multiply-rotate mix loses nothing.
//! * [`CooccurrenceCsr`] — the left/right neighbour tables as CSR
//!   (compressed sparse row) arrays: all `(chunk, neighbour)` adjacencies
//!   are collected as packed `u64` keys, sorted **once**, and run-length
//!   aggregated into per-chunk rows of [`DenseEntry`]. Zero per-chunk maps;
//!   one sort replaces millions of hash probes; each crawl step reads a
//!   contiguous row.
//! * [`DenseStats`] — the dense analogue of [`ChunkStats`]: a global
//!   frequency array indexed by id plus the two CSR tables.
//!
//! **Tie-break equivalence.** The canonical ranking order — higher count,
//! then earlier first-seen stream position, then smaller fingerprint — is
//! preserved bit-for-bit. Counts and orders are aggregated from exactly the
//! same `(position, adjacency)` events the hash-map path observes (the
//! sort key includes the position, so a run's first element carries the
//! minimum, i.e. first-seen, position), and the final fingerprint tie-break
//! resolves through the interner's id→fingerprint table rather than the id
//! itself, so interning cannot reorder ties. `COUNT` here is policy-free:
//! every row carries its first-seen position, and the
//! [`TiePolicy`](crate::counting::TiePolicy) decides at rank time
//! ([`crate::freq_analysis`]) whether to read it. The property tests in
//! `tests/dense_equivalence.rs` verify identity against the fingerprint
//! -keyed path — which still derives `KeyOrder` at build time — on
//! randomized backups under both policies.

use std::collections::HashMap;
use std::ops::Range;

use freqdedup_trace::{Backup, Fingerprint};
use rustc_hash::FxHashMap;

use crate::counting::{ChunkStats, FreqEntry};
use crate::par::{self, ParConfig};

/// A dense chunk id: index into the interner's fingerprint/size tables.
pub type ChunkId = u32;

/// Maps 64-bit fingerprints to contiguous `u32` ids in first-seen order.
///
/// Also records each unique chunk's observed size (first observation wins;
/// sizes are deterministic per content, so every observation is equal).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkInterner {
    map: FxHashMap<Fingerprint, ChunkId>,
    fps: Vec<Fingerprint>,
    sizes: Vec<u32>,
}

impl ChunkInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `fp`, returning its dense id (allocating the next id on
    /// first sight).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` unique chunks are interned.
    pub fn intern(&mut self, fp: Fingerprint, size: u32) -> ChunkId {
        if let Some(&id) = self.map.get(&fp) {
            return id;
        }
        let id = u32::try_from(self.fps.len()).expect("more than u32::MAX unique chunks");
        self.map.insert(fp, id);
        self.fps.push(fp);
        self.sizes.push(size);
        id
    }

    /// The id of `fp`, if it has been interned.
    #[must_use]
    pub fn get(&self, fp: Fingerprint) -> Option<ChunkId> {
        self.map.get(&fp).copied()
    }

    /// Number of unique chunks interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// The fingerprint of a dense id.
    #[must_use]
    pub fn fingerprint(&self, id: ChunkId) -> Fingerprint {
        self.fps[id as usize]
    }

    /// The observed size in bytes of a dense id.
    #[must_use]
    pub fn size(&self, id: ChunkId) -> u32 {
        self.sizes[id as usize]
    }

    /// The id→fingerprint table (for tie-break comparisons).
    #[must_use]
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.fps
    }
}

/// One aggregated row entry of a dense table: a chunk id with its
/// occurrence count and first-seen order (the tie-break key).
///
/// Counts are `u32`: stream positions are already tracked as `u32`
/// throughout the workspace (a single backup holds well under 2^32 logical
/// chunks), so per-table counts fit a fortiori.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DenseEntry {
    /// Dense chunk id (a neighbour id in CSR rows, a chunk id in the
    /// global table).
    pub id: ChunkId,
    /// Number of occurrences.
    pub count: u32,
    /// Stream position of the first occurrence (0 in the global table).
    /// The tie-break key under `StreamOrder`; `KeyOrder` ranks without
    /// reading it.
    pub order: u32,
}

impl DenseEntry {
    /// The fingerprint-keyed equivalent of this entry.
    #[must_use]
    pub fn to_freq_entry(self) -> FreqEntry {
        FreqEntry {
            count: u64::from(self.count),
            order: self.order,
        }
    }
}

/// Left or right neighbour co-occurrence tables in compressed-sparse-row
/// form: `row(x)` is the aggregated neighbour list of chunk `x`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CooccurrenceCsr {
    /// `offsets[x]..offsets[x+1]` delimits chunk `x`'s row in `entries`.
    offsets: Vec<u32>,
    entries: Vec<DenseEntry>,
}

/// Which neighbour table a CSR build produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// `L[x]` — what precedes `x` in the stream.
    Left,
    /// `R[x]` — what follows `x` in the stream.
    Right,
}

/// Per-worker state of a sharded CSR build: the shard's id range, its
/// bucketed adjacency events, and the aggregation output.
struct CsrShard {
    rows: Range<usize>,
    adjacencies: Vec<(u64, u32)>,
    offsets: Vec<u32>,
    entries: Vec<DenseEntry>,
}

impl CsrShard {
    fn new(rows: Range<usize>) -> Self {
        CsrShard {
            rows,
            adjacencies: Vec::new(),
            offsets: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl CooccurrenceCsr {
    /// An empty table over `num_ids` chunks.
    #[must_use]
    fn empty(num_ids: usize) -> Self {
        CooccurrenceCsr {
            offsets: vec![0; num_ids + 1],
            entries: Vec::new(),
        }
    }

    /// Builds the table from raw adjacency events.
    ///
    /// Each event is `(key, position)` with `key = chunk << 32 | neighbour`
    /// and `position` the tie-break order of that event. One unstable sort
    /// groups equal adjacencies into runs (the position participates in the
    /// sort key, so each run leads with its minimum — first-seen —
    /// position); a linear scan then aggregates runs into rows.
    fn build(num_ids: usize, mut adjacencies: Vec<(u64, u32)>) -> Self {
        adjacencies.sort_unstable();
        let (offsets, entries) = aggregate_sorted(0..num_ids, &adjacencies);
        CooccurrenceCsr { offsets, entries }
    }

    /// Builds the table by sharding the adjacency events **by chunk-id
    /// range** across up to `threads` workers.
    ///
    /// One sequential O(n) pass buckets every event by the id shard its
    /// *row* chunk belongs to (total bucketing work is independent of the
    /// thread count); the buckets are then sorted and
    /// run-length-aggregated in parallel — the expensive part — and the
    /// per-shard rows stitched together in shard order. Because the
    /// adjacency sort key leads with the row chunk id, concatenating
    /// per-range sorted runs reproduces exactly the globally sorted
    /// adjacency array — so the stitched table is bit-identical to
    /// [`Self::build`]'s at any thread count.
    fn build_sharded(num_ids: usize, ids: &[ChunkId], side: Side, threads: usize) -> Self {
        let ranges = par::shard_ranges(num_ids, threads.max(1));
        if ranges.len() <= 1 {
            // One range — one thread, or a degenerate stream: bucketing
            // would be a wasted pass, so sort the events as they come.
            let events = (1..ids.len()).map(|i| adjacency_event_at(ids, i, side, 0));
            return Self::build(num_ids, events.collect());
        }

        // Bucket by owning id shard: `starts` is small (≤ threads entries),
        // so the partition_point probe stays in L1.
        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let mut work: Vec<CsrShard> = ranges.into_iter().map(CsrShard::new).collect();
        for i in 1..ids.len() {
            let (key, order) = adjacency_event_at(ids, i, side, 0);
            let chunk = (key >> 32) as usize;
            let shard = starts.partition_point(|&s| s <= chunk) - 1;
            work[shard].adjacencies.push((key, order));
        }

        par::par_for_each_mut(threads, &mut work, |_, shard| {
            shard.adjacencies.sort_unstable();
            let (offsets, entries) = aggregate_sorted(shard.rows.clone(), &shard.adjacencies);
            shard.offsets = offsets;
            shard.entries = entries;
        });

        let total: usize = work.iter().map(|s| s.entries.len()).sum();
        let mut offsets = vec![0u32; num_ids + 1];
        let mut entries = Vec::with_capacity(total);
        for shard in work {
            let base = entries.len() as u32;
            for (k, id) in shard.rows.enumerate() {
                offsets[id + 1] = base + shard.offsets[k + 1];
            }
            entries.extend(shard.entries);
        }
        CooccurrenceCsr { offsets, entries }
    }

    /// The aggregated neighbour row of chunk `id` (empty slice if the chunk
    /// has no neighbours on this side).
    #[must_use]
    pub fn row(&self, id: ChunkId) -> &[DenseEntry] {
        let start = self.offsets[id as usize] as usize;
        let end = self.offsets[id as usize + 1] as usize;
        &self.entries[start..end]
    }

    /// Number of chunks the table covers.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of distinct `(chunk, neighbour)` adjacencies.
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }
}

/// Lays a table out from **already aggregated** entries arriving in packed
/// `(chunk ≪ 32 | neighbour)` key order — the flatten of the streaming
/// layer ([`crate::streaming`]), whose segment merge produces exactly this
/// form. No sort, no run detection: each entry is written once, into
/// arrays allocated up front.
pub(crate) struct CsrWriter {
    offsets: Vec<u32>,
    entries: Vec<DenseEntry>,
}

impl CsrWriter {
    /// A writer for a table over `num_ids` chunks holding at most
    /// `max_entries` entries.
    pub(crate) fn new(num_ids: usize, max_entries: usize) -> Self {
        CsrWriter {
            offsets: vec![0; num_ids + 1],
            entries: Vec::with_capacity(max_entries),
        }
    }

    /// Appends the next entry; keys must arrive strictly increasing.
    #[inline]
    pub(crate) fn push(&mut self, key: u64, count: u32, order: u32) {
        self.entries.push(DenseEntry {
            id: key as u32,
            count,
            order,
        });
        self.offsets[(key >> 32) as usize + 1] = self.entries.len() as u32;
    }

    /// The finished table.
    pub(crate) fn finish(mut self) -> CooccurrenceCsr {
        // Chunks without entries left zero gaps; forward-fill so every row
        // is a valid (possibly empty) range.
        for k in 1..self.offsets.len() {
            if self.offsets[k] < self.offsets[k - 1] {
                self.offsets[k] = self.offsets[k - 1];
            }
        }
        CooccurrenceCsr {
            offsets: self.offsets,
            entries: self.entries,
        }
    }
}

/// The adjacency event for stream index `i ∈ 1..n` on `side`, for a stream
/// that starts at global position `base` within a larger tape: the packed
/// `(row chunk ≪ 32 | neighbour)` sort key plus the event's **global**
/// stream position, so per-backup deltas aggregate to exactly the orders a
/// batch `COUNT` over the concatenated tape observes.
///
/// For [`Side::Left`] the row chunk is `ids[i]` (its left neighbour is
/// `ids[i-1]`, observed at position `i`); for [`Side::Right`] the row
/// chunk is `ids[i-1]` (its right neighbour is `ids[i]`, observed at
/// position `i-1`). This is the **only** place event derivation lives —
/// the sequential build, the sharded bucketing loop, the series build and
/// the streaming delta builder all call it, so the paths cannot drift.
#[inline]
pub(crate) fn adjacency_event_at(ids: &[ChunkId], i: usize, side: Side, base: usize) -> (u64, u32) {
    let (chunk, neighbour, pos) = match side {
        Side::Left => (ids[i], ids[i - 1], i),
        Side::Right => (ids[i - 1], ids[i], i - 1),
    };
    (
        (u64::from(chunk) << 32) | u64::from(neighbour),
        (base + pos) as u32,
    )
}

/// Run-length-aggregates a **sorted** adjacency slice whose row chunks all
/// fall in `rows`, producing row offsets *relative to `rows.start`* (length
/// `rows.len() + 1`) and the aggregated entries.
///
/// This is the single aggregation kernel shared by the sequential build
/// (`rows = 0..num_ids`) and every parallel shard — the two paths cannot
/// drift apart.
fn aggregate_sorted(rows: Range<usize>, adjacencies: &[(u64, u32)]) -> (Vec<u32>, Vec<DenseEntry>) {
    let mut offsets = vec![0u32; rows.len() + 1];
    let mut entries = Vec::new();
    let mut i = 0;
    while i < adjacencies.len() {
        let (key, first_pos) = adjacencies[i];
        let mut j = i + 1;
        while j < adjacencies.len() && adjacencies[j].0 == key {
            j += 1;
        }
        entries.push(DenseEntry {
            id: key as u32,
            count: (j - i) as u32,
            order: first_pos,
        });
        let chunk = (key >> 32) as usize - rows.start;
        offsets[chunk + 1] = entries.len() as u32;
        i = j;
    }
    // Chunks without neighbours on this side leave zero gaps; forward-
    // fill so every row is a valid (possibly empty) range.
    for k in 1..offsets.len() {
        if offsets[k] < offsets[k - 1] {
            offsets[k] = offsets[k - 1];
        }
    }
    (offsets, entries)
}

/// The output of `COUNT` in dense form: the id-indexed analogue of
/// [`ChunkStats`].
///
/// The one state the attack crawl reads: batch `COUNT` builds it, and the
/// streaming layer flattens into it once per inference
/// ([`crate::streaming::IncrementalStats::to_dense`]), so every crawl step
/// reads a contiguous CSR row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DenseStats {
    /// Fingerprint ⇄ id mapping plus per-id sizes.
    pub interner: ChunkInterner,
    /// `F[x]` — occurrence count per dense id (global order is always 0:
    /// the global table is fingerprint-keyed, so ties fall through to the
    /// fingerprint comparison, exactly like the hash-map path).
    pub freq: Vec<u32>,
    /// `L[x]` — left-neighbour rows.
    pub left: CooccurrenceCsr,
    /// `R[x]` — right-neighbour rows.
    pub right: CooccurrenceCsr,
}

impl DenseStats {
    /// Runs `COUNT` over a backup, frequencies only (the basic attack's
    /// cheap path): interning plus a single counting pass, no CSR build.
    #[must_use]
    pub fn frequencies_only(backup: &Backup) -> Self {
        Self::frequencies_only_par(backup, ParConfig::sequential())
    }

    /// [`Self::frequencies_only`] with the counting pass sharded across
    /// worker threads (per-shard count arrays over contiguous stream
    /// ranges, summed elementwise in shard order — bit-identical output at
    /// any thread count).
    #[must_use]
    pub fn frequencies_only_par(backup: &Backup, par: ParConfig) -> Self {
        let (interner, ids) = intern_stream(backup);
        let unique = interner.len();
        let freq = count_ids_par(&ids, unique, par.resolve());
        DenseStats {
            interner,
            freq,
            left: CooccurrenceCsr::empty(unique),
            right: CooccurrenceCsr::empty(unique),
        }
    }

    /// Runs the full `COUNT` of Algorithm 2: interning, global frequencies
    /// and both CSR neighbour tables.
    #[must_use]
    pub fn full(backup: &Backup) -> Self {
        Self::full_par(backup, ParConfig::sequential())
    }

    /// Forwarder to [`Self::full`] for `benchmark/`, which calls this name
    /// and is changed only by PRs of its own; `COUNT` reads no policy.
    #[doc(hidden)]
    #[must_use]
    pub fn full_with_policy(backup: &Backup, _policy: crate::counting::TiePolicy) -> Self {
        Self::full(backup)
    }

    /// [`Self::full`] with the frequency pass and both CSR neighbour-table
    /// builds sharded across worker threads.
    ///
    /// Interning stays sequential — id assignment is first-seen order, an
    /// inherently serial definition — but it is one hash pass; the sorts
    /// dominate at scale. Frequencies shard by contiguous stream range and
    /// merge by elementwise sum; the neighbour tables shard **by chunk-id
    /// range** (see [`CooccurrenceCsr`] internals), so every merged
    /// structure is bit-identical at any thread count. `par` resolving to
    /// 1 spawns nothing: one range, one sort per side.
    #[must_use]
    pub fn full_par(backup: &Backup, par: ParConfig) -> Self {
        let threads = par.resolve();
        let (interner, ids) = intern_stream(backup);
        let unique = interner.len();
        let freq = count_ids_par(&ids, unique, threads);
        let left = CooccurrenceCsr::build_sharded(unique, &ids, Side::Left, threads);
        let right = CooccurrenceCsr::build_sharded(unique, &ids, Side::Right, threads);
        DenseStats {
            interner,
            freq,
            left,
            right,
        }
    }

    /// Batch `COUNT` over a **tape** of backups — the full-recompute oracle
    /// the streaming layer ([`crate::streaming`]) is property-tested
    /// against.
    ///
    /// Tape semantics: ids are interned first-seen across the whole tape in
    /// tape order; frequencies sum over all backups; adjacency events exist
    /// only *within* each backup (the last chunk of one backup is not the
    /// left neighbour of the next backup's first chunk); and the order of
    /// an event is its **global** stream position (the backup's cumulative
    /// chunk offset plus the local position). For a single-backup tape
    /// this is exactly [`Self::full`].
    #[must_use]
    pub fn full_series(tape: &[Backup]) -> Self {
        let mut interner = ChunkInterner::new();
        let mut left_events = Vec::new();
        let mut right_events = Vec::new();
        let mut freq_ids: Vec<ChunkId> = Vec::new();
        let mut base = 0usize;
        for backup in tape {
            let ids: Vec<ChunkId> = backup
                .chunks
                .iter()
                .map(|rec| interner.intern(rec.fp, rec.size))
                .collect();
            for i in 1..ids.len() {
                left_events.push(adjacency_event_at(&ids, i, Side::Left, base));
                right_events.push(adjacency_event_at(&ids, i, Side::Right, base));
            }
            base += ids.len();
            freq_ids.extend(ids);
        }
        let unique = interner.len();
        let freq = count_ids(&freq_ids, unique);
        let left = CooccurrenceCsr::build(unique, left_events);
        let right = CooccurrenceCsr::build(unique, right_events);
        DenseStats {
            interner,
            freq,
            left,
            right,
        }
    }

    /// Number of unique chunks counted.
    #[must_use]
    pub fn unique_chunks(&self) -> usize {
        self.interner.len()
    }

    /// The global frequency table materialized as dense rows (id order;
    /// ranking is canonical, so row order is irrelevant).
    #[must_use]
    pub fn global_rows(&self) -> Vec<DenseEntry> {
        self.freq
            .iter()
            .enumerate()
            .map(|(id, &count)| DenseEntry {
                id: id as u32,
                count,
                order: 0,
            })
            .collect()
    }

    /// Size in 16-byte cipher blocks of a counted chunk (`ceil(size/16)`),
    /// the advanced attack's classification key.
    #[must_use]
    pub fn blocks_of(&self, id: ChunkId) -> u32 {
        self.interner.size(id).div_ceil(16)
    }

    /// Exports to the fingerprint-keyed [`ChunkStats`] representation (the
    /// compatibility surface for figure binaries and older call sites).
    #[must_use]
    pub fn to_chunk_stats(&self) -> ChunkStats {
        let unique = self.unique_chunks();
        let mut stats = ChunkStats {
            freq: HashMap::with_capacity(unique),
            left: HashMap::with_capacity(unique),
            right: HashMap::with_capacity(unique),
            sizes: HashMap::with_capacity(unique),
        };
        for id in 0..unique as u32 {
            let fp = self.interner.fingerprint(id);
            stats.freq.insert(
                fp,
                FreqEntry {
                    count: u64::from(self.freq[id as usize]),
                    order: 0,
                },
            );
            stats.sizes.insert(fp, self.interner.size(id));
            for (csr, table) in [
                (&self.left, &mut stats.left),
                (&self.right, &mut stats.right),
            ] {
                let row = csr.row(id);
                if !row.is_empty() {
                    table.insert(
                        fp,
                        row.iter()
                            .map(|e| (self.interner.fingerprint(e.id), e.to_freq_entry()))
                            .collect(),
                    );
                }
            }
        }
        stats
    }
}

/// Interns a backup's chunk stream, returning the interner and the stream
/// as dense ids.
fn intern_stream(backup: &Backup) -> (ChunkInterner, Vec<ChunkId>) {
    let mut interner = ChunkInterner::new();
    let ids = backup
        .chunks
        .iter()
        .map(|rec| interner.intern(rec.fp, rec.size))
        .collect();
    (interner, ids)
}

/// Counts occurrences per dense id.
fn count_ids(ids: &[ChunkId], unique: usize) -> Vec<u32> {
    let mut freq = vec![0u32; unique];
    for &id in ids {
        freq[id as usize] += 1;
    }
    freq
}

/// [`count_ids`] sharded over contiguous stream ranges; per-shard count
/// arrays are summed elementwise in shard order (addition is commutative,
/// so the result is the sequential count exactly).
fn count_ids_par(ids: &[ChunkId], unique: usize, threads: usize) -> Vec<u32> {
    if threads <= 1 {
        return count_ids(ids, unique);
    }
    par::par_fold(
        threads,
        ids.len(),
        |range| count_ids(&ids[range], unique),
        |mut acc, shard| {
            for (a, s) in acc.iter_mut().zip(&shard) {
                *a += s;
            }
            acc
        },
        vec![0u32; unique],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqdedup_trace::ChunkRecord;

    fn backup(fps: &[u64]) -> Backup {
        Backup::from_chunks("t", fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    fn fp(v: u64) -> Fingerprint {
        Fingerprint(v)
    }

    #[test]
    fn interner_assigns_first_seen_order() {
        let mut it = ChunkInterner::new();
        assert_eq!(it.intern(fp(9), 1), 0);
        assert_eq!(it.intern(fp(3), 2), 1);
        assert_eq!(it.intern(fp(9), 1), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.fingerprint(1), fp(3));
        assert_eq!(it.size(1), 2);
        assert_eq!(it.get(fp(3)), Some(1));
        assert_eq!(it.get(fp(4)), None);
    }

    #[test]
    fn interner_keeps_first_size() {
        let mut it = ChunkInterner::new();
        it.intern(fp(1), 100);
        it.intern(fp(1), 200);
        assert_eq!(it.size(0), 100);
    }

    #[test]
    fn dense_frequencies_match() {
        let s = DenseStats::full(&backup(&[1, 2, 1, 1]));
        let id1 = s.interner.get(fp(1)).unwrap();
        let id2 = s.interner.get(fp(2)).unwrap();
        assert_eq!(s.freq[id1 as usize], 3);
        assert_eq!(s.freq[id2 as usize], 1);
        assert_eq!(s.unique_chunks(), 2);
    }

    #[test]
    fn csr_rows_aggregate_counts_and_first_seen_order() {
        // Sequence: 1 2 1 2 — chunk 2 has left neighbour 1 twice (first at
        // stream position 1); chunk 1 has left neighbour 2 once (position 2).
        let s = DenseStats::full(&backup(&[1, 2, 1, 2]));
        let id1 = s.interner.get(fp(1)).unwrap();
        let id2 = s.interner.get(fp(2)).unwrap();
        let row2 = s.left.row(id2);
        assert_eq!(row2.len(), 1);
        assert_eq!(
            row2[0],
            DenseEntry {
                id: id1,
                count: 2,
                order: 1
            }
        );
        let row1 = s.left.row(id1);
        assert_eq!(
            row1[0],
            DenseEntry {
                id: id2,
                count: 1,
                order: 2
            }
        );
        let r1 = s.right.row(id1);
        assert_eq!(
            r1[0],
            DenseEntry {
                id: id2,
                count: 2,
                order: 0
            }
        );
    }

    #[test]
    fn boundary_chunks_have_one_sided_rows() {
        let s = DenseStats::full(&backup(&[1, 2]));
        let id1 = s.interner.get(fp(1)).unwrap();
        let id2 = s.interner.get(fp(2)).unwrap();
        assert!(s.left.row(id1).is_empty());
        assert!(s.right.row(id2).is_empty());
        assert_eq!(s.left.row(id2).len(), 1);
        assert_eq!(s.right.row(id1).len(), 1);
    }

    #[test]
    fn empty_and_singleton_backups() {
        let s = DenseStats::full(&backup(&[]));
        assert_eq!(s.unique_chunks(), 0);
        assert!(s.global_rows().is_empty());
        let s = DenseStats::full(&backup(&[42]));
        assert_eq!(s.unique_chunks(), 1);
        assert!(s.left.row(0).is_empty());
        assert!(s.right.row(0).is_empty());
    }

    #[test]
    fn to_chunk_stats_round_trips_paper_example() {
        // C = ⟨C1 C2 C5 C2 C1 C2 C3 C4 C2 C3 C4 C4⟩ (§4.2).
        let b = backup(&[1, 2, 5, 2, 1, 2, 3, 4, 2, 3, 4, 4]);
        let dense = DenseStats::full(&b).to_chunk_stats();
        let legacy = ChunkStats::full(&b);
        assert_eq!(dense.freq, legacy.freq);
        assert_eq!(dense.left, legacy.left);
        assert_eq!(dense.right, legacy.right);
        assert_eq!(dense.sizes, legacy.sizes);
    }

    #[test]
    fn frequencies_only_skips_csr() {
        let s = DenseStats::frequencies_only(&backup(&[1, 2, 1]));
        assert_eq!(s.freq[0], 2);
        assert_eq!(s.left.num_entries(), 0);
        assert_eq!(s.right.num_entries(), 0);
        assert_eq!(s.left.num_rows(), 2);
    }

    #[test]
    fn parallel_count_matches_sequential() {
        // A skewed stream with heavy duplication: ties, shared
        // neighbourhoods, and ids spanning several shard ranges.
        let fps: Vec<u64> = (0..500u64).map(|i| (i * i) % 37).collect();
        let b = backup(&fps);
        let seq = DenseStats::full(&b);
        for t in [1usize, 2, 3, 8, 64] {
            let par = DenseStats::full_par(&b, ParConfig::with_threads(t));
            assert_eq!(par, seq, "threads {t}");
        }
    }

    #[test]
    fn parallel_frequencies_match_sequential() {
        let fps: Vec<u64> = (0..300u64).map(|i| i % 23).collect();
        let b = backup(&fps);
        let seq = DenseStats::frequencies_only(&b);
        for t in [2usize, 8] {
            let par = DenseStats::frequencies_only_par(&b, ParConfig::with_threads(t));
            assert_eq!(par, seq, "threads {t}");
        }
    }

    #[test]
    fn parallel_count_handles_degenerate_backups() {
        for fps in [&[][..], &[42][..], &[7, 7, 7][..]] {
            let b = backup(fps);
            let seq = DenseStats::full(&b);
            let par = DenseStats::full_par(&b, ParConfig::with_threads(8));
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn series_of_one_backup_equals_single_batch() {
        let b = backup(&[1, 2, 5, 2, 1, 2, 3, 4, 2, 3, 4, 4]);
        let series = DenseStats::full_series(std::slice::from_ref(&b));
        assert_eq!(series, DenseStats::full(&b));
    }

    #[test]
    fn series_keeps_backups_adjacency_separate_but_frequencies_summed() {
        // Tape ⟨1 2⟩, ⟨2 3⟩: each backup is its own stream, so the backup
        // boundary 2|2 contributes no adjacency — 2's right neighbour 3
        // comes only from the second backup's interior edge.
        let tape = [backup(&[1, 2]), backup(&[2, 3])];
        let s = DenseStats::full_series(&tape);
        let id1 = s.interner.get(fp(1)).unwrap();
        let id2 = s.interner.get(fp(2)).unwrap();
        let id3 = s.interner.get(fp(3)).unwrap();
        assert_eq!(s.freq[id2 as usize], 2);
        // Within-backup edges only: R[1] = {2}, R[2] = {3}; no R[2] = {2}.
        assert_eq!(s.right.row(id1).len(), 1);
        let row2 = s.right.row(id2);
        assert_eq!(row2.len(), 1);
        // Global stream position: the ⟨2 3⟩ edge sits at tape position 2.
        assert_eq!(
            row2[0],
            DenseEntry {
                id: id3,
                count: 1,
                order: 2
            }
        );
    }

    #[test]
    fn csr_writer_reproduces_built_table() {
        let fps: Vec<u64> = (0..300u64).map(|i| (i * 13) % 41).collect();
        let b = backup(&fps);
        let s = DenseStats::full(&b);
        for csr in [&s.left, &s.right] {
            let mut writer = CsrWriter::new(csr.num_rows(), csr.num_entries());
            for row in 0..csr.num_rows() as u32 {
                for e in csr.row(row) {
                    writer.push((u64::from(row) << 32) | u64::from(e.id), e.count, e.order);
                }
            }
            assert_eq!(&writer.finish(), csr);
        }
    }

    #[test]
    fn blocks_of_rounds_up() {
        let b = Backup::from_chunks(
            "t",
            vec![ChunkRecord::new(1u64, 17), ChunkRecord::new(2u64, 16)],
        );
        let s = DenseStats::full(&b);
        assert_eq!(s.blocks_of(s.interner.get(fp(1)).unwrap()), 2);
        assert_eq!(s.blocks_of(s.interner.get(fp(2)).unwrap()), 1);
    }
}
