//! Dense chunk-ID interning, CSR co-occurrence tables and `COUNT` — the
//! data layer every attack runs on.
//!
//! `COUNT` (Algorithms 1–3) yields the frequency table `F` and the
//! neighbour tables `L`/`R` of a chunk stream. Here they are three flat
//! structures:
//!
//! * [`ChunkInterner`] — one pass over the stream maps each fingerprint to
//!   a contiguous `u32` id (first-seen order) through an id-slot table:
//!   linear probing over 4-byte slots that hold ids, keys compared through
//!   the id→fingerprint table, home slots from a multiplier drawn per
//!   interner (fingerprints are client-chosen; DESIGN §1).
//! * [`CooccurrenceCsr`] — the left/right neighbour tables as CSR
//!   (compressed sparse row) arrays of [`DenseEntry`] rows: no per-chunk
//!   maps, and each crawl step reads one contiguous row.
//! * [`DenseStats`] — the frequency array indexed by id plus the two CSR
//!   tables: the one state the attacks crawl, batch or streaming.
//!
//! **One event source, two builds.** Every adjacency of a stream is an
//! event (`adjacency_event_at`): a row chunk, its neighbour and the stream
//! position. Batch `COUNT` ([`DenseStats::full`]) buckets one backup's
//! events by row with a counting sort — row ids are dense `u32`s below
//! the interner's length — then sorts each row's `(neighbour, position)`
//! words and writes the runs straight into the table. The streaming fold
//! ([`crate::streaming::IncrementalStats::commit`]) works over the
//! series' global id space, where a counting array would cost O(ids) per
//! commit, so it sorts each commit's `(chunk ≪ 32 | neighbour, position)`
//! events instead (`aggregate`) into a segment run; its flatten writes the
//! merged segments through the `CsrWriter`. Both sort the position below
//! the neighbour, so an entry's count is its run length and its order the
//! run's first — minimum, first-seen — position: both lay out the same
//! table for the same stream.
//!
//! **Tie-break equivalence.** The ranking order — higher count, then
//! earlier first-seen position, then smaller fingerprint — resolves its
//! last tie through the interner's id→fingerprint table rather than the id
//! itself, so interning cannot reorder ties. `COUNT` is policy-free: every
//! row carries its first-seen position, and the
//! [`TiePolicy`](crate::freq_analysis::TiePolicy) decides at rank time
//! ([`crate::freq_analysis`]) whether to read it.
//! `tests/attack_equivalence.rs` checks all of this against a
//! fingerprint-keyed reference `COUNT` that shares no code with this one.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use freqdedup_trace::{Backup, Fingerprint};

/// A dense chunk id: index into the interner's fingerprint/size tables.
pub type ChunkId = u32;

/// An empty slot of the interner's table, so no id may reach it.
const FREE: ChunkId = u32::MAX;

/// Maps 64-bit fingerprints to contiguous `u32` ids in first-seen order.
///
/// An id-slot table: linear probing over a power-of-two array of ids at
/// load ≤ ½, keys compared through `fps[id]`, the home slot the top bits of
/// `fp × mul` for a random odd `mul` per interner, since clients choose
/// fingerprints (DESIGN §1). Equality ignores the table and `mul`.
///
/// Also records each unique chunk's observed size (first observation wins;
/// sizes are deterministic per content, so every observation is equal).
#[derive(Clone, Debug)]
pub struct ChunkInterner {
    slots: Vec<ChunkId>,
    mul: u64,
    fps: Vec<Fingerprint>,
    sizes: Vec<u32>,
}

impl Default for ChunkInterner {
    fn default() -> Self {
        ChunkInterner {
            // At least two slots, so `find`'s shift stays below 64.
            slots: vec![FREE; 16],
            mul: RandomState::new().hash_one(0u64) | 1,
            fps: Vec::new(),
            sizes: Vec::new(),
        }
    }
}

impl PartialEq for ChunkInterner {
    fn eq(&self, other: &Self) -> bool {
        (&self.fps, &self.sizes) == (&other.fps, &other.sizes)
    }
}

impl Eq for ChunkInterner {}

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
    /// Panics if more than `u32::MAX - 1` unique chunks are interned.
    pub fn intern(&mut self, fp: Fingerprint, size: u32) -> ChunkId {
        if let Some(id) = self.get(fp) {
            return id;
        }
        self.reserve(1);
        self.intern_reserved(fp, size)
    }

    /// Interns a backup's chunk stream, returning it as dense ids.
    pub(crate) fn intern_stream(&mut self, backup: &Backup) -> Vec<ChunkId> {
        self.reserve(backup.len());
        backup
            .chunks
            .iter()
            .map(|rec| self.intern_reserved(rec.fp, rec.size))
            .collect()
    }

    /// [`Self::intern`] once [`Self::reserve`] has made room for the id.
    #[inline]
    fn intern_reserved(&mut self, fp: Fingerprint, size: u32) -> ChunkId {
        let slot = self.find(fp);
        if self.slots[slot] != FREE {
            return self.slots[slot];
        }
        assert!(self.fps.len() < FREE as usize, "u32 ids exhausted");
        let id = self.fps.len() as ChunkId;
        self.slots[slot] = id;
        self.fps.push(fp);
        self.sizes.push(size);
        id
    }

    /// The id of `fp`, if it has been interned.
    #[must_use]
    pub fn get(&self, fp: Fingerprint) -> Option<ChunkId> {
        Some(self.slots[self.find(fp)]).filter(|&id| id != FREE)
    }

    /// The slot holding `fp`, or the free slot that ends its probe.
    #[inline]
    fn find(&self, fp: Fingerprint) -> usize {
        let mask = self.slots.len() - 1;
        let shift = u64::BITS - self.slots.len().trailing_zeros();
        let mut slot = (fp.0.wrapping_mul(self.mul) >> shift) as usize;
        loop {
            let id = self.slots[slot];
            if id == FREE || self.fps[id as usize] == fp {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Makes room for `additional` new ids at load ≤ ½, re-inserting ids
    /// `0..len` if the table grows; the id tables are reserved as well.
    fn reserve(&mut self, additional: usize) {
        self.fps.reserve(additional);
        self.sizes.reserve(additional);
        let need = 2 * (self.fps.len() + additional);
        if need > self.slots.len() {
            self.slots = vec![FREE; need.next_power_of_two()];
            for (id, &fp) in self.fps.iter().enumerate() {
                let slot = self.find(fp);
                self.slots[slot] = id as ChunkId;
            }
        }
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

/// One aggregated adjacency: the packed `(chunk ≪ 32 | neighbour)` key with
/// its occurrence count and first-seen (minimum) stream order — what the
/// fold's kernel emits, a streaming segment stores, and [`CsrWriter`] lays
/// out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AdjEntry {
    /// Packed `(row chunk ≪ 32 | neighbour)` sort key.
    pub(crate) key: u64,
    /// Number of occurrences of this adjacency.
    pub(crate) count: u32,
    /// Minimum (first-seen) tie-break order across the occurrences.
    pub(crate) order: u32,
}

/// Left or right neighbour co-occurrence tables in compressed-sparse-row
/// form: `row(x)` is the aggregated neighbour list of chunk `x`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CooccurrenceCsr {
    /// `offsets[x]..offsets[x+1]` delimits chunk `x`'s row in `entries`.
    offsets: Vec<u32>,
    entries: Vec<DenseEntry>,
}

/// Which neighbour table a build produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// `L[x]` — what precedes `x` in the stream.
    Left,
    /// `R[x]` — what follows `x` in the stream.
    Right,
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

    /// Batch `COUNT` of one neighbour table, as a counting sort on the row
    /// id, in three passes over the stream's adjacency events:
    ///
    /// 1. count the events of each row; a prefix sum turns the counts into
    ///    each row's first slot;
    /// 2. scatter each event into its row's next slot as one packed
    ///    `(neighbour ≪ 32 | position)` word, in stream order;
    /// 3. sort each row and run-length it into [`DenseEntry`]s, rewriting
    ///    `offsets` from event slots to entries.
    ///
    /// The position is the low word, so each neighbour's run leads with
    /// its first-seen position: the table equals what [`aggregate`] lays
    /// out through a [`CsrWriter`] for the same events.
    fn build(num_ids: usize, ids: &[ChunkId], side: Side) -> Self {
        let events = || (1..ids.len()).map(|i| adjacency_event_at(ids, i, side, 0));
        // Row `x`'s count lands at `offsets[x + 2]`, so after the prefix sum
        // `offsets[x + 1]` is row `x`'s first slot; the scatter advances it
        // to the row's end, which is row `x + 1`'s first slot.
        let mut offsets = vec![0u32; num_ids + 2];
        for (key, _) in events() {
            offsets[(key >> 32) as usize + 2] += 1;
        }
        for k in 2..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut slots = vec![0u64; ids.len().saturating_sub(1)];
        for (key, order) in events() {
            let next = &mut offsets[(key >> 32) as usize + 1];
            // `key << 32` drops the row and lifts the neighbour.
            slots[*next as usize] = (key << 32) | u64::from(order);
            *next += 1;
        }
        offsets.pop();
        let mut entries = Vec::with_capacity(slots.len());
        let mut start = 0;
        for x in 0..num_ids {
            let end = offsets[x + 1] as usize;
            let row = &mut slots[start..end];
            row.sort_unstable();
            for run in row.chunk_by(|a, b| a >> 32 == b >> 32) {
                entries.push(DenseEntry {
                    id: (run[0] >> 32) as u32,
                    count: run.len() as u32,
                    order: run[0] as u32,
                });
            }
            offsets[x + 1] = entries.len() as u32;
            start = end;
        }
        entries.shrink_to_fit();
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

/// Lays a table out from aggregated entries arriving in strictly
/// increasing key order — the streaming flatten's segment merge. Each
/// entry is written once, into arrays allocated up front.
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
    pub(crate) fn push(&mut self, e: AdjEntry) {
        self.entries.push(DenseEntry {
            id: e.key as u32,
            count: e.count,
            order: e.order,
        });
        self.offsets[(e.key >> 32) as usize + 1] = self.entries.len() as u32;
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
        // `max_entries` is an upper bound; keep only what was written.
        self.entries.shrink_to_fit();
        CooccurrenceCsr {
            offsets: self.offsets,
            entries: self.entries,
        }
    }
}

/// The adjacency event for stream index `i ∈ 1..n` on `side`, for a stream
/// that starts at global position `base` within a larger tape: the packed
/// `(row chunk ≪ 32 | neighbour)` sort key plus the event's **global**
/// stream position, so a commit folded into a series aggregates to the
/// orders of the whole tape.
///
/// For [`Side::Left`] the row chunk is `ids[i]` (its left neighbour is
/// `ids[i-1]`, observed at position `i`); for [`Side::Right`] the row
/// chunk is `ids[i-1]` (its right neighbour is `ids[i]`, observed at
/// position `i-1`). This is the **only** place event derivation lives.
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

/// The streaming fold's `COUNT` kernel: sorts one commit's adjacency
/// events and run-length-aggregates them, handing `emit` one [`AdjEntry`] per distinct key, in key order.
/// The position is part of the sort key, so each run leads with its
/// minimum — first-seen — position, which becomes the entry's order.
pub(crate) fn aggregate(events: &mut [(u64, u32)], mut emit: impl FnMut(AdjEntry)) {
    events.sort_unstable();
    for run in events.chunk_by(|a, b| a.0 == b.0) {
        emit(AdjEntry {
            key: run[0].0,
            count: run.len() as u32,
            order: run[0].1,
        });
    }
}

/// The output of `COUNT` in dense form.
///
/// The one state the attack crawl reads: batch `COUNT` builds it, and the
/// streaming layer flattens into it once per inference
/// ([`crate::streaming::IncrementalStats::to_dense`]), so every crawl step
/// reads a contiguous CSR row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DenseStats {
    /// Fingerprint ⇄ id mapping plus per-id sizes.
    pub interner: ChunkInterner,
    /// `F[x]` — occurrence count per dense id. Global rows carry order 0:
    /// the paper's global table is fingerprint-keyed, so its ties fall
    /// through to the fingerprint.
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
        let mut interner = ChunkInterner::new();
        let ids = interner.intern_stream(backup);
        let unique = interner.len();
        DenseStats {
            freq: count_ids(&ids, unique),
            left: CooccurrenceCsr::empty(unique),
            right: CooccurrenceCsr::empty(unique),
            interner,
        }
    }

    /// Runs the full `COUNT` of Algorithm 2: interning, global frequencies
    /// and both CSR neighbour tables.
    #[must_use]
    pub fn full(backup: &Backup) -> Self {
        let mut interner = ChunkInterner::new();
        let ids = interner.intern_stream(backup);
        let unique = interner.len();
        DenseStats {
            freq: count_ids(&ids, unique),
            left: CooccurrenceCsr::build(unique, &ids, Side::Left),
            right: CooccurrenceCsr::build(unique, &ids, Side::Right),
            interner,
        }
    }

    /// Forwarder to [`Self::full`] for `benchmark/`, which calls this name
    /// and is changed only by PRs of its own; `COUNT` reads no policy.
    #[doc(hidden)]
    #[must_use]
    pub fn full_with_policy(backup: &Backup, _policy: crate::freq_analysis::TiePolicy) -> Self {
        Self::full(backup)
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
}

/// Counts occurrences per dense id.
fn count_ids(ids: &[ChunkId], unique: usize) -> Vec<u32> {
    let mut freq = vec![0u32; unique];
    for &id in ids {
        freq[id as usize] += 1;
    }
    freq
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

    /// An interner over an 8-slot table whose home slot is the top three
    /// bits of the fingerprint itself, so tests can choose collisions.
    fn chosen_slots() -> ChunkInterner {
        ChunkInterner {
            slots: vec![FREE; 8],
            mul: 1,
            fps: Vec::new(),
            sizes: Vec::new(),
        }
    }

    #[test]
    fn interner_probe_wraps_past_the_last_slot() {
        // All four share home slot 7, the last: three of them must wrap.
        let home7 = |k: u64| fp((7 << 61) | k);
        let mut it = chosen_slots();
        for k in 0..4 {
            assert_eq!(it.intern(home7(k), 1), k as u32);
        }
        for k in 0..4 {
            assert_eq!(it.get(home7(k)), Some(k as u32));
            assert_eq!(it.intern(home7(k), 9), k as u32);
        }
        assert_eq!(it.slots, [1, 2, 3, FREE, FREE, FREE, FREE, 0]);
        assert_eq!(it.get(home7(4)), None);
        // A fifth id would pass load ½: the table doubles and re-inserts.
        assert_eq!(it.intern(fp(5), 1), 4);
        assert_eq!(it.slots.len(), 16);
        for k in 0..4 {
            assert_eq!(it.get(home7(k)), Some(k as u32));
        }
        assert_eq!(it.get(fp(5)), Some(4));
        assert_eq!(it.size(0), 1);
    }

    #[test]
    fn interner_grows_through_many_doublings() {
        let mut it = ChunkInterner::new();
        let key = |i: u64| fp(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xa5a5);
        let mut doublings = 0;
        for i in 0..100_000u64 {
            let before = it.slots.len();
            assert_eq!(it.intern(key(i), i as u32), i as u32);
            // An earlier key re-interns to its first-seen id.
            assert_eq!(it.intern(key(i / 2), 0), (i / 2) as u32);
            doublings += usize::from(it.slots.len() > before);
        }
        assert!(doublings >= 10, "{doublings} doublings");
        assert!(2 * it.len() <= it.slots.len());
        for i in 0..100_000u64 {
            assert_eq!(it.get(key(i)), Some(i as u32));
            assert_eq!(it.fingerprint(i as u32), key(i));
            assert_eq!(it.size(i as u32), i as u32);
        }
        assert_eq!(it.get(key(100_000)), None);
    }

    #[test]
    fn empty_interner_finds_nothing() {
        assert_eq!(ChunkInterner::new().get(fp(0)), None);
        assert_eq!(chosen_slots().get(fp(u64::MAX)), None);
        assert!(ChunkInterner::new().is_empty());
    }

    #[test]
    fn batch_and_folded_interners_agree_across_table_sizes() {
        use crate::streaming::IncrementalStats;
        let fps: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 311).collect();
        let batch = DenseStats::full(&backup(&fps));
        // Several commits intern into tables grown commit by commit.
        let mut folded = IncrementalStats::default();
        for part in fps.chunks(97) {
            folded.commit(&backup(part));
        }
        let dense = folded.to_dense();
        assert_ne!(dense.interner.slots.len(), batch.interner.slots.len());
        assert_eq!(dense.interner, batch.interner);
        assert_eq!(dense.freq, batch.freq);
        // A restored one-commit fold re-interns id by id into a table of
        // its own size and multiplier, and still equals the batch build.
        let mut one = IncrementalStats::default();
        one.commit(&backup(&fps));
        let mut blob = Vec::new();
        one.write_to(&mut blob).unwrap();
        let restored = IncrementalStats::read_from(&blob[..]).unwrap().to_dense();
        assert_ne!(restored.interner.slots.len(), batch.interner.slots.len());
        assert_eq!(restored, batch);
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
    fn frequencies_only_skips_csr() {
        let s = DenseStats::frequencies_only(&backup(&[1, 2, 1]));
        assert_eq!(s.freq[0], 2);
        assert_eq!(s.left.num_entries(), 0);
        assert_eq!(s.right.num_entries(), 0);
        assert_eq!(s.left.num_rows(), 2);
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
                    writer.push(AdjEntry {
                        key: (u64::from(row) << 32) | u64::from(e.id),
                        count: e.count,
                        order: e.order,
                    });
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
