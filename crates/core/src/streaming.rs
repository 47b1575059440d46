//! Incremental (streaming) `COUNT` — the attack data layer updated in
//! O(delta) per committed backup.
//!
//! The batch layer ([`crate::dense`]) rebuilds the interner, the global
//! frequency array and both CSR neighbour tables from the full tape on
//! every run — O(total history) per inference, which cannot track a live
//! service. This module makes the same state *foldable*:
//!
//! * [`StatsDelta`] — everything one committed backup contributes, in
//!   id-space: sparse frequency increments plus per-side aggregated
//!   adjacency runs. Deltas form a commutative monoid under
//!   [`StatsDelta::merged`] (counts add, first-seen orders take the
//!   minimum), which is exactly why folding them in any grouping yields
//!   the batch answer.
//! * [`SegmentedCsr`] — a neighbour table as a stack of sorted, aggregated
//!   segments (the logarithmic method): each commit *appends* its delta as
//!   a new segment, and a merge-stack invariant (a segment is merged into
//!   its neighbour whenever it has grown at least as large) bounds the
//!   stack depth to O(log n) while keeping total merge work O(log n)
//!   amortized per entry. Row reads k-way-merge the per-segment runs;
//!   because the merge algebra is associative and commutative, the merged
//!   row is **independent of segmentation** — reading mid-stream, after a
//!   forced [`SegmentedCsr::compact`], or after a restart all observe the
//!   same bits.
//! * [`IncrementalStats`] — the running attack state: interner, frequency
//!   array, both segmented tables, and the logical-position cursor that
//!   keeps first-seen orders globally consistent.
//!   [`IncrementalStats::commit`] folds one backup in O(delta · log
//!   history); [`IncrementalStats::to_dense`] materializes the equivalent
//!   [`DenseStats`] for table-level equivalence checks.
//!
//! The state serializes to a CRC-checked binary blob
//! ([`IncrementalStats::write_to`] / [`IncrementalStats::read_from`]) so a
//! restarted adversary tap resumes **bit-identically** — segments and
//! merge counters included — without replaying history. Equivalence with
//! the batch oracle ([`DenseStats::full_series`]) is pinned by
//! `tests/streaming_equivalence.rs`.

use std::io::{Read, Write};
use std::ops::Range;

use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter, TraceIoError};
use freqdedup_trace::{Backup, Fingerprint};

use crate::dense::{
    adjacency_event_at, ChunkId, ChunkInterner, CooccurrenceCsr, DenseEntry, DenseStats, Side,
    StatsView,
};

/// One aggregated adjacency run: the packed `(chunk ≪ 32 | neighbour)`
/// key with its occurrence count and first-seen (minimum) stream order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjEntry {
    /// Packed `(row chunk ≪ 32 | neighbour)` sort key.
    pub key: u64,
    /// Number of occurrences of this adjacency.
    pub count: u32,
    /// Minimum (first-seen) tie-break order across the occurrences.
    pub order: u32,
}

impl AdjEntry {
    /// The row entry this run denotes (the neighbour id is the key's low
    /// half).
    #[inline]
    fn to_dense(self) -> DenseEntry {
        DenseEntry {
            id: self.key as u32,
            count: self.count,
            order: self.order,
        }
    }
}

/// Merges two key-sorted aggregated runs: counts add, orders take the
/// minimum. This is the **entire** delta algebra — it is commutative and
/// associative, so any fold order (per-commit appends, segment merges,
/// compaction, restart) produces the same aggregated rows.
fn merge_adj(a: &[AdjEntry], b: &[AdjEntry]) -> Vec<AdjEntry> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].key.cmp(&b[j].key) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(AdjEntry {
                    key: a[i].key,
                    count: a[i].count + b[j].count,
                    order: a[i].order.min(b[j].order),
                });
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorts raw adjacency events and run-length-aggregates them into
/// [`AdjEntry`] runs (the position participates in the sort key, so each
/// run leads with its minimum — first-seen — order).
fn aggregate_events(mut events: Vec<(u64, u32)>) -> Vec<AdjEntry> {
    events.sort_unstable();
    let mut out = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let (key, order) = events[i];
        let mut j = i + 1;
        while j < events.len() && events[j].0 == key {
            j += 1;
        }
        out.push(AdjEntry {
            key,
            count: (j - i) as u32,
            order,
        });
        i = j;
    }
    out
}

/// Everything one committed backup adds to the running attack state, in
/// dense-id space.
///
/// A delta is built against a (mutably borrowed) interner — interning is
/// the only inherently sequential part of `COUNT` — and is pure data
/// afterwards. Two deltas built against the same interner merge with
/// [`Self::merged`]; the merge is commutative and associative, so the
/// order in which deltas are *folded* never matters (the order in which
/// they were *built* fixes id assignment and stream offsets, exactly as
/// in the batch tape semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsDelta {
    chunks: u64,
    /// Sparse frequency increments, sorted by id.
    freq: Vec<(ChunkId, u32)>,
    left: Vec<AdjEntry>,
    right: Vec<AdjEntry>,
}

impl StatsDelta {
    /// Builds the delta of one backup: interns its stream into `interner`
    /// (assigning fresh ids to first-seen chunks), counts its frequencies,
    /// and aggregates its within-backup adjacency events with first-seen
    /// orders offset by `position_offset` — the number of logical chunks
    /// committed before this backup (so orders are **global** tape
    /// positions, matching [`DenseStats::full_series`]).
    ///
    /// Cost is O(delta · log delta): two sorts over the backup's own
    /// events, independent of total history.
    #[must_use]
    pub fn build(interner: &mut ChunkInterner, backup: &Backup, position_offset: u64) -> Self {
        let ids: Vec<ChunkId> = backup
            .chunks
            .iter()
            .map(|rec| interner.intern(rec.fp, rec.size))
            .collect();
        let base = position_offset as usize;
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        let mut freq = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let id = sorted[i];
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] == id {
                j += 1;
            }
            freq.push((id, (j - i) as u32));
            i = j;
        }
        let left = aggregate_events(
            (1..ids.len())
                .map(|i| adjacency_event_at(&ids, i, Side::Left, base))
                .collect(),
        );
        let right = aggregate_events(
            (1..ids.len())
                .map(|i| adjacency_event_at(&ids, i, Side::Right, base))
                .collect(),
        );
        StatsDelta {
            chunks: ids.len() as u64,
            freq,
            left,
            right,
        }
    }

    /// Merges two deltas built against the same interner: frequencies and
    /// adjacency counts add, first-seen orders take the minimum, logical
    /// chunk counts add. Commutative and associative.
    #[must_use]
    pub fn merged(&self, other: &StatsDelta) -> StatsDelta {
        let mut freq = Vec::with_capacity(self.freq.len() + other.freq.len());
        let (mut i, mut j) = (0, 0);
        while i < self.freq.len() && j < other.freq.len() {
            match self.freq[i].0.cmp(&other.freq[j].0) {
                std::cmp::Ordering::Less => {
                    freq.push(self.freq[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    freq.push(other.freq[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    freq.push((self.freq[i].0, self.freq[i].1 + other.freq[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        freq.extend_from_slice(&self.freq[i..]);
        freq.extend_from_slice(&other.freq[j..]);
        StatsDelta {
            chunks: self.chunks + other.chunks,
            freq,
            left: merge_adj(&self.left, &other.left),
            right: merge_adj(&self.right, &other.right),
        }
    }

    /// Logical (pre-dedup) chunks the delta covers.
    #[must_use]
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Whether the delta carries no observations at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks == 0
    }
}

/// A neighbour table as a merge-stack of sorted aggregated segments (the
/// logarithmic method).
///
/// Appending a commit's runs pushes a segment and then merges the top of
/// the stack downwards while the invariant "each segment is strictly
/// smaller than the one below it" is violated — O(log n) segments, O(log
/// n) amortized merge work per entry, with the worst single append
/// rewriting the whole table (the compaction stall `fdbench` reports as
/// `core.stream_commit_ms_max`). Row reads k-way-merge the per-segment runs;
/// the merge algebra makes the result independent of segmentation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentedCsr {
    /// Sorted aggregated segments, oldest (largest) first.
    segments: Vec<Vec<AdjEntry>>,
    /// Lifetime count of segment merges (compaction events).
    merges: u64,
}

impl SegmentedCsr {
    /// Appends one commit's aggregated runs as a new segment and restores
    /// the merge-stack invariant. Returns the number of entries rewritten
    /// by segment merges (0 = pure append, no compaction).
    fn append(&mut self, entries: Vec<AdjEntry>) -> usize {
        if entries.is_empty() {
            return 0;
        }
        self.segments.push(entries);
        let mut merged_work = 0usize;
        while self.segments.len() >= 2
            && self.segments[self.segments.len() - 1].len()
                >= self.segments[self.segments.len() - 2].len()
        {
            let top = self.segments.pop().expect("two segments present");
            let below = self.segments.pop().expect("two segments present");
            merged_work += top.len() + below.len();
            self.segments.push(merge_adj(&below, &top));
            self.merges += 1;
        }
        merged_work
    }

    /// Merges everything into a single segment (a forced full compaction).
    pub fn compact(&mut self) {
        if self.segments.len() <= 1 {
            return;
        }
        let merged = self.merged_entries();
        self.merges += (self.segments.len() - 1) as u64;
        self.segments = if merged.is_empty() {
            Vec::new()
        } else {
            vec![merged]
        };
    }

    /// The row's sub-range within one sorted segment.
    fn row_range(segment: &[AdjEntry], id: ChunkId) -> Range<usize> {
        let row = u64::from(id);
        let start = segment.partition_point(|e| (e.key >> 32) < row);
        let end = start + segment[start..].partition_point(|e| (e.key >> 32) == row);
        start..end
    }

    /// Merges the row of `id` across all segments into `out` (cleared
    /// first), neighbour ids ascending — the same aggregated row a batch
    /// CSR build over the identical observations produces.
    pub fn row_into(&self, id: ChunkId, out: &mut Vec<DenseEntry>) {
        out.clear();
        let mut slices: Vec<&[AdjEntry]> = Vec::with_capacity(self.segments.len());
        for segment in &self.segments {
            let range = Self::row_range(segment, id);
            if !range.is_empty() {
                slices.push(&segment[range]);
            }
        }
        match slices.len() {
            0 => {}
            1 => out.extend(slices[0].iter().map(|e| e.to_dense())),
            _ => {
                // Small-k merge (k ≤ stack depth = O(log n)): pick the
                // minimum head key each step, combining equal keys.
                let mut heads = vec![0usize; slices.len()];
                loop {
                    let mut best: Option<u64> = None;
                    for (s, slice) in slices.iter().enumerate() {
                        if heads[s] < slice.len() {
                            let key = slice[heads[s]].key;
                            if best.is_none_or(|b| key < b) {
                                best = Some(key);
                            }
                        }
                    }
                    let Some(key) = best else { break };
                    let mut count = 0u32;
                    let mut order = u32::MAX;
                    for (s, slice) in slices.iter().enumerate() {
                        if heads[s] < slice.len() && slice[heads[s]].key == key {
                            count += slice[heads[s]].count;
                            order = order.min(slice[heads[s]].order);
                            heads[s] += 1;
                        }
                    }
                    out.push(DenseEntry {
                        id: key as u32,
                        count,
                        order,
                    });
                }
            }
        }
    }

    /// All runs merged into one sorted aggregated sequence (the
    /// materialization input of [`IncrementalStats::to_dense`]).
    fn merged_entries(&self) -> Vec<AdjEntry> {
        let mut acc: Vec<AdjEntry> = Vec::new();
        for segment in &self.segments {
            acc = if acc.is_empty() {
                segment.clone()
            } else {
                merge_adj(&acc, segment)
            };
        }
        acc
    }

    /// Number of live segments (bounded by O(log n) via the merge-stack
    /// invariant).
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total aggregated entries across all segments (an upper bound on the
    /// fully merged table's size).
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Lifetime count of segment merges.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

/// What one [`IncrementalStats::commit`] (or [`IncrementalStats::apply`])
/// did — the receipt the tap's latency log and the streaming bench record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Logical chunks folded in.
    pub chunks: u64,
    /// Unique chunks first seen in this commit.
    pub new_unique: usize,
    /// CSR entries rewritten by segment merges across both sides (0 = the
    /// commit was a pure segment append; large values are compaction
    /// stalls).
    pub merged_entries: usize,
}

/// The running attack state: `COUNT` output maintained incrementally, one
/// committed backup at a time.
///
/// Equivalent at every commit point to [`DenseStats::full_series`] over
/// the committed prefix (the
/// property `tests/streaming_equivalence.rs` pins bit-for-bit), while
/// each [`Self::commit`] costs O(delta · log history) instead of O(total
/// history).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    interner: ChunkInterner,
    /// `F[x]` per dense id; always `interner.len()` long between commits.
    freq: Vec<u32>,
    left: SegmentedCsr,
    right: SegmentedCsr,
    /// Logical chunks folded so far — the global position offset of the
    /// next commit's tie-break orders.
    chunks: u64,
    commits: u64,
}

impl IncrementalStats {
    /// Forwarder to [`Self::default`] for `benchmark/`, which calls this
    /// signature and is changed only by PRs of its own; the state has no
    /// policy.
    #[doc(hidden)]
    #[must_use]
    pub fn new(_policy: crate::counting::TiePolicy) -> Self {
        Self::default()
    }

    /// Creates an empty state that adopts a pre-populated `interner` — for
    /// callers that build [`StatsDelta`]s directly via
    /// [`StatsDelta::build`] against a shared interner (with explicit
    /// position offsets) and fold them in afterwards, e.g. batched or
    /// re-sharded ingestion. Applied deltas' dense ids must come from
    /// `interner`.
    #[must_use]
    pub fn with_interner(interner: ChunkInterner) -> Self {
        IncrementalStats {
            interner,
            ..Self::default()
        }
    }

    /// Builds (but does not fold) the delta of `backup` against this
    /// state: the backup's chunks are interned into this state's interner
    /// and its first-seen orders are offset by the current logical-position
    /// cursor. The returned delta must be [`Self::apply`]-ed (alone or
    /// [`StatsDelta::merged`] with deltas built after it) before the next
    /// [`Self::build_delta`] / [`Self::commit`], or position offsets
    /// drift.
    pub fn build_delta(&mut self, backup: &Backup) -> StatsDelta {
        StatsDelta::build(&mut self.interner, backup, self.chunks)
    }

    /// Folds a delta built by [`Self::build_delta`] into the running
    /// state in O(delta · log history) amortized.
    pub fn apply(&mut self, delta: StatsDelta) -> CommitReceipt {
        let old_unique = self.freq.len();
        let need = self
            .interner
            .len()
            .max(delta.freq.last().map_or(0, |&(id, _)| id as usize + 1))
            .max(old_unique);
        self.freq.resize(need, 0);
        for &(id, n) in &delta.freq {
            self.freq[id as usize] += n;
        }
        let merged = self.left.append(delta.left) + self.right.append(delta.right);
        self.chunks += delta.chunks;
        self.commits += 1;
        CommitReceipt {
            chunks: delta.chunks,
            new_unique: self.freq.len() - old_unique,
            merged_entries: merged,
        }
    }

    /// Folds one committed backup: [`Self::build_delta`] followed by
    /// [`Self::apply`].
    pub fn commit(&mut self, backup: &Backup) -> CommitReceipt {
        let before = self.interner.len();
        let delta = self.build_delta(backup);
        let mut receipt = self.apply(delta);
        receipt.new_unique = self.interner.len() - before;
        receipt
    }

    /// Forces a full compaction of both neighbour tables. Aggregated rows
    /// — and therefore inference — are unchanged (segmentation
    /// independence); only the segment layout and future merge costs
    /// differ.
    pub fn compact(&mut self) {
        self.left.compact();
        self.right.compact();
    }

    /// Logical chunks folded so far.
    #[must_use]
    pub fn logical_chunks(&self) -> u64 {
        self.chunks
    }

    /// Backups committed so far.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The global frequency array (indexed by dense id).
    #[must_use]
    pub fn freq(&self) -> &[u32] {
        &self.freq
    }

    /// The left-neighbour segment stack.
    #[must_use]
    pub fn left(&self) -> &SegmentedCsr {
        &self.left
    }

    /// The right-neighbour segment stack.
    #[must_use]
    pub fn right(&self) -> &SegmentedCsr {
        &self.right
    }

    /// The fingerprint ⇄ id mapping.
    #[must_use]
    pub fn interner(&self) -> &ChunkInterner {
        &self.interner
    }

    /// Materializes the equivalent batch [`DenseStats`]: same interner,
    /// same frequencies, and both segment stacks fully merged into CSR
    /// tables. Bit-identical to [`DenseStats::full_series`] over the
    /// committed tape.
    #[must_use]
    pub fn to_dense(&self) -> DenseStats {
        let unique = self.interner.len();
        let mut freq = self.freq.clone();
        freq.resize(unique, 0);
        let left = CooccurrenceCsr::from_aggregated(
            unique,
            self.left
                .merged_entries()
                .into_iter()
                .map(|e| (e.key, e.count, e.order)),
        );
        let right = CooccurrenceCsr::from_aggregated(
            unique,
            self.right
                .merged_entries()
                .into_iter()
                .map(|e| (e.key, e.count, e.order)),
        );
        DenseStats {
            interner: self.interner.clone(),
            freq,
            left,
            right,
        }
    }

    /// Serializes the state (CRC-checked, self-delimiting — multiple
    /// states may share one stream).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on write failure.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), TraceIoError> {
        let mut w = CrcWriter::new(writer);
        w.header(STREAM_MAGIC, STREAM_VERSION)?;
        w.u64(self.chunks)?;
        w.u64(self.commits)?;
        let unique = self.interner.len() as u32;
        w.u32(unique)?;
        for id in 0..unique {
            w.u64(self.interner.fingerprint(id).value())?;
            w.u32(self.interner.size(id))?;
        }
        w.u32(self.freq.len() as u32)?;
        for &f in &self.freq {
            w.u32(f)?;
        }
        for side in [&self.left, &self.right] {
            w.u32(side.segments.len() as u32)?;
            w.u64(side.merges)?;
            for segment in &side.segments {
                w.u64(segment.len() as u64)?;
                for e in segment {
                    w.u64(e.key)?;
                    w.u32(e.count)?;
                    w.u32(e.order)?;
                }
            }
        }
        w.finish()?;
        Ok(())
    }

    /// Deserializes a state written by [`Self::write_to`], verifying
    /// magic, version and CRC. Consumes exactly one state's bytes, so
    /// concatenated states can be read back to back from one reader.
    /// Every length field is obeyed under the codec's length rule
    /// ([`freqdedup_trace::io::RESERVE_CAP`]) before the CRC vouches for it.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`TraceIoError`] variant on malformed
    /// input.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, TraceIoError> {
        let mut r = CrcReader::new(reader, "stream state");
        r.expect_header(STREAM_MAGIC, STREAM_VERSION)?;
        let chunks = r.u64("chunk count")?;
        let commits = r.u64("commit count")?;
        let unique = r.u32("unique count")?;
        let mut interner = ChunkInterner::new();
        for _ in 0..unique {
            let fp = Fingerprint(r.u64("interned fingerprint")?);
            interner.intern(fp, r.u32("interned size")?);
        }
        if interner.len() != unique as usize {
            // Duplicate fingerprints collapse under interning: the blob
            // was not produced by `write_to`.
            return Err(TraceIoError::LengthOverflow(u64::from(unique)));
        }
        let freq_len = r.u32("frequency count")?;
        let freq = r.seq(u64::from(freq_len), |r| r.u32("frequency"))?;
        let mut side = || -> Result<SegmentedCsr, CodecError> {
            let num_segments = r.u32("segment count")?;
            let merges = r.u64("merge count")?;
            let segments = r.seq(u64::from(num_segments), |r| {
                let len = r.u64("segment length")?;
                r.seq(len, |r| {
                    Ok(AdjEntry {
                        key: r.u64("entry key")?,
                        count: r.u32("entry count")?,
                        order: r.u32("entry order")?,
                    })
                })
            })?;
            Ok(SegmentedCsr { segments, merges })
        };
        let left = side()?;
        let right = side()?;
        r.expect_crc()?;
        Ok(IncrementalStats {
            interner,
            freq,
            left,
            right,
            chunks,
            commits,
        })
    }
}

impl StatsView for IncrementalStats {
    fn unique_chunks(&self) -> usize {
        self.interner.len()
    }

    fn fingerprints(&self) -> &[Fingerprint] {
        self.interner.fingerprints()
    }

    fn id_of(&self, fp: Fingerprint) -> Option<ChunkId> {
        self.interner.get(fp)
    }

    fn blocks_of(&self, id: ChunkId) -> u32 {
        self.interner.size(id).div_ceil(16)
    }

    fn global_rows(&self) -> Vec<DenseEntry> {
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

    fn left_row<'a>(&'a self, id: ChunkId, scratch: &'a mut Vec<DenseEntry>) -> &'a [DenseEntry] {
        self.left.row_into(id, scratch);
        scratch
    }

    fn right_row<'a>(&'a self, id: ChunkId, scratch: &'a mut Vec<DenseEntry>) -> &'a [DenseEntry] {
        self.right.row_into(id, scratch);
        scratch
    }
}

const STREAM_MAGIC: &[u8; 4] = b"FQIS";
/// Version 2 dropped the policy byte (and the tap its second blob); a
/// version-1 file is [`TraceIoError::BadVersion`], which the tap answers
/// with a catalog replay.
const STREAM_VERSION: u16 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use freqdedup_trace::ChunkRecord;

    fn backup(label: &str, fps: &[u64]) -> Backup {
        Backup::from_chunks(
            label,
            fps.iter()
                .map(|&f| ChunkRecord::new(f, 64 + ((f % 5) * 16) as u32))
                .collect(),
        )
    }

    fn tape() -> Vec<Backup> {
        vec![
            backup("b0", &[1, 2, 1, 2, 3, 4, 2, 3, 4]),
            backup("b1", &[2, 3, 4, 4, 9]),
            backup("b2", &[]),
            backup("b3", &[7]),
            backup("b4", &[9, 9, 9]),
            backup("b5", &[1, 9, 2, 7, 5, 5, 1]),
        ]
    }

    #[test]
    fn streaming_equals_series_batch_at_every_prefix() {
        let tape = tape();
        let mut inc = IncrementalStats::default();
        for k in 0..tape.len() {
            inc.commit(&tape[k]);
            let oracle = DenseStats::full_series(&tape[..=k]);
            assert_eq!(inc.to_dense(), oracle, "prefix {}", k + 1);
        }
    }

    #[test]
    fn row_into_matches_materialized_rows() {
        let tape = tape();
        let mut inc = IncrementalStats::default();
        for b in &tape {
            inc.commit(b);
        }
        let dense = inc.to_dense();
        let mut row = Vec::new();
        for id in 0..dense.unique_chunks() as u32 {
            inc.left().row_into(id, &mut row);
            assert_eq!(row.as_slice(), dense.left.row(id), "left {id}");
            inc.right().row_into(id, &mut row);
            assert_eq!(row.as_slice(), dense.right.row(id), "right {id}");
        }
    }

    #[test]
    fn forced_compaction_is_invisible_in_rows() {
        let tape = tape();
        let mut plain = IncrementalStats::default();
        let mut compacted = IncrementalStats::default();
        for b in &tape {
            plain.commit(b);
            compacted.commit(b);
            compacted.compact();
            assert_eq!(plain.to_dense(), compacted.to_dense());
            assert!(compacted.left().num_segments() <= 1);
        }
    }

    #[test]
    fn merge_stack_depth_stays_logarithmic() {
        let mut inc = IncrementalStats::default();
        for i in 0..200u64 {
            let fps: Vec<u64> = (0..20).map(|j| (i * 20 + j) % 97).collect();
            inc.commit(&backup("b", &fps));
        }
        // 200 appends, yet the stack holds at most ~log2(total) segments.
        assert!(
            inc.left().num_segments() <= 16,
            "{}",
            inc.left().num_segments()
        );
        assert!(inc.left().merges() > 0);
    }

    #[test]
    fn delta_merge_is_commutative_and_associative() {
        let tape = tape();
        let mut interner = ChunkInterner::new();
        let mut offset = 0u64;
        let deltas: Vec<StatsDelta> = tape
            .iter()
            .map(|b| {
                let d = StatsDelta::build(&mut interner, b, offset);
                offset += b.len() as u64;
                d
            })
            .collect();
        let (a, b, c) = (&deltas[0], &deltas[1], &deltas[5]);
        assert_eq!(a.merged(b), b.merged(a));
        assert_eq!(a.merged(b).merged(c), a.merged(&b.merged(c)));
    }

    #[test]
    fn merged_deltas_fold_to_the_same_state() {
        // Applying d0+d1 as one merged delta equals applying them one at
        // a time (the segment layout differs; the materialized state must
        // not).
        let tape = tape();
        let mut one_by_one = IncrementalStats::default();
        for b in &tape[..2] {
            one_by_one.commit(b);
        }
        // Build both deltas against one state's interner (explicit
        // offsets), then fold them as a single merged delta.
        let mut merged = IncrementalStats::default();
        let d0 = StatsDelta::build(&mut merged.interner, &tape[0], 0);
        let d1 = StatsDelta::build(&mut merged.interner, &tape[1], d0.chunks());
        merged.apply(d0.merged(&d1));
        assert_eq!(one_by_one.to_dense(), merged.to_dense());
    }

    #[test]
    fn serialization_round_trips_bit_identically() {
        let tape = tape();
        let mut inc = IncrementalStats::default();
        for b in &tape {
            inc.commit(b);
        }
        let mut bytes = Vec::new();
        inc.write_to(&mut bytes).unwrap();
        let back = IncrementalStats::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back, inc);
    }

    #[test]
    fn two_states_share_one_stream() {
        let mut a = IncrementalStats::default();
        let mut b = IncrementalStats::default();
        a.commit(&backup("x", &[1, 2, 3]));
        b.commit(&backup("x", &[4, 5]));
        let mut bytes = Vec::new();
        a.write_to(&mut bytes).unwrap();
        b.write_to(&mut bytes).unwrap();
        let mut reader = bytes.as_slice();
        assert_eq!(IncrementalStats::read_from(&mut reader).unwrap(), a);
        assert_eq!(IncrementalStats::read_from(&mut reader).unwrap(), b);
        assert!(reader.is_empty());
    }

    #[test]
    fn serialization_rejects_corruption() {
        let mut inc = IncrementalStats::default();
        inc.commit(&backup("x", &[1, 2, 1]));
        let mut bytes = Vec::new();
        inc.write_to(&mut bytes).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(IncrementalStats::read_from(bytes.as_slice()).is_err());
        assert!(matches!(
            IncrementalStats::read_from(&bytes[..10]),
            Err(TraceIoError::Io(_))
        ));
    }

    #[test]
    fn forged_lengths_fail_typed_without_driving_allocations() {
        let mut inc = IncrementalStats::default();
        for b in &tape() {
            inc.commit(b);
        }
        let mut clean = Vec::new();
        inc.write_to(&mut clean).unwrap();
        // magic 4 + version 2 + chunks 8 + commits 8 + unique 4, then 12
        // bytes per interned chunk, then the three length fields in turn.
        let freq_len = 26 + 12 * inc.interner().len();
        let num_segments = freq_len + 4 + 4 * inc.freq().len();
        let segment_len = num_segments + 4 + 8;
        let forge = |at: usize, field: &[u8]| {
            let mut bad = clean.clone();
            bad[at..at + field.len()].copy_from_slice(field);
            IncrementalStats::read_from(bad.as_slice())
        };
        // Each forged count runs the reader off the end of the input: a
        // typed error, having reserved at most `RESERVE_CAP` elements (at
        // 57bf155 each of these aborted on a 16 GiB – 16 TiB reservation).
        for (at, field) in [
            (freq_len, &u32::MAX.to_le_bytes()[..]),
            (num_segments, &u32::MAX.to_le_bytes()[..]),
            (segment_len, &(1u64 << 40).to_le_bytes()[..]),
            (segment_len, &u64::MAX.to_le_bytes()[..]),
        ] {
            assert!(matches!(forge(at, field), Err(TraceIoError::Io(_))), "{at}");
        }
    }

    #[test]
    fn empty_duplicate_and_singleton_deltas() {
        for (fps, label) in [
            (&[][..], "empty"),
            (&[7, 7, 7][..], "duplicate-only"),
            (&[42][..], "singleton"),
        ] {
            let b = backup(label, fps);
            let mut inc = IncrementalStats::default();
            let receipt = inc.commit(&b);
            assert_eq!(receipt.chunks, fps.len() as u64);
            assert_eq!(inc.to_dense(), DenseStats::full(&b), "{label}");
        }
    }
}
