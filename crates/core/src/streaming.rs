//! Incremental (streaming) `COUNT` — the attack state folded in O(delta)
//! per committed backup.
//!
//! Batch `COUNT` ([`crate::dense`]) builds the interner, the frequency
//! array and both CSR neighbour tables of one stream at once. A live
//! service needs the same state *folded*, one committed backup at a time,
//! over the whole series (the extended paper's series attacks):
//!
//! * [`IncrementalStats::commit`] — the only fold. It interns the backup
//!   against the running interner, adds its counts to the frequency array,
//!   and sorts its adjacency events into one aggregated run per side (the
//!   comparison-sort kernel: batch `COUNT`'s counting sort would size an
//!   array by the series' ids on every commit).
//! * [`SegmentedCsr`] — a neighbour table as a stack of sorted, aggregated
//!   segments (the logarithmic method): each commit *appends* its run as a
//!   new segment, and a merge-stack invariant (a segment is merged into
//!   its neighbour whenever it has grown at least as large) bounds the
//!   stack depth to O(log n) while keeping total merge work O(log n)
//!   amortized per entry. The merge — counts add, first-seen orders take
//!   the minimum — is commutative and associative, so the merged table is
//!   **independent of segmentation**: flattening mid-stream, after a
//!   forced [`SegmentedCsr::compact`], or after a restart all observe the
//!   same bits.
//! * [`IncrementalStats::to_dense`] flattens the state once, in
//!   O(entries), into the [`DenseStats`] every attack crawls.
//!
//! **Series semantics.** Ids are interned first-seen across the series in
//! commit order; frequencies sum over the backups; adjacency exists only
//! *within* a backup (no edge across a backup boundary); and an event's
//! order is its **global** position in the series (the backup's
//! cumulative chunk offset plus its local position). A batch `COUNT` of a
//! series is this fold ([`crate::attacks::run_ciphertext_only_series`]);
//! of a single backup it equals [`DenseStats::full`].
//!
//! The state serializes to a CRC-checked binary blob
//! ([`IncrementalStats::write_to`] / [`IncrementalStats::read_from`]) so a
//! restarted adversary tap resumes **bit-identically** — segments and
//! merge counters included — without replaying history.
//! `tests/attack_equivalence.rs` pins the fold against a fingerprint-keyed
//! series `COUNT` that shares no code with it.

use std::io::{Read, Write};

use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter, TraceIoError};
use freqdedup_trace::{Backup, Fingerprint};

use crate::dense::{
    adjacency_event_at, aggregate, AdjEntry, ChunkInterner, CooccurrenceCsr, CsrWriter, DenseStats,
    Side,
};

/// Merges two key-sorted aggregated runs, handing `emit` each key once in
/// key order: counts add, orders take the minimum. This is the **entire**
/// segment algebra — it is commutative and associative, so any fold order
/// (per-commit appends, segment merges, compaction, flatten, restart)
/// produces the same aggregated rows.
fn merge_two(a: &[AdjEntry], b: &[AdjEntry], mut emit: impl FnMut(AdjEntry)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].key.cmp(&b[j].key) {
            std::cmp::Ordering::Less => {
                emit(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                emit(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                emit(AdjEntry {
                    key: a[i].key,
                    count: a[i].count + b[j].count,
                    order: a[i].order.min(b[j].order),
                });
                i += 1;
                j += 1;
            }
        }
    }
    a[i..].iter().chain(&b[j..]).copied().for_each(emit);
}

/// [`merge_two`] into a new run.
fn merge_adj(a: &[AdjEntry], b: &[AdjEntry]) -> Vec<AdjEntry> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    merge_two(a, b, |e| out.push(e));
    out
}

/// The k-way merge of a segment stack (oldest, largest run first) that
/// [`SegmentedCsr::compact`] and the flatten of
/// [`IncrementalStats::to_dense`] share: the runs above the first are
/// merged smallest first — so the short runs near the top move a few
/// times and the long ones below them once — and the result is merged
/// with the first straight into `emit`.
fn merge_runs(runs: &[Vec<AdjEntry>], emit: impl FnMut(AdjEntry)) {
    let Some((first, above)) = runs.split_first() else {
        return;
    };
    let rest = above
        .iter()
        .rev()
        .fold(Vec::new(), |acc, run| merge_adj(run, &acc));
    merge_two(first, &rest, emit);
}

/// A neighbour table as a merge-stack of sorted aggregated segments (the
/// logarithmic method).
///
/// Appending a commit's runs pushes a segment and then merges the top of
/// the stack downwards while the invariant "each segment is strictly
/// smaller than the one below it" is violated — O(log n) segments, O(log
/// n) amortized merge work per entry, with the worst single append
/// rewriting the whole table (the compaction stall `fdbench` reports as
/// `core.stream_commit_ms_max`). Inference reads the table flattened once
/// ([`IncrementalStats::to_dense`]); the merge algebra makes the flat
/// table independent of segmentation.
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
        let mut merged = Vec::with_capacity(self.num_entries());
        merge_runs(&self.segments, |e| merged.push(e));
        self.merges += (self.segments.len() - 1) as u64;
        self.segments = if merged.is_empty() {
            Vec::new()
        } else {
            vec![merged]
        };
    }

    /// The table as one flat CSR over `num_ids` rows: a single k-way merge
    /// of the segments, written straight into arrays sized from
    /// [`Self::num_entries`]. Borrows the stack, so the fold schedule (and
    /// [`Self::merges`]) never sees it.
    fn flatten(&self, num_ids: usize) -> CooccurrenceCsr {
        let mut csr = CsrWriter::new(num_ids, self.num_entries());
        merge_runs(&self.segments, |e| csr.push(e));
        csr.finish()
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

/// What one [`IncrementalStats::commit`] did — the receipt the tap's
/// latency log and the streaming bench record.
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
/// Flattened at any commit point, it is the `COUNT` of the committed
/// series (see the module docs for the series semantics), while each
/// [`Self::commit`] costs O(delta · log history) instead of O(total
/// history).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    interner: ChunkInterner,
    /// `F[x]` per dense id; always `interner.len()` long.
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
    pub fn new(_policy: crate::freq_analysis::TiePolicy) -> Self {
        Self::default()
    }

    /// Folds one committed backup in O(delta · log history) amortized: its
    /// chunks are interned (first-seen ids are the interner's next ones),
    /// counted straight into the frequency array, and each side's
    /// within-backup adjacency events — at global positions offset by the
    /// chunks committed before — are aggregated by the fold's kernel into
    /// one run appended as a new segment.
    pub fn commit(&mut self, backup: &Backup) -> CommitReceipt {
        let known = self.interner.len();
        let ids = self.interner.intern_stream(backup);
        self.freq.resize(self.interner.len(), 0);
        for &id in &ids {
            self.freq[id as usize] += 1;
        }
        let base = self.chunks as usize;
        let mut events = Vec::with_capacity(ids.len().saturating_sub(1));
        let mut merged_entries = 0;
        for (side, table) in [(Side::Left, &mut self.left), (Side::Right, &mut self.right)] {
            events.clear();
            events.extend((1..ids.len()).map(|i| adjacency_event_at(&ids, i, side, base)));
            let mut run = Vec::new();
            aggregate(&mut events, |e| run.push(e));
            merged_entries += table.append(run);
        }
        self.chunks += ids.len() as u64;
        self.commits += 1;
        CommitReceipt {
            chunks: ids.len() as u64,
            new_unique: self.interner.len() - known,
            merged_entries,
        }
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

    /// Flattens the running state into the [`DenseStats`] every streaming
    /// inference crawls: same interner, same frequencies, and each side's
    /// segment stack merged once into a flat CSR table — O(entries), the
    /// stack itself untouched.
    #[must_use]
    pub fn to_dense(&self) -> DenseStats {
        let unique = self.interner.len();
        DenseStats {
            interner: self.interner.clone(),
            freq: self.freq.clone(),
            left: self.left.flatten(unique),
            right: self.right.flatten(unique),
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
    /// input; [`TraceIoError::Malformed`] for a CRC-valid state that
    /// `write_to` cannot have produced (a frequency array not one per
    /// interned chunk, a segment not strictly key-sorted, or a row or
    /// neighbour id outside the interner).
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
            return Err(TraceIoError::Malformed("duplicate interned fingerprint"));
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
        // The CRC vouches for the bytes, not for what they say: a state
        // whose ids fall outside its interner would crash the flatten or
        // the crawl, so it is refused here (and the tap replays instead).
        if freq.len() != interner.len() {
            return Err(TraceIoError::Malformed("frequency count"));
        }
        for segment in left.segments.iter().chain(&right.segments) {
            if segment.windows(2).any(|w| w[0].key >= w[1].key) {
                return Err(TraceIoError::Malformed("unsorted segment"));
            }
            if segment
                .iter()
                .any(|e| (e.key >> 32) >= u64::from(unique) || e.key as u32 >= unique)
            {
                return Err(TraceIoError::Malformed("chunk id out of range"));
            }
        }
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
    fn one_commit_equals_batch_count() {
        // The fold's sort and batch `COUNT`'s counting sort agree: a
        // single commit, flattened, is the batch `COUNT` of that backup.
        for b in &tape() {
            let mut inc = IncrementalStats::default();
            inc.commit(b);
            assert_eq!(inc.to_dense(), DenseStats::full(b), "{}", b.label);
        }
    }

    #[test]
    fn series_keeps_backups_adjacency_separate_but_frequencies_summed() {
        // Tape ⟨1 2⟩, ⟨2 3⟩: each backup is its own stream, so the backup
        // boundary 2|2 contributes no adjacency — 2's right neighbour 3
        // comes only from the second backup's interior edge.
        let mut inc = IncrementalStats::default();
        inc.commit(&backup("a", &[1, 2]));
        inc.commit(&backup("b", &[2, 3]));
        let s = inc.to_dense();
        let id = |f: u64| s.interner.get(Fingerprint(f)).unwrap();
        assert_eq!(s.freq[id(2) as usize], 2);
        // Within-backup edges only: R[1] = {2}, R[2] = {3}; no R[2] = {2}.
        assert_eq!(s.right.row(id(1)).len(), 1);
        // Global stream position: the ⟨2 3⟩ edge sits at tape position 2.
        assert_eq!(
            s.right.row(id(2)),
            [crate::dense::DenseEntry {
                id: id(3),
                count: 1,
                order: 2
            }]
        );
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
        // Commits of 2–32 chunks over a shared pool: uneven segment sizes
        // keep several on the stack, and reused adjacencies merge.
        let mut inc = IncrementalStats::default();
        let tape: Vec<Backup> = (0..200u64)
            .map(|i| {
                let fps: Vec<u64> = (0..(i * 7) % 31 + 2).map(|j| (i * 5 + j) % 499).collect();
                backup("b", &fps)
            })
            .collect();
        for b in &tape {
            inc.commit(b);
        }
        // 200 appends, yet the stack holds at most ~log2(total) segments.
        let depth = inc.left().num_segments();
        assert!((5..=16).contains(&depth), "{depth}");
        assert!(inc.left().merges() > 0);
        // The flatten merges the whole deep stack in one pass, to the
        // rows of the fully compacted table.
        let mut compacted = inc.clone();
        compacted.compact();
        assert_eq!(compacted.left().num_segments(), 1);
        assert_eq!(compacted.to_dense(), inc.to_dense());
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
    fn forged_ids_fail_typed_under_a_valid_checksum() {
        let mut inc = IncrementalStats::default();
        for b in &tape() {
            inc.commit(b);
        }
        let mut clean = Vec::new();
        inc.write_to(&mut clean).unwrap();
        let unique = inc.interner().len() as u32;
        // Offsets as in `forged_lengths_fail_typed_without_driving_allocations`;
        // `last` is the final 16-byte entry of the left side's first
        // segment, the largest key in it, whose low half is the neighbour
        // id and high half the row id.
        let freq_len = 26 + 12 * inc.interner().len();
        let segment_len = freq_len + 4 + 4 * inc.freq().len() + 4 + 8;
        let len0 = inc.left().segments[0].len();
        assert!(len0 >= 2);
        let last = segment_len + 8 + 16 * (len0 - 1);
        let resealed = |mut bad: Vec<u8>| {
            let body = bad.len() - 4;
            let crc = freqdedup_trace::io::crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            IncrementalStats::read_from(bad.as_slice())
        };
        let overwrite = |at: usize, field: &[u8]| {
            let mut bad = clean.clone();
            bad[at..at + field.len()].copy_from_slice(field);
            bad
        };
        let mut short_freq = overwrite(freq_len, &(unique - 1).to_le_bytes());
        short_freq.drain(freq_len + 4..freq_len + 8);
        // Each blob passes magic, lengths and CRC; at dfbf3f8 the first two
        // loaded `Ok` and then panicked on an out-of-bounds index in the
        // crawl and in `to_dense`.
        for (bad, what) in [
            (overwrite(last, &unique.to_le_bytes()), "neighbour id"),
            (overwrite(last + 4, &unique.to_le_bytes()), "row id"),
            (overwrite(last, &clean[last - 16..last - 8]), "repeated key"),
            (short_freq, "short frequency array"),
        ] {
            assert!(
                matches!(resealed(bad), Err(TraceIoError::Malformed(_))),
                "{what}"
            );
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
