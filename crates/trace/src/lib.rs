//! Backup trace model for the `freqdedup` workspace.
//!
//! A *trace* is the logical, pre-deduplication sequence of chunks of one or
//! more backups, exactly what the paper's adversary taps on the wire
//! (§3: "the adversary can ... access the logical order of ciphertext chunks
//! of the latest backup before deduplication").
//!
//! * [`Fingerprint`] — the 64-bit chunk identity used throughout the
//!   trace-analysis path (the real FSL trace uses 48-bit fingerprints; 64 bits
//!   keep the collision probability negligible at reproduction scale).
//! * [`ChunkRecord`] — a `(fingerprint, size)` pair, one logical chunk.
//! * [`Backup`] — one full backup: a labelled sequence of chunk records.
//! * [`BackupSeries`] — the ordered versions of a dataset.
//! * [`stats`] — frequency histograms and CDFs (Fig. 1), deduplication
//!   ratios, storage savings, and chunk-locality measurements.
//! * [`io`] — a compact, versioned, checksummed binary trace format.
//! * [`par`] — deterministic sharded parallel-execution primitives shared
//!   by the counting, encryption and ingest layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod par;
pub mod stats;

use std::collections::HashSet;
use std::fmt;

/// A chunk fingerprint: the (truncated) cryptographic hash that identifies a
/// chunk's content (§2.1).
///
/// Stored as a `u64`. Two chunks are *identical* iff their fingerprints are
/// equal; the collision probability is negligible at the scales this
/// workspace handles (≤ 10^8 chunks).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Builds a fingerprint from the first 8 bytes (little-endian) of a
    /// digest, the convention used by the whole workspace.
    ///
    /// # Panics
    ///
    /// Panics if `digest` is shorter than 8 bytes.
    #[must_use]
    pub fn from_digest(digest: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(&digest[..8]);
        Fingerprint(u64::from_le_bytes(b))
    }

    /// Raw value accessor.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The little-endian byte representation (for hashing/serialization).
    #[must_use]
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// The prefix shard owning this fingerprint when the `u64` space is
    /// range-partitioned into `shards` equal intervals: the fingerprint's
    /// leading bits select the shard, for any shard count. This is the
    /// partition function of the sharded dedup engine.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `shards` is zero.
    #[must_use]
    pub fn prefix_shard(self, shards: usize) -> usize {
        debug_assert!(shards > 0, "shard count must be positive");
        ((u128::from(self.0) * shards as u128) >> 64) as usize
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<u64> for Fingerprint {
    fn from(v: u64) -> Self {
        Fingerprint(v)
    }
}

/// One logical chunk occurrence in a backup stream: its fingerprint and its
/// size in bytes.
///
/// The size is carried because the advanced locality-based attack (§4.3)
/// classifies chunks by `ceil(size/16)` cipher blocks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChunkRecord {
    /// Content fingerprint.
    pub fp: Fingerprint,
    /// Chunk size in bytes (pre-encryption; CTR encryption is
    /// length-preserving).
    pub size: u32,
}

impl ChunkRecord {
    /// Convenience constructor.
    #[must_use]
    pub fn new(fp: impl Into<Fingerprint>, size: u32) -> Self {
        ChunkRecord {
            fp: fp.into(),
            size,
        }
    }

    /// Number of 16-byte cipher blocks this chunk occupies
    /// (`ceil(size / 16)`), the classification key of the advanced attack.
    #[must_use]
    pub fn blocks(&self) -> u32 {
        self.size.div_ceil(16)
    }
}

/// A full backup: the logical (pre-dedup) sequence of chunks, in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Backup {
    /// Human-readable label, e.g. `"Mar 22"` or `"week-07"`.
    pub label: String,
    /// Logical chunk sequence (identical chunks may repeat).
    pub chunks: Vec<ChunkRecord>,
}

impl Backup {
    /// Creates an empty backup with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Backup {
            label: label.into(),
            chunks: Vec::new(),
        }
    }

    /// Creates a backup from an existing chunk sequence.
    #[must_use]
    pub fn from_chunks(label: impl Into<String>, chunks: Vec<ChunkRecord>) -> Self {
        Backup {
            label: label.into(),
            chunks,
        }
    }

    /// Appends one chunk record.
    pub fn push(&mut self, record: ChunkRecord) {
        self.chunks.push(record);
    }

    /// Number of logical chunks (duplicates included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the backup holds no chunks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total logical bytes before deduplication.
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.size)).sum()
    }

    /// The set of unique fingerprints in the backup.
    #[must_use]
    pub fn unique_fingerprints(&self) -> HashSet<Fingerprint> {
        self.chunks.iter().map(|c| c.fp).collect()
    }

    /// Number of unique fingerprints.
    #[must_use]
    pub fn unique_count(&self) -> usize {
        self.unique_fingerprints().len()
    }

    /// Iterates over the chunk records in logical order.
    pub fn iter(&self) -> std::slice::Iter<'_, ChunkRecord> {
        self.chunks.iter()
    }
}

impl<'a> IntoIterator for &'a Backup {
    type Item = &'a ChunkRecord;
    type IntoIter = std::slice::Iter<'a, ChunkRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter()
    }
}

impl FromIterator<ChunkRecord> for Backup {
    fn from_iter<I: IntoIterator<Item = ChunkRecord>>(iter: I) -> Self {
        Backup {
            label: String::new(),
            chunks: iter.into_iter().collect(),
        }
    }
}

impl Extend<ChunkRecord> for Backup {
    fn extend<I: IntoIterator<Item = ChunkRecord>>(&mut self, iter: I) {
        self.chunks.extend(iter);
    }
}

/// An ordered series of full backups from one data source (oldest first),
/// e.g. the five monthly FSL backups or the thirteen weekly VM backups.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackupSeries {
    /// Dataset name, e.g. `"fsl"`.
    pub name: String,
    /// Backups in creation order.
    pub backups: Vec<Backup>,
}

impl BackupSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        BackupSeries {
            name: name.into(),
            backups: Vec::new(),
        }
    }

    /// Appends a backup (must be newer than all existing ones).
    pub fn push(&mut self, backup: Backup) {
        self.backups.push(backup);
    }

    /// Number of backups in the series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backups.len()
    }

    /// Whether the series holds no backups.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backups.is_empty()
    }

    /// The most recent backup, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&Backup> {
        self.backups.last()
    }

    /// Backup by index (0 = oldest).
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Backup> {
        self.backups.get(index)
    }

    /// Iterates over backups, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, Backup> {
        self.backups.iter()
    }

    /// Total logical bytes across all backups.
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.backups.iter().map(Backup::logical_bytes).sum()
    }

    /// Total logical chunks across all backups.
    #[must_use]
    pub fn logical_chunks(&self) -> usize {
        self.backups.iter().map(Backup::len).sum()
    }
}

impl<'a> IntoIterator for &'a BackupSeries {
    type Item = &'a Backup;
    type IntoIter = std::slice::Iter<'a, Backup>;

    fn into_iter(self) -> Self::IntoIter {
        self.backups.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: u64, size: u32) -> ChunkRecord {
        ChunkRecord::new(fp, size)
    }

    #[test]
    fn fingerprint_from_digest_le() {
        let digest = [1u8, 0, 0, 0, 0, 0, 0, 0, 0xff];
        assert_eq!(Fingerprint::from_digest(&digest).value(), 1);
    }

    #[test]
    fn fingerprint_round_trips_bytes() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(Fingerprint::from_digest(&fp.to_bytes()), fp);
    }

    #[test]
    fn fingerprint_display_hex() {
        assert_eq!(Fingerprint(0xabc).to_string(), "0000000000000abc");
        assert_eq!(format!("{:?}", Fingerprint(0xabc)), "fp:0000000000000abc");
    }

    #[test]
    fn chunk_blocks_rounds_up() {
        assert_eq!(rec(1, 1).blocks(), 1);
        assert_eq!(rec(1, 16).blocks(), 1);
        assert_eq!(rec(1, 17).blocks(), 2);
        assert_eq!(rec(1, 8192).blocks(), 512);
        assert_eq!(rec(1, 0).blocks(), 0);
    }

    #[test]
    fn backup_basic_accounting() {
        let b = Backup::from_chunks("b1", vec![rec(1, 10), rec(2, 20), rec(1, 10)]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.logical_bytes(), 40);
        assert_eq!(b.unique_count(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn backup_collects_from_iterator() {
        let b: Backup = (0..5u64).map(|i| rec(i, 8)).collect();
        assert_eq!(b.len(), 5);
        assert_eq!(b.unique_count(), 5);
    }

    #[test]
    fn backup_extend() {
        let mut b = Backup::new("x");
        b.extend([rec(1, 1), rec(2, 2)]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn series_ordering_and_latest() {
        let mut s = BackupSeries::new("demo");
        assert!(s.is_empty());
        assert!(s.latest().is_none());
        s.push(Backup::from_chunks("old", vec![rec(1, 1)]));
        s.push(Backup::from_chunks("new", vec![rec(2, 2), rec(3, 3)]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.latest().unwrap().label, "new");
        assert_eq!(s.get(0).unwrap().label, "old");
        assert_eq!(s.logical_bytes(), 6);
        assert_eq!(s.logical_chunks(), 3);
    }

    #[test]
    fn backup_iterates_in_logical_order() {
        let b = Backup::from_chunks("b", vec![rec(3, 1), rec(1, 1), rec(2, 1)]);
        let order: Vec<u64> = b.iter().map(|c| c.fp.value()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }
}
