//! The fingerprint index: fingerprint → container mapping (§2.1, §7.4.1).
//!
//! The index is modelled as **on-disk**: it grows with the number of unique
//! chunks and cannot be assumed to fit in memory, which is why DDFS fronts it
//! with the Bloom filter and the fingerprint cache. Every lookup and update
//! is accounted in bytes of metadata traffic (32 bytes per fingerprint entry
//! by default), which is exactly the quantity Figures 13–14 report.
//!
//! Lookup counters are [`Cell`]s so that [`FingerprintIndex::lookup`] takes
//! `&self`: a read of an on-disk index mutates accounting, not the mapping,
//! and read paths (and shard-parallel readers, which each own their engine)
//! should not need `&mut` access.

use std::cell::Cell;
use std::collections::HashMap;

use freqdedup_trace::Fingerprint;

use crate::container::ContainerId;

/// The on-disk fingerprint index with byte-level access accounting.
#[derive(Debug)]
pub struct FingerprintIndex {
    map: HashMap<Fingerprint, ContainerId>,
    lookup_bytes: Cell<u64>,
    lookups: Cell<u64>,
    update_bytes: u64,
    updates: u64,
    entry_bytes: u64,
}

impl Default for FingerprintIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintIndex {
    /// Creates an index with the paper's 32-byte entries.
    #[must_use]
    pub fn new() -> Self {
        Self::with_entry_bytes(32)
    }

    /// Creates an index with a custom per-entry metadata size.
    ///
    /// # Panics
    ///
    /// Panics if `entry_bytes` is zero.
    #[must_use]
    pub fn with_entry_bytes(entry_bytes: u64) -> Self {
        assert!(entry_bytes > 0, "entry size must be positive");
        FingerprintIndex {
            map: HashMap::new(),
            lookup_bytes: Cell::new(0),
            lookups: Cell::new(0),
            update_bytes: 0,
            updates: 0,
            entry_bytes,
        }
    }

    /// Looks up the container holding `fp`, accounting one on-disk index
    /// access (step S3).
    pub fn lookup(&self, fp: Fingerprint) -> Option<ContainerId> {
        self.lookups.set(self.lookups.get() + 1);
        self.lookup_bytes
            .set(self.lookup_bytes.get() + self.entry_bytes);
        self.map.get(&fp).copied()
    }

    /// Inserts (or overwrites) the mapping for `fp`, accounting one on-disk
    /// update access (steps S2/S3, at container flush time).
    pub fn insert(&mut self, fp: Fingerprint, container: ContainerId) {
        self.account_updates(1);
        self.map.insert(fp, container);
    }

    /// Removes the mapping for `fp`, accounting one on-disk update access
    /// (a delete of an on-disk entry is a write, like an insert). Returns the removed mapping, if any; a miss is still accounted — GC
    /// had to touch the index to find out.
    pub fn remove(&mut self, fp: Fingerprint) -> Option<ContainerId> {
        self.account_updates(1);
        self.map.remove(&fp)
    }

    /// Removes every entry mapping to `container`, with per-entry update
    /// accounting, returning the removed fingerprints (recovery's replay of
    /// a GC drop record: the entries still pointing at a dropped container
    /// at that point in the journal are exactly its dead chunks).
    pub(crate) fn remove_container_entries(&mut self, container: ContainerId) -> Vec<Fingerprint> {
        let mut removed = Vec::new();
        self.map.retain(|&fp, &mut cid| {
            if cid == container {
                removed.push(fp);
                false
            } else {
                true
            }
        });
        self.account_updates(removed.len() as u64);
        removed.sort_unstable();
        removed
    }

    /// Charges `n` update accesses without touching the mapping. Recovery
    /// uses this when replaying the seal of a container that a later
    /// journal record drops: the file is gone, so the per-fingerprint
    /// inserts cannot be reproduced, but their accounted cost can.
    pub(crate) fn account_updates(&mut self, n: u64) {
        self.updates += n;
        self.update_bytes += n * self.entry_bytes;
    }

    /// Re-inserts a recovered mapping **without** accounting: recovery
    /// rebuilds the in-memory map from the snapshot, whose counters already
    /// include the original accounted insertions.
    pub(crate) fn restore_entry(&mut self, fp: Fingerprint, container: ContainerId) {
        self.map.insert(fp, container);
    }

    /// The access counters as `[lookups, lookup_bytes, updates,
    /// update_bytes]` (the snapshot's form).
    #[must_use]
    pub fn counters(&self) -> [u64; 4] {
        [
            self.lookups.get(),
            self.lookup_bytes.get(),
            self.updates,
            self.update_bytes,
        ]
    }

    /// Overwrites the access counters with recovered values (the form of
    /// [`Self::counters`]).
    pub(crate) fn set_counters(
        &mut self,
        [lookups, lookup_bytes, updates, update_bytes]: [u64; 4],
    ) {
        self.lookups.set(lookups);
        self.lookup_bytes.set(lookup_bytes);
        self.updates = updates;
        self.update_bytes = update_bytes;
    }

    /// All `(fingerprint, container)` entries sorted by fingerprint — the
    /// snapshot serialization order, and a deterministic basis for
    /// index-content comparisons.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(Fingerprint, ContainerId)> {
        let mut out: Vec<_> = self.map.iter().map(|(&fp, &cid)| (fp, cid)).collect();
        out.sort_unstable_by_key(|&(fp, _)| fp);
        out
    }

    /// Membership test without accounting (test/debug use only — the engine
    /// never bypasses accounting).
    #[must_use]
    pub fn peek(&self, fp: Fingerprint) -> Option<ContainerId> {
        self.map.get(&fp).copied()
    }

    /// Number of indexed fingerprints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of on-disk index reads so far ("index access").
    #[must_use]
    pub fn lookup_bytes(&self) -> u64 {
        self.lookup_bytes.get()
    }

    /// Bytes of on-disk index writes so far ("update access").
    #[must_use]
    pub fn update_bytes(&self) -> u64 {
        self.update_bytes
    }

    /// Count of lookup operations.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Count of update operations.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The configured per-entry metadata size in bytes.
    #[must_use]
    pub fn entry_bytes(&self) -> u64 {
        self.entry_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_insert() {
        let mut idx = FingerprintIndex::new();
        assert_eq!(idx.lookup(Fingerprint(1)), None);
        idx.insert(Fingerprint(1), ContainerId(7));
        assert_eq!(idx.lookup(Fingerprint(1)), Some(ContainerId(7)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn accounting_in_bytes() {
        let mut idx = FingerprintIndex::new();
        let _ = idx.lookup(Fingerprint(1));
        let _ = idx.lookup(Fingerprint(2));
        idx.insert(Fingerprint(2), ContainerId(0));
        assert_eq!(idx.lookup_bytes(), 64);
        assert_eq!(idx.update_bytes(), 32);
        assert_eq!(idx.lookups(), 2);
        assert_eq!(idx.updates(), 1);
    }

    #[test]
    fn lookup_takes_shared_reference() {
        // The accounting counters are interior-mutable: a shared reference
        // is enough to serve (and account) reads.
        let mut idx = FingerprintIndex::new();
        idx.insert(Fingerprint(3), ContainerId(1));
        let shared: &FingerprintIndex = &idx;
        assert_eq!(shared.lookup(Fingerprint(3)), Some(ContainerId(1)));
        assert_eq!(shared.lookups(), 1);
    }

    #[test]
    fn custom_entry_size() {
        let idx = FingerprintIndex::with_entry_bytes(48);
        let _ = idx.lookup(Fingerprint(1));
        assert_eq!(idx.lookup_bytes(), 48);
        assert_eq!(idx.entry_bytes(), 48);
    }

    #[test]
    fn peek_does_not_account() {
        let mut idx = FingerprintIndex::new();
        idx.insert(Fingerprint(1), ContainerId(0));
        let before = idx.lookup_bytes();
        assert_eq!(idx.peek(Fingerprint(1)), Some(ContainerId(0)));
        assert_eq!(idx.lookup_bytes(), before);
    }

    #[test]
    fn overwrite_updates_mapping() {
        let mut idx = FingerprintIndex::new();
        idx.insert(Fingerprint(1), ContainerId(0));
        idx.insert(Fingerprint(1), ContainerId(9));
        assert_eq!(idx.peek(Fingerprint(1)), Some(ContainerId(9)));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.updates(), 2);
    }

    #[test]
    fn sorted_entries_global_order() {
        let mut idx = FingerprintIndex::new();
        let fps = [u64::MAX, 3, 1 << 63, 1 << 62, 0, (1 << 63) | 7];
        for (i, &v) in fps.iter().enumerate() {
            idx.insert(Fingerprint(v), ContainerId(i as u32));
        }
        let entries = idx.sorted_entries();
        let order: Vec<u64> = entries.iter().map(|&(fp, _)| fp.value()).collect();
        let mut want = fps.to_vec();
        want.sort_unstable();
        assert_eq!(order, want);
    }

    #[test]
    fn restore_entry_bypasses_accounting() {
        let mut idx = FingerprintIndex::new();
        idx.restore_entry(Fingerprint(1), ContainerId(3));
        assert_eq!(idx.peek(Fingerprint(1)), Some(ContainerId(3)));
        assert_eq!(idx.updates(), 0);
        assert_eq!(idx.update_bytes(), 0);
        idx.set_counters([1, 32, 2, 64]);
        assert_eq!(idx.lookups(), 1);
        assert_eq!(idx.update_bytes(), 64);
        assert_eq!(idx.counters(), [1, 32, 2, 64]);
    }

    #[test]
    fn remove_accounts_like_an_update() {
        let mut idx = FingerprintIndex::new();
        idx.insert(Fingerprint(1), ContainerId(0));
        assert_eq!(idx.remove(Fingerprint(1)), Some(ContainerId(0)));
        assert_eq!(idx.peek(Fingerprint(1)), None);
        assert_eq!(idx.remove(Fingerprint(1)), None, "miss still accounted");
        assert_eq!(idx.updates(), 3);
        assert_eq!(idx.update_bytes(), 96);
    }

    #[test]
    fn remove_container_entries_accounts_each_entry() {
        let mut idx = FingerprintIndex::new();
        let fps = [0u64, 1 << 62, 1 << 63, (1 << 63) | (1 << 62)];
        for &v in &fps {
            idx.insert(Fingerprint(v), ContainerId(7));
        }
        idx.insert(Fingerprint(42), ContainerId(3));
        let removed = idx.remove_container_entries(ContainerId(7));
        assert_eq!(removed.len(), 4);
        assert!(removed.windows(2).all(|w| w[0] < w[1]), "sorted");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.peek(Fingerprint(42)), Some(ContainerId(3)));
        assert_eq!(idx.updates(), 5 + 4);
        idx.account_updates(2);
        assert_eq!(idx.updates(), 11);
        assert_eq!(idx.update_bytes(), 11 * 32);
    }

    #[test]
    #[should_panic(expected = "entry size")]
    fn zero_entry_bytes_rejected() {
        let _ = FingerprintIndex::with_entry_bytes(0);
    }
}
