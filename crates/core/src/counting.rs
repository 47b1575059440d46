//! The `COUNT` procedure shared by all attacks (Algorithms 1 and 2).
//!
//! Builds, in one pass over a backup's logical chunk sequence:
//!
//! * `F` — the frequency of every unique chunk;
//! * `L` — for every chunk, the co-occurrence counts of its **left**
//!   neighbours;
//! * `R` — the same for **right** neighbours;
//! * the observed size of every unique chunk (needed by the advanced
//!   attack's block-count classification).
//!
//! Tie-breaking faithfully mirrors the paper's LevelDB layout (§5.2), and it
//! matters enormously (the tie sensitivity §4.1 warns about):
//!
//! * the **global** frequency table is keyed by fingerprint, so iterating
//!   tied entries follows key order — effectively random with respect to
//!   stream alignment. Global entries therefore carry `order = 0` and fall
//!   back to the fingerprint comparison; this is why the basic attack
//!   collapses on tie-heavy workloads.
//! * **neighbour lists** are "sequential lists of the fingerprints of all
//!   the left/right neighbors" — insertion order, i.e. stream order. Chunk
//!   locality preserves local stream order across backup versions, so
//!   order-based ties keep the ciphertext and plaintext neighbour rankings
//!   *aligned* — this is what lets the locality crawl walk chains of
//!   once-occurring chunks.
//!
//! This module is the paper-faithful, fingerprint-keyed layout. The attack
//! hot path runs on the dense-id/CSR layer of [`crate::dense`], which
//! produces bit-identical statistics; [`ChunkStats`] remains the
//! compatibility surface for figure binaries and the oracle of the
//! `dense_equivalence` tests.

use std::collections::HashMap;

use freqdedup_trace::{Backup, Fingerprint};

/// One frequency-table entry: occurrence count plus first-seen position.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreqEntry {
    /// Number of occurrences.
    pub count: u64,
    /// Stream position of the first occurrence (tie-break key).
    pub order: u32,
}

/// A frequency table keyed by fingerprint.
pub type FreqTable = HashMap<Fingerprint, FreqEntry>;

/// Co-occurrence table of one chunk's neighbours on one side.
pub type NeighborCounts = FreqTable;

fn bump(table: &mut FreqTable, fp: Fingerprint, position: u32) {
    let entry = table.entry(fp).or_insert(FreqEntry {
        count: 0,
        order: position,
    });
    entry.count += 1;
}

/// Order value for global-table entries: constant, so ties fall through to
/// the fingerprint comparison (LevelDB key order).
const GLOBAL_ORDER: u32 = 0;

/// Cheap unique-chunk estimate used to pre-size the tables: the distinct
/// count of a small prefix sample, scaled to the full stream.
///
/// The old `len/2` heuristic massively over-allocated on high-dedup traces
/// (a backup with 1M logical but 50k unique chunks reserved half a million
/// slots in **four** maps). Sampling the first few thousand chunks bounds
/// the estimate by the observed dedup ratio instead; repeated growth stays
/// amortized O(n) if the sample underestimates.
fn unique_estimate(backup: &Backup) -> usize {
    const SAMPLE: usize = 2048;
    let n = backup.len();
    if n <= SAMPLE {
        return n;
    }
    let distinct = backup.chunks[..SAMPLE]
        .iter()
        .map(|rec| rec.fp)
        .collect::<std::collections::HashSet<_>>()
        .len();
    // Scale the sampled distinct ratio to the whole stream; duplicates are
    // usually *more* common later (re-seen chunks), so this over-estimates
    // mildly rather than wildly.
    (distinct * n) / SAMPLE
}

/// Tie-break policy for **neighbour** tables (the global table always uses
/// key order, like a fingerprint-keyed LevelDB).
///
/// The default, [`TiePolicy::StreamOrder`], mirrors the paper's sequential
/// neighbour lists. [`TiePolicy::KeyOrder`] breaks every tie by fingerprint
/// — an implementation an artifact could equally plausibly have; the
/// `ablation_tiebreak` experiment shows this single choice swings the
/// locality attack's inference rate by an order of magnitude, a concrete
/// instance of the tie sensitivity §4.1 warns about.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TiePolicy {
    /// Neighbour ties break by first-occurrence stream position (sequential
    /// list order — the paper's data layout).
    #[default]
    StreamOrder,
    /// Neighbour ties break by fingerprint (key order everywhere).
    KeyOrder,
}

/// The output of `COUNT` for one backup.
#[derive(Clone, Debug, Default)]
pub struct ChunkStats {
    /// `F[X]` — occurrence count per unique chunk.
    pub freq: FreqTable,
    /// `L[X]` — left-neighbour co-occurrence counts per unique chunk.
    pub left: HashMap<Fingerprint, NeighborCounts>,
    /// `R[X]` — right-neighbour co-occurrence counts per unique chunk.
    pub right: HashMap<Fingerprint, NeighborCounts>,
    /// Observed size in bytes per unique chunk (sizes are deterministic per
    /// content, so the first observation is kept and equals every
    /// observation).
    pub sizes: HashMap<Fingerprint, u32>,
}

impl ChunkStats {
    /// Runs `COUNT` over a backup (frequencies only — cheaper; used by the
    /// basic attack).
    #[must_use]
    pub fn frequencies_only(backup: &Backup) -> Self {
        let cap = unique_estimate(backup);
        let mut stats = ChunkStats {
            freq: HashMap::with_capacity(cap),
            sizes: HashMap::with_capacity(cap),
            ..ChunkStats::default()
        };
        for rec in &backup.chunks {
            bump(&mut stats.freq, rec.fp, GLOBAL_ORDER);
            stats.sizes.entry(rec.fp).or_insert(rec.size);
        }
        stats
    }

    /// Runs the full `COUNT` of Algorithm 2 with the default
    /// [`TiePolicy::StreamOrder`].
    #[must_use]
    pub fn full(backup: &Backup) -> Self {
        Self::full_with_policy(backup, TiePolicy::StreamOrder)
    }

    /// Runs the full `COUNT` of Algorithm 2: frequencies plus left/right
    /// neighbour co-occurrence counts, with an explicit neighbour tie-break
    /// policy.
    #[must_use]
    pub fn full_with_policy(backup: &Backup, policy: TiePolicy) -> Self {
        let cap = unique_estimate(backup);
        let mut stats = ChunkStats {
            freq: HashMap::with_capacity(cap),
            left: HashMap::with_capacity(cap),
            right: HashMap::with_capacity(cap),
            sizes: HashMap::with_capacity(cap),
        };
        let chunks = &backup.chunks;
        for (i, rec) in chunks.iter().enumerate() {
            let order = match policy {
                TiePolicy::StreamOrder => i as u32,
                TiePolicy::KeyOrder => GLOBAL_ORDER,
            };
            bump(&mut stats.freq, rec.fp, GLOBAL_ORDER);
            stats.sizes.entry(rec.fp).or_insert(rec.size);
            if i > 0 {
                let left_fp = chunks[i - 1].fp;
                bump(stats.left.entry(rec.fp).or_default(), left_fp, order);
            }
            if i + 1 < chunks.len() {
                let right_fp = chunks[i + 1].fp;
                bump(stats.right.entry(rec.fp).or_default(), right_fp, order);
            }
        }
        stats
    }

    /// Number of unique chunks counted.
    #[must_use]
    pub fn unique_chunks(&self) -> usize {
        self.freq.len()
    }

    /// The left-neighbour counts of `fp`, if any.
    #[must_use]
    pub fn left_of(&self, fp: Fingerprint) -> Option<&NeighborCounts> {
        self.left.get(&fp)
    }

    /// The right-neighbour counts of `fp`, if any.
    #[must_use]
    pub fn right_of(&self, fp: Fingerprint) -> Option<&NeighborCounts> {
        self.right.get(&fp)
    }

    /// Size in 16-byte cipher blocks of a counted chunk (`ceil(size/16)`),
    /// the advanced attack's classification key. Returns `None` for unknown
    /// fingerprints.
    #[must_use]
    pub fn blocks_of(&self, fp: Fingerprint) -> Option<u32> {
        self.sizes.get(&fp).map(|s| s.div_ceil(16))
    }
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
    fn frequencies() {
        let stats = ChunkStats::full(&backup(&[1, 2, 1, 1]));
        assert_eq!(stats.freq[&fp(1)].count, 3);
        assert_eq!(stats.freq[&fp(2)].count, 1);
        assert_eq!(stats.unique_chunks(), 2);
    }

    #[test]
    fn global_table_order_is_constant() {
        // Global ties fall back to fingerprint order (LevelDB key order).
        let stats = ChunkStats::full(&backup(&[9, 5, 9, 7]));
        assert_eq!(stats.freq[&fp(9)].order, 0);
        assert_eq!(stats.freq[&fp(5)].order, 0);
        assert_eq!(stats.freq[&fp(7)].order, 0);
    }

    #[test]
    fn neighbours_counted_per_occurrence() {
        // Sequence: 1 2 1 2 — chunk 2 has left neighbour 1 twice; chunk 1 has
        // left neighbour 2 once (the second occurrence of 1).
        let stats = ChunkStats::full(&backup(&[1, 2, 1, 2]));
        assert_eq!(stats.left_of(fp(2)).unwrap()[&fp(1)].count, 2);
        assert_eq!(stats.left_of(fp(1)).unwrap()[&fp(2)].count, 1);
        assert_eq!(stats.right_of(fp(1)).unwrap()[&fp(2)].count, 2);
        assert_eq!(stats.right_of(fp(2)).unwrap()[&fp(1)].count, 1);
    }

    #[test]
    fn neighbour_order_is_stream_position() {
        // 10's right neighbours: 20 first seen at position 1, 30 at 3.
        let stats = ChunkStats::full(&backup(&[10, 20, 10, 30]));
        let rn = stats.right_of(fp(10)).unwrap();
        assert!(rn[&fp(20)].order < rn[&fp(30)].order);
    }

    #[test]
    fn first_chunk_has_no_left_neighbour() {
        let stats = ChunkStats::full(&backup(&[1, 2]));
        assert!(stats.left_of(fp(1)).is_none());
        assert!(stats.right_of(fp(2)).is_none());
    }

    #[test]
    fn paper_example_neighbour_sets() {
        // The worked example of §4.2: C = ⟨C1 C2 C5 C2 C1 C2 C3 C4 C2 C3 C4 C4⟩.
        let stats = ChunkStats::full(&backup(&[1, 2, 5, 2, 1, 2, 3, 4, 2, 3, 4, 4]));
        let left2: Vec<u64> = {
            let mut v: Vec<u64> = stats.left_of(fp(2)).unwrap().keys().map(|f| f.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(left2, vec![1, 4, 5], "L_C2 = {{C1, C4, C5}}");
        let right2: Vec<u64> = {
            let mut v: Vec<u64> = stats.right_of(fp(2)).unwrap().keys().map(|f| f.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(right2, vec![1, 3, 5], "R_C2 = {{C1, C3, C5}}");
    }

    #[test]
    fn sizes_and_blocks() {
        let b = Backup::from_chunks(
            "t",
            vec![ChunkRecord::new(1u64, 17), ChunkRecord::new(2u64, 16)],
        );
        let stats = ChunkStats::full(&b);
        assert_eq!(stats.blocks_of(fp(1)), Some(2));
        assert_eq!(stats.blocks_of(fp(2)), Some(1));
        assert_eq!(stats.blocks_of(fp(9)), None);
    }

    #[test]
    fn frequencies_only_skips_neighbours() {
        let stats = ChunkStats::frequencies_only(&backup(&[1, 2, 1]));
        assert_eq!(stats.freq[&fp(1)].count, 2);
        assert!(stats.left.is_empty());
        assert!(stats.right.is_empty());
    }

    #[test]
    fn empty_backup() {
        let stats = ChunkStats::full(&backup(&[]));
        assert_eq!(stats.unique_chunks(), 0);
    }

    #[test]
    fn single_chunk_backup() {
        let stats = ChunkStats::full(&backup(&[42]));
        assert_eq!(stats.freq[&fp(42)].count, 1);
        assert!(stats.left_of(fp(42)).is_none());
        assert!(stats.right_of(fp(42)).is_none());
    }
}
