//! The `FREQ-ANALYSIS` procedure (Algorithms 1–3): rank-matching of
//! ciphertext and plaintext chunks by frequency.
//!
//! Given two frequency tables, both sides are sorted by descending count and
//! the i-th ciphertext chunk is paired with the i-th plaintext chunk.
//!
//! **Tie-breaking matters** (§4.1). Entries with equal counts are ordered by
//! their first-occurrence position in the stream, mirroring the paper's
//! sequential LevelDB neighbour lists: chunk locality preserves local stream
//! order across backup versions, so order-based ties keep the two rankings
//! aligned where fingerprint-based ties would randomize them. The final
//! fallback is the fingerprint value, pinning a canonical total order for
//! reproducibility.
//!
//! The [sized](freq_analysis_sized) variant implements Algorithm 3's
//! refinement: chunks are first classified by their size in 16-byte cipher
//! blocks and rank-matching happens within each size class.
//!
//! Two parallel implementations exist:
//!
//! * the **fingerprint-keyed** functions below operate on [`FreqTable`]s
//!   (the paper-faithful LevelDB-style layout; retained as the reference
//!   implementation and compatibility surface);
//! * the **dense** functions ([`rank_dense`], [`top_k_dense`],
//!   [`freq_analysis_dense`], [`freq_analysis_sized_dense`]) operate on
//!   id-indexed [`DenseEntry`] slices from [`crate::dense`] with heap-based
//!   top-k selection — the hot path of the locality crawl. Both produce
//!   identical rankings under the canonical order (verified by the
//!   `dense_equivalence` property tests).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use freqdedup_trace::Fingerprint;

use crate::counting::{FreqEntry, FreqTable, TiePolicy};
use crate::dense::{ChunkId, DenseEntry, DenseStats};

/// An inferred ciphertext→plaintext pair.
pub type Pair = (Fingerprint, Fingerprint);

/// Canonical ranking order: higher count first, then earlier first
/// occurrence, then smaller fingerprint.
fn better(a: (Fingerprint, FreqEntry), b: (Fingerprint, FreqEntry)) -> bool {
    (b.1.count, a.1.order, a.0) < (a.1.count, b.1.order, b.0)
}

/// Sorts a frequency table into `(fingerprint, entry)` rows under the
/// canonical order.
#[must_use]
pub fn rank(table: &FreqTable) -> Vec<(Fingerprint, FreqEntry)> {
    let mut rows: Vec<(Fingerprint, FreqEntry)> = table.iter().map(|(&f, &e)| (f, e)).collect();
    rows.sort_unstable_by(|&a, &b| (b.1.count, a.1.order, a.0).cmp(&(a.1.count, b.1.order, b.0)));
    rows
}

/// Plain `FREQ-ANALYSIS`: pairs the top `x` ranks of both tables
/// (Algorithm 1 lines 17–27 / Algorithm 2 lines 47–56).
///
/// Returns at most `min(x, |yc|, |ym|)` pairs.
#[must_use]
pub fn freq_analysis(yc: &FreqTable, ym: &FreqTable, x: usize) -> Vec<Pair> {
    let take = x.min(yc.len()).min(ym.len());
    if take == 0 {
        return Vec::new();
    }
    let rc = top_k(yc, take);
    let rm = top_k(ym, take);
    rc.into_iter()
        .zip(rm)
        .map(|((c, _), (m, _))| (c, m))
        .collect()
}

/// Returns the top-`k` rows of a table under the canonical order, without
/// sorting the whole table when `k` is small.
fn top_k(table: &FreqTable, k: usize) -> Vec<(Fingerprint, FreqEntry)> {
    if k * 8 >= table.len() {
        let mut rows = rank(table);
        rows.truncate(k);
        return rows;
    }
    // Keep a sorted buffer of the k best rows: O(n·log k) for k ≪ n, the
    // common case in the locality attack's inner loop.
    let mut best: Vec<(Fingerprint, FreqEntry)> = Vec::with_capacity(k + 1);
    for (&f, &e) in table {
        let row = (f, e);
        let pos = best.partition_point(|&other| better(other, row));
        if pos < k {
            best.insert(pos, row);
            if best.len() > k {
                best.pop();
            }
        }
    }
    best
}

/// Size-classified `FREQ-ANALYSIS` (Algorithm 3): groups both tables by the
/// chunk size in 16-byte blocks (`CLASSIFY`), then rank-matches the top `x`
/// of every size class present on both sides.
///
/// `blocks_c` / `blocks_m` report the block count of a chunk; chunks whose
/// size is unknown (`None`) are skipped.
#[must_use]
pub fn freq_analysis_sized(
    yc: &FreqTable,
    ym: &FreqTable,
    x: usize,
    blocks_c: &impl Fn(Fingerprint) -> Option<u32>,
    blocks_m: &impl Fn(Fingerprint) -> Option<u32>,
) -> Vec<Pair> {
    if x == 0 || yc.is_empty() || ym.is_empty() {
        return Vec::new();
    }
    let bc = classify(yc, blocks_c);
    let bm = classify(ym, blocks_m);
    let mut pairs = Vec::new();
    // Iterate size classes in ascending order for determinism.
    let mut sizes: Vec<u32> = bc.keys().copied().collect();
    sizes.sort_unstable();
    for s in sizes {
        let Some(mc) = bc.get(&s) else { continue };
        let Some(mm) = bm.get(&s) else { continue };
        pairs.extend(freq_analysis(mc, mm, x));
    }
    pairs
}

/// `CLASSIFY` (Algorithm 3): buckets a frequency table by block count.
fn classify(
    table: &FreqTable,
    blocks: &impl Fn(Fingerprint) -> Option<u32>,
) -> HashMap<u32, FreqTable> {
    let mut out: HashMap<u32, FreqTable> = HashMap::new();
    for (&f, &e) in table {
        if let Some(s) = blocks(f) {
            out.entry(s).or_default().insert(f, e);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Dense (id-indexed) variants — the attack hot path.
// ---------------------------------------------------------------------------

/// An inferred ciphertext→plaintext pair in dense-id space.
pub type DensePair = (ChunkId, ChunkId);

/// The canonical sort key of a dense row: ascending order = better rank
/// (higher count, earlier first occurrence, smaller fingerprint).
///
/// This is where the tie policy acts, and the only place: `COUNT` always
/// records first-seen positions, and [`TiePolicy::KeyOrder`] ranks as if
/// every one of them were 0, so equal counts fall through to the
/// fingerprint. The fingerprint — not the dense id — is the final
/// tie-break, so interning cannot perturb the canonical order.
#[inline]
fn dense_key(e: &DenseEntry, fps: &[Fingerprint], policy: TiePolicy) -> (Reverse<u32>, u32, u64) {
    let order = match policy {
        TiePolicy::StreamOrder => e.order,
        TiePolicy::KeyOrder => 0,
    };
    (Reverse(e.count), order, fps[e.id as usize].0)
}

/// Sorts dense rows under the canonical order (best first). `fps` is the
/// id→fingerprint table of the side the rows belong to.
#[must_use]
pub fn rank_dense(rows: &[DenseEntry], fps: &[Fingerprint], policy: TiePolicy) -> Vec<DenseEntry> {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable_by_key(|e| dense_key(e, fps, policy));
    sorted
}

/// Returns the top-`k` dense rows under the canonical order using a bounded
/// max-heap: `O(n·log k)` and no full materialization when `k ≪ n` — the
/// common case in the locality crawl (`v = 15` against neighbour rows and
/// `u = 1` against the global table).
#[must_use]
pub fn top_k_dense(
    rows: &[DenseEntry],
    k: usize,
    fps: &[Fingerprint],
    policy: TiePolicy,
) -> Vec<DenseEntry> {
    if k == 0 || rows.is_empty() {
        return Vec::new();
    }
    if k * 8 >= rows.len() {
        let mut sorted = rank_dense(rows, fps, policy);
        sorted.truncate(k);
        return sorted;
    }
    // Max-heap on the canonical key (plus the row's index, to hand the row
    // itself back): the root is the *worst* of the k best rows kept so far,
    // evicted whenever a better candidate arrives.
    let mut heap = BinaryHeap::with_capacity(k + 1);
    for (i, e) in rows.iter().enumerate() {
        let key = (dense_key(e, fps, policy), i);
        if heap.len() < k {
            heap.push(key);
        } else if key < *heap.peek().expect("non-empty heap") {
            heap.pop();
            heap.push(key);
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|(_, i)| rows[i])
        .collect()
}

/// Plain `FREQ-ANALYSIS` over dense rows: pairs the top `x` ranks of both
/// sides. Mirrors [`freq_analysis`] bit-for-bit in fingerprint space.
#[must_use]
pub fn freq_analysis_dense(
    yc: &[DenseEntry],
    ym: &[DenseEntry],
    x: usize,
    fps_c: &[Fingerprint],
    fps_m: &[Fingerprint],
    policy: TiePolicy,
) -> Vec<DensePair> {
    let take = x.min(yc.len()).min(ym.len());
    if take == 0 {
        return Vec::new();
    }
    let rc = top_k_dense(yc, take, fps_c, policy);
    let rm = top_k_dense(ym, take, fps_m, policy);
    rc.into_iter().zip(rm).map(|(c, m)| (c.id, m.id)).collect()
}

/// Size-classified `FREQ-ANALYSIS` over dense rows (Algorithm 3): buckets
/// both sides by block count, then rank-matches the top `x` of every class
/// present on both sides, classes in ascending order. Mirrors
/// [`freq_analysis_sized`] bit-for-bit in fingerprint space.
#[must_use]
pub fn freq_analysis_sized_dense(
    yc: &[DenseEntry],
    ym: &[DenseEntry],
    x: usize,
    sc: &DenseStats,
    sm: &DenseStats,
    policy: TiePolicy,
) -> Vec<DensePair> {
    if x == 0 || yc.is_empty() || ym.is_empty() {
        return Vec::new();
    }
    let bc = classify_dense(yc, sc);
    let bm = classify_dense(ym, sm);
    let mut pairs = Vec::new();
    for (class, rows_c) in &bc {
        let Some(rows_m) = bm.get(class) else {
            continue;
        };
        pairs.extend(freq_analysis_dense(
            rows_c,
            rows_m,
            x,
            sc.interner.fingerprints(),
            sm.interner.fingerprints(),
            policy,
        ));
    }
    pairs
}

/// `CLASSIFY` over dense rows: buckets by block count, ascending class
/// iteration for determinism.
fn classify_dense(rows: &[DenseEntry], stats: &DenseStats) -> BTreeMap<u32, Vec<DenseEntry>> {
    let mut out: BTreeMap<u32, Vec<DenseEntry>> = BTreeMap::new();
    for &e in rows {
        out.entry(stats.blocks_of(e.id)).or_default().push(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint(v)
    }

    /// Table from (fp, count, order) triples.
    fn table(rows: &[(u64, u64, u32)]) -> FreqTable {
        rows.iter()
            .map(|&(f, c, o)| (fp(f), FreqEntry { count: c, order: o }))
            .collect()
    }

    #[test]
    fn rank_descending_count_then_order() {
        let t = table(&[(3, 5, 10), (1, 5, 2), (2, 9, 50)]);
        let r: Vec<u64> = rank(&t).into_iter().map(|(f, _)| f.0).collect();
        // 2 has the highest count; 1 and 3 tie on count, 1 was seen earlier.
        assert_eq!(r, vec![2, 1, 3]);
    }

    #[test]
    fn rank_fingerprint_is_last_resort() {
        let t = table(&[(7, 1, 0), (4, 1, 0)]);
        let r: Vec<u64> = rank(&t).into_iter().map(|(f, _)| f.0).collect();
        assert_eq!(r, vec![4, 7]);
    }

    #[test]
    fn pairs_by_rank() {
        let yc = table(&[(101, 10, 0), (102, 5, 1), (103, 1, 2)]);
        let ym = table(&[(201, 8, 0), (202, 4, 1), (203, 2, 2)]);
        let pairs = freq_analysis(&yc, &ym, 10);
        assert_eq!(
            pairs,
            vec![(fp(101), fp(201)), (fp(102), fp(202)), (fp(103), fp(203))]
        );
    }

    #[test]
    fn order_alignment_on_tied_counts() {
        // The attack-critical case: all counts tie, but the two sides list
        // corresponding entries in the same stream order. Fingerprint-based
        // tie-breaking would scramble this pairing; order-based keeps it.
        let yc = table(&[(900, 1, 5), (100, 1, 9), (500, 1, 13)]);
        let ym = table(&[(42, 1, 7), (77, 1, 11), (13, 1, 15)]);
        let pairs = freq_analysis(&yc, &ym, 3);
        assert_eq!(
            pairs,
            vec![(fp(900), fp(42)), (fp(100), fp(77)), (fp(500), fp(13))]
        );
    }

    #[test]
    fn respects_x_limit() {
        let yc = table(&[(1, 3, 0), (2, 2, 1), (3, 1, 2)]);
        let ym = table(&[(4, 3, 0), (5, 2, 1), (6, 1, 2)]);
        assert_eq!(freq_analysis(&yc, &ym, 1), vec![(fp(1), fp(4))]);
        assert_eq!(freq_analysis(&yc, &ym, 0), vec![]);
    }

    #[test]
    fn respects_min_table_size() {
        let yc = table(&[(1, 3, 0), (2, 2, 1)]);
        let ym = table(&[(4, 3, 0)]);
        assert_eq!(freq_analysis(&yc, &ym, 5), vec![(fp(1), fp(4))]);
    }

    #[test]
    fn empty_tables() {
        let empty = table(&[]);
        let some = table(&[(1, 1, 0)]);
        assert!(freq_analysis(&empty, &some, 5).is_empty());
        assert!(freq_analysis(&some, &empty, 5).is_empty());
    }

    #[test]
    fn top_k_matches_full_sort() {
        // Cross-check the selection path against the sort path.
        let mut rows = Vec::new();
        let mut x = 99u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rows.push((i, x % 50, (x % 1000) as u32));
        }
        let t = table(&rows);
        let full = rank(&t);
        for k in [1usize, 3, 10, 100, 500] {
            let selected = top_k(&t, k);
            assert_eq!(selected, full[..k.min(full.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn sized_analysis_pairs_within_class() {
        // Two size classes; ranks must not cross classes.
        let yc = table(&[(1, 10, 0), (2, 9, 1), (3, 8, 2)]);
        let ym = table(&[(11, 7, 0), (12, 6, 1), (13, 5, 2)]);
        // Cipher: 1,3 are 1-block; 2 is 2-block. Plain: 11,13 1-block; 12 2-block.
        let bc = |f: Fingerprint| Some(if f.0 == 2 { 2 } else { 1 });
        let bm = |f: Fingerprint| Some(if f.0 == 12 { 2 } else { 1 });
        let mut pairs = freq_analysis_sized(&yc, &ym, 10, &bc, &bm);
        pairs.sort_unstable();
        let mut expected = vec![(fp(1), fp(11)), (fp(3), fp(13)), (fp(2), fp(12))];
        expected.sort_unstable();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn sized_analysis_skips_classes_missing_on_one_side() {
        let yc = table(&[(1, 10, 0)]);
        let ym = table(&[(11, 7, 0)]);
        let bc = |_f: Fingerprint| Some(1);
        let bm = |_f: Fingerprint| Some(2);
        assert!(freq_analysis_sized(&yc, &ym, 10, &bc, &bm).is_empty());
    }

    #[test]
    fn sized_analysis_skips_unknown_sizes() {
        let yc = table(&[(1, 10, 0), (2, 5, 1)]);
        let ym = table(&[(11, 7, 0), (12, 5, 1)]);
        let bc = |f: Fingerprint| if f.0 == 1 { Some(1) } else { None };
        let bm = |f: Fingerprint| if f.0 == 11 { Some(1) } else { None };
        assert_eq!(
            freq_analysis_sized(&yc, &ym, 10, &bc, &bm),
            vec![(fp(1), fp(11))]
        );
    }

    #[test]
    fn sized_equals_plain_when_sizes_uniform() {
        // Fixed-size chunking (VM dataset): the advanced attack degenerates
        // to the plain one.
        let yc = table(&[(1, 5, 0), (2, 4, 1), (3, 3, 2)]);
        let ym = table(&[(11, 6, 0), (12, 5, 1), (13, 4, 2)]);
        let plain = freq_analysis(&yc, &ym, 10);
        let sized = freq_analysis_sized(&yc, &ym, 10, &|_| Some(256), &|_| Some(256));
        assert_eq!(plain, sized);
    }

    /// Dense rows plus a synthetic fps table where id i ↔ fingerprint
    /// `fp_of[i]`.
    fn dense_rows(rows: &[(u64, u32, u32)]) -> (Vec<DenseEntry>, Vec<Fingerprint>) {
        let fps: Vec<Fingerprint> = rows.iter().map(|&(f, _, _)| fp(f)).collect();
        let entries = rows
            .iter()
            .enumerate()
            .map(|(id, &(_, c, o))| DenseEntry {
                id: id as u32,
                count: c,
                order: o,
            })
            .collect();
        (entries, fps)
    }

    #[test]
    fn dense_rank_matches_fingerprint_rank() {
        let rows = [(3u64, 5u32, 10u32), (1, 5, 2), (2, 9, 50), (7, 5, 2)];
        let (entries, fps) = dense_rows(&rows);
        let table: FreqTable = rows
            .iter()
            .map(|&(f, c, o)| {
                (
                    fp(f),
                    FreqEntry {
                        count: u64::from(c),
                        order: o,
                    },
                )
            })
            .collect();
        let legacy: Vec<u64> = rank(&table).into_iter().map(|(f, _)| f.0).collect();
        let dense: Vec<u64> = rank_dense(&entries, &fps, TiePolicy::StreamOrder)
            .into_iter()
            .map(|e| fps[e.id as usize].0)
            .collect();
        assert_eq!(legacy, dense);
        // `KeyOrder` ranks the same rows as if every order were 0: the
        // three count-5 rows fall through to their fingerprints.
        let by_key: Vec<u64> = rank_dense(&entries, &fps, TiePolicy::KeyOrder)
            .into_iter()
            .map(|e| fps[e.id as usize].0)
            .collect();
        assert_eq!(by_key, vec![2, 1, 3, 7]);
    }

    #[test]
    fn dense_top_k_matches_dense_full_sort() {
        let mut rows = Vec::new();
        let mut x = 7u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rows.push((i * 31 % 997, (x % 50) as u32, (x % 1000) as u32));
        }
        let (entries, fps) = dense_rows(&rows);
        for policy in [TiePolicy::StreamOrder, TiePolicy::KeyOrder] {
            let full = rank_dense(&entries, &fps, policy);
            for k in [1usize, 3, 10, 100, 500] {
                assert_eq!(
                    top_k_dense(&entries, k, &fps, policy),
                    full[..k.min(full.len())].to_vec(),
                    "k={k} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn dense_top_k_edge_cases() {
        let (entries, fps) = dense_rows(&[(1, 4, 0), (2, 2, 1)]);
        assert!(top_k_dense(&entries, 0, &fps, TiePolicy::StreamOrder).is_empty());
        assert!(top_k_dense(&[], 5, &fps, TiePolicy::StreamOrder).is_empty());
        assert_eq!(
            top_k_dense(&entries, 10, &fps, TiePolicy::StreamOrder).len(),
            2
        );
    }

    #[test]
    fn dense_pairs_by_rank() {
        let (yc, fps_c) = dense_rows(&[(101, 10, 0), (102, 5, 1), (103, 1, 2)]);
        let (ym, fps_m) = dense_rows(&[(201, 8, 0), (202, 4, 1), (203, 2, 2)]);
        let pairs = freq_analysis_dense(&yc, &ym, 10, &fps_c, &fps_m, TiePolicy::StreamOrder);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(
            freq_analysis_dense(&yc, &ym, 1, &fps_c, &fps_m, TiePolicy::StreamOrder).len(),
            1
        );
        assert!(
            freq_analysis_dense(&yc, &[], 5, &fps_c, &fps_m, TiePolicy::StreamOrder).is_empty()
        );
    }
}
