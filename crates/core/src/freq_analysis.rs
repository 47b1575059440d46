//! The `FREQ-ANALYSIS` procedure (Algorithms 1–3): rank-matching of
//! ciphertext and plaintext chunks by frequency.
//!
//! Given two frequency tables (global rows or one chunk's neighbour rows,
//! as [`DenseEntry`] slices from [`crate::dense`]), both sides are ranked
//! and the i-th ciphertext chunk is paired with the i-th plaintext chunk.
//! Top-k selection is heap-based, since the locality crawl asks for a few
//! ranks of many rows.
//!
//! **Tie-breaking matters** (§4.1). The ranking order is higher count,
//! then earlier first-occurrence position, then smaller fingerprint.
//! Neighbour rows carry their first-seen stream position, mirroring the
//! paper's sequential LevelDB neighbour lists: chunk locality preserves
//! local stream order across backup versions, so order-based ties keep the
//! two rankings aligned where fingerprint-based ties would randomize them.
//! Global rows carry order 0, so their ties fall through to the
//! fingerprint, as in a fingerprint-keyed table. [`TiePolicy`] selects
//! whether neighbour ranks read the position at all.
//!
//! The [sized](freq_analysis_sized_dense) variant implements Algorithm 3's
//! refinement: chunks are first classified by their size in 16-byte cipher
//! blocks and rank-matching happens within each size class.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use freqdedup_trace::Fingerprint;

use crate::dense::{ChunkId, DenseEntry, DenseStats};

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
/// sides (Algorithm 1 lines 17–27 / Algorithm 2 lines 47–56). Returns at
/// most `min(x, |yc|, |ym|)` pairs.
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
/// present on both sides, classes in ascending order.
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
    // One entry per side is one class per side: paired if they agree.
    if let ([c], [m]) = (yc, ym) {
        let same = sc.blocks_of(c.id) == sm.blocks_of(m.id);
        return if same { vec![(c.id, m.id)] } else { Vec::new() };
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
    fn dense_rank_orders_count_then_position_then_fingerprint() {
        let rows = [(3u64, 5u32, 10u32), (1, 5, 2), (2, 9, 50), (7, 5, 2)];
        let (entries, fps) = dense_rows(&rows);
        let ranked = |policy| -> Vec<u64> {
            rank_dense(&entries, &fps, policy)
                .into_iter()
                .map(|e| fps[e.id as usize].0)
                .collect()
        };
        // 2 has the highest count; 1 and 7 tie on count and position, and
        // 1 has the smaller fingerprint; 3 was seen last.
        assert_eq!(ranked(TiePolicy::StreamOrder), vec![2, 1, 7, 3]);
        // `KeyOrder` ranks the same rows as if every order were 0: the
        // three count-5 rows fall through to their fingerprints.
        assert_eq!(ranked(TiePolicy::KeyOrder), vec![2, 1, 3, 7]);
    }

    #[test]
    fn order_alignment_on_tied_counts() {
        // The attack-critical case: all counts tie, but the two sides list
        // corresponding entries in the same stream order. Fingerprint-based
        // tie-breaking would scramble this pairing; order-based keeps it.
        let (yc, fps_c) = dense_rows(&[(900, 1, 5), (100, 1, 9), (500, 1, 13)]);
        let (ym, fps_m) = dense_rows(&[(42, 1, 7), (77, 1, 11), (13, 1, 15)]);
        let pairs = freq_analysis_dense(&yc, &ym, 3, &fps_c, &fps_m, TiePolicy::StreamOrder);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2)]);
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
