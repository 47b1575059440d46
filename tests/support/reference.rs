//! The fingerprint-keyed reference: `COUNT`, `FREQ-ANALYSIS` and the
//! locality crawl (Algorithms 1–3) over one `HashMap` per table, keyed by
//! fingerprint — a paper-shaped model of the LevelDB layout (§5.2).
//!
//! It shares no code with the engine in `freqdedup::core` beyond the
//! parameter and result types, so the differential suite that compares
//! the two checks the engine against something it cannot have copied a
//! bug from.
//!
//! Tie-breaking mirrors the paper's layout, and it matters (§4.1):
//!
//! * the **global** table is keyed by fingerprint, so iterating tied
//!   entries follows key order: global entries carry `order = 0` and fall
//!   back to the fingerprint comparison;
//! * **neighbour lists** are sequential lists, so an entry carries the
//!   stream position of its first occurrence. Under `TiePolicy::KeyOrder`
//!   the position is zeroed *while counting* — the engine instead ignores
//!   it *while ranking*, so agreement under `KeyOrder` checks that rule
//!   independently.

use std::collections::{HashMap, VecDeque};

use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::AttackKind;
use freqdedup::core::{DenseStats, Inference, TiePolicy};
use freqdedup::trace::{Backup, Fingerprint};

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

/// An inferred ciphertext→plaintext pair.
pub type Pair = (Fingerprint, Fingerprint);

fn bump(table: &mut FreqTable, fp: Fingerprint, order: u32) {
    table
        .entry(fp)
        .or_insert(FreqEntry { count: 0, order })
        .count += 1;
}

/// The output of `COUNT`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// `F[X]` — occurrence count per unique chunk.
    pub freq: FreqTable,
    /// `L[X]` — left-neighbour co-occurrence counts per unique chunk.
    pub left: HashMap<Fingerprint, FreqTable>,
    /// `R[X]` — right-neighbour co-occurrence counts per unique chunk.
    pub right: HashMap<Fingerprint, FreqTable>,
    /// Observed size in bytes per unique chunk (first observation kept).
    pub sizes: HashMap<Fingerprint, u32>,
}

impl ChunkStats {
    /// `COUNT` without neighbour tables (the basic attack's).
    pub fn frequencies_only(backup: &Backup) -> Self {
        let mut stats = ChunkStats::default();
        for rec in &backup.chunks {
            bump(&mut stats.freq, rec.fp, 0);
            stats.sizes.entry(rec.fp).or_insert(rec.size);
        }
        stats
    }

    /// The full `COUNT` of Algorithm 2 over one backup.
    pub fn full(backup: &Backup, policy: TiePolicy) -> Self {
        Self::series(std::slice::from_ref(backup), policy)
    }

    /// `COUNT` over a series of backups: frequencies sum over the backups,
    /// positions run on across them (each backup's are offset by the
    /// chunks before it), and no chunk is the neighbour of one in another
    /// backup.
    pub fn series(tape: &[Backup], policy: TiePolicy) -> Self {
        let mut stats = ChunkStats::default();
        let mut base = 0;
        for backup in tape {
            let chunks = &backup.chunks;
            for (i, rec) in chunks.iter().enumerate() {
                let order = match policy {
                    TiePolicy::StreamOrder => (base + i) as u32,
                    TiePolicy::KeyOrder => 0,
                };
                bump(&mut stats.freq, rec.fp, 0);
                stats.sizes.entry(rec.fp).or_insert(rec.size);
                if i > 0 {
                    bump(
                        stats.left.entry(rec.fp).or_default(),
                        chunks[i - 1].fp,
                        order,
                    );
                }
                if i + 1 < chunks.len() {
                    bump(
                        stats.right.entry(rec.fp).or_default(),
                        chunks[i + 1].fp,
                        order,
                    );
                }
            }
            base += chunks.len();
        }
        stats
    }

    /// The engine's dense state in this representation: every row keyed
    /// back to fingerprints, empty neighbour rows left out.
    pub fn from_dense(dense: &DenseStats) -> Self {
        let fp = |id| dense.interner.fingerprint(id);
        let mut stats = ChunkStats::default();
        for id in 0..dense.unique_chunks() as u32 {
            let count = u64::from(dense.freq[id as usize]);
            stats.freq.insert(fp(id), FreqEntry { count, order: 0 });
            stats.sizes.insert(fp(id), dense.interner.size(id));
            for (csr, table) in [
                (&dense.left, &mut stats.left),
                (&dense.right, &mut stats.right),
            ] {
                let row = csr.row(id);
                if !row.is_empty() {
                    let entries = row.iter().map(|e| {
                        let count = u64::from(e.count);
                        (
                            fp(e.id),
                            FreqEntry {
                                count,
                                order: e.order,
                            },
                        )
                    });
                    table.insert(fp(id), entries.collect());
                }
            }
        }
        stats
    }

    /// Size in 16-byte cipher blocks of a counted chunk.
    pub fn blocks_of(&self, fp: Fingerprint) -> Option<u32> {
        self.sizes.get(&fp).map(|s| s.div_ceil(16))
    }
}

/// Canonical ranking order: higher count first, then earlier first
/// occurrence, then smaller fingerprint.
fn better(a: (Fingerprint, FreqEntry), b: (Fingerprint, FreqEntry)) -> bool {
    (b.1.count, a.1.order, a.0) < (a.1.count, b.1.order, b.0)
}

/// Sorts a frequency table into rows under the canonical order.
pub fn rank(table: &FreqTable) -> Vec<(Fingerprint, FreqEntry)> {
    let mut rows: Vec<(Fingerprint, FreqEntry)> = table.iter().map(|(&f, &e)| (f, e)).collect();
    rows.sort_unstable_by(|&a, &b| (b.1.count, a.1.order, a.0).cmp(&(a.1.count, b.1.order, b.0)));
    rows
}

/// The top-`k` rows under the canonical order, through a sorted buffer of
/// the best rows when `k` is small.
fn top_k(table: &FreqTable, k: usize) -> Vec<(Fingerprint, FreqEntry)> {
    if k * 8 >= table.len() {
        let mut rows = rank(table);
        rows.truncate(k);
        return rows;
    }
    let mut best: Vec<(Fingerprint, FreqEntry)> = Vec::with_capacity(k + 1);
    for (&f, &e) in table {
        let pos = best.partition_point(|&other| better(other, (f, e)));
        if pos < k {
            best.insert(pos, (f, e));
            best.truncate(k);
        }
    }
    best
}

/// Plain `FREQ-ANALYSIS`: pairs the top `x` ranks of both tables.
pub fn freq_analysis(yc: &FreqTable, ym: &FreqTable, x: usize) -> Vec<Pair> {
    let take = x.min(yc.len()).min(ym.len());
    let rc = top_k(yc, take);
    let rm = top_k(ym, take);
    rc.into_iter()
        .zip(rm)
        .map(|((c, _), (m, _))| (c, m))
        .collect()
}

/// Size-classified `FREQ-ANALYSIS` (Algorithm 3): rank-matches the top `x`
/// of every block-count class present on both sides, classes ascending;
/// chunks of unknown size are skipped.
pub fn freq_analysis_sized(
    yc: &FreqTable,
    ym: &FreqTable,
    x: usize,
    blocks_c: &impl Fn(Fingerprint) -> Option<u32>,
    blocks_m: &impl Fn(Fingerprint) -> Option<u32>,
) -> Vec<Pair> {
    let bc = classify(yc, blocks_c);
    let bm = classify(ym, blocks_m);
    let mut sizes: Vec<u32> = bc.keys().copied().collect();
    sizes.sort_unstable();
    let mut pairs = Vec::new();
    for s in sizes {
        if let Some(mm) = bm.get(&s) {
            pairs.extend(freq_analysis(&bc[&s], mm, x));
        }
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

/// `kind` in ciphertext-only mode: the basic attack (Algorithm 1) pairs
/// every global rank up to the smaller table; the locality crawl
/// (Algorithm 2, or 3 for `Advanced`) seeds `G` with the `u` top global
/// rank matches.
pub fn ciphertext_only(
    kind: AttackKind,
    params: &LocalityParams,
    sc: &ChunkStats,
    sm: &ChunkStats,
) -> Inference {
    let params = params.clone().size_aware(kind == AttackKind::Advanced);
    if kind == AttackKind::Basic {
        let limit = sc.freq.len().min(sm.freq.len());
        return freq_analysis(&sc.freq, &sm.freq, limit)
            .into_iter()
            .collect();
    }
    let seed = analyze(&params, sc, sm, &sc.freq, &sm.freq, params.u);
    crawl(&params, sc, sm, seed)
}

/// The locality crawl (Algorithm 2, or 3 with `params.size_aware`) in
/// known-plaintext mode: `G` is seeded with the leaked pairs present on
/// both sides.
pub fn known_plaintext(
    params: &LocalityParams,
    sc: &ChunkStats,
    sm: &ChunkStats,
    leaked: &[Pair],
) -> Inference {
    let seed = leaked
        .iter()
        .copied()
        .filter(|&(c, m)| sc.freq.contains_key(&c) && sm.freq.contains_key(&m))
        .collect();
    crawl(params, sc, sm, seed)
}

/// The main loop of Algorithm 2 (lines 9–23).
fn crawl(params: &LocalityParams, sc: &ChunkStats, sm: &ChunkStats, seed: Vec<Pair>) -> Inference {
    let mut t = Inference::new();
    let mut g: VecDeque<Pair> = VecDeque::new();
    for (c, m) in seed {
        if t.insert(c, m) {
            g.push_back((c, m));
        }
    }
    let empty = FreqTable::new();
    while let Some((c, m)) = g.pop_front() {
        let lc = sc.left.get(&c).unwrap_or(&empty);
        let lm = sm.left.get(&m).unwrap_or(&empty);
        let rc = sc.right.get(&c).unwrap_or(&empty);
        let rm = sm.right.get(&m).unwrap_or(&empty);
        let tl = analyze(params, sc, sm, lc, lm, params.v);
        let tr = analyze(params, sc, sm, rc, rm, params.v);
        for (c2, m2) in tl.into_iter().chain(tr) {
            if t.insert(c2, m2) && g.len() <= params.w {
                g.push_back((c2, m2));
            }
        }
    }
    t
}

/// Plain or size-classified frequency analysis, as `params` selects.
fn analyze(
    params: &LocalityParams,
    sc: &ChunkStats,
    sm: &ChunkStats,
    yc: &FreqTable,
    ym: &FreqTable,
    x: usize,
) -> Vec<Pair> {
    if params.size_aware {
        freq_analysis_sized(yc, ym, x, &|f| sc.blocks_of(f), &|f| sm.blocks_of(f))
    } else {
        freq_analysis(yc, ym, x)
    }
}
