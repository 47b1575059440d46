//! The locality-based attack (Algorithm 2), the paper's main attack.
//!
//! Starting from a small set of high-confidence ciphertext→plaintext pairs
//! (top-frequency matches in ciphertext-only mode, or leaked pairs in
//! known-plaintext mode), the attack repeatedly applies frequency analysis
//! to the **left and right neighbour co-occurrence tables** of each inferred
//! pair: if `M` is the plaintext of `C`, chunk locality makes it likely that
//! frequent neighbours of `M` are the plaintexts of frequent neighbours of
//! `C`. Newly inferred pairs are queued and processed in FIFO order until
//! the queue drains.
//!
//! Parameters (§4.2, Table 1):
//!
//! * `u` — pairs seeded by global frequency analysis (ciphertext-only mode);
//! * `v` — pairs taken from each neighbour-table frequency analysis;
//! * `w` — capacity bound of the inferred set `G` (memory guard).
//!
//! The attack runs on the dense-id/CSR layer of [`crate::dense`]: `COUNT`
//! interns fingerprints to contiguous `u32` ids and buckets each side's
//! neighbour table by row with a counting sort, and the crawl walks
//! contiguous CSR rows. The crawl revisits hot plaintexts often, so it
//! ranks each auxiliary neighbour row at most once and reuses the prefix
//! of that ranking a later step needs.
//! `tests/attack_equivalence.rs` checks the crawl against a
//! fingerprint-keyed reference.

use std::collections::VecDeque;

use freqdedup_trace::{Backup, Fingerprint};

use crate::dense::{ChunkId, DenseEntry, DenseStats};
use crate::freq_analysis::{
    freq_analysis_dense, freq_analysis_sized_dense, top_k_dense, DensePair, TiePolicy,
};
use crate::metrics::Inference;

/// Tunable parameters of the locality-based attack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalityParams {
    /// Number of top-frequency pairs used to seed `G` in ciphertext-only
    /// mode (paper default: 1).
    pub u: usize,
    /// Pairs returned by each per-neighbourhood frequency analysis
    /// (paper default: 15).
    pub v: usize,
    /// Maximum size of the inferred set `G` (paper default: 200,000 in
    /// ciphertext-only mode, 500,000 in known-plaintext mode).
    pub w: usize,
    /// Whether frequency analysis is size-classified (Algorithm 3). Prefer
    /// [`crate::attacks::advanced::AdvancedAttack`] over setting this
    /// directly.
    pub size_aware: bool,
    /// Neighbour-table tie-break policy (see [`TiePolicy`]), applied when
    /// rows are ranked — the state an attack runs on is built without it.
    pub tie_policy: TiePolicy,
}

impl LocalityParams {
    /// The paper's ciphertext-only defaults: `u=1, v=15, w=200,000`.
    #[must_use]
    pub fn new(u: usize, v: usize, w: usize) -> Self {
        LocalityParams {
            u,
            v,
            w,
            size_aware: false,
            tie_policy: TiePolicy::StreamOrder,
        }
    }

    /// The paper's known-plaintext configuration (`w` raised to 500,000).
    #[must_use]
    pub fn known_plaintext_default() -> Self {
        LocalityParams {
            w: 500_000,
            ..Self::default()
        }
    }

    /// Sets size-aware frequency analysis (builder style).
    #[must_use]
    pub fn size_aware(mut self, enabled: bool) -> Self {
        self.size_aware = enabled;
        self
    }

    /// Sets the neighbour-table tie-break policy (builder style).
    #[must_use]
    pub fn tie_policy(mut self, policy: TiePolicy) -> Self {
        self.tie_policy = policy;
        self
    }
}

impl Default for LocalityParams {
    fn default() -> Self {
        LocalityParams::new(1, 15, 200_000)
    }
}

/// The locality-based attack (Algorithm 2).
#[derive(Clone, Debug)]
pub struct LocalityAttack {
    params: LocalityParams,
}

impl LocalityAttack {
    /// Creates the attack with the given parameters.
    #[must_use]
    pub fn new(params: LocalityParams) -> Self {
        LocalityAttack { params }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &LocalityParams {
        &self.params
    }

    /// Ciphertext-only mode: `G` is seeded with the `u` most frequent
    /// ciphertext/plaintext rank matches.
    #[must_use]
    pub fn run_ciphertext_only(&self, cipher: &Backup, plain_aux: &Backup) -> Inference {
        let sc = DenseStats::full(cipher);
        let sm = DenseStats::full(plain_aux);
        self.run_ciphertext_only_with_stats(&sc, &sm)
    }

    /// Ciphertext-only mode over pre-built attack state on both sides: a
    /// batch `COUNT`, or a running
    /// [`crate::streaming::IncrementalStats`] flattened by
    /// [`crate::streaming::IncrementalStats::to_dense`].
    #[must_use]
    pub fn run_ciphertext_only_with_stats(&self, sc: &DenseStats, sm: &DenseStats) -> Inference {
        let seed = self.analyze_dense(sc, sm, &sc.global_rows(), &sm.global_rows(), self.params.u);
        self.run_from_seed_dense(sc, sm, seed)
    }

    /// Known-plaintext mode: `G` is seeded with the leaked pairs that appear
    /// in both `C` and `M`.
    #[must_use]
    pub fn run_known_plaintext(
        &self,
        cipher: &Backup,
        plain_aux: &Backup,
        leaked: &[(Fingerprint, Fingerprint)],
    ) -> Inference {
        let sc = DenseStats::full(cipher);
        let sm = DenseStats::full(plain_aux);
        self.run_known_plaintext_with_stats(&sc, &sm, leaked)
    }

    /// Known-plaintext mode over pre-built attack state on both sides
    /// (see [`Self::run_ciphertext_only_with_stats`]).
    #[must_use]
    pub fn run_known_plaintext_with_stats(
        &self,
        sc: &DenseStats,
        sm: &DenseStats,
        leaked: &[(Fingerprint, Fingerprint)],
    ) -> Inference {
        let seed: Vec<DensePair> = leaked
            .iter()
            .filter_map(|&(c, m)| Some((sc.interner.get(c)?, sm.interner.get(m)?)))
            .collect();
        self.run_from_seed_dense(sc, sm, seed)
    }

    /// The main loop of Algorithm 2 (lines 9–23) over dense ids.
    ///
    /// The inferred set `T` is a flat id-indexed array (`u32::MAX` =
    /// uninferred), so the duplicate-ciphertext guard is one indexed load
    /// instead of a hash probe, and each neighbour row is one contiguous
    /// CSR slice per side.
    ///
    /// Plain analysis pairs the cipher row's top `take = min(v, |yc|, |ym|)`
    /// with the first `take` of the auxiliary row's memoised top `v`: the
    /// rank order is strict within a side, so that prefix *is* the row's top
    /// `take`, as [`freq_analysis_dense`] would rank it. A one-entry row
    /// (most rows of an FSL stream) is its own top 1 and is not ranked.
    fn run_from_seed_dense(
        &self,
        sc: &DenseStats,
        sm: &DenseStats,
        seed: Vec<DensePair>,
    ) -> Inference {
        const UNINFERRED: u32 = u32::MAX;
        let mut inferred: Vec<u32> = vec![UNINFERRED; sc.unique_chunks()];
        let mut total = 0usize;
        let mut g: VecDeque<DensePair> = VecDeque::new();
        for (c, m) in seed {
            if inferred[c as usize] == UNINFERRED {
                inferred[c as usize] = m;
                total += 1;
                g.push_back((c, m));
            }
        }

        let (v, policy) = (self.params.v, self.params.tie_policy);
        let (fps_c, fps_m) = (sc.interner.fingerprints(), sm.interner.fingerprints());
        // Per side, each multi-entry auxiliary row's top `min(v, |row|)` ids,
        // ranked on the first visit: `start[m]` indexes `ids` (`u32::MAX` = not
        // yet). A step reads on from `start[m]`; the zip stops at the cipher's `take`.
        let memo = || (vec![u32::MAX; sm.unique_chunks()], Vec::<ChunkId>::new());
        let (mut left, mut right) = (memo(), memo());
        let mut top_c: Vec<ChunkId> = Vec::new();
        while let Some((c, m)) = g.pop_front() {
            for (csr_c, csr_m, (start, ids)) in [
                (&sc.left, &sm.left, &mut left),
                (&sc.right, &sm.right, &mut right),
            ] {
                let (yc, ym) = (csr_c.row(c), csr_m.row(m));
                let take = v.min(yc.len()).min(ym.len());
                if take == 0 {
                    continue;
                }
                let mut infer = |c2: ChunkId, m2: ChunkId| {
                    if inferred[c2 as usize] == UNINFERRED {
                        inferred[c2 as usize] = m2;
                        total += 1;
                        if g.len() <= self.params.w {
                            g.push_back((c2, m2));
                        }
                    }
                };
                if self.params.size_aware {
                    for (c2, m2) in freq_analysis_sized_dense(yc, ym, v, sc, sm, policy) {
                        infer(c2, m2);
                    }
                    continue;
                }
                let rm: &[ChunkId] = if let [e] = ym {
                    std::slice::from_ref(&e.id)
                } else {
                    if start[m as usize] == u32::MAX {
                        start[m as usize] = ids.len() as u32;
                        let top = top_k_dense(ym, v.min(ym.len()), fps_m, policy);
                        ids.extend(top.iter().map(|e| e.id));
                    }
                    &ids[start[m as usize] as usize..]
                };
                let rc: &[ChunkId] = if let [e] = yc {
                    std::slice::from_ref(&e.id)
                } else {
                    top_c.clear();
                    top_c.extend(top_k_dense(yc, take, fps_c, policy).iter().map(|e| e.id));
                    &top_c
                };
                for (&c2, &m2) in rc.iter().zip(rm) {
                    infer(c2, m2);
                }
            }
        }

        let mut t = Inference::with_capacity(total);
        for (c, &m) in inferred.iter().enumerate() {
            if m != UNINFERRED {
                t.insert(fps_c[c], fps_m[m as usize]);
            }
        }
        t
    }

    /// Dispatches to plain or size-classified dense frequency analysis.
    fn analyze_dense(
        &self,
        sc: &DenseStats,
        sm: &DenseStats,
        yc: &[DenseEntry],
        ym: &[DenseEntry],
        x: usize,
    ) -> Vec<DensePair> {
        if self.params.size_aware {
            freq_analysis_sized_dense(yc, ym, x, sc, sm, self.params.tie_policy)
        } else {
            let (fps_c, fps_m) = (sc.interner.fingerprints(), sm.interner.fingerprints());
            freq_analysis_dense(yc, ym, x, fps_c, fps_m, self.params.tie_policy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score;
    use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
    use freqdedup_trace::ChunkRecord;

    fn backup(fps: &[u64]) -> Backup {
        Backup::from_chunks("t", fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    fn small_params() -> LocalityParams {
        LocalityParams::new(1, 1, 1000)
    }

    /// The paper's worked example (§4.2, Fig. 3): M = ⟨M1 M2 M1 M2 M3 M4 M2
    /// M3 M4⟩, C = ⟨C1 C2 C5 C2 C1 C2 C3 C4 C2 C3 C4 C4⟩ where Ci encrypts
    /// Mi (C5 is new). With u=v=1 the attack recovers C1..C4 but not C5.
    #[test]
    fn paper_worked_example() {
        let aux = backup(&[1, 2, 1, 2, 3, 4, 2, 3, 4]);
        // Build the cipher stream directly with a known truth mapping:
        // cipher fp = plain fp + 100; C5 = 105 has no plaintext in M.
        let cipher = backup(&[101, 102, 105, 102, 101, 102, 103, 104, 102, 103, 104, 104]);
        let mut truth = freqdedup_mle::trace_enc::GroundTruth::new();
        for i in 1..=4u64 {
            truth.record(Fingerprint(100 + i), Fingerprint(i));
        }
        truth.record(Fingerprint(105), Fingerprint(999)); // "some new chunk"

        let attack = LocalityAttack::new(small_params());
        let inferred = attack.run_ciphertext_only(&cipher, &aux);

        // All four real pairs recovered...
        for i in 1..=4u64 {
            assert_eq!(
                inferred.plain_of(Fingerprint(100 + i)),
                Some(Fingerprint(i)),
                "C{i} should map to M{i}"
            );
        }
        // ...and C5 not inferred correctly (its plaintext is absent from M).
        let report = score(&inferred, &cipher, &truth);
        assert_eq!(report.correct, 4);
        assert_eq!(report.total_unique, 5);
    }

    #[test]
    fn recovers_identical_backup_nearly_fully() {
        // A realistic shape: hot chunks with distinct frequencies (a stable
        // frequency-rank anchor) adjoining a long chain of once-occurring
        // chunks. The u=1 seed hits the anchor; the crawl then walks the
        // unique chain stepwise.
        let mut fps: Vec<u64> = Vec::new();
        for _ in 0..50 {
            fps.extend([1u64, 2, 2]);
        }
        fps.extend(1000..2000u64);
        let plain = backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let attack = LocalityAttack::new(LocalityParams::default());
        let inferred = attack.run_ciphertext_only(&observed.backup, &plain);
        let report = score(&inferred, &observed.backup, &observed.truth);
        assert!(report.rate > 0.9, "rate {}", report.rate);
    }

    #[test]
    fn known_plaintext_seed_expands() {
        // Aux shares the *sequence* but global frequencies are uniform, so
        // ciphertext-only seeding with u=1 may start from a tie; a leaked
        // pair in the middle lets the attack walk both directions.
        let fps: Vec<u64> = (0..200u64).collect();
        let plain = backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let leaked = vec![(observed.backup.chunks[100].fp, plain.chunks[100].fp)];
        let attack = LocalityAttack::new(LocalityParams::known_plaintext_default());
        let inferred = attack.run_known_plaintext(&observed.backup, &plain, &leaked);
        let report = score(&inferred, &observed.backup, &observed.truth);
        assert!(report.rate > 0.95, "rate {}", report.rate);
    }

    #[test]
    fn known_plaintext_filters_foreign_leaks() {
        let plain = backup(&[1, 2, 3]);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        // A leaked pair whose plaintext does not appear in the aux backup
        // must be discarded (Algorithm 2 line 7).
        let aux = backup(&[7, 8, 9]);
        let leaked = vec![(observed.backup.chunks[0].fp, Fingerprint(1))];
        let attack = LocalityAttack::new(small_params());
        let inferred = attack.run_known_plaintext(&observed.backup, &aux, &leaked);
        assert!(inferred.is_empty());
    }

    #[test]
    fn w_bounds_queue_growth() {
        // With w=0 the seed pair is processed but nothing new is enqueued
        // beyond the first expansion wave.
        let fps: Vec<u64> = (0..100u64).collect();
        let plain = backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let leaked = vec![(observed.backup.chunks[50].fp, plain.chunks[50].fp)];
        let unbounded = LocalityAttack::new(LocalityParams::new(1, 15, 100_000))
            .run_known_plaintext(&observed.backup, &plain, &leaked);
        let bounded = LocalityAttack::new(LocalityParams::new(1, 15, 0)).run_known_plaintext(
            &observed.backup,
            &plain,
            &leaked,
        );
        assert!(bounded.len() < unbounded.len());
    }

    #[test]
    fn empty_aux_yields_nothing() {
        let plain = backup(&[1, 2, 3]);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let inferred =
            LocalityAttack::new(small_params()).run_ciphertext_only(&observed.backup, &backup(&[]));
        assert!(inferred.is_empty());
    }

    #[test]
    fn one_pair_per_ciphertext() {
        let fps: Vec<u64> = (0..50u64).chain(0..50u64).collect();
        let plain = backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let inferred = LocalityAttack::new(LocalityParams::default())
            .run_ciphertext_only(&observed.backup, &plain);
        // No ciphertext fingerprint can appear twice in T by construction;
        // verify via the public API that the count matches distinct keys.
        let keys: std::collections::HashSet<Fingerprint> =
            inferred.iter().map(|(c, _)| c).collect();
        assert_eq!(keys.len(), inferred.len());
    }
}
