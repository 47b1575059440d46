//! The basic attack (Algorithm 1): classical frequency analysis applied to
//! encrypted deduplication.
//!
//! The adversary counts chunk frequencies in the ciphertext stream `C` of
//! the latest backup and in the auxiliary plaintext stream `M` of a prior
//! backup, sorts both by frequency, and infers that the i-th most frequent
//! ciphertext chunk encrypts the i-th most frequent plaintext chunk.
//!
//! As §4.1 discusses — and the evaluation confirms — the attack is extremely
//! sensitive to rank churn from updates and ties, so its inference rate is
//! tiny on real backup workloads. It exists as the baseline the locality
//! attack improves on.

use freqdedup_trace::Backup;

use crate::dense::DenseStats;
use crate::freq_analysis::{freq_analysis_dense, TiePolicy};
use crate::metrics::Inference;

/// Classical frequency analysis (Algorithm 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct BasicAttack;

impl BasicAttack {
    /// Creates the attack (stateless).
    #[must_use]
    pub fn new() -> Self {
        BasicAttack
    }

    /// Runs the attack: `T ← FREQ-ANALYSIS(COUNT(C), COUNT(M))`, pairing
    /// every rank up to the smaller table. Counts and ranks on the dense-id
    /// layer.
    #[must_use]
    pub fn run(&self, cipher: &Backup, plain_aux: &Backup) -> Inference {
        let sc = DenseStats::frequencies_only(cipher);
        let sm = DenseStats::frequencies_only(plain_aux);
        self.run_with_stats(&sc, &sm)
    }

    /// Runs the attack over pre-built state on both sides (with or without
    /// neighbour tables; only global frequencies are read).
    #[must_use]
    pub fn run_with_stats(&self, sc: &DenseStats, sm: &DenseStats) -> Inference {
        let limit = sc.unique_chunks().min(sm.unique_chunks());
        let fps_c = sc.interner.fingerprints();
        let fps_m = sm.interner.fingerprints();
        let mut t = Inference::with_capacity(limit);
        // Global rows carry no order: both policies rank them alike.
        let (rows_c, rows_m) = (sc.global_rows(), sm.global_rows());
        for (c, m) in
            freq_analysis_dense(&rows_c, &rows_m, limit, fps_c, fps_m, TiePolicy::KeyOrder)
        {
            t.insert(fps_c[c as usize], fps_m[m as usize]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score;
    use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
    use freqdedup_trace::{ChunkRecord, Fingerprint};

    fn backup(fps: &[u64]) -> Backup {
        Backup::from_chunks("t", fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    #[test]
    fn perfect_on_distinct_frequencies() {
        // Frequencies 3, 2, 1 — no ties, no updates: ranks identify chunks.
        let plain = backup(&[1, 1, 1, 2, 2, 3]);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&plain);
        let inferred = BasicAttack::new().run(&observed.backup, &plain);
        let report = score(&inferred, &observed.backup, &observed.truth);
        assert_eq!(report.correct, 3);
        assert!((report.rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confused_by_rank_churn() {
        // One update flips the ranks of two equally-frequent chunks: the
        // basic attack mismatches BOTH (the failure mode of §4.1).
        let aux = backup(&[1, 1, 1, 2, 2, 9]);
        let latest = backup(&[1, 1, 2, 2, 2, 9]); // chunk 2 overtakes chunk 1
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&latest);
        let inferred = BasicAttack::new().run(&observed.backup, &aux);
        let report = score(&inferred, &observed.backup, &observed.truth);
        // Chunks 1 and 2 are swapped; only chunk 9 survives.
        assert_eq!(report.correct, 1);
        assert_eq!(report.incorrect, 2);
    }

    #[test]
    fn pairs_bounded_by_smaller_side() {
        let aux = backup(&[1, 2]);
        let latest = backup(&[10, 20, 30, 40]);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&latest);
        let inferred = BasicAttack::new().run(&observed.backup, &aux);
        assert_eq!(inferred.len(), 2);
    }

    #[test]
    fn empty_inputs() {
        let empty = backup(&[]);
        let some = backup(&[1]);
        assert!(BasicAttack::new().run(&empty, &some).is_empty());
        assert!(BasicAttack::new().run(&some, &empty).is_empty());
    }

    #[test]
    fn inference_targets_exist_in_cipher_stream() {
        let aux = backup(&[5, 5, 6, 7]);
        let latest = backup(&[5, 6, 6, 8]);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&latest);
        let inferred = BasicAttack::new().run(&observed.backup, &aux);
        let cipher_set = observed.backup.unique_fingerprints();
        for (c, m) in inferred.iter() {
            assert!(cipher_set.contains(&c));
            assert!(aux.unique_fingerprints().contains(&m));
        }
        let _ = Fingerprint(0);
    }
}
