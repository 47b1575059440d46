//! The advanced locality-based attack (Algorithm 3, §4.3).
//!
//! Identical to the locality-based attack except that **every** call to
//! frequency analysis — the seeding call and the per-neighbourhood calls —
//! first classifies chunks by their size in 16-byte cipher blocks
//! (`ceil(size/16)`, assuming an AES-based cipher) and rank-matches within
//! each size class. Variable-size chunking thus leaks an extra identifying
//! signal; for fixed-size chunking (the VM dataset) the attack degenerates
//! to the plain locality-based attack.

use freqdedup_trace::{Backup, Fingerprint};

use crate::attacks::locality::{LocalityAttack, LocalityParams};
use crate::dense::DenseStats;
use crate::metrics::Inference;

/// The advanced locality-based attack (Algorithm 3).
#[derive(Clone, Debug)]
pub struct AdvancedAttack {
    inner: LocalityAttack,
}

impl AdvancedAttack {
    /// Creates the attack; `params.size_aware` is forced on.
    #[must_use]
    pub fn new(params: LocalityParams) -> Self {
        AdvancedAttack {
            inner: LocalityAttack::new(params.size_aware(true)),
        }
    }

    /// The effective parameters.
    #[must_use]
    pub fn params(&self) -> &LocalityParams {
        self.inner.params()
    }

    /// Ciphertext-only mode (size-classified seeding).
    #[must_use]
    pub fn run_ciphertext_only(&self, cipher: &Backup, plain_aux: &Backup) -> Inference {
        self.inner.run_ciphertext_only(cipher, plain_aux)
    }

    /// Known-plaintext mode.
    #[must_use]
    pub fn run_known_plaintext(
        &self,
        cipher: &Backup,
        plain_aux: &Backup,
        leaked: &[(Fingerprint, Fingerprint)],
    ) -> Inference {
        self.inner.run_known_plaintext(cipher, plain_aux, leaked)
    }

    /// Ciphertext-only mode over pre-built attack state (size
    /// classification forced on).
    #[must_use]
    pub fn run_ciphertext_only_with_stats(&self, sc: &DenseStats, sm: &DenseStats) -> Inference {
        self.inner.run_ciphertext_only_with_stats(sc, sm)
    }

    /// Known-plaintext mode over pre-built attack state (size
    /// classification forced on).
    #[must_use]
    pub fn run_known_plaintext_with_stats(
        &self,
        sc: &DenseStats,
        sm: &DenseStats,
        leaked: &[(Fingerprint, Fingerprint)],
    ) -> Inference {
        self.inner.run_known_plaintext_with_stats(sc, sm, leaked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score;
    use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
    use freqdedup_trace::ChunkRecord;

    /// Builds a backup whose chunk sizes vary with the fingerprint.
    fn sized_backup(fps: &[u64]) -> Backup {
        Backup::from_chunks(
            "t",
            fps.iter()
                .map(|&f| ChunkRecord::new(f, 1024 + ((f % 64) * 16) as u32))
                .collect(),
        )
    }

    /// Builds a fixed-size backup (VM-style).
    fn fixed_backup(fps: &[u64]) -> Backup {
        Backup::from_chunks(
            "t",
            fps.iter().map(|&f| ChunkRecord::new(f, 4096)).collect(),
        )
    }

    #[test]
    fn size_information_separates_frequency_ties() {
        // Chunks 1 and 2 have identical frequencies but different sizes, so
        // plain frequency analysis can mis-pair them while the advanced
        // attack cannot.
        let aux = sized_backup(&[1, 2, 1, 2, 3]);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&aux);
        let attack = AdvancedAttack::new(LocalityParams::new(2, 2, 100));
        let inferred = attack.run_ciphertext_only(&observed.backup, &aux);
        let report = score(&inferred, &observed.backup, &observed.truth);
        assert_eq!(report.incorrect, 0, "size classes forbid cross-matching");
        assert!(report.correct >= 2);
    }

    #[test]
    fn degenerates_to_locality_on_fixed_size_chunks() {
        // VM dataset property (§5.3.2): with one size class the two attacks
        // are equivalent.
        let fps: Vec<u64> = (0..300u64).flat_map(|i| [i, i % 13 + 500]).collect();
        let aux = fixed_backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&aux);
        let params = LocalityParams::default();
        let advanced =
            AdvancedAttack::new(params.clone()).run_ciphertext_only(&observed.backup, &aux);
        let locality = crate::attacks::locality::LocalityAttack::new(params)
            .run_ciphertext_only(&observed.backup, &aux);
        let ra = score(&advanced, &observed.backup, &observed.truth);
        let rl = score(&locality, &observed.backup, &observed.truth);
        assert_eq!(ra.correct, rl.correct);
        assert_eq!(ra.incorrect, rl.incorrect);
    }

    #[test]
    fn known_plaintext_mode_works() {
        let fps: Vec<u64> = (0..200u64).collect();
        let aux = sized_backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"s");
        let observed = enc.encrypt_backup(&aux);
        let leaked = vec![(observed.backup.chunks[100].fp, aux.chunks[100].fp)];
        let attack = AdvancedAttack::new(LocalityParams::known_plaintext_default());
        let inferred = attack.run_known_plaintext(&observed.backup, &aux, &leaked);
        let report = score(&inferred, &observed.backup, &observed.truth);
        assert!(report.rate > 0.9, "rate {}", report.rate);
    }

    #[test]
    fn params_accessor_reports_size_aware() {
        let attack = AdvancedAttack::new(LocalityParams::default());
        assert!(attack.params().size_aware);
    }
}
