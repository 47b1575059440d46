//! Fingerprint-space encryption for the trace-driven evaluation (§7.1).
//!
//! The FSL and VM datasets contain only chunk fingerprints, not content, so
//! the paper simulates encryption by operating directly on fingerprints.
//! Deterministic MLE maps each plaintext fingerprint `M` to a ciphertext
//! fingerprint `C = F(secret, M)` — a pseudorandom, content-independent
//! bijection, exactly what an adversary tapping the upload stream of a
//! DupLESS-style system observes.
//!
//! [`GroundTruth`] records the cipher→plain mapping so attack results can be
//! scored; the adversary of course never sees it.

use std::collections::HashMap;

use freqdedup_crypto::hmac::HmacKey;
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

/// The secret mapping from ciphertext fingerprints back to the plaintext
/// fingerprints they encrypt — the scoring oracle for inference attacks.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    map: HashMap<Fingerprint, Fingerprint>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that ciphertext chunk `cipher` encrypts plaintext chunk
    /// `plain`.
    ///
    /// # Panics
    ///
    /// Panics if `cipher` was already recorded with a *different* plaintext —
    /// that would mean the encryption scheme is not well-defined (two
    /// plaintexts produced the same ciphertext fingerprint).
    pub fn record(&mut self, cipher: Fingerprint, plain: Fingerprint) {
        if let Some(&existing) = self.map.get(&cipher) {
            assert_eq!(
                existing, plain,
                "ciphertext fingerprint {cipher} maps to two plaintexts"
            );
        } else {
            self.map.insert(cipher, plain);
        }
    }

    /// The true plaintext fingerprint of a ciphertext chunk.
    #[must_use]
    pub fn plain_of(&self, cipher: Fingerprint) -> Option<Fingerprint> {
        self.map.get(&cipher).copied()
    }

    /// Whether the inferred pair `(cipher, plain)` is correct.
    #[must_use]
    pub fn is_correct(&self, cipher: Fingerprint, plain: Fingerprint) -> bool {
        self.plain_of(cipher) == Some(plain)
    }

    /// Number of ciphertext fingerprints recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the ground truth is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(cipher, plain)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, Fingerprint)> + '_ {
        self.map.iter().map(|(&c, &m)| (c, m))
    }

    /// Merges another ground truth into this one.
    ///
    /// # Panics
    ///
    /// Panics on conflicting entries (see [`GroundTruth::record`]).
    pub fn merge(&mut self, other: &GroundTruth) {
        for (c, m) in other.iter() {
            self.record(c, m);
        }
    }
}

/// A backup encrypted in fingerprint space, together with its ground truth.
#[derive(Clone, Debug)]
pub struct EncryptedBackup {
    /// The ciphertext chunk stream as the adversary sees it (logical order,
    /// before deduplication).
    pub backup: Backup,
    /// The secret cipher→plain mapping (for scoring only).
    pub truth: GroundTruth,
}

/// Deterministic MLE in fingerprint space: `C = HMAC(secret, M)` truncated to
/// 64 bits, sizes preserved (CTR encryption is length-preserving).
///
/// This models every deterministic scheme of §2.2 (convergent encryption and
/// server-aided MLE are indistinguishable from the adversary's viewpoint:
/// both are fixed pseudorandom mappings of chunk identity).
///
/// # Example
///
/// ```
/// use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
/// use freqdedup_trace::{Backup, ChunkRecord};
///
/// let enc = DeterministicTraceEncryptor::new(b"system secret");
/// let plain = Backup::from_chunks("b", vec![ChunkRecord::new(1u64, 8192)]);
/// let out = enc.encrypt_backup(&plain);
/// let c = out.backup.chunks[0];
/// assert_eq!(out.truth.plain_of(c.fp).unwrap().value(), 1);
/// assert_eq!(c.size, 8192);
/// ```
#[derive(Clone, Debug)]
pub struct DeterministicTraceEncryptor {
    key: HmacKey,
}

impl DeterministicTraceEncryptor {
    /// Creates an encryptor with the given system-wide secret.
    #[must_use]
    pub fn new(secret: &[u8]) -> Self {
        DeterministicTraceEncryptor {
            key: HmacKey::new(secret),
        }
    }

    /// Encrypts a single fingerprint.
    #[must_use]
    pub fn encrypt_fp(&self, plain: Fingerprint) -> Fingerprint {
        Fingerprint(self.key.mac_u64(&plain.to_bytes()))
    }

    /// Encrypts a whole backup, producing the adversary's view plus the
    /// ground truth.
    #[must_use]
    pub fn encrypt_backup(&self, plain: &Backup) -> EncryptedBackup {
        let mut truth = GroundTruth::new();
        let mut out = Backup::new(plain.label.clone());
        // Deterministic encryption: cache per unique fingerprint, and
        // record each plaintext's ciphertext once, on its first sighting.
        let mut memo: HashMap<Fingerprint, Fingerprint> = HashMap::new();
        for rec in plain {
            let cipher = *memo.entry(rec.fp).or_insert_with(|| {
                let cipher = self.encrypt_fp(rec.fp);
                truth.record(cipher, rec.fp);
                cipher
            });
            out.push(ChunkRecord::new(cipher, rec.size));
        }
        EncryptedBackup { backup: out, truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backup(fps: &[u64]) -> Backup {
        Backup::from_chunks("t", fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
    }

    #[test]
    fn deterministic_mapping() {
        let enc = DeterministicTraceEncryptor::new(b"k");
        assert_eq!(
            enc.encrypt_fp(Fingerprint(5)),
            enc.encrypt_fp(Fingerprint(5))
        );
        assert_ne!(
            enc.encrypt_fp(Fingerprint(5)),
            enc.encrypt_fp(Fingerprint(6))
        );
    }

    #[test]
    fn ciphertexts_are_pinned() {
        // Recorded with the one-shot `hmac_u64(secret, M)`: setting the key
        // up once must not move a single ciphertext.
        let enc = DeterministicTraceEncryptor::new(b"fdbench-mle-secret-1");
        for (plain, cipher) in [
            (0, 0x4478_fefb_3254_7030),
            (1, 0x3f8e_1a71_68d5_2074),
            (u64::MAX, 0x2a4f_33c4_7b27_b311),
        ] {
            assert_eq!(enc.encrypt_fp(Fingerprint(plain)), Fingerprint(cipher));
        }
    }

    #[test]
    fn debug_prints_no_secret() {
        let secret = b"system secret";
        let shown = format!("{:?}", DeterministicTraceEncryptor::new(secret));
        assert!(!shown.contains(&format!("{:?}", secret)), "{shown}");
    }

    #[test]
    fn frequency_distribution_preserved() {
        // The core leak: occurrence counts carry over to ciphertext space.
        let enc = DeterministicTraceEncryptor::new(b"k");
        let plain = backup(&[1, 1, 1, 2, 2, 3]);
        let out = enc.encrypt_backup(&plain);
        let freq = freqdedup_trace::stats::frequency_map(&out.backup);
        let mut counts: Vec<u64> = freq.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3]);
    }

    #[test]
    fn order_preserved() {
        // Deterministic encryption does not reorder the stream — chunk
        // locality survives, which is what the locality attack exploits.
        let enc = DeterministicTraceEncryptor::new(b"k");
        let plain = backup(&[1, 2, 3, 1, 2, 3]);
        let out = enc.encrypt_backup(&plain);
        assert_eq!(out.backup.chunks[0].fp, out.backup.chunks[3].fp);
        assert_eq!(out.backup.chunks[1].fp, out.backup.chunks[4].fp);
        assert_ne!(out.backup.chunks[0].fp, out.backup.chunks[1].fp);
    }

    #[test]
    fn ground_truth_scores_correctly() {
        let enc = DeterministicTraceEncryptor::new(b"k");
        let out = enc.encrypt_backup(&backup(&[10, 20]));
        let c0 = out.backup.chunks[0].fp;
        assert!(out.truth.is_correct(c0, Fingerprint(10)));
        assert!(!out.truth.is_correct(c0, Fingerprint(20)));
        assert_eq!(out.truth.len(), 2);
    }

    #[test]
    fn secrets_matter() {
        let a = DeterministicTraceEncryptor::new(b"k1");
        let b = DeterministicTraceEncryptor::new(b"k2");
        assert_ne!(a.encrypt_fp(Fingerprint(1)), b.encrypt_fp(Fingerprint(1)));
    }

    #[test]
    fn sizes_preserved() {
        let enc = DeterministicTraceEncryptor::new(b"k");
        let plain = Backup::from_chunks(
            "t",
            vec![ChunkRecord::new(1u64, 4096), ChunkRecord::new(2u64, 777)],
        );
        let out = enc.encrypt_backup(&plain);
        assert_eq!(out.backup.chunks[0].size, 4096);
        assert_eq!(out.backup.chunks[1].size, 777);
    }

    #[test]
    fn merge_ground_truths() {
        let enc = DeterministicTraceEncryptor::new(b"k");
        let a = enc.encrypt_backup(&backup(&[1, 2]));
        let b = enc.encrypt_backup(&backup(&[2, 3]));
        let mut merged = a.truth.clone();
        merged.merge(&b.truth);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    #[should_panic(expected = "maps to two plaintexts")]
    fn conflicting_truth_detected() {
        let mut t = GroundTruth::new();
        t.record(Fingerprint(1), Fingerprint(10));
        t.record(Fingerprint(1), Fingerprint(11));
    }
}
