//! The pluggable defense contract: one object-safe trait every
//! frequency-analysis countermeasure implements, so the attack harness,
//! the client upload path and the tournament driver can treat "which
//! defense is deployed" as runtime data.
//!
//! A [`DefenseScheme`] maps a plaintext fingerprint stream to the
//! adversary-visible ciphertext stream, given a [`KeyContext`] (the MLE
//! secret plus a determinism seed). The contract, pinned by the
//! `defense_contract` integration suite:
//!
//! * **Deterministic** — `encrypt_backup` is a pure function of
//!   `(self, plain, ctx)`.
//! * **Lossless** — the returned [`GroundTruth`] resolves every output
//!   ciphertext to its plaintext, chunk sizes are preserved, and the
//!   output is a per-backup permutation-with-renaming of the input
//!   (legitimate clients recover byte-exact data via their file recipe).
//! * **Budgeted** — schemes that deliberately split one plaintext into
//!   several ciphertexts ([`crate::defense::TedScheme`],
//!   [`crate::defense::PartitionSmoothing`]) advertise their configured
//!   storage-blowup ceiling via [`DefenseScheme::blowup_budget`] and
//!   never exceed it (unique ciphertexts / unique plaintexts).
//!
//! [`NoDefense`] is the identity point of the design: plain
//! deterministic MLE under the context secret, test-pinned bit-identical
//! to the undefended pipeline so that "no defense selected" and "defense
//! layer absent" are provably the same observable stream.

use std::fmt;

use freqdedup_crypto::hmac::HmacKey;
use freqdedup_crypto::kdf;
use freqdedup_mle::trace_enc::{DeterministicTraceEncryptor, EncryptedBackup, GroundTruth};
use freqdedup_trace::{Backup, BackupSeries, Fingerprint};

/// Key material shared by every defense scheme: the system-wide MLE
/// secret (the adversary never learns it) and a seed that makes any
/// scheme-internal randomness — scramble coin flips, split-key
/// derivation — reproducible.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyContext {
    secret: Vec<u8>,
    seed: u64,
}

impl fmt::Debug for KeyContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        f.debug_struct("KeyContext")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl KeyContext {
    /// Creates a context from the MLE secret and a determinism seed.
    #[must_use]
    pub fn new(secret: &[u8], seed: u64) -> Self {
        KeyContext {
            secret: secret.to_vec(),
            seed,
        }
    }

    /// The system-wide MLE secret.
    #[must_use]
    pub fn secret(&self) -> &[u8] {
        &self.secret
    }

    /// The determinism seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the 256-bit splitting key for ciphertext-splitting schemes
    /// (TED, partition smoothing), bound to the scheme's domain string,
    /// the secret and the seed, and sets it up once for [`variant_fp`].
    pub(crate) fn split_key(&self, domain: &'static [u8]) -> HmacKey {
        let key = kdf::derive_key(domain, &self.secret, &self.seed.to_le_bytes());
        HmacKey::new(&key)
    }
}

/// A constructor-time parameter violation, in the style of the chunking
/// layer's `ParamError`: the first violated constraint, typed, instead of
/// a panic deep inside an encrypt call.
#[derive(Clone, Debug, PartialEq)]
pub enum DefenseError {
    /// A storage-blowup budget below 1.0 (or non-finite) — the scheme
    /// cannot store fewer unique ciphertexts than unique plaintexts.
    BudgetBelowOne {
        /// Requested budget.
        budget: f64,
    },
    /// Zero histogram partitions requested.
    ZeroPartitions,
    /// More histogram partitions than the exponential layout supports.
    TooManyPartitions {
        /// Requested partition count.
        partitions: usize,
        /// Largest supported count.
        ceiling: usize,
    },
}

impl fmt::Display for DefenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseError::BudgetBelowOne { budget } => {
                write!(
                    f,
                    "storage-blowup budget {budget} must be finite and >= 1.0"
                )
            }
            DefenseError::ZeroPartitions => write!(f, "partition count must be non-zero"),
            DefenseError::TooManyPartitions {
                partitions,
                ceiling,
            } => write!(
                f,
                "partition count {partitions} exceeds the supported {ceiling}"
            ),
        }
    }
}

impl std::error::Error for DefenseError {}

/// An encrypted-deduplication defense: a deterministic, lossless,
/// optionally storage-budgeted map from plaintext fingerprint streams to
/// adversary-visible ciphertext streams. Object-safe by design — the
/// harness, client and tournament all hold `&dyn DefenseScheme`.
pub trait DefenseScheme: fmt::Debug + Send + Sync {
    /// Stable scheme name for reports and JSON rows.
    fn name(&self) -> &'static str;

    /// Encrypts one backup under `ctx`, producing the ciphertext stream
    /// the provider (and the adversary tap) observes plus the scoring
    /// ground truth. Must be deterministic in `(self, plain, ctx)`.
    fn encrypt_backup(&self, plain: &Backup, ctx: &KeyContext) -> EncryptedBackup;

    /// Encrypts a whole series, merging the per-backup ground truths.
    /// Schemes whose splitting decisions depend on cross-backup state
    /// (TED's occurrence counters, smoothing's global histogram) override
    /// this so the budget holds over the series, not per backup.
    fn encrypt_series(
        &self,
        series: &BackupSeries,
        ctx: &KeyContext,
    ) -> (BackupSeries, GroundTruth) {
        let mut out = BackupSeries::new(series.name.clone());
        let mut truth = GroundTruth::new();
        for backup in series {
            let enc = self.encrypt_backup(backup, ctx);
            truth.merge(&enc.truth);
            out.push(enc.backup);
        }
        (out, truth)
    }

    /// The configured storage-blowup ceiling (unique ciphertexts per
    /// unique plaintext, `>= 1.0`), or `None` for schemes whose blowup is
    /// emergent rather than budgeted (MinHash splits on segment-minimum
    /// boundaries, not against a target).
    fn blowup_budget(&self) -> Option<f64> {
        None
    }
}

/// Encrypts one fingerprint into the `variant`-th ciphertext of its
/// splitting universe: `HMAC(split_key, M ‖ variant)`. Variant 0 is a
/// full-width HMAC input distinct from plain deterministic MLE
/// (`HMAC(secret, M)`), so split schemes never collide with [`NoDefense`]
/// ciphertexts by construction of the message layout.
pub(crate) fn variant_fp(split_key: &HmacKey, fp: Fingerprint, variant: u64) -> Fingerprint {
    let mut msg = [0u8; 16];
    msg[..8].copy_from_slice(&fp.to_bytes());
    msg[8..].copy_from_slice(&variant.to_le_bytes());
    Fingerprint(split_key.mac_u64(&msg))
}

/// The identity defense: plain deterministic MLE under the context
/// secret. Exists so "undefended" is a first-class scheme the tournament
/// can baseline against, and so scheme selection has a zero-cost default.
///
/// Test-pinned bit-identical to
/// [`DeterministicTraceEncryptor`] — stream, ground
/// truth, store stats, tap series and both-policy inference all match the
/// pre-trait pipeline exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoDefense;

impl DefenseScheme for NoDefense {
    fn name(&self) -> &'static str {
        "none"
    }

    fn encrypt_backup(&self, plain: &Backup, ctx: &KeyContext) -> EncryptedBackup {
        DeterministicTraceEncryptor::new(ctx.secret()).encrypt_backup(plain)
    }

    fn blowup_budget(&self) -> Option<f64> {
        Some(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqdedup_trace::ChunkRecord;

    fn stream(n: usize, seed: u64) -> Backup {
        let mut x = seed | 1;
        Backup::from_chunks(
            "b",
            (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ChunkRecord::new(Fingerprint(x), 8192)
                })
                .collect(),
        )
    }

    #[test]
    fn no_defense_matches_plain_mle() {
        let plain = stream(4000, 3);
        let ctx = KeyContext::new(b"secret", 0);
        let via_trait = NoDefense.encrypt_backup(&plain, &ctx);
        let direct = DeterministicTraceEncryptor::new(b"secret").encrypt_backup(&plain);
        assert_eq!(via_trait.backup, direct.backup);
        assert_eq!(via_trait.truth.len(), direct.truth.len());
    }

    #[test]
    fn no_defense_ignores_seed_but_not_secret() {
        let plain = stream(1000, 5);
        let a = NoDefense.encrypt_backup(&plain, &KeyContext::new(b"s1", 1));
        let b = NoDefense.encrypt_backup(&plain, &KeyContext::new(b"s1", 2));
        let c = NoDefense.encrypt_backup(&plain, &KeyContext::new(b"s2", 1));
        assert_eq!(a.backup, b.backup, "passthrough has no randomness");
        assert_ne!(a.backup, c.backup, "secret must matter");
    }

    #[test]
    fn variant_fp_separates_variants_and_schemes() {
        let ctx = KeyContext::new(b"secret", 7);
        let k1 = ctx.split_key(b"freqdedup-ted");
        let k2 = ctx.split_key(b"freqdedup-pfse");
        let fp = Fingerprint(42);
        assert_ne!(variant_fp(&k1, fp, 0), variant_fp(&k1, fp, 1));
        assert_ne!(variant_fp(&k1, fp, 0), variant_fp(&k2, fp, 0));
        assert_eq!(variant_fp(&k1, fp, 3), variant_fp(&k1, fp, 3));
        // A different seed re-keys the whole splitting universe.
        let k3 = KeyContext::new(b"secret", 8).split_key(b"freqdedup-ted");
        assert_ne!(variant_fp(&k1, fp, 0), variant_fp(&k3, fp, 0));
    }

    #[test]
    fn ted_variant_fp_is_pinned() {
        // Recorded with the one-shot `hmac_u64(split_key, M ‖ 0)`.
        let key = KeyContext::new(b"secret", 7).split_key(b"freqdedup-ted");
        assert_eq!(
            variant_fp(&key, Fingerprint(42), 0),
            Fingerprint(0xff0e_05ec_b904_2b70)
        );
    }

    #[test]
    fn key_context_debug_shows_only_the_seed() {
        let ctx = KeyContext::new(b"secret", 7);
        let shown = format!("{ctx:?}");
        assert!(!shown.contains(&format!("{:?}", ctx.secret())), "{shown}");
        assert!(shown.contains("seed: 7"), "{shown}");
    }

    #[test]
    fn error_display_names_the_constraint() {
        let e = DefenseError::BudgetBelowOne { budget: 0.5 };
        assert!(e.to_string().contains("0.5"));
        assert!(DefenseError::ZeroPartitions
            .to_string()
            .contains("non-zero"));
    }
}
