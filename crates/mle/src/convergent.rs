//! Convergent encryption (Douceur et al., ICDCS 2002): the classical MLE
//! instantiation where the key is the cryptographic hash of the chunk
//! (paper §2.2).

use freqdedup_crypto::sha256;

use crate::{ctr_append, ChunkKey, Mle, MleError};

/// Convergent encryption: `key = SHA-256(chunk)`, ciphertext =
/// AES-256-CTR(key, zero IV, chunk).
///
/// Deterministic by construction — identical plaintext chunks always yield
/// identical ciphertext chunks, preserving deduplication.
///
/// # Example
///
/// ```
/// use freqdedup_mle::{convergent::Convergent, Mle};
///
/// let mle = Convergent::new();
/// let (k1, c1) = mle.encrypt(b"same chunk")?;
/// let (k2, c2) = mle.encrypt(b"same chunk")?;
/// assert_eq!(c1, c2); // deduplicable
/// assert_eq!(mle.decrypt_with_key(&k1, &c1), b"same chunk");
/// # let _ = k2;
/// # Ok::<(), freqdedup_mle::MleError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Convergent;

impl Convergent {
    /// Creates the scheme (stateless).
    #[must_use]
    pub fn new() -> Self {
        Convergent
    }
}

impl Mle for Convergent {
    fn derive_key(&self, plaintext: &[u8]) -> Result<ChunkKey, MleError> {
        Ok(ChunkKey(sha256::digest(plaintext)))
    }

    fn encrypt_with_key(&self, key: &ChunkKey, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len());
        ctr_append(key, plaintext, &mut out);
        out
    }

    fn decrypt_with_key(&self, key: &ChunkKey, ciphertext: &[u8]) -> Vec<u8> {
        // CTR is an involution under the same key/IV.
        self.encrypt_with_key(key, ciphertext)
    }

    fn decrypt_into(&self, key: &ChunkKey, ciphertext: &[u8], out: &mut Vec<u8>) {
        ctr_append(key, ciphertext, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_ciphertext() {
        let mle = Convergent::new();
        let (_, c1) = mle.encrypt(b"chunk A").unwrap();
        let (_, c2) = mle.encrypt(b"chunk A").unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn different_chunks_different_ciphertext() {
        let mle = Convergent::new();
        let (_, c1) = mle.encrypt(b"chunk A").unwrap();
        let (_, c2) = mle.encrypt(b"chunk B").unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn round_trip() {
        let mle = Convergent::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let (key, ct) = mle.encrypt(&data).unwrap();
        assert_ne!(ct, data);
        assert_eq!(mle.decrypt_with_key(&key, &ct), data);
    }

    #[test]
    fn decrypt_into_appends_the_plaintext() {
        let mle = Convergent::new();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let (key, ct) = mle.encrypt(&data).unwrap();
        let mut out = b"already here".to_vec();
        mle.decrypt_into(&key, &ct, &mut out);
        assert_eq!(&out[..12], b"already here");
        assert_eq!(&out[12..], &data[..]);
    }

    #[test]
    fn length_preserving() {
        let mle = Convergent::new();
        for len in [0usize, 1, 15, 16, 17, 4096] {
            let data = vec![7u8; len];
            let (_, ct) = mle.encrypt(&data).unwrap();
            assert_eq!(ct.len(), len);
        }
    }

    #[test]
    fn key_is_content_hash() {
        let mle = Convergent::new();
        let key = mle.derive_key(b"xyz").unwrap();
        assert_eq!(key.0, sha256::digest(b"xyz"));
    }

    #[test]
    fn vulnerable_to_offline_brute_force() {
        // The attack the paper describes in §2.2: with a known candidate set,
        // an adversary can confirm which plaintext a ciphertext encrypts.
        let mle = Convergent::new();
        let (_, target_ct) = mle.encrypt(b"password123").unwrap();
        let candidates: [&[u8]; 3] = [b"hunter2", b"password123", b"letmein"];
        let found = candidates
            .iter()
            .find(|m| mle.encrypt(m).unwrap().1 == target_ct);
        assert_eq!(found, Some(&b"password123".as_slice()));
    }
}
