//! Server-aided MLE in the style of DupLESS (Bellare et al., USENIX Security
//! 2013; paper §2.2).
//!
//! Key derivation is outsourced to a dedicated [`KeyServer`] that computes
//! `HMAC(system_secret, chunk_fingerprint)`. Because the secret never leaves
//! the server, an adversary without server access cannot run the offline
//! brute-force attack of §2.2; the server additionally rate-limits
//! derivations to slow *online* brute force.
//!
//! The server here is in-process (the network hop of the real DupLESS
//! deployment is irrelevant to the paper's attacks — see DESIGN.md §2);
//! the trust boundary and the rate-limiting behaviour are preserved.

use std::sync::Mutex;

use freqdedup_crypto::{hmac::HmacKey, sha256};

use crate::{ctr_append, ChunkKey, Mle, MleError};

/// A deterministic token-bucket rate limiter.
///
/// Time is modelled explicitly: the owner calls [`RateLimiter::refill`] to
/// grant tokens (e.g. once per simulated second), keeping experiments
/// reproducible.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    capacity: u64,
    tokens: u64,
}

impl RateLimiter {
    /// Creates a limiter with the given bucket capacity, initially full.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        RateLimiter {
            capacity,
            tokens: capacity,
        }
    }

    /// Attempts to consume one token.
    pub fn try_acquire(&mut self) -> bool {
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Grants `n` tokens, saturating at the capacity.
    pub fn refill(&mut self, n: u64) {
        self.tokens = (self.tokens + n).min(self.capacity);
    }

    /// Tokens currently available.
    #[must_use]
    pub fn available(&self) -> u64 {
        self.tokens
    }
}

/// The dedicated key manager: holds the system-wide secret and derives
/// per-chunk keys for authenticated clients (§2.2).
#[derive(Debug)]
pub struct KeyServer {
    key: HmacKey,
    limiter: Option<RateLimiter>,
    derivations: u64,
}

impl KeyServer {
    /// Creates a key server from a raw system secret.
    #[must_use]
    pub fn new(secret: [u8; 32]) -> Self {
        KeyServer {
            key: HmacKey::new(&secret),
            limiter: None,
            derivations: 0,
        }
    }

    /// Creates a key server whose derivations are rate-limited.
    #[must_use]
    pub fn with_rate_limit(secret: [u8; 32], requests: u64) -> Self {
        KeyServer {
            key: HmacKey::new(&secret),
            limiter: Some(RateLimiter::new(requests)),
            derivations: 0,
        }
    }

    /// Derives the MLE key for a chunk fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`MleError::RateLimited`] when the token bucket is empty.
    pub fn derive(&mut self, fingerprint: &[u8; 32]) -> Result<ChunkKey, MleError> {
        if let Some(limiter) = &mut self.limiter {
            if !limiter.try_acquire() {
                return Err(MleError::RateLimited);
            }
        }
        self.derivations += 1;
        Ok(ChunkKey(self.key.mac(fingerprint)))
    }

    /// Grants rate-limit tokens (no-op for unlimited servers).
    pub fn refill(&mut self, n: u64) {
        if let Some(limiter) = &mut self.limiter {
            limiter.refill(n);
        }
    }

    /// Total successful key derivations served.
    #[must_use]
    pub fn derivations(&self) -> u64 {
        self.derivations
    }
}

/// Client-side server-aided MLE scheme.
///
/// The client hashes each chunk locally to its fingerprint and asks the
/// server for the chunk key; encryption itself happens client-side with
/// AES-256-CTR, deterministic as required for deduplication.
///
/// # Example
///
/// ```
/// use freqdedup_mle::{server_aided::{KeyServer, ServerAidedMle}, Mle};
///
/// let server = KeyServer::new([7u8; 32]);
/// let mle = ServerAidedMle::new(server);
/// let (key, ct) = mle.encrypt(b"chunk")?;
/// assert_eq!(mle.decrypt_with_key(&key, &ct), b"chunk");
/// # Ok::<(), freqdedup_mle::MleError>(())
/// ```
#[derive(Debug)]
pub struct ServerAidedMle {
    server: Mutex<KeyServer>,
}

impl ServerAidedMle {
    /// Wraps a key server.
    #[must_use]
    pub fn new(server: KeyServer) -> Self {
        ServerAidedMle {
            server: Mutex::new(server),
        }
    }

    /// Grants rate-limit tokens to the underlying server.
    pub fn refill(&self, n: u64) {
        self.server.lock().expect("poisoned").refill(n);
    }

    /// Total key derivations the server has performed.
    #[must_use]
    pub fn derivations(&self) -> u64 {
        self.server.lock().expect("poisoned").derivations()
    }
}

impl Mle for ServerAidedMle {
    fn derive_key(&self, plaintext: &[u8]) -> Result<ChunkKey, MleError> {
        let fingerprint = sha256::digest(plaintext);
        self.server.lock().expect("poisoned").derive(&fingerprint)
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
    use freqdedup_crypto::hmac;

    #[test]
    fn deterministic_across_clients_with_same_server_secret() {
        let a = ServerAidedMle::new(KeyServer::new([1u8; 32]));
        let b = ServerAidedMle::new(KeyServer::new([1u8; 32]));
        assert_eq!(
            a.encrypt(b"chunk").unwrap().1,
            b.encrypt(b"chunk").unwrap().1
        );
    }

    #[test]
    fn different_secret_different_ciphertext() {
        let a = ServerAidedMle::new(KeyServer::new([1u8; 32]));
        let b = ServerAidedMle::new(KeyServer::new([2u8; 32]));
        assert_ne!(
            a.encrypt(b"chunk").unwrap().1,
            b.encrypt(b"chunk").unwrap().1
        );
    }

    #[test]
    fn debug_prints_no_secret() {
        let secret = [0x5au8; 32];
        let mut server = KeyServer::new(secret);
        let fp = [7u8; 32];
        assert_eq!(server.derive(&fp).unwrap().0, hmac::hmac(&secret, &fp));
        let shown = format!("{server:?}");
        assert!(!shown.contains(&format!("{secret:?}")), "{shown}");
    }

    #[test]
    fn round_trip() {
        let mle = ServerAidedMle::new(KeyServer::new([9u8; 32]));
        let (key, ct) = mle.encrypt(b"some chunk data").unwrap();
        assert_eq!(mle.decrypt_with_key(&key, &ct), b"some chunk data");
    }

    #[test]
    fn offline_brute_force_defeated_without_secret() {
        // Unlike convergent encryption, a local adversary cannot re-derive
        // keys without the server secret: encrypting the right guess under a
        // *wrong* secret does not reproduce the ciphertext.
        let victim = ServerAidedMle::new(KeyServer::new([1u8; 32]));
        let (_, target) = victim.encrypt(b"password123").unwrap();
        let adversary = ServerAidedMle::new(KeyServer::new([0u8; 32]));
        assert_ne!(adversary.encrypt(b"password123").unwrap().1, target);
    }

    #[test]
    fn rate_limit_enforced_and_refilled() {
        let mle = ServerAidedMle::new(KeyServer::with_rate_limit([3u8; 32], 2));
        assert!(mle.encrypt(b"a").is_ok());
        assert!(mle.encrypt(b"b").is_ok());
        assert_eq!(mle.encrypt(b"c").unwrap_err(), MleError::RateLimited);
        mle.refill(1);
        assert!(mle.encrypt(b"c").is_ok());
        assert_eq!(mle.derivations(), 3);
    }

    #[test]
    fn limiter_saturates_at_capacity() {
        let mut l = RateLimiter::new(2);
        l.refill(100);
        assert_eq!(l.available(), 2);
        assert!(l.try_acquire());
        assert!(l.try_acquire());
        assert!(!l.try_acquire());
        assert_eq!(l.available(), 0);
    }

    #[test]
    fn derivation_counter() {
        let mut server = KeyServer::new([0u8; 32]);
        let fp = sha256::digest(b"m");
        let _ = server.derive(&fp).unwrap();
        let _ = server.derive(&fp).unwrap();
        assert_eq!(server.derivations(), 2);
    }
}
