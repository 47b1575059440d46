//! Message-locked encryption (MLE) and the encrypted-deduplication key
//! machinery (paper §2.2).
//!
//! MLE derives each chunk's encryption key from the chunk content itself, so
//! identical plaintext chunks become identical ciphertext chunks and remain
//! deduplicable. This crate provides:
//!
//! * [`Mle`] — the scheme trait (key generation + deterministic
//!   encryption/decryption).
//! * [`convergent`] — convergent encryption (key = SHA-256 of the chunk),
//!   the classical MLE instantiation of Douceur et al.
//! * [`server_aided`] — DupLESS-style server-aided MLE: keys are derived by
//!   a [`server_aided::KeyServer`] holding a system-wide secret, behind a
//!   rate limiter, which defeats offline brute-force attacks.
//! * [`rce`] — random convergent encryption (Bellare et al.'s RCE variant):
//!   random per-chunk keys, but a *deterministic tag* for deduplication —
//!   included as a baseline showing that tags still leak the frequency
//!   distribution (§8).
//! * [`recipes`] — file recipes and key recipes, sealed under a user secret
//!   with conventional (non-deterministic) authenticated encryption (§2.2,
//!   §3.3: metadata is protected by conventional encryption).
//! * [`trace_enc`] — fingerprint-space encryption used by the trace-driven
//!   evaluation (§7.1), plus the ground-truth oracle for scoring attacks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergent;
pub mod rce;
pub mod recipes;
pub mod server_aided;
pub mod trace_enc;

use std::fmt;

use freqdedup_crypto::ctr::Aes256Ctr;

/// A 256-bit chunk encryption key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey(pub [u8; 32]);

impl fmt::Debug for ChunkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keys are secrets: show only a short, non-invertible preview.
        write!(f, "ChunkKey(…{:02x}{:02x})", self.0[30], self.0[31])
    }
}

/// Errors produced by MLE operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MleError {
    /// The key server refused the request (rate limit exhausted).
    RateLimited,
    /// Authentication failed while opening a sealed recipe.
    BadAuthentication,
    /// Malformed ciphertext (too short, bad framing).
    Malformed(&'static str),
}

impl fmt::Display for MleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MleError::RateLimited => write!(f, "key server rate limit exhausted"),
            MleError::BadAuthentication => write!(f, "authentication tag mismatch"),
            MleError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for MleError {}

/// A message-locked encryption scheme (§2.2).
///
/// Implementations must be **deterministic**: encrypting the same plaintext
/// twice yields byte-identical ciphertext, which is exactly the property the
/// paper's frequency-analysis attacks exploit.
pub trait Mle {
    /// Derives the message-locked key for `plaintext`.
    ///
    /// # Errors
    ///
    /// Returns [`MleError::RateLimited`] for server-aided schemes whose key
    /// server refuses the derivation.
    fn derive_key(&self, plaintext: &[u8]) -> Result<ChunkKey, MleError>;

    /// Encrypts `plaintext` under `key`. Length-preserving (AES-256-CTR).
    fn encrypt_with_key(&self, key: &ChunkKey, plaintext: &[u8]) -> Vec<u8>;

    /// Decrypts `ciphertext` under `key`.
    fn decrypt_with_key(&self, key: &ChunkKey, ciphertext: &[u8]) -> Vec<u8>;

    /// Decrypts `ciphertext` under `key` onto the end of `out` — how a
    /// restore reassembles a file without a buffer per chunk.
    fn decrypt_into(&self, key: &ChunkKey, ciphertext: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(&self.decrypt_with_key(key, ciphertext));
    }

    /// Convenience: derive the key and encrypt in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::derive_key`] failures.
    fn encrypt(&self, plaintext: &[u8]) -> Result<(ChunkKey, Vec<u8>), MleError> {
        let key = self.derive_key(plaintext)?;
        let ct = self.encrypt_with_key(&key, plaintext);
        Ok((key, ct))
    }
}

/// AES-256-CTR under `key` with a zero IV — the cipher of every scheme in
/// this crate — of `input` onto the end of `out`: one copy, then the
/// keystream in place. CTR is an involution, so this both encrypts and
/// decrypts.
pub(crate) fn ctr_append(key: &ChunkKey, input: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(input);
    Aes256Ctr::new(&key.0, &[0u8; 16]).apply_keystream(&mut out[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_key_debug_redacted() {
        let key = ChunkKey([0x42; 32]);
        let s = format!("{key:?}");
        // Only the last two bytes are shown.
        assert_eq!(s.matches("42").count(), 2, "{s}");
    }

    #[test]
    fn error_display() {
        assert!(MleError::RateLimited.to_string().contains("rate limit"));
        assert!(MleError::BadAuthentication.to_string().contains("tag"));
        assert!(MleError::Malformed("x").to_string().contains('x'));
    }
}
