//! From-scratch cryptographic primitives for the `freqdedup` workspace.
//!
//! This crate deliberately has **zero external dependencies**: every primitive
//! used by the encrypted-deduplication stack is implemented in-repo and tested
//! against the published standard vectors, so the whole security substrate of
//! the reproduction is auditable in one place.
//!
//! Provided primitives:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (streaming and one-shot).
//! * [`hmac`] — HMAC-SHA256 (RFC 2104, tested against RFC 4231).
//! * [`aes`] — the AES-128 / AES-256 block cipher (FIPS-197), encryption
//!   direction (all CTR needs).
//! * [`ctr`] — CTR-mode stream encryption (NIST SP 800-38A).
//! * [`kdf`] — HKDF-SHA256-style key derivation (RFC 5869).
//!
//! # Security note
//!
//! AES is **table-based and kept so on purpose** (four 1 KiB tables and
//! the S-box, indexed by key- and data-dependent bytes), and comparisons
//! are not constant-time unless [`constant_time_eq`] is used. The
//! adversary of the paper, and of this repository, is the storage provider
//! observing ciphertext fingerprints, sizes and order — not a process
//! co-resident with the *client* that can time the client's data cache, so
//! the cache-timing channel of table lookups is outside the threat model
//! and the tables buy 4× over the byte-wise cipher (`DESIGN.md` §1). A
//! deployment that does put such a process in scope replaces
//! [`aes::Aes`]'s core with a constant-time one (fixsliced AES in safe
//! Rust) behind the same interface; nothing above `ctr` changes. Otherwise
//! the implementations favour clarity, matching how the original paper's
//! artifact used OpenSSL purely as a deterministic building block.
//!
//! # Example
//!
//! ```
//! use freqdedup_crypto::{sha256, ctr::Aes256Ctr};
//!
//! let key = sha256::digest(b"chunk content"); // convergent key
//! let mut data = b"chunk content".to_vec();
//! Aes256Ctr::new(&key, &[0u8; 16]).apply_keystream(&mut data);
//! assert_ne!(&data, b"chunk content");
//! Aes256Ctr::new(&key, &[0u8; 16]).apply_keystream(&mut data);
//! assert_eq!(&data, b"chunk content");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod sha256;

/// Compares two byte slices in time that depends only on the lengths, not on
/// the contents.
///
/// Returns `false` immediately when the lengths differ (the length is not
/// considered secret).
///
/// # Example
///
/// ```
/// assert!(freqdedup_crypto::constant_time_eq(b"tag", b"tag"));
/// assert!(!freqdedup_crypto::constant_time_eq(b"tag", b"tbg"));
/// ```
#[must_use]
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_time_eq_equal() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(constant_time_eq(&[0u8; 64], &[0u8; 64]));
    }

    #[test]
    fn constant_time_eq_unequal_content() {
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(&[0u8; 32], &[1u8; 32]));
    }

    #[test]
    fn constant_time_eq_unequal_length() {
        assert!(!constant_time_eq(b"abc", b"abcd"));
        assert!(!constant_time_eq(b"abc", b""));
    }
}
