//! HKDF-SHA256 key derivation (RFC 5869).
//!
//! Used to derive segment keys in MinHash encryption (the paper's §6.1
//! derives "the segment-based key `K_S` based on `h`") and per-user recipe
//! keys, with domain-separating `info` strings so independent uses can never
//! collide.

use crate::hmac::{hmac, HmacKey};
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: turns input keying material into a pseudorandom key.
#[must_use]
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `out.len()` bytes of output keying
/// material bound to `info`.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` (the RFC 5869 limit).
pub fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= 255 * DIGEST_LEN,
        "HKDF output length {} exceeds RFC 5869 limit",
        out.len()
    );
    let key = HmacKey::new(prk);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    let mut written = 0usize;
    while written < out.len() {
        let mut mac = key.start();
        mac.update(&previous);
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        let take = (out.len() - written).min(DIGEST_LEN);
        out[written..written + take].copy_from_slice(&block[..take]);
        written += take;
        previous = block.to_vec();
        counter = counter.wrapping_add(1);
    }
}

/// One-call HKDF: extract-then-expand to a 32-byte key.
///
/// # Example
///
/// ```
/// let k1 = freqdedup_crypto::kdf::derive_key(b"salt", b"ikm", b"segment-key");
/// let k2 = freqdedup_crypto::kdf::derive_key(b"salt", b"ikm", b"recipe-key");
/// assert_ne!(k1, k2); // domain separation
/// ```
#[must_use]
pub fn derive_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; DIGEST_LEN] {
    let prk = extract(salt, ikm);
    let mut out = [0u8; DIGEST_LEN];
    expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt = parse_hex("000102030405060708090a0b0c");
        let info = parse_hex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            prk.to_vec(),
            parse_hex("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            okm.to_vec(),
            parse_hex(
                "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
            )
        );
    }

    // RFC 5869 test case 2 (longer inputs/outputs).
    #[test]
    fn rfc5869_case2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let prk = extract(&salt, &ikm);
        let mut okm = [0u8; 82];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            okm.to_vec(),
            parse_hex(concat!(
                "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c",
                "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71",
                "cc30c58179ec3e87c14c01d5c1f3434f1d87"
            ))
        );
    }

    // RFC 5869 test case 3 (empty salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0bu8; 22];
        let prk = extract(&[], &ikm);
        let mut okm = [0u8; 42];
        expand(&prk, &[], &mut okm);
        assert_eq!(
            okm.to_vec(),
            parse_hex(
                "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
            )
        );
    }

    #[test]
    fn derive_key_deterministic() {
        assert_eq!(
            derive_key(b"s", b"ikm", b"info"),
            derive_key(b"s", b"ikm", b"info")
        );
    }

    #[test]
    fn derive_key_sensitive_to_all_inputs() {
        let base = derive_key(b"s", b"ikm", b"info");
        assert_ne!(base, derive_key(b"t", b"ikm", b"info"));
        assert_ne!(base, derive_key(b"s", b"ikn", b"info"));
        assert_ne!(base, derive_key(b"s", b"ikm", b"onfo"));
    }

    #[test]
    #[should_panic(expected = "exceeds RFC 5869 limit")]
    fn expand_rejects_oversized_output() {
        let prk = [0u8; 32];
        let mut out = vec![0u8; 255 * 32 + 1];
        expand(&prk, b"", &mut out);
    }

    #[test]
    fn expand_max_length_ok() {
        let prk = [1u8; 32];
        let mut out = vec![0u8; 255 * 32];
        expand(&prk, b"x", &mut out);
        // Last block must be non-zero with overwhelming probability.
        assert!(out[255 * 32 - 32..].iter().any(|&b| b != 0));
    }
}
