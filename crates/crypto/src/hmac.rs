//! HMAC-SHA256 (RFC 2104), tested against the RFC 4231 vectors.
//!
//! HMAC backs two pieces of the reproduction:
//!
//! * the DupLESS-style key server of `freqdedup-mle`, which derives MLE keys
//!   as `HMAC(system_secret, fingerprint)` (paper §2.2);
//! * the fingerprint-space deterministic "encryption" used by the
//!   trace-driven evaluation (paper §7.1).
//!
//! Both MAC millions of short messages under one key, so an [`HmacKey`] sets
//! the key up once: a MAC of under 56 bytes costs two SHA-256 compressions.

use std::fmt;

use crate::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA256 key: the SHA-256 states after `K ⊕ ipad` and `K ⊕ opad`.
///
/// # Example
///
/// ```
/// use freqdedup_crypto::hmac::{hmac, HmacKey};
///
/// let key = HmacKey::new(b"secret");
/// let mut mac = key.start();
/// mac.update(b"finger");
/// mac.update(b"print");
/// assert_eq!(mac.finalize(), key.mac(b"fingerprint"));
/// assert_eq!(key.mac(b"fingerprint"), hmac(b"secret", b"fingerprint"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material: the midstates are as good as the key.
        f.write_str("HmacKey { .. }")
    }
}

impl HmacKey {
    /// Sets up `key` (any length; keys longer than the block size are
    /// hashed first, per RFC 2104).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&block_key.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: absorb(0x36),
            outer: absorb(0x5c),
        }
    }

    /// Starts a streaming MAC under this key.
    #[must_use]
    pub fn start(&self) -> HmacSha256 {
        HmacSha256(self.clone())
    }

    /// The 32-byte tag of `message`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut mac = self.start();
        mac.update(message);
        mac.finalize()
    }

    /// [`Self::mac`] truncated to a little-endian `u64` (see [`hmac_u64`]).
    #[must_use]
    pub fn mac_u64(&self, message: &[u8]) -> u64 {
        sha256::digest_to_u64(&self.mac(message))
    }
}

/// A streaming HMAC-SHA256 computation (see [`HmacKey::start`]).
#[derive(Clone, Debug)]
pub struct HmacSha256(HmacKey);

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (see [`HmacKey::new`]).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        HmacSha256(HmacKey::new(key))
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.0.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let HmacKey { inner, mut outer } = self.0;
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
#[must_use]
pub fn hmac(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// One-shot HMAC-SHA256 truncated to a little-endian `u64`, the width of the
/// trace-level fingerprints.
#[must_use]
pub fn hmac_u64(key: &[u8], message: &[u8]) -> u64 {
    HmacKey::new(key).mac_u64(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 4: 0x01..=0x19 key, 0xcd*50 data.
    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex(&hmac(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    // RFC 4231 test case 6: key larger than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 4231 test case 7: long key and long data.
    #[test]
    fn rfc4231_case7_long_key_long_data() {
        let key = [0xaau8; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&hmac(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// RFC 2104 spelled out with one-shot digests, independent of the
    /// precomputed midstates: `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`.
    fn textbook_hmac(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut k = if key.len() > BLOCK_LEN {
            sha256::digest(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK_LEN, 0);
        let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        let inner = sha256::digest(&[&ipad[..], message].concat());
        sha256::digest(&[&opad[..], &inner[..]].concat())
    }

    #[test]
    fn keyed_mac_matches_textbook_composition() {
        let msg: Vec<u8> = (0..200u32).map(|i| (i * 7 % 256) as u8).collect();
        for key_len in [0usize, 20, 64, 65, 131] {
            let raw: Vec<u8> = (0..key_len).map(|i| (i * 13 % 256) as u8).collect();
            let key = HmacKey::new(&raw);
            for len in 0..=msg.len() {
                let want = textbook_hmac(&raw, &msg[..len]);
                assert_eq!(key.mac(&msg[..len]), want, "key {key_len}, msg {len}");
                assert_eq!(key.mac_u64(&msg[..len]).to_le_bytes(), want[..8]);
            }
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        let secret = [0x42u8; 20];
        let shown = [
            format!("{:?}", HmacKey::new(&secret)),
            format!("{:?}", HmacSha256::new(&secret)),
        ];
        for pad in [0u8, 0x36, 0x5c] {
            let padded = format!("{:?}", secret.map(|b| b ^ pad));
            for s in &shown {
                assert!(!s.contains(&padded[1..padded.len() - 1]), "{s}");
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"some key";
        let msg: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let want = hmac(key, &msg);
        for split in [0usize, 1, 63, 64, 65, 100, 199, 200] {
            let mut mac = HmacSha256::new(key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        assert_ne!(hmac(b"k1", b"m"), hmac(b"k2", b"m"));
    }

    #[test]
    fn hmac_u64_is_le_prefix() {
        let tag = hmac(b"k", b"m");
        assert_eq!(hmac_u64(b"k", b"m").to_le_bytes(), tag[..8]);
    }
}
