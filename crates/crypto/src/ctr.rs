//! CTR-mode stream encryption over AES (NIST SP 800-38A §6.5).
//!
//! CTR is the symmetric mode used by the MLE schemes in `freqdedup-mle`:
//! it is length-preserving, so a ciphertext chunk has exactly the size of its
//! plaintext chunk, matching the paper's advanced attack assumption that both
//! sides classify by `ceil(size / 16)` AES blocks (§4.3).
//!
//! The counter block is the big-endian 128-bit value of the nonce,
//! incremented by one per block (standard incrementing function over the full
//! block, as in SP 800-38A appendix B.1).

use crate::aes::{Aes, BLOCK_LEN};

/// Keystream blocks produced per [`Aes::encrypt_wide`] call on the bulk
/// path. Measured at 1, 2, 3, 4 and 8 on x86-64: two interleaved blocks
/// were fastest (≈ +20 % over one), eight half as fast as one — their
/// columns no longer fit the registers.
const WIDE: usize = 2;

/// A CTR-mode keystream generator/applier over an expanded AES key.
#[derive(Clone, Debug)]
pub struct Ctr {
    aes: Aes,
    /// The next counter block, as the big-endian integer it encodes.
    counter: u128,
    /// Keystream of the block a call ended inside of.
    keystream: [u8; BLOCK_LEN],
    /// Offset of the next unused keystream byte; `BLOCK_LEN` means empty.
    ks_used: usize,
}

impl Ctr {
    /// Creates a CTR stream from an expanded AES key and a 16-byte initial
    /// counter block (nonce).
    #[must_use]
    pub fn from_aes(aes: Aes, iv: &[u8; BLOCK_LEN]) -> Self {
        Ctr {
            aes,
            counter: u128::from_be_bytes(*iv),
            keystream: [0u8; BLOCK_LEN],
            ks_used: BLOCK_LEN,
        }
    }

    /// XORs the keystream into `data` in place. Calling this twice with the
    /// same key/IV restores the original data. A call may end anywhere in a
    /// block; the next one continues from that byte.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let carried = data.len().min(BLOCK_LEN - self.ks_used);
        let (head, data) = data.split_at_mut(carried);
        for (byte, ks) in head.iter_mut().zip(&self.keystream[self.ks_used..]) {
            *byte ^= ks;
        }
        self.ks_used += carried;

        let mut groups = data.chunks_exact_mut(WIDE * BLOCK_LEN);
        for group in &mut groups {
            let keystream = self.next_blocks::<WIDE>();
            for (block, ks) in group.chunks_exact_mut(BLOCK_LEN).zip(keystream) {
                xor_block(block, ks);
            }
        }
        let mut blocks = groups.into_remainder().chunks_exact_mut(BLOCK_LEN);
        for block in &mut blocks {
            let [ks] = self.next_blocks();
            xor_block(block, ks);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let [ks] = self.next_blocks();
            self.keystream = ks.to_be_bytes();
            for (byte, ks) in tail.iter_mut().zip(&self.keystream) {
                *byte ^= ks;
            }
            self.ks_used = tail.len();
        }
    }

    /// The next `N` keystream blocks as big-endian integers; the counter
    /// moves past them (the standard incrementing function over the whole
    /// block, wrapping at 2^128).
    fn next_blocks<const N: usize>(&mut self) -> [u128; N] {
        let counters = std::array::from_fn(|i| self.counter.wrapping_add(i as u128));
        self.counter = self.counter.wrapping_add(N as u128);
        self.aes.encrypt_wide(counters)
    }
}

/// XORs one keystream block into a 16-byte slice of data.
fn xor_block(block: &mut [u8], keystream: u128) {
    let block: &mut [u8; BLOCK_LEN] = block.try_into().expect("whole block");
    *block = (u128::from_be_bytes(*block) ^ keystream).to_be_bytes();
}

/// AES-128 in CTR mode.
///
/// # Example
///
/// ```
/// use freqdedup_crypto::ctr::Aes128Ctr;
///
/// let mut buf = b"some plaintext".to_vec();
/// Aes128Ctr::new(&[1u8; 16], &[0u8; 16]).apply_keystream(&mut buf);
/// Aes128Ctr::new(&[1u8; 16], &[0u8; 16]).apply_keystream(&mut buf);
/// assert_eq!(buf, b"some plaintext");
/// ```
#[derive(Clone, Debug)]
pub struct Aes128Ctr(Ctr);

impl Aes128Ctr {
    /// Creates the stream from a raw 16-byte key and 16-byte IV.
    #[must_use]
    pub fn new(key: &[u8; 16], iv: &[u8; BLOCK_LEN]) -> Self {
        Aes128Ctr(Ctr::from_aes(Aes::new_128(key), iv))
    }

    /// XORs the keystream into `data` in place.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.0.apply_keystream(data);
    }
}

/// AES-256 in CTR mode. This is the cipher used by the MLE schemes (the
/// convergent key is a full SHA-256 digest).
#[derive(Clone, Debug)]
pub struct Aes256Ctr(Ctr);

impl Aes256Ctr {
    /// Creates the stream from a raw 32-byte key and 16-byte IV.
    #[must_use]
    pub fn new(key: &[u8; 32], iv: &[u8; BLOCK_LEN]) -> Self {
        Aes256Ctr(Ctr::from_aes(Aes::new_256(key), iv))
    }

    /// XORs the keystream into `data` in place.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.0.apply_keystream(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The previous implementation's counter step: a byte-wise big-endian
    /// increment with carry.
    fn increment_be(counter: &mut [u8; BLOCK_LEN]) {
        for byte in counter.iter_mut().rev() {
            let (v, carry) = byte.overflowing_add(1);
            *byte = v;
            if !carry {
                break;
            }
        }
    }

    /// The previous implementation, whole: one oracle block encryption per
    /// counter block, one keystream byte XORed at a time.
    fn reference_ctr(aes: &reference::Aes, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let mut counter = *iv;
        for block in data.chunks_mut(BLOCK_LEN) {
            let mut keystream = counter;
            aes.encrypt_block(&mut keystream);
            increment_be(&mut counter);
            for (byte, ks) in block.iter_mut().zip(keystream) {
                *byte ^= ks;
            }
        }
    }

    const SP800_38A_PLAIN: &str = concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710"
    );
    const SP800_38A_IV: &str = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key: [u8; 16] = parse_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = parse_hex(SP800_38A_IV).try_into().unwrap();
        let mut data = parse_hex(SP800_38A_PLAIN);
        Aes128Ctr::new(&key, &iv).apply_keystream(&mut data);
        assert_eq!(
            data,
            parse_hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee"
            ))
        );
    }

    // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt, all four blocks.
    #[test]
    fn sp800_38a_ctr_aes256() {
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let iv: [u8; 16] = parse_hex(SP800_38A_IV).try_into().unwrap();
        let mut data = parse_hex(SP800_38A_PLAIN);
        Aes256Ctr::new(&key, &iv).apply_keystream(&mut data);
        assert_eq!(
            data,
            parse_hex(concat!(
                "601ec313775789a5b7a7f504bbf3d228",
                "f443e3ca4d62b59aca84e990cacaf5c5",
                "2b0930daa23de94ce87017ba2d84988d",
                "dfc9c58db67aada613c2dd08457941a6"
            ))
        );
    }

    #[test]
    fn every_split_of_a_message_equals_one_call() {
        let key = [3u8; 32];
        let iv = [5u8; 16];
        let oracle = reference::Aes::new_256(&key);
        for len in 0..=80usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let mut whole = data.clone();
            Aes256Ctr::new(&key, &iv).apply_keystream(&mut whole);
            let mut by_oracle = data.clone();
            reference_ctr(&oracle, &iv, &mut by_oracle);
            assert_eq!(whole, by_oracle, "len {len}");
            for a in 0..=len {
                for b in a..=len {
                    let mut pieces = data.clone();
                    let mut ctr = Aes256Ctr::new(&key, &iv);
                    ctr.apply_keystream(&mut pieces[..a]);
                    ctr.apply_keystream(&mut pieces[a..b]);
                    ctr.apply_keystream(&mut pieces[b..]);
                    assert_eq!(pieces, whole, "len {len} split at {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn long_messages_match_the_oracle_in_uneven_pieces() {
        let key = [0xabu8; 16];
        let iv = [0x11u8; 16];
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut by_oracle = original.clone();
        reference_ctr(&reference::Aes::new_128(&key), &iv, &mut by_oracle);
        for piece in [1usize, 7, 16, 63, 64, 65, 200, 1000] {
            let mut buf = original.clone();
            let mut ctr = Aes128Ctr::new(&key, &iv);
            for chunk in buf.chunks_mut(piece) {
                ctr.apply_keystream(chunk);
            }
            assert_eq!(buf, by_oracle, "pieces of {piece}");
        }
        let mut buf = by_oracle;
        Aes128Ctr::new(&key, &iv).apply_keystream(&mut buf);
        assert_eq!(buf, original, "applying twice is the identity");
    }

    #[test]
    fn counter_carries_across_every_boundary_like_increment_be() {
        let key = [0x5au8; 32];
        let oracle = reference::Aes::new_256(&key);
        // Every `..ff` boundary up to the full 2^128 wrap, approached from
        // up to five blocks below so the carry lands at each position of the
        // wide group and in the single-block tail.
        let starts = (1..=16).map(|bytes| u128::MAX >> (128 - 8 * bytes));
        for low in starts {
            for back in 0..=5u128 {
                let iv = low.wrapping_sub(back).to_be_bytes();
                let mut data = [0u8; 8 * BLOCK_LEN + 5];
                let mut by_oracle = data;
                Aes256Ctr::new(&key, &iv).apply_keystream(&mut data);
                reference_ctr(&oracle, &iv, &mut by_oracle);
                assert_eq!(data, by_oracle, "counter {low:#x} - {back}");
            }
        }
        let mut c = [0xffu8; 16];
        increment_be(&mut c);
        assert_eq!(c, [0u8; 16], "the oracle itself wraps at 2^128");
    }

    #[test]
    fn different_iv_different_stream() {
        let mut a = b"payload".to_vec();
        let mut b = b"payload".to_vec();
        Aes256Ctr::new(&[1; 32], &[2; 16]).apply_keystream(&mut a);
        Aes256Ctr::new(&[1; 32], &[3; 16]).apply_keystream(&mut b);
        assert_ne!(a, b);
    }
}
