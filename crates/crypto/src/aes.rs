//! The AES block cipher (FIPS-197), encryption direction, with 128- and
//! 256-bit keys.
//!
//! The state is four big-endian 32-bit columns. SubBytes, ShiftRows and
//! MixColumns of one state byte are folded into one table entry — the
//! column that byte contributes to the next state — so a round is sixteen
//! loads from the four 1 KiB tables `TE` XORed into the round key, and
//! the key schedule is expanded once into a fixed array of words.
//!
//! Only encryption is here: CTR, the one mode the workspace uses, never runs
//! the inverse cipher. The byte-oriented transcription of FIPS-197, both
//! directions, is kept as the test oracle (`aes/reference.rs`). Not
//! side-channel hardened — see the crate-level security note.

#[cfg(test)]
pub(crate) mod reference;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x in GF(2^8) with the AES polynomial.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `TE[r][x]`: what a state byte `x` in row `r` contributes to its column
/// of the next state — the MixColumns column of `SBOX[x]`, most
/// significant byte first, rotated down by `r` rows.
const fn te_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let column = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        let mut row = 0;
        while row < 4 {
            te[row][x] = column.rotate_right(8 * row as u32);
            row += 1;
        }
        x += 1;
    }
    te
}

static TE: [[u32; 256]; 4] = te_tables();

/// Round-key words of the longest schedule (AES-256: 15 round keys).
const MAX_ROUND_KEY_WORDS: usize = 60;

/// An expanded AES key, usable for block encryption.
///
/// # Example
///
/// ```
/// use freqdedup_crypto::aes::Aes;
///
/// // FIPS-197 appendix C.1.
/// let key: [u8; 16] = std::array::from_fn(|i| i as u8);
/// let mut block: [u8; 16] = std::array::from_fn(|i| 0x11 * i as u8);
/// Aes::new_128(&key).encrypt_block(&mut block);
/// assert_eq!(block[..4], [0x69, 0xc4, 0xe0, 0xd8]);
/// ```
#[derive(Clone)]
pub struct Aes {
    /// `4 * (rounds + 1)` words are in use.
    round_keys: [u32; MAX_ROUND_KEY_WORDS],
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

/// SubWord of the key schedule: the S-box on each byte of a word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

impl Aes {
    /// Expands a 128-bit key.
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key)
    }

    /// Expands a 256-bit key.
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key)
    }

    /// FIPS-197 §5.2 over words; `key` is 16 or 32 bytes.
    fn expand(key: &[u8]) -> Self {
        let nk = key.len() / 4;
        let rounds = nk + 6;
        let mut w = [0u32; MAX_ROUND_KEY_WORDS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / nk - 1]) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        Aes {
            round_keys: w,
            rounds,
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let [out] = self.encrypt_wide([u128::from_be_bytes(*block)]);
        *block = out.to_be_bytes();
    }

    /// Encrypts `N` independent blocks, each the big-endian integer of its
    /// sixteen bytes. Every round runs across all blocks before the next
    /// begins, so the table loads of one block overlap those of the others.
    #[inline]
    pub(crate) fn encrypt_wide<const N: usize>(&self, blocks: [u128; N]) -> [u128; N] {
        let mut round_keys = self.round_keys[..4 * (self.rounds + 1)].chunks_exact(4);
        let mut next_key = || -> [u32; 4] {
            let rk = round_keys.next().expect("rounds + 1 round keys");
            rk.try_into().expect("4-word chunk")
        };
        let rk = next_key();
        let mut state = blocks.map(|b| {
            let s = [
                (b >> 96) as u32,
                (b >> 64) as u32,
                (b >> 32) as u32,
                b as u32,
            ];
            std::array::from_fn::<u32, 4, _>(|c| s[c] ^ rk[c])
        });
        for _ in 1..self.rounds {
            let rk = next_key();
            for s in &mut state {
                *s = std::array::from_fn(|c| {
                    TE[0][(s[c] >> 24) as usize]
                        ^ TE[1][usize::from((s[(c + 1) % 4] >> 16) as u8)]
                        ^ TE[2][usize::from((s[(c + 2) % 4] >> 8) as u8)]
                        ^ TE[3][usize::from(s[(c + 3) % 4] as u8)]
                        ^ rk[c]
                });
            }
        }
        // The last round has no MixColumns: S-box bytes, shifted rows.
        let rk = next_key();
        state.map(|s| {
            let t: [u32; 4] = std::array::from_fn(|c| {
                u32::from_be_bytes([
                    SBOX[(s[c] >> 24) as usize],
                    SBOX[usize::from((s[(c + 1) % 4] >> 16) as u8)],
                    SBOX[usize::from((s[(c + 2) % 4] >> 8) as u8)],
                    SBOX[usize::from(s[(c + 3) % 4] as u8)],
                ]) ^ rk[c]
            });
            u128::from(t[0]) << 96
                | u128::from(t[1]) << 64
                | u128::from(t[2]) << 32
                | u128::from(t[3])
        })
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }
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

    /// Encrypts under both ciphers, checks they agree and that the oracle
    /// decrypts the result back; returns the ciphertext.
    fn encrypt_checked(key: &[u8], plain: [u8; 16]) -> [u8; 16] {
        let (new, old) = match key.len() {
            16 => {
                let key = key.try_into().unwrap();
                (Aes::new_128(key), reference::Aes::new_128(key))
            }
            _ => {
                let key = key.try_into().unwrap();
                (Aes::new_256(key), reference::Aes::new_256(key))
            }
        };
        let mut block = plain;
        new.encrypt_block(&mut block);
        let mut by_oracle = plain;
        old.encrypt_block(&mut by_oracle);
        assert_eq!(block, by_oracle, "table core diverges from FIPS-197 oracle");
        old.decrypt_block(&mut by_oracle);
        assert_eq!(by_oracle, plain);
        block
    }

    // FIPS-197 Appendix C.1.
    #[test]
    fn fips197_aes128() {
        let ct = encrypt_checked(
            &parse_hex("000102030405060708090a0b0c0d0e0f"),
            parse_hex("00112233445566778899aabbccddeeff")
                .try_into()
                .unwrap(),
        );
        assert_eq!(ct.to_vec(), parse_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    // FIPS-197 Appendix C.3.
    #[test]
    fn fips197_aes256() {
        let ct = encrypt_checked(
            &parse_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
            parse_hex("00112233445566778899aabbccddeeff")
                .try_into()
                .unwrap(),
        );
        assert_eq!(ct.to_vec(), parse_hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    // SP 800-38A F.1.1 (ECB-AES128) first block.
    #[test]
    fn sp800_38a_ecb128_block1() {
        let ct = encrypt_checked(
            &parse_hex("2b7e151628aed2a6abf7158809cf4f3c"),
            parse_hex("6bc1bee22e409f96e93d7e117393172a")
                .try_into()
                .unwrap(),
        );
        assert_eq!(ct.to_vec(), parse_hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    /// Deterministic pseudo-random bytes (a 64-bit LCG's top byte).
    pub(crate) fn lcg_bytes(state: &mut u64, out: &mut [u8]) {
        for b in out {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (*state >> 56) as u8;
        }
    }

    #[test]
    fn matches_oracle_on_random_keys_and_blocks() {
        let mut x = 0x0123_4567_89ab_cdefu64;
        for _ in 0..1000 {
            let mut key = [0u8; 32];
            let mut block = [0u8; 16];
            lcg_bytes(&mut x, &mut key);
            lcg_bytes(&mut x, &mut block);
            assert_ne!(encrypt_checked(&key[..16], block), block);
            assert_ne!(encrypt_checked(&key, block), block);
        }
    }

    #[test]
    fn wide_encryption_equals_block_by_block() {
        let aes = Aes::new_256(&[9u8; 32]);
        let blocks: [u128; 4] = std::array::from_fn(|i| (i as u128) << 100 | 0xfeed_f00d);
        let wide = aes.encrypt_wide(blocks);
        for (block, got) in blocks.iter().zip(wide) {
            let mut bytes = block.to_be_bytes();
            aes.encrypt_block(&mut bytes);
            assert_eq!(got.to_be_bytes(), bytes);
        }
    }

    #[test]
    fn rounds_reported() {
        assert_eq!(Aes::new_128(&[0; 16]).rounds(), 10);
        assert_eq!(Aes::new_256(&[0; 32]).rounds(), 14);
    }

    #[test]
    fn debug_hides_key_material() {
        let s = format!("{:?}", Aes::new_128(&[0x42; 16]));
        assert!(!s.contains("42"), "debug output leaked key bytes: {s}");
    }
}
