//! Test oracle: FIPS-197 transcribed byte by byte, both directions.
//!
//! This is the cipher the workspace shipped before the table-driven core in
//! the parent module, kept unchanged so the differential tests compare the
//! new code with the code that wrote every existing store and wire byte.

use super::{xtime, BLOCK_LEN, SBOX};

/// The inverse AES S-box.
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

/// Generic GF(2^8) multiplication. Compile-time only: runtime InvMixColumns
/// reads the precomputed [`MUL9`]/[`MUL11`]/[`MUL13`]/[`MUL14`] tables
/// instead of running this 8-iteration loop per byte.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// Builds the 256-entry GF(2^8) multiplication table of a constant factor.
const fn gmul_table(factor: u8) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = gmul(i as u8, factor);
        i += 1;
    }
    table
}

/// InvMixColumns multiplication tables for the four matrix coefficients
/// ({9, 11, 13, 14}); 1 KiB total, resident in L1 on the decryption path.
const MUL9: [u8; 256] = gmul_table(9);
const MUL11: [u8; 256] = gmul_table(11);
const MUL13: [u8; 256] = gmul_table(13);
const MUL14: [u8; 256] = gmul_table(14);

/// Key size variants supported by [`Aes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes256 => 14,
        }
    }

    fn key_words(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes256 => 8,
        }
    }
}

/// An expanded AES key, usable for block encryption and decryption.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    rounds: usize,
}

impl Aes {
    /// Expands a 128-bit key.
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, KeySize::Aes128)
    }

    /// Expands a 256-bit key.
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, KeySize::Aes256)
    }

    fn expand(key: &[u8], size: KeySize) -> Self {
        let nk = size.key_words();
        let rounds = size.rounds();
        let total_words = 4 * (rounds + 1);

        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }

        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (i, word) in c.iter().enumerate() {
                    rk[4 * i..4 * i + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();

        Aes { round_keys, rounds }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[self.rounds]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..self.rounds).rev() {
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State is column-major: byte `state[4*c + r]` is row r, column c.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = state[13];
    state[13] = state[9];
    state[9] = state[5];
    state[5] = state[1];
    state[1] = t;
    // Row 2: shift right by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = state[3];
    state[3] = state[7];
    state[7] = state[11];
    state[11] = state[15];
    state[15] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
        state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
        state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
        state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
    }
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let [a, b, d, e] = col.map(usize::from);
        state[4 * c] = MUL14[a] ^ MUL11[b] ^ MUL13[d] ^ MUL9[e];
        state[4 * c + 1] = MUL9[a] ^ MUL14[b] ^ MUL11[d] ^ MUL13[e];
        state[4 * c + 2] = MUL13[a] ^ MUL9[b] ^ MUL14[d] ^ MUL11[e];
        state[4 * c + 3] = MUL11[a] ^ MUL13[b] ^ MUL9[d] ^ MUL14[e];
    }
}

#[test]
fn inv_mix_tables_match_gmul() {
    for i in 0..=255u8 {
        assert_eq!(MUL9[i as usize], gmul(i, 9));
        assert_eq!(MUL11[i as usize], gmul(i, 11));
        assert_eq!(MUL13[i as usize], gmul(i, 13));
        assert_eq!(MUL14[i as usize], gmul(i, 14));
    }
}
