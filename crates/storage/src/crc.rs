//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slicing-by-16.
//!
//! One shared implementation backs every on-disk integrity check of the
//! durable store: the per-page checksum in the page header, the per-record
//! checksum of the metadata write-ahead log, and the whole-file checksum of
//! the manifest. Every page that comes off the device is verified and every
//! page that goes to it is stamped, so this loop sits under all I/O; the
//! wall-clock benchmark showed the byte-at-a-time table algorithm was the
//! largest single cost of a buffer-pool miss and of building a page.
//!
//! Slicing-by-16 (Kounavis & Berry's slicing-by-8, widened) consumes sixteen
//! input bytes per step with sixteen independent table lookups instead of
//! sixteen dependent ones, which is what makes it ~5x faster than the classic
//! loop on the same hardware. It is dependency-free safe Rust (the build
//! environment has no crate registry), the sixteen 256-entry tables are built
//! by a `const fn`, and the values are bit-identical to the classic algorithm
//! — which survives in this file's tests as the oracle.

/// `TABLES[0]` is the classic 256-entry table of the reflected polynomial;
/// `TABLES[k][b]` is the CRC state after feeding byte `b` followed by `k`
/// zero bytes, which lets one step fold sixteen bytes at once.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 of `bytes` (IEEE, as used by gzip/zlib/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(0xFFFF_FFFF, bytes))
}

/// Feeds more bytes into a running (pre-inverted) CRC state. Start from
/// `0xFFFF_FFFF`, xor with `0xFFFF_FFFF` when done; [`crc32`] does both for
/// the single-slice case, this form lets callers checksum discontiguous
/// regions (e.g. a page minus its checksum slot) without copying.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let d = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let e = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
        state = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    // Fewer than sixteen bytes are left.
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Finishes a running CRC state started at `0xFFFF_FFFF`.
#[inline]
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time table algorithm: the reference the sliced
    /// implementation must agree with on every input.
    fn reference_update(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// Deterministic, non-repeating filler (a multiplicative congruential
    /// byte stream), so no alignment or period hides a lane mix-up.
    fn filler(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn first_table_is_the_classic_one() {
        // Spot values of the reflected 0xEDB88320 table.
        assert_eq!(TABLES[0][0], 0);
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn matches_reference_for_every_length() {
        let data = filler(4200);
        for len in 0..=data.len() {
            assert_eq!(
                crc32_update(0xFFFF_FFFF, &data[..len]),
                reference_update(0xFFFF_FFFF, &data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn matches_reference_at_misaligned_starts_and_states() {
        let data = filler(4200);
        for start in 0..40 {
            for len in [0, 1, 7, 15, 16, 17, 31, 33, 255, 4080, 4096] {
                let slice = &data[start..start + len];
                for state in [0, 0xFFFF_FFFF, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, slice),
                        reference_update(state, slice),
                        "start {start} length {len} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split_point() {
        let data = filler(600);
        let one_shot = crc32(&data);
        assert_eq!(crc32_finish(reference_update(0xFFFF_FFFF, &data)), one_shot);
        for split in 0..=data.len() {
            let state = crc32_update(0xFFFF_FFFF, &data[..split]);
            assert_eq!(
                crc32_finish(crc32_update(state, &data[split..])),
                one_shot,
                "split {split}"
            );
        }
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(crc32_finish(state), one_shot);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 4096];
        let clean = crc32(&data);
        for bit in [0usize, 1, 9, 4095 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "bit {bit} flip went undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
