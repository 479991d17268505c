//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), implemented from
//! scratch with a compile-time lookup table.
//!
//! Crystal uses "a standard hashing function CRC-32 [59]" for placement
//! (paper §5.1). Here it hashes a data partition `D_T` to the worker a
//! unit starts on ([`crate::work::Partition::placement_hash`]), and
//! checksums the chase's WAL and checkpoint frames.

/// 256-entry lookup table for the reflected polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn distinct_inputs_distinct_codes() {
        assert_ne!(crc32(b"10.0.0.1"), crc32(b"10.0.0.2"));
    }
}
