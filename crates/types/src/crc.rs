//! CRC-16/CCITT-FALSE used to protect tag IDs (§III-A).
//!
//! The paper's air interface appends a 16-bit CRC to every 96-bit tag ID
//! ("We set the ID length to be 96 bits (including the 16 bits CRC code)",
//! §VI). The reader distinguishes a singleton slot from a collision slot by
//! decoding the received signal into a bit string and checking this CRC
//! (§III-B): a mixed signal from two or more tags decodes into garbage whose
//! CRC check fails with probability `1 - 2^-16`.
//!
//! We use CRC-16/CCITT-FALSE (polynomial `0x1021`, initial value `0xFFFF`,
//! no reflection, no final XOR), the variant used by ISO 18000-6 / EPC GEN2
//! class tags (there the CRC is additionally complemented; the protocols in
//! this workspace only care that the code detects corrupted/mixed IDs, so we
//! keep the plain variant).

/// Width of the CRC in bits.
pub const CRC_BITS: u32 = 16;

/// The CCITT generator polynomial `x^16 + x^12 + x^5 + 1`.
pub const POLYNOMIAL: u16 = 0x1021;

/// Initial register value for CRC-16/CCITT-FALSE.
pub const INIT: u16 = 0xFFFF;

/// Computes the CRC-16/CCITT-FALSE checksum of `data`.
///
/// # Example
///
/// ```
/// // The catalogued check value for CRC-16/CCITT-FALSE over "123456789".
/// assert_eq!(rfid_types::crc::crc16(b"123456789"), 0x29B1);
/// ```
#[must_use]
pub fn crc16(data: &[u8]) -> u16 {
    let mut reg = INIT;
    for &byte in data {
        reg ^= u16::from(byte) << 8;
        for _ in 0..8 {
            if reg & 0x8000 != 0 {
                reg = (reg << 1) ^ POLYNOMIAL;
            } else {
                reg <<= 1;
            }
        }
    }
    reg
}

/// Computes the CRC over the low `bit_len` bits of `value`, most significant
/// bit first.
///
/// The bit string is processed exactly as the air interface would transmit
/// it.
///
/// # Panics
///
/// Panics if `bit_len > 128`.
#[must_use]
pub fn crc16_value(value: u128, bit_len: u32) -> u16 {
    assert!(bit_len <= 128, "bit_len must be <= 128, got {bit_len}");
    let mut reg = INIT;
    for i in (0..bit_len).rev() {
        let bit = ((value >> i) & 1) as u16;
        let msb = (reg >> 15) & 1;
        reg <<= 1;
        if msb ^ bit != 0 {
            reg ^= POLYNOMIAL;
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value_matches_catalog() {
        // Standard check string for CRC-16/CCITT-FALSE.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input_yields_init() {
        assert_eq!(crc16(&[]), INIT);
        assert_eq!(crc16_value(0, 0), INIT);
    }

    #[test]
    fn value_agrees_with_bytewise() {
        let data = [0xDEu8, 0xAD, 0xBE, 0xEF];
        let value = u128::from(u32::from_be_bytes(data));
        assert_eq!(crc16(&data), crc16_value(value, 32));
    }

    #[test]
    fn single_bit_flip_always_detected() {
        // CRC-16 detects all single-bit errors.
        let payload: u128 = 0x0012_3456_789A_BCDE_F055;
        let crc = crc16_value(payload, 80);
        for i in 0..80 {
            let corrupted = payload ^ (1u128 << i);
            assert_ne!(crc16_value(corrupted, 80), crc, "flip at bit {i}");
        }
    }

    #[test]
    fn burst_errors_up_to_16_bits_detected() {
        // CRC-16 detects all burst errors of length <= 16.
        let payload: u128 = 0x000F_0FF0_F012_34AB_CD99;
        let crc = crc16_value(payload, 80);
        for start in 0..(80 - 16) {
            for len in 1..=16u32 {
                let mask = ((1u128 << len) - 1) << start;
                let corrupted = payload ^ mask;
                assert_ne!(crc16_value(corrupted, 80), crc, "burst {start}+{len}");
            }
        }
    }

    #[test]
    fn value_truncates_to_bit_len() {
        // Only the low `bit_len` bits participate.
        assert_eq!(crc16_value(0xFF00, 8), crc16_value(0x00, 8));
        assert_ne!(crc16_value(0xFF00, 16), crc16_value(0x00, 16));
    }
}
