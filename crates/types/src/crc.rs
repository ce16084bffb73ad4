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

/// The register after shifting in one byte, for every value of
/// `(register high byte) XOR byte`: entry `i` is `i << 8` run through eight
/// bit-serial steps. The low byte of the register only moves up by eight, so
/// one lookup replaces the eight steps (DESIGN.md §18).
const TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut reg = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            reg = if reg & 0x8000 != 0 {
                (reg << 1) ^ POLYNOMIAL
            } else {
                reg << 1
            };
            bit += 1;
        }
        table[i] = reg;
        i += 1;
    }
    table
};

/// Shifts one whole byte into the register.
#[inline]
fn update_byte(reg: u16, byte: u8) -> u16 {
    (reg << 8) ^ TABLE[usize::from((reg >> 8) as u8 ^ byte)]
}

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
    data.iter().fold(INIT, |reg, &byte| update_byte(reg, byte))
}

/// Computes the CRC over the low `bit_len` bits of `value`, most significant
/// bit first.
///
/// The bit string is processed exactly as the air interface would transmit
/// it: the `bit_len % 8` leading bits one at a time, then the rest a byte at
/// a time through the table.
///
/// # Panics
///
/// Panics if `bit_len > 128`.
#[must_use]
pub fn crc16_value(value: u128, bit_len: u32) -> u16 {
    assert!(bit_len <= 128, "bit_len must be <= 128, got {bit_len}");
    let bytes = bit_len / 8;
    let mut reg = INIT;
    for i in (bytes * 8..bit_len).rev() {
        let bit = ((value >> i) & 1) as u16;
        let msb = (reg >> 15) & 1;
        reg <<= 1;
        if msb ^ bit != 0 {
            reg ^= POLYNOMIAL;
        }
    }
    for k in (0..bytes).rev() {
        reg = update_byte(reg, (value >> (8 * k)) as u8);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bit-serial [`crc16_value`] the table replaces: one shift per
    /// input bit.
    fn crc16_value_bitwise(value: u128, bit_len: u32) -> u16 {
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

    #[test]
    fn table_matches_bitwise_reference_at_every_length() {
        let mut rng = StdRng::seed_from_u64(0xC2C);
        for bit_len in 0..=128u32 {
            let mut values = vec![0u128, u128::MAX];
            values.extend((0..500).map(|_| rng.gen::<u128>()));
            for value in values {
                assert_eq!(
                    crc16_value(value, bit_len),
                    crc16_value_bitwise(value, bit_len),
                    "value {value:#x}, bit_len {bit_len}"
                );
            }
        }
    }

    #[test]
    fn bytes_match_bitwise_reference() {
        // The reference takes at most 16 bytes, packed most significant
        // first, exactly as `crc16` reads them.
        let bitwise = |data: &[u8]| {
            let value = data.iter().fold(0u128, |v, &b| v << 8 | u128::from(b));
            crc16_value_bitwise(value, 8 * data.len() as u32)
        };
        assert_eq!(bitwise(b"123456789"), 0x29B1);
        let mut rng = StdRng::seed_from_u64(0xB17E);
        for len in 0..=16 {
            for _ in 0..200 {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                assert_eq!(crc16(&data), bitwise(&data), "{data:02x?}");
            }
            for fill in [0x00u8, 0xFF] {
                let data = vec![fill; len];
                assert_eq!(crc16(&data), bitwise(&data), "{data:02x?}");
            }
        }
    }

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
