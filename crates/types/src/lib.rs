//! Core domain types shared by every crate in the ANC-RFID workspace.
//!
//! This crate defines the vocabulary of the system reproduced from
//! *"Using Analog Network Coding to Improve the RFID Reading Throughput"*
//! (Zhang, Li, Chen, Li — ICDCS 2010):
//!
//! * [`TagId`] — a 96-bit GEN2-style tag identifier whose low 16 bits are a
//!   CRC-16/CCITT checksum over the 80-bit payload (§III-A of the paper:
//!   "each ID carries a CRC code").
//! * [`crc`] — the CRC-16 implementation used both inside [`TagId`] and by
//!   the signal-layer demodulator to decide whether a decoded bit stream is a
//!   valid single-tag ID.
//! * [`hash`] — the deterministic slot-membership hash `H(ID|i)` from §IV-A,
//!   and [`CounterRng`], the SplitMix64 counter stream every waveform
//!   noise realization draws from.
//! * [`simd`] — the AVX-512 kernels (membership scan, counter-stream
//!   words, polar candidates, `ln`), each with a scalar reference.
//!   Both the tags and the reader evaluate it, which is what lets the reader
//!   reconstruct *which* known tags participated in an old collision slot.
//! * [`timing`] — the Philips I-Code air-interface timing used in §VI
//!   (53 kbit/s, 96-bit IDs, 20-bit acknowledgements, 302 µs guard times).
//! * [`slot`] — the slot-outcome taxonomy (empty / singleton / k-collision).
//! * [`population`] — tag-population generators for experiments.
//! * [`TagSet`] / [`TagMap`] — `TagId`-keyed hash containers with a
//!   folded-multiply hasher in place of SipHash.
//!
//! # Example
//!
//! ```
//! use rfid_types::{TagId, hash::transmits};
//!
//! let id = TagId::from_payload(0xA5A5_5A5A_DEAD_BEEF_00);
//! assert!(id.crc_is_valid());
//! // Deterministic membership test used by SCAT/FCAT: does this tag
//! // transmit in slot 7 when the advertised probability is 0.5?
//! let l = 16;
//! let threshold = (0.5 * f64::from(1u32 << l)) as u64;
//! let _ = transmits(id, 7, threshold, l);
//! ```

// `deny`, not `forbid`: `simd` is the workspace's one
// module that allows `unsafe_code`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod epc;
pub mod hash;
pub mod population;
pub mod simd;
pub mod slot;
pub mod timing;

mod id;
mod tag_map;

pub use hash::CounterRng;
pub use id::{ParseTagIdError, TagId, PAYLOAD_BITS, TAG_ID_BITS};
pub use slot::SlotClass;
pub use tag_map::{TagIdHasher, TagMap, TagSet};
pub use timing::TimingConfig;
