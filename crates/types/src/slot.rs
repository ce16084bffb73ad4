//! Slot-outcome taxonomy (§III-A).
//!
//! > "If no tag transmits in a time slot, we call it an *empty* slot. If one
//! > tag transmits, it is called a *singleton* slot. If more than one tag
//! > transmits, it is a *collision* slot. In particular, if k tags transmit
//! > simultaneously, the slot is called a *k-collision* slot, where k ≥ 2."

/// Coarse slot class used for counting (Table II reports exactly these three
/// categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SlotClass {
    /// No transmission.
    Empty,
    /// Exactly one transmission.
    Singleton,
    /// Two or more transmissions.
    Collision,
}

impl core::fmt::Display for SlotClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SlotClass::Empty => "empty",
            SlotClass::Singleton => "singleton",
            SlotClass::Collision => "collision",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_class() {
        assert_eq!(SlotClass::Empty.to_string(), "empty");
        assert_eq!(SlotClass::Singleton.to_string(), "singleton");
        assert_eq!(SlotClass::Collision.to_string(), "collision");
    }
}
