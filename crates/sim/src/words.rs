//! The checkpoint word codec: state that checkpoints as unsigned JSON
//! words. A float travels as its IEEE-754 bit word, so the round trip is
//! bit-exact and safe for non-finite values (which JSON numbers would
//! collapse to `null`); a P-state or id travels as its index. In memory
//! every type here is its plain value (or a `Vec` of them), so state
//! structs built from them are read and written directly and a snapshot
//! is a clone.

use nps_models::PState;
use serde::{Deserialize, Serialize, Serializer, Value};
use std::ops::{Deref, DerefMut};

use crate::ids::VmId;

/// A per-server (or per-VM) array that checkpoints as one word per
/// element, written through the shim's `uint_seq` in one pass. Two
/// arrays are equal when their words are, so snapshots compare as their
/// text does.
macro_rules! word_array {
    ($(#[$doc:meta])* $name:ident($elem:ty), $to_word:expr, $from_word:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default)]
        pub struct $name(pub Vec<$elem>);

        impl Deref for $name {
            type Target = Vec<$elem>;
            fn deref(&self) -> &Vec<$elem> {
                &self.0
            }
        }

        impl DerefMut for $name {
            fn deref_mut(&mut self) -> &mut Vec<$elem> {
                &mut self.0
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.0.len() == other.0.len()
                    && self.0.iter().zip(&other.0).all(|(&a, &b)| $to_word(a) == $to_word(b))
            }
        }

        impl Eq for $name {}

        impl Serialize for $name {
            fn serialize(&self, s: &mut Serializer) {
                s.uint_seq(self.0.iter().map(|&v| $to_word(v)));
            }
        }

        impl Deserialize for $name {
            fn deserialize(v: &Value) -> Result<Self, serde::Error> {
                let words = Vec::<u64>::deserialize(v)?;
                Ok(Self(words.into_iter().map($from_word).collect()))
            }
        }
    };
}

word_array!(
    /// A float array that checkpoints as IEEE-754 bit words.
    FloatBits(f64),
    f64::to_bits,
    f64::from_bits
);

word_array!(
    /// Per-server P-states, checkpointed as their indices.
    PStates(PState),
    |p: PState| p.index() as u64,
    |w: u64| PState(w as usize)
);

word_array!(
    /// Per-server standing P-state demands, checkpointed as one word
    /// each (`u64::MAX` = none).
    PStateHolds(Option<PState>),
    |h: Option<PState>| h.map_or(u64::MAX, |p| p.index() as u64),
    |w: u64| (w != u64::MAX).then_some(PState(w as usize))
);

word_array!(
    /// One server's resident VMs in insertion order, checkpointed as
    /// their indices.
    VmIds(VmId),
    |vm: VmId| vm.index() as u64,
    |w: u64| VmId(w as usize)
);

/// A single float that checkpoints as its IEEE-754 bit word: the scalar
/// sibling of [`FloatBits`], equal to another when the bits are.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatWord(pub f64);

impl Deref for FloatWord {
    type Target = f64;
    fn deref(&self) -> &f64 {
        &self.0
    }
}

impl DerefMut for FloatWord {
    fn deref_mut(&mut self) -> &mut f64 {
        &mut self.0
    }
}

impl PartialEq for FloatWord {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for FloatWord {}

impl Serialize for FloatWord {
    fn serialize(&self, s: &mut Serializer) {
        s.uint(self.0.to_bits());
    }
}

impl Deserialize for FloatWord {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        u64::deserialize(v).map(|w| Self(f64::from_bits(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values a JSON number cannot carry exactly, or at all.
    fn awkward() -> Vec<f64> {
        vec![
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            0.1,
        ]
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn float_bits_round_trip_through_json_text_bit_for_bit() {
        let values = awkward();
        let text = serde_json::to_string(&FloatBits(values.clone())).unwrap();
        assert_eq!(text, serde_json::to_string(&bits(&values)).unwrap());
        let back: FloatBits = serde_json::from_str(&text).unwrap();
        assert_eq!(bits(&back), bits(&values));
        assert_eq!(back, FloatBits(values));
    }

    #[test]
    fn float_word_round_trips_through_json_text_bit_for_bit() {
        for v in awkward() {
            let text = serde_json::to_string(&FloatWord(v)).unwrap();
            assert_eq!(text, v.to_bits().to_string());
            let back: FloatWord = serde_json::from_str(&text).unwrap();
            assert_eq!(back.0.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn equality_is_bitwise() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(FloatWord(nan), FloatWord(nan));
        assert_ne!(FloatWord(0.0), FloatWord(-0.0));
        assert_eq!(FloatBits(vec![nan, 1.0]), FloatBits(vec![nan, 1.0]));
        assert_ne!(FloatBits(vec![0.0]), FloatBits(vec![-0.0]));
        assert_ne!(FloatBits(vec![0.0]), FloatBits(vec![0.0, 0.0]));
    }

    #[test]
    fn a_word_that_is_not_an_unsigned_integer_is_a_decode_error() {
        for bad in ["-1", "1.5", "\"7\"", "null", "[]"] {
            assert!(serde_json::from_str::<FloatWord>(bad).is_err(), "{bad}");
        }
        for bad in ["[1,-1]", "[0.5]", "[1,null]", "{}", "7"] {
            assert!(serde_json::from_str::<FloatBits>(bad).is_err(), "{bad}");
        }
    }
}
