//! The checkpoint word codec: state that checkpoints as unsigned JSON
//! words. A float travels as its IEEE-754 bit word, so the round trip is
//! bit-exact and safe for non-finite values (which JSON numbers would
//! collapse to `null`); a P-state or id travels as its index; a list of
//! records travels as word columns. In memory every type here is its
//! plain value (or a `Vec` of them), so state structs built from them
//! are read and written directly and a snapshot is a clone.

use nps_models::PState;
use serde::{Deserialize, Serialize, Serializer, Value};
use std::ops::{Deref, DerefMut};

use crate::bus::{LinkState, Pending};
use crate::ids::VmId;

/// Derefs a one-`Vec` newtype to its `Vec`, and clones it through the
/// `Vec`, whose `clone_from` reuses the target's buffer.
macro_rules! deref_vec {
    ($name:ident($elem:ty)) => {
        impl Clone for $name {
            fn clone(&self) -> Self {
                Self(self.0.clone())
            }

            fn clone_from(&mut self, source: &Self) {
                self.0.clone_from(&source.0);
            }
        }

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
    };
}

/// A per-server (or per-VM) array that checkpoints as one word per
/// element, written through the shim's `uint_seq` in one pass. Two
/// arrays are equal when their words are, so snapshots compare as their
/// text does.
macro_rules! word_array {
    ($(#[$doc:meta])* $name:ident($elem:ty), $to_word:expr, $from_word:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name(pub Vec<$elem>);

        deref_vec!($name($elem));

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

/// One server's resident VMs in insertion order ([`ResidentLists`]
/// checkpoints every server's list).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct VmIds(pub Vec<VmId>);

deref_vec!(VmIds(VmId));

/// Per-link bus state, in registration order, that checkpoints as three
/// word columns: `next_seq` and `accepted_seq`, one word per link, and
/// `pending`, one `[link, seq, watts bits, attempts, next_retry_at]`
/// record per link with an unacknowledged grant, in ascending link
/// order.
#[derive(Debug, PartialEq, Eq)]
pub struct LinkStates(pub Vec<LinkState>);

deref_vec!(LinkStates(LinkState));

/// Words per `pending` record of [`LinkStates`].
const PENDING_WORDS: usize = 5;

/// The written form of [`LinkStates`].
#[derive(Deserialize)]
struct LinkColumns {
    next_seq: Vec<u64>,
    accepted_seq: Vec<u64>,
    pending: Vec<u64>,
}

impl Serialize for LinkStates {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        s.key("next_seq");
        s.uint_seq(self.iter().map(|l| l.next_seq));
        s.key("accepted_seq");
        s.uint_seq(self.iter().map(|l| l.accepted_seq));
        s.key("pending");
        s.uint_seq(self.iter().enumerate().flat_map(|(link, l)| {
            l.pending.into_iter().flat_map(move |p| {
                [
                    link as u64,
                    p.seq,
                    p.watts.to_bits(),
                    u64::from(p.attempts),
                    p.next_retry_at,
                ]
            })
        }));
        s.end_object();
    }
}

impl Deserialize for LinkStates {
    /// Rejects columns of unequal length, a `pending` column that is not
    /// whole records, records whose links are out of range or not
    /// strictly ascending (so no link is named twice), and an `attempts`
    /// word above `u32::MAX`.
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let cols = LinkColumns::deserialize(v)?;
        let links = cols.next_seq.len();
        if cols.accepted_seq.len() != links {
            return Err(serde::Error::msg(&format!(
                "{links} next_seq words but {} accepted_seq words",
                cols.accepted_seq.len()
            )));
        }
        if cols.pending.len() % PENDING_WORDS != 0 {
            return Err(serde::Error::msg(&format!(
                "{} pending words are not whole {PENDING_WORDS}-word records",
                cols.pending.len()
            )));
        }
        let mut states: Vec<LinkState> = cols
            .next_seq
            .iter()
            .zip(&cols.accepted_seq)
            .map(|(&next_seq, &accepted_seq)| LinkState {
                next_seq,
                accepted_seq,
                pending: None,
            })
            .collect();
        let mut first_free = 0;
        for r in cols.pending.chunks_exact(PENDING_WORDS) {
            let link = usize::try_from(r[0])
                .ok()
                .filter(|l| (first_free..links).contains(l))
                .ok_or_else(|| {
                    serde::Error::msg(&format!(
                        "pending record names link {} of {links} out of ascending order",
                        r[0]
                    ))
                })?;
            let attempts = u32::try_from(r[3]).map_err(|_| {
                serde::Error::msg(&format!("pending record of link {link}: {} attempts", r[3]))
            })?;
            states[link].pending = Some(Pending {
                seq: r[1],
                watts: FloatWord(f64::from_bits(r[2])),
                attempts,
                next_retry_at: r[4],
            });
            first_free = link + 1;
        }
        Ok(Self(states))
    }
}

/// Per-server resident VM lists that checkpoint as CSR words: `len`, one
/// count per server, and `vms`, every list concatenated in server order
/// with each list's insertion order kept.
#[derive(Debug, PartialEq, Eq)]
pub struct ResidentLists(pub Vec<VmIds>);

deref_vec!(ResidentLists(VmIds));

/// The written form of [`ResidentLists`].
#[derive(Deserialize)]
struct ResidentColumns {
    len: Vec<u64>,
    vms: Vec<u64>,
}

impl Serialize for ResidentLists {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        s.key("len");
        s.uint_seq(self.iter().map(|l| l.len() as u64));
        s.key("vms");
        s.uint_seq(
            self.iter()
                .flat_map(|l| l.iter().map(|vm| vm.index() as u64)),
        );
        s.end_object();
    }
}

impl Deserialize for ResidentLists {
    /// Rejects counts that do not sum to the number of `vms` words.
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let cols = ResidentColumns::deserialize(v)?;
        let listed = cols.len.iter().try_fold(0u64, |sum, &k| sum.checked_add(k));
        if listed != Some(cols.vms.len() as u64) {
            return Err(serde::Error::msg(&format!(
                "resident counts do not sum to the {} listed VMs",
                cols.vms.len()
            )));
        }
        let mut rest = &cols.vms[..];
        let lists = cols
            .len
            .iter()
            .map(|&k| {
                let (list, tail) = rest.split_at(k as usize);
                rest = tail;
                VmIds(list.iter().map(|&w| VmId(w as usize)).collect())
            })
            .collect();
        Ok(Self(lists))
    }
}

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

    fn pending(seq: u64, watts: f64) -> Option<Pending> {
        Some(Pending {
            seq,
            watts: FloatWord(watts),
            attempts: 2,
            next_retry_at: 40,
        })
    }

    #[test]
    fn link_states_travel_as_three_columns() {
        let link = |next_seq, accepted_seq, pending| LinkState {
            next_seq,
            accepted_seq,
            pending,
        };
        let nan = f64::from_bits(0x7ff8_0000_0000_00ff);
        let links = LinkStates(vec![
            link(1, 0, None),
            link(4, 2, pending(3, nan)),
            link(2, 1, None),
            link(6, 5, pending(5, 1.5)),
        ]);
        let text = serde_json::to_string(&links).unwrap();
        assert_eq!(
            text,
            format!(
                r#"{{"next_seq":[1,4,2,6],"accepted_seq":[0,2,1,5],"pending":[1,3,{},2,40,3,5,{},2,40]}}"#,
                nan.to_bits(),
                1.5f64.to_bits()
            )
        );
        assert_eq!(serde_json::from_str::<LinkStates>(&text).unwrap(), links);
        let idle = LinkStates(vec![link(1, 1, None)]);
        let text = serde_json::to_string(&idle).unwrap();
        assert_eq!(text, r#"{"next_seq":[1],"accepted_seq":[1],"pending":[]}"#);
        assert_eq!(serde_json::from_str::<LinkStates>(&text).unwrap(), idle);
    }

    #[test]
    fn misshapen_link_columns_are_decode_errors() {
        for bad in [
            r#"{"next_seq":[1],"accepted_seq":[1,1],"pending":[]}"#,
            r#"{"next_seq":[1,1],"accepted_seq":[1,1],"pending":[0,1,0,0]}"#,
            r#"{"next_seq":[1,1],"accepted_seq":[1,1],"pending":[2,1,0,0,9]}"#,
            r#"{"next_seq":[1,1],"accepted_seq":[1,1],"pending":[1,1,0,0,9,0,1,0,0,9]}"#,
            r#"{"next_seq":[1,1],"accepted_seq":[1,1],"pending":[0,1,0,0,9,0,1,0,0,9]}"#,
            r#"{"next_seq":[1,1],"accepted_seq":[1,1],"pending":[0,1,0,4294967296,9]}"#,
            r#"{"next_seq":[1,1],"accepted_seq":[1,1]}"#,
            "[]",
        ] {
            assert!(serde_json::from_str::<LinkStates>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn resident_lists_travel_as_csr_words() {
        let lists = ResidentLists(vec![
            VmIds(vec![VmId(3), VmId(0)]),
            VmIds(vec![]),
            VmIds(vec![VmId(2), VmId(4), VmId(1)]),
        ]);
        let text = serde_json::to_string(&lists).unwrap();
        assert_eq!(text, r#"{"len":[2,0,3],"vms":[3,0,2,4,1]}"#);
        assert_eq!(serde_json::from_str::<ResidentLists>(&text).unwrap(), lists);
        for bad in [
            r#"{"len":[2,0,3],"vms":[3,0,2,4]}"#,
            r#"{"len":[2,0,2],"vms":[3,0,2,4,1]}"#,
            r#"{"len":[18446744073709551615,1],"vms":[]}"#,
            r#"{"len":[1]}"#,
        ] {
            assert!(serde_json::from_str::<ResidentLists>(bad).is_err(), "{bad}");
        }
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
