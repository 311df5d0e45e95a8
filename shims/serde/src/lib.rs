//! In-tree, offline shim for the `serde` API subset this workspace uses.
//!
//! The workspace builds in environments with no crates.io access, so
//! `serde`/`serde_json` are replaced by these shims (wired up as path
//! dependencies in the workspace `Cargo.toml`). The data model is JSON
//! only: [`Serialize`] writes straight into a JSON [`Serializer`], and
//! [`Deserialize`] reads from a parsed [`Value`] tree. Derive macros come
//! from the sibling `serde_derive` shim and produce the same externally
//! tagged JSON shapes as upstream serde's defaults, so files and inline
//! fixtures written against real serde parse identically.

pub use serde_derive::{Deserialize, Serialize};

mod ser;
mod value;

pub use ser::Serializer;
pub use value::{parse, Elements, Error, Value};

/// Serializes `self` into a JSON [`Serializer`].
pub trait Serialize {
    /// Writes `self` as the next JSON value.
    fn serialize(&self, s: &mut Serializer);

    /// Writes `items` as a JSON array (what `[Self]`, `Vec<Self>` and
    /// arrays serialize through). The default writes element by element;
    /// the unsigned integer impls override it to write the whole slice in
    /// one pass ([`Serializer::uint_seq`]).
    fn serialize_seq(items: &[Self], s: &mut Serializer)
    where
        Self: Sized,
    {
        s.begin_array();
        for item in items {
            item.serialize(s);
        }
        s.end_array();
    }
}

/// Constructs `Self` from a parsed JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reads `Self` from `v`.
    fn deserialize(v: &Value) -> Result<Self, Error>;

    /// Reads a JSON array of `Self` (what `Vec<Self>` decodes through).
    /// The default reads element by element, lending each packed word
    /// as a [`Value::UInt`]; the unsigned integer impls override it to
    /// copy a [`Value::Words`] array in one pass.
    fn deserialize_seq(v: &Value) -> Result<Vec<Self>, Error> {
        deserialize_each(v)
    }
}

/// [`Deserialize::deserialize_seq`]'s element-by-element default.
fn deserialize_each<T: Deserialize>(v: &Value) -> Result<Vec<T>, Error> {
    match v.elements() {
        Some(Elements::Values(items)) => items.iter().map(T::deserialize).collect(),
        Some(Elements::Words(words)) => words
            .iter()
            .map(|&n| T::deserialize(&Value::UInt(n)))
            .collect(),
        None => Err(Error::msg("expected array")),
    }
}

// ----- Serialize impls ---------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.uint(*self as u64);
            }

            fn serialize_seq(items: &[Self], s: &mut Serializer) {
                s.uint_seq(items.iter().map(|&n| n as u64));
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.int(*self as i64);
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) {
        s.float(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) {
        s.float(*self as f64);
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) {
        s.bool(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) {
        s.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) {
        s.string(self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Some(v) => v.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) {
        T::serialize_seq(self, s);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut Serializer) {
                s.begin_array();
                $( self.$n.serialize(s); )+
                s.end_array();
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ----- Deserialize impls -------------------------------------------------

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::msg(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(concat!("out of range for ", stringify!($t))))
            }

            fn deserialize_seq(v: &Value) -> Result<Vec<Self>, Error> {
                match v {
                    Value::Words(words) => words
                        .iter()
                        .map(|&n| {
                            <$t>::try_from(n).map_err(|_| {
                                Error::msg(concat!("out of range for ", stringify!($t)))
                            })
                        })
                        .collect(),
                    _ => deserialize_each(v),
                }
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::msg(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        // `null` round-trips non-finite floats, matching serde_json's
        // serialization of NaN/infinity.
        if matches!(v, Value::Null) {
            return Ok(f64::NAN);
        }
        v.as_f64().ok_or_else(|| Error::msg("expected number"))
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        f64::deserialize(v).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::msg("expected bool"))
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::msg("expected string"))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize_seq(v)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

macro_rules! de_tuple {
    ($(($len:literal: $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let arr = v.elements().ok_or_else(|| Error::msg("expected array"))?;
                if arr.len() != $len {
                    return Err(Error::msg("tuple length mismatch"));
                }
                Ok(($(__private::index::<$t>(arr, $n)?,)+))
            }
        }
    )*};
}
de_tuple! {
    (1: 0 A)
    (2: 0 A, 1 B)
    (3: 0 A, 1 B, 2 C)
    (4: 0 A, 1 B, 2 C, 3 D)
}

// ----- Derive support ----------------------------------------------------

/// Helpers used by the generated derive code. Not part of the public API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Elements, Error, Value};

    /// Looks up `name` in an object's pairs; a missing field reads as
    /// `null` (so `Option` fields tolerate omission, like
    /// `#[serde(default)]` would upstream).
    pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
        match obj.iter().find(|(k, _)| k == name) {
            Some((_, v)) => {
                T::deserialize(v).map_err(|e| Error::msg(&format!("field `{name}`: {e}")))
            }
            None => T::deserialize(&Value::Null)
                .map_err(|_| Error::msg(&format!("missing field `{name}`"))),
        }
    }

    /// Reads element `i` of a JSON array (tuples, tuple structs and
    /// variants).
    pub fn index<T: Deserialize>(arr: Elements<'_>, i: usize) -> Result<T, Error> {
        let v = arr
            .get(i)
            .ok_or_else(|| Error::msg(&format!("missing tuple element {i}")))?;
        T::deserialize(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::{parse, Serialize, Serializer, Value};

    fn json<T: Serialize>(v: T) -> String {
        let mut s = Serializer::new();
        v.serialize(&mut s);
        s.into_string()
    }

    #[test]
    fn uint_output_matches_to_string() {
        for n in [0, 9, 10, 99, 100, 4_096, u64::MAX - 1, u64::MAX] {
            assert_eq!(json(n), n.to_string());
        }
        assert_eq!(json([0u64, 10, u64::MAX]), format!("[0,10,{}]", u64::MAX));
        // Every length and every chunk boundary, in scalar and array form.
        let mut n = 1u64;
        while n != 0 {
            for m in [n - 1, n, n + 1, n.wrapping_mul(7) / 3] {
                assert_eq!(json(m), m.to_string());
                assert_eq!(json(vec![m, m]), format!("[{m},{m}]"));
            }
            n = n.checked_mul(10).unwrap_or(0);
        }
        assert_eq!(json(Vec::<u32>::new()), "[]");
        assert_eq!(json(vec![3u8, 200]), "[3,200]");
        let mut pretty = Serializer::pretty();
        vec![1usize, 2].serialize(&mut pretty);
        assert_eq!(pretty.into_string(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn float_output_matches_to_string() {
        for f in [1.0, -0.0, 5e-324, 1e300, 0.1, -2.5, 1.0 / 3.0, f64::MAX] {
            let mut want = f.to_string();
            if !want.contains(['.', 'e', 'E']) {
                want.push_str(".0");
            }
            assert_eq!(json(f), want, "{f:e}");
            assert_eq!(
                parse(&json(f)).unwrap().as_f64().unwrap().to_bits(),
                f.to_bits()
            );
        }
        assert_eq!(json(-0.0), "-0.0");
        assert_eq!(json(f64::NAN), "null");
        assert_eq!(json(-7i64), "-7");
    }

    #[test]
    fn strings_escape_only_what_json_requires() {
        let text = "plain \"q\" \\ é\n\r\t\u{1}\u{1f}\u{7f} ✓";
        assert_eq!(
            json(text),
            "\"plain \\\"q\\\" \\\\ é\\n\\r\\t\\u0001\\u001f\u{7f} ✓\""
        );
        assert_eq!(parse(&json(text)).unwrap(), Value::Str(text.to_string()));
        assert_eq!(json(""), "\"\"");
    }

    #[test]
    fn number_parsing_keeps_the_value_kinds() {
        let cases = [
            ("18446744073709551615", Value::UInt(u64::MAX)),
            (
                "18446744073709551616",
                Value::Float(18_446_744_073_709_551_616.0),
            ),
            ("007", Value::UInt(7)),
            ("0", Value::UInt(0)),
            ("-0", Value::Int(0)),
            ("-7", Value::Int(-7)),
            ("1e3", Value::Float(1000.0)),
            ("2.5", Value::Float(2.5)),
            ("12E-1", Value::Float(1.2)),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap(), want, "{text}");
            let array = parse(&format!("[{text}, {text}]")).unwrap();
            let items = array.elements().unwrap();
            assert_eq!(items.len(), 2, "[{text}]");
            for i in 0..2 {
                assert_eq!(*items.get(i).unwrap(), want, "[{text}]");
            }
        }
        for bad in ["1-2", "-", "1.2.3", "99999999999999999999x"] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(parse(&format!("[1,{bad}]")).is_err(), "[1,{bad}]");
        }
    }

    #[test]
    fn plain_unsigned_arrays_parse_packed() {
        let max = u64::MAX;
        let cases = [
            ("[7]", vec![7]),
            ("[ 0 , 007,\n10\t]", vec![0, 7, 10]),
            (
                "[12345678,123456789012345678,1234567890123456789]",
                vec![
                    12_345_678,
                    123_456_789_012_345_678,
                    1_234_567_890_123_456_789,
                ],
            ),
            ("[18446744073709551615]", vec![max]),
            ("[000000000000000000000018446744073709551615]", vec![max]),
            (
                "[10000000000000000000,9999999999999999999]",
                vec![10u64.pow(19), 10u64.pow(19) - 1],
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap(), Value::Words(want), "{text}");
        }
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("[ ]").unwrap(), Value::Array(vec![]));
        // One element that is not plain keeps the whole array general,
        // with the words read before it.
        assert_eq!(
            parse("[1,2,-3,4]").unwrap(),
            Value::Array(vec![
                Value::UInt(1),
                Value::UInt(2),
                Value::Int(-3),
                Value::UInt(4),
            ])
        );
        assert_eq!(
            parse("[1,2.0]").unwrap(),
            Value::Array(vec![Value::UInt(1), Value::Float(2.0)])
        );
        assert_eq!(
            parse("[[1,2],[]]").unwrap(),
            Value::Array(vec![Value::Words(vec![1, 2]), Value::Array(vec![])])
        );
        for bad in ["[1,2", "[1,]", "[1 2]", "[1,,2]", "[01x]", "[1]]"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn digit_chunks_match_the_standard_parser() {
        let mut n = 1u64;
        for len in 1..=20 {
            for lead in ["", "0", "00000000"] {
                let text = format!("{lead}{n}");
                let want = text.parse::<u64>().unwrap();
                assert_eq!(parse(&text).unwrap(), Value::UInt(want), "{text}");
                assert_eq!(
                    parse(&format!("[{text}]")).unwrap(),
                    Value::Words(vec![want])
                );
            }
            assert_eq!(n.to_string().len(), len);
            n = n.wrapping_mul(10).wrapping_add(len as u64 % 10);
        }
        for text in [
            "18446744073709551616",
            "99999999999999999999",
            "100000000000000000000",
        ] {
            let want = Value::Float(text.parse().unwrap());
            assert_eq!(parse(text).unwrap(), want, "{text}");
            assert_eq!(
                parse(&format!("[{text}]")).unwrap(),
                Value::Array(vec![want])
            );
        }
    }

    #[test]
    fn integer_targets_reject_floats_at_the_range_edge() {
        use super::Deserialize;
        let two64 = "18446744073709551616";
        for text in [two64, "18446744073709551616.0", "1.8446744073709552e19"] {
            assert!(u64::deserialize(&parse(text).unwrap()).is_err(), "{text}");
            assert!(Vec::<u64>::deserialize(&parse(&format!("[{text}]")).unwrap()).is_err());
        }
        for text in ["9223372036854775808.0", "9.223372036854776e18"] {
            assert!(i64::deserialize(&parse(text).unwrap()).is_err(), "{text}");
            assert!(Vec::<i64>::deserialize(&parse(&format!("[{text}]")).unwrap()).is_err());
        }
        // An overflowing token inside an otherwise packable array keeps
        // the array general, and the u64 target then fails on it.
        let mixed = parse(&format!("[1,2,{two64},3]")).unwrap();
        assert!(matches!(mixed, Value::Array(_)), "{mixed:?}");
        assert!(Vec::<u64>::deserialize(&mixed).is_err());
        // The largest floats below the edges still convert exactly.
        let below = parse("18446744073709549568.0").unwrap();
        assert_eq!(
            u64::deserialize(&below).unwrap(),
            18_446_744_073_709_549_568
        );
        let below = parse("-9223372036854775808.0").unwrap();
        assert_eq!(i64::deserialize(&below).unwrap(), i64::MIN);
        assert_eq!(
            i64::deserialize(&parse("9223372036854774784.0").unwrap()).unwrap(),
            9_223_372_036_854_774_784
        );
    }

    #[test]
    fn sequences_and_tuples_read_packed_arrays() {
        use super::Deserialize;
        let words = parse("[1,2,300]").unwrap();
        assert_eq!(Vec::<u64>::deserialize(&words).unwrap(), vec![1, 2, 300]);
        assert_eq!(Vec::<u16>::deserialize(&words).unwrap(), vec![1, 2, 300]);
        assert!(Vec::<u8>::deserialize(&words).is_err());
        assert_eq!(Vec::<i32>::deserialize(&words).unwrap(), vec![1, 2, 300]);
        assert_eq!(
            Vec::<f64>::deserialize(&words).unwrap(),
            vec![1.0, 2.0, 300.0]
        );
        assert_eq!(
            <(u8, u64, f64)>::deserialize(&words).unwrap(),
            (1, 2, 300.0)
        );
        assert!(<(u8, u64)>::deserialize(&words).is_err());
        assert_eq!(
            Vec::<Vec<u64>>::deserialize(&parse("[[1],[2,3],[]]").unwrap()).unwrap(),
            vec![vec![1], vec![2, 3], vec![]]
        );
        assert_eq!(
            Vec::<u64>::deserialize(&parse("[1,2.0]").unwrap()).unwrap(),
            vec![1, 2]
        );
    }
}
