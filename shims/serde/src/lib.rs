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
pub use value::{parse, Error, Value};

/// Serializes `self` into a JSON [`Serializer`].
pub trait Serialize {
    /// Writes `self` as the next JSON value.
    fn serialize(&self, s: &mut Serializer);
}

/// Constructs `Self` from a parsed JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reads `Self` from `v`.
    fn deserialize(v: &Value) -> Result<Self, Error>;
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
        s.begin_array();
        for item in self {
            item.serialize(s);
        }
        s.end_array();
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
        let arr = v.as_array().ok_or_else(|| Error::msg("expected array"))?;
        arr.iter().map(T::deserialize).collect()
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
                let arr = v.as_array().ok_or_else(|| Error::msg("expected array"))?;
                if arr.len() != $len {
                    return Err(Error::msg("tuple length mismatch"));
                }
                Ok(($($t::deserialize(&arr[$n])?,)+))
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
    use super::{Deserialize, Error, Value};

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

    /// Reads element `i` of a JSON array (tuple structs and variants).
    pub fn index<T: Deserialize>(arr: &[Value], i: usize) -> Result<T, Error> {
        let v = arr
            .get(i)
            .ok_or_else(|| Error::msg(&format!("missing tuple element {i}")))?;
        T::deserialize(v)
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
            assert_eq!(array, Value::Array(vec![want.clone(), want]), "[{text}]");
        }
        for bad in ["1-2", "-", "1.2.3", "99999999999999999999x"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
