//! Parsed JSON tree and recursive-descent parser for [`crate::Deserialize`].

use std::borrow::Cow;
use std::fmt;

/// A JSON parse or mapping error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with the given message.
    pub fn msg(m: &str) -> Self {
        Error(m.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A parsed JSON value. Objects preserve key order as a pair list, which
/// is all the derive-generated lookups need.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer written without sign, fraction, or exponent.
    UInt(u64),
    /// A negative integer written without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array (an empty one, or one with an element that is not a
    /// plain unsigned integer).
    Array(Vec<Value>),
    /// A non-empty array whose elements are all plain unsigned integers
    /// (no sign, fraction or exponent; each fits a `u64`), held packed.
    /// [`parse`] produces it for every such array, and
    /// [`Value::elements`] reads it as an array of [`Value::UInt`].
    /// Shim-only: upstream `serde_json::Value` has no such variant.
    Words(Vec<u64>),
    /// An object as an ordered `(key, value)` list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements, if this is an array (packed or not).
    pub fn elements(&self) -> Option<Elements<'_>> {
        match self {
            Value::Array(items) => Some(Elements::Values(items)),
            Value::Words(words) => Some(Elements::Words(words)),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any number representation).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64` if it is a non-negative integer (integral
    /// floats are accepted, as serde_json does for `1.0`-style input).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            // `u64::MAX as f64` rounds up to 2^64, one past the range.
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::UInt(n) => i64::try_from(*n).ok(),
            Value::Int(n) => Some(*n),
            // `i64::MAX as f64` rounds up to 2^63, one past the range.
            Value::Float(f)
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 =>
            {
                Some(*f as i64)
            }
            _ => None,
        }
    }
}

/// A borrowed view of an array's elements, packed or not.
#[derive(Debug, Clone, Copy)]
pub enum Elements<'a> {
    /// A general array.
    Values(&'a [Value]),
    /// A packed array of plain unsigned integers.
    Words(&'a [u64]),
}

impl<'a> Elements<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Elements::Values(items) => items.len(),
            Elements::Words(words) => words.len(),
        }
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, if in range; a packed word is lent as a
    /// [`Value::UInt`].
    pub fn get(&self, i: usize) -> Option<Cow<'a, Value>> {
        match *self {
            Elements::Values(items) => items.get(i).map(Cow::Borrowed),
            Elements::Words(words) => words.get(i).map(|&n| Cow::Owned(Value::UInt(n))),
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(&format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::msg(&format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(&format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        let mut words = Vec::new();
        if self.words(&mut words) {
            return Ok(Value::Words(words));
        }
        // Some element is not a plain unsigned integer (or the array is
        // malformed): the general loop takes over at that element, after
        // the words already read.
        let mut items: Vec<Value> = words.into_iter().map(Value::UInt).collect();
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg("expected ',' or ']' in array")),
            }
        }
    }

    /// Reads array elements while each is a plain unsigned integer
    /// followed by `,` or `]`, pushing them to `words`. True once the
    /// closing `]` is consumed. False leaves `pos` at the start of the
    /// first element not taken, for the general loop to read (and to
    /// report any error exactly as it would have).
    fn words(&mut self, words: &mut Vec<u64>) -> bool {
        loop {
            let start = self.pos;
            let Some(n) = self.plain_uint() else {
                return false;
            };
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    words.push(n);
                }
                Some(b']') => {
                    self.pos += 1;
                    words.push(n);
                    return true;
                }
                _ => {
                    self.pos = start;
                    return false;
                }
            }
        }
    }

    /// Reads a run of digits at `pos` whose value fits a `u64`. `None`
    /// leaves `pos` unmoved. A fraction, exponent or sign character after
    /// the digits is not a separator, so [`Parser::words`] hands such a
    /// token to [`Parser::number`].
    fn plain_uint(&mut self) -> Option<u64> {
        let (len, value) = leading_digits(&self.bytes[self.pos..]);
        if len == 0 {
            return None;
        }
        let n = value?;
        self.pos += len;
        Some(n)
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::msg("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as
            // one run. Both are ASCII, so the run ends on a character
            // boundary of the (valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let chunk = std::str::from_utf8(&rest[..run])
                .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
            out.push_str(chunk);
            self.pos += run;
            let b = self
                .peek()
                .ok_or_else(|| Error::msg("unterminated string"))?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self
                .peek()
                .ok_or_else(|| Error::msg("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                    self.pos += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?,
                        16,
                    )
                    .map_err(|_| Error::msg("bad \\u escape"))?;
                    // Surrogate pairs are not needed by our own output;
                    // map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(Error::msg("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        let mut is_float = false;
        // A plain integer's magnitude is built while scanning; `None` once
        // it overflows a `u64`, which leaves the token to the float parser.
        let mut magnitude = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    magnitude =
                        magnitude.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !is_float && self.pos > digits_start {
            match magnitude {
                Some(n) if !negative => return Ok(Value::UInt(n)),
                Some(n) => {
                    if let Ok(i) = i64::try_from(n) {
                        return Ok(Value::Int(-i));
                    }
                }
                None => {}
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(&format!("invalid number {text:?}")))
    }
}

/// Reads the run of ASCII digits at the front of `bytes`: its length,
/// and its value if that fits a `u64` (leading zeros allowed, as in
/// [`Parser::number`]). Eight bytes at a time where it can.
fn leading_digits(bytes: &[u8]) -> (usize, Option<u64>) {
    let mut len = 0;
    // Wrapping accumulation is exact whenever the final value fits:
    // every partial value is a prefix of it, hence no larger.
    let mut value = 0u64;
    while let Some(chunk) = bytes.get(len..len + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let k = digit_prefix(word);
        if k == 8 {
            value = value
                .wrapping_mul(100_000_000)
                .wrapping_add(eight_digits(word));
            len += 8;
            continue;
        }
        if k > 0 {
            // Left-pad the k digits with '0' bytes to a full chunk.
            let padded = (word << (8 * (8 - k))) | (ZEROS >> (8 * k));
            value = value
                .wrapping_mul(POW10[k])
                .wrapping_add(eight_digits(padded));
            len += k;
        }
        return (len, fits(&bytes[..len], value));
    }
    // Fewer than eight bytes left.
    while let Some(&b) = bytes.get(len) {
        if !b.is_ascii_digit() {
            break;
        }
        value = value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        len += 1;
    }
    (len, fits(&bytes[..len], value))
}

/// `value` (the wrapping accumulation of `digits`) if the digits' true
/// value fits a `u64`.
#[inline]
fn fits(digits: &[u8], value: u64) -> Option<u64> {
    let zeros = digits.iter().take_while(|&&b| b == b'0').count();
    match digits.len() - zeros {
        // Under 10^19 < 2^64.
        0..=19 => Some(value),
        // 10^19 + r with r < 10^19 fits iff it did not wrap; a wrapped
        // value is under 2·10^19 − 2^64 < 10^19.
        20 if digits[zeros] == b'1' && value >= 10_000_000_000_000_000_000 => Some(value),
        _ => None,
    }
}

/// Eight ASCII `'0'` bytes.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// 10^k for k < 8.
const POW10: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// How many of the eight bytes of `word` (loaded little-endian, so the
/// first byte is the low one) are ASCII digits before the first
/// non-digit.
#[inline]
fn digit_prefix(word: u64) -> usize {
    const HIGH: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    // A byte is a digit iff its high nibble is 3 and adding 6 keeps it
    // so. A carry out of a non-digit byte can only disturb later bytes,
    // so the first flagged byte is the first non-digit.
    let bad = ((word & HIGH) ^ ZEROS) | ((word.wrapping_add(0x0606_0606_0606_0606) & HIGH) ^ ZEROS);
    (bad.trailing_zeros() / 8) as usize
}

/// The value of eight ASCII digits loaded little-endian (first digit in
/// the low byte): pairs, then quads, then the whole, by multiply-add.
#[inline]
fn eight_digits(word: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = word - ZEROS;
    let v = v * 10 + (v >> 8);
    (v & MASK)
        .wrapping_mul(MUL1)
        .wrapping_add(((v >> 16) & MASK).wrapping_mul(MUL2))
        >> 32
}
