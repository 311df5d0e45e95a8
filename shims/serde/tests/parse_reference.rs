//! Differential test of `serde::parse` against the parser it replaced.
//!
//! `reference` below is a verbatim copy of the earlier recursive-descent
//! parser, which built one `Value` per array element. The current parser
//! packs arrays of plain unsigned integers into `Value::Words`; apart
//! from that packing it must agree with the reference on every input:
//! the same `Ok`/`Err`, equal values once packed arrays are unpacked,
//! and no panic. Inputs are random documents built to hit the number
//! edge cases (leading zeros, `-0`, 2^64 ± 1, exponents, whitespace
//! between tokens), plus truncations and single-byte edits of each, and
//! of a real checkpoint.

use proptest::prelude::*;
use serde::{Serialize, Value};
use std::sync::OnceLock;

mod reference {
    use serde::{Error, Value};

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
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
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
                let b = self
                    .peek()
                    .ok_or_else(|| Error::msg("unterminated string"))?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
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
                                    std::str::from_utf8(hex)
                                        .map_err(|_| Error::msg("bad \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| Error::msg("bad \\u escape"))?;
                                // Surrogate pairs are not needed by our own
                                // output; map lone surrogates to U+FFFD.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(Error::msg("unknown escape")),
                        }
                    }
                    _ => {
                        // Collect the full UTF-8 sequence starting here.
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                            end += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                        out.push_str(chunk);
                        self.pos = end;
                    }
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
                        magnitude = magnitude
                            .and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
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
}

/// `v` with every packed word array spelled out as `UInt` elements.
fn unpack(v: Value) -> Value {
    match v {
        Value::Words(words) => Value::Array(words.into_iter().map(Value::UInt).collect()),
        Value::Array(items) => Value::Array(items.into_iter().map(unpack).collect()),
        Value::Object(pairs) => {
            Value::Object(pairs.into_iter().map(|(k, v)| (k, unpack(v))).collect())
        }
        other => other,
    }
}

/// Both parsers on `text`: the same verdict, and equal values.
fn agree(text: &str) -> Result<(), TestCaseError> {
    match (serde::parse(text), reference::parse(text)) {
        (Ok(new), Ok(old)) => prop_assert_eq!(unpack(new), old, "{:?}", text),
        (Err(_), Err(_)) => {}
        (new, old) => prop_assert!(false, "{:?}: new {:?}, reference {:?}", text, new, old),
    }
    Ok(())
}

/// SplitMix64: a small deterministic stream for building documents.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Number tokens at and around every boundary the parsers treat
/// specially.
const NUMBERS: &[&str] = &[
    "0",
    "7",
    "007",
    "00000000000000000000000001",
    "-0",
    "-7",
    "-007",
    "12345678",
    "123456789",
    "9999999999999999999",
    "10000000000000000000",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551617",
    "000018446744073709551615",
    "000018446744073709551616",
    "28446744073709551615",
    "99999999999999999999",
    "100000000000000000000",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "1e3",
    "1E+2",
    "12e-1",
    "2.5",
    "-0.0",
    "1.0",
    "18446744073709551616.0",
    "1-2",
    "1.2.3",
    "-",
    "+1",
    "1e",
    ".5",
];

const WHITESPACE: &[&str] = &["", "", "", " ", "\n", "\t ", "\r\n  "];

fn ws(rng: &mut Rng, out: &mut String) {
    out.push_str(rng.pick(WHITESPACE));
}

fn number(rng: &mut Rng, out: &mut String) {
    match rng.below(4) {
        0 => out.push_str(&rng.next().to_string()),
        1 => {
            // Random digit runs of every length, leading zeros included.
            for _ in 0..1 + rng.below(26) {
                out.push(char::from(b'0' + rng.below(10) as u8));
            }
        }
        _ => out.push_str(rng.pick(NUMBERS)),
    }
}

fn document(rng: &mut Rng, depth: usize, out: &mut String) {
    let kind = if depth == 0 {
        rng.below(4)
    } else {
        rng.below(8)
    };
    match kind {
        0 | 1 => number(rng, out),
        2 => out.push_str(rng.pick(&[
            "null",
            "true",
            "false",
            "\"\"",
            "\"k\\\"\\u0041\\n\"",
            "nul",
        ])),
        3 => out.push_str(rng.pick(&["[]", "{}", "[ ]", "{ }"])),
        4 | 5 => {
            // Arrays: mostly plain unsigned integers, sometimes anything.
            let plain = rng.below(3) > 0;
            out.push('[');
            let n = 1 + rng.below(6);
            for i in 0..n {
                if i > 0 {
                    ws(rng, out);
                    out.push(',');
                }
                ws(rng, out);
                if plain && rng.below(12) > 0 {
                    out.push_str(&(rng.next() >> rng.below(64)).to_string());
                } else {
                    document(rng, depth - 1, out);
                }
            }
            ws(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            let n = rng.below(4);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(rng.pick(&["\"a\"", "\"bits\"", "\"x_y\""]));
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                document(rng, depth - 1, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
}

/// Bytes an edit may write: structural characters, digits and number
/// signs, so edits mostly land in the grammar's interesting corners.
const EDIT_BYTES: &[u8] = b"0123456789,[]{}:\" -+.eEx\n";

/// `text` with the byte at a random position replaced. Inputs are ASCII,
/// so the result is still valid UTF-8.
fn edited(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if !bytes.is_empty() {
        let at = rng.below(bytes.len());
        bytes[at] = EDIT_BYTES[rng.below(EDIT_BYTES.len())];
    }
    String::from_utf8(bytes).expect("ASCII input stays UTF-8")
}

/// A Server B 60HH checkpoint with faults, a faulty bus and warm
/// standbys, as `RunnerSnapshot::save` writes it.
fn checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        use nps_core::{CoordinationMode, Runner, Scenario, SystemKind};
        use nps_sim::{BusConfig, FaultPlan};
        let cfg = Scenario::paper(
            SystemKind::ServerB,
            nps_traces::Mix::Hh60,
            CoordinationMode::Coordinated,
        )
        .faults(
            FaultPlan::disabled()
                .with_seed(3)
                .with_sensor_noise(0.05)
                .with_message_loss(0.1),
        )
        .bus(
            BusConfig::default()
                .with_seed(3)
                .with_delay(1, 1)
                .with_drop(0.05)
                .with_leases(40),
        )
        .standbys()
        .horizon(400)
        .seed(3)
        .build();
        let mut runner = Runner::new(&cfg);
        for _ in 0..250 {
            runner.tick();
        }
        let mut s = serde::Serializer::new();
        runner.snapshot().serialize(&mut s);
        s.into_string()
    })
}

#[test]
fn the_checkpoint_parses_packed_and_agrees() {
    let text = checkpoint();
    assert!(text.is_ascii());
    agree(text).unwrap();
    let mut packed = 0;
    fn count(v: &Value, packed: &mut usize) {
        match v {
            Value::Words(_) => *packed += 1,
            Value::Array(items) => items.iter().for_each(|v| count(v, packed)),
            Value::Object(pairs) => pairs.iter().for_each(|(_, v)| count(v, packed)),
            _ => {}
        }
    }
    count(&serde::parse(text).unwrap(), &mut packed);
    assert!(packed > 20, "only {packed} packed arrays");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn random_documents_agree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut text = String::new();
        ws(&mut rng, &mut text);
        document(&mut rng, 4, &mut text);
        ws(&mut rng, &mut text);
        agree(&text)?;
        agree(&text[..rng.below(text.len() + 1)])?;
        agree(&edited(&text, &mut rng))?;
    }

    #[test]
    fn number_arrays_agree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut text = String::from("[");
        for i in 0..1 + rng.below(8) {
            if i > 0 {
                text.push(',');
            }
            ws(&mut rng, &mut text);
            number(&mut rng, &mut text);
        }
        text.push(']');
        agree(&text)?;
        agree(&edited(&text, &mut rng))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn checkpoint_truncations_and_edits_agree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let text = checkpoint();
        agree(&text[..rng.below(text.len())])?;
        agree(&edited(text, &mut rng))?;
    }
}
