//! The JSON writer behind [`crate::Serialize`].

// Floats and signed integers are formatted straight into `out`, without
// a temporary String; unsigned integers go through `push_uint`.
use std::io::Write as _;

/// Streams JSON text. Tracks container nesting so commas and (in pretty
/// mode) indentation are inserted automatically; the derive-generated
/// code only calls `begin_*`/`key`/scalar methods in order.
#[derive(Debug)]
pub struct Serializer {
    /// UTF-8 text, kept as bytes so ASCII digits are appended without a
    /// per-number UTF-8 check.
    out: Vec<u8>,
    pretty: bool,
    /// One frame per open container: `(is_array, items_written)`.
    stack: Vec<(bool, usize)>,
}

impl Serializer {
    /// A compact serializer.
    pub fn new() -> Self {
        Self {
            out: Vec::new(),
            pretty: false,
            stack: Vec::new(),
        }
    }

    /// A pretty-printing serializer (two-space indent).
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::new()
        }
    }

    /// The JSON text produced so far.
    pub fn into_string(self) -> String {
        String::from_utf8(self.out).expect("the serializer writes UTF-8")
    }

    fn newline_indent(&mut self, depth: usize) {
        self.out.push(b'\n');
        for _ in 0..depth {
            self.out.extend_from_slice(b"  ");
        }
    }

    /// Prepares for a value in the current container: separating comma for
    /// array elements, nothing for object values (the key wrote the
    /// separator) or the root.
    fn value_prelude(&mut self) {
        if let Some(&mut (is_array, ref mut items)) = self.stack.last_mut() {
            if is_array {
                let first = *items == 0;
                *items += 1;
                if !first {
                    self.out.push(b',');
                }
                if self.pretty {
                    let depth = self.stack.len();
                    self.newline_indent(depth);
                }
            }
        }
    }

    /// Writes an object key (with its separator and colon).
    pub fn key(&mut self, name: &str) {
        let first = match self.stack.last_mut() {
            Some(&mut (false, ref mut items)) => {
                let first = *items == 0;
                *items += 1;
                first
            }
            _ => true,
        };
        if !first {
            self.out.push(b',');
        }
        if self.pretty {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.write_escaped(name);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// Opens a JSON object.
    pub fn begin_object(&mut self) {
        self.value_prelude();
        self.out.push(b'{');
        self.stack.push((false, 0));
    }

    /// Closes the innermost JSON object.
    pub fn end_object(&mut self) {
        let frame = self.stack.pop();
        if self.pretty && matches!(frame, Some((_, n)) if n > 0) {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push(b'}');
    }

    /// Opens a JSON array.
    pub fn begin_array(&mut self) {
        self.value_prelude();
        self.out.push(b'[');
        self.stack.push((true, 0));
    }

    /// Closes the innermost JSON array.
    pub fn end_array(&mut self) {
        let frame = self.stack.pop();
        if self.pretty && matches!(frame, Some((_, n)) if n > 0) {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push(b']');
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value_prelude();
        self.out.extend_from_slice(b"null");
    }

    /// Writes a boolean.
    pub fn bool(&mut self, b: bool) {
        self.value_prelude();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, n: u64) {
        self.value_prelude();
        push_uint(&mut self.out, n);
    }

    /// Writes a JSON array of unsigned integers; in compact mode in one
    /// pass, without per-element bookkeeping. The text is the same as
    /// `begin_array`, one `uint` per item, `end_array`.
    pub fn uint_seq(&mut self, items: impl Iterator<Item = u64>) {
        if self.pretty {
            self.begin_array();
            for n in items {
                self.uint(n);
            }
            self.end_array();
            return;
        }
        self.value_prelude();
        self.out.push(b'[');
        for (i, n) in items.enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            push_uint(&mut self.out, n);
        }
        self.out.push(b']');
    }

    /// Writes a signed integer.
    pub fn int(&mut self, n: i64) {
        self.value_prelude();
        write!(self.out, "{n}").expect("writing to a Vec cannot fail");
    }

    /// Writes a float. Rust's shortest-round-trip `Display` keeps values
    /// exact across a serialize/parse cycle; non-finite values become
    /// `null` (serde_json's behavior).
    pub fn float(&mut self, f: f64) {
        self.value_prelude();
        if f.is_finite() {
            let start = self.out.len();
            write!(self.out, "{f}").expect("writing to a Vec cannot fail");
            // Keep a float-looking token so parsing stays type-faithful.
            if !self.out[start..]
                .iter()
                .any(|b| matches!(b, b'.' | b'e' | b'E'))
            {
                self.out.extend_from_slice(b".0");
            }
        } else {
            self.out.extend_from_slice(b"null");
        }
    }

    /// Writes a JSON string.
    pub fn string(&mut self, s: &str) {
        self.value_prelude();
        self.write_escaped(s);
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push(b'"');
        // Bytes of multi-byte characters are all >= 0x80, so a byte-wise
        // scan finds exactly the ASCII characters that need escaping, and
        // the runs between them are copied whole.
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.extend_from_slice(&bytes[run..i]);
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                _ => write!(self.out, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
            }
            run = i + 1;
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }
}

/// `"00"`, `"01"`, …, `"99"` back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends the decimal digits of `n` to `out`: the same text as its
/// `Display`. The number is cut into chunks of eight digits, each
/// formatted two digits at a time in 32-bit arithmetic.
fn push_uint(out: &mut Vec<u8>, n: u64) {
    const CHUNK: u64 = 100_000_000;
    let mut buf = [0u8; 20];
    let start = if n < CHUNK {
        write_head(&mut buf, n as u32)
    } else {
        let (high, low) = (n / CHUNK, (n % CHUNK) as u32);
        write_eight(&mut buf[12..], low);
        if high < CHUNK {
            write_head(&mut buf[..12], high as u32)
        } else {
            write_eight(&mut buf[4..12], (high % CHUNK) as u32);
            write_head(&mut buf[..4], (high / CHUNK) as u32)
        }
    };
    out.extend_from_slice(&buf[start..]);
}

/// Writes exactly eight digits of `v < 10^8` (zero-padded) to `buf`.
fn write_eight(buf: &mut [u8], v: u32) {
    let (high, low) = (v / 10_000, v % 10_000);
    for (at, quad) in [(0, high), (4, low)] {
        let (a, b) = ((quad / 100) as usize * 2, (quad % 100) as usize * 2);
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[a..a + 2]);
        buf[at + 2..at + 4].copy_from_slice(&DIGIT_PAIRS[b..b + 2]);
    }
}

/// Writes the digits of `v` (no padding) to the end of `buf`; returns
/// the index of the first digit.
fn write_head(buf: &mut [u8], mut v: u32) -> usize {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

impl Default for Serializer {
    fn default() -> Self {
        Self::new()
    }
}
