//! The JSON writer behind [`crate::Serialize`].

// Numbers are formatted straight into `out`, without a temporary String.
use std::fmt::Write as _;

/// Streams JSON text. Tracks container nesting so commas and (in pretty
/// mode) indentation are inserted automatically; the derive-generated
/// code only calls `begin_*`/`key`/scalar methods in order.
#[derive(Debug)]
pub struct Serializer {
    out: String,
    pretty: bool,
    /// One frame per open container: `(is_array, items_written)`.
    stack: Vec<(bool, usize)>,
}

impl Serializer {
    /// A compact serializer.
    pub fn new() -> Self {
        Self {
            out: String::new(),
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
        self.out
    }

    fn newline_indent(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
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
                    self.out.push(',');
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
            self.out.push(',');
        }
        if self.pretty {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.write_escaped(name);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Opens a JSON object.
    pub fn begin_object(&mut self) {
        self.value_prelude();
        self.out.push('{');
        self.stack.push((false, 0));
    }

    /// Closes the innermost JSON object.
    pub fn end_object(&mut self) {
        let frame = self.stack.pop();
        if self.pretty && matches!(frame, Some((_, n)) if n > 0) {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push('}');
    }

    /// Opens a JSON array.
    pub fn begin_array(&mut self) {
        self.value_prelude();
        self.out.push('[');
        self.stack.push((true, 0));
    }

    /// Closes the innermost JSON array.
    pub fn end_array(&mut self) {
        let frame = self.stack.pop();
        if self.pretty && matches!(frame, Some((_, n)) if n > 0) {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push(']');
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value_prelude();
        self.out.push_str("null");
    }

    /// Writes a boolean.
    pub fn bool(&mut self, b: bool) {
        self.value_prelude();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, n: u64) {
        self.value_prelude();
        write!(self.out, "{n}").expect("writing to a String cannot fail");
    }

    /// Writes a signed integer.
    pub fn int(&mut self, n: i64) {
        self.value_prelude();
        write!(self.out, "{n}").expect("writing to a String cannot fail");
    }

    /// Writes a float. Rust's shortest-round-trip `Display` keeps values
    /// exact across a serialize/parse cycle; non-finite values become
    /// `null` (serde_json's behavior).
    pub fn float(&mut self, f: f64) {
        self.value_prelude();
        if f.is_finite() {
            let start = self.out.len();
            write!(self.out, "{f}").expect("writing to a String cannot fail");
            // Keep a float-looking token so parsing stays type-faithful.
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a JSON string.
    pub fn string(&mut self, s: &str) {
        self.value_prelude();
        self.write_escaped(s);
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

impl Default for Serializer {
    fn default() -> Self {
        Self::new()
    }
}
