//! A minimal JSON object writer (the benchmark has no dependencies
//! beyond the repository's crates).

use std::fmt::Write;

/// Builds one JSON object, keys in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&string(key));
        self.body.push(':');
    }

    /// Adds a number; non-finite values become `null`. Written with
    /// Rust's shortest round-trip formatting, so no digits are lost.
    pub fn num(mut self, key: &str, v: f64) -> Obj {
        self.key(key);
        if v.is_finite() {
            write!(self.body, "{v:?}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds an integer.
    pub fn int(mut self, key: &str, v: u64) -> Obj {
        self.key(key);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    /// Adds a boolean.
    pub fn bool(mut self, key: &str, v: bool) -> Obj {
        self.key(key);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string.
    pub fn str(mut self, key: &str, v: &str) -> Obj {
        self.key(key);
        self.body.push_str(&string(v));
        self
    }

    /// Adds a nested object.
    pub fn obj(mut self, key: &str, v: Obj) -> Obj {
        self.key(key);
        self.body.push_str(&v.finish());
        self
    }

    /// The serialized object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects() {
        let o = Obj::new()
            .bool("ok", true)
            .int("n", 3)
            .num("x", 0.5)
            .num("bad", f64::NAN)
            .obj("m", Obj::new().str("s", "a\"b"));
        assert_eq!(
            o.finish(),
            r#"{"ok":true,"n":3,"x":0.5,"bad":null,"m":{"s":"a\"b"}}"#
        );
    }
}
