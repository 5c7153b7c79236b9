//! Hand-rolled JSON: a small streaming writer and a minimal
//! well-formedness checker.
//!
//! The workspace builds fully offline with no serde; every
//! machine-readable artifact (metrics snapshots, run reports, bench
//! reports) is rendered through [`JsonObject`]/[`JsonArray`] and can be
//! validated with [`check`].

use std::fmt::Write as _;

/// Escapes a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number token (`null` for non-finite
/// values, which JSON cannot represent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, so integers stay distinguishable from
        // floats downstream.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// An incrementally built JSON object.
///
/// ```
/// use mfm_telemetry::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_str("name", "table3");
/// o.field_u64("vectors", 400);
/// assert_eq!(o.finish(), r#"{"name":"table3","vectors":400}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    out: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write!(self.out, "\"{}\":", escape(k));
    }

    /// Adds a string field.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "\"{}\"", escape(v));
        self
    }

    /// Adds an `f64` field (`null` when non-finite).
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.out.push_str(&num(v));
        self
    }

    /// Adds a `u64` field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Adds an `i64` field.
    pub fn field_i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn field_raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// An incrementally built JSON array.
#[derive(Debug, Default)]
pub struct JsonArray {
    out: String,
    first: bool,
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        JsonArray {
            out: String::from("["),
            first: true,
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    /// Appends a string element.
    pub fn push_str(&mut self, v: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "\"{}\"", escape(v));
        self
    }

    /// Appends an `f64` element (`null` when non-finite).
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        self.out.push_str(&num(v));
        self
    }

    /// Appends a `u64` element.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Appends an already-rendered JSON element.
    pub fn push_raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.out.push_str(json);
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push(']');
        self.out
    }
}

/// Checks that `s` is one well-formed JSON value (recursive descent,
/// RFC 8259 grammar; no value materialization). Returns the byte offset
/// and a message on the first error.
pub fn check(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

/// Decodes the body of a JSON string literal (the text between the
/// quotes, escapes still encoded). Surrogate pairs are combined; lone
/// surrogates are replaced with U+FFFD.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex4 = |it: &mut std::str::Chars<'_>| -> Option<u32> {
                    let mut v = 0u32;
                    for _ in 0..4 {
                        v = v * 16 + it.next()?.to_digit(16)?;
                    }
                    Some(v)
                };
                match hex4(&mut chars) {
                    Some(hi @ 0xD800..=0xDBFF) => {
                        // Expect a low surrogate as \uXXXX right after.
                        let mut probe = chars.clone();
                        let lo = if probe.next() == Some('\\') && probe.next() == Some('u') {
                            hex4(&mut probe)
                        } else {
                            None
                        };
                        match lo {
                            Some(lo @ 0xDC00..=0xDFFF) => {
                                chars = probe;
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            }
                            _ => out.push('\u{FFFD}'),
                        }
                    }
                    Some(cp) => out.push(char::from_u32(cp).unwrap_or('\u{FFFD}')),
                    None => out.push('\u{FFFD}'),
                }
            }
            _ => out.push('\u{FFFD}'),
        }
    }
    out
}

/// Splits one JSON object into its top-level `(key, raw value)` pairs,
/// in document order. Keys are unescaped; values are returned as the
/// exact (validated) JSON slices, so nested structure can be re-embedded
/// or recursed into with another `object_entries` call. This is the
/// reading half of the merge story: tools that update one key of a
/// report they wrote earlier re-parse it with this and re-render.
pub fn object_entries(s: &str) -> Result<Vec<(String, String)>, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    p.eat(b'{')?;
    p.ws();
    let mut out = Vec::new();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.ws();
            let k0 = p.i;
            p.string()?;
            let key = unescape(&s[k0 + 1..p.i - 1]);
            p.ws();
            p.eat(b':')?;
            p.ws();
            let v0 = p.i;
            p.value()?;
            out.push((key, s[v0..p.i].to_string()));
            p.ws();
            match p.peek() {
                Some(b',') => p.i += 1,
                Some(b'}') => {
                    p.i += 1;
                    break;
                }
                _ => return Err(p.err("expected ',' or '}'")),
            }
        }
    }
    p.ws();
    if p.i != b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(out)
}

/// Splits one JSON array into its top-level raw element slices, in
/// document order — the array counterpart of [`object_entries`]. Each
/// element is returned as the exact (validated) JSON slice, so nested
/// objects can be recursed into with [`object_entries`].
pub fn array_entries(s: &str) -> Result<Vec<String>, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    p.eat(b'[')?;
    p.ws();
    let mut out = Vec::new();
    if p.peek() == Some(b']') {
        p.i += 1;
    } else {
        loop {
            p.ws();
            let v0 = p.i;
            p.value()?;
            out.push(s[v0..p.i].to_string());
            p.ws();
            match p.peek() {
                Some(b',') => p.i += 1,
                Some(b']') => {
                    p.i += 1;
                    break;
                }
                _ => return Err(p.err("expected ',' or ']'")),
            }
        }
    }
    p.ws();
    if p.i != b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(out)
}

/// Reads a raw value slice (as returned by [`object_entries`]) of field
/// `key` as a non-negative integer.
pub fn value_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} {value:?}: {e}"))
}

/// Reads a raw value slice of field `key` as a number.
pub fn value_f64(key: &str, value: &str) -> Result<f64, String> {
    value
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} {value:?}: {e}"))
}

/// Reads a raw value slice of field `key` as a string, unescaped.
pub fn value_str(key: &str, value: &str) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(unescape)
        .ok_or_else(|| format!("field {key:?} must be a string, got {v}"))
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.i += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected fraction digit"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected exponent digit"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_nests() {
        let mut inner = JsonArray::new();
        inner.push_f64(1.5).push_str("a\"b\\c\n").push_u64(7);
        let mut o = JsonObject::new();
        o.field_str("k", "v").field_raw("arr", &inner.finish());
        let s = o.finish();
        assert_eq!(s, "{\"k\":\"v\",\"arr\":[1.5,\"a\\\"b\\\\c\\n\",7]}");
        check(&s).unwrap();
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut o = JsonObject::new();
        o.field_f64("nan", f64::NAN).field_f64("inf", f64::INFINITY);
        let s = o.finish();
        assert_eq!(s, "{\"nan\":null,\"inf\":null}");
        check(&s).unwrap();
    }

    #[test]
    fn checker_accepts_valid_documents() {
        for s in [
            "{}",
            "[]",
            "null",
            "-0.5e+10",
            "[1,2,{\"a\":[true,false,null]}]",
            " { \"x\" : \"\\u00e9\" } ",
            "\"\"",
            "0",
        ] {
            check(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "{} extra",
            "{'a':1}",
            "[\"\u{1}\"]",
        ] {
            assert!(check(s).is_err(), "accepted malformed: {s:?}");
        }
    }

    #[test]
    fn empty_containers_render() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn object_entries_round_trips() {
        let doc = r#"{"a":{"x":[1,2]},"b\n":"v","c":3.5,"d":null}"#;
        let e = object_entries(doc).unwrap();
        assert_eq!(e.len(), 4);
        assert_eq!(e[0], ("a".into(), "{\"x\":[1,2]}".into()));
        assert_eq!(e[1], ("b\n".into(), "\"v\"".into()));
        assert_eq!(e[2].1, "3.5");
        assert_eq!(e[3].1, "null");
        assert_eq!(object_entries("{}").unwrap(), vec![]);
        assert!(object_entries("[1]").is_err());
        assert!(object_entries("{\"a\":1} junk").is_err());
    }

    #[test]
    fn typed_value_readers_reject_the_wrong_kind() {
        let e = object_entries(r#"{"n":42,"x":-1.5,"s":"a\"b"}"#).unwrap();
        assert_eq!(value_u64(&e[0].0, &e[0].1), Ok(42));
        assert_eq!(value_f64(&e[1].0, &e[1].1), Ok(-1.5));
        assert_eq!(value_str(&e[2].0, &e[2].1).as_deref(), Ok("a\"b"));
        // A number where a string is expected, and the reverse.
        assert!(value_str("n", &e[0].1).is_err());
        assert!(value_u64("s", "\"42\"").is_err());
        assert!(value_f64("s", &e[2].1).is_err());
    }

    #[test]
    fn unescape_decodes_escapes_and_surrogates() {
        assert_eq!(unescape(r#"a\"b\\c\n\t"#), "a\"b\\c\n\t");
        assert_eq!(unescape(r"\u00e9"), "é");
        assert_eq!(unescape(r"\ud83d\ude00"), "😀");
        assert_eq!(unescape(r"\ud800x"), "\u{FFFD}x");
    }
}
