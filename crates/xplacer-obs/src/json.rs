//! A tiny JSON document model with a serializer and parser — the shared
//! substrate of every exporter in this crate (no external dependencies are
//! available in the build environment).
//!
//! Objects preserve insertion order, so serialization is fully
//! deterministic: the same document always produces byte-identical output.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64` (JSON has one number type); object
/// members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`set`](Self::set).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert or replace member `key`. Panics on non-objects (builder
    /// misuse is a programming error).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(members) => {
                if let Some(m) = members.iter_mut().find(|(k, _)| k == key) {
                    m.1 = value;
                } else {
                    members.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a u64 (counters), if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&fmt_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict enough for round-tripping our own
    /// output and validating exporter artifacts in tests). One linear
    /// pass over `text`; nesting deeper than [`MAX_DEPTH`] is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// JSON has no NaN/inf; clamp them to null-safe 0 and keep integers exact.
fn fmt_number(n: f64) -> String {
    if !n.is_finite() {
        return "0".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        let mut s = format!("{n}");
        // `{}` on f64 is shortest-roundtrip, but may print exponents for
        // extreme magnitudes; those are valid JSON already.
        if s == "-0" {
            s = "0".to_string();
        }
        s
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every xplacer
/// writer stays within a handful of levels; the bound turns a hostile
/// document (say, 100 000 `[`) into a [`ParseError`] instead of a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.message)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four ASCII hex digits (no sign, unlike
                            // `u32::from_str_radix`).
                            let mut code = 0u32;
                            for &h in hex {
                                let digit = char::from(h)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                code = code * 16 + digit;
                            }
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole unescaped run up to the next `"` or
                    // `\`. Both are ASCII, so the run ends on a char
                    // boundary of the `&str` input.
                    let start = self.pos;
                    self.pos += self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_compact_output() {
        let mut j = Json::obj();
        j.set("name", "lulesh".into())
            .set("faults", 42u64.into())
            .set("ratio", 0.5.into())
            .set("live", true.into())
            .set("tags", Json::Arr(vec!["a".into(), "b".into()]));
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"lulesh","faults":42,"ratio":0.5,"live":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn set_replaces_existing_key_in_place() {
        let mut j = Json::obj();
        j.set("a", 1u64.into())
            .set("b", 2u64.into())
            .set("a", 3u64.into());
        assert_eq!(j.to_string_compact(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let mut j = Json::obj();
        j.set("s", "quote \" backslash \\ newline \n tab \t".into())
            .set("neg", Json::Num(-12.25))
            .set("nested", {
                let mut n = Json::obj();
                n.set("empty_arr", Json::Arr(vec![]))
                    .set("empty_obj", Json::obj())
                    .set("null", Json::Null);
                n
            });
        for text in [j.to_string_compact(), j.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), j);
        }
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.5).to_string_compact(), "3.5");
        assert_eq!(Json::Num(-7.0).to_string_compact(), "-7");
        assert_eq!(Json::from(u64::MAX).as_f64().unwrap(), u64::MAX as f64);
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "0");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "0");
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n":5,"s":"x","b":false,"a":[1,2]}"#).unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(5));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,2,]3").is_err());
        assert!(Json::parse("truefalse").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        // `\u` takes exactly four ASCII hex digits: no sign, no
        // non-ASCII digit, no short escape.
        assert!(Json::parse(r#""\u+041""#).is_err());
        assert!(Json::parse(r#""\u00é""#).is_err());
        assert!(Json::parse(r#""\u41""#).is_err());
    }

    #[test]
    fn nesting_is_bounded_with_an_offset() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count too; the offset is that of the first `{` too deep.
        let n = MAX_DEPTH + 1;
        let objs = format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        assert_eq!(Json::parse(&objs).unwrap_err().pos, 5 * MAX_DEPTH);
        // 100 000 `[` fail fast instead of overflowing the stack.
        assert_eq!(
            Json::parse(&"[".repeat(100_000)).unwrap_err().pos,
            MAX_DEPTH
        );
    }

    #[test]
    fn parser_accepts_whitespace_and_exponents() {
        let j = Json::parse(" { \"x\" : [ 1e3 , -2.5E-1 ] } ").unwrap();
        let a = j.get("x").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1000.0));
        assert_eq!(a[1].as_f64(), Some(-0.25));
    }

    #[test]
    fn unicode_survives_roundtrip() {
        // 2-, 3- and 4-byte UTF-8 around every escape the writer emits,
        // with `\u00XX` at the start, middle and end of a run.
        let cases = [
            ("\u{1}é→𝄞", r#""\u0001é→𝄞""#),
            ("é\u{1f}→\u{2}𝄞", r#""é\u001f→\u0002𝄞""#),
            ("é→𝄞\u{7}", r#""é→𝄞\u0007""#),
            ("\"é\\→\n𝄞\r\t", r#""\"é\\→\n𝄞\r\t""#),
            ("𝄞", r#""𝄞""#),
            ("", r#""""#),
            ("héllo → wörld \u{1}", r#""héllo → wörld \u0001""#),
        ];
        for (value, text) in cases {
            let j = Json::Str(value.to_string());
            assert_eq!(j.to_string_compact(), text);
            assert_eq!(Json::parse(text).unwrap(), j, "{text}");
        }
        // The same strings as keys and neighbouring array items.
        let mut obj = Json::obj();
        for (value, _) in cases {
            obj.set(value, Json::Arr(cases.iter().map(|c| c.0.into()).collect()));
        }
        for text in [obj.to_string_compact(), obj.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), obj);
        }
        // Escapes the writer never emits still decode.
        assert_eq!(
            Json::parse(r#""\u00e9\/\b\f\u2192x\ud834""#).unwrap(),
            Json::Str("é/\u{8}\u{c}→x\u{fffd}".to_string())
        );
    }
}
