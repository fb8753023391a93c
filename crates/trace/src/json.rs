//! Minimal JSON support: [`JsonWriter`], the one streaming writer behind
//! every document the workspace exports, and a small recursive-descent
//! parser used by tests and smoke checks to validate what it emits. The
//! workspace builds fully offline with no JSON dependency vendored, and
//! the documents are machine-generated, so a few hundred lines suffice.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append a JSON string literal (with escaping) to `out`.
fn push_str_lit(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from a &str).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf-8")?;
                // bgl-lint: allow(r1, reason = "the Some(_) arm guarantees the slice is non-empty and from_utf8 just validated it")
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        out.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Builds a compact document: one top-level object, no whitespace.
pub fn compact(f: impl FnOnce(&mut JsonWriter)) -> String {
    JsonWriter::document(false, f)
}

/// Builds a pretty document: one top-level object, one member per line
/// at a 2-space indent, and a trailing newline.
pub fn pretty(f: impl FnOnce(&mut JsonWriter)) -> String {
    let mut doc = JsonWriter::document(true, f);
    doc.push('\n');
    doc
}

/// Streaming JSON writer handed out by [`compact`] and [`pretty`]. It
/// places commas, escapes strings and (pretty layout) breaks lines, so
/// callers only name keys and values, in the order they should appear.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// One flag per open container: whether it has a member yet.
    open: Vec<bool>,
    /// A key was just written; the next value belongs to it.
    after_key: bool,
}

impl JsonWriter {
    fn document(pretty: bool, f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter {
            out: String::new(),
            pretty,
            open: Vec::new(),
            after_key: false,
        };
        w.obj(f);
        w.out
    }

    /// Separator, line break and indent before a new member.
    fn begin_member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(has_members) = self.open.last_mut() {
            if std::mem::replace(has_members, true) {
                self.out.push(',');
            }
            if self.pretty {
                self.newline(self.open.len());
            }
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', 2 * depth));
    }

    fn container(&mut self, open: char, close: char, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.begin_member();
        self.out.push(open);
        self.open.push(false);
        f(self);
        if self.open.pop() == Some(true) && self.pretty {
            self.newline(self.open.len());
        }
        self.out.push(close);
        self
    }

    /// Writes an object whose members `f` writes.
    pub fn obj(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', f)
    }

    /// Writes an array whose elements `f` writes.
    pub fn arr(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', f)
    }

    /// Writes an object key; the next value, object or array is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.begin_member();
        push_str_lit(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes a scalar value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.begin_member();
        v.write_to(&mut self.out);
        self
    }

    /// Writes `key: v`.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes an array of scalars.
    pub fn values<T: Scalar>(&mut self, vs: impl IntoIterator<Item = T>) -> &mut Self {
        self.arr(|w| {
            for v in vs {
                w.value(v);
            }
        })
    }
}

/// A value [`JsonWriter`] prints inline: integers exactly, `f64` as its
/// shortest round-trip decimal, [`Fixed`] at a set precision, strings
/// escaped, and `None` as `null`.
pub trait Scalar {
    /// Appends the JSON text of this value.
    fn write_to(&self, out: &mut String);
}

/// An `f64` printed with a fixed number of decimals, as `{:.N}` would.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(bool, u32, u64, usize);

impl Scalar for f64 {
    /// Rust's shortest-round-trip `Display` for `f64` never uses
    /// exponent notation, so the output is always a valid JSON number.
    fn write_to(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for Fixed {
    fn write_to(&self, out: &mut String) {
        let Fixed(x, decimals) = *self;
        if x.is_finite() {
            let _ = write!(out, "{x:.decimals$}");
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        push_str_lit(out, self);
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        push_str_lit(out, self);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every layout of the same nested document, with empty containers.
    fn nested(w: &mut JsonWriter) {
        w.field("a", 1u64)
            .key("b")
            .obj(|w| {
                w.key("c").values([1u32, 2]).key("e").obj(|_| {});
            })
            .key("d")
            .arr(|w| {
                w.obj(|w| {
                    w.field("x", true).field("y", None::<u64>);
                })
                .arr(|_| {})
                .value("s");
            });
    }

    #[test]
    fn writes_nested_containers_in_both_layouts() {
        assert_eq!(
            compact(nested),
            r#"{"a":1,"b":{"c":[1,2],"e":{}},"d":[{"x":true,"y":null},[],"s"]}"#
        );
        let doc = pretty(nested);
        let want = r#"{
  "a": 1,
  "b": {
    "c": [
      1,
      2
    ],
    "e": {}
  },
  "d": [
    {
      "x": true,
      "y": null
    },
    [],
    "s"
  ]
}
"#;
        assert_eq!(doc, want);
        assert_eq!(compact(|_| {}), "{}");
        assert_eq!(pretty(|_| {}), "{}\n");
        assert_eq!(parse(&doc), parse(&compact(nested)));
    }

    #[test]
    fn roundtrips_escaped_strings() {
        let s = "a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}é";
        let doc = |w: &mut JsonWriter| {
            w.field(s, s);
        };
        for doc in [compact(doc), pretty(doc)] {
            assert!(doc.contains(r#"\"b\\c\nd\re\tf\u0001\u001f"#), "{doc}");
            let v = parse(&doc).unwrap();
            assert_eq!(v.get(s).and_then(JsonValue::as_str), Some(s));
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,{"b":true,"c":null}],"d":"x"}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers rejected");
    }

    #[test]
    fn integers_print_exactly() {
        let doc = compact(|w| {
            w.field("max", u64::MAX);
        });
        assert_eq!(doc, r#"{"max":18446744073709551615}"#);
    }

    #[test]
    fn f64_writer_emits_valid_numbers() {
        for x in [0.0, 1.5, -2.25e-9, 123456789.125, 1e-7, 16.0] {
            let doc = compact(|w| {
                w.field("x", x);
            });
            assert_eq!(
                parse(&doc).unwrap().get("x").unwrap().as_f64(),
                Some(x),
                "{doc}"
            );
        }
        let doc = compact(|w| {
            w.field("deg", 16.0)
                .field("nan", f64::NAN)
                .field("inf", Fixed(f64::INFINITY, 3));
        });
        assert_eq!(doc, r#"{"deg":16,"nan":null,"inf":null}"#);
    }

    #[test]
    fn fixed_floats_keep_their_precision() {
        let doc = compact(|w| {
            w.field("ms", Fixed(5.4604, 3))
                .field("zero", Fixed(0.0, 3))
                .field("s", Fixed(0.000_155_920_4, 9))
                .field("round", Fixed(2.0005, 0));
        });
        assert_eq!(
            doc,
            r#"{"ms":5.460,"zero":0.000,"s":0.000155920,"round":2}"#
        );
    }
}
