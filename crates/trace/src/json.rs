//! A small, dependency-free JSON toolkit.
//!
//! This container has no network and no vendored registry, so the report
//! layer cannot lean on `serde`. This module supplies what the workspace
//! actually needs: an ordered JSON value type ([`Json`]), a compact and a
//! pretty writer, a string escaper, and a strict recursive-descent
//! [`parse`] used by the golden tests that validate `scald-tv --format
//! json` output.
//!
//! Objects preserve insertion order (they are `Vec<(String, Json)>`), so
//! a document renders in the order it was built — stable for golden
//! files and diffs.

use std::fmt;

/// A JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; written shortest-form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value (convenience over `Json::Str(s.into())`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value at `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the human-facing form `scald-tv --format json` emits.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, k).expect("String write cannot fail");
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            leaf => leaf.write_compact(out).expect("String write cannot fail"),
        }
    }

    /// The compact (single-line) rendering, written straight into `w`.
    fn write_compact<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            Json::Null => w.write_str("null"),
            Json::Bool(b) => w.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(w, *n),
            Json::Str(s) => write_escaped(w, s),
            Json::Arr(items) => {
                w.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        w.write_char(',')?;
                    }
                    item.write_compact(w)?;
                }
                w.write_char(']')
            }
            Json::Obj(fields) => {
                w.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        w.write_char(',')?;
                    }
                    write_escaped(w, k)?;
                    w.write_char(':')?;
                    v.write_compact(w)?;
                }
                w.write_char('}')
            }
        }
    }
}

/// Appends `depth` levels of two-space indentation.
fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a number in the shortest form that reads back to it; JSON has
/// no Inf/NaN, so those become the conventional stand-in `null`.
fn write_num<W: fmt::Write>(w: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return w.write_str("null");
    }
    // Integral values (counts, byte sizes, whole nanoseconds) print the
    // same digits as `i64`, whose formatting is cheaper; `-0.0` keeps its
    // sign through the float path.
    if n.fract() == 0.0 && n.abs() < 1e15 && (n != 0.0 || n.is_sign_positive()) {
        #[allow(clippy::cast_possible_truncation)]
        return write!(w, "{}", n as i64);
    }
    write!(w, "{n}")
}

/// Writes `s` as a quoted JSON string, copying unescaped runs whole.
fn write_escaped<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    w.write_char('"')?;
    let mut run = 0;
    // Every byte that needs escaping is ASCII, so `i` is a char boundary.
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        w.write_str(&s[run..i])?;
        if let Some(escape) = named {
            w.write_str(escape)?;
        } else {
            w.write_str("\\u00")?;
            w.write_char(char::from(HEX[usize::from(b >> 4)]))?;
            w.write_char(char::from(HEX[usize::from(b & 0xf)]))?;
        }
        run = i + 1;
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_compact(f)
    }
}

/// Escapes `s` as a quoted JSON string (including the surrounding `"`).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s).expect("String write cannot fail");
    out
}

/// Parses a complete JSON document. Strict: trailing garbage, trailing
/// commas, unquoted keys and bare control characters are errors.
///
/// # Errors
///
/// Returns a message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(text, bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    text[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_owned());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_owned());
                };
                *pos += 1;
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
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are rejected rather than joined:
                        // nothing in this workspace emits them.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            0x00..=0x1f => return Err(format!("control character in string at byte {}", *pos)),
            _ => {
                // Advance one full UTF-8 scalar.
                let s = &text[*pos..];
                let c = s.chars().next().ok_or("invalid utf-8")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_rng::Rng;

    /// The escaper the writers used before they wrote escapes in place:
    /// the reference for `write_escaped`.
    fn reference_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The compact writer before it wrote straight into the output: the
    /// reference for `Display`.
    fn reference_compact(doc: &Json) -> String {
        match doc {
            Json::Null => "null".to_owned(),
            Json::Bool(b) => format!("{b}"),
            Json::Num(n) if n.is_finite() => format!("{n}"),
            Json::Num(_) => "null".to_owned(),
            Json::Str(s) => reference_escape(s),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(reference_compact).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", reference_escape(k), reference_compact(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// The pretty writer before it indented and escaped in place: the
    /// reference for `to_string_pretty` (without its trailing newline).
    fn reference_pretty(doc: &Json, out: &mut String, indent: usize) {
        match doc {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    reference_pretty(item, out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&reference_escape(k));
                    out.push_str(": ");
                    reference_pretty(v, out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            leaf => out.push_str(&reference_compact(leaf)),
        }
    }

    /// A random string mixing ASCII, every control character, the
    /// characters JSON escapes by name, non-ASCII text and text that
    /// looks like a `\u` escape.
    fn random_text(rng: &mut Rng) -> String {
        const PIECES: &[&str] = &[
            "a",
            "Z",
            " ",
            "\"",
            "\\",
            "/",
            "\\u0041",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "ñandú",
            "信号",
            "🕐",
            "\u{2028}",
            ".P2-3",
            "SETUP TIME = 2.5",
        ];
        let mut s = String::new();
        for _ in 0..rng.range_usize(0, 12) {
            if rng.bool_with(0.3) {
                s.push(char::from(u8::try_from(rng.range_u32(0, 0x20)).unwrap()));
            } else {
                s.push_str(rng.choose::<&str>(PIECES));
            }
        }
        s
    }

    fn random_num(rng: &mut Rng) -> f64 {
        match rng.range_u32(0, 10) {
            0 => *rng.choose(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            1 => *rng.choose(&[
                0.0,
                -0.0,
                1e15,
                -1e15,
                1e16,
                9.007_199_254_740_993e15,
                1e300,
            ]),
            2 => rng.range_f64(-1e-6, 1e-6),
            3 => rng.range_f64(-1e20, 1e20),
            #[allow(clippy::cast_precision_loss)]
            4..=6 => rng.range_i64(-1_000_000, 1_000_000) as f64,
            _ => rng.range_f64(-1000.0, 1000.0),
        }
    }

    fn random_json(rng: &mut Rng, depth: usize) -> Json {
        let leaf_only = depth == 0;
        match rng.range_u32(0, if leaf_only { 4 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.bool()),
            2 => Json::Num(random_num(rng)),
            3 => Json::Str(random_text(rng)),
            4 => Json::Arr(Vec::new()),
            5 => Json::Arr(
                (0..rng.range_usize(0, 5))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.range_usize(0, 5))
                    .map(|_| (random_text(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Non-finite numbers render as `null`, so that is what they parse
    /// back to.
    fn finite_only(doc: &Json) -> Json {
        match doc {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(finite_only).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), finite_only(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn writers_match_reference_writers_on_random_documents() {
        for seed in 0..400 {
            let mut rng = Rng::seed_from_u64(seed);
            let depth = if seed % 10 == 0 { 24 } else { 6 };
            let doc = random_json(&mut rng, depth);
            let compact = doc.to_string();
            assert_eq!(compact, reference_compact(&doc), "seed {seed}");
            let mut pretty = String::new();
            reference_pretty(&doc, &mut pretty, 0);
            pretty.push('\n');
            assert_eq!(doc.to_string_pretty(), pretty, "seed {seed}");
            let expected = finite_only(&doc);
            for text in [&compact, &pretty] {
                let back = parse(text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
                // `-0.0 == 0.0`, so also compare the renderings.
                assert_eq!(back, expected, "seed {seed}");
                assert_eq!(back.to_string(), expected.to_string(), "seed {seed}");
            }
        }
    }

    #[test]
    fn deep_nesting_matches_reference_writers() {
        let mut doc = Json::Str("\u{1}leaf".to_owned());
        for i in 0..200 {
            doc = if i % 2 == 0 {
                Json::Arr(vec![doc, Json::Arr(Vec::new())])
            } else {
                Json::Obj(vec![
                    (format!("k{i}"), doc),
                    (String::new(), Json::Obj(Vec::new())),
                ])
            };
        }
        assert_eq!(doc.to_string(), reference_compact(&doc));
        let mut pretty = String::new();
        reference_pretty(&doc, &mut pretty, 0);
        pretty.push('\n');
        assert_eq!(doc.to_string_pretty(), pretty);
        assert_eq!(parse(&doc.to_string_pretty()).expect("valid"), doc);
    }

    #[test]
    fn escape_matches_reference_on_every_control_character() {
        for b in 0u8..0x80 {
            let s = format!("x{}y", char::from(b));
            assert_eq!(escape(&s), reference_escape(&s), "byte {b:#04x}");
        }
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("scald-tv-report")),
            ("version".into(), Json::from(1u64)),
            ("clean".into(), Json::from(false)),
            (
                "cases".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::str("case 1")),
                    ("missed_by_ns".into(), Json::from(3.5)),
                    ("at".into(), Json::Null),
                ])]),
            ),
        ]);
        for text in [doc.to_string(), doc.to_string_pretty()] {
            let parsed = parse(&text).expect("round trip");
            assert_eq!(parsed, doc, "text: {text}");
        }
    }

    #[test]
    fn escapes_and_unescapes() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let quoted = escape(s);
        let back = parse(&quoted).expect("valid");
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn object_lookup_preserves_order() {
        let doc = parse(r#"{"b": 1, "a": 2}"#).expect("valid");
        let fields = doc.as_object().expect("object");
        assert_eq!(fields[0].0, "b");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_and_print_shortest_form() {
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("-0.25").unwrap().as_f64(), Some(-0.25));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::from(49.0).to_string(), "49");
        assert_eq!(Json::from(3.5).to_string(), "3.5");
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
    }
}
