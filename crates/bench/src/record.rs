//! The one JSON format of the repo's own records: the `BENCH_*.json`
//! files the bench binaries write and `bench-gate` checks, and the trace
//! JSONL that `trace-timeline` renders. [`write()`] and [`parse`]
//! round-trip every [`Value`] whose floats are finite: integers stay
//! exact (64-bit seeds survive) and floats print in Rust's shortest
//! round-trip form.
//!
//! ```
//! use sidefp_bench::record::{self, Value};
//! let bench = record::object([("seed", Value::from(u64::MAX)), ("ratio", Value::from(4.786))]);
//! assert_eq!(record::parse(&record::write(&bench)), Ok(bench));
//! ```

use std::fmt;

/// A value of the JSON subset the repo writes (it has no booleans).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// An integer literal, kept exact.
    Int(i128),
    /// A number with a fraction or exponent; written as `null` if not finite.
    Float(f64),
    /// A string.
    Str(String),
    /// A list.
    List(Vec<Value>),
    /// An object: unique keys in written order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// An integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Int(i) = *self else { return None };
        i.try_into().ok()
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i128)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// An object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Pretty JSON with a trailing newline, laid out like the committed
/// `BENCH_*.json`: two-space indent, one field or nested item per line,
/// lists of scalars on one line.
pub fn write(value: &Value) -> String {
    render(value, "") + "\n"
}

fn render(value: &Value, indent: &str) -> String {
    let inner = format!("{indent}  ");
    let (brackets, items): (_, Vec<String>) = match value {
        // `{:?}` is the shortest text that reads back as the same f64,
        // with a `.0` or exponent so it reads back as a float.
        Value::Float(f) if f.is_finite() => return format!("{f:?}"),
        Value::Null | Value::Float(_) => return "null".into(),
        Value::Int(i) => return i.to_string(),
        Value::Str(s) => return quoted(s),
        Value::List(items) => ("[]", items.iter().map(|v| render(v, &inner)).collect()),
        Value::Object(fields) => {
            let field = |(k, v): &(String, Value)| format!("{}: {}", quoted(k), render(v, &inner));
            ("{}", fields.iter().map(field).collect())
        }
    };
    let (open, close) = brackets.split_at(1);
    let nested = |v: &Value| matches!(v, Value::List(_) | Value::Object(_));
    if items.is_empty() || matches!(value, Value::List(l) if !l.iter().any(nested)) {
        return format!("{open}{}{close}", items.join(", "));
    }
    format!(
        "{open}\n{inner}{}\n{indent}{close}",
        items.join(&format!(",\n{inner}"))
    )
}

fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    sidefp_obs::escape_json(s, &mut out);
    out + "\""
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A character that cannot appear here.
    UnexpectedChar(char),
    /// Not a number, or an integer beyond `i128`.
    BadNumber,
    /// An unknown `\` escape, or a `\u` that is not a character.
    BadEscape,
    /// An object repeats this key.
    DuplicateKey(String),
    /// More than whitespace follows the value.
    TrailingData,
    /// Lists and objects nested more than 64 deep.
    TooDeep,
}

/// A [`parse`] failure at byte `pos` of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at byte {}", self.kind, self.pos)
    }
}

impl std::error::Error for ParseError {}

const MAX_DEPTH: usize = 64;

/// Parses one [`Value`]. Never panics: malformed input, including
/// nesting deep enough to exhaust the stack, is a [`ParseError`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if !p.rest().is_empty() {
        return Err(p.err(ParseErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary.
    pos: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &str {
        &self.text[self.pos..]
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        let pos = self.pos;
        ParseError { pos, kind }
    }

    fn unexpected(&self) -> ParseError {
        self.err(match self.rest().chars().next() {
            Some(c) => ParseErrorKind::UnexpectedChar(c),
            None => ParseErrorKind::UnexpectedEnd,
        })
    }

    fn skip_ws(&mut self) {
        let rest = self.rest().trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos = self.text.len() - rest.len();
    }

    /// Consumes `c` if it comes next after whitespace.
    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        let found = self.rest().starts_with(c);
        self.pos += usize::from(found);
        found
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        if depth == MAX_DEPTH && self.rest().starts_with(['[', '{']) {
            return Err(self.err(ParseErrorKind::TooDeep));
        }
        if self.eat('[') {
            let mut items = Vec::new();
            self.items(']', |p| {
                items.push(p.value(depth + 1)?);
                Ok(())
            })?;
            return Ok(Value::List(items));
        }
        if self.eat('{') {
            let mut fields: Vec<(String, Value)> = Vec::new();
            self.items('}', |p| {
                p.skip_ws();
                let pos = p.pos;
                let key = p.string()?;
                if fields.iter().any(|(k, _)| *k == key) {
                    let kind = ParseErrorKind::DuplicateKey(key);
                    return Err(ParseError { pos, kind });
                }
                if !p.eat(':') {
                    return Err(p.unexpected());
                }
                fields.push((key, p.value(depth + 1)?));
                Ok(())
            })?;
            return Ok(Value::Object(fields));
        }
        match self.rest().chars().next() {
            Some('"') => self.string().map(Value::Str),
            Some('-' | '0'..='9') => self.number(),
            _ if self.rest().starts_with("null") => {
                self.pos += 4;
                Ok(Value::Null)
            }
            _ => Err(self.unexpected()),
        }
    }

    /// Comma-separated `item`s up to `close`, the opener already consumed.
    fn items(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        let mut first = true;
        while !self.eat(close) {
            if !first && !self.eat(',') {
                return Err(self.unexpected());
            }
            item(self)?;
            first = false;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.rest().starts_with('"') {
            return Err(self.unexpected());
        }
        let start = self.pos + 1;
        let mut chars = self.text[start..]
            .char_indices()
            .map(|(i, c)| (start + i, c));
        let mut out = String::new();
        while let Some((pos, c)) = chars.next() {
            let fail = |kind| Err(ParseError { pos, kind });
            out.push(match c {
                '"' => {
                    self.pos = pos + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map_or(' ', |(_, e)| e) {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    e @ ('"' | '\\' | '/') => e,
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let digits = hex.len() == 4 && hex.chars().all(|h| h.is_ascii_hexdigit());
                        let code = u32::from_str_radix(&hex, 16).ok().filter(|_| digits);
                        match code.and_then(char::from_u32) {
                            Some(c) => c,
                            None => return fail(ParseErrorKind::BadEscape),
                        }
                    }
                    _ => return fail(ParseErrorKind::BadEscape),
                },
                c if c < ' ' => return fail(ParseErrorKind::UnexpectedChar(c)),
                c => c,
            });
        }
        self.pos = self.text.len();
        Err(self.err(ParseErrorKind::UnexpectedEnd))
    }

    /// An [`Value::Int`] if the literal has no fraction or exponent,
    /// else a finite [`Value::Float`].
    fn number(&mut self) -> Result<Value, ParseError> {
        let end = self
            .rest()
            .find(|c: char| !c.is_ascii_digit() && !"+-.eE".contains(c));
        let literal = &self.rest()[..end.unwrap_or(self.rest().len())];
        let value = if literal.contains(['.', 'e', 'E']) {
            literal
                .parse()
                .ok()
                .filter(|f: &f64| f.is_finite())
                .map(Value::Float)
        } else {
            literal.parse().ok().map(Value::Int)
        };
        let value = value.ok_or_else(|| self.err(ParseErrorKind::BadNumber))?;
        self.pos += literal.len();
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A random value tree: every variant, negative and beyond-2^53
    /// integers, any finite float bit pattern, strings that need escapes.
    fn arbitrary(rng: &mut StdRng, depth: usize) -> Value {
        const ALPHABET: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\t', '\u{1f}', 'é', '€'];
        let text = |rng: &mut StdRng| -> String {
            (0..rng.random_range(0..6usize))
                .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
                .collect()
        };
        match rng.random_range(0..if depth == 0 { 4 } else { 6usize }) {
            0 => Value::Null,
            1 => {
                let magnitude = i128::from(rng.next_u64() >> rng.random_range(0..64u32));
                Value::Int(if rng.random_bool(0.5) {
                    -magnitude
                } else {
                    magnitude
                })
            }
            2 => loop {
                let f = f64::from_bits(rng.next_u64());
                if f.is_finite() {
                    break Value::Float(f);
                }
            },
            3 => Value::Str(text(rng)),
            4 => Value::List(
                (0..rng.random_range(0..4usize))
                    .map(|_| arbitrary(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.random_range(0..4usize))
                    .map(|i| (format!("{}{i}", text(rng)), arbitrary(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn write_then_parse_is_the_identity(seed in proptest::num::u64::ANY) {
            let value = arbitrary(&mut StdRng::seed_from_u64(seed), 4);
            let text = write(&value);
            prop_assert_eq!(parse(&text), Ok(value), "{}", text);
        }
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        for n in [u64::MAX, 5_663_063_783_972_190_367, (1 << 53) + 1] {
            let text = n.to_string();
            assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
            assert_eq!(write(&Value::from(n)), format!("{text}\n"));
        }
        assert_eq!(parse("-17"), Ok(Value::Int(-17)));
        assert_eq!(parse("-17").unwrap().as_u64(), None);
    }

    #[test]
    fn floats_print_shortest_and_read_back_as_floats() {
        assert_eq!(write(&Value::from(1.0)), "1.0\n");
        assert_eq!(write(&Value::from(0.1 + 0.2)), "0.30000000000000004\n");
        assert_eq!(parse("1.0"), Ok(Value::Float(1.0)));
        assert_eq!(parse("1e3"), Ok(Value::Float(1000.0)));
        assert_eq!(write(&Value::from(f64::NAN)), "null\n");
    }

    #[test]
    fn layout_matches_the_committed_records() {
        let value = object([
            ("bench", Value::from("scaling")),
            (
                "thread_counts",
                Value::List(vec![Value::Int(1), Value::Int(2)]),
            ),
            (
                "sizes",
                Value::List(vec![object([("n", Value::from(1000usize))])]),
            ),
            ("empty", object::<&str>([])),
        ]);
        let expected = "{\n  \"bench\": \"scaling\",\n  \"thread_counts\": [1, 2],\n  \
                        \"sizes\": [\n    {\n      \"n\": 1000\n    }\n  ],\n  \"empty\": {}\n}\n";
        assert_eq!(write(&value), expected);
    }

    #[test]
    fn layout_does_not_matter_to_the_reader() {
        let pretty = parse("{\n  \"a\" : [ 1 ,2.5 ] ,\n\t\"b\":null }").unwrap();
        assert_eq!(pretty, parse("{\"a\":[1,2.5],\"b\":null}").unwrap());
        assert_eq!(
            pretty.get("a"),
            Some(&Value::List(vec![Value::Int(1), Value::Float(2.5)]))
        );
    }

    #[test]
    fn escapes_decode() {
        let value = parse(r#""q\" s\\ n\n u\u001f eé \/""#).unwrap();
        assert_eq!(value.as_str(), Some("q\" s\\ n\n u\u{1f} e\u{e9} /"));
    }

    fn kind_of(text: &str) -> (usize, ParseErrorKind) {
        let err = parse(text).expect_err(text);
        (err.pos, err.kind)
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        use ParseErrorKind::*;
        assert_eq!(kind_of(""), (0, UnexpectedEnd));
        assert_eq!(kind_of("{\"a\": [1, 2"), (11, UnexpectedEnd));
        assert_eq!(kind_of("{\"a\": \"open"), (11, UnexpectedEnd));
        assert_eq!(kind_of("{\"a\": 1} x"), (9, TrailingData));
        assert_eq!(kind_of("[1] [2]"), (4, TrailingData));
        assert_eq!(kind_of(r#""a\qb""#), (2, BadEscape));
        assert_eq!(kind_of(r#""\u12""#), (1, BadEscape));
        assert_eq!(kind_of(r#""\ud800""#), (1, BadEscape));
        assert_eq!(kind_of(r#""\u+123""#), (1, BadEscape));
        assert_eq!(
            kind_of("{\"a\": 1, \"a\": 2}"),
            (9, DuplicateKey("a".into()))
        );
        assert_eq!(kind_of("[1,]"), (3, UnexpectedChar(']')));
        assert_eq!(kind_of("{,}"), (1, UnexpectedChar(',')));
        assert_eq!(kind_of("{\"a\" 1}"), (5, UnexpectedChar('1')));
        assert_eq!(kind_of("true"), (0, UnexpectedChar('t')));
        assert_eq!(kind_of("nul"), (0, UnexpectedChar('n')));
        assert_eq!(kind_of("\"tab\there\""), (4, UnexpectedChar('\t')));
        assert_eq!(kind_of("-"), (0, BadNumber));
        assert_eq!(kind_of("1-2"), (0, BadNumber));
        assert_eq!(kind_of("1e+"), (0, BadNumber));
        assert_eq!(kind_of("1e999"), (0, BadNumber));
        assert_eq!(kind_of(&"9".repeat(40)), (0, BadNumber));
        assert_eq!(kind_of(&"[".repeat(1000)), (MAX_DEPTH, TooDeep));
        assert!(parse(&"[".repeat(MAX_DEPTH)).is_err());
    }

    #[test]
    fn every_truncation_of_a_record_is_an_error_not_a_panic() {
        let text = write(&object([
            ("name", Value::from("power/\"dormant\"/tt é")),
            ("seed", Value::from(u64::MAX)),
            (
                "curve",
                Value::List(vec![Value::from(1.0), Value::from(-2.5e-7)]),
            ),
        ]));
        let cuts = text.char_indices().map(|(i, _)| i).filter(|&i| i > 0);
        for cut in cuts.take_while(|&i| i < text.trim_end().len()) {
            assert!(parse(&text[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn errors_render_with_their_position() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.to_string(), "UnexpectedChar('x') at byte 4");
    }
}
