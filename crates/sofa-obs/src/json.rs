//! A minimal self-contained JSON parser — just enough for the trace-validity
//! checker to re-read the Chrome trace-event files this crate writes (and
//! any spec-conformant trace). No serde: the build environment is offline
//! and the repo's JSON needs are deliberately tiny.

use std::collections::BTreeMap;

/// A parsed JSON value. Numbers are kept as `f64` (Chrome trace timestamps
/// fit exactly below 2^53 cycles, far beyond any simulated run).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted map; a repeated key is a parse error).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Why [`parse`] rejected a document, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the fault (the first byte of a bad number).
    pub(crate) at: usize,
    /// What is wrong there.
    pub(crate) kind: JsonErrorKind,
}

/// The classes of [`JsonError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JsonErrorKind {
    /// Malformed syntax outside numbers; the message names what was
    /// expected.
    Syntax(String),
    /// A number outside the RFC 8259 grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — e.g. `01`,
    /// `1.`, `-`, `1e` or `-.5`.
    InvalidNumber,
    /// A well-formed number whose value overflows `f64` (e.g. `1e999`).
    NumberOutOfRange,
    /// An object repeats a key.
    DuplicateKey(String),
    /// Arrays/objects nest deeper than 128 levels.
    TooDeep,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            JsonErrorKind::Syntax(what) => write!(f, "{what}")?,
            JsonErrorKind::InvalidNumber => write!(f, "invalid number")?,
            JsonErrorKind::NumberOutOfRange => write!(f, "number out of range")?,
            JsonErrorKind::DuplicateKey(key) => write!(f, "duplicate key {key:?}")?,
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels")?,
        }
        write!(f, " at byte {}", self.at)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so the limit keeps hostile input from overflowing the stack;
/// the repo's own documents nest a handful of levels deep.
const MAX_DEPTH: usize = 128;

/// Parses `text` as one JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] at the first syntax error, number outside the
/// RFC 8259 grammar or the finite `f64` range, repeated object key, or
/// array/object nested more than 128 deep.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &str) -> Result<T, JsonError> {
        self.fail(JsonErrorKind::Syntax(what.to_string()))
    }

    fn fail<T>(&self, kind: JsonErrorKind) -> Result<T, JsonError> {
        Err(JsonError { at: self.pos, kind })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return self.fail(JsonErrorKind::TooDeep);
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if map.contains_key(&key) {
                return self.fail(JsonErrorKind::DuplicateKey(key));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(arr));
        }
        loop {
            self.skip_ws();
            arr.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(arr));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
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
                            let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
                                return self.err("truncated \\u escape");
                            };
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return self.err("bad \\u escape");
                            }
                            let hex = std::str::from_utf8(hex).expect("ascii hex digits");
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            self.pos += 4;
                            // Surrogate pairs are not produced by this repo's
                            // writers; map lone surrogates to the replacement
                            // character rather than failing the checker.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary walk).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return self.err("raw control character in string");
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Advances over a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }

    /// One number in the RFC 8259 grammar, finite as an `f64`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let invalid = Err(JsonError {
            at: start,
            kind: JsonErrorKind::InvalidNumber,
        });
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone zero, or digits without a leading zero.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return invalid;
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return invalid,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return invalid;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return invalid;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .expect("the RFC 8259 grammar is a subset of Rust's");
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(JsonError {
                at: start,
                kind: JsonErrorKind::NumberOutOfRange,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_string()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".to_string()));
    }

    #[test]
    fn parses_nested_structure() {
        let v = parse("{\"a\":[1,{\"b\":null},\"x\"],\"c\":{}}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert!(v.get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse("{\"a\":1,\"b\":{\"c\":2,\"c\":3}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate key \"c\""), "{err}");
        // The same key in sibling objects is fine.
        assert!(parse("[{\"a\":1},{\"a\":2}]").is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{{\"a\":{at_limit}}}");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, n) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("-0.5", -0.5),
            ("1.25e2", 125.0),
            ("1E+2", 100.0),
            ("2e-1", 0.2),
            ("1e-999", 0.0),
        ] {
            assert_eq!(parse(text), Ok(Json::Num(n)), "{text:?}");
        }
        for bad in ["01", "-01", "1.", "-", "1e", "1e+", "-.5", "1.e3", "[00]"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::InvalidNumber, "{bad:?}: {err}");
            assert_eq!(err.at, usize::from(bad.starts_with('[')), "{bad:?}");
        }
        // A leading '.' or '+' does not even start a number.
        for bad in [".5", "+1"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "[1, 2e400]"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::NumberOutOfRange, "{bad:?}: {err}");
        }
        assert_eq!(
            parse("{\"a\": 1e999}").unwrap_err().to_string(),
            "number out of range at byte 6"
        );
        // The largest finite double still parses.
        assert_eq!(parse("1.7976931348623157e308"), Ok(Json::Num(f64::MAX)));
    }

    #[test]
    fn round_trips_own_writers() {
        let mut m = crate::metrics::MetricsRegistry::new();
        m.inc("a.b", 3);
        m.set_gauge("g", 0.25);
        m.observe("h", &[1.0, 2.0], 1.5);
        let v = parse(&m.to_json()).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a.b").unwrap().as_num(),
            Some(3.0)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("g").unwrap().as_num(),
            Some(0.25)
        );
        let h = v.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_num(), Some(1.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Arbitrary input never panics the parser: strings drawn from the
        /// JSON token alphabet reach deep into every production, and raw
        /// bytes cover everything else.
        #[test]
        fn arbitrary_input_is_an_error_or_a_value_never_a_panic(
            tokens in proptest::collection::vec(0usize..24, 0..64),
            raw in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            const ALPHABET: &[&str] = &[
                "{", "}", "[", "]", "\"", ":", ",", " ", "0", "1", "9", "-", "+", ".", "e",
                "E", "\\", "u", "00e9", "true", "null", "f", "é", "\u{1}",
            ];
            let text: String = tokens.iter().map(|&t| ALPHABET[t]).collect();
            let _ = parse(&text);
            let _ = parse(&String::from_utf8_lossy(&raw));
        }
    }
}
