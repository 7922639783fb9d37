//! Helpers for hand-rendered and hand-parsed JSON.
//!
//! The workspace writes its benchmark and metrics artifacts as
//! hand-built JSON strings (no serde under the offline-shim policy);
//! the one part that is easy to get wrong is string escaping, so it
//! lives here once. The network edge (`lpath-server`) additionally
//! needs to *read* JSON from untrusted peers, so the matching
//! recursive-descent parser lives here too: a plain [`Value`] tree,
//! RFC 8259 syntax, with an explicit nesting-depth bound so hostile
//! input cannot overflow the stack.

/// Escape `s` for embedding inside a JSON string literal (quotes not
/// included). Escapes `"`, `\` and all control characters per RFC
/// 8259; everything else — including multi-byte UTF-8 — passes
/// through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
///
/// Object members keep their textual order in a plain `Vec` — the
/// workloads here read a handful of known keys per message, so a map
/// would buy nothing, and ordered members make rendered-then-reparsed
/// fixtures byte-stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; see [`Value::as_u64`]
    /// for the integer view used by protocol fields).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in textual order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` on anything else or a missing
    /// key. First occurrence wins on (invalid but parseable) duplicate
    /// keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number that is exactly a `u64` (protocol ids, offsets,
    /// limits). Rejects negatives, fractions and anything above
    /// 2^53 (where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            &Value::Num(n) if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The bool inside [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            &Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements of [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a JSON text failed to parse. The positions are byte offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong, statically.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Nesting bound for untrusted input: deeper arrays/objects are a
/// [`ParseError`], not a stack overflow. Protocol messages here nest
/// three or four levels; 64 is generous.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`ParseError`] with the byte offset and reason on any syntactic
/// violation, invalid `\u` escape, non-finite number, or nesting
/// beyond the depth bound (64 levels).
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.i, msg }
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.i) {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':', "expected ':'")?;
            self.ws();
            members.push((key, self.value(depth + 1)?));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so
                    // boundaries are guaranteed well-formed).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    /// `\uXXXX`, including surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require the paired low surrogate.
            if self.b.get(self.i) == Some(&b'\\') && self.b.get(self.i + 1) == Some(&b'u') {
                self.i += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex in \\u escape"))?;
            v = (v << 4) | d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        let negative = self.b.get(self.i) == Some(&b'-');
        if negative {
            self.i += 1;
        }
        // Integer part: a lone 0, or a nonzero digit run, accumulated
        // while it stays exact.
        let mut int = Some(0u64);
        match self.b.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                while let Some(&d @ b'0'..=b'9') = self.b.get(self.i) {
                    int = int
                        .and_then(|n| n.checked_mul(10))
                        .and_then(|n| n.checked_add(u64::from(d - b'0')));
                    self.i += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        // Fast path: an integer below 2^53 is exactly an `f64`, the one
        // `str::parse` would round to.
        let fraction_or_exponent = matches!(self.b.get(self.i), Some(b'.' | b'e' | b'E'));
        if let Some(n) = int.filter(|&n| n < 1 << 53 && !fraction_or_exponent) {
            let n = n as f64;
            return Ok(Value::Num(if negative { -n } else { n }));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("digits are ASCII");
        let n: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::cases_or_env(1024),
            ..ProptestConfig::default()
        })]

        /// Integers (fast path or not), `-0`, fractions and exponents
        /// parse to the bits `str::parse::<f64>` gives.
        #[test]
        fn numbers_parse_as_std_does(
            negative in any::<bool>(),
            int in prop_oneof![
                Just(0u64),
                0u64..10,
                any::<u64>(),
                (1u64 << 53) - 2..(1u64 << 53) + 2,
            ],
            wide in any::<bool>(),
            fraction in prop::option::of(0u32..1000),
            exponent in prop::option::of(-30i32..30),
        ) {
            let mut text = format!("{}{int}", if negative { "-" } else { "" });
            if wide && int != 0 {
                // Past u64: the digit run overflows the accumulator.
                text.push_str("123456789");
            }
            if let Some(f) = fraction {
                text.push_str(&format!(".{f}"));
            }
            if let Some(e) = exponent {
                text.push_str(&format!("e{e}"));
            }
            let want: f64 = text.parse().unwrap();
            let Ok(Value::Num(got)) = parse(&text) else {
                return Err(TestCaseError::fail(format!("{text} did not parse")));
            };
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", text);
        }
    }

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(escape("//VBD->NP"), "//VBD->NP");
    }

    #[test]
    fn quotes_backslashes_and_controls_escape() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn multibyte_utf8_is_untouched() {
        assert_eq!(escape("Bäume → Wälder"), "Bäume → Wälder");
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            r#"{"id": 7, "ok": true, "x": null, "rows": [[1, 2], [3, 4]],
               "q": "//NP", "pi": -3.5e1}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("q").unwrap().as_str(), Some("//NP"));
        assert_eq!(v.get("pi"), Some(&Value::Num(-35.0)));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].as_arr().unwrap()[0].as_u64(), Some(3));
        // Accessors are typed: wrong kind is None, not a panic.
        assert_eq!(v.get("q").unwrap().as_u64(), None);
        assert_eq!(v.get("pi").unwrap().as_u64(), None, "negative/fractional");
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_round_trip_through_the_parser() {
        for s in ["", "a\"b\\c\nd\te\u{1}", "Bäume → Wälder", "\u{10348}"] {
            let rendered = format!("{{\"k\": \"{}\"}}", escape(s));
            let v = parse(&rendered).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(s), "{rendered}");
        }
        // Surrogate-pair escapes decode to the astral scalar.
        assert_eq!(
            parse(r#""\ud800\udf48""#).unwrap(),
            Value::Str("\u{10348}".into())
        );
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1, 2] x",
            "01",
            "1.",
            "1e",
            "-",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\u{1}\"",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn hostile_nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        // The bound leaves ample room for real protocol messages.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
