//! A dependency-free RON-like text format for setup specs.
//!
//! The grammar is a strict subset of RON (Rusty Object Notation), small
//! enough to hand-roll and fully typed at the [`Value`] layer:
//!
//! ```text
//! value  := struct | list | string | number | bool | ident
//! struct := [ident] '(' (key ':' value (',' value-sep)*)? ')'
//! list   := '[' (value (',' value)*)? ']'
//! ident  := [A-Za-z_][A-Za-z0-9_]*          // enum-like unit: cartesian
//! ```
//!
//! `//` line comments are allowed anywhere, trailing commas are allowed,
//! and every parse failure carries a line:column position — specs are
//! committed files edited by hand, so errors must point at the typo, not
//! panic. Serialization ([`Value::to_ron`]) round-trips bit-exactly
//! through [`parse`] (floats are emitted with enough digits to
//! reconstruct the exact f64).

use std::fmt;

/// A parsed RON-lite value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A bare identifier — unit enum variants like `cartesian`, `outflow`.
    Unit(String),
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Value>),
    /// `(k: v, …)` or `tag(k: v, …)`; field order is preserved.
    Struct {
        tag: Option<String>,
        fields: Vec<(String, Value)>,
    },
}

impl Value {
    /// Shorthand for an untagged struct.
    pub fn rec(fields: Vec<(String, Value)>) -> Value {
        Value::Struct { tag: None, fields }
    }

    /// Shorthand for a tagged struct.
    pub fn tagged(tag: &str, fields: Vec<(String, Value)>) -> Value {
        Value::Struct {
            tag: Some(tag.to_string()),
            fields,
        }
    }

    /// A human name for the value's shape (error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit(_) => "identifier",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Struct { .. } => "struct",
        }
    }

    /// Serialize back to the RON-lite text form. `indent` is the current
    /// nesting depth; the output reparses to an equal `Value`.
    pub fn to_ron(&self, indent: usize) -> String {
        let pad = "    ".repeat(indent + 1);
        let close = "    ".repeat(indent);
        match self {
            Value::Unit(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Num(x) => fmt_f64(*x),
            Value::Str(s) => escape_str(s),
            Value::List(items) => {
                if items.is_empty() {
                    "[]".into()
                } else if items.iter().all(|v| matches!(v, Value::Num(_))) {
                    let inner: Vec<String> = items.iter().map(|v| v.to_ron(0)).collect();
                    format!("[{}]", inner.join(", "))
                } else {
                    let inner: Vec<String> = items
                        .iter()
                        .map(|v| format!("{pad}{},", v.to_ron(indent + 1)))
                        .collect();
                    format!("[\n{}\n{close}]", inner.join("\n"))
                }
            }
            Value::Struct { tag, fields } => {
                let tag = tag.clone().unwrap_or_default();
                if fields.is_empty() {
                    return format!("{tag}()");
                }
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{pad}{k}: {},", v.to_ron(indent + 1)))
                    .collect();
                format!("{tag}(\n{}\n{close})", inner.join("\n"))
            }
        }
    }
}

/// Emit an f64 so that parsing reproduces the exact bits: try the shortest
/// display form first, fall back to maximum precision.
/// Quote a string using only the escapes the lexer understands (`\"`,
/// `\\`, `\n`, `\t`); all other characters — including multi-byte UTF-8 —
/// pass through verbatim.
fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.parse::<f64>() == Ok(x) && (x != 0.0 || x.is_sign_positive()) {
        // Integral floats display as "1" — keep them unambiguous as
        // numbers (the grammar has no integer/float distinction, so a
        // bare "1" is fine to reparse).
        s
    } else {
        format!("{x:e}")
    }
}

/// Where in the source text something happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parse failure, with position and a human message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub pos: Pos,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single RON-lite value; trailing garbage is an error.
pub fn parse(source: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(source);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after the top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Parser<'a> {
        Parser {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn here(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.here(),
            message: msg.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(got) if got == c => {
                self.bump();
                Ok(())
            }
            Some(got) => {
                Err(self.err(format!("expected {:?}, found {:?}", c as char, got as char)))
            }
            None => Err(self.err(format!("expected {:?}, found end of input", c as char))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {}
            _ => return Err(self.err("expected an identifier")),
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("ident bytes are ASCII")
            .to_string())
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("expected a value, found end of input")),
            Some(b'(') => self.struct_body(None),
            Some(b'[') => self.list(),
            Some(b'"') => self.string(),
            Some(c) if c == b'-' || c == b'+' || c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident()?;
                self.skip_ws();
                match (name.as_str(), self.peek()) {
                    (_, Some(b'(')) => self.struct_body(Some(name)),
                    ("true", _) => Ok(Value::Bool(true)),
                    ("false", _) => Ok(Value::Bool(false)),
                    (_, _) => Ok(Value::Unit(name)),
                }
            }
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn struct_body(&mut self, tag: Option<String>) -> Result<Value, ParseError> {
        self.expect(b'(')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b')') {
                self.bump();
                break;
            }
            let key_pos = self.here();
            let key = self.ident().map_err(|_| ParseError {
                pos: key_pos,
                message: "expected a field name".into(),
            })?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(ParseError {
                    pos: key_pos,
                    message: format!("duplicate field `{key}`"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b')') => {}
                _ => return Err(self.err("expected `,` or `)` after a field")),
            }
        }
        Ok(Value::Struct { tag, fields })
    }

    fn list(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.bump();
                break;
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {}
                _ => return Err(self.err("expected `,` or `]` after a list item")),
            }
        }
        Ok(Value::List(items))
    }

    fn string(&mut self) -> Result<Value, ParseError> {
        self.expect(b'"')?;
        // Accumulate raw bytes and validate as UTF-8 once at the closing
        // quote, so multi-byte characters pass through untouched.
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    other => {
                        return Err(
                            self.err(format!("unsupported escape {:?}", other.map(|c| c as char)))
                        )
                    }
                },
                Some(c) => out.push(c),
            }
        }
        String::from_utf8(out)
            .map(Value::Str)
            .map_err(|_| self.err("string is not valid UTF-8"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let start_pos = self.here();
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            self.bump();
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E') {
                self.bump();
                // Exponent sign.
                if matches!(c, b'e' | b'E') && matches!(self.peek(), Some(b'-') | Some(b'+')) {
                    self.bump();
                }
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("number bytes");
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
            pos: start_pos,
            message: format!("malformed number {text:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e-3").unwrap(), Value::Num(-1.5e-3));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("cartesian").unwrap(), Value::Unit("cartesian".into()));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Value::Str("hi\n".into()));
    }

    #[test]
    fn parses_structs_and_lists() {
        let v = parse("Setup( name: \"x\", dims: [1, 2, 3], geo: cartesian, )").unwrap();
        let Value::Struct { tag, fields } = v else {
            panic!("expected struct")
        };
        assert_eq!(tag.as_deref(), Some("Setup"));
        assert_eq!(fields.len(), 3);
        assert_eq!(
            fields[1].1,
            Value::List(vec![Value::Num(1.0), Value::Num(2.0), Value::Num(3.0)])
        );
    }

    #[test]
    fn comments_and_trailing_commas() {
        let v = parse("(\n // a comment\n a: 1, // trailing\n b: [1,], \n)").unwrap();
        let Value::Struct { fields, .. } = v else {
            panic!()
        };
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse("(a: 1\n  b: 2)").unwrap_err();
        assert_eq!(e.pos.line, 2, "{e}");
        let e = parse("(a: @)").unwrap_err();
        assert!(e.message.contains("unexpected character"), "{e}");
        let e = parse("(a: 1, a: 2)").unwrap_err();
        assert!(e.message.contains("duplicate field"), "{e}");
        let e = parse("1 2").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn round_trips_exact_floats() {
        for x in [
            0.1,
            1.0 / 3.0,
            2.2e9,
            1e-30,
            f64::MIN_POSITIVE,
            13.714285714285715,
        ] {
            let s = Value::Num(x).to_ron(0);
            assert_eq!(parse(&s).unwrap(), Value::Num(x), "{s}");
        }
    }

    #[test]
    fn serializer_round_trips_structures() {
        let v = Value::tagged(
            "Setup",
            vec![
                ("name".into(), Value::Str("sedov".into())),
                (
                    "mesh".into(),
                    Value::rec(vec![
                        ("ndim".into(), Value::Num(3.0)),
                        ("geometry".into(), Value::Unit("cartesian".into())),
                    ]),
                ),
                (
                    "initial".into(),
                    Value::List(vec![Value::tagged(
                        "uniform",
                        vec![("dens".into(), Value::Num(1.0))],
                    )]),
                ),
            ],
        );
        let text = v.to_ron(0);
        assert_eq!(parse(&text).unwrap(), v, "\n{text}");
    }
}
