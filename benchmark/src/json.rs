//! Hand-rolled JSON: the offline build has no serde, and the benchmark
//! needs little — emit a result line, read one back from a child process,
//! and read `BENCHMARK.json` in the consistency test.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for other values or a missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn members(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Nesting the parser accepts; the documents read here nest four deep.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of document".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|n| n.is_finite())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

/// `text` as a JSON string literal, quotes included.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line the contract asks for: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, each metric a `{value, unit}`
/// object. Values print with Rust's shortest round-trip formatting, i.e.
/// every digit measured; a value that could not be measured (NaN: every
/// operation behind it failed) prints as `null`, so the line stays JSON.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(m.name),
            quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// A result line read back: `(correct, attempted, failed, metrics)`.
pub type ParsedResult = (bool, u64, u64, Vec<(String, f64, String)>);

/// Validate and unpack a result line: exactly the four contract keys,
/// `attempted ≥ 1`, `failed ≤ attempted`, every metric a finite number
/// (or `null`, read back as NaN) with a unit.
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let doc = parse(line)?;
    let members = doc.members().ok_or("result is not an object")?;
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let correct = doc
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("`correct` is not a bool")?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or(format!("`{key}` is not a whole number"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    if attempted == 0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let mut metrics = Vec::new();
    for (name, m) in doc
        .get("metrics")
        .and_then(Value::members)
        .ok_or("`metrics` is not an object")?
    {
        let value = match m.get("value") {
            Some(Value::Null) => f64::NAN,
            v => v
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no numeric value"))?,
        };
        let unit = m
            .get("unit")
            .and_then(Value::as_str)
            .ok_or(format!("{name}: no unit"))?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Reported {
                name: "read_p50_ms",
                value: 1.2034,
                unit: "ms",
            },
            Reported {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            },
        ];
        let line = result_line(1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"read_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let (correct, attempted, failed, parsed) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(parsed[0], ("read_p50_ms".into(), 1.2034, "ms".into()));
        // a failed op flips `correct`; a value nothing measured is `null`
        let unmeasured = [Reported {
            value: f64::NAN,
            ..metrics[0].clone()
        }];
        let line = result_line(10, 10, &unmeasured);
        assert!(line.starts_with("{\"correct\": false") && line.contains("\"value\": null"));
        assert!(parse_result_line(&line).unwrap().3[0].1.is_nan());
    }

    #[test]
    fn validation_rejects_broken_results() {
        assert!(parse_result_line("{}").is_err());
        assert!(parse_result_line(
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(parse_result_line(
            "{\"correct\": true, \"attempted\": 2, \"failed\": 3, \"metrics\": {}}"
        )
        .is_err());
        let good = result_line(
            5,
            0,
            &[Reported {
                name: "ratio",
                value: 8.25,
                unit: "x",
            }],
        );
        assert!(parse_result_line(&good).is_ok());
        assert!(
            parse_result_line(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        assert!(parse_result_line(&good.replace("8.25", "\"8.25\"")).is_err());
    }

    #[test]
    fn parser_covers_the_grammar() {
        let doc = parse(r#" {"a": [1, -2.5e1, true, null], "b": {"c": "x\"\nA"}} "#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1],
            Value::Num(-25.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"\nA")
        );
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"abc", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
