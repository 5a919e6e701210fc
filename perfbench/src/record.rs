//! The one record format the benchmark writes and reads: a flat JSON
//! object of named numbers, strings and booleans. Every document is
//! checked with [`agentsim_metrics::json::validate`] on the way out and
//! on the way in.

use agentsim_metrics::json;

/// One field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// An ordered flat record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Record {
        Record::default()
    }

    /// Appends a number field.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which JSON cannot carry.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Record {
        assert!(value.is_finite(), "{key} = {value} is not a JSON number");
        self.fields.push((key.to_string(), Value::Num(value)));
        self
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Record {
        self.fields
            .push((key.to_string(), Value::Str(value.to_string())));
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Record {
        self.fields.push((key.to_string(), Value::Bool(value)));
        self
    }

    /// The number stored under `key`.
    pub fn get_num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Num(v) => Ok(*v),
            other => Err(format!("{key} is {other:?}, not a number")),
        }
    }

    /// The string stored under `key`.
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => Err(format!("{key} is {other:?}, not a string")),
        }
    }

    /// The boolean stored under `key`.
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{key} is {other:?}, not a boolean")),
        }
    }

    fn get(&self, key: &str) -> Result<&Value, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("record has no field {key}"))
    }

    /// Serializes to one line of validated JSON.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json::escape(k), value_json(v)))
            .collect();
        let doc = format!("{{{}}}", body.join(", "));
        json::validate(&doc).expect("record serializes to valid JSON");
        doc
    }

    /// Parses a document written by [`Record::to_json`]. The text must
    /// pass [`json::validate`] first; nested values are rejected.
    pub fn parse(text: &str) -> Result<Record, String> {
        json::validate(text)?;
        let mut p = Reader {
            bytes: text.trim().as_bytes(),
            pos: 0,
        };
        let mut record = Record::new();
        p.eat(b'{')?;
        if p.peek() == Some(b'}') {
            return Ok(record);
        }
        loop {
            let key = p.string()?;
            p.eat(b':')?;
            let value = match p.peek() {
                Some(b'"') => Value::Str(p.string()?),
                Some(b't') => p.word("true", Value::Bool(true))?,
                Some(b'f') => p.word("false", Value::Bool(false))?,
                _ => Value::Num(p.number()?),
            };
            record.fields.push((key, value));
            match p.next()? {
                b',' => continue,
                b'}' => return Ok(record),
                c => return Err(format!("unexpected '{}' in record", c as char)),
            }
        }
    }
}

fn value_json(v: &Value) -> String {
    match v {
        Value::Num(x) => format!("{x:?}"),
        Value::Str(s) => format!("\"{}\"", json::escape(s)),
        Value::Bool(b) => b.to_string(),
    }
}

/// A reader over text that already passed [`json::validate`], so only
/// the flat-record subset needs handling here.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, String> {
        let c = self.peek().ok_or("unexpected end of record")?;
        self.pos += 1;
        Ok(c)
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.next()? {
            c if c == want => Ok(()),
            c => Err(format!(
                "expected '{}', found '{}'",
                want as char, c as char
            )),
        }
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        self.pos += word.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.bytes[self.pos];
                    self.pos += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'"' | b'\\' | b'/' => e as char,
                        _ => return Err(format!("unsupported escape \\{}", e as char)),
                    });
                }
                _ => {
                    // Copy the run up to the next quote or escape whole,
                    // so multi-byte UTF-8 stays intact.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && !matches!(self.bytes[end], b'"' | b'\\') {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// The result line the benchmark prints last: `correct`, `attempted`,
/// `failed`, and each metric as `{"value": v, "unit": u}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                json::escape(name),
                json::escape(unit)
            )
        })
        .collect();
    let doc = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    json::validate(&doc).expect("result line is valid JSON");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut r = Record::new();
        r.num("a", 1.5e-3)
            .num("b", 12345678901.0)
            .str("s", "x \"y\" é")
            .bool("ok", true)
            .bool("no", false);
        let back = Record::parse(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_invalid_json() {
        assert!(Record::parse("{\"a\": }").is_err());
        assert!(Record::parse("{\"a\": [1]}").is_err());
    }
}
