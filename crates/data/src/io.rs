//! Dataset serialization and the workspace's generic JSON substrate.
//!
//! Datasets are expensive to profile (the paper's took days of machine time),
//! so being able to save and reload them is essential. JSON is used for
//! portability and easy inspection. Because the build environment has no
//! registry access, the JSON codec is hand-written instead of going through
//! `serde_json`; the format is plain JSON and stays loadable by any external
//! tool.
//!
//! Besides the [`Dataset`] codec, the module exposes the underlying parser
//! and a canonical writer as [`JsonValue`], which downstream crates use to
//! hand-roll their own codecs (most importantly the campaign ledger in
//! `alic-core::runner`, whose byte-identical shard/resume/merge guarantee
//! depends on the writer's deterministic, shortest-round-trip output).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::dataset::{DataPoint, Dataset};
use crate::{DataError, Result};
use alic_sim::space::Configuration;

/// Serializes a dataset as JSON to any writer.
///
/// # Errors
///
/// Returns an error when the underlying write fails or when a point holds a
/// non-finite number (JSON cannot represent NaN or infinities; erroring at
/// write time beats producing a file that cannot be loaded back).
pub fn write_dataset<W: Write>(dataset: &Dataset, mut writer: W) -> Result<()> {
    let mut out = String::new();
    out.push_str("{\"kernel\":");
    write_json_string(&mut out, dataset.kernel());
    out.push_str(",\"points\":[");
    for (i, point) in dataset.points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_point(&mut out, point)?;
    }
    out.push_str("]}");
    writer.write_all(out.as_bytes())?;
    Ok(())
}

fn finite(value: f64, field: &'static str) -> Result<f64> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(DataError::NonFinite { field })
    }
}

fn write_point(out: &mut String, point: &DataPoint) -> Result<()> {
    out.push_str("{\"configuration\":[");
    for (i, v) in point.configuration.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    let _ = write!(
        out,
        "],\"mean_runtime\":{:?},\"runtime_variance\":{:?},\"observations\":{},\
         \"compile_time\":{:?},\"true_mean\":{:?}}}",
        finite(point.mean_runtime, "mean_runtime")?,
        finite(point.runtime_variance, "runtime_variance")?,
        point.observations,
        finite(point.compile_time, "compile_time")?,
        finite(point.true_mean, "true_mean")?
    );
    Ok(())
}

fn write_json_string(out: &mut String, s: &str) {
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

/// Deserializes a dataset from JSON read from any reader.
///
/// # Errors
///
/// Returns an error when the stream cannot be read or parsed.
pub fn read_dataset<R: Read>(mut reader: R) -> Result<Dataset> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    parse_dataset(&text)
}

/// Saves a dataset to a JSON file at `path`.
///
/// The document is fully serialized (and validated) in memory before the
/// destination is touched, so a validation failure never truncates an
/// existing file.
///
/// # Errors
///
/// Returns an error when serialization fails or the file cannot be created
/// or written.
pub fn save_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    let mut buffer = Vec::new();
    write_dataset(dataset, &mut buffer)?;
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(&buffer)?;
    writer.flush()?;
    Ok(())
}

/// Loads a dataset from a JSON file at `path`.
///
/// # Errors
///
/// Returns an error when the file cannot be opened or parsed.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset> {
    let file = File::open(path)?;
    read_dataset(BufReader::new(file))
}

// --- Minimal recursive-descent JSON parser and canonical writer. ------------

/// Maximum container nesting the parser accepts. The dataset schema needs a
/// depth of three; the bound turns adversarially nested input into a parse
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

fn parse_dataset(text: &str) -> Result<Dataset> {
    dataset_from_value(&JsonValue::parse(text)?)
}

fn parse_error(message: impl Into<String>) -> DataError {
    DataError::Parse(message.into())
}

/// A parsed JSON document.
///
/// This is the workspace's registry-free substitute for `serde_json::Value`:
/// a plain tree with a strict parser ([`JsonValue::parse`]) and a canonical
/// writer ([`JsonValue::to_json_string`]). Object fields keep their
/// insertion order, numbers are `f64` (exact for integers up to 2^53), and
/// the writer emits the shortest float representation that round-trips
/// bit-exactly — the property the campaign ledger's byte-identical merge
/// guarantee rests on.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON number (always stored as `f64`).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<JsonValue>),
    /// A JSON object; fields keep their insertion order.
    Object(Vec<(String, JsonValue)>),
    /// A JSON boolean.
    Bool(bool),
    /// The JSON `null` literal.
    Null,
}

impl JsonValue {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] on malformed input, trailing characters,
    /// nesting beyond an internal depth bound, or numbers outside the finite
    /// `f64` range.
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parse_error("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns a parse error when `self` is not an object or the field is
    /// missing.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value)
                .ok_or_else(|| parse_error(format!("missing field '{name}'"))),
            _ => Err(parse_error(format!(
                "expected an object with field '{name}'"
            ))),
        }
    }

    /// The value as a number.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            _ => Err(parse_error("expected a number")),
        }
    }

    /// The value as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a non-negative integer
    /// representable exactly in `f64`.
    pub fn as_usize(&self) -> Result<usize> {
        usize::try_from(self.as_u64()?).map_err(|_| parse_error("integer out of range"))
    }

    /// Largest integer representable exactly in the `f64` numbers of a
    /// [`JsonValue`] (2^53). [`JsonValue::as_u64`] rejects anything larger;
    /// codecs built on this type must enforce the same bound when encoding
    /// so that every value they write can be read back.
    pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

    /// The value as a non-negative 64-bit integer.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a non-negative integer
    /// representable exactly in `f64` (everything above
    /// [`JsonValue::MAX_EXACT_INTEGER`] has lost integer precision, and
    /// `as u64` would silently saturate).
    pub fn as_u64(&self) -> Result<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > Self::MAX_EXACT_INTEGER as f64 {
            return Err(parse_error("expected a non-negative integer"));
        }
        Ok(n as u64)
    }

    /// The value as an array.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Ok(items),
            _ => Err(parse_error("expected an array")),
        }
    }

    /// The value as a string.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            JsonValue::String(s) => Ok(s),
            _ => Err(parse_error("expected a string")),
        }
    }

    /// Whether the value is the `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serializes the value in canonical form: no whitespace, object fields
    /// in insertion order, floats in Rust's shortest round-trip
    /// representation. Writing and re-parsing a value is the identity, and
    /// two equal values always serialize to identical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NonFinite`] when the tree contains a NaN or an
    /// infinite number (JSON cannot represent them).
    pub fn to_json_string(&self) -> Result<String> {
        let mut out = String::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    /// Appends the canonical serialization to `out` (the allocation-reusing
    /// core of [`JsonValue::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NonFinite`] when the tree contains a NaN or an
    /// infinite number.
    pub fn write_into(&self, out: &mut String) -> Result<()> {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if !n.is_finite() {
                    return Err(DataError::NonFinite {
                        field: "json number",
                    });
                }
                let _ = write!(out, "{n:?}");
            }
            JsonValue::String(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out)?;
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_error(format!(
                "expected '{}' at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(_) => self.parse_number(),
            None => Err(parse_error("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> Result<JsonValue>) -> Result<JsonValue> {
        if self.depth >= MAX_DEPTH {
            return Err(parse_error("maximum nesting depth exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(parse_error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => {
                    return Err(parse_error(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(parse_error(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(parse_error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.parse_hex4()?;
                            let code = if (0xD800..=0xDBFF).contains(&code) {
                                // UTF-16 surrogate pair (e.g. Python's
                                // `ensure_ascii` output): the low half must
                                // follow as another \u escape.
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err(parse_error("unpaired UTF-16 high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(parse_error("invalid UTF-16 low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| parse_error("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(parse_error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one UTF-8 encoded character. Only the bytes of
                    // this character are validated (the lead byte gives the
                    // length), keeping string parsing O(n) overall.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC2..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF4 => 4,
                        _ => return Err(parse_error("invalid UTF-8 in string")),
                    };
                    let slice = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| parse_error("truncated UTF-8 character"))?;
                    let c = std::str::from_utf8(slice)
                        .map_err(|_| parse_error("invalid UTF-8 in string"))?
                        .chars()
                        .next()
                        .expect("non-empty by construction");
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor on the `u`),
    /// leaving the cursor on the last digit.
    fn parse_hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| parse_error("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| parse_error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| parse_error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(parse_error(format!("expected a value at byte {start}")));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| parse_error("invalid number"))?;
        let number = text
            .parse::<f64>()
            .map_err(|_| parse_error(format!("invalid number '{text}'")))?;
        // str::parse saturates out-of-range magnitudes (1e999 -> inf); reject
        // them so loaded datasets keep the finiteness invariant the writer
        // enforces.
        if !number.is_finite() {
            return Err(parse_error(format!("number '{text}' is out of range")));
        }
        Ok(JsonValue::Number(number))
    }
}

fn dataset_from_value(value: &JsonValue) -> Result<Dataset> {
    let kernel = value.field("kernel")?.as_str()?.to_string();
    let points: Vec<DataPoint> = value
        .field("points")?
        .as_array()?
        .iter()
        .map(point_from_value)
        .collect::<Result<_>>()?;
    if points.is_empty() {
        return Err(parse_error("dataset has no points"));
    }
    // Dataset::from_points panics on ragged or empty configurations (its
    // callers construct them from one parameter space); turn hostile files
    // into errors instead.
    let dimension = points[0].configuration.values().len();
    if dimension == 0 {
        return Err(parse_error("configuration arrays must not be empty"));
    }
    if points
        .iter()
        .any(|p| p.configuration.values().len() != dimension)
    {
        return Err(parse_error(
            "configuration arrays must all have the same length",
        ));
    }
    Ok(Dataset::from_points(kernel, points))
}

fn point_from_value(value: &JsonValue) -> Result<DataPoint> {
    let configuration: Vec<u32> = value
        .field("configuration")?
        .as_array()?
        .iter()
        .map(|v| {
            let n = v.as_usize()?;
            u32::try_from(n).map_err(|_| parse_error("configuration value out of range"))
        })
        .collect::<Result<_>>()?;
    Ok(DataPoint {
        configuration: Configuration::new(configuration),
        mean_runtime: value.field("mean_runtime")?.as_f64()?,
        runtime_variance: value.field("runtime_variance")?.as_f64()?,
        observations: value.field("observations")?.as_usize()?,
        compile_time: value.field("compile_time")?.as_f64()?,
        true_mean: value.field("true_mean")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DataPoint, Dataset};
    use alic_sim::space::Configuration;

    fn tiny_dataset() -> Dataset {
        let points = vec![
            DataPoint {
                configuration: Configuration::new(vec![1, 2]),
                mean_runtime: 1.5,
                runtime_variance: 0.01,
                observations: 5,
                compile_time: 0.4,
                true_mean: 1.49,
            },
            DataPoint {
                configuration: Configuration::new(vec![3, 4]),
                mean_runtime: 2.5,
                runtime_variance: 0.02,
                observations: 5,
                compile_time: 0.5,
                true_mean: 2.52,
            },
        ];
        Dataset::from_points("toy", points)
    }

    #[test]
    fn json_roundtrip_preserves_the_dataset() {
        let dataset = tiny_dataset();
        let mut buffer = Vec::new();
        write_dataset(&dataset, &mut buffer).unwrap();
        let loaded = read_dataset(buffer.as_slice()).unwrap();
        assert_eq!(dataset, loaded);
    }

    #[test]
    fn roundtrip_is_exact_for_awkward_floats() {
        let points = vec![DataPoint {
            configuration: Configuration::new(vec![7]),
            mean_runtime: 0.1 + 0.2, // famously not 0.3
            runtime_variance: 1.0 / 3.0,
            observations: 3,
            compile_time: f64::MIN_POSITIVE,
            true_mean: 1e-300,
        }];
        let dataset = Dataset::from_points("kernel \"x\"\n", points);
        let mut buffer = Vec::new();
        write_dataset(&dataset, &mut buffer).unwrap();
        let loaded = read_dataset(buffer.as_slice()).unwrap();
        assert_eq!(dataset, loaded);
    }

    #[test]
    fn file_roundtrip_preserves_the_dataset() {
        let dataset = tiny_dataset();
        let dir = std::env::temp_dir().join("alic-data-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.json");
        save_dataset(&dataset, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(dataset, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = read_dataset("not json".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn missing_fields_are_parse_errors() {
        let err = read_dataset("{\"kernel\":\"toy\"}".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("points"));
        let err = read_dataset("{\"kernel\":\"toy\",\"points\":[]}".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("no points"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_dataset("/nonexistent/path/dataset.json").unwrap_err();
        assert!(err.to_string().contains("I/O"));
    }

    fn point_json(configuration: &str, mean_runtime: &str) -> String {
        format!(
            "{{\"configuration\":{configuration},\"mean_runtime\":{mean_runtime},\
             \"runtime_variance\":0.1,\"observations\":2,\"compile_time\":0.3,\"true_mean\":1.0}}"
        )
    }

    #[test]
    fn ragged_or_empty_configurations_are_parse_errors_not_panics() {
        let ragged = format!(
            "{{\"kernel\":\"k\",\"points\":[{},{}]}}",
            point_json("[1]", "1.0"),
            point_json("[1,2]", "1.0")
        );
        let err = read_dataset(ragged.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("same length"), "{err}");

        let empty = format!(
            "{{\"kernel\":\"k\",\"points\":[{}]}}",
            point_json("[]", "1.0")
        );
        let err = read_dataset(empty.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("must not be empty"), "{err}");
    }

    #[test]
    fn out_of_range_numbers_are_rejected_on_read() {
        let json = format!(
            "{{\"kernel\":\"k\",\"points\":[{}]}}",
            point_json("[1]", "1e999")
        );
        let err = read_dataset(json.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn deeply_nested_input_is_a_parse_error_not_a_stack_overflow() {
        let bomb = "[".repeat(100_000);
        let err = read_dataset(bomb.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("depth"));
    }

    #[test]
    fn non_finite_values_are_rejected_at_write_time() {
        let mut bad = tiny_dataset().points().to_vec();
        bad[0].runtime_variance = f64::NAN;
        let dataset = Dataset::from_points("toy", bad);
        let err = write_dataset(&dataset, Vec::new()).unwrap_err();
        assert!(
            err.to_string().contains("runtime_variance"),
            "error should name the field: {err}"
        );
    }

    #[test]
    fn json_value_roundtrip_is_the_identity() {
        let value = JsonValue::Object(vec![
            ("a".to_string(), JsonValue::Number(0.1 + 0.2)),
            ("b".to_string(), JsonValue::Number(-0.0)),
            ("c".to_string(), JsonValue::Number(1e-300)),
            ("n".to_string(), JsonValue::Null),
            ("t".to_string(), JsonValue::Bool(true)),
            (
                "s".to_string(),
                JsonValue::String("quote \" slash \\ tab\t".to_string()),
            ),
            (
                "v".to_string(),
                JsonValue::Array(vec![JsonValue::Number(5.0), JsonValue::Number(42.0)]),
            ),
        ]);
        let text = value.to_json_string().unwrap();
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed, value);
        // Canonical: serializing the reparsed tree gives identical bytes.
        assert_eq!(reparsed.to_json_string().unwrap(), text);
    }

    #[test]
    fn json_value_writer_rejects_non_finite_numbers() {
        let value = JsonValue::Array(vec![JsonValue::Number(f64::NAN)]);
        let err = value.to_json_string().unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn json_value_integer_accessors_validate() {
        let v = JsonValue::parse("[5, 5.5, -1, 1e300]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64().unwrap(), 5);
        assert_eq!(items[0].as_usize().unwrap(), 5);
        assert!(items[1].as_u64().is_err());
        assert!(items[2].as_u64().is_err());
        assert!(items[3].as_u64().is_err());
        assert!(JsonValue::Null.is_null());
        assert!(!items[0].is_null());
    }

    #[test]
    fn utf16_surrogate_pairs_in_strings_are_decoded() {
        // External tools (e.g. Python's json with ensure_ascii) escape
        // astral-plane characters as surrogate pairs.
        let json = "{\"kernel\":\"k\\ud83d\\ude00\",\"points\":[{\"configuration\":[1],\
                    \"mean_runtime\":1.0,\"runtime_variance\":0.1,\"observations\":2,\
                    \"compile_time\":0.3,\"true_mean\":1.0}]}";
        let dataset = read_dataset(json.as_bytes()).unwrap();
        assert_eq!(dataset.kernel(), "k\u{1F600}");
        let err =
            read_dataset("{\"kernel\":\"\\ud83d oops\",\"points\":[]}".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("surrogate"));
    }
}
