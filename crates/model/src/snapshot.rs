//! Bit-exact JSON snapshot codecs for trained surrogates.
//!
//! A snapshot is the *full* trained state of a model — training rows,
//! weights, factorizations, arena columns, raw RNG words — rendered as
//! canonical [`JsonValue`] so it can ride the same ledger writers as every
//! other durable artifact in the workspace. The contract is stronger than
//! "round-trips approximately": a model restored by [`restore_snapshot`]
//! must produce **bit-identical** predictions, acquisition scores, and
//! (for the stochastic dynamic tree) RNG draws from the next operation
//! onward. The warm-start store (`alic_core::warmstore`) leans on this to
//! seed new tuning sessions from previously trained surrogates without
//! perturbing any determinism suite.
//!
//! # Why floats are hex strings
//!
//! The canonical JSON writer renders numbers as shortest-round-trip
//! decimals but rejects non-finite values, and a decimal round-trip through
//! a hand-rolled parser is the classic source of last-ULP drift. Snapshot
//! codecs therefore never store an `f64` as a JSON number: every float is
//! `f64::to_bits` rendered as 16 lowercase hex digits, and bulk arrays pack
//! one value per 16-character chunk of a single string. `u32` columns pack
//! as 8-digit chunks, and `u64` scalars (seeds) as 16-digit strings — the
//! same convention session checkpoints already use for seeds.
//!
//! Counts and small integers (observation counts, dimensions, array
//! lengths) stay plain JSON numbers; they are exact below 2⁵³ by
//! construction.

use std::fmt::Write as _;

use alic_data::io::JsonValue;

use crate::baseline::ConstantMean;
use crate::cart::RegressionTree;
use crate::dynatree::DynaTree;
use crate::gp::GaussianProcess;
use crate::knn::KnnRegressor;
use crate::sgp::SparseGaussianProcess;
use crate::traits::ActiveSurrogate;
use crate::{ModelError, Result};

/// A serialized trained model (canonical JSON with hex-bit-encoded floats).
pub type Snapshot = JsonValue;

/// Schema tag every model snapshot carries.
pub const SNAPSHOT_SCHEMA: &str = "alic-model-snapshot/v1";

/// Rebuilds a boxed model from a snapshot produced by
/// [`crate::SurrogateModel::snapshot`], dispatching on the embedded family
/// tag. The restored model continues bit-identically to the one that was
/// serialized.
///
/// # Errors
///
/// Returns [`ModelError::Snapshot`] for an unknown schema or family, or for
/// structurally damaged state.
pub fn restore_snapshot(doc: &JsonValue) -> Result<Box<dyn ActiveSurrogate + Send>> {
    let schema = get_str(doc, "schema")?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(err(format!(
            "schema {schema:?} (expected {SNAPSHOT_SCHEMA:?})"
        )));
    }
    match get_str(doc, "family")? {
        "dynatree" => Ok(Box::new(DynaTree::from_snapshot(doc)?)),
        "cart" => Ok(Box::new(RegressionTree::from_snapshot(doc)?)),
        "gp" => Ok(Box::new(GaussianProcess::from_snapshot(doc)?)),
        "sgp" => Ok(Box::new(SparseGaussianProcess::from_snapshot(doc)?)),
        "knn" => Ok(Box::new(KnnRegressor::from_snapshot(doc)?)),
        "mean" => Ok(Box::new(ConstantMean::from_snapshot(doc)?)),
        other => Err(err(format!("unknown model family {other:?}"))),
    }
}

pub(crate) fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Snapshot(msg.into())
}

/// The common leading fields of every family's snapshot object.
pub(crate) fn header(family: &str) -> Vec<(String, JsonValue)> {
    vec![
        (
            "schema".to_string(),
            JsonValue::String(SNAPSHOT_SCHEMA.to_string()),
        ),
        ("family".to_string(), JsonValue::String(family.to_string())),
    ]
}

pub(crate) fn num(n: usize) -> JsonValue {
    JsonValue::Number(n as f64)
}

pub(crate) fn hex_u64(x: u64) -> JsonValue {
    JsonValue::String(format!("{x:016x}"))
}

pub(crate) fn hex_f64(x: f64) -> JsonValue {
    hex_u64(x.to_bits())
}

pub(crate) fn hex_f64s<I: IntoIterator<Item = f64>>(values: I) -> JsonValue {
    let mut out = String::new();
    for v in values {
        write!(out, "{:016x}", v.to_bits()).expect("writing to a String cannot fail");
    }
    JsonValue::String(out)
}

pub(crate) fn hex_u32s<I: IntoIterator<Item = u32>>(values: I) -> JsonValue {
    let mut out = String::new();
    for v in values {
        write!(out, "{v:08x}").expect("writing to a String cannot fail");
    }
    JsonValue::String(out)
}

/// `None` → JSON null, `Some(x)` → hex-bit string.
pub(crate) fn opt_hex_f64(x: Option<f64>) -> JsonValue {
    match x {
        None => JsonValue::Null,
        Some(v) => hex_f64(v),
    }
}

pub(crate) fn get<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a JsonValue> {
    doc.field(name)
        .map_err(|e| err(format!("field {name}: {e}")))
}

pub(crate) fn get_str<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a str> {
    get(doc, name)?
        .as_str()
        .map_err(|e| err(format!("field {name}: {e}")))
}

pub(crate) fn get_usize(doc: &JsonValue, name: &str) -> Result<usize> {
    get(doc, name)?
        .as_usize()
        .map_err(|e| err(format!("field {name}: {e}")))
}

pub(crate) fn get_array<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a [JsonValue]> {
    get(doc, name)?
        .as_array()
        .map_err(|e| err(format!("field {name}: {e}")))
}

fn parse_hex_u64(name: &str, chunk: &str) -> Result<u64> {
    u64::from_str_radix(chunk, 16)
        .map_err(|_| err(format!("field {name}: bad hex chunk {chunk:?}")))
}

pub(crate) fn get_hex_u64(doc: &JsonValue, name: &str) -> Result<u64> {
    let text = get_str(doc, name)?;
    if text.len() != 16 {
        return Err(err(format!("field {name}: expected 16 hex digits")));
    }
    parse_hex_u64(name, text)
}

pub(crate) fn get_hex_f64(doc: &JsonValue, name: &str) -> Result<f64> {
    Ok(f64::from_bits(get_hex_u64(doc, name)?))
}

pub(crate) fn get_opt_hex_f64(doc: &JsonValue, name: &str) -> Result<Option<f64>> {
    let value = get(doc, name)?;
    if value.is_null() {
        return Ok(None);
    }
    Ok(Some(f64::from_bits(get_hex_u64(doc, name)?)))
}

pub(crate) fn decode_hex_f64s(name: &str, text: &str) -> Result<Vec<f64>> {
    if !text.len().is_multiple_of(16) || !text.is_ascii() {
        return Err(err(format!("field {name}: malformed f64 hex column")));
    }
    let mut out = Vec::with_capacity(text.len() / 16);
    for chunk in text.as_bytes().chunks_exact(16) {
        let chunk = std::str::from_utf8(chunk).expect("ascii checked above");
        out.push(f64::from_bits(parse_hex_u64(name, chunk)?));
    }
    Ok(out)
}

pub(crate) fn get_hex_f64s(doc: &JsonValue, name: &str) -> Result<Vec<f64>> {
    decode_hex_f64s(name, get_str(doc, name)?)
}

pub(crate) fn decode_hex_u32s(name: &str, text: &str) -> Result<Vec<u32>> {
    if !text.len().is_multiple_of(8) || !text.is_ascii() {
        return Err(err(format!("field {name}: malformed u32 hex column")));
    }
    let mut out = Vec::with_capacity(text.len() / 8);
    for chunk in text.as_bytes().chunks_exact(8) {
        let chunk = std::str::from_utf8(chunk).expect("ascii checked above");
        out.push(
            u32::from_str_radix(chunk, 16)
                .map_err(|_| err(format!("field {name}: bad hex chunk {chunk:?}")))?,
        );
    }
    Ok(out)
}

pub(crate) fn get_hex_u32s(doc: &JsonValue, name: &str) -> Result<Vec<u32>> {
    decode_hex_u32s(name, get_str(doc, name)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_f64_columns_round_trip_every_bit_pattern() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            std::f64::consts::PI,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let encoded = hex_f64s(values.iter().copied());
        let text = encoded.as_str().unwrap();
        let decoded = decode_hex_f64s("t", text).unwrap();
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn hex_u32_columns_round_trip() {
        let values = [0u32, 1, u32::MAX, u32::MAX - 1, 0xDEAD_BEEF];
        let encoded = hex_u32s(values.iter().copied());
        let decoded = decode_hex_u32s("t", encoded.as_str().unwrap()).unwrap();
        assert_eq!(decoded, values);
    }

    #[test]
    fn malformed_columns_are_structured_errors() {
        assert!(decode_hex_f64s("t", "0123").is_err());
        assert!(decode_hex_f64s("t", "zzzzzzzzzzzzzzzz").is_err());
        assert!(decode_hex_u32s("t", "123").is_err());
        let doc = JsonValue::Object(vec![("seed".to_string(), hex_u64(7))]);
        assert_eq!(get_hex_u64(&doc, "seed").unwrap(), 7);
        assert!(get_hex_u64(&doc, "missing").is_err());
    }

    #[test]
    fn every_family_round_trips_bit_identically() {
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![i as f64 / 23.0, (i % 5) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() + 0.1 * x[1]).collect();
        let views = crate::row_views(&xs);
        for name in crate::SurrogateSpec::names() {
            let mut original = crate::SurrogateSpec::from_name(name).unwrap().build(7);
            original.fit(&views, &ys).unwrap();
            let text = original.snapshot().unwrap().to_json_string().unwrap();
            let mut restored = restore_snapshot(&JsonValue::parse(&text).unwrap()).unwrap();
            // Identical predictions now, and still identical after both
            // sides take the same additional observations.
            for step in 0..6 {
                let x = [0.1 + 0.15 * step as f64, (step % 3) as f64];
                assert_eq!(
                    original.predict(&x).unwrap(),
                    restored.predict(&x).unwrap(),
                    "family {name}, step {step}"
                );
                let y = (3.0 * x[0]).sin() + 0.1 * x[1] + 0.01 * step as f64;
                original.update(&x, y).unwrap();
                restored.update(&x, y).unwrap();
            }
        }
    }

    #[test]
    fn restore_rejects_unknown_schema_and_family() {
        let bad_schema = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::String("bogus/v9".into())),
            ("family".to_string(), JsonValue::String("gp".into())),
        ]);
        assert!(restore_snapshot(&bad_schema).is_err());
        let mut fields = header("martian");
        fields.push(("count".to_string(), num(0)));
        assert!(restore_snapshot(&JsonValue::Object(fields)).is_err());
    }
}
