//! Hand-rolled JSON codecs for campaign records and reports.
//!
//! The workspace has no serialization framework, so every type that crosses
//! the campaign ledger's process boundary is encoded explicitly through
//! [`JsonValue`] (the canonical writer/parser of `alic-data::io`). Two
//! properties matter here:
//!
//! * **exactness** — floats are written in Rust's shortest round-trip
//!   representation, so decode(encode(x)) is bit-identical to `x`; a report
//!   merged from on-disk unit records equals the in-memory report byte for
//!   byte;
//! * **canonical output** — field order is fixed and no whitespace is
//!   emitted, so equal values serialize to identical bytes (the
//!   shard/resume/merge equality checks compare raw strings).
//!
//! Integer counters are stored as JSON numbers and are exact up to 2^53 —
//! far beyond any realistic campaign (2^53 profiler runs at a millisecond
//! each is ~285,000 machine-years). Both directions enforce the bound:
//! encoding a larger value (a saturated cost-ledger counter, a seed above
//! 2^53) is an error rather than a silent rounding that decoding would then
//! reject.

use alic_data::io::JsonValue;
use alic_stats::summary::OnlineStats;

use crate::curve::{AveragedCurve, CurvePoint, LearningCurve};
use crate::experiment::{ComparisonOutcome, PlanResult};
use crate::learner::{ExampleRecord, LearnerRun};
use crate::ledger::CostLedger;
use crate::plan::SamplingPlan;
use crate::runner::{CampaignEntry, CampaignReport, UnitFailure, UnitRecord};
use crate::{CoreError, Result};

/// Schema tag of one on-disk unit record.
pub const UNIT_SCHEMA: &str = "alic-campaign-unit/v1";
/// Schema tag of a merged campaign report.
pub const REPORT_SCHEMA: &str = "alic-campaign-report/v1";

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: f64) -> JsonValue {
    JsonValue::Number(n)
}

/// Encodes an integer counter, rejecting values that `f64` cannot hold
/// exactly (encoded output must always decode back to the same value; the
/// bound is the decoder's own [`JsonValue::MAX_EXACT_INTEGER`]).
pub(crate) fn int(n: u64) -> Result<JsonValue> {
    if n > JsonValue::MAX_EXACT_INTEGER {
        return Err(bad(format!(
            "integer {n} exceeds 2^53 and cannot be stored exactly as a JSON number"
        )));
    }
    Ok(JsonValue::Number(n as f64))
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn f64_array(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| num(v)).collect())
}

fn parse_f64_array(value: &JsonValue) -> Result<Vec<f64>> {
    value
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map_err(CoreError::from))
        .collect()
}

fn bad(message: impl Into<String>) -> CoreError {
    CoreError::Campaign(message.into())
}

/// Looks up an *optional* object field ([`JsonValue::field`] errors on
/// missing keys). Used for fields that are omitted from canonical output
/// when empty, so that fault-free reports stay byte-identical to the ones
/// written before the field existed.
fn optional_field<'a>(value: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

// --- Sampling plans. --------------------------------------------------------

/// Encodes a sampling plan.
///
/// # Errors
///
/// Returns an error for observation counts above 2^53.
pub fn plan_to_json(plan: &SamplingPlan) -> Result<JsonValue> {
    Ok(match plan {
        SamplingPlan::Fixed { observations } => obj(vec![
            ("kind", string("fixed")),
            ("observations", int(*observations as u64)?),
        ]),
        SamplingPlan::Sequential { max_observations } => obj(vec![
            ("kind", string("sequential")),
            ("max_observations", int(*max_observations as u64)?),
        ]),
    })
}

/// Decodes a sampling plan.
///
/// # Errors
///
/// Returns an error for unknown kinds or zero observation counts.
pub fn plan_from_json(value: &JsonValue) -> Result<SamplingPlan> {
    match value.field("kind")?.as_str()? {
        "fixed" => {
            let observations = value.field("observations")?.as_usize()?;
            if observations == 0 {
                return Err(bad("fixed plan with zero observations"));
            }
            Ok(SamplingPlan::Fixed { observations })
        }
        "sequential" => {
            let max_observations = value.field("max_observations")?.as_usize()?;
            if max_observations == 0 {
                return Err(bad("sequential plan with a zero observation cap"));
            }
            Ok(SamplingPlan::Sequential { max_observations })
        }
        other => Err(bad(format!("unknown sampling-plan kind '{other}'"))),
    }
}

// --- Online statistics and cost ledgers. ------------------------------------

fn stats_to_json(stats: &OnlineStats) -> Result<JsonValue> {
    if stats.count() == 0 {
        // min/max are ±infinity on an empty accumulator; JSON cannot hold
        // them, and count alone reconstructs the state.
        return Ok(obj(vec![("count", int(0)?)]));
    }
    Ok(obj(vec![
        ("count", int(stats.count() as u64)?),
        ("mean", num(stats.mean())),
        ("m2", num(stats.m2())),
        ("min", num(stats.min())),
        ("max", num(stats.max())),
    ]))
}

fn stats_from_json(value: &JsonValue) -> Result<OnlineStats> {
    let count = value.field("count")?.as_usize()?;
    if count == 0 {
        return Ok(OnlineStats::new());
    }
    Ok(OnlineStats::from_parts(
        count,
        value.field("mean")?.as_f64()?,
        value.field("m2")?.as_f64()?,
        value.field("min")?.as_f64()?,
        value.field("max")?.as_f64()?,
    ))
}

/// Encodes a cost ledger.
///
/// # Errors
///
/// Returns an error when a (saturating) counter exceeds 2^53 and could not
/// be decoded back exactly.
pub fn cost_ledger_to_json(ledger: &CostLedger) -> Result<JsonValue> {
    let mut fields = vec![
        ("run_seconds", num(ledger.run_seconds())),
        ("compile_seconds", num(ledger.compile_seconds())),
        ("runs", int(ledger.runs())?),
        ("compilations", int(ledger.compilations())?),
    ];
    // Emitted only when measurements were actually quarantined, so ledgers
    // from clean runs keep their pre-robustness byte encoding.
    if ledger.quarantined() > 0 {
        fields.push(("quarantined", int(ledger.quarantined())?));
    }
    Ok(obj(fields))
}

/// Decodes a cost ledger.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn cost_ledger_from_json(value: &JsonValue) -> Result<CostLedger> {
    let quarantined = match optional_field(value, "quarantined") {
        Some(v) => v.as_u64()?,
        None => 0,
    };
    Ok(CostLedger::from_parts(
        value.field("run_seconds")?.as_f64()?,
        value.field("compile_seconds")?.as_f64()?,
        value.field("runs")?.as_u64()?,
        value.field("compilations")?.as_u64()?,
    )
    .with_quarantined(quarantined))
}

// --- Learning curves and runs. ----------------------------------------------

fn curve_point_to_json(point: &CurvePoint) -> Result<JsonValue> {
    Ok(obj(vec![
        ("iterations", int(point.iterations as u64)?),
        ("training_examples", int(point.training_examples as u64)?),
        ("observations", int(point.observations)?),
        ("cost_seconds", num(point.cost_seconds)),
        ("rmse", num(point.rmse)),
    ]))
}

fn curve_point_from_json(value: &JsonValue) -> Result<CurvePoint> {
    Ok(CurvePoint {
        iterations: value.field("iterations")?.as_usize()?,
        training_examples: value.field("training_examples")?.as_usize()?,
        observations: value.field("observations")?.as_u64()?,
        cost_seconds: value.field("cost_seconds")?.as_f64()?,
        rmse: value.field("rmse")?.as_f64()?,
    })
}

fn curve_to_json(curve: &LearningCurve) -> Result<JsonValue> {
    Ok(JsonValue::Array(
        curve
            .points()
            .iter()
            .map(curve_point_to_json)
            .collect::<Result<_>>()?,
    ))
}

fn curve_from_json(value: &JsonValue) -> Result<LearningCurve> {
    let points: Vec<CurvePoint> = value
        .as_array()?
        .iter()
        .map(curve_point_from_json)
        .collect::<Result<_>>()?;
    // `LearningCurve::push` panics on decreasing costs; reject hostile input
    // (including NaN costs, which are incomparable) as an error instead.
    if points.windows(2).any(|w| {
        !matches!(
            w[0].cost_seconds.partial_cmp(&w[1].cost_seconds),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }) {
        return Err(bad("learning-curve costs must be non-decreasing"));
    }
    Ok(points.into_iter().collect())
}

/// Encodes one learning run.
///
/// # Errors
///
/// Returns an error when a counter exceeds 2^53.
pub fn run_to_json(run: &LearnerRun) -> Result<JsonValue> {
    Ok(obj(vec![
        ("plan", plan_to_json(&run.plan)?),
        ("iterations", int(run.iterations as u64)?),
        ("curve", curve_to_json(&run.curve)?),
        ("ledger", cost_ledger_to_json(&run.ledger)?),
        (
            "visited",
            JsonValue::Array(
                run.visited
                    .iter()
                    .map(|record| {
                        Ok(obj(vec![
                            ("dataset_index", int(record.dataset_index as u64)?),
                            ("runtimes", stats_to_json(&record.runtimes)?),
                        ]))
                    })
                    .collect::<Result<_>>()?,
            ),
        ),
    ]))
}

/// Decodes one learning run.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn run_from_json(value: &JsonValue) -> Result<LearnerRun> {
    let visited: Vec<ExampleRecord> = value
        .field("visited")?
        .as_array()?
        .iter()
        .map(|record| {
            Ok(ExampleRecord {
                dataset_index: record.field("dataset_index")?.as_usize()?,
                runtimes: stats_from_json(record.field("runtimes")?)?,
            })
        })
        .collect::<Result<_>>()?;
    Ok(LearnerRun {
        plan: plan_from_json(value.field("plan")?)?,
        curve: curve_from_json(value.field("curve")?)?,
        ledger: cost_ledger_from_json(value.field("ledger")?)?,
        visited,
        iterations: value.field("iterations")?.as_usize()?,
    })
}

// --- Unit records. ----------------------------------------------------------

/// Encodes one unit record (the on-disk checkpoint format).
///
/// # Errors
///
/// Returns an error when a counter exceeds 2^53.
pub fn unit_record_to_json(record: &UnitRecord) -> Result<JsonValue> {
    Ok(obj(vec![
        ("schema", string(UNIT_SCHEMA)),
        ("index", int(record.index as u64)?),
        ("kernel", string(&record.kernel)),
        ("model", string(&record.model)),
        ("plan", plan_to_json(&record.plan)?),
        ("repetition", int(record.repetition)?),
        ("run", run_to_json(&record.run)?),
    ]))
}

/// Serializes one unit record to its canonical JSON string.
///
/// # Errors
///
/// Returns an error when the record contains non-finite numbers.
pub fn unit_record_to_json_string(record: &UnitRecord) -> Result<String> {
    unit_record_to_json(record)?
        .to_json_string()
        .map_err(CoreError::from)
}

/// Decodes one unit record.
///
/// # Errors
///
/// Returns an error on malformed input or a wrong schema tag.
pub fn unit_record_from_json(value: &JsonValue) -> Result<UnitRecord> {
    let schema = value.field("schema")?.as_str()?;
    if schema != UNIT_SCHEMA {
        return Err(bad(format!(
            "unexpected unit-record schema '{schema}' (expected '{UNIT_SCHEMA}')"
        )));
    }
    Ok(UnitRecord {
        index: value.field("index")?.as_usize()?,
        kernel: value.field("kernel")?.as_str()?.to_string(),
        model: value.field("model")?.as_str()?.to_string(),
        plan: plan_from_json(value.field("plan")?)?,
        repetition: value.field("repetition")?.as_u64()?,
        run: run_from_json(value.field("run")?)?,
    })
}

/// Parses one unit record from its canonical JSON string.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn unit_record_from_json_str(text: &str) -> Result<UnitRecord> {
    unit_record_from_json(&JsonValue::parse(text)?)
}

// --- Comparison outcomes and campaign reports. ------------------------------

fn averaged_to_json(averaged: &AveragedCurve) -> JsonValue {
    obj(vec![
        ("costs", f64_array(&averaged.costs)),
        ("mean_rmse", f64_array(&averaged.mean_rmse)),
    ])
}

fn json_array<T>(items: &[T], encode: impl Fn(&T) -> Result<JsonValue>) -> Result<JsonValue> {
    Ok(JsonValue::Array(
        items.iter().map(encode).collect::<Result<_>>()?,
    ))
}

fn averaged_from_json(value: &JsonValue) -> Result<AveragedCurve> {
    Ok(AveragedCurve {
        costs: parse_f64_array(value.field("costs")?)?,
        mean_rmse: parse_f64_array(value.field("mean_rmse")?)?,
    })
}

fn plan_result_to_json(result: &PlanResult) -> Result<JsonValue> {
    Ok(obj(vec![
        ("plan", plan_to_json(&result.plan)?),
        ("runs", json_array(&result.runs, run_to_json)?),
        ("averaged", averaged_to_json(&result.averaged)),
    ]))
}

fn plan_result_from_json(value: &JsonValue) -> Result<PlanResult> {
    Ok(PlanResult {
        plan: plan_from_json(value.field("plan")?)?,
        runs: value
            .field("runs")?
            .as_array()?
            .iter()
            .map(run_from_json)
            .collect::<Result<_>>()?,
        averaged: averaged_from_json(value.field("averaged")?)?,
    })
}

/// Encodes a plan-comparison outcome.
///
/// # Errors
///
/// Returns an error when a counter exceeds 2^53.
pub fn outcome_to_json(outcome: &ComparisonOutcome) -> Result<JsonValue> {
    Ok(obj(vec![
        ("kernel", string(&outcome.kernel)),
        ("plans", json_array(&outcome.plans, plan_result_to_json)?),
        ("lowest_common_rmse", num(outcome.lowest_common_rmse)),
        (
            "cost_to_common_rmse",
            JsonValue::Array(
                outcome
                    .cost_to_common_rmse
                    .iter()
                    .map(|c| c.map_or(JsonValue::Null, num))
                    .collect(),
            ),
        ),
    ]))
}

/// Serializes a plan-comparison outcome to its canonical JSON string (the
/// golden-snapshot format of `tests/golden_reports.rs`).
///
/// # Errors
///
/// Returns an error when the outcome contains non-finite numbers.
pub fn outcome_to_json_string(outcome: &ComparisonOutcome) -> Result<String> {
    outcome_to_json(outcome)?
        .to_json_string()
        .map_err(CoreError::from)
}

/// Decodes a plan-comparison outcome.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn outcome_from_json(value: &JsonValue) -> Result<ComparisonOutcome> {
    Ok(ComparisonOutcome {
        kernel: value.field("kernel")?.as_str()?.to_string(),
        plans: value
            .field("plans")?
            .as_array()?
            .iter()
            .map(plan_result_from_json)
            .collect::<Result<_>>()?,
        lowest_common_rmse: value.field("lowest_common_rmse")?.as_f64()?,
        cost_to_common_rmse: value
            .field("cost_to_common_rmse")?
            .as_array()?
            .iter()
            .map(|c| {
                if c.is_null() {
                    Ok(None)
                } else {
                    c.as_f64().map(Some).map_err(CoreError::from)
                }
            })
            .collect::<Result<_>>()?,
    })
}

/// Parses a plan-comparison outcome from its canonical JSON string.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn outcome_from_json_str(text: &str) -> Result<ComparisonOutcome> {
    outcome_from_json(&JsonValue::parse(text)?)
}

fn unit_failure_to_json(failure: &UnitFailure) -> Result<JsonValue> {
    Ok(obj(vec![
        ("index", int(failure.index as u64)?),
        ("kernel", string(&failure.kernel)),
        ("model", string(&failure.model)),
        ("error", string(&failure.error)),
        ("attempts", int(failure.attempts as u64)?),
    ]))
}

fn unit_failure_from_json(value: &JsonValue) -> Result<UnitFailure> {
    Ok(UnitFailure {
        index: value.field("index")?.as_usize()?,
        kernel: value.field("kernel")?.as_str()?.to_string(),
        model: value.field("model")?.as_str()?.to_string(),
        error: value.field("error")?.as_str()?.to_string(),
        attempts: value.field("attempts")?.as_usize()?,
    })
}

/// Encodes a merged campaign report. The `failures` field is emitted only
/// when non-empty: a fault-free report serializes to exactly the bytes it
/// did before resilient execution existed (golden snapshots stay valid).
///
/// # Errors
///
/// Returns an error when a counter or the campaign seed exceeds 2^53.
pub fn report_to_json(report: &CampaignReport) -> Result<JsonValue> {
    let mut fields = vec![
        ("schema", string(REPORT_SCHEMA)),
        (
            "kernels",
            JsonValue::Array(report.kernels.iter().map(|k| string(k)).collect()),
        ),
        (
            "models",
            JsonValue::Array(report.models.iter().map(|m| string(m)).collect()),
        ),
        ("plans", json_array(&report.plans, plan_to_json)?),
        ("repetitions", int(report.repetitions as u64)?),
        ("seed", int(report.seed)?),
        (
            "entries",
            JsonValue::Array(
                report
                    .entries
                    .iter()
                    .map(|entry| {
                        Ok(obj(vec![
                            ("model", string(&entry.model)),
                            ("kernel", string(&entry.kernel)),
                            ("outcome", outcome_to_json(&entry.outcome)?),
                        ]))
                    })
                    .collect::<Result<_>>()?,
            ),
        ),
    ];
    if !report.failures.is_empty() {
        fields.push((
            "failures",
            json_array(&report.failures, unit_failure_to_json)?,
        ));
    }
    Ok(obj(fields))
}

/// Decodes a merged campaign report.
///
/// # Errors
///
/// Returns an error on malformed input or a wrong schema tag.
pub fn report_from_json(value: &JsonValue) -> Result<CampaignReport> {
    let schema = value.field("schema")?.as_str()?;
    if schema != REPORT_SCHEMA {
        return Err(bad(format!(
            "unexpected report schema '{schema}' (expected '{REPORT_SCHEMA}')"
        )));
    }
    let names = |field: &str| -> Result<Vec<String>> {
        value
            .field(field)?
            .as_array()?
            .iter()
            .map(|v| v.as_str().map(str::to_string).map_err(CoreError::from))
            .collect()
    };
    Ok(CampaignReport {
        kernels: names("kernels")?,
        models: names("models")?,
        plans: value
            .field("plans")?
            .as_array()?
            .iter()
            .map(plan_from_json)
            .collect::<Result<_>>()?,
        repetitions: value.field("repetitions")?.as_usize()?,
        seed: value.field("seed")?.as_u64()?,
        entries: value
            .field("entries")?
            .as_array()?
            .iter()
            .map(|entry| {
                Ok(CampaignEntry {
                    model: entry.field("model")?.as_str()?.to_string(),
                    kernel: entry.field("kernel")?.as_str()?.to_string(),
                    outcome: outcome_from_json(entry.field("outcome")?)?,
                })
            })
            .collect::<Result<_>>()?,
        failures: match optional_field(value, "failures") {
            Some(failures) => failures
                .as_array()?
                .iter()
                .map(unit_failure_from_json)
                .collect::<Result<_>>()?,
            None => Vec::new(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::compare_plans;
    use crate::runner::run_campaign;
    use crate::runner::tests::{tiny_base, tiny_campaign, toy_kernel};
    use alic_sim::profiler::Measurement;

    #[test]
    fn plan_codec_round_trips_and_validates() {
        for plan in [
            SamplingPlan::fixed35(),
            SamplingPlan::one_observation(),
            SamplingPlan::sequential(7),
        ] {
            let json = plan_to_json(&plan).unwrap().to_json_string().unwrap();
            let back = plan_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
        let zero = JsonValue::parse("{\"kind\":\"fixed\",\"observations\":0}").unwrap();
        assert!(plan_from_json(&zero).is_err());
        let unknown = JsonValue::parse("{\"kind\":\"bogus\"}").unwrap();
        assert!(plan_from_json(&unknown).is_err());
    }

    #[test]
    fn cost_ledger_serde_round_trip_is_exact() {
        let mut ledger = CostLedger::new();
        ledger.record(&Measurement {
            runtime: 0.1 + 0.2,
            compile_time: 1.0 / 3.0,
            compiled: true,
        });
        ledger.record(&Measurement {
            runtime: 1e-300,
            compile_time: 0.0,
            compiled: false,
        });
        let json = cost_ledger_to_json(&ledger)
            .unwrap()
            .to_json_string()
            .unwrap();
        let back = cost_ledger_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, ledger);
        // Canonical: re-encoding gives identical bytes.
        assert_eq!(
            cost_ledger_to_json(&back)
                .unwrap()
                .to_json_string()
                .unwrap(),
            json
        );
    }

    #[test]
    fn counters_beyond_exact_f64_range_error_at_encode_time() {
        // A saturated ledger cannot be stored exactly as JSON numbers; the
        // encoder must refuse rather than write a file decoding will reject.
        let saturated = CostLedger::from_parts(1.0, 1.0, u64::MAX, 3);
        let err = cost_ledger_to_json(&saturated).unwrap_err();
        assert!(err.to_string().contains("2^53"), "{err}");
        // Same contract for the campaign seed in a report.
        let mut report = run_campaign(&tiny_campaign()).unwrap();
        report.seed = u64::MAX;
        assert!(report_to_json(&report).is_err());
    }

    #[test]
    fn empty_and_filled_online_stats_round_trip() {
        let empty = OnlineStats::new();
        let back = stats_from_json(&stats_to_json(&empty).unwrap()).unwrap();
        assert_eq!(back, empty);

        let filled: OnlineStats = [0.3, 1.7, -2.5, 8.1].iter().copied().collect();
        let json = stats_to_json(&filled).unwrap().to_json_string().unwrap();
        let back = stats_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, filled);
    }

    #[test]
    fn decreasing_curve_costs_are_an_error_not_a_panic() {
        let hostile = JsonValue::parse(
            "[{\"iterations\":0,\"training_examples\":1,\"observations\":1,\
             \"cost_seconds\":2.0,\"rmse\":0.5},\
             {\"iterations\":1,\"training_examples\":2,\"observations\":2,\
             \"cost_seconds\":1.0,\"rmse\":0.4}]",
        )
        .unwrap();
        assert!(curve_from_json(&hostile).is_err());
    }

    #[test]
    fn learner_run_round_trips_bit_exactly() {
        let kernel = toy_kernel("alpha", 3);
        let outcome = compare_plans(&kernel, &tiny_base()).unwrap();
        for plan_result in &outcome.plans {
            for run in &plan_result.runs {
                let json = run_to_json(run).unwrap().to_json_string().unwrap();
                let back = run_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
                assert_eq!(&back, run);
            }
        }
    }

    #[test]
    fn outcome_and_report_round_trip_bit_exactly() {
        let report = run_campaign(&tiny_campaign()).unwrap();
        for entry in &report.entries {
            let json = outcome_to_json_string(&entry.outcome).unwrap();
            assert_eq!(outcome_from_json_str(&json).unwrap(), entry.outcome);
        }
        let json = report.to_json_string().unwrap();
        let back = CampaignReport::from_json_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json_string().unwrap(), json);
    }

    #[test]
    fn wrong_schema_tags_are_rejected() {
        let value = JsonValue::parse("{\"schema\":\"bogus/v9\"}").unwrap();
        assert!(unit_record_from_json(&value).is_err());
        assert!(report_from_json(&value).is_err());
    }
}
