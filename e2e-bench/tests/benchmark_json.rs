//! `BENCHMARK.json` at the repository root must list exactly the metrics
//! this benchmark prints, with the same units, under valid names.

use alic_data::io::JsonValue;
use alic_e2e_bench::metrics::{valid_name, END_TO_END, LAYER_METRICS};

fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    let JsonValue::Array(items) = doc.field(key).expect("key present") else {
        panic!("{key} is not an array");
    };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| m.field(k).and_then(|v| v.as_str()).expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn expected(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(listed(&doc, "end_to_end"), expected(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), expected(LAYER_METRICS));
    for (name, _) in END_TO_END.iter().chain(LAYER_METRICS) {
        assert!(valid_name(name), "{name}");
    }
}
