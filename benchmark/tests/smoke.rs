//! Runs every workload in `--smoke` mode (tiny worlds, one lap), both
//! passes, and holds what it prints against `../BENCHMARK.json`: same names,
//! same units, within the schema's size limits, and `correct: true`. Smoke
//! numbers are never reported; this only proves every code path runs.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["fleet_steady_seq", "fleet_steady_par", "small_worlds", "live_day"];

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("metric field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_mode_matches_the_declared_benchmark() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(workloads.len() <= 8 && end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert!(end_to_end.contains_key("setup_s"));
    assert!(end_to_end.keys().chain(per_layer.keys()).all(|n| legal_name(n)));

    // One after the other: live_day is a wall-clock workload on two cores.
    for workload in WORKLOADS {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let output = Command::new(env!("CARGO_BIN_EXE_rgb-benchmark"))
                .args(["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let context = format!(
                "{workload} --trace {trace}\nstdout: {stdout}\nstderr: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(output.status.success(), "non-zero exit: {context}");
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("result line is not JSON ({e}): {context}"));
            let Value::Obj(members) = &result else { panic!("result is not an object: {context}") };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{context}");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{context}");
            assert!(result.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{context}");
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics: {context}")
            };
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(legal_name(name), "illegal metric name {name}");
                    assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                    (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_string())
                })
                .collect();
            assert_eq!(&emitted, expected, "names and units differ from BENCHMARK.json: {context}");
        }
    }
}
