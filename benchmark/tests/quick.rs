//! Drives the built binary in `--quick` mode (three small blocks per
//! workload) and holds what it prints against `BENCHMARK.json`.

use odyssey_datagen::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "explore_cold",
    "serve_converged",
    "scan_large",
    "ingest_mix",
];

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(crate_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    let text = |m: &JsonValue, key: &str| {
        m.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{list} entry without {key}"))
            .to_string()
    };
    spec.get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("no {list} list"))
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// Runs one quick run and returns the parsed last line of its output.
fn quick(workload: &str, seed: u64, trace: u8) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_odyssey-benchmark"))
        .args(["--quick", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", "20"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

/// The result object has exactly the contract's keys, reports no failed
/// operation, and its metrics are exactly `expected`, units included.
fn assert_matches_declaration(result: &JsonValue, expected: &[(String, String)], what: &str) {
    let JsonValue::Object(fields) = result else {
        panic!("{what}: result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(JsonValue::as_u64) >= Some(1),
        "{what}"
    );
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("{what}: metrics is not an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{what}: {name} has no finite value"
            );
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        printed, expected,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn quick_runs_print_exactly_what_benchmark_json_declares() {
    let spec = benchmark_json();
    let declared_workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");

    for workload in WORKLOADS {
        let untraced = quick(workload, 7, 0);
        assert_matches_declaration(&untraced, &end_to_end, workload);
        for (name, _) in &end_to_end {
            assert!(metric(&untraced, name) > 0.0, "{workload}: {name} reads 0");
        }

        let traced = quick(workload, 7, 1);
        assert_matches_declaration(&traced, &per_layer, workload);
        assert!(
            metric(&traced, "bench.op_attributed_share") >= 0.9,
            "{workload}"
        );
        assert!(metric(&traced, "bench.trace_overhead") > 0.0, "{workload}");
        let trace_file: PathBuf = crate_dir().join(format!("results/trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
        let requests = spans
            .lines()
            .map(|l| JsonValue::parse(l).expect("span line parses"))
            .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some("request"))
            .count();
        assert!(requests > 0, "{workload}: no request span recorded");
    }
}

#[test]
fn the_same_seed_is_the_same_work() {
    // Single-threaded workloads: the store's size after the last block is a
    // pure function of the inputs.
    for workload in ["explore_cold", "ingest_mix"] {
        let (a, b) = (quick(workload, 11, 0), quick(workload, 11, 0));
        assert_eq!(
            metric(&a, "space_amp").to_bits(),
            metric(&b, "space_amp").to_bits(),
            "{workload}"
        );
        assert_eq!(a.get("attempted"), b.get("attempted"), "{workload}");
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_odyssey-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
