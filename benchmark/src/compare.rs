//! `compare <a> <b>`: two result sets of the same benchmark side by side.
//! For every workload and end-to-end metric it prints each set's median and
//! quartiles over its runs, each set's own spread, and how much worse `b`'s
//! median is than `a`'s, and holds spread and worsening against the
//! metric's bound from `BENCHMARK.json`. Run on two sets of the same code it
//! is the A/A check; run on a parent's and a change's sets it is the
//! regression check.

use crate::stats::{iqr_share, quartiles, Better};
use odyssey_datagen::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// A bounded metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The run-to-run spread of `setup_s` is reported but not held against its
/// bound; only its median is (the contract treats it the same way).
const SPREAD_UNGATED: &str = "setup_s";

/// `workload -> metric -> one value per run`.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bounded>, String> {
    let doc = JsonValue::parse(benchmark_json).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end metric without {key}"));
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("bad 'better' value {other:?}")),
            };
            Ok(Bounded {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                better,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Reads a result set: one JSON object per line, as `run --out` appends
/// them. Traced runs are skipped — end-to-end numbers never come from them.
pub fn parse_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let doc = JsonValue::parse(line).map_err(|e| bad(&e.to_string()))?;
        if doc.get("trace").and_then(JsonValue::as_u64) == Some(1) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let Some(JsonValue::Object(metrics)) = doc.get("result").and_then(|r| r.get("metrics"))
        else {
            return Err(bad("no result.metrics object"));
        };
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad("metric without a numeric value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// One workload x metric row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub bound: f64,
    pub a: [f64; 3],
    pub b: [f64; 3],
    pub spread_a: f64,
    pub spread_b: f64,
    /// Share of `a`'s median by which `b`'s median is worse (negative:
    /// better).
    pub worsening: f64,
    pub within_bound: bool,
}

pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[Bounded]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for bounded in bounds {
            let (Some(values_a), Some(values_b)) =
                (metrics_a.get(&bounded.name), metrics_b.get(&bounded.name))
            else {
                continue;
            };
            let (qa, qb) = (quartiles(values_a), quartiles(values_b));
            let (spread_a, spread_b) = (iqr_share(values_a), iqr_share(values_b));
            let worsening = bounded.better.worsening(qa[1], qb[1]);
            let spread_ok = bounded.name == SPREAD_UNGATED
                || (spread_a <= bounded.bound && spread_b <= bounded.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: bounded.name.clone(),
                bound: bounded.bound,
                a: qa,
                b: qb,
                spread_a,
                spread_b,
                worsening,
                within_bound: spread_ok && worsening <= bounded.bound,
            });
        }
    }
    rows
}

/// Prints the table and returns whether every row is within its bound.
pub fn run(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = parse_bounds(&read(benchmark_json)?)?;
    let rows = compare(
        &parse_results(&read(a)?)?,
        &parse_results(&read(b)?)?,
        &bounds,
    );
    if rows.is_empty() {
        return Err("the two result sets share no workload and metric".into());
    }
    println!(
        "{:<16} {:<15} {:>36} {:>36} {:>8} {:>8} {:>8} {:>6}",
        "workload",
        "metric",
        "a: q1 / median / q3",
        "b: q1 / median / q3",
        "iqr a",
        "iqr b",
        "b worse",
        "bound"
    );
    for r in &rows {
        let q = |q: [f64; 3]| format!("{:.5} / {:.5} / {:.5}", q[0], q[1], q[2]);
        println!(
            "{:<16} {:<15} {:>36} {:>36} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}% {}",
            r.workload,
            r.metric,
            q(r.a),
            q(r.b),
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.worsening * 100.0,
            r.bound * 100.0,
            if r.within_bound { "" } else { "OUT OF BOUND" }
        );
    }
    let out = rows.iter().filter(|r| !r.within_bound).count();
    println!("{} of {} rows out of bound", out, rows.len());
    Ok(out == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    fn line(workload: &str, latency: f64, ops: f64, setup: f64, trace: u8) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"result\": \
             {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\
             \"latency_ms\": {{\"value\": {latency}, \"unit\": \"ms\"}}, \
             \"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \
             \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}}}}}}}\n"
        )
    }

    fn set(latencies: &[f64], ops: f64) -> ResultSet {
        let text: String = latencies
            .iter()
            .map(|&l| line("w", l, ops, 1.0, 0))
            .collect();
        parse_results(&text).expect("well-formed lines")
    }

    #[test]
    fn equal_sets_are_within_bound() {
        let bounds = parse_bounds(SPEC).expect("spec parses");
        assert_eq!(bounds.len(), 3);
        let a = set(&[1.0, 1.01, 1.02, 0.99], 100.0);
        let rows = compare(&a, &a, &bounds);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.within_bound && r.worsening == 0.0));
    }

    #[test]
    fn a_regression_beyond_the_bound_is_flagged_in_the_right_direction() {
        let bounds = parse_bounds(SPEC).expect("spec parses");
        let a = set(&[1.0, 1.0, 1.0], 100.0);
        let slower = set(&[1.2, 1.2, 1.2], 85.0);
        let rows = compare(&a, &slower, &bounds);
        let by = |m: &str| rows.iter().find(|r| r.metric == m).expect("row");
        assert!(!by("latency_ms").within_bound);
        assert!(!by("ops_per_s").within_bound);
        assert!((by("ops_per_s").worsening - 0.15).abs() < 1e-9);
        // The other way round is an improvement, not a violation.
        assert!(compare(&slower, &a, &bounds).iter().all(|r| r.within_bound));
    }

    #[test]
    fn a_noisy_set_is_flagged_but_setup_spread_is_not() {
        let bounds = parse_bounds(SPEC).expect("spec parses");
        let noisy = set(&[1.0, 1.3, 0.8, 1.1, 1.4], 100.0);
        let rows = compare(&noisy, &noisy, &bounds);
        assert!(
            !rows
                .iter()
                .find(|r| r.metric == "latency_ms")
                .expect("row")
                .within_bound
        );
        let text = line("w", 1.0, 100.0, 1.0, 0) + &line("w", 1.0, 100.0, 3.0, 0);
        let spread = parse_results(&text).expect("parses");
        let rows = compare(&spread, &spread, &bounds);
        assert!(
            rows.iter()
                .find(|r| r.metric == "setup_s")
                .expect("row")
                .within_bound
        );
    }

    #[test]
    fn traced_lines_are_skipped_and_garbage_is_rejected() {
        let text = line("w", 1.0, 100.0, 1.0, 0) + &line("w", 9.0, 1.0, 1.0, 1);
        let set = parse_results(&text).expect("parses");
        assert_eq!(set["w"]["latency_ms"], vec![1.0]);
        assert!(parse_results("{\"workload\": 3}").is_err());
        assert!(parse_results("not json").is_err());
        assert!(parse_bounds("{}").is_err());
    }
}
