//! Miniature smoke test of the runner: every workload runs on the small
//! collections, passes its checks, and prints exactly the metrics
//! `BENCHMARK.json` names for its mode, each with its unit.

use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_nitrobench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "small"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn check(workload: &str) {
    let bench = benchmark();
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        let keys: Vec<&str> = result
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(printed, listed(&bench, key), "{workload} trace {trace}");
    }
}

#[test]
fn full_steady_runs_small() {
    check("full-steady");
}

#[test]
fn incremental_overload_runs_small() {
    check("incremental-overload");
}
