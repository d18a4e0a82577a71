//! Smoke runs of every workload: the result line's schema matches
//! `BENCHMARK.json`, every request succeeds, and a held-out seed gives
//! figures of the same order as the main one.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 90_001;

fn benchmark() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Value, key: &str) -> Vec<String> {
    let Some(Value::Array(list)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    let mut out: Vec<String> = list
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    out.sort();
    out
}

/// Runs one smoke workload; returns the result line and the record.
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{seed}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string(), "--smoke"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let line: Value = serde_json::from_str(last).expect("result line is JSON");
    let record_path = out.join(format!("{workload}-seed{seed}-trace{trace}.json"));
    let record: Value =
        serde_json::from_str(&std::fs::read_to_string(record_path).expect("record written"))
            .expect("record parses");
    (line, record)
}

fn metric_names(line: &Value) -> Vec<String> {
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("result line has no metrics object");
    };
    for (name, m) in metrics {
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name} value"
        );
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} unit"
        );
    }
    metrics.keys().cloned().collect()
}

fn check_clean(workload: &str, line: &Value, record: &Value) {
    let keys: Vec<&String> = match line {
        Value::Object(map) => map.keys().collect(),
        _ => panic!("result line is an object"),
    };
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload} result keys"
    );
    assert_eq!(
        line.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload} correct"
    );
    assert_eq!(
        line.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload} failed"
    );
    assert!(
        line.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{workload} attempted"
    );
    let requests = record.get("requests").expect("request counts");
    assert_eq!(
        requests.get("error_rate").and_then(Value::as_f64),
        Some(0.0),
        "{workload} error_rate"
    );
    let Some(Value::Array(rows)) = record.get("modeled_vs_paper") else {
        panic!("{workload}: no modeled-vs-paper rows");
    };
    assert_eq!(rows.len(), 6, "one row per zoo topology");
    for key in ["nproc", "commit", "profile", "rayon_threads"] {
        assert!(
            record.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }
}

fn smoke(workload: &str) {
    let bench = benchmark();
    let (line, record) = run(workload, SEED, 0);
    check_clean(workload, &line, &record);
    assert_eq!(
        metric_names(&line),
        names(&bench, "end_to_end"),
        "{workload} end-to-end metrics"
    );

    let (held, held_record) = run(workload, HELD_OUT_SEED, 0);
    check_clean(workload, &held, &held_record);
    let fps = |l: &Value| {
        l.get("metrics")
            .and_then(|m| m.get("frames_per_s"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("frames_per_s")
    };
    let ratio = fps(&line) / fps(&held);
    assert!(
        (0.25..4.0).contains(&ratio),
        "{workload}: held-out seed throughput ratio {ratio}"
    );

    let (traced, traced_record) = run(workload, SEED, 1);
    check_clean(workload, &traced, &traced_record);
    assert_eq!(
        metric_names(&traced),
        names(&bench, "per_layer"),
        "{workload} per-layer metrics"
    );
}

#[test]
fn online_repeat() {
    smoke("online-repeat");
}

#[test]
fn online_cold() {
    smoke("online-cold");
}

#[test]
fn batch_offline() {
    smoke("batch-offline");
}

#[test]
fn fleet_hot() {
    smoke("fleet-hot");
}
