//! Runs the benchmark in `--smoke` mode (level 4, two rounds per segment)
//! and holds its output to `BENCHMARK.json`: same workload names, same
//! metric names and units, every operation correct, and each layer's
//! counts non-zero where the layer is on the path and exactly zero
//! where the workload bypasses it.

use std::process::Command;

use hyperperf::json::{parse, Value};
use hyperperf::workloads::{DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One smoke run; returns the parsed result line.
fn smoke(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperperf"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .output()
        .expect("spawn hyperperf");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let line = stdout.lines().last().expect("a result line");
    let result = parse(line).expect("result line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn emitted(result: &Value) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn the_code_and_benchmark_json_name_the_same_things() {
    let bench = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_and_units(bench.get("end_to_end").expect("end_to_end")),
        own(&END_TO_END)
    );
    assert_eq!(
        names_and_units(bench.get("per_layer").expect("per_layer")),
        own(&PER_LAYER)
    );
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    assert_eq!(
        bench.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS as f64)
    );
    assert_eq!(
        bench.get("paths").map(Value::render),
        Some("[\"hyperperf\"]".to_string())
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_none_is_zero() {
    let bench = benchmark_json();
    let expected = names_and_units(bench.get("end_to_end").expect("end_to_end"));
    for w in &WORKLOADS {
        let result = smoke(w.name, 1, false);
        assert_eq!(emitted(&result), expected, "{}", w.name);
        for (name, _) in &expected {
            assert!(metric(&result, name) > 0.0, "{} {name} is zero", w.name);
        }
    }
}

#[test]
fn layers_count_where_they_are_on_the_path_and_read_zero_where_bypassed() {
    let bench = benchmark_json();
    let expected = names_and_units(bench.get("per_layer").expect("per_layer"));
    let of_layer = |prefix: &str| -> Vec<&str> {
        expected
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with(prefix))
            .collect()
    };
    for w in &WORKLOADS {
        let r = smoke(w.name, 1, true);
        assert_eq!(emitted(&r), expected, "{}", w.name);
        assert!(metric(&r, "hypermodel.gen_s") > 0.0);
        assert!(metric(&r, "layer.bench_op_us") > 0.0);
        assert!(metric(&r, "obs.trace_overhead") > 0.0);
        let on_wire = w.name == "tcp2.warm";
        for name in ["server.", "exec.", "shard."]
            .iter()
            .flat_map(|p| of_layer(p))
        {
            // Off by construction in this stack: parks need an idle
            // loop, two-phase commit needs a commit log.
            if matches!(name, "exec.loop_parks_per_op" | "shard.2pc_per_commit") {
                continue;
            }
            let v = metric(&r, name);
            assert_eq!(v > 0.0, on_wire, "{} {name} = {v}", w.name);
        }
        let on_storage = w.name.starts_with("disk.") || w.name == "rel.warm";
        for name in [
            "storage.buffer.hit_ratio",
            "storage.wal.appends_per_commit",
            "storage.wal.fsyncs_per_commit",
            "storage.wal_bytes_per_user_byte",
        ] {
            let v = metric(&r, name);
            assert_eq!(v > 0.0, on_storage, "{} {name} = {v}", w.name);
        }
        match w.name {
            "disk.cold" => {
                assert!(metric(&r, "storage.buffer.misses_per_op") > 0.0);
                assert!(metric(&r, "storage.page_reads_per_op") > 0.0);
                assert!(metric(&r, "storage.buffer.hit_ratio") < 1.0);
                assert!(metric(&r, "layer.storage_io_us") > 0.0);
            }
            "disk.warm" | "rel.warm" => {
                assert_eq!(metric(&r, "storage.buffer.misses_per_op"), 0.0);
                assert_eq!(metric(&r, "storage.buffer.hit_ratio"), 1.0);
            }
            "disk.edit" => {
                assert_eq!(metric(&r, "storage.wal.fsyncs_per_commit"), 1.0);
                assert!(metric(&r, "storage.page_writes_per_commit") > 0.0);
            }
            _ => {}
        }
    }
}

#[test]
fn a_second_seed_passes_the_oracle_gate() {
    for w in &WORKLOADS {
        smoke(w.name, 7777, false);
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperperf"))
        .args(["--workload", "no.such", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("spawn hyperperf");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
