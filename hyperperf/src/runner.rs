//! `hyperperf run`: every workload, each run in its own child process,
//! collected into one ledger file that `hyperperf compare` reads.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::{obj, parse, Value};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

/// Arguments of `hyperperf run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of the first run; run `k` uses `seed + k`.
    pub seed: u64,
    /// Runs per workload.
    pub runs: usize,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Also make a traced run per untraced one.
    pub trace: bool,
    /// Level 4, one round pair per segment.
    pub smoke: bool,
    /// Where to write the ledger.
    pub out: Option<PathBuf>,
}

/// One child run: the parsed result line.
fn child(name: &str, seed: u64, args: &RunArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's detail goes straight to our stderr; its stdout ends
    // with the result line.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: exit {:?}, no result line", output.status.code()))?;
    parse(line).map_err(|e| format!("{name}: bad result line: {e}"))
}

/// Append run `result`'s metric values to the per-metric lists.
fn collect(lists: &mut Vec<(String, Vec<f64>)>, result: &Value) {
    let Some(metrics) = result.get("metrics").and_then(Value::as_obj) else {
        return;
    };
    for (name, m) in metrics {
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        match lists.iter_mut().find(|(n, _)| n == name) {
            Some((_, list)) => list.push(v),
            None => lists.push((name.clone(), vec![v])),
        }
    }
}

fn lists_json(lists: &[(String, Vec<f64>)]) -> Value {
    obj(lists.iter().map(|(n, vs)| {
        (
            n.clone(),
            Value::Arr(vs.iter().map(|&v| Value::Num(v)).collect()),
        )
    }))
}

/// Run everything; returns whether every operation of every run passed.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut correct = true;
    let mut ledger = Vec::new();
    for def in &WORKLOADS {
        let (mut e2e, mut layer) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0.0, 0.0);
        for k in 0..args.runs {
            let seed = args.seed + k as u64;
            let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in kinds {
                let result = child(def.name, seed, args, trace)?;
                correct &= result.get("correct") == Some(&Value::Bool(true));
                attempted += result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                collect(if trace { &mut layer } else { &mut e2e }, &result);
            }
        }
        println!(
            "{}: failed_ops {failed} of attempted_ops {attempted}",
            def.name
        );
        for (name, values) in e2e.iter().chain(&layer) {
            let spread = spread(values).map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "  {name:<34} median {:>14.5}  spread {spread:>7}  over {} runs",
                median(&mut values.clone()),
                values.len()
            );
        }
        ledger.push(obj([
            ("name", Value::Str(def.name.into())),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("end_to_end", lists_json(&e2e)),
            ("per_layer", lists_json(&layer)),
        ]));
    }
    if let Some(path) = &args.out {
        let doc = obj([
            ("schema", Value::Num(1.0)),
            ("seed", Value::Num(args.seed as f64)),
            ("runs", Value::Num(args.runs as f64)),
            ("seconds", Value::Num(args.seconds as f64)),
            ("smoke", Value::Bool(args.smoke)),
            ("workloads", Value::Arr(ledger)),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("ledger written to {}", path.display());
    }
    Ok(correct)
}
