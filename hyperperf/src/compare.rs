//! `hyperperf compare A.json B.json`: the two-sided check every later
//! change runs. Per workload and end-to-end metric it prints both
//! medians, the ratio with its base, each side's run-to-run quartiles,
//! and a verdict by the bound `BENCHMARK.json` fixes.

use std::fmt::Write as _;

use crate::json::Value;
use crate::stats::{median, quartiles, spread};

/// The verdict on one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own spread is wider than the bound (or unknown), so the
    /// medians cannot be told apart: neither "same" nor "worse".
    Unresolved,
}

/// Judge one lower-is-better metric: `a` and `b` are each side's runs.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let resolved = |side: &[f64]| spread(side).is_some_and(|s| s <= bound);
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    if !resolved(a) || !resolved(b) || ma <= 0.0 {
        Verdict::Unresolved
    } else if mb > ma * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn side(values: &[f64]) -> String {
    let q = quartiles(values).map_or("-".to_string(), |(q1, q3)| format!("{q1:.5}..{q3:.5}"));
    format!("{:.5} [{q}]", median(&mut values.to_vec()))
}

/// Compare ledger `b` against ledger `a` under `benchmark`'s bounds.
/// Returns the table and whether any cell is worse.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<(String, bool), String> {
    let bounds: Vec<(&str, f64)> = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("bound")?.as_f64()?)))
        .collect();
    fn workloads(ledger: &Value) -> Result<&[Value], String> {
        ledger
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or_else(|| "ledger has no workloads list".to_string())
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut table = String::new();
    let mut any_worse = false;
    writeln!(
        table,
        "{:<10} {:<28} {:<40} {:<40} {:>16}  verdict",
        "workload", "metric", "A median [q1..q3]", "B median [q1..q3]", "B/A (base A)"
    )
    .expect("write to String");
    for w in wa {
        let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(other) = wb
            .iter()
            .find(|o| o.get("name").and_then(Value::as_str) == Some(name))
        else {
            writeln!(table, "{name:<10} missing from B").expect("write to String");
            any_worse = true;
            continue;
        };
        for &(metric, bound) in &bounds {
            let va = numbers(w.get("end_to_end").and_then(|m| m.get(metric)));
            let vb = numbers(other.get("end_to_end").and_then(|m| m.get(metric)));
            let verdict = judge(&va, &vb, bound);
            any_worse |= verdict == Verdict::Worse;
            let ratio = median(&mut vb.clone()) / median(&mut va.clone());
            writeln!(
                table,
                "{name:<10} {metric:<28} {:<40} {:<40} {ratio:>16.4}  {}",
                side(&va),
                side(&vb),
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Worse => format!("worse (bound {bound})"),
                    Verdict::Unresolved => format!("unresolved (spread over bound {bound})"),
                }
            )
            .expect("write to String");
        }
        let share = |v: &Value| {
            let get = |k| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            get("failed") / get("attempted").max(1.0)
        };
        let (fa, fb) = (share(w), share(other));
        any_worse |= fb > fa;
        writeln!(
            table,
            "{name:<10} {:<28} {fa:<40.6} {fb:<40.6} {:>16}  {}",
            "failed_ops share",
            "",
            if fb > fa { "worse" } else { "ok" }
        )
        .expect("write to String");
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 9.0, 13.0, 10.0];
        assert_eq!(judge(&steady, &steady, 0.1), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, 0.1), Verdict::Worse);
        assert_eq!(judge(&slower, &steady, 0.1), Verdict::Ok, "faster is fine");
        assert_eq!(judge(&steady, &noisy, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&[10.0], &[10.0], 0.1), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_ledgers_and_flags_a_regression() {
        let bench = parse(r#"{"end_to_end": [{"name": "lookup_us", "bound": 0.1}]}"#).unwrap();
        let ledger = |v: &str, failed: u32| {
            parse(&format!(
                r#"{{"workloads": [{{"name": "mem.warm", "attempted": 100, "failed": {failed},
                    "end_to_end": {{"lookup_us": {v}}}}}]}}"#
            ))
            .unwrap()
        };
        let a = ledger("[1.0, 1.01, 0.99]", 0);
        let (table, worse) = compare(&a, &a, &bench).unwrap();
        assert!(!worse, "{table}");
        let (table, worse) = compare(&a, &ledger("[1.3, 1.31, 1.29]", 0), &bench).unwrap();
        assert!(worse && table.contains("worse (bound 0.1)"), "{table}");
        let (_, worse) = compare(&a, &ledger("[1.0, 1.01, 0.99]", 3), &bench).unwrap();
        assert!(worse, "a higher failed share is a regression");
    }
}
