//! Rendering benchmark results as paper-style tables and CSV.
//!
//! The companion report (/ANDE89/) presented one row per operation with
//! cold and warm milliseconds-per-node per database level and system.
//! [`render_ops_table`] reproduces that layout for any set of collected
//! measurements; [`ops_csv`] emits the same data machine-readably so
//! EXPERIMENTS.md can be regenerated.

use std::fmt::Write as _;

use hypermodel::load::CreationTimings;
use hypermodel::ops::OpId;

use crate::protocol::OpMeasurement;

/// One benchmark cell: a backend/level pair's measurements.
#[derive(Debug, Clone)]
pub struct RunColumn {
    /// Backend name ("mem", "disk", "rel").
    pub backend: String,
    /// Leaf level of the database (4, 5, 6 …).
    pub level: u32,
    /// Per-operation measurements, in [`OpId::ALL`] order.
    pub measurements: Vec<OpMeasurement>,
}

fn fmt_ms(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v < 0.01 {
        format!("{v:.4}")
    } else if v < 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.2}")
    }
}

/// Render the §6 operation table: one row per operation, a cold and warm
/// column per run (ms/node, the paper's unit).
pub fn render_ops_table(columns: &[RunColumn]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<26}", "operation");
    for c in columns {
        let _ = write!(
            out,
            " | {:>9} {:>9}",
            format!("{}/L{}", c.backend, c.level),
            ""
        );
    }
    out.push('\n');
    let _ = write!(out, "{:<26}", "");
    for _ in columns {
        let _ = write!(out, " | {:>9} {:>9}", "cold", "warm");
    }
    out.push('\n');
    let width = 26 + columns.len() * 23;
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for (i, op) in OpId::ALL.iter().enumerate() {
        let _ = write!(out, "{:<26}", format!("{} {}", op.code(), op.name()));
        for c in columns {
            match c.measurements.get(i) {
                Some(m) => {
                    let _ = write!(
                        out,
                        " | {:>9} {:>9}",
                        fmt_ms(m.cold_ms_per_node()),
                        fmt_ms(m.warm_ms_per_node())
                    );
                }
                None => {
                    let _ = write!(out, " | {:>9} {:>9}", "-", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// CSV with one row per (backend, level, operation).
pub fn ops_csv(columns: &[RunColumn]) -> String {
    let mut out = String::from(
        "backend,level,op_code,op_name,cold_ms_per_node,warm_ms_per_node,cold_nodes,warm_nodes,reps,cold_p50_ms,cold_p95_ms,warm_p50_ms,warm_p95_ms\n",
    );
    for c in columns {
        for m in &c.measurements {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{:.6},{},{},{},{:.6},{:.6},{:.6},{:.6}",
                c.backend,
                c.level,
                m.op.code(),
                m.op.name(),
                m.cold_ms_per_node(),
                m.warm_ms_per_node(),
                m.cold_nodes,
                m.warm_nodes,
                m.reps,
                m.cold_stats.p50.as_secs_f64() * 1e3,
                m.cold_stats.p95.as_secs_f64() * 1e3,
                m.warm_stats.p50.as_secs_f64() * 1e3,
                m.warm_stats.p95.as_secs_f64() * 1e3
            );
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON array with one object per (backend, level, operation); the
/// machine-readable twin of [`ops_csv`] for downstream tooling that wants
/// structure rather than columns. Hand-rolled: the workspace carries no
/// serialization dependency.
pub fn ops_json(columns: &[RunColumn]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for c in columns {
        for m in &c.measurements {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"backend\": \"{}\", \"level\": {}, \"op\": \"{}\", \"op_name\": \"{}\", \
                 \"cold_ms_per_node\": {:.6}, \"warm_ms_per_node\": {:.6}, \"reps\": {}}}",
                json_escape(&c.backend),
                c.level,
                m.op.code(),
                json_escape(m.op.name()),
                m.cold_ms_per_node(),
                m.warm_ms_per_node(),
                m.reps
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// The full results document: the [`ops_json`] array, wrapped together
/// with the skew/rebalance experiment rows when any ran. Without
/// rebalance rows the output stays the plain ops array, so existing
/// consumers keep parsing unchanged.
pub fn results_json(columns: &[RunColumn], rebalance: &[crate::skew::RebalanceReport]) -> String {
    let ops = ops_json(columns);
    if rebalance.is_empty() {
        return ops;
    }
    let mut out = String::from("{\n\"ops\": ");
    out.push_str(ops.trim_end());
    out.push_str(",\n\"rebalance\": [\n");
    for (i, r) in rebalance.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "  {{\"backend\": \"{}\", \"skew\": {:.3}, \"imbalance_before\": {:.4}, \
             \"imbalance_after\": {:.4}, \"migrations\": {}, \"moved_nodes\": {}, \
             \"verified\": {}}}",
            json_escape(&r.backend),
            r.skew,
            r.imbalance_before,
            r.imbalance_after,
            r.migrations,
            r.moved_nodes,
            r.verified
        );
    }
    out.push_str("\n]\n}\n");
    out
}

/// Render per-shard placement balance and request skew for a sharded
/// backend. Skew is `max / mean` — 1.00 is a perfect spread.
pub fn render_shard_balance(loads: &[hypermodel::store::ShardLoad]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "shard", "nodes", "requests", "queued", "busy-us", "migrated"
    );
    for l in loads {
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>12} {:>8} {:>10} {:>10}",
            l.shard, l.nodes, l.requests, l.queued, l.busy_us, l.migrated
        );
    }
    let skew = |values: Vec<u64>| -> f64 {
        let max = values.iter().copied().max().unwrap_or(0) as f64;
        let mean = values.iter().sum::<u64>() as f64 / values.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    };
    let _ = writeln!(
        out,
        "node-count skew = {:.2}, request-count skew = {:.2} (max/mean; 1.00 = even)",
        skew(loads.iter().map(|l| l.nodes).collect()),
        skew(loads.iter().map(|l| l.requests).collect())
    );
    out
}

/// Render the §5.3 creation-time table.
pub fn render_creation_table(rows: &[(String, u32, CreationTimings, u64)]) -> String {
    let mut out = String::new();
    // The backend column is as wide as its longest name.
    let w = rows
        .iter()
        .map(|r| r.0.len())
        .fold("backend".len(), usize::max);
    let _ = writeln!(
        out,
        "{:<w$} {:>5} | {:>12} {:>12} {:>12} {:>12} {:>12} | {:>10} {:>12}",
        "backend",
        "level",
        "int ms/node",
        "leaf ms/node",
        "1N ms/rel",
        "MN ms/rel",
        "ref ms/rel",
        "total s",
        "stored bytes"
    );
    out.push_str(&"-".repeat(w + 114));
    out.push('\n');
    for (backend, level, t, bytes) in rows {
        let _ = writeln!(
            out,
            "{:<w$} {:>5} | {:>12} {:>12} {:>12} {:>12} {:>12} | {:>10.2} {:>12}",
            backend,
            level,
            fmt_ms(t.internal_nodes.ms_per_element()),
            fmt_ms(t.leaf_nodes.ms_per_element()),
            fmt_ms(t.children_rels.ms_per_element()),
            fmt_ms(t.parts_rels.ms_per_element()),
            fmt_ms(t.refs_rels.ms_per_element()),
            t.total().as_secs_f64(),
            bytes
        );
    }
    out
}

/// CSV for the creation table.
pub fn creation_csv(rows: &[(String, u32, CreationTimings, u64)]) -> String {
    let mut out = String::from(
        "backend,level,internal_ms_per_node,leaf_ms_per_node,child_ms_per_rel,part_ms_per_rel,ref_ms_per_rel,total_s,stored_bytes\n",
    );
    for (backend, level, t, bytes) in rows {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3},{}",
            backend,
            level,
            t.internal_nodes.ms_per_element(),
            t.leaf_nodes.ms_per_element(),
            t.children_rels.ms_per_element(),
            t.parts_rels.ms_per_element(),
            t.refs_rels.ms_per_element(),
            t.total().as_secs_f64(),
            bytes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fake_measurement(op: OpId, cold_ms: u64, warm_ms: u64) -> OpMeasurement {
        OpMeasurement {
            op,
            cold_total: Duration::from_millis(cold_ms),
            warm_total: Duration::from_millis(warm_ms),
            cold_nodes: 50,
            warm_nodes: 50,
            reps: 50,
            cold_stats: crate::protocol::PhaseStats::default(),
            warm_stats: crate::protocol::PhaseStats::default(),
        }
    }

    fn fake_column(backend: &str, level: u32) -> RunColumn {
        RunColumn {
            backend: backend.into(),
            level,
            measurements: OpId::ALL
                .iter()
                .map(|&op| fake_measurement(op, 100, 10))
                .collect(),
        }
    }

    #[test]
    fn ops_table_has_all_rows_and_headers() {
        let table = render_ops_table(&[fake_column("mem", 4), fake_column("disk", 4)]);
        assert!(table.contains("mem/L4"));
        assert!(table.contains("disk/L4"));
        assert!(table.contains("O1 nameLookup"));
        assert!(table.contains("O18 closureMNAttLinkSum"));
        assert_eq!(table.lines().count(), 3 + 20);
    }

    #[test]
    fn ops_csv_is_parseable() {
        let csv = ops_csv(&[fake_column("mem", 5)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 21);
        assert!(lines[0].starts_with("backend,level,op_code"));
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), 13);
        assert_eq!(fields[0], "mem");
        assert_eq!(fields[2], "O1");
        // cold 100ms / 50 nodes = 2 ms/node.
        assert!((fields[4].parse::<f64>().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ops_json_has_one_object_per_measurement() {
        let json = ops_json(&[fake_column("sharded-mem:4", 4)]);
        assert_eq!(json.matches("{\"backend\"").count(), 20);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"backend\": \"sharded-mem:4\""));
        assert!(json.contains("\"op\": \"O1\""));
        assert!(json.contains("\"cold_ms_per_node\": 2.000000"));
    }

    #[test]
    fn results_json_stays_an_array_without_rebalance_rows() {
        let columns = [fake_column("mem", 4)];
        assert_eq!(results_json(&columns, &[]), ops_json(&columns));
        let row = crate::skew::RebalanceReport {
            backend: "sharded-mem:4".into(),
            skew: 1.2,
            imbalance_before: 1.8,
            imbalance_after: 1.1,
            migrations: 2,
            moved_nodes: 12,
            verified: true,
        };
        let wrapped = results_json(&columns, &[row]);
        assert!(wrapped.starts_with("{\n\"ops\": [\n"));
        assert!(wrapped.contains("\"rebalance\": ["));
        assert!(wrapped.contains("\"imbalance_before\": 1.8000"));
        assert!(wrapped.contains("\"verified\": true"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn shard_balance_renders_skew() {
        use hypermodel::store::ShardLoad;
        let loads = [
            ShardLoad {
                shard: 0,
                nodes: 100,
                requests: 300,
                queued: 0,
                busy_us: 12,
                migrated: 6,
            },
            ShardLoad {
                shard: 1,
                nodes: 100,
                requests: 100,
                queued: 1,
                busy_us: 9,
                migrated: 0,
            },
        ];
        let s = render_shard_balance(&loads);
        assert!(s.contains("node-count skew = 1.00"));
        assert!(s.contains("request-count skew = 1.50"));
    }

    #[test]
    fn creation_table_renders() {
        let t = CreationTimings::default();
        let table = render_creation_table(&[("disk".into(), 4, t, 123_456)]);
        assert!(table.contains("disk"));
        assert!(table.contains("123456"));
        let csv = creation_csv(&[("disk".into(), 4, t, 123_456)]);
        assert_eq!(csv.lines().count(), 2);
        // A long backend name widens its column instead of shifting its
        // row: the header and every row are as wide.
        let rows = [
            ("disk".into(), 4, t, 1),
            ("sharded-tcp:2:r2:hash".into(), 4, t, 2),
        ];
        let table = render_creation_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[2].len(), lines[0].len(), "{table}");
        assert_eq!(lines[3].len(), lines[0].len(), "{table}");
    }

    #[test]
    fn ms_formatting_scales() {
        assert_eq!(fmt_ms(0.0), "0");
        assert_eq!(fmt_ms(0.0042), "0.0042");
        assert_eq!(fmt_ms(0.123), "0.123");
        assert_eq!(fmt_ms(12.345), "12.35");
    }
}
