//! The cold/warm measurement protocol (§6).
//!
//! For each operation: draw the inputs, run them all once against a
//! freshly cold store (the **cold run**), commit, run the *same* inputs
//! again (the **warm run**), commit, and close the database so caching
//! cannot leak into the next operation sequence.
//!
//! Times are normalized to **milliseconds per node returned**, the
//! paper's reporting unit. Update operations run an even number of
//! repetitions and alternate direction (`version1 → version-2 → version1`,
//! invert/invert) so the database is bit-identical afterwards — "the
//! database should be in a stable state before and after each operation".

use std::time::{Duration, Instant};

use hypermodel::error::{HmError, Result};
use hypermodel::ops::OpId;
use hypermodel::store::HyperStore;
use hypermodel::text::{VERSION_1, VERSION_2};

use crate::input::{OpInput, Workload};

/// Options controlling a protocol run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Repetitions per phase (the paper uses 50).
    pub reps: usize,
    /// Seed of the input stream.
    pub input_seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            reps: 50,
            input_seed: 0xBEEF,
        }
    }
}

/// Latency distribution over the repetitions of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Fastest repetition.
    pub min: Duration,
    /// Median repetition.
    pub p50: Duration,
    /// 95th-percentile repetition.
    pub p95: Duration,
    /// Slowest repetition.
    pub max: Duration,
}

impl PhaseStats {
    /// Compute order statistics from per-repetition durations.
    pub fn from_samples(samples: &[Duration]) -> PhaseStats {
        if samples.is_empty() {
            return PhaseStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        PhaseStats {
            min: sorted[0],
            p50: at(0.50),
            p95: at(0.95),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// The measured result of one operation's cold+warm sequence.
#[derive(Debug, Clone, Copy)]
pub struct OpMeasurement {
    /// Which operation.
    pub op: OpId,
    /// Total cold-phase wall time (incl. commits for update ops).
    pub cold_total: Duration,
    /// Total warm-phase wall time.
    pub warm_total: Duration,
    /// Nodes returned/visited across the cold phase.
    pub cold_nodes: u64,
    /// Nodes returned/visited across the warm phase.
    pub warm_nodes: u64,
    /// Repetitions per phase.
    pub reps: usize,
    /// Per-repetition latency distribution of the cold phase.
    pub cold_stats: PhaseStats,
    /// Per-repetition latency distribution of the warm phase.
    pub warm_stats: PhaseStats,
}

impl OpMeasurement {
    /// Cold milliseconds per node returned.
    pub fn cold_ms_per_node(&self) -> f64 {
        ms_per_node(self.cold_total, self.cold_nodes)
    }

    /// Warm milliseconds per node returned.
    pub fn warm_ms_per_node(&self) -> f64 {
        ms_per_node(self.warm_total, self.warm_nodes)
    }
}

fn ms_per_node(total: Duration, nodes: u64) -> f64 {
    if nodes == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e3 / nodes as f64
    }
}

/// Execute one repetition of `op` with `input`, returning the number of
/// nodes the operation returned (the normalization denominator).
/// `rep` parameterizes per-repetition inputs (the O13 predicate range);
/// `forward` selects the edit direction — `true` in the cold run
/// (`version1 → version-2`), `false` in the warm run (back again), per
/// §6.7.
pub fn execute_once<S: HyperStore + ?Sized>(
    store: &mut S,
    op: OpId,
    input: OpInput,
    rep: usize,
    forward: bool,
) -> Result<u64> {
    let node = |input: OpInput| match input {
        OpInput::Node(oid) => Ok(oid),
        other => Err(HmError::InvalidArgument(format!(
            "operation {op} expected a node input, got {other:?}"
        ))),
    };
    let range = |input: OpInput| match input {
        OpInput::Range(lo, hi) => Ok((lo, hi)),
        other => Err(HmError::InvalidArgument(format!(
            "operation {op} expected a range input, got {other:?}"
        ))),
    };
    Ok(match op {
        OpId::NameLookup => {
            let uid = match input {
                OpInput::Uid(uid) => uid,
                other => {
                    return Err(HmError::InvalidArgument(format!(
                        "nameLookup expects a uniqueId, got {other:?}"
                    )))
                }
            };
            let oid = store.lookup_unique(uid)?;
            std::hint::black_box(store.hundred_of(oid)?);
            1
        }
        OpId::NameOidLookup => {
            std::hint::black_box(store.hundred_of(node(input)?)?);
            1
        }
        OpId::RangeLookupHundred => {
            let (lo, hi) = range(input)?;
            store.range_hundred(lo, hi)?.len() as u64
        }
        OpId::RangeLookupMillion => {
            let (lo, hi) = range(input)?;
            store.range_million(lo, hi)?.len() as u64
        }
        OpId::GroupLookup1N => store.children(node(input)?)?.len() as u64,
        OpId::GroupLookupMN => store.parts(node(input)?)?.len() as u64,
        OpId::GroupLookupMNAtt => store.refs_to(node(input)?)?.len() as u64,
        OpId::RefLookup1N => u64::from(store.parent(node(input)?)?.is_some()),
        OpId::RefLookupMN => store.part_of(node(input)?)?.len() as u64,
        OpId::RefLookupMNAtt => store.refs_from(node(input)?)?.len().max(1) as u64,
        OpId::SeqScan => store.seq_scan_ten()?,
        OpId::Closure1N => store.closure_1n(node(input)?)?.len() as u64,
        OpId::Closure1NAttSum => {
            let (sum, count) = store.closure_1n_att_sum(node(input)?)?;
            std::hint::black_box(sum);
            count as u64
        }
        OpId::Closure1NAttSet => {
            let n = store.closure_1n_att_set(node(input)?)? as u64;
            store.commit()?;
            n
        }
        OpId::Closure1NPred => {
            // The predicate range has the paper's million selectivity; it
            // is derived from the rep index so both phases use the same
            // sequence of ranges.
            let lo = (rep as u32 % 99) * 10_000 + 1;
            store
                .closure_1n_pred(node(input)?, lo, lo + 9999)?
                .len()
                .max(1) as u64
        }
        OpId::ClosureMN => store.closure_mn(node(input)?)?.len() as u64,
        OpId::ClosureMNAtt => store.closure_mnatt(node(input)?, OpId::MNATT_DEPTH)?.len() as u64,
        OpId::TextNodeEdit => {
            let (from, to) = if forward {
                (VERSION_1, VERSION_2)
            } else {
                (VERSION_2, VERSION_1)
            };
            store.text_node_edit(node(input)?, from, to)?;
            store.commit()?;
            1
        }
        OpId::FormNodeEdit => {
            store.form_node_edit(node(input)?, 25, 25, 50, 50)?;
            store.commit()?;
            1
        }
        OpId::ClosureMNAttLinkSum => {
            let pairs = store.closure_mnatt_linksum(node(input)?, OpId::MNATT_DEPTH)?;
            std::hint::black_box(&pairs);
            pairs.len() as u64
        }
    })
}

/// Run the full §6 protocol for one operation: cold phase, commit, warm
/// phase, close.
pub fn run_op<S: HyperStore + ?Sized>(
    store: &mut S,
    workload: &mut Workload,
    op: OpId,
    opts: RunOptions,
) -> Result<OpMeasurement> {
    let reps = if op == OpId::SeqScan {
        // A full scan 50× would dominate the suite without adding
        // information; the paper reports per-node time for one pass.
        2.min(opts.reps)
    } else {
        opts.reps
    };
    let inputs = workload.inputs_for(op, reps);

    // Per-op latency histograms, keyed by the paper's operation code
    // (`op.O10.cold_us`, ...). Handles are interned once per operation;
    // the per-rep record is a few atomic stores.
    let reg = obs::registry();
    let cold_hist = reg.histogram(&format!("op.{}.cold_us", op.code()));
    let warm_hist = reg.histogram(&format!("op.{}.warm_us", op.code()));

    // (e from the previous sequence / fresh start): ensure cold.
    store.commit()?;
    store.cold_restart()?;

    // (b) cold run.
    let mut cold_nodes = 0u64;
    let mut cold_samples = Vec::with_capacity(reps);
    let start = Instant::now();
    for (rep, &input) in inputs.iter().enumerate() {
        let t = Instant::now();
        cold_nodes += execute_once(store, op, input, rep, true)?;
        let took = t.elapsed();
        cold_hist.record(took.as_micros() as u64);
        cold_samples.push(took);
    }
    // (c) commit.
    store.commit()?;
    let cold_total = start.elapsed();

    // (d) warm run with the *same* inputs and per-rep parameters; edits
    // run in the reverse direction, restoring the database (§6.7).
    let mut warm_nodes = 0u64;
    let mut warm_samples = Vec::with_capacity(reps);
    let start = Instant::now();
    for (rep, &input) in inputs.iter().enumerate() {
        let t = Instant::now();
        warm_nodes += execute_once(store, op, input, rep, false)?;
        let took = t.elapsed();
        warm_hist.record(took.as_micros() as u64);
        warm_samples.push(took);
    }
    store.commit()?;
    let warm_total = start.elapsed();

    // (e) close between operation sequences.
    store.cold_restart()?;

    Ok(OpMeasurement {
        op,
        cold_total,
        warm_total,
        cold_nodes,
        warm_nodes,
        reps,
        cold_stats: PhaseStats::from_samples(&cold_samples),
        warm_stats: PhaseStats::from_samples(&warm_samples),
    })
}

/// Run all 20 operations in paper order.
pub fn run_all_ops<S: HyperStore + ?Sized>(
    store: &mut S,
    workload: &mut Workload,
    opts: RunOptions,
) -> Result<Vec<OpMeasurement>> {
    OpId::ALL
        .iter()
        .map(|&op| run_op(store, workload, op, opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use hypermodel::oracle::Oracle;
    use mem_backend::MemStore;

    fn setup(cfg: &GenConfig) -> (MemStore, Workload) {
        let db = TestDatabase::generate(cfg);
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db).unwrap();
        let workload = Workload::new(db, report.oids, 7);
        (store, workload)
    }

    #[test]
    fn all_ops_run_to_completion_on_mem() {
        let (mut store, mut workload) = setup(&GenConfig::tiny());
        let opts = RunOptions {
            reps: 4,
            input_seed: 7,
        };
        let results = run_all_ops(&mut store, &mut workload, opts).unwrap();
        assert_eq!(results.len(), 20);
        for m in &results {
            assert!(m.cold_nodes > 0, "{} returned no nodes", m.op);
            assert_eq!(m.cold_nodes, m.warm_nodes, "{} phases disagree", m.op);
        }
    }

    #[test]
    fn database_is_stable_after_update_ops() {
        let (mut store, mut workload) = setup(&GenConfig::tiny());
        let pristine = workload.db.clone();
        let oracle = Oracle::new(&pristine);
        let opts = RunOptions {
            reps: 6,
            input_seed: 9,
        };
        for op in [
            OpId::Closure1NAttSet,
            OpId::TextNodeEdit,
            OpId::FormNodeEdit,
        ] {
            run_op(&mut store, &mut workload, op, opts).unwrap();
        }
        // Every attribute and every text node matches the pristine spec.
        for idx in 0..workload.db.len() as u32 {
            let oid = workload.oids[idx as usize];
            assert_eq!(
                store.hundred_of(oid).unwrap(),
                oracle.hundred(idx),
                "node {idx}"
            );
        }
        for &ti in &workload.db.text_indices() {
            let oid = workload.oids[ti as usize];
            assert_eq!(store.text_of(oid).unwrap(), oracle.text(ti));
        }
        for &fi in &workload.db.form_indices() {
            let oid = workload.oids[fi as usize];
            assert!(store.form_of(oid).unwrap().is_all_white());
        }
    }

    #[test]
    fn closure_counts_match_paper_n_values() {
        let (mut store, mut workload) = setup(&GenConfig::level(4));
        let opts = RunOptions {
            reps: 10,
            input_seed: 3,
        };
        let m = run_op(&mut store, &mut workload, OpId::Closure1N, opts).unwrap();
        // n-level4 = 6 nodes per closure (§6.5).
        assert_eq!(m.cold_nodes, 10 * 6);
        let m = run_op(&mut store, &mut workload, OpId::ClosureMNAtt, opts).unwrap();
        assert_eq!(m.cold_nodes, 10 * 25, "depth-25 chain");
    }

    #[test]
    fn seq_scan_visits_every_node() {
        let (mut store, mut workload) = setup(&GenConfig::tiny());
        let opts = RunOptions {
            reps: 50,
            input_seed: 3,
        };
        let m = run_op(&mut store, &mut workload, OpId::SeqScan, opts).unwrap();
        // Reps are clamped to 2 for the scan.
        assert_eq!(m.cold_nodes, 2 * 31);
    }

    #[test]
    fn measurement_normalization() {
        let m = OpMeasurement {
            op: OpId::NameLookup,
            cold_total: Duration::from_millis(100),
            warm_total: Duration::from_millis(10),
            cold_nodes: 50,
            warm_nodes: 50,
            reps: 50,
            cold_stats: PhaseStats::default(),
            warm_stats: PhaseStats::default(),
        };
        assert!((m.cold_ms_per_node() - 2.0).abs() < 1e-9);
        assert!((m.warm_ms_per_node() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn phase_stats_order_statistics() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = PhaseStats::from_samples(&samples);
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.max, Duration::from_millis(100));
        assert!(
            (49..=52).contains(&(s.p50.as_millis() as u64)),
            "{:?}",
            s.p50
        );
        assert!(
            (94..=97).contains(&(s.p95.as_millis() as u64)),
            "{:?}",
            s.p95
        );
        assert_eq!(PhaseStats::from_samples(&[]).max, Duration::ZERO);
        let one = PhaseStats::from_samples(&[Duration::from_millis(7)]);
        assert_eq!(one.p50, Duration::from_millis(7));
    }

    #[test]
    fn run_op_populates_distributions() {
        let (mut store, mut workload) = setup(&GenConfig::tiny());
        let opts = RunOptions {
            reps: 10,
            input_seed: 3,
        };
        let m = run_op(&mut store, &mut workload, OpId::Closure1N, opts).unwrap();
        assert!(m.cold_stats.max >= m.cold_stats.p95);
        assert!(m.cold_stats.p95 >= m.cold_stats.p50);
        assert!(m.cold_stats.p50 >= m.cold_stats.min);
        assert!(m.warm_stats.max > Duration::ZERO);
    }

    #[test]
    fn disk_backend_runs_protocol_and_stays_stable() {
        let mut path = std::env::temp_dir();
        path.push(format!("hm-protocol-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(&wal));
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = disk_backend::DiskStore::create(&path, 1024).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        let mut workload = Workload::new(db, report.oids, 7);
        let opts = RunOptions {
            reps: 4,
            input_seed: 7,
        };
        let results = run_all_ops(&mut store, &mut workload, opts).unwrap();
        assert_eq!(results.len(), 20);
        let oracle = Oracle::new(&workload.db);
        for idx in 0..workload.db.len() as u32 {
            let oid = workload.oids[idx as usize];
            assert_eq!(store.hundred_of(oid).unwrap(), oracle.hundred(idx));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(std::path::PathBuf::from(&wal));
    }
}
