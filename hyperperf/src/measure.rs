//! One workload, one run: set up, check, measure in closed-loop rounds,
//! check again, report.
//!
//! A run is a few *segments*. Each segment sets the stack up from
//! nothing (so a run yields several `setup_s` samples and every segment
//! starts on a fresh server and fresh connections), checks every
//! operation's result against the oracle, and then repeats *rounds*
//! until its share of `--seconds` is spent. A round runs all 20
//! operations over the segment's inputs from one caller thread; an edit
//! operation runs forward (`version1 → version-2`) and then back (§6.7),
//! so every round leaves the database as it found it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use disk_backend::DiskStore;
use harness::input::{OpInput, Workload};
use harness::protocol::execute_once;
use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Content;
use hypermodel::ops::OpId;
use hypermodel::oracle::Oracle;
use hypermodel::rng::Rng;
use hypermodel::verify::verify_store;
use storage::IoStats;

use crate::check::{
    check_edited, check_results, draw_inputs, edited_text, plan_cases, Case, Ids, Tally,
    LOOKUP_FACTOR,
};
use crate::envinfo::{self, WorkDir};
use crate::layers;
use crate::spans::Recorder;
use crate::stack::Stack;
use crate::stats::{geomean, median, tail};
use crate::workloads::{Group, StackKind, WorkloadDef, END_TO_END, PER_LAYER};

/// How big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Leaf level of the generated database.
    pub level: u32,
    /// Set-ups (and measured segments) per run.
    pub segments: usize,
    /// Cap on inputs per operation.
    pub max_inputs: usize,
    /// Run exactly this many rounds per segment, whatever `--seconds`
    /// says.
    pub rounds_per_segment: Option<usize>,
}

impl Plan {
    /// The benchmark proper: level 6 (19 531 nodes, 16.4 MB on disk).
    pub const FULL: Plan = Plan {
        level: 6,
        segments: 3,
        max_inputs: usize::MAX,
        rounds_per_segment: None,
    };
    /// `--smoke`: level 4, two rounds per segment, seconds in total.
    pub const SMOKE: Plan = Plan {
        level: 4,
        segments: 2,
        max_inputs: 10,
        rounds_per_segment: Some(2),
    };
}

/// What a run produced.
pub struct RunOutput {
    /// Attempted / failed operations and checks.
    pub tally: Tally,
    /// `(name, value, unit)` for every metric of the requested kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable detail: environment, per-op table, tails.
    pub report: String,
}

/// The generator seed for `--seed`.
fn gen_seed(seed: u64) -> u64 {
    Rng::new(seed).next_u64()
}

/// The input stream of segment `seg`: its own draw, fixed by `--seed`.
fn input_seed(seed: u64, seg: usize) -> u64 {
    Rng::new(seed).fork(1 + seg as u64).next_u64()
}

/// Samples of one operation, in its group's unit.
#[derive(Default)]
struct OpSamples {
    /// One value per round: batch time ÷ calls (or ÷ nodes returned).
    rounds: Vec<f64>,
    /// One value per call, for groups slow enough to time call by call.
    calls: Vec<f64>,
}

/// Everything the measured rounds collect.
#[derive(Default)]
struct Collected {
    ops: Vec<OpSamples>,
    /// Per-round group values, `[traced as usize][group]`.
    groups: [[Vec<f64>; 4]; 2],
    op_calls: u64,
    commits: u64,
    /// Seconds per lookup call, one value per untraced round: the
    /// `bench.op` figure the layer self times must add up to.
    plain_lookup: Vec<f64>,
    /// Seconds per lookup call inside the program's `client.call` spans
    /// that joined the call's trace id, one value per traced round; and
    /// how many such spans per call.
    traced_client_call: Vec<f64>,
    traced_round_trips: Vec<f64>,
    /// Cold-versus-warm accounting for `storage.miss_us`; the lookup
    /// group's share per call, one value per untraced round.
    cold_secs: f64,
    warm_secs: f64,
    cold_misses: u64,
    warm_lookup: Vec<f64>,
    /// Deltas of the program's `obs` counters over the measured rounds.
    counters: BTreeMap<String, u64>,
    dispatch_wait_us: Vec<f64>,
    page_reads: u64,
    page_writes: u64,
    wal_bytes: u64,
    user_bytes_edited: u64,
    shard_requests: u64,
}

struct BatchOut {
    secs: f64,
    nodes: u64,
}

/// Per-call samples kept per operation; a faster program runs more
/// rounds, and its memory must not grow with them.
const CALL_SAMPLES: usize = 20_000;

/// Run one operation's inputs once, in a closed loop, timing the batch.
/// `per_call` also times each call (groups slow enough for that);
/// `tracer` opens a `bench.op` span under a fresh trace id around each.
fn run_batch(
    stack: &mut Stack,
    case: &Case,
    forward: bool,
    tally: &mut Tally,
    per_call: Option<&mut Vec<f64>>,
    mut tracer: Option<&mut Recorder>,
) -> BatchOut {
    let store = stack.store();
    let group = Group::of(case.op);
    let mut nodes = 0u64;
    let mut call_secs = Vec::with_capacity(if per_call.is_some() {
        case.inputs.len()
    } else {
        0
    });
    let timed_calls = per_call.is_some();
    let start = Instant::now();
    for (rep, &input) in case.inputs.iter().enumerate() {
        let t = timed_calls.then(Instant::now);
        let got = match tracer.as_deref_mut() {
            Some(rec) => {
                let id = obs::trace::mint();
                let _scope = obs::trace::scope(id);
                let span = rec.open("bench.op", id);
                let got = execute_once(store, case.op, input, rep, forward);
                rec.close(span);
                got
            }
            None => execute_once(store, case.op, input, rep, forward),
        };
        let n = *got.as_ref().unwrap_or(&0);
        if let Some(t) = t {
            let denom = if group.per_node() { n.max(1) } else { 1 };
            call_secs.push(t.elapsed().as_secs_f64() * group.scale() / denom as f64);
        }
        nodes += n;
        tally.expect(case.op.code(), &case.expect[rep], got);
    }
    let secs = start.elapsed().as_secs_f64();
    if let Some(sink) = per_call {
        call_secs.truncate(CALL_SAMPLES.saturating_sub(sink.len()));
        sink.append(&mut call_secs);
    }
    BatchOut { secs, nodes }
}

/// Bytes of user data in `db`, in their natural encoding: five
/// attributes (24 B) per node, the text or bitmap content, 8 B per
/// child or part link and 10 B per attributed reference.
fn user_bytes_of(db: &TestDatabase) -> u64 {
    let content: u64 = db
        .nodes
        .iter()
        .map(|n| match &n.value.content {
            Content::Text(t) => t.len() as u64,
            Content::Form(b) => b.byte_size() as u64,
            _ => 0,
        })
        .sum();
    let links = |lists: &[Vec<u32>]| lists.iter().map(|l| l.len() as u64).sum::<u64>();
    24 * db.len() as u64
        + content
        + 8 * (links(&db.children) + links(&db.parts))
        + 10 * db.refs.len() as u64
}

/// Bytes of user data one forward pass of an edit case writes.
fn user_bytes(oracle: &Oracle, ids: &Ids, case: &Case) -> u64 {
    let db = oracle.db();
    case.inputs
        .iter()
        .zip(&case.expect)
        .map(|(&input, &nodes)| {
            let OpInput::Node(oid) = input else { return 0 };
            match (case.op, &db.nodes[ids.idx(oid) as usize].value.content) {
                (OpId::Closure1NAttSet, _) => nodes * 4,
                (_, Content::Text(t)) => t.len() as u64,
                (_, Content::Form(b)) => b.byte_size() as u64,
                _ => 0,
            }
        })
        .sum()
}

struct RoundCtx<'a> {
    def: &'a WorkloadDef,
    trace: bool,
    oracle: &'a Oracle<'a>,
    ids: &'a Ids,
    cases: &'a [Case],
}

/// One round: all 20 operations, paper order. A read operation runs its
/// inputs once; an edit operation runs them forward and then back (§6.7),
/// so the round leaves the database as it found it. `check_edits` reads
/// the edited state back between the two (first round of a segment).
fn run_round(
    ctx: &RoundCtx,
    stack: &mut Stack,
    traced: bool,
    check_edits: bool,
    tally: &mut Tally,
    out: &mut Collected,
    recorder: &mut Recorder,
) -> Result<()> {
    let cold = matches!(ctx.def.stack, StackKind::Disk { cold: true, .. });
    let misses = obs::registry().counter("storage.buffer.misses");
    let mut sums = [(0.0f64, 0u64); 4];
    let mut lookup_round = Vec::new();
    // Lookup-group totals of this round: span seconds, spans, warm
    // re-run seconds.
    let (mut call_span_secs, mut call_spans, mut warm_lookup_secs) = (0.0, 0u64, 0.0);
    // The program logs its spans only while a round is traced.
    obs::trace::record_spans(traced);
    for (i, case) in ctx.cases.iter().enumerate() {
        let group = Group::of(case.op);
        let directions: &[bool] = if group == Group::Edit {
            &[true, false]
        } else {
            &[true]
        };
        let calls = case.inputs.len() as u64;
        let (mut secs, mut denom) = (0.0, 0u64);
        for &forward in directions {
            if cold {
                stack.store().cold_restart()?;
            }
            let io_before = if ctx.trace {
                stack.io_stats()
            } else {
                IoStats::default()
            };
            let wal_before = (ctx.trace && group == Group::Edit).then(|| stack.wal_bytes());
            let misses_before = misses.get();
            let batch = run_batch(
                stack,
                case,
                forward,
                tally,
                (group != Group::Lookup).then_some(&mut out.ops[i].calls),
                traced.then_some(&mut *recorder),
            );
            secs += batch.secs;
            denom += if group.per_node() { batch.nodes } else { calls };
            out.op_calls += calls;
            if group == Group::Edit {
                out.commits += calls;
            }
            if forward && check_edits {
                check_edited(stack.store(), ctx.oracle, ctx.ids, case, tally);
            }
            if !ctx.trace {
                continue;
            }
            // Everything below feeds per-layer metrics only.
            let io_after = stack.io_stats();
            out.page_reads += io_after.reads.saturating_sub(io_before.reads);
            out.page_writes += io_after.writes.saturating_sub(io_before.writes);
            if let Some(before) = wal_before {
                out.wal_bytes += stack.wal_bytes().saturating_sub(before);
                // The way back writes as many bytes, but for the one
                // byte a sentinel word sheds.
                out.user_bytes_edited += user_bytes(ctx.oracle, ctx.ids, case);
            }
            if traced {
                let adopted = recorder.adopt_program_spans();
                if group == Group::Lookup {
                    for (name, span_secs) in adopted {
                        if name == "client.call" {
                            call_span_secs += span_secs;
                            call_spans += 1;
                        }
                    }
                }
            }
            if cold && group != Group::Edit && !traced {
                // §6 step (d): the same inputs again, now warm. The
                // difference is what the misses cost.
                let batch_misses = misses.get() - misses_before;
                let warm = run_batch(stack, case, forward, tally, None, None);
                out.cold_secs += batch.secs;
                out.warm_secs += warm.secs;
                out.cold_misses += batch_misses;
                if group == Group::Lookup {
                    warm_lookup_secs += warm.secs;
                }
            }
        }
        let value = secs * group.scale() / denom.max(1) as f64;
        out.ops[i].rounds.push(value);
        sums[group as usize].0 += secs;
        sums[group as usize].1 += denom;
        if group == Group::Lookup {
            lookup_round.push(value);
        }
    }
    obs::trace::record_spans(false);
    if ctx.trace {
        let (secs, calls) = sums[Group::Lookup as usize];
        let calls = calls.max(1) as f64;
        if traced {
            out.traced_client_call.push(call_span_secs / calls);
            out.traced_round_trips.push(call_spans as f64 / calls);
        } else {
            out.plain_lookup.push(secs / calls);
            out.warm_lookup.push(warm_lookup_secs / calls);
        }
    }
    let which = &mut out.groups[traced as usize];
    which[Group::Lookup as usize].push(geomean(&lookup_round));
    for g in [Group::Range, Group::Closure, Group::Edit] {
        let (secs, denom) = sums[g as usize];
        which[g as usize].push(secs * g.scale() / denom.max(1) as f64);
    }
    Ok(())
}

/// `disk.edit` only: acknowledge one more edit, drop the store without
/// closing it, open the files again and read the edit back.
fn crash_reopen(
    stack: Stack,
    frames: usize,
    oracle: &Oracle,
    ids: &Ids,
    cases: &[Case],
    tally: &mut Tally,
) -> Result<(Stack, f64)> {
    let Stack::Disk(mut store, path) = stack else {
        return Ok((stack, 0.0));
    };
    let case = cases
        .iter()
        .find(|c| c.op == OpId::TextNodeEdit)
        .ok_or_else(|| HmError::InvalidArgument("no O16 case planned".into()))?;
    let OpInput::Node(oid) = case.inputs[0] else {
        return Err(HmError::InvalidArgument("O16 input is not a node".into()));
    };
    let idx = ids.idx(oid);
    execute_once(&mut store, OpId::TextNodeEdit, case.inputs[0], 0, true)?;
    // No destructor runs: nothing is flushed that commit() had not
    // already made durable.
    std::mem::forget(store);
    let t = Instant::now();
    let mut store = DiskStore::open(&path, frames)?;
    let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    tally.expect(
        "reopen: last acknowledged edit",
        &edited_text(oracle, idx),
        hypermodel::store::HyperStore::text_of(&mut store, oid),
    );
    execute_once(&mut store, OpId::TextNodeEdit, case.inputs[0], 0, false)?;
    Ok((Stack::Disk(store, path), reopen_ms))
}

/// Run `def` once and report the metrics of the requested kind.
pub fn run(
    def: &WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    plan: &Plan,
) -> Result<RunOutput> {
    let work = WorkDir::create().map_err(|e| HmError::Backend(format!("work dir: {e}")))?;
    let cfg = GenConfig::level(plan.level).with_seed(gen_seed(seed));
    let read_inputs = def.read_inputs.min(plan.max_inputs);
    let edit_inputs = def.edit_inputs.min(plan.max_inputs);
    let obs_names = [
        "storage.buffer.hits",
        "storage.buffer.misses",
        "storage.buffer.evictions",
        "storage.wal.appends",
        "storage.wal.fsyncs",
        "client.round_trips",
        "net.bytes_sent",
        "net.bytes_recv",
        "net.write_batches",
        "exec.jobs",
        "loop.frames",
        "loop.parks",
        "shard.2pc.committed",
    ];

    let mut tally = Tally::default();
    let mut out = Collected {
        ops: OpId::ALL.iter().map(|_| OpSamples::default()).collect(),
        ..Collected::default()
    };
    let mut recorder = Recorder::default();
    let (mut setup, mut gen, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut stored_ratio = 0.0;
    let mut reopen_ms = 0.0;
    let mut edit_split = (0.0, 0.0);
    let mut rounds = 0usize;

    for seg in 0..plan.segments {
        // ---- set-up (timed): generate, build the stack, load, commit.
        let t_setup = Instant::now();
        let db = TestDatabase::generate(&cfg);
        gen.push(t_setup.elapsed().as_secs_f64());
        let rss_before = envinfo::rss_mib();
        let mut stack = Stack::build(def.stack, work.path(), &format!("seg{seg}"))?;
        let t_load = Instant::now();
        let oids = load_database(stack.store(), &db)?.oids;
        stack.store().commit()?;
        let mut stack = stack.loaded(def.stack)?;
        load.push(t_load.elapsed().as_secs_f64());
        setup.push(t_setup.elapsed().as_secs_f64());
        if seg == 0 {
            // Space is read once, as set-up leaves it, so it depends on
            // neither run length nor the inputs drawn. A store with no
            // file is judged by the memory the load made resident.
            let held = match stack.stored_bytes() {
                Some(bytes) => bytes as f64,
                None => (envinfo::rss_mib() - rss_before) * 1024.0 * 1024.0,
            };
            stored_ratio = held / user_bytes_of(&db) as f64;
        }

        // ---- inputs and the pre-measurement gate (untimed).
        let ids = Ids::new(oids);
        let mut workload = Workload::new(db, ids.oids.clone(), input_seed(seed, seg));
        let drawn = draw_inputs(&mut workload, read_inputs, edit_inputs);
        let db = &workload.db;
        let oracle = Oracle::new(db);
        let cases = plan_cases(drawn, &oracle, &ids);
        for case in &cases {
            check_results(stack.store(), &oracle, &ids, case, &mut tally);
        }

        // ---- measured rounds.
        let ctx = RoundCtx {
            def,
            trace,
            oracle: &oracle,
            ids: &ids,
            cases: &cases,
        };
        let snap_before = trace.then(|| obs::registry().snapshot());
        let shard_before = stack.shard_requests();
        let mut budget = seconds / plan.segments as f64;
        let started = Instant::now();
        let mut seg_rounds = 0usize;
        loop {
            // In a traced run every other round is untraced, so the two
            // can be compared (`obs.trace_overhead`).
            let traced = trace && rounds.is_multiple_of(2);
            run_round(
                &ctx,
                &mut stack,
                traced,
                seg_rounds == 0,
                &mut tally,
                &mut out,
                &mut recorder,
            )?;
            rounds += 1;
            seg_rounds += 1;
            if let (true, StackKind::Disk { frames, .. }) = (def.reopen_check, def.stack) {
                // The durability check, at a fixed point too: after one
                // round of the last segment, whose remaining rounds and
                // final sweep then run on the recovered database.
                if seg + 1 == plan.segments && seg_rounds == 1 {
                    let paused = Instant::now();
                    (stack, reopen_ms) =
                        crash_reopen(stack, frames, &oracle, &ids, &cases, &mut tally)?;
                    // Its edit and the edit back, each with its commit.
                    out.op_calls += 2;
                    out.commits += 2;
                    budget += paused.elapsed().as_secs_f64();
                }
            }
            let spent = match plan.rounds_per_segment {
                Some(n) => seg_rounds >= n,
                None => started.elapsed().as_secs_f64() >= budget,
            };
            if spent {
                break;
            }
        }
        out.shard_requests += stack.shard_requests() - shard_before;
        if let Some(before) = snap_before {
            let delta = obs::registry().snapshot().diff(&before);
            for name in obs_names {
                *out.counters.entry(name.to_string()).or_default() +=
                    delta.counters.get(name).copied().unwrap_or(0);
            }
            if let Some(h) = delta.hists.get("exec.dispatch_wait_us") {
                if h.buckets_total() > 0 {
                    out.dispatch_wait_us.push(h.quantile(0.5) as f64);
                }
            }
        }

        // ---- post-measurement gate (untimed), on the last segment.
        if seg + 1 == plan.segments {
            if trace && !matches!(def.stack, StackKind::Tcp2) {
                if let Some(case) = cases.iter().find(|c| c.op == OpId::TextNodeEdit) {
                    edit_split = layers::edit_split(stack.store(), case)?;
                }
            }
            // §6.7: the edits must have restored the database exactly.
            let verdict = verify_store(stack.store(), db, &ids.oids)?;
            tally.record(verdict.is_ok(), || format!("verify_store: {verdict}"));
        }
        stack.close()?;
    }

    // ---- report ------------------------------------------------------
    let mut report = String::new();
    writeln!(
        report,
        "workload {} seed {seed} level {} | nproc {} affinity {} | scratch on {} | \
         flush policy: fsync of the log at every commit (the engine's only policy) | \
         {rounds} rounds, {} lookup + {} read + {} edit inputs/op, {} set-ups",
        def.name,
        plan.level,
        envinfo::nproc(),
        envinfo::affinity(),
        work.filesystem(),
        read_inputs * LOOKUP_FACTOR,
        read_inputs,
        edit_inputs,
        plan.segments
    )
    .expect("write to String");
    let op_medians = op_table(&mut out, &mut report);

    let group_median = |out: &mut Collected, traced: bool, g: Group| {
        median(&mut out.groups[traced as usize][g as usize])
    };
    let lookup_medians: Vec<f64> = OpId::ALL
        .iter()
        .zip(&op_medians)
        .filter(|(op, _)| Group::of(**op) == Group::Lookup)
        .map(|(_, &m)| m)
        .collect();

    let metrics = if !trace {
        let values = [
            median(&mut setup),
            geomean(&lookup_medians),
            group_median(&mut out, false, Group::Range),
            group_median(&mut out, false, Group::Closure),
            group_median(&mut out, false, Group::Edit),
            envinfo::peak_rss_mib(),
            stored_ratio,
        ];
        if reopen_ms > 0.0 {
            writeln!(
                report,
                "  reopen_ms {reopen_ms:.3} (drop without close, open, read back)"
            )
            .expect("write to String");
        }
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    } else {
        let values = layer_metrics(
            def,
            &cfg,
            seed,
            read_inputs,
            &mut out,
            &mut gen,
            &mut load,
            edit_split,
        )?;
        let (stored, dropped) = recorder.counts();
        let file = envinfo::traces_dir()
            .map(|dir| dir.join(format!("trace-{}.json", def.name)))
            .and_then(|file| recorder.write_json(&file).map(|()| file))
            .map_err(|e| HmError::Backend(format!("write trace: {e}")))?;
        writeln!(
            report,
            "  {stored} spans ({dropped} beyond the cap) written to {}",
            file.display()
        )
        .expect("write to String");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    };
    for m in &tally.messages {
        writeln!(report, "  FAILED {m}").expect("write to String");
    }
    Ok(RunOutput {
        tally,
        metrics,
        report,
    })
}

/// Append the 20-operation table to `report` — per operation its median
/// over rounds and, beside it, the tail figure with its sample count —
/// and return the medians in `OpId::ALL` order.
fn op_table(out: &mut Collected, report: &mut String) -> Vec<f64> {
    let mut medians = Vec::with_capacity(OpId::ALL.len());
    for (op, samples) in OpId::ALL.iter().zip(&mut out.ops) {
        let med = median(&mut samples.rounds);
        medians.push(med);
        let (pool, kind) = if samples.calls.is_empty() {
            (&mut samples.rounds, "rounds")
        } else {
            (&mut samples.calls, "calls")
        };
        let n = pool.len();
        let tail = tail(pool).map_or("-".to_string(), |(p, v)| format!("p{p} {v:.4}"));
        let metric = Group::of(*op).metric();
        let unit = END_TO_END
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or("", |(_, u)| u);
        writeln!(
            report,
            "  {:<4} {:<20} {med:>12.4} {unit}  {tail} over {n} {kind}",
            op.code(),
            op.name(),
        )
        .expect("write to String");
    }
    medians
}

/// Turn what a traced run collected, plus the direct probes, into the
/// per-layer metrics. A layer off the workload's path stays at 0.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    def: &WorkloadDef,
    cfg: &GenConfig,
    seed: u64,
    read_inputs: usize,
    out: &mut Collected,
    gen: &mut [f64],
    load: &mut [f64],
    edit_split: (f64, f64),
) -> Result<BTreeMap<&'static str, f64>> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let ops = out.op_calls.max(1) as f64;
    let commits = out.commits.max(1) as f64;
    let c = |out: &Collected, name: &str| out.counters.get(name).copied().unwrap_or(0) as f64;

    m.insert("hypermodel.gen_s", median(gen));
    m.insert(
        "hypermodel.load_nodes_per_s",
        cfg.total_nodes() as f64 / median(load),
    );
    m.insert("backend.apply_us", edit_split.0 * 1e6);
    m.insert("backend.commit_us", edit_split.1 * 1e6);

    let (hits, misses) = (
        c(out, "storage.buffer.hits"),
        c(out, "storage.buffer.misses"),
    );
    if hits + misses > 0.0 {
        m.insert("storage.buffer.hit_ratio", hits / (hits + misses));
    }
    m.insert("storage.buffer.misses_per_op", misses / ops);
    m.insert(
        "storage.buffer.evictions_per_op",
        c(out, "storage.buffer.evictions") / ops,
    );
    m.insert("storage.page_reads_per_op", out.page_reads as f64 / ops);
    m.insert(
        "storage.wal.appends_per_commit",
        c(out, "storage.wal.appends") / commits,
    );
    m.insert(
        "storage.wal.fsyncs_per_commit",
        c(out, "storage.wal.fsyncs") / commits,
    );
    m.insert(
        "storage.page_writes_per_commit",
        out.page_writes as f64 / commits,
    );
    if out.user_bytes_edited > 0 {
        m.insert(
            "storage.wal_bytes_per_user_byte",
            out.wal_bytes as f64 / out.user_bytes_edited as f64,
        );
    }
    m.insert(
        "server.round_trips_per_op",
        c(out, "client.round_trips") / ops,
    );
    m.insert(
        "server.bytes_per_op",
        (c(out, "net.bytes_sent") + c(out, "net.bytes_recv")) / ops,
    );
    m.insert(
        "server.write_syscalls_per_op",
        c(out, "net.write_batches") / ops,
    );
    m.insert("exec.jobs_per_op", c(out, "exec.jobs") / ops);
    m.insert("exec.dispatch_wait_us", median(&mut out.dispatch_wait_us));
    m.insert("exec.loop_frames_per_op", c(out, "loop.frames") / ops);
    m.insert("exec.loop_parks_per_op", c(out, "loop.parks") / ops);
    m.insert("shard.fanout_per_op", out.shard_requests as f64 / ops);
    m.insert(
        "shard.2pc_per_commit",
        c(out, "shard.2pc.committed") / commits,
    );

    // Tracing overhead: traced over untraced round values, per group.
    let ratios: Vec<f64> = Group::ALL
        .iter()
        .map(|&g| {
            let traced = median(&mut out.groups[1][g as usize]);
            let plain = median(&mut out.groups[0][g as usize]);
            if plain > 0.0 {
                traced / plain
            } else {
                0.0
            }
        })
        .collect();
    m.insert("obs.trace_overhead", geomean(&ratios));

    // Layer self times over the lookup group, whose blocking path is one
    // sequence of calls (closures fan out, so their spans overlap). The
    // whole they must add up to is the untraced rounds' figure: a span
    // around a 50 ns call would mostly time itself.
    let bench_op = median(&mut out.plain_lookup);
    m.insert("layer.bench_op_us", bench_op * 1e6);
    let mut selfs = Vec::new();
    match def.stack {
        StackKind::Tcp2 => {
            // Each layer below the router, called directly with the same
            // inputs (cache-hot, so a lower bound on its share).
            let db = TestDatabase::generate(cfg);
            let input_seed = input_seed(seed, 0);
            let mem = layers::mem_lookup_secs(&db, input_seed, read_inputs)?;
            let dispatch = layers::exec_dispatch_secs();
            let (sharded, inproc_jobs) = layers::sharded_lookup(&db, input_seed, read_inputs)?;
            let oids: Vec<_> = (1..=64).map(hypermodel::model::Oid).collect();
            let codec = layers::codec_secs(&oids);
            // What the program's own spans say the wire path took.
            let round_trips = median(&mut out.traced_round_trips);
            let client_call = median(&mut out.traced_client_call);
            let shard_self = (sharded - mem - dispatch * inproc_jobs).max(0.0);
            let codec_self = codec * round_trips;
            // One executor job serves each round trip on the server side.
            let exec_self = dispatch * round_trips;
            let server_self = (client_call - codec_self - exec_self - mem).max(0.0);
            m.insert("mem.op_ns", mem * 1e9);
            m.insert("exec.dispatch_us", dispatch * 1e6);
            m.insert("server.codec_ns", codec * 1e9);
            m.insert("shard.self_us", shard_self * 1e6);
            m.insert("layer.shard_us", shard_self * 1e6);
            m.insert("layer.server_us", server_self * 1e6);
            m.insert("layer.codec_us", codec_self * 1e6);
            m.insert("layer.exec_us", exec_self * 1e6);
            m.insert("layer.backend_us", mem * 1e6);
            selfs.extend([shard_self, server_self, codec_self, exec_self, mem]);
        }
        StackKind::Disk { cold: true, .. } => {
            // The warm re-run is the CPU path; what the cold run took
            // beyond it is page I/O.
            let warm = median(&mut out.warm_lookup);
            let io = (bench_op - warm).max(0.0);
            if out.cold_misses > 0 {
                let miss = (out.cold_secs - out.warm_secs).max(0.0) / out.cold_misses as f64;
                m.insert("storage.miss_us", miss * 1e6);
            }
            m.insert("layer.backend_us", warm * 1e6);
            m.insert("layer.storage_io_us", io * 1e6);
            selfs.extend([warm, io]);
        }
        StackKind::Mem | StackKind::Disk { .. } | StackKind::Rel { .. } => {
            // The store is the only layer under the call.
            if def.stack == StackKind::Mem {
                m.insert("mem.op_ns", bench_op * 1e9);
            }
            m.insert("layer.backend_us", bench_op * 1e6);
            selfs.push(bench_op);
        }
    }
    if bench_op > 0.0 {
        m.insert("layer.sum_ratio", selfs.iter().sum::<f64>() / bench_op);
    }
    Ok(m)
}
