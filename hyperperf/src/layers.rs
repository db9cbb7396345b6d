//! Direct probes of single layers, run only in a traced run: each calls
//! the next layer down with the workload's own inputs, so a layer's self
//! time is its inclusive time minus what the layer below it took.

use std::hint::black_box;
use std::time::Instant;

use exec::ShardExecutor;
use harness::input::{OpInput, Workload};
use harness::protocol::execute_once;
use hypermodel::error::Result;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{Oid, RefEdge};
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use hypermodel::text::{VERSION_1, VERSION_2};
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use shard::ShardedStore;

use crate::check::{draw_inputs, plan_cases, Case, Ids};
use crate::stats::median;
use crate::workloads::Group;

/// Passes over the inputs per probe; the median pass is reported.
const PASSES: usize = 15;

/// Mean seconds per call over the lookup group: `PASSES` passes over the
/// cases' inputs, median pass.
pub fn lookup_secs(store: &mut dyn HyperStore, cases: &[Case]) -> Result<f64> {
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let mut calls = 0u64;
        let t = Instant::now();
        for case in cases.iter().filter(|c| Group::of(c.op) == Group::Lookup) {
            for (rep, &input) in case.inputs.iter().enumerate() {
                black_box(execute_once(store, case.op, input, rep, true)?);
                calls += 1;
            }
        }
        passes.push(t.elapsed().as_secs_f64() / calls.max(1) as f64);
    }
    Ok(median(&mut passes))
}

/// Load `db` into `store` and plan the same logical inputs the workload
/// drew (same input seed, this store's own object ids).
fn loaded_cases(
    store: &mut dyn HyperStore,
    db: &TestDatabase,
    input_seed: u64,
    inputs: usize,
) -> Result<Vec<Case>> {
    let ids = Ids::new(load_database(store, db)?.oids);
    let mut workload = Workload::new(db.clone(), ids.oids.clone(), input_seed);
    let drawn = draw_inputs(&mut workload, inputs, inputs);
    Ok(plan_cases(drawn, &Oracle::new(db), &ids))
}

/// `mem-backend` alone: the lookup group on a bare `MemStore`.
pub fn mem_lookup_secs(db: &TestDatabase, input_seed: u64, inputs: usize) -> Result<f64> {
    let mut store = MemStore::new();
    let cases = loaded_cases(&mut store, db, input_seed, inputs)?;
    lookup_secs(&mut store, &cases)
}

/// `shard` in-process: the lookup group on a two-shard
/// `ShardedStore<MemStore>`. Returns seconds per call and executor jobs
/// per call.
pub fn sharded_lookup(db: &TestDatabase, input_seed: u64, inputs: usize) -> Result<(f64, f64)> {
    let shards = vec![MemStore::new(), MemStore::new()];
    let mut store = ShardedStore::new(shards, shard::Placement::affinity(), "sharded-mem");
    let cases = loaded_cases(&mut store, db, input_seed, inputs)?;
    let jobs = obs::registry().counter("exec.jobs");
    let before = jobs.get();
    let secs = lookup_secs(&mut store, &cases)?;
    let calls: usize = cases
        .iter()
        .filter(|c| Group::of(c.op) == Group::Lookup)
        .map(|c| c.inputs.len())
        .sum();
    let per_call = (jobs.get() - before) as f64 / (calls * PASSES).max(1) as f64;
    Ok((secs, per_call))
}

/// `exec` alone: seconds for one `submit(noop).wait()` on a persistent
/// shard worker.
pub fn exec_dispatch_secs() -> f64 {
    const JOBS: usize = 2000;
    let mut pool = ShardExecutor::new(vec![(), ()]);
    let mut samples = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let t = Instant::now();
        let done = pool.submit(i % 2, |_| ()).map(|job| job.wait());
        samples.push(t.elapsed().as_secs_f64());
        debug_assert!(matches!(done, Ok(Ok(()))));
    }
    pool.shutdown();
    median(&mut samples)
}

/// `server` codec alone: seconds to encode and decode the request and
/// the response of one round trip, averaged over the lookup group's
/// frames (the shapes a point operation puts on the wire).
pub fn codec_secs(oids: &[Oid]) -> f64 {
    let o = |i: usize| oids[i % oids.len()];
    let edge = |i: usize| RefEdge {
        target: o(i),
        offset_from: 3,
        offset_to: 7,
    };
    let kids = |i: usize| (0..5).map(|k| o(i + k)).collect::<Vec<_>>();
    let frames: Vec<(Request, Response)> = (0..64usize)
        .flat_map(|i| {
            [
                (Request::LookupUnique(i as u64 + 1), Response::Oid(o(i))),
                (Request::HundredOf(o(i)), Response::U32(42)),
                (Request::Children(o(i)), Response::Oids(kids(i))),
                (Request::Parts(o(i)), Response::Oids(kids(i + 1))),
                (Request::RefsTo(o(i)), Response::Edges(vec![edge(i)])),
                (Request::Parent(o(i)), Response::OptOid(Some(o(i + 2)))),
                (Request::PartOf(o(i)), Response::Oids(vec![o(i + 3)])),
                (Request::RefsFrom(o(i)), Response::Edges(vec![edge(i + 4)])),
            ]
        })
        .collect();
    let mut buf = Vec::with_capacity(256);
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        for (req, resp) in &frames {
            buf.clear();
            req.encode_into(&mut buf);
            black_box(Request::decode(&buf).is_ok());
            buf.clear();
            resp.encode_into(&mut buf);
            black_box(Response::decode(&buf).is_ok());
        }
        passes.push(t.elapsed().as_secs_f64() / frames.len() as f64);
    }
    median(&mut passes)
}

/// `disk-backend` / `rel-backend` write side: the edit call and its
/// `commit()` timed separately over the text-edit inputs, forward then
/// back so the database ends as it started. Returns median seconds
/// `(apply, commit)`.
pub fn edit_split(store: &mut dyn HyperStore, case: &Case) -> Result<(f64, f64)> {
    let (mut apply, mut commit) = (Vec::new(), Vec::new());
    for (from, to) in [(VERSION_1, VERSION_2), (VERSION_2, VERSION_1)] {
        for &input in &case.inputs {
            let OpInput::Node(oid) = input else { continue };
            let t = Instant::now();
            store.text_node_edit(oid, from, to)?;
            apply.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            store.commit()?;
            commit.push(t.elapsed().as_secs_f64());
        }
    }
    Ok((median(&mut apply), median(&mut commit)))
}
