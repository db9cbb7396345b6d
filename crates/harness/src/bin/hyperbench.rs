//! `hyperbench` — regenerate every table and figure of the HyperModel
//! benchmark.
//!
//! ```text
//! hyperbench gen-stats [--level N]          # Figures 2–4 + §5.2 size table
//! hyperbench create   [--level N] [--backend B]   # §5.3 creation table
//! hyperbench run      [--level N] [--backend B] [--reps R] [--csv FILE] [--json FILE]
//!                     [--metrics FILE] [--skew zipf:S] [--rebalance]
//!                                            # §6 operation table (T-ops)
//! hyperbench ext      [--level N]            # §6.8 extension operations
//! hyperbench multiuser [--clients N]         # §7 multi-user experiment
//! hyperbench simple   [--persons N]          # §4 baseline (7 simple ops)
//! hyperbench remote   [--level N] [--reps R]  # R6 workstation/server experiment
//! hyperbench verify   [--level N] [--backend B]  # exhaustive load verification
//! hyperbench all      [--level N]            # everything above
//! ```
//!
//! `--backend` takes one spelling of [`harness::backend::BackendSpec`] (its rustdoc
//! states the grammar) or `all` (the default: `mem`, `disk` and `rel`).
//! Levels: 2–7 (default 4; the paper's sizes are 4, 5, 6).
//! Sharded runs additionally report per-shard placement balance and
//! request skew after the operation table.
//!
//! `run` also accepts `--faults <seed:plan>` (e.g. `--faults 42:lossy`)
//! to inject seeded, reproducible faults: the store is wrapped in a
//! chaos layer after loading, the `remote` backend's transport drops /
//! duplicates / delays frames per the plan, and the client retries under
//! a `RetryPolicy`. Retry and commit-abort counts are reported after the
//! table. Plans: `none`, `lossy`, `dupes`, `slow`, `flaky`,
//! `kill-replica`, `slow-replica`, `crash-before-commit`,
//! `crash-after-commit`, `crash-after-prepare`. On a replicated
//! `sharded-tcp:N:rK` run the transport faults target a *single* replica
//! connection (the first mirror of shard 0), so the run exercises
//! failover and repair rather than total outage.
//!
//! `run` further accepts `--skew zipf:<s>` (draw closure starts with a
//! Zipf distribution of exponent `s` instead of uniformly) and
//! `--rebalance` (after the benchmark, drive the skewed closure mix at a
//! fresh sharded-mem store, let the online rebalancer migrate hot
//! subtrees between windows, and report the before/after load imbalance
//! plus an oracle sweep — the rows land in the `--json` output under
//! `"rebalance"`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use concurrency::OccManager;
use harness::backend::{BackendSpec, DbFiles, ShardKind, GRAMMAR};
use harness::input::Workload;
use harness::multiuser::{run_multiuser_cc, CcMode, UpdateMix};
use harness::protocol::{run_all_ops, RunOptions};
use harness::report::{
    creation_csv, ops_csv, render_creation_table, render_ops_table, render_shard_balance,
    results_json, RunColumn,
};
use hypermodel::config::{GenConfig, SizeEstimate};
use hypermodel::error::Result;
use hypermodel::ext::{AccessControlledStore, AccessMode, DynamicSchemaStore, VersionedStore};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::store::HyperStore;
use hypermodel::text::{VERSION_1, VERSION_2};
use mem_backend::MemStore;
use parking_lot::Mutex;

struct Args {
    command: String,
    level: u32,
    backend: String,
    reps: usize,
    clients: usize,
    persons: u64,
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    metrics: Option<PathBuf>,
    pool_frames: usize,
    faults: Option<chaos::FaultPlan>,
    skew: Option<f64>,
    rebalance: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".into(),
        level: 4,
        backend: "all".into(),
        reps: 50,
        clients: 4,
        persons: 20_000,
        csv: None,
        json: None,
        metrics: None,
        pool_frames: 8192,
        faults: None,
        skew: None,
        rebalance: false,
    };
    fn usage_error(msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("usage: hyperbench <command> [--level N] [--backend B] [--reps N] [--clients N] [--persons N] [--pool N] [--csv FILE] [--json FILE] [--metrics FILE] [--faults SEED:PLAN] [--skew zipf:S] [--rebalance]");
        eprintln!("backends: {GRAMMAR}|all");
        std::process::exit(2);
    }
    let mut it = std::env::args().skip(1);
    if let Some(cmd) = it.next() {
        args.command = cmd;
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("flag {name} requires a value")))
        };
        fn numeric<T: std::str::FromStr>(name: &str, raw: &str) -> T {
            raw.parse().unwrap_or_else(|_| {
                usage_error(&format!("flag {name} expects a number, got `{raw}`"))
            })
        }
        match flag.as_str() {
            "--level" => args.level = numeric("--level", &value("--level")),
            "--backend" => args.backend = value("--backend"),
            "--reps" => args.reps = numeric("--reps", &value("--reps")),
            "--clients" => args.clients = numeric("--clients", &value("--clients")),
            "--persons" => args.persons = numeric("--persons", &value("--persons")),
            "--csv" => args.csv = Some(PathBuf::from(value("--csv"))),
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--pool" => args.pool_frames = numeric("--pool", &value("--pool")),
            "--faults" => {
                let spec = value("--faults");
                args.faults = Some(
                    chaos::FaultPlan::parse(&spec).unwrap_or_else(|e| usage_error(&e.to_string())),
                );
            }
            "--skew" => {
                let spec = value("--skew");
                let s: f64 = spec
                    .strip_prefix("zipf:")
                    .and_then(|raw| raw.parse().ok())
                    .filter(|s| (0.0..=8.0).contains(s))
                    .unwrap_or_else(|| {
                        usage_error(&format!(
                            "flag --skew expects zipf:<s> with 0 <= s <= 8, got `{spec}`"
                        ))
                    });
                args.skew = Some(s);
            }
            "--rebalance" => args.rebalance = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if args.level > 8 {
        usage_error(&format!(
            "--level {} is out of range (2..=8; level 8 is ~488k nodes already)",
            args.level
        ));
    }
    if args.level < 2 {
        usage_error("--level must be at least 2 (the closure operations need an internal level)");
    }
    args
}

fn backends(selected: &str) -> Vec<BackendSpec> {
    if selected == "all" {
        return vec![BackendSpec::Mem, BackendSpec::Disk, BackendSpec::Rel];
    }
    match selected.parse() {
        Ok(spec) => vec![spec],
        Err(reason) => {
            eprintln!("{reason}");
            std::process::exit(2);
        }
    }
}

fn cmd_gen_stats(level: u32) {
    println!("== Test-database generation (Figures 2-4, paper 5.2) ==\n");
    for l in [4u32, 5, 6, 7].into_iter().filter(|&l| l <= level.max(6)) {
        let cfg = GenConfig::level(l);
        let est = SizeEstimate::for_config(&cfg);
        println!(
            "level {l}: nodes={:>6}  internal={:>5}  text={:>6}  form={:>4}  est. size = {:>6.2} MB",
            cfg.total_nodes(),
            cfg.internal_nodes(),
            cfg.text_nodes(),
            cfg.form_nodes(),
            est.total() as f64 / (1024.0 * 1024.0),
        );
    }
    println!("\nGenerating level {level} and validating structure...");
    let t = Instant::now();
    let db = TestDatabase::generate(&GenConfig::level(level));
    let gen_time = t.elapsed();
    db.validate().expect("generated database must validate");
    let rel_1n: usize = db.children.iter().map(|c| c.len()).sum();
    let rel_mn: usize = db.parts.iter().map(|p| p.len()).sum();
    println!(
        "  generated {} nodes in {:.2}s; 1-N rels = {} (= nodes-1), M-N rels = {} (= nodes-1), refs = {} (= nodes)",
        db.len(),
        gen_time.as_secs_f64(),
        rel_1n,
        rel_mn,
        db.refs.len()
    );
    println!(
        "  level-3 closure size n = {} (paper: 6/31/156 for levels 4/5/6)",
        db.config
            .closure_size_from_level(3.min(db.config.leaf_level))
    );
}

fn cmd_create(level: u32, backend: &str, pool_frames: usize) -> Result<()> {
    println!("== Database creation times (paper 5.3) ==\n");
    let db = TestDatabase::generate(&GenConfig::level(level));
    let mut rows = Vec::new();
    for b in backends(backend) {
        let dep = b.deploy(&db, &std::env::temp_dir(), pool_frames, None)?;
        rows.push((b.to_string(), level, dep.load.timings, dep.stored_bytes));
    }
    println!("{}", render_creation_table(&rows));
    println!("{}", creation_csv(&rows));
    Ok(())
}

/// Scrape one listener's metrics registry over the wire: a real
/// [`server::protocol::Request::Stats`] round trip on a fresh TCP
/// connection, exactly what an external monitoring agent would do.
fn scrape_stats(addr: &str) -> Result<String> {
    use server::client::RemoteStore;
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| hypermodel::HmError::Backend(format!("connect {addr}: {e}")))?;
    let transport = server::transport::TcpTransport::new(stream)?;
    RemoteStore::new(Box::new(transport)).fetch_stats()
}

/// Assemble the `--metrics` report: the process-local registry export,
/// per-shard load snapshots, and per-listener registries scraped over
/// the Stats request.
fn metrics_json(
    local: &str,
    balances: &[(String, Vec<hypermodel::store::ShardLoad>)],
    scraped: &[(String, String)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"registry\": ");
    out.push_str(local);
    out.push_str(",\n  \"shard_load\": [");
    for (i, (backend, loads)) in balances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"backend\": \"{backend}\", \"shards\": ["
        ));
        for (j, l) in loads.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"shard\": {}, \"nodes\": {}, \"requests\": {}, \"migrated\": {}}}",
                l.shard, l.nodes, l.requests, l.migrated
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"scraped\": [");
    for (i, (addr, stats)) in scraped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"addr\": \"{addr}\", \"stats\": {stats}}}"
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn cmd_run(
    level: u32,
    backend: &str,
    reps: usize,
    pool_frames: usize,
    csv: Option<&PathBuf>,
    json: Option<&PathBuf>,
    metrics: Option<&PathBuf>,
    faults: Option<&chaos::FaultPlan>,
    skew: Option<f64>,
    rebalance: bool,
) -> Result<()> {
    println!("== Operation benchmark O1-O18 (paper 6), level {level}, {reps} reps ==\n");
    if let Some(plan) = faults {
        println!(
            "fault injection: plan `{}` seed {} (reproducible)\n",
            plan.name, plan.seed
        );
    }
    if let Some(s) = skew {
        println!("closure-start skew: zipf exponent {s}\n");
    }
    let db = TestDatabase::generate(&GenConfig::level(level));
    let mut columns = Vec::new();
    let mut balances = Vec::new();
    let mut resilience = Vec::new();
    let mut scraped = Vec::new();
    let mut rebalance_rows = Vec::new();
    let specs = backends(backend);
    for b in &specs {
        eprintln!("running {b} backend...");
        let mut dep = b.deploy(&db, &std::env::temp_dir(), pool_frames, faults)?;
        let mut workload = Workload::new(db.clone(), dep.load.oids.clone(), 0xBEEF);
        if let Some(s) = skew {
            workload = workload.with_skew(s);
        }
        let opts = RunOptions {
            reps,
            input_seed: 0xBEEF,
        };
        let measurements = run_all_ops(dep.store.as_mut(), &mut workload, opts)?;
        if let Some(loads) = dep.store.shard_balance() {
            balances.push((b.to_string(), loads));
        }
        if let Some(summary) = dep.store.resilience_summary() {
            resilience.push((b.to_string(), summary));
        }
        // Scrape each listener's registry over the wire while the
        // in-process server is still up.
        if metrics.is_some() {
            if let Some(srv) = dep.server() {
                for addr in srv.addr_strings() {
                    scraped.push((addr.clone(), scrape_stats(&addr)?));
                }
            }
        }
        columns.push(RunColumn {
            backend: b.to_string(),
            level,
            measurements,
        });
    }
    println!("{}", render_ops_table(&columns));
    for (b, loads) in &balances {
        println!("shard balance for {b} after the full run:");
        println!("{}", render_shard_balance(loads));
    }
    for (b, summary) in &resilience {
        println!("resilience for {b}: {summary}");
    }
    if rebalance {
        // The skew/rebalance experiment runs on a fresh store (the
        // benchmark loop above measures operations, not migrations):
        // drive the Zipf mix, let the rebalancer act between windows,
        // and sweep the result against the generator oracle.
        for b in &specs {
            let BackendSpec::Sharded {
                shards: ShardKind::Mem,
                n,
                placement,
                ..
            } = *b
            else {
                eprintln!("--rebalance: skipping {b} (needs a sharded-mem backend)");
                continue;
            };
            let row =
                harness::rebalance_pass(&db, n, placement.into(), skew.unwrap_or(0.0), 300, 4)?;
            println!("rebalance experiment: {row}");
            rebalance_rows.push(row);
        }
    }
    if let Some(json_path) = json {
        std::fs::write(json_path, results_json(&columns, &rebalance_rows)).map_err(|e| {
            hypermodel::HmError::Backend(format!("cannot write json {}: {e}", json_path.display()))
        })?;
        println!("json written to {}", json_path.display());
    }
    if let Some(metrics_path) = metrics {
        let local = obs::registry().snapshot().export_json();
        let report = metrics_json(&local, &balances, &scraped);
        std::fs::write(metrics_path, report).map_err(|e| {
            hypermodel::HmError::Backend(format!(
                "cannot write metrics {}: {e}",
                metrics_path.display()
            ))
        })?;
        println!("metrics written to {}", metrics_path.display());
    }
    if let Some(csv_path) = csv {
        let existing = std::fs::read_to_string(csv_path).unwrap_or_default();
        let body = ops_csv(&columns);
        let merged = if existing.is_empty() {
            body
        } else {
            // Append without repeating the header.
            let without_header: String = body.lines().skip(1).collect::<Vec<_>>().join("\n");
            format!("{existing}{without_header}\n")
        };
        std::fs::write(csv_path, merged).map_err(|e| {
            hypermodel::HmError::Backend(format!("cannot write csv {}: {e}", csv_path.display()))
        })?;
        println!("csv written to {}", csv_path.display());
    }
    Ok(())
}

fn cmd_ext(level: u32, pool_frames: usize) -> Result<()> {
    println!("== Extension operations (paper 6.8: R4 schema, R5 versions, R11 access) ==\n");
    let db = TestDatabase::generate(&GenConfig::level(level));
    let files = DbFiles::new(&std::env::temp_dir(), "ext");
    let mut store = disk_backend::DiskStore::create(files.path(), pool_frames)?;
    let report = load_database(&mut store, &db)?;
    let oids = report.oids;

    // (1) Schema modification, R4.
    let t = Instant::now();
    let draw = store.add_node_type("DrawNode", "Node")?;
    let circles = store.add_type_attribute("DrawNode", "circles", 0)?;
    let weight = store.add_type_attribute("Node", "weight", 1)?;
    store.commit()?;
    println!(
        "R4  add DrawNode type + 2 attributes (committed):    {:>10.3} ms (new kind code {})",
        t.elapsed().as_secs_f64() * 1e3,
        draw.0
    );
    let t = Instant::now();
    for oid in oids.iter().take(100) {
        store.set_dyn_attr(*oid, weight, 7)?;
    }
    store.commit()?;
    println!(
        "R4  set dynamic attribute on 100 nodes (committed):  {:>10.3} ms",
        t.elapsed().as_secs_f64() * 1e3
    );
    let _ = circles;

    // (2) Versions, R5.
    let text_oid = oids[db.text_indices()[0] as usize];
    let t = Instant::now();
    for _ in 0..50 {
        store.create_version(text_oid)?;
        store.text_node_edit(text_oid, VERSION_1, VERSION_2)?;
        store.create_version(text_oid)?;
        store.text_node_edit(text_oid, VERSION_2, VERSION_1)?;
    }
    store.commit()?;
    println!(
        "R5  100 create-version + edits (committed):          {:>10.3} ms",
        t.elapsed().as_secs_f64() * 1e3
    );
    let t = Instant::now();
    for _ in 0..100 {
        let _ = store.previous_version(text_oid)?;
    }
    println!(
        "R5  100 previous-version retrievals:                 {:>10.3} ms ({} versions stored)",
        t.elapsed().as_secs_f64() * 1e3,
        store.version_count(text_oid)?
    );

    // (3) Access control, R11.
    let doc_a = oids[db.children[0][0] as usize];
    let doc_b = oids[db.children[0][1] as usize];
    let t = Instant::now();
    let n_a = store.set_structure_access(doc_a, AccessMode::PublicRead)?;
    let n_b = store.set_structure_access(doc_b, AccessMode::PublicWrite)?;
    store.commit()?;
    println!(
        "R11 set access on two structures ({} + {} nodes):  {:>10.3} ms",
        n_a,
        n_b,
        t.elapsed().as_secs_f64() * 1e3
    );
    let read_ok = store.hundred_checked(doc_a).is_ok();
    let write_denied = store.set_hundred_checked(doc_a, 5).is_err();
    let cross_link_intact = !store.refs_to(doc_a)?.is_empty();
    println!(
        "R11 semantics: read-on-A={read_ok}, write-on-A-denied={write_denied}, cross-links-intact={cross_link_intact}"
    );
    Ok(())
}

fn cmd_multiuser(level: u32, clients: usize) -> Result<()> {
    println!("== Multi-user experiment (paper 7), {clients} clients ==\n");
    let db = TestDatabase::generate(&GenConfig::level(level));
    for cc in [CcMode::Optimistic, CcMode::Locking] {
        for mix in [UpdateMix::DisjointPartitions, UpdateMix::SharedHotSet] {
            let mut store = MemStore::new();
            let report = load_database(&mut store, &db)?;
            // Each client owns one level-1 subtree's closure.
            let partitions: Vec<Vec<Oid>> = (0..clients)
                .map(|c| {
                    let top = db.children[0][c % db.children[0].len()] as usize;
                    let mut nodes = vec![report.oids[top]];
                    nodes.extend(db.children[top].iter().map(|&k| report.oids[k as usize]));
                    nodes
                })
                .collect();
            let occ = Arc::new(OccManager::new());
            let result = run_multiuser_cc(
                Arc::new(Mutex::new(store)),
                Arc::clone(&occ),
                partitions,
                mix,
                cc,
                100,
            )?;
            println!(
                "{cc:<10?} {mix:<20?}: commits={} aborts={} abort-rate={:.1}% throughput={:.0} commits/s reads={}",
                result.commits,
                result.aborts,
                result.abort_rate() * 100.0,
                result.commit_throughput(),
                result.reads
            );
        }
    }
    println!(
        "\n(The paper: \"since the systems ... support optimistic concurrency control, it is a"
    );
    println!(
        " problem to define update operations that do not conflict\" — the SharedHotSet row.)"
    );
    Ok(())
}

fn cmd_simple(persons: u64, pool_frames: usize) -> storage::Result<()> {
    println!("== Simple database operations baseline (paper 4 / SIGMOD-87) ==\n");
    let cfg = simple_ops::SimpleConfig {
        persons,
        documents: persons / 4,
        authors_per_doc: 3,
        seed: 0x5349_4D50,
    };
    let files = DbFiles::new(&std::env::temp_dir(), "simple");
    let t = Instant::now();
    let mut db = simple_ops::SimpleDb::create(files.path(), pool_frames, cfg)?;
    println!(
        "create: {} persons, {} documents in {:.2}s ({} bytes on disk)",
        cfg.persons,
        cfg.documents,
        t.elapsed().as_secs_f64(),
        db.file_size()
    );
    let mut rng = hypermodel::rng::Rng::new(1);
    let reps = 50usize;

    type PhaseFn<'a> = &'a mut dyn FnMut(
        &mut simple_ops::SimpleDb,
        &mut hypermodel::rng::Rng,
    ) -> storage::Result<u64>;
    let mut phase =
        |db: &mut simple_ops::SimpleDb, name: &str, f: PhaseFn| -> storage::Result<()> {
            db.cold_restart()?;
            let mut nodes = 0u64;
            let t = Instant::now();
            for _ in 0..reps {
                nodes += f(db, &mut rng)?;
            }
            let cold = t.elapsed();
            let t = Instant::now();
            let mut rng2 = hypermodel::rng::Rng::new(1);
            let mut warm_nodes = 0u64;
            for _ in 0..reps {
                warm_nodes += f(db, &mut rng2)?;
            }
            let warm = t.elapsed();
            println!(
                "{name:<20} cold {:>9.4} ms/rec   warm {:>9.4} ms/rec",
                cold.as_secs_f64() * 1e3 / nodes.max(1) as f64,
                warm.as_secs_f64() * 1e3 / warm_nodes.max(1) as f64
            );
            Ok(())
        };

    let max_person = cfg.persons;
    let max_doc = cfg.documents;
    phase(&mut db, "1 nameLookup", &mut |db, rng| {
        db.name_lookup(rng.range_u64(1, max_person))?;
        Ok(1)
    })?;
    phase(&mut db, "2 rangeLookup (10%)", &mut |db, rng| {
        let x = rng.range_u32(1, 90);
        Ok(db.range_lookup(x, x + 9)?.len() as u64)
    })?;
    phase(&mut db, "3 groupLookup", &mut |db, rng| {
        Ok(db.group_lookup(rng.range_u64(1, max_doc))?.len() as u64)
    })?;
    phase(&mut db, "4 referenceLookup", &mut |db, rng| {
        Ok(db
            .reference_lookup(rng.range_u64(1, max_person))?
            .len()
            .max(1) as u64)
    })?;
    phase(&mut db, "5 recordInsert", &mut |db, rng| {
        db.record_insert(rng.range_u32(1, 100), "inserted-person")?;
        Ok(1)
    })?;
    // 6: sequential scan (single pass per phase).
    db.cold_restart()?;
    let t = Instant::now();
    let n = db.seq_scan()?;
    let cold = t.elapsed();
    let t = Instant::now();
    let _ = db.seq_scan()?;
    let warm = t.elapsed();
    println!(
        "{:<20} cold {:>9.4} ms/rec   warm {:>9.4} ms/rec",
        "6 seqScan",
        cold.as_secs_f64() * 1e3 / n as f64,
        warm.as_secs_f64() * 1e3 / n as f64
    );
    // 7: database open.
    drop(db);
    let t = Instant::now();
    let _db = simple_ops::SimpleDb::open(files.path(), pool_frames)?;
    println!(
        "{:<20} {:>14.3} ms",
        "7 databaseOpen",
        t.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_verify(level: u32, backend: &str, pool_frames: usize) -> Result<()> {
    println!("== Load verification against the generator ground truth ==\n");
    let db = TestDatabase::generate(&GenConfig::level(level));
    let mut all_ok = true;
    for b in backends(backend) {
        let mut dep = b.deploy(&db, &std::env::temp_dir(), pool_frames, None)?;
        let report = hypermodel::verify::verify_store(dep.store.as_mut(), &db, &dep.load.oids)?;
        print!("{:<5} level {level}: {report}", b.to_string());
        all_ok &= report.is_ok();
    }
    if !all_ok {
        return Err(hypermodel::HmError::Backend("verification failed".into()));
    }
    Ok(())
}

fn cmd_remote(level: u32, reps: usize) -> Result<()> {
    use server::client::RemoteStore;
    use server::server::serve;
    use server::transport::ChannelTransport;
    use std::time::Duration;

    println!("== Workstation/server experiment (R6/R7, paper 3.2 and 4) ==\n");
    println!("closure1N from level-3 nodes, {reps} reps; per-message latency simulated\n");
    println!(
        "{:<12} {:<14} {:>12} {:>14} {:>12}",
        "latency", "mode", "ms/op", "round trips", "ms/node"
    );
    println!("{}", "-".repeat(70));
    let db = TestDatabase::generate(&GenConfig::level(level));
    let closure_level = 3.min(db.config.leaf_level.saturating_sub(1));
    // The conceptual operation is one request; the navigational client
    // runs the same traversal on the workstation, one request per node.
    type Closure = fn(&mut RemoteStore, Oid) -> Result<Vec<Oid>>;
    let sides: [(&str, Closure); 2] = [
        ("server-side", |remote, start| remote.closure_1n(start)),
        ("client-side", |remote, start| {
            hypermodel::store::closure_1n(remote, start)
        }),
    ];
    for latency_us in [0u64, 100, 1000] {
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db)?;
        let level3: Vec<Oid> = db
            .level_indices(closure_level)
            .map(|i| report.oids[i as usize])
            .collect();
        let (client_end, mut server_end) =
            ChannelTransport::pair(Duration::from_micros(latency_us));
        let handle = std::thread::spawn(move || {
            let _ = serve(store, &mut server_end);
        });
        let mut remote = RemoteStore::new(Box::new(client_end));
        for (side, closure) in sides {
            let mut rng = hypermodel::rng::Rng::new(77);
            remote.reset_round_trips();
            let mut nodes = 0u64;
            let t = Instant::now();
            for _ in 0..reps {
                let start = *rng.choose(&level3);
                nodes += closure(&mut remote, start)?.len() as u64;
            }
            let elapsed = t.elapsed();
            println!(
                "{:<12} {:<14} {:>12.3} {:>14} {:>12.4}",
                format!("{latency_us} us"),
                side,
                elapsed.as_secs_f64() * 1e3 / reps as f64,
                remote.round_trips(),
                elapsed.as_secs_f64() * 1e3 / nodes as f64
            );
        }
        remote.shutdown()?;
        handle.join().expect("server thread");
    }
    println!("\n(Paper 4: conceptual operations on the server vs navigational round trips;");
    println!(" the crossover is immediate once any network latency exists.)");
    Ok(())
}

fn main() {
    let args = parse_args();
    let result: Result<()> = match args.command.as_str() {
        "gen-stats" => {
            cmd_gen_stats(args.level);
            Ok(())
        }
        "create" => cmd_create(args.level, &args.backend, args.pool_frames),
        "run" => cmd_run(
            args.level,
            &args.backend,
            args.reps,
            args.pool_frames,
            args.csv.as_ref(),
            args.json.as_ref(),
            args.metrics.as_ref(),
            args.faults.as_ref(),
            args.skew,
            args.rebalance,
        ),
        "ext" => cmd_ext(args.level, args.pool_frames),
        "multiuser" => cmd_multiuser(args.level, args.clients),
        "remote" => cmd_remote(args.level, args.reps.min(20)),
        "verify" => cmd_verify(args.level, &args.backend, args.pool_frames),
        "simple" => cmd_simple(args.persons, args.pool_frames)
            .map_err(|e| hypermodel::HmError::Backend(e.to_string())),
        "all" => (|| -> Result<()> {
            cmd_gen_stats(args.level);
            println!();
            cmd_create(args.level, &args.backend, args.pool_frames)?;
            println!();
            cmd_run(
                args.level,
                &args.backend,
                args.reps,
                args.pool_frames,
                args.csv.as_ref(),
                args.json.as_ref(),
                args.metrics.as_ref(),
                args.faults.as_ref(),
                args.skew,
                args.rebalance,
            )?;
            println!();
            cmd_ext(args.level, args.pool_frames)?;
            println!();
            cmd_multiuser(args.level, args.clients)?;
            println!();
            cmd_remote(args.level, 10)?;
            println!();
            cmd_verify(args.level, &args.backend, args.pool_frames)?;
            println!();
            cmd_simple(args.persons.min(5000), args.pool_frames)
                .map_err(|e| hypermodel::HmError::Backend(e.to_string()))
        })(),
        other => {
            eprintln!("unknown command {other}");
            eprintln!("commands: gen-stats | create | run | ext | multiuser | remote | verify | simple | all");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
