//! Deterministic-scheduler model of the online subtree migration in
//! `shard::ShardedStore`: inert install, one-step activation (the
//! commit point), router ownership flip, and retire-to-stand-in on the
//! source — against concurrent full scans.
//!
//! The property the protocol stakes its correctness on, asserted across
//! every explored interleaving of migration × scanner: **scans count
//! every node at exactly one placement.** The window where both the
//! source record and the activated destination copy exist is hidden by
//! the canonical filter (a record only counts where the router's
//! directory says the node lives). The window is not only a concurrent
//! one: a retire that fails after the commit point leaves both records
//! active until repair, and every scan in between sees both.
//!
//! Concurrent point reads are not modelled. Every `ShardedStore` call takes
//! `&mut self`, so a read looks its node up in the router's directory
//! and finishes before a migration can start, and no reader can hold a
//! placement that a migration has since replaced.
//!
//! The buggy variant the model exists to catch: a scan that skips the
//! canonical filter (double-counts mid-migration).

use sanity::dsched::{Explorer, Sim, SimSender};

/// Shards in the model: node 0 stays on shard 0, the "subtree"
/// {1, 2} migrates from shard 0 to shard 1.
const SHARDS: usize = 2;
const NODES: usize = 3;
const SUBTREE: [usize; 2] = [1, 2];

fn value_of(node: usize) -> u64 {
    node as u64 * 10 + 7
}

enum Job {
    /// Point read of a node by id: its value if the record is active.
    Read(usize, SimSender<Option<u64>>),
    /// Scan: count records this shard serves, filtered against the
    /// directory the scan was started with.
    Scan([usize; NODES], SimSender<usize>),
    /// Export the subtree's values (migration step 1).
    Export(Vec<usize>, SimSender<Vec<u64>>),
    /// Install records **inert**: present but outside the scan extent.
    Install(Vec<(usize, u64)>, SimSender<()>),
    /// Activate installed records — the migration's commit point.
    Activate(Vec<usize>, SimSender<()>),
    /// Retire records: they leave the scan extent but stay as stand-ins.
    Retire(Vec<usize>, SimSender<()>),
}

#[derive(Clone, Copy)]
struct Rec {
    value: u64,
    active: bool,
}

/// One modeled run. `canonical_scan` selects the implementation under
/// test: the shipped protocol filters; without the filter is the bug
/// class the property must catch.
fn migration_model(sim: &Sim, canonical_scan: bool) {
    // The router's placement directory, shared like the real
    // `ShardRouter` behind the store lock.
    let router = sim.mutex([0usize; NODES]);

    // --- One FIFO worker per shard, standing in for the executor.
    let mut joins = Vec::new();
    let mut queues = Vec::new();
    for m in 0..SHARDS {
        let (tx, rx) = sim.channel::<Job>(None);
        queues.push(tx);
        joins.push(sim.spawn(move || {
            // Shard 0 boots owning every node; shard 1 empty.
            let mut recs: Vec<Option<Rec>> = (0..NODES)
                .map(|n| {
                    (m == 0).then_some(Rec {
                        value: value_of(n),
                        active: true,
                    })
                })
                .collect();
            while let Some(job) = rx.recv() {
                match job {
                    Job::Read(n, reply) => {
                        // Inert and retired records are invisible to lookups.
                        reply.send(recs[n].filter(|r| r.active).map(|r| r.value));
                    }
                    Job::Scan(owners, reply) => {
                        let count = recs
                            .iter()
                            .enumerate()
                            .filter(|&(n, r)| {
                                r.is_some_and(|r| r.active) && (!canonical_scan || owners[n] == m)
                            })
                            .count();
                        reply.send(count);
                    }
                    Job::Export(ns, reply) => {
                        reply.send(
                            ns.iter()
                                .map(|&n| recs[n].expect("exporting an owned node").value)
                                .collect(),
                        );
                    }
                    Job::Install(batch, reply) => {
                        for (n, value) in batch {
                            recs[n] = Some(Rec {
                                value,
                                active: false,
                            });
                        }
                        reply.send(());
                    }
                    Job::Activate(ns, reply) => {
                        for n in ns {
                            if let Some(r) = recs[n].as_mut() {
                                r.active = true;
                            }
                        }
                        reply.send(());
                    }
                    Job::Retire(ns, reply) => {
                        for n in ns {
                            if let Some(r) = recs[n].as_mut() {
                                r.active = false;
                            }
                        }
                        reply.send(());
                    }
                }
            }
        }));
    }

    // --- The migration driver: export -> inert install -> activate
    // (commit point) -> router flip -> retire, each step through the
    // owning shard's FIFO exactly like `migrate_subtree`.
    let migration = {
        let sim = sim.clone();
        let router = router.clone();
        let queues: Vec<SimSender<Job>> = queues.clone();
        sim.clone().spawn(move || {
            let (tx, rx) = sim.channel::<Vec<u64>>(None);
            queues[0].send(Job::Export(SUBTREE.to_vec(), tx));
            let values = rx.recv().expect("export reply");

            let (tx, rx) = sim.channel::<()>(None);
            let batch: Vec<(usize, u64)> = SUBTREE.iter().copied().zip(values).collect();
            queues[1].send(Job::Install(batch, tx));
            rx.recv().expect("install reply");

            let (tx, rx) = sim.channel::<()>(None);
            queues[1].send(Job::Activate(SUBTREE.to_vec(), tx));
            rx.recv().expect("activate reply");

            {
                let mut owners = router.lock();
                for n in SUBTREE {
                    owners[n] = 1;
                }
            }

            let (tx, rx) = sim.channel::<()>(None);
            queues[0].send(Job::Retire(SUBTREE.to_vec(), tx));
            rx.recv().expect("retire reply");
        })
    };

    // --- A concurrent scanner: fan out to both shards, sum. Exactness
    // is the exactly-one-placement invariant. The scan holds the store
    // lock, as `ShardedStore`'s `&mut self` does, so the whole scan
    // filters against one directory; the shards' own migration steps
    // still interleave with it.
    let scanner = {
        let sim = sim.clone();
        let router = router.clone();
        let queues: Vec<SimSender<Job>> = queues.clone();
        sim.clone().spawn(move || {
            let owners = router.lock();
            let mut total = 0;
            for q in &queues {
                let (tx, rx) = sim.channel::<usize>(None);
                q.send(Job::Scan(*owners, tx));
                total += rx.recv().expect("scan reply");
            }
            assert_eq!(
                total, NODES,
                "scan must count every node at exactly one placement"
            );
        })
    };

    migration.join();
    scanner.join();

    // --- Final audit: the move committed. The directory names the
    // destination for every moved node, and the destination serves it.
    assert_eq!(
        *router.lock(),
        [0, 1, 1],
        "directory must name the destination"
    );
    for n in SUBTREE {
        let (tx, rx) = sim.channel::<Option<u64>>(None);
        queues[1].send(Job::Read(n, tx));
        assert_eq!(
            rx.recv(),
            Some(Some(value_of(n))),
            "destination must serve the migrated node"
        );
    }

    drop(queues);
    for j in joins {
        j.join();
    }
}

/// The shipped protocol: across every explored interleaving of the
/// five migration steps with a concurrent scan, the scan counts each
/// node once.
#[test]
fn migration_is_invisible_to_concurrent_scans() {
    let report = Explorer::exhaustive()
        .preemption_bound(1)
        .max_schedules(8_000)
        .explore(|sim| migration_model(sim, true));
    println!("{}", report.summary("migration"));
    report.assert_ok();
    assert!(
        report.distinct >= 100,
        "expected a substantial schedule space, explored {}",
        report.distinct
    );
    // Guard the exploration itself, not just the invariants: at least
    // one preemption must have been exercised and the decision tree
    // must have real depth, or the model has degenerated.
    assert!(
        report.max_preemptions >= 1,
        "no schedule used a preemption: {}",
        report.summary("migration")
    );
    assert!(
        report.max_depth >= 8,
        "decision tree is implausibly shallow: {}",
        report.summary("migration")
    );
}

/// The bug class: scans without the canonical filter. Between activation
/// and retire both placements hold an active record; some interleaving
/// runs a scan inside that window and double-counts.
#[test]
fn without_the_canonical_filter_scans_double_count() {
    let report = Explorer::exhaustive()
        .preemption_bound(1)
        .max_schedules(8_000)
        .explore(|sim| migration_model(sim, false));
    assert!(
        !report.failures.is_empty(),
        "explorer missed the double-count ({} runs)",
        report.runs
    );
    assert!(
        report.failures[0].message.contains("exactly one placement"),
        "unexpected failure: {}",
        report.failures[0].message
    );
}
