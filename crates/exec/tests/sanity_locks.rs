//! Lock-order regression gate for the executor pool. Compiled only
//! under `RUSTFLAGS="--cfg sanity_check"`: runs real fan-out, detached
//! completion, and panic-poisoning workloads through the instrumented
//! shims, then asserts the detector recorded no order cycles and no
//! blocking channel use under a shard lock.
//!
//! This is the regression test for the send-under-lock hazard the shims
//! originally flagged in `exec::pool`: job results used to be sent on
//! the caller's one-shot channel while the shard mutex was still held.
//! The job type now takes the mutex itself and sends only after the
//! guard drops — any backslide re-reports here.
#![cfg(sanity_check)]

use exec::ShardExecutor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let manifest = dir.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("[workspace]")) {
            return dir;
        }
        assert!(dir.pop(), "no workspace root above CARGO_MANIFEST_DIR");
    }
}

/// `file:line:column` → `file:line` (static sites carry no column).
fn trim_col(site: &str) -> String {
    match site.rsplit_once(':') {
        Some((p, _)) => p.to_string(),
        None => site.to_string(),
    }
}

/// Every lock-order edge the instrumented run actually observed must
/// already be an edge of `hyperstatic`'s static lock graph: the static
/// analysis is an over-approximation, so a runtime edge it lacks means
/// the parser or call-graph linking lost a real acquisition path.
fn assert_static_graph_covers_runtime() {
    let static_pairs = sanity::static_graph::analyze(&workspace_root()).edge_site_pairs();
    assert!(
        !static_pairs.is_empty(),
        "static analysis found no lock edges at all — parser regression"
    );
    // With today's locking discipline the instrumented workloads never
    // nest shim locks, so this loop is usually empty; it bites the
    // moment a change introduces real nesting the parser cannot see.
    for (held, acq) in sanity::order::graph_edges() {
        let pair = (trim_col(&held), trim_col(&acq));
        assert!(
            static_pairs.contains(&pair),
            "runtime lock edge {held} -> {acq} missing from the static lock graph"
        );
    }
}

#[test]
fn executor_workloads_record_no_hazards() {
    sanity::order::reset();
    assert!(sanity::order::instrumented());

    let exec = Arc::new(ShardExecutor::new(vec![0u64; 4]));

    // Concurrent cross-shard fan-out from several client threads.
    let joins: Vec<_> = (0..3)
        .map(|t| {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                for round in 0..8u64 {
                    let mut batch = exec.batch();
                    for s in 0..4 {
                        batch.spawn(s, move |v: &mut u64| {
                            *v += round + t;
                            *v
                        });
                    }
                    for (_, r) in batch.join() {
                        r.expect("job result");
                    }
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("client thread");
    }

    // Detached completions (the event-loop reply path).
    let acc = Arc::new(AtomicU64::new(0));
    for s in 0..4 {
        let acc = Arc::clone(&acc);
        exec.submit_detached(
            s,
            |v: &mut u64| *v,
            move |v| {
                acc.fetch_add(v, Ordering::SeqCst);
            },
        )
        .expect("detached submit");
    }
    // Poison one shard and keep using the others.
    let h = exec
        .submit(2, |_: &mut u64| -> u64 { panic!("injected") })
        .expect("submit");
    h.wait().expect_err("panicked job");
    exec.with_shard(0, |v| *v).expect("shard 0");

    sanity::order::assert_clean();

    // Observed graph: export when SANITY_GRAPH_OUT is set (CI archives
    // it), and cross-check the static over-approximation.
    sanity::order::export_graph();
    assert_static_graph_covers_runtime();
}
