//! Lock-order regression gate for the executor pool. Compiled only
//! under `RUSTFLAGS="--cfg sanity_check"`: runs real fan-out and
//! panic-poisoning workloads through the instrumented shims, then
//! asserts the detector recorded no order cycles and no blocking
//! channel use under a shard lock.
//!
//! This is the regression test for the send-under-lock hazard the shims
//! originally flagged in `exec::pool`: job results used to be sent on
//! the caller's one-shot channel while the shard mutex was still held.
//! The job type now takes the mutex itself and sends only after the
//! guard drops — any backslide re-reports here.
#![cfg(sanity_check)]

use exec::ShardExecutor;
use std::sync::Arc;

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

    // Poison one shard and keep using the others.
    let h = exec
        .submit(2, |_: &mut u64| -> u64 { panic!("injected") })
        .expect("submit");
    h.wait().expect_err("panicked job");
    exec.with_shard(0, |v| *v).expect("shard 0");

    sanity::order::assert_clean();
}
