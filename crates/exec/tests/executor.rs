//! Executor-pool edge cases: panic isolation, graceful shutdown with
//! queued jobs, submit-after-shutdown, and deadline misses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use exec::{ExecError, ShardExecutor};
use hypermodel::error::HmError;

#[test]
fn fan_out_runs_on_the_right_shards() {
    let exec = ShardExecutor::new(vec![10u64, 20, 30, 40]);
    let mut batch = exec.batch();
    for s in 0..4 {
        batch.spawn(s, |v: &mut u64| {
            *v += 1;
            *v
        });
    }
    let results: Vec<u64> = batch.join().into_iter().map(|(_, r)| r.unwrap()).collect();
    assert_eq!(results, vec![11, 21, 31, 41]);
    assert_eq!(exec.with_shard(2, |v| *v), Ok(31), "mutation persisted");
    // A shard the executor does not have is an error on every entry point.
    let no_shard = ExecError::NoSuchShard(4);
    assert_eq!(exec.with_shard(4, |v| *v), Err(no_shard.clone()));
    assert_eq!(exec.submit(4, |v| *v).map(|_| ()), Err(no_shard.clone()));
    assert_eq!(exec.submit_detached(4, |v| *v, |_| ()), Err(no_shard));
}

#[test]
fn panicking_job_poisons_only_its_shard() {
    let exec = ShardExecutor::new(vec![0u64, 0]);
    let h = exec
        .submit(1, |_: &mut u64| -> u64 { panic!("injected job panic") })
        .unwrap();
    let err = h.wait().unwrap_err();
    assert_eq!(err, ExecError::Poisoned(1));
    assert!(exec.is_poisoned(1));
    assert!(!exec.is_poisoned(0), "shard 0 is unaffected");

    // Submissions to the poisoned shard fail fast, without enqueueing.
    let err = exec.submit(1, |v: &mut u64| *v).unwrap_err();
    assert_eq!(err, ExecError::Poisoned(1));
    // And the mapping feeds the sharded store's health tracking.
    assert!(matches!(
        err.into_hm(),
        HmError::ShardUnavailable { shard: 1, .. }
    ));

    // The healthy shard keeps working on the same executor.
    let h = exec.submit(0, |v: &mut u64| {
        *v = 7;
        *v
    });
    assert_eq!(h.unwrap().wait().unwrap(), 7);

    // Replacing the backend clears the poison and revives the shard.
    let old = exec.replace_shard(1, 99);
    assert_eq!(old, 0, "panicking job never wrote");
    assert!(!exec.is_poisoned(1));
    let h = exec.submit(1, |v: &mut u64| *v).unwrap();
    assert_eq!(h.wait().unwrap(), 99);
}

#[test]
fn shutdown_drains_jobs_already_queued() {
    let counter = Arc::new(AtomicU64::new(0));
    let mut exec = ShardExecutor::new(vec![()]);
    // Head job blocks the worker long enough for the rest to be *queued*
    // (not running) when shutdown begins.
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let counter = Arc::clone(&counter);
            exec.submit(0, move |_: &mut ()| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                counter.fetch_add(1, Ordering::SeqCst) + 1
            })
            .unwrap()
        })
        .collect();
    exec.shutdown();
    assert_eq!(counter.load(Ordering::SeqCst), 16, "every queued job ran");
    // All results are still collectable after shutdown, in FIFO order.
    let seen: Vec<u64> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    assert_eq!(seen, (1..=16).collect::<Vec<u64>>());
}

#[test]
fn submit_after_shutdown_reports_shutdown() {
    let mut exec = ShardExecutor::new(vec![0u64, 0]);
    exec.shutdown();
    for s in 0..2 {
        let err = exec.submit(s, |v: &mut u64| *v).unwrap_err();
        assert_eq!(err, ExecError::Shutdown);
    }
    // Shutdown is idempotent, and Drop after shutdown is a no-op.
    exec.shutdown();
    // Batch spawns record the failure per job instead of panicking.
    let mut batch = exec.batch();
    batch.spawn(0, |v: &mut u64| *v);
    let joined = batch.join();
    assert_eq!(joined.len(), 1);
    assert_eq!(joined[0].1, Err(ExecError::Shutdown));
}

#[test]
fn deadline_miss_reports_timed_out_but_job_still_runs() {
    let exec = ShardExecutor::new(vec![Arc::new(AtomicU64::new(0))]);
    let h = exec
        .submit(0, |v: &mut Arc<AtomicU64>| {
            std::thread::sleep(Duration::from_millis(80));
            v.store(1, Ordering::SeqCst);
        })
        .unwrap();
    let err = h.wait_within(Duration::from_millis(5)).unwrap_err();
    assert_eq!(err, ExecError::TimedOut(0));
    assert!(matches!(err.into_hm(), HmError::Timeout(_)));

    // FIFO survives the abandonment: a follow-up job sees the slow job's
    // effect, proving it completed on the worker.
    let h = exec
        .submit(0, |v: &mut Arc<AtomicU64>| v.load(Ordering::SeqCst))
        .unwrap();
    assert_eq!(h.wait().unwrap(), 1);
}

#[test]
fn batch_join_within_shares_one_deadline() {
    let exec = ShardExecutor::new(vec![0u8, 0, 0]);
    let mut batch = exec.batch();
    for s in 0..3 {
        batch.spawn(s, move |_: &mut u8| {
            if s == 1 {
                std::thread::sleep(Duration::from_millis(100));
            }
            s
        });
    }
    let joined = batch.join_within(Duration::from_millis(30));
    assert_eq!(joined[0].1, Ok(0));
    assert_eq!(joined[1].1, Err(ExecError::TimedOut(1)));
    assert_eq!(
        joined[2].1,
        Ok(2),
        "fast shards are unaffected by the slow one"
    );
}
