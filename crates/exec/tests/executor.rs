//! Executor-pool edge cases: panic isolation, graceful shutdown with
//! queued jobs, submit-after-shutdown, and work run on the calling
//! thread.

#![allow(
    clippy::disallowed_types,
    reason = "serializes tests on a process-wide counter, outside the code the lock detector watches"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use exec::{ExecError, ShardExecutor};
use hypermodel::error::HmError;

/// `exec.jobs` is one process-wide counter: the tests that run worker
/// jobs take turns with the one that asserts `run_here` leaves it alone.
static JOBS_COUNTER: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    JOBS_COUNTER.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn fan_out_runs_on_the_right_shards() {
    let _turn = turn();
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
    assert_eq!(exec.is_poisoned(4), Err(no_shard.clone()));
    assert_eq!(exec.replace_shard(4, 0), Err(no_shard));
}

#[test]
fn panicking_job_poisons_only_its_shard() {
    let _turn = turn();
    let exec = ShardExecutor::new(vec![0u64, 0]);
    let h = exec
        .submit(1, |_: &mut u64| -> u64 { panic!("injected job panic") })
        .unwrap();
    let err = h.wait().unwrap_err();
    assert_eq!(err, ExecError::Poisoned(1));
    assert_eq!(exec.is_poisoned(1), Ok(true));
    assert_eq!(exec.is_poisoned(0), Ok(false), "shard 0 is unaffected");

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
    let old = exec.replace_shard(1, 99).unwrap();
    assert_eq!(old, 0, "panicking job never wrote");
    assert_eq!(exec.is_poisoned(1), Ok(false));
    let h = exec.submit(1, |v: &mut u64| *v).unwrap();
    assert_eq!(h.wait().unwrap(), 99);
}

#[test]
fn shutdown_drains_jobs_already_queued() {
    let _turn = turn();
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
fn run_here_refuses_a_poisoned_shard() {
    let _turn = turn();
    let exec = ShardExecutor::new(vec![0u64, 0]);
    let h = exec
        .submit(1, |_: &mut u64| -> u64 { panic!("injected job panic") })
        .unwrap();
    assert_eq!(h.wait().unwrap_err(), ExecError::Poisoned(1));
    let ran = AtomicU64::new(0);
    let refused = exec.run_here(1, |_| ran.fetch_add(1, Ordering::SeqCst));
    assert_eq!(refused, Err(ExecError::Poisoned(1)));
    assert_eq!(ran.load(Ordering::SeqCst), 0, "`f` never ran");
    assert_eq!(exec.run_here(0, |v| *v), Ok(0), "shard 0 is unaffected");
    assert_eq!(exec.run_here(2, |v| *v), Err(ExecError::NoSuchShard(2)));
}

#[test]
fn run_here_panic_poisons_the_shard_instead_of_unwinding() {
    let exec = ShardExecutor::new(vec![0u64, 0]);
    let err = exec
        .run_here(0, |v: &mut u64| -> u64 {
            *v = 5;
            panic!("injected inline panic")
        })
        .unwrap_err();
    assert_eq!(err, ExecError::Poisoned(0));
    assert_eq!(exec.is_poisoned(0), Ok(true));
    assert_eq!(exec.is_poisoned(1), Ok(false), "shard 1 is unaffected");
    // The poison reaches the worker path too, and the mapping feeds the
    // sharded store's health tracking.
    let err = exec.submit(0, |v: &mut u64| *v).unwrap_err();
    assert_eq!(err, ExecError::Poisoned(0));
    assert!(matches!(
        err.into_hm(),
        HmError::ShardUnavailable { shard: 0, .. }
    ));
    // Replacement clears it on both paths.
    assert_eq!(
        exec.replace_shard(0, 9),
        Ok(5),
        "the write before the panic"
    );
    assert_eq!(exec.run_here(0, |v| *v), Ok(9));
}

#[test]
fn run_here_counts_no_job() {
    let _turn = turn();
    let jobs = obs::registry().counter("exec.jobs");
    let exec = ShardExecutor::new(vec![(), ()]);

    let before = jobs.get();
    for _ in 0..4 {
        exec.run_here(1, |_| ()).unwrap();
    }
    assert_eq!(jobs.get(), before, "`exec.jobs` counts queue hops only");

    // A queue hop counts.
    exec.submit(1, |_| ()).unwrap().wait().unwrap();
    assert_eq!(jobs.get(), before + 1);
}
