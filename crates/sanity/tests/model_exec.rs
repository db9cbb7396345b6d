//! Deterministic-scheduler models of the executor dispatch protocol
//! (`exec::ShardExecutor`). These run in every build — the models use
//! `sanity::dsched` directly and need no instrumentation cfg.
//!
//! Two properties are checked across every explored interleaving:
//!
//! * dispatch loses no job and runs none twice, for every schedule of
//!   producer vs. worker;
//! * a panicking job publishes the poison flag *before* its result
//!   channel closes, so the waiter always classifies `Poisoned` — and
//!   the reversed (pre-fix) ordering is caught by the explorer.

use sanity::dsched::{Explorer, FailureKind, Sim, TryRecv};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const JOBS: usize = 3;

/// The worker loop from `exec::pool`: drain the queue until every
/// sender is gone, run each job exactly once.
fn dispatch_model(sim: &Sim) {
    let (tx, rx) = sim.channel::<usize>(None);
    let ran = sim.mutex(vec![0usize; JOBS]);
    let worker_ran = ran.clone();
    let worker = sim.spawn(move || {
        while let Some(job) = rx.recv() {
            worker_ran.lock()[job] += 1;
        }
    });
    for job in 0..JOBS {
        assert!(tx.send(job), "worker exited while senders remain");
    }
    drop(tx);
    worker.join();
    let counts = ran.lock().clone();
    for (job, n) in counts.iter().enumerate() {
        assert_eq!(*n, 1, "job {job} ran {n} times");
    }
}

#[test]
fn dispatch_never_loses_or_duplicates_jobs() {
    let report = Explorer::exhaustive().explore(dispatch_model);
    report.assert_ok();
    assert!(
        report.distinct > 1,
        "expected multiple interleavings, got {}",
        report.distinct
    );
}

/// A worker that polls with `try_recv` and gives up on `Empty` — the
/// classic lost-job bug. The explorer must find the schedule where the
/// worker polls before the producer has sent.
#[test]
fn lost_job_interleaving_is_reported() {
    let report = Explorer::exhaustive().explore(|sim| {
        let (tx, rx) = sim.channel::<usize>(None);
        let ran = sim.mutex(0usize);
        let worker_ran = ran.clone();
        let worker = sim.spawn(move || {
            // BUG: an empty queue is not a drained queue.
            while let TryRecv::Value(_) = rx.try_recv() {
                *worker_ran.lock() += 1;
            }
        });
        tx.send(0);
        drop(tx);
        worker.join();
        assert_eq!(*ran.lock(), 1, "job was lost");
    });
    assert!(
        !report.failures.is_empty(),
        "explorer missed the lost-job schedule ({} runs)",
        report.runs
    );
    let f = &report.failures[0];
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("job was lost"), "message: {}", f.message);
    assert!(!f.trace.is_empty(), "failure must carry a replay trace");
}

/// Model of the panicking-job protocol in `exec::pool::submit`: the
/// worker publishes poison, then closes the caller's one-shot result
/// channel. `fixed` controls the ordering; the waiter classifies a
/// closed channel as `Poisoned` only if the flag is already visible.
fn poison_model(sim: &Sim, fixed: bool) {
    let poison = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = sim.channel::<()>(None);
    let worker_poison = poison.clone();
    let sim2 = sim.clone();
    let worker = sim.spawn(move || {
        // The job panicked. Publish and shut the result channel.
        if fixed {
            worker_poison.store(1, Ordering::SeqCst);
            sim2.schedule_point();
            drop(done_tx);
        } else {
            drop(done_tx);
            sim2.schedule_point();
            worker_poison.store(1, Ordering::SeqCst);
        }
    });
    // The waiter: a closed channel with no poison reads as clean
    // shutdown — the wrong verdict for a panicked job.
    let got = done_rx.recv();
    assert!(got.is_none());
    assert_eq!(
        poison.load(Ordering::SeqCst),
        1,
        "waiter classified Shutdown for a poisoned shard"
    );
    worker.join();
}

#[test]
fn poison_before_close_is_classified_in_every_schedule() {
    Explorer::exhaustive()
        .explore(|sim| poison_model(sim, true))
        .assert_ok();
}

#[test]
fn close_before_poison_misclassifies_and_is_caught() {
    let report = Explorer::exhaustive().explore(|sim| poison_model(sim, false));
    assert!(
        !report.failures.is_empty(),
        "explorer missed the misclassification window ({} runs)",
        report.runs
    );
    assert!(report.failures[0]
        .message
        .contains("classified Shutdown for a poisoned shard"));
}

/// Random mode replays deterministically for a fixed seed — the same
/// schedules, the same verdicts.
#[test]
fn random_mode_is_reproducible_on_the_models() {
    let runs = |seed| {
        let r = Explorer::random(seed, 40).explore(dispatch_model);
        (r.runs, r.distinct, r.failures.len())
    };
    assert_eq!(runs(11), runs(11));
}
