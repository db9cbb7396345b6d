//! Self-tests for the lock-order / channel-hazard detector.
//!
//! These only make sense against the instrumented shims, so the whole
//! file is compiled away unless built with
//! `RUSTFLAGS="--cfg sanity_check"`. Detector state is global, so the
//! tests serialize on a plain std mutex and reset between scenarios.
#![cfg(sanity_check)]

use sanity::order::{self, Violation};
use sanity::sync::{mpsc, Condvar, Mutex};
use std::sync::Arc;

/// Global detector state means the scenarios must not overlap.
static SCENARIO: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn isolated<R>(f: impl FnOnce() -> R) -> R {
    let _g = SCENARIO.lock().unwrap_or_else(|p| p.into_inner());
    order::reset();
    let out = f();
    order::reset();
    out
}

#[test]
fn abba_cycle_is_reported_with_both_sites() {
    let (cycles, others): (Vec<_>, Vec<_>) = isolated(|| {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records a -> b
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // records b -> a: closes the cycle
        }
        order::take_violations()
    })
    .into_iter()
    .partition(|v| matches!(v, Violation::OrderCycle { .. }));

    assert_eq!(cycles.len(), 1, "exactly one cycle expected: {cycles:?}");
    assert!(others.is_empty(), "unexpected extra violations: {others:?}");
    // The report must carry both acquisition sites, pointing at this file.
    let text = cycles[0].to_string();
    assert!(
        text.matches("detector.rs").count() >= 2,
        "cycle report should name both acquisition sites: {text}"
    );
    match &cycles[0] {
        Violation::OrderCycle { cycle, .. } => {
            assert_eq!(cycle.len(), 2, "A-B cycle has two locks: {cycle:?}")
        }
        other => panic!("expected OrderCycle, got {other}"),
    }
}

#[test]
fn recursive_acquisition_is_a_self_cycle() {
    // A recursive lock() would genuinely deadlock, so the self-edge rule
    // is exercised at the graph level rather than through the shim.
    let mut g = sanity::order::OrderGraph::new();
    let site = std::panic::Location::caller();
    assert_eq!(g.record(7, site, 7, site), Some(vec![7]));
}

#[test]
fn blocking_send_under_lock_is_reported() {
    let violations = isolated(|| {
        let m = Mutex::new(0u32);
        let (tx, rx) = mpsc::channel::<u32>();
        {
            let _g = m.lock();
            tx.send(7).unwrap();
        }
        assert_eq!(rx.recv().unwrap(), 7);
        order::take_violations()
    });
    assert_eq!(violations.len(), 1, "one hazard expected: {violations:?}");
    assert!(
        matches!(violations[0], Violation::LockAcrossSend { .. }),
        "expected LockAcrossSend: {violations:?}"
    );
    assert!(violations[0].to_string().contains("detector.rs"));
}

#[test]
fn blocking_recv_under_lock_is_reported() {
    let violations = isolated(|| {
        let m = Mutex::new(0u32);
        let (tx, rx) = mpsc::channel::<u32>();
        tx.send(7).unwrap();
        {
            let _g = m.lock();
            assert_eq!(rx.recv().unwrap(), 7);
        }
        order::take_violations()
    });
    assert_eq!(violations.len(), 1, "one hazard expected: {violations:?}");
    assert!(matches!(violations[0], Violation::LockAcrossRecv { .. }));
}

/// Wait on `gate`'s condvar until a helper thread raises its flag. The
/// caller's lock on `gate` is taken before the helper starts, so the
/// helper can only raise the flag once the wait has released it: the
/// wait runs at least once.
fn wait_for_helper(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let mut raised = gate.0.lock();
    let helper = {
        let gate = Arc::clone(gate);
        std::thread::spawn(move || {
            *gate.0.lock() = true;
            gate.1.notify_all();
        })
    };
    while !*raised {
        gate.1.wait(&mut raised);
    }
    drop(raised);
    helper.join().unwrap();
}

#[test]
fn condvar_wait_holding_a_second_lock_is_reported() {
    let violations = isolated(|| {
        let a = Arc::new((Mutex::new(false), Condvar::new()));
        let b = Mutex::new(0u32);
        let _gb = b.lock();
        wait_for_helper(&a);
        order::take_violations()
    });
    assert_eq!(violations.len(), 1, "one hazard expected: {violations:?}");
    assert!(
        matches!(violations[0], Violation::LockAcrossRecv { .. }),
        "a wait is a blocking receive: {violations:?}"
    );
}

#[test]
fn condvar_wait_holding_only_its_own_lock_is_clean() {
    isolated(|| {
        let a = Arc::new((Mutex::new(false), Condvar::new()));
        wait_for_helper(&a);
        order::assert_clean();
    });
}

#[test]
fn allow_scope_suppresses_reviewed_patterns() {
    let violations = isolated(|| {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let (tx, rx) = mpsc::channel::<u32>();
        {
            let _ok = order::allow("test: reviewed-benign ABBA and send-under-lock");
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _ga = a.lock();
                tx.send(1).unwrap();
            }
        }
        assert_eq!(rx.recv().unwrap(), 1);
        // The allow scope has ended: the same shapes report again.
        {
            let _ga = a.lock();
            tx.send(2).unwrap();
        }
        let v = order::take_violations();
        assert_eq!(rx.recv().unwrap(), 2);
        v
    });
    assert_eq!(
        violations.len(),
        1,
        "only the post-allow hazard reports: {violations:?}"
    );
    assert!(matches!(violations[0], Violation::LockAcrossSend { .. }));
}

#[test]
fn consistent_ordering_and_unlocked_channels_stay_clean() {
    isolated(|| {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (tx, rx) = mpsc::channel::<u32>();
        let mut joins = Vec::new();
        for i in 0..4u32 {
            let (a, b, tx) = (a.clone(), b.clone(), tx.clone());
            joins.push(std::thread::spawn(move || {
                // Everyone takes a before b: no reversal to report.
                let va = {
                    let mut ga = a.lock();
                    *ga += i;
                    let mut gb = b.lock();
                    *gb += i;
                    *ga
                };
                // Send happens with no lock held.
                tx.send(va).unwrap();
            }));
        }
        drop(tx);
        while rx.recv().is_ok() {}
        for j in joins {
            j.join().unwrap();
        }
        order::assert_clean();
    });
}

#[test]
fn try_and_timed_channel_ops_are_exempt() {
    isolated(|| {
        let m = Mutex::new(0u32);
        let (tx, rx) = mpsc::sync_channel::<u32>(4);
        {
            let _g = m.lock();
            tx.try_send(1).unwrap();
            assert_eq!(rx.try_recv().unwrap(), 1);
            tx.try_send(2).unwrap();
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10))
                    .unwrap(),
                2
            );
        }
        order::assert_clean();
    });
}
