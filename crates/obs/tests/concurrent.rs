//! Concurrent-writer consistency: snapshots taken while writer threads
//! hammer counters and histograms must never tear — totals only move
//! forward, and a histogram's bucket mass never falls behind its count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// Registry::new is crate-private; hammer the global one under unique
// metric names so parallel tests don't interfere.
fn unique(name: &str) -> String {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    format!("test.{}.{}", name, SEQ.fetch_add(1, Ordering::Relaxed))
}

#[test]
fn counter_snapshots_are_monotone_under_hammering() {
    let r = obs::registry();
    let name = unique("ctr");
    let counter = r.counter(&name);
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let c = Arc::clone(&counter);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.incr();
                    n += 1;
                }
                n
            })
        })
        .collect();

    let mut prev = 0u64;
    for _ in 0..200 {
        let now = counter.get();
        assert!(now >= prev, "counter went backwards: {prev} -> {now}");
        prev = now;
    }
    stop.store(true, Ordering::Relaxed);
    let written: u64 = writers.into_iter().map(|t| t.join().expect("writer")).sum();
    assert_eq!(counter.get(), written);
}

#[test]
fn histogram_snapshot_never_tears_under_hammering() {
    let r = obs::registry();
    let name = unique("hist");
    let hist = r.histogram(&name);
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let h = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                let mut v = w as u64 + 1;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000;
                    n += 1;
                }
                n
            })
        })
        .collect();

    let mut prev_count = 0u64;
    for _ in 0..200 {
        let s = hist.snapshot();
        // Bucket mass may run ahead of count (in-flight records), never
        // behind: that is the snapshot's internal-consistency contract.
        assert!(
            s.buckets_total() >= s.count,
            "torn snapshot: buckets {} < count {}",
            s.buckets_total(),
            s.count
        );
        assert!(s.count >= prev_count, "count went backwards");
        prev_count = s.count;
        // Quantiles over a live snapshot must stay within the recorded
        // value range.
        if s.count > 0 {
            assert!(s.quantile(0.99) <= s.max);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let written: u64 = writers.into_iter().map(|t| t.join().expect("writer")).sum();
    let s = hist.snapshot();
    assert_eq!(s.count, written);
    assert_eq!(s.buckets_total(), written);
}

#[test]
fn registry_snapshot_diff_windows_are_nonnegative() {
    let r = obs::registry();
    let name = unique("win");
    let counter = r.counter(&name);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let c = Arc::clone(&counter);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                c.add(3);
            }
        })
    };
    let mut prev = r.snapshot();
    for _ in 0..50 {
        let now = r.snapshot();
        let d = now.diff(&prev);
        // Every diff window over a monotone counter is itself a count.
        assert_eq!(d.counters[&name] % 3, 0);
        prev = now;
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer");
}
