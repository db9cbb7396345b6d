//! Trace ids and span scopes.
//!
//! A trace id is a nonzero `u64` minted at the edge of the system (the
//! benchmark harness or a remote client) and carried along the causal
//! path of one logical operation: stored in a thread-local here, copied
//! into executor jobs at submit time, and put on the wire in the frame
//! header so the server side rejoins the same trace. `0` means
//! "untraced".
//!
//! A [`Span`] is a named, timed scope: on drop it records its duration
//! into the `span.<name>` histogram and — when the span log is enabled
//! via [`record_spans`] — appends a [`crate::SpanRecord`] tagged with
//! the thread's current trace id, so a cross-shard closure or a 2PC
//! commit can be reconstructed as one causal trace.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::registry;

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh process-unique trace id (nonzero).
pub fn mint() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's current trace id (0 = untraced).
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Overwrite the calling thread's current trace id.
pub fn set(id: u64) {
    CURRENT.with(|c| c.set(id));
}

/// The current trace id, minting and installing one if the thread is
/// untraced.
pub fn ensure() -> u64 {
    let cur = current();
    if cur != 0 {
        return cur;
    }
    let id = mint();
    set(id);
    id
}

/// Install `id` for the lifetime of the returned guard, restoring the
/// previous trace id on drop. Use around executor jobs and frame
/// handling so a borrowed thread rejoins the submitter's trace.
pub fn scope(id: u64) -> TraceScope {
    let prev = current();
    set(id);
    TraceScope { prev }
}

/// Guard returned by [`scope`]; restores the prior trace id on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set(self.prev);
    }
}

/// Enable or disable the in-memory span log on the global registry.
pub fn record_spans(on: bool) {
    registry().set_record_spans(on);
}

/// Start a named span; it records itself when dropped. Near-free when
/// the registry is disabled.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: Instant::now(),
    }
}

/// A timed scope created by [`span`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let r = registry();
        let dur_us = self.start.elapsed().as_micros() as u64;
        r.histogram(&format!("span.{}", self.name)).record(dur_us);
        r.push_span(current(), self.name, dur_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_and_nonzero() {
        let a = mint();
        let b = mint();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn scope_restores_previous_id() {
        set(0);
        {
            let _outer = scope(11);
            assert_eq!(current(), 11);
            {
                let _inner = scope(22);
                assert_eq!(current(), 22);
            }
            assert_eq!(current(), 11);
        }
        assert_eq!(current(), 0);
    }

    #[test]
    fn ensure_mints_once() {
        set(0);
        let a = ensure();
        let b = ensure();
        assert_eq!(a, b);
        assert_ne!(a, 0);
        set(0);
    }

    #[test]
    fn spans_cross_threads_via_explicit_ids() {
        let id = mint();
        let handle = std::thread::spawn(move || {
            let _s = scope(id);
            current()
        });
        assert_eq!(handle.join().expect("trace thread"), id);
        assert_ne!(current(), id);
    }
}
