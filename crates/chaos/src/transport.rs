//! A [`Transport`] wrapper injecting frame-level faults.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hypermodel::error::{HmError, Result};
use hypermodel::rng::Rng;
use server::transport::Transport;

use crate::plan::FaultPlan;

/// Shared, lock-free counters of faults actually injected. Hold a clone
/// of the [`Arc`] to inspect them after the transport has been moved
/// into a client.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Frames silently lost.
    pub dropped: AtomicU64,
    /// Frames sent twice.
    pub duplicated: AtomicU64,
    /// Connections torn down mid-write.
    pub disconnects: AtomicU64,
    /// Frames delayed by injected latency.
    pub delayed: AtomicU64,
}

impl FaultCounters {
    /// Snapshot `(dropped, duplicated, disconnects, delayed)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.disconnects.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
        )
    }
}

/// A transport that misbehaves on a seeded, reproducible schedule:
/// outgoing frames may be dropped, duplicated, or delayed, and sends may
/// tear the connection down mid-write, per the [`FaultPlan`] rates.
///
/// Faults are injected on the **send** side only; wrap both endpoints to
/// lose traffic in both directions. After an injected disconnect the
/// transport stays dead: sends fail with [`HmError::Timeout`] (transient,
/// so a retry policy resends on this same transport until its budget
/// runs out) and receives report a closed peer. Frames that are not
/// dropped arrive in the order they were sent.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    rng: Rng,
    plan: FaultPlan,
    dead: bool,
    sent: u64,
    counters: Arc<FaultCounters>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` with the faults of `plan`, seeded from `plan.seed`.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            rng: Rng::new(plan.seed),
            plan,
            dead: false,
            sent: 0,
            counters: Arc::new(FaultCounters::default()),
        }
    }

    /// A handle to the fault counters, usable after the transport moves.
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }

    fn roll(&mut self, per_mille: u32) -> bool {
        per_mille > 0 && self.rng.range_u32(0, 999) < per_mille
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if self.dead {
            return Err(HmError::Timeout("connection torn down (injected)".into()));
        }
        if let Some(limit) = self.plan.kill_after_sends {
            if self.sent >= limit {
                // The replica died for good: every future send (and recv)
                // fails until the caller replaces the connection.
                self.dead = true;
                self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                return Err(HmError::Timeout(
                    "replica killed after send budget (injected)".into(),
                ));
            }
        }
        self.sent += 1;
        if self.roll(self.plan.disconnect_per_mille) {
            self.dead = true;
            self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            return Err(HmError::Timeout(
                "connection torn down mid-write (injected)".into(),
            ));
        }
        if self.roll(self.plan.drop_per_mille) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(()); // lost in flight: the send "succeeded"
        }
        if !self.plan.latency.is_zero() {
            self.counters.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.latency);
        }
        if self.roll(self.plan.dup_per_mille) {
            self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
            self.inner.send(frame)?;
        }
        self.inner.send(frame)
    }

    fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool> {
        if self.dead {
            return Ok(false);
        }
        self.inner.recv_into(out, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use server::transport::ChannelTransport;

    /// One received frame, `None` once the peer closed.
    fn recv(t: &mut dyn Transport) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        t.recv_into(&mut out, None).unwrap().then_some(out)
    }

    #[test]
    fn drop_schedule_is_reproducible() {
        let run = |seed| {
            let (a, mut b) = ChannelTransport::pair(Duration::ZERO);
            let mut faulty = FaultyTransport::new(a, FaultPlan::named(seed, "lossy").unwrap());
            let counters = faulty.counters();
            for i in 0..200u32 {
                faulty.send(&i.to_le_bytes()).unwrap();
            }
            drop(faulty);
            let mut arrived = Vec::new();
            while let Some(frame) = recv(&mut b) {
                arrived.push(u32::from_le_bytes(frame.try_into().unwrap()));
            }
            (arrived, counters.snapshot().0)
        };
        let (arrived_a, dropped_a) = run(42);
        let (arrived_b, dropped_b) = run(42);
        assert_eq!(arrived_a, arrived_b, "same seed, same schedule");
        assert_eq!(dropped_a, dropped_b);
        assert!(dropped_a > 0, "10% of 200 frames should drop");
        assert_eq!(arrived_a.len() as u64 + dropped_a, 200);

        let (arrived_c, _) = run(43);
        assert_ne!(arrived_a, arrived_c, "different seed, different schedule");
    }

    #[test]
    fn injected_disconnect_is_sticky_and_transient() {
        let (a, _b) = ChannelTransport::pair(Duration::ZERO);
        let plan = FaultPlan {
            disconnect_per_mille: 1000,
            ..FaultPlan::none(1)
        };
        let mut faulty = FaultyTransport::new(a, plan);
        let err = faulty.send(b"x").unwrap_err();
        assert!(
            err.is_transient(),
            "retry policies must see a retryable error"
        );
        assert!(faulty.send(b"y").is_err(), "stays dead");
        assert_eq!(recv(&mut faulty), None);
    }

    #[test]
    fn kill_after_sends_is_sticky() {
        let (a, mut b) = ChannelTransport::pair(Duration::ZERO);
        let plan = FaultPlan {
            kill_after_sends: Some(3),
            ..FaultPlan::none(1)
        };
        let mut faulty = FaultyTransport::new(a, plan);
        let counters = faulty.counters();
        for i in 0..3u32 {
            faulty.send(&i.to_le_bytes()).unwrap();
        }
        let err = faulty.send(b"late").unwrap_err();
        assert!(err.is_transient(), "failover needs a retryable error");
        assert!(faulty.send(b"later").is_err(), "stays dead");
        assert_eq!(recv(&mut faulty), None);
        assert_eq!(counters.snapshot().2, 1, "one disconnect counted");
        // The frames sent before the kill all arrived.
        drop(faulty);
        let mut arrived = 0;
        while recv(&mut b).is_some() {
            arrived += 1;
        }
        assert_eq!(arrived, 3);
    }

    #[test]
    fn duplication_sends_twice() {
        let (a, mut b) = ChannelTransport::pair(Duration::ZERO);
        let plan = FaultPlan {
            dup_per_mille: 1000,
            ..FaultPlan::none(1)
        };
        let mut faulty = FaultyTransport::new(a, plan);
        faulty.send(b"twin").unwrap();
        assert_eq!(recv(&mut b).unwrap(), b"twin");
        assert_eq!(recv(&mut b).unwrap(), b"twin");
    }
}
