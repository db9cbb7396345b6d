//! Lock-order tracking: a global acquisition-order graph fed by the
//! [`crate::sync`] shims, cycle (potential-deadlock) detection, and
//! lock-held-across-blocking-channel (and condvar-wait) hazards.
//!
//! The graph and violation types are always compiled (and unit-tested in
//! ordinary builds); the global registry that the shims feed only exists
//! under `--cfg sanity_check`. In default builds the public reporting
//! API ([`take_violations`], [`assert_clean`], [`allow`], ...) is a
//! no-op so call sites never need their own cfg gates.

use std::collections::HashMap;
use std::fmt;
use std::panic::Location;

/// A source location where a lock was acquired or a message sent.
pub type Site = &'static Location<'static>;

/// Directed graph over lock ids: an edge `a -> b` means some thread
/// acquired lock `b` while already holding lock `a`. A cycle means two
/// threads can acquire the same locks in opposite orders — a potential
/// deadlock even if no run has hung yet.
#[derive(Default)]
pub struct OrderGraph {
    edges: HashMap<(u64, u64), (Site, Site)>,
    adj: HashMap<u64, Vec<u64>>,
}

impl OrderGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `acquired` was taken while `held` was held. Returns
    /// the lock-id cycle (from `acquired` back to `held`) if this edge
    /// is new and closes one; `None` for known edges or acyclic inserts.
    pub fn record(
        &mut self,
        held: u64,
        held_site: Site,
        acquired: u64,
        acquired_site: Site,
    ) -> Option<Vec<u64>> {
        if held == acquired {
            // Re-acquiring a non-reentrant lock while holding it: a
            // self-cycle, certain deadlock.
            return Some(vec![held]);
        }
        if self.edges.contains_key(&(held, acquired)) {
            return None;
        }
        // Does the reverse direction already exist (possibly through
        // intermediaries)? If so this insert closes a cycle.
        let cycle = self.path(acquired, held);
        self.edges
            .insert((held, acquired), (held_site, acquired_site));
        self.adj.entry(held).or_default().push(acquired);
        cycle
    }

    /// Depth-first path search `from -> ... -> to` over recorded edges.
    fn path(&self, from: u64, to: u64) -> Option<Vec<u64>> {
        let mut stack = vec![from];
        let mut visited = vec![from];
        let mut parent: HashMap<u64, u64> = HashMap::new();
        while let Some(n) = stack.pop() {
            if n == to {
                let mut p = vec![to];
                let mut cur = to;
                while let Some(&prev) = parent.get(&cur) {
                    p.push(prev);
                    cur = prev;
                }
                p.reverse();
                return Some(p);
            }
            if let Some(next) = self.adj.get(&n) {
                for &m in next {
                    if !visited.contains(&m) {
                        visited.push(m);
                        parent.insert(m, n);
                        stack.push(m);
                    }
                }
            }
        }
        None
    }

    pub fn clear(&mut self) {
        self.edges.clear();
        self.adj.clear();
    }
}

/// A hazard detected by the instrumented shims. Sites are formatted as
/// `file:line:column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two locks are taken in opposite orders somewhere in the program:
    /// the edge `held_site -> acquired_site` closed a cycle through
    /// `cycle` (lock ids, ending back at the acquired lock).
    OrderCycle {
        held_site: String,
        acquired_site: String,
        cycle: Vec<u64>,
    },
    /// A channel send was executed while a lock was held. The receiver
    /// may block on that same lock (directly or transitively), and for
    /// bounded channels the send itself can block while holding it.
    LockAcrossSend {
        lock_site: String,
        send_site: String,
    },
    /// A blocking channel receive, or a `Condvar::wait`, was executed
    /// while a lock was held (for a wait: a lock other than the one it
    /// releases) — the thread that would wake us may need that lock
    /// first.
    LockAcrossRecv {
        lock_site: String,
        recv_site: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OrderCycle {
                held_site,
                acquired_site,
                cycle,
            } => write!(
                f,
                "lock-order cycle: lock acquired at {acquired_site} while holding lock \
                 acquired at {held_site} reverses an existing order (cycle through lock \
                 ids {cycle:?})"
            ),
            Violation::LockAcrossSend {
                lock_site,
                send_site,
            } => write!(
                f,
                "channel send at {send_site} while holding lock acquired at {lock_site}"
            ),
            Violation::LockAcrossRecv {
                lock_site,
                recv_site,
            } => write!(
                f,
                "blocking channel recv or condvar wait at {recv_site} while holding \
                 lock acquired at {lock_site}"
            ),
        }
    }
}

#[cfg(sanity_check)]
fn fmt_site(site: Site) -> String {
    format!("{}:{}:{}", site.file(), site.line(), site.column())
}

#[cfg(sanity_check)]
mod registry {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    // The registry deliberately uses raw std primitives: routing its own
    // bookkeeping through the instrumented shims would recurse.
    pub(crate) static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

    pub(crate) fn fresh_lock_id() -> u64 {
        NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed)
    }

    struct State {
        graph: OrderGraph,
        reported: HashSet<(String, String)>,
        violations: Vec<Violation>,
    }

    fn state() -> &'static Mutex<State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(|| {
            Mutex::new(State {
                graph: OrderGraph::new(),
                reported: HashSet::new(),
                violations: Vec::new(),
            })
        })
    }

    fn locked() -> std::sync::MutexGuard<'static, State> {
        state().lock().unwrap_or_else(|p| p.into_inner())
    }

    thread_local! {
        static HELD: RefCell<Vec<(u64, Site)>> = const { RefCell::new(Vec::new()) };
        static SUPPRESSED: Cell<u32> = const { Cell::new(0) };
    }

    pub(crate) fn suppressed() -> bool {
        SUPPRESSED.with(|s| s.get() > 0)
    }

    pub(crate) fn push_suppression() {
        SUPPRESSED.with(|s| s.set(s.get() + 1));
    }

    pub(crate) fn pop_suppression() {
        SUPPRESSED.with(|s| s.set(s.get().saturating_sub(1)));
    }

    pub(crate) fn on_acquire(id: u64, site: Site) {
        let held: Vec<(u64, Site)> = HELD.with(|h| h.borrow().clone());
        if !held.is_empty() && !suppressed() {
            let mut st = locked();
            for &(hid, hsite) in &held {
                if let Some(cycle) = st.graph.record(hid, hsite, id, site) {
                    let v = Violation::OrderCycle {
                        held_site: fmt_site(hsite),
                        acquired_site: fmt_site(site),
                        cycle,
                    };
                    push_violation(&mut st, v);
                }
            }
        }
        HELD.with(|h| h.borrow_mut().push((id, site)));
    }

    pub(crate) fn on_release(id: u64) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&(hid, _)| hid == id) {
                h.remove(pos);
            }
        });
    }

    pub(crate) fn on_send(site: Site) {
        if suppressed() {
            return;
        }
        if let Some((_, lock_site)) = HELD.with(|h| h.borrow().last().copied()) {
            let v = Violation::LockAcrossSend {
                lock_site: fmt_site(lock_site),
                send_site: fmt_site(site),
            };
            let mut st = locked();
            push_violation(&mut st, v);
        }
    }

    pub(crate) fn on_recv(site: Site) {
        if suppressed() {
            return;
        }
        if let Some((_, lock_site)) = HELD.with(|h| h.borrow().last().copied()) {
            let v = Violation::LockAcrossRecv {
                lock_site: fmt_site(lock_site),
                recv_site: fmt_site(site),
            };
            let mut st = locked();
            push_violation(&mut st, v);
        }
    }

    fn push_violation(st: &mut State, v: Violation) {
        let key = match &v {
            Violation::OrderCycle {
                held_site,
                acquired_site,
                ..
            } => (held_site.clone(), acquired_site.clone()),
            Violation::LockAcrossSend {
                lock_site,
                send_site,
            } => (lock_site.clone(), send_site.clone()),
            Violation::LockAcrossRecv {
                lock_site,
                recv_site,
            } => (lock_site.clone(), recv_site.clone()),
        };
        if st.reported.insert(key) {
            st.violations.push(v);
        }
    }

    pub(crate) fn take() -> Vec<Violation> {
        let mut st = locked();
        st.reported.clear();
        std::mem::take(&mut st.violations)
    }

    pub(crate) fn snapshot() -> Vec<Violation> {
        locked().violations.clone()
    }

    pub(crate) fn reset() {
        let mut st = locked();
        st.graph.clear();
        st.reported.clear();
        st.violations.clear();
    }
}

#[cfg(sanity_check)]
pub(crate) use registry::{fresh_lock_id, on_acquire, on_recv, on_release, on_send};

/// RAII guard suppressing hazard recording on the current thread; see
/// [`allow`].
pub struct Allow {
    _priv: (),
}

/// Suppress hazard recording on this thread until the returned guard is
/// dropped. Use to annotate a pattern that has been reviewed and is
/// benign (e.g. a send on an unbounded channel whose receiver provably
/// never takes the held lock). The reason string is documentation only.
pub fn allow(_reason: &str) -> Allow {
    #[cfg(sanity_check)]
    registry::push_suppression();
    Allow { _priv: () }
}

impl Drop for Allow {
    fn drop(&mut self) {
        #[cfg(sanity_check)]
        registry::pop_suppression();
    }
}

/// Drain all recorded violations (clears the report list, keeps the
/// order graph). Always empty in default builds.
pub fn take_violations() -> Vec<Violation> {
    #[cfg(sanity_check)]
    {
        registry::take()
    }
    #[cfg(not(sanity_check))]
    {
        Vec::new()
    }
}

/// Snapshot recorded violations without clearing them.
pub fn violations() -> Vec<Violation> {
    #[cfg(sanity_check)]
    {
        registry::snapshot()
    }
    #[cfg(not(sanity_check))]
    {
        Vec::new()
    }
}

/// Clear the order graph and all recorded violations. Intended for test
/// isolation (tests that share a process must serialize around this).
pub fn reset() {
    #[cfg(sanity_check)]
    registry::reset();
}

/// Panic with a formatted report if any violation has been recorded.
/// No-op in default builds.
pub fn assert_clean() {
    let vs = violations();
    if !vs.is_empty() {
        let mut msg = format!("{} sanity violation(s) recorded:\n", vs.len());
        for v in &vs {
            msg.push_str(&format!("  - {v}\n"));
        }
        panic!("{msg}");
    }
}

/// True when the instrumented shims are compiled in
/// (`RUSTFLAGS="--cfg sanity_check"`).
pub const fn instrumented() -> bool {
    cfg!(sanity_check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> Site {
        Location::caller()
    }

    #[test]
    fn acyclic_inserts_report_nothing() {
        let mut g = OrderGraph::new();
        assert_eq!(g.record(1, site(), 2, site()), None);
        assert_eq!(g.record(2, site(), 3, site()), None);
        assert_eq!(g.record(1, site(), 3, site()), None);
        // Re-recording a known edge is silent.
        assert_eq!(g.record(1, site(), 2, site()), None);
    }

    #[test]
    fn reversed_pair_closes_cycle() {
        let mut g = OrderGraph::new();
        assert_eq!(g.record(1, site(), 2, site()), None);
        let cycle = g.record(2, site(), 1, site()).expect("cycle");
        assert_eq!(cycle, vec![1, 2]);
    }

    #[test]
    fn transitive_cycle_detected() {
        let mut g = OrderGraph::new();
        g.record(1, site(), 2, site());
        g.record(2, site(), 3, site());
        let cycle = g.record(3, site(), 1, site()).expect("cycle");
        assert_eq!(cycle.first(), Some(&1));
        assert_eq!(cycle.last(), Some(&3));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut g = OrderGraph::new();
        assert_eq!(g.record(7, site(), 7, site()), Some(vec![7]));
    }

    #[test]
    fn default_build_reporting_is_silent() {
        if !instrumented() {
            let _g = allow("no-op in default builds");
            assert!(take_violations().is_empty());
            assert_clean();
        }
    }
}
