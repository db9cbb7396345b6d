//! Deterministic, preemption-bounded exploration of thread
//! interleavings for model tests.
//!
//! A model is a closure that spawns virtual threads ([`Sim::spawn`])
//! communicating through modeled primitives ([`SimMutex`],
//! [`Sim::channel`]) and explicit yields. Virtual threads are real OS
//! threads, but exactly one runs at a time: a token is passed between
//! the scheduler and the threads at *schedule points* (every visible
//! operation of a modeled primitive). The scheduler replays a recorded
//! choice prefix, so the whole (bounded) tree of interleavings can be
//! enumerated depth-first ([`Explorer::exhaustive`]) or sampled from a
//! seeded PRNG ([`Explorer::random`]). Modeled blocking never blocks
//! the OS thread for real — a thread that cannot proceed parks as
//! `Blocked(resource)` and hands the token back, which also makes
//! genuine deadlocks (no runnable thread, unfinished threads) directly
//! observable and reported with the schedule trace.
//!
//! Preemption bounding (as in stateless model checking: most bugs show
//! up with very few preemptions) keeps exhaustive runs tractable;
//! [`Report::distinct`] counts distinct interleavings actually explored
//! so tests can assert coverage.

#![allow(
    clippy::disallowed_types,
    reason = "the scheduler's token passing runs on real std primitives beneath the modeled ones"
)]

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Panic payload used to unwind virtual threads when a run is aborted
/// (after a failure or deadlock elsewhere). Not a test failure itself.
struct SimAborted;

thread_local! {
    static IN_SIM: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static LAST_PANIC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Install (once, process-wide) a panic hook that silences panics on
/// simulation threads — the explorer reports them itself, with the
/// schedule trace — and stashes the formatted message + location.
fn install_quiet_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if IN_SIM.with(|f| f.get()) {
                LAST_PANIC.with(|p| *p.borrow_mut() = Some(info.to_string()));
            } else {
                prev(info);
            }
        }));
    });
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Ready,
    Blocked(u64),
    Finished,
}

struct VThread {
    status: Status,
    /// Resource signaled when this thread finishes (for joins).
    join_res: u64,
}

/// One entry of a schedule trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceStep {
    /// The scheduler granted the token to this virtual thread id.
    Run(usize),
    /// A [`Sim::choose`] decision resolved to this value.
    Choose(usize),
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStep::Run(t) => write!(f, "t{t}"),
            TraceStep::Choose(v) => write!(f, "?{v}"),
        }
    }
}

struct SchedState {
    threads: Vec<VThread>,
    /// Token holder; `None` while the scheduler decides.
    current: Option<usize>,
    scheduler_turn: bool,
    aborted: bool,
    /// First real failure of this run (panic message from a model thread).
    failure: Option<String>,
    /// Pending `Sim::choose` request: (thread id, number of options).
    pending_choice: Option<(usize, usize)>,
    choice_result: Option<usize>,
    trace: Vec<TraceStep>,
    preemptions: usize,
    last: Option<usize>,
    next_resource: u64,
}

struct SimInner {
    state: Mutex<SchedState>,
    cv: Condvar,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// Handle to the running simulation; clone freely into spawned threads.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

/// Join handle for a virtual thread.
pub struct VJoin {
    sim: Sim,
    tid: usize,
}

impl Sim {
    fn new() -> Sim {
        Sim {
            inner: Arc::new(SimInner {
                state: Mutex::new(SchedState {
                    threads: Vec::new(),
                    current: None,
                    scheduler_turn: true,
                    aborted: false,
                    failure: None,
                    pending_choice: None,
                    choice_result: None,
                    trace: Vec::new(),
                    preemptions: 0,
                    last: None,
                    next_resource: 1,
                }),
                cv: Condvar::new(),
                handles: Mutex::new(Vec::new()),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn alloc_res(st: &mut SchedState) -> u64 {
        let r = st.next_resource;
        st.next_resource += 1;
        r
    }

    /// Spawn a virtual thread. The closure runs only while it holds the
    /// scheduler token; it must route all blocking through modeled
    /// primitives.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) -> VJoin {
        let tid = {
            let mut st = self.lock();
            let join_res = Self::alloc_res(&mut st);
            st.threads.push(VThread {
                status: Status::Ready,
                join_res,
            });
            st.threads.len() - 1
        };
        let sim = self.clone();
        let handle = thread::Builder::new()
            .name(format!("dsched-t{tid}"))
            .spawn(move || sim.thread_main(tid, f))
            .unwrap_or_else(|e| panic!("spawn virtual thread: {e}"));
        self.inner
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        VJoin {
            sim: self.clone(),
            tid,
        }
    }

    fn thread_main<F: FnOnce()>(&self, tid: usize, f: F) {
        install_quiet_hook();
        IN_SIM.with(|x| x.set(true));
        // Wait for the token before running a single instruction of `f`.
        {
            let mut st = self.lock();
            while st.current != Some(tid) {
                if st.aborted {
                    // Run aborted before we ever ran: just finish.
                    self.finish(st, tid, None);
                    return;
                }
                st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        let panic_msg = match result {
            Ok(()) => None,
            Err(payload) => {
                if payload.is::<SimAborted>() {
                    None
                } else {
                    Some(
                        LAST_PANIC
                            .with(|p| p.borrow_mut().take())
                            .unwrap_or_else(|| "model thread panicked".to_string()),
                    )
                }
            }
        };
        let st = self.lock();
        self.finish(st, tid, panic_msg);
    }

    fn finish(&self, mut st: MutexGuard<'_, SchedState>, tid: usize, panic_msg: Option<String>) {
        if let Some(msg) = panic_msg {
            if st.failure.is_none() {
                st.failure = Some(msg);
            }
            st.aborted = true;
        }
        st.threads[tid].status = Status::Finished;
        let join_res = st.threads[tid].join_res;
        Self::wake_locked(&mut st, join_res);
        if st.current == Some(tid) {
            st.current = None;
            st.scheduler_turn = true;
        }
        self.inner.cv.notify_all();
    }

    /// Yield the token and wait until the scheduler grants it back.
    /// Every modeled visible operation calls this first, making it a
    /// (potential) preemption point.
    pub fn schedule_point(&self) {
        let mut st = self.lock();
        if st.aborted {
            drop(st);
            panic::panic_any(SimAborted);
        }
        let me = match st.current {
            Some(me) => me,
            // Called off-simulation (e.g. from the explorer thread);
            // nothing to schedule.
            None => return,
        };
        st.current = None;
        st.scheduler_turn = true;
        self.inner.cv.notify_all();
        while st.current != Some(me) {
            if st.aborted {
                drop(st);
                panic::panic_any(SimAborted);
            }
            st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Alias for [`Sim::schedule_point`] matching `std` naming.
    pub fn yield_now(&self) {
        self.schedule_point();
    }

    /// Park the calling virtual thread until `resource` is signaled via
    /// `wake`. Spurious wakeups are allowed; callers re-check their
    /// condition in a loop.
    fn block_on(&self, resource: u64) {
        let mut st = self.lock();
        if st.aborted {
            drop(st);
            panic::panic_any(SimAborted);
        }
        let me = match st.current {
            Some(me) => me,
            None => return,
        };
        st.threads[me].status = Status::Blocked(resource);
        st.current = None;
        st.scheduler_turn = true;
        self.inner.cv.notify_all();
        while st.current != Some(me) {
            if st.aborted {
                drop(st);
                panic::panic_any(SimAborted);
            }
            st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn wake_locked(st: &mut SchedState, resource: u64) {
        for t in &mut st.threads {
            if t.status == Status::Blocked(resource) {
                t.status = Status::Ready;
            }
        }
    }

    fn wake(&self, resource: u64) {
        let mut st = self.lock();
        Self::wake_locked(&mut st, resource);
        // No notify needed: woken threads still must be granted the
        // token by the scheduler at the next decision.
    }

    /// A nondeterministic choice in `0..options`, explored like any
    /// scheduling decision (exhaustively in DFS mode, sampled in random
    /// mode). Use to enumerate model parameters — e.g. crash points —
    /// inside the explored tree.
    pub fn choose(&self, options: usize) -> usize {
        assert!(options > 0, "choose() needs at least one option");
        if options == 1 {
            return 0;
        }
        let mut st = self.lock();
        if st.aborted {
            drop(st);
            panic::panic_any(SimAborted);
        }
        let me = match st.current {
            Some(me) => me,
            None => return 0,
        };
        st.pending_choice = Some((me, options));
        st.current = None;
        st.scheduler_turn = true;
        self.inner.cv.notify_all();
        loop {
            if st.aborted {
                drop(st);
                panic::panic_any(SimAborted);
            }
            if st.current == Some(me) {
                if let Some(r) = st.choice_result.take() {
                    return r;
                }
            }
            st = self.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A modeled mutex tied to this simulation.
    pub fn mutex<T>(&self, value: T) -> SimMutex<T> {
        let res = Self::alloc_res(&mut self.lock());
        SimMutex {
            inner: Arc::new(SimMutexInner {
                sim: self.clone(),
                res,
                flag: Mutex::new(false),
                data: Mutex::new(value),
            }),
        }
    }

    /// A modeled channel; `cap: None` is unbounded, `Some(n)` blocks
    /// senders once `n` messages are queued.
    pub fn channel<T>(&self, cap: Option<usize>) -> (SimSender<T>, SimReceiver<T>) {
        let res = Self::alloc_res(&mut self.lock());
        let inner = Arc::new(ChanInner {
            sim: self.clone(),
            res,
            cap,
            state: Mutex::new(ChanState {
                queue: VecDeque::new(),
                senders: 1,
                recv_alive: true,
            }),
        });
        (
            SimSender {
                inner: Arc::clone(&inner),
            },
            SimReceiver { inner },
        )
    }
}

impl VJoin {
    /// Block (in model time) until the thread finishes.
    pub fn join(self) {
        loop {
            self.sim.schedule_point();
            {
                let st = self.sim.lock();
                if st.threads[self.tid].status == Status::Finished {
                    return;
                }
            }
            let res = self.sim.lock().threads[self.tid].join_res;
            self.sim.block_on(res);
        }
    }
}

// ---------------------------------------------------------------------------
// Modeled primitives
// ---------------------------------------------------------------------------

struct SimMutexInner<T> {
    sim: Sim,
    res: u64,
    /// Model-level ownership flag; the real `data` mutex is only ever
    /// taken by the flag owner, so it never contends.
    flag: Mutex<bool>,
    data: Mutex<T>,
}

/// A mutex whose acquisitions are schedule points; contention parks the
/// virtual thread instead of the OS thread.
pub struct SimMutex<T> {
    inner: Arc<SimMutexInner<T>>,
}

impl<T> Clone for SimMutex<T> {
    fn clone(&self) -> Self {
        SimMutex {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> SimMutex<T> {
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        loop {
            self.inner.sim.schedule_point();
            {
                let mut f = self.inner.flag.lock().unwrap_or_else(|e| e.into_inner());
                if !*f {
                    *f = true;
                    break;
                }
            }
            self.inner.sim.block_on(self.inner.res);
        }
        SimMutexGuard {
            inner: &self.inner,
            guard: Some(self.inner.data.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

pub struct SimMutexGuard<'a, T> {
    inner: &'a SimMutexInner<T>,
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T> std::ops::DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        *self.inner.flag.lock().unwrap_or_else(|e| e.into_inner()) = false;
        // No schedule point in drop: drops also run during abort
        // unwinds. The release is made visible; the next acquire
        // attempt is the decision point.
        self.inner.sim.wake(self.inner.res);
    }
}

struct ChanState<T> {
    queue: VecDeque<T>,
    senders: usize,
    recv_alive: bool,
}

struct ChanInner<T> {
    sim: Sim,
    res: u64,
    cap: Option<usize>,
    state: Mutex<ChanState<T>>,
}

impl<T> ChanInner<T> {
    fn lock(&self) -> MutexGuard<'_, ChanState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Sending half of a modeled channel.
pub struct SimSender<T> {
    inner: Arc<ChanInner<T>>,
}

impl<T> Clone for SimSender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        SimSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for SimSender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.inner.sim.wake(self.inner.res);
        }
    }
}

impl<T> SimSender<T> {
    /// Send, parking (in model time) while a bounded channel is full.
    /// Returns `false` (dropping the value) if the receiver is gone.
    pub fn send(&self, value: T) -> bool {
        let mut slot = Some(value);
        loop {
            self.inner.sim.schedule_point();
            {
                let mut st = self.inner.lock();
                if !st.recv_alive {
                    return false;
                }
                if self.inner.cap.is_none_or(|c| st.queue.len() < c) {
                    st.queue.push_back(slot.take().expect("value present"));
                    drop(st);
                    self.inner.sim.wake(self.inner.res);
                    return true;
                }
            }
            self.inner.sim.block_on(self.inner.res);
        }
    }
}

/// Result of a [`SimReceiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecv<T> {
    Value(T),
    Empty,
    Closed,
}

/// Receiving half of a modeled channel.
pub struct SimReceiver<T> {
    inner: Arc<ChanInner<T>>,
}

impl<T> Drop for SimReceiver<T> {
    fn drop(&mut self) {
        self.inner.lock().recv_alive = false;
        self.inner.sim.wake(self.inner.res);
    }
}

impl<T> SimReceiver<T> {
    /// Receive, parking (in model time) while empty. `None` means all
    /// senders are gone and the queue is drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            self.inner.sim.schedule_point();
            {
                let mut st = self.inner.lock();
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.inner.sim.wake(self.inner.res);
                    return Some(v);
                }
                if st.senders == 0 {
                    return None;
                }
            }
            self.inner.sim.block_on(self.inner.res);
        }
    }

    pub fn try_recv(&self) -> TryRecv<T> {
        self.inner.sim.schedule_point();
        let mut st = self.inner.lock();
        if let Some(v) = st.queue.pop_front() {
            drop(st);
            self.inner.sim.wake(self.inner.res);
            TryRecv::Value(v)
        } else if st.senders == 0 {
            TryRecv::Closed
        } else {
            TryRecv::Empty
        }
    }
}

// ---------------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Choice {
    taken: usize,
    options: usize,
}

/// DFS cursor over decision prefixes: replay the recorded prefix, take
/// first-untried beyond it, then advance like an odometer.
struct Cursor {
    prefix: Vec<Choice>,
    depth: usize,
}

impl Cursor {
    fn new() -> Cursor {
        Cursor {
            prefix: Vec::new(),
            depth: 0,
        }
    }

    fn choose(&mut self, options: usize) -> usize {
        if options <= 1 {
            return 0;
        }
        let d = self.depth;
        self.depth += 1;
        if d < self.prefix.len() {
            // Earlier choices changed the tree shape? Clamp defensively;
            // identical prefixes always yield identical option counts.
            self.prefix[d].options = options;
            self.prefix[d].taken.min(options - 1)
        } else {
            self.prefix.push(Choice { taken: 0, options });
            0
        }
    }

    fn advance(&mut self) -> bool {
        self.depth = 0;
        while let Some(last) = self.prefix.last_mut() {
            if last.taken + 1 < last.options {
                last.taken += 1;
                return true;
            }
            self.prefix.pop();
        }
        false
    }
}

/// SplitMix64: tiny, seedable, dependency-free PRNG for random mode.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

enum Mode {
    Exhaustive,
    Random { seed: u64, runs: usize },
}

/// Why a run failed, with the schedule trace that reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    pub message: String,
    pub trace: Vec<TraceStep>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (failed assertion, explicit panic).
    Panic,
    /// No runnable thread while some are unfinished.
    Deadlock,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FailureKind::Panic => "panic",
            FailureKind::Deadlock => "deadlock",
        };
        let trace: Vec<String> = self.trace.iter().map(|s| s.to_string()).collect();
        write!(
            f,
            "{kind}: {} [schedule: {}]",
            self.message,
            trace.join(" ")
        )
    }
}

/// Exploration result.
#[derive(Debug)]
pub struct Report {
    /// Runs executed.
    pub runs: usize,
    /// Distinct interleavings (schedule traces) observed. Equal to
    /// `runs` in exhaustive mode.
    pub distinct: usize,
    /// True if exhaustive exploration hit the schedule cap before
    /// completing the tree.
    pub truncated: bool,
    /// Most preemptions any single run consumed (≤ the bound).
    pub max_preemptions: usize,
    /// Deepest decision point any run reached: scheduling or value
    /// choices with more than one live option. A model whose depth is
    /// 0 never branched — the exploration was a single straight line.
    pub max_depth: usize,
    /// At most one failure: exploration stops at the first.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Panic with the failing schedule if any run failed.
    pub fn assert_ok(&self) {
        if let Some(f) = self.failures.first() {
            panic!(
                "model check failed after {} interleaving(s): {f}",
                self.runs
            );
        }
    }

    /// One-line per-model summary for test logs (`cargo test -- --nocapture`).
    pub fn summary(&self, name: &str) -> String {
        format!(
            "dsched[{name}]: {} schedule(s), {} distinct, max {} preemption(s), \
             decision depth {}{}",
            self.runs,
            self.distinct,
            self.max_preemptions,
            self.max_depth,
            if self.truncated { " (truncated)" } else { "" },
        )
    }
}

/// Interleaving explorer; see module docs.
pub struct Explorer {
    mode: Mode,
    max_preemptions: usize,
    max_schedules: usize,
}

impl Explorer {
    /// Depth-first enumeration of every schedule within the bounds.
    pub fn exhaustive() -> Explorer {
        Explorer {
            mode: Mode::Exhaustive,
            max_preemptions: 2,
            max_schedules: 100_000,
        }
    }

    /// `runs` schedules sampled from a seeded PRNG; same seed, same
    /// schedules.
    pub fn random(seed: u64, runs: usize) -> Explorer {
        Explorer {
            mode: Mode::Random { seed, runs },
            max_preemptions: 2,
            max_schedules: usize::MAX,
        }
    }

    /// Cap on preemptions per run (switching away from a still-runnable
    /// thread). Voluntary yields at blocking points are free.
    pub fn preemption_bound(mut self, bound: usize) -> Explorer {
        self.max_preemptions = bound;
        self
    }

    /// Safety cap on schedules in exhaustive mode; exceeding it sets
    /// [`Report::truncated`] instead of looping unbounded.
    pub fn max_schedules(mut self, cap: usize) -> Explorer {
        self.max_schedules = cap;
        self
    }

    /// Run `body` under every explored schedule. The body runs on
    /// virtual thread 0 and must create all state fresh per run.
    pub fn explore<F>(&self, body: F) -> Report
    where
        F: Fn(&Sim) + Send + Sync + 'static,
    {
        install_quiet_hook();
        let body: Arc<dyn Fn(&Sim) + Send + Sync> = Arc::new(body);
        let mut cursor = Cursor::new();
        let mut rng = match self.mode {
            Mode::Random { seed, .. } => SplitMix64(seed),
            Mode::Exhaustive => SplitMix64(0),
        };
        let mut seen: HashSet<Vec<TraceStep>> = HashSet::new();
        let mut report = Report {
            runs: 0,
            distinct: 0,
            truncated: false,
            max_preemptions: 0,
            max_depth: 0,
            failures: Vec::new(),
        };
        loop {
            let random = matches!(self.mode, Mode::Random { .. });
            let outcome = self.run_once(&body, &mut cursor, &mut rng, random);
            report.runs += 1;
            report.max_preemptions = report.max_preemptions.max(outcome.preemptions);
            report.max_depth = report.max_depth.max(outcome.decisions);
            match self.mode {
                Mode::Exhaustive => report.distinct += 1,
                Mode::Random { .. } => {
                    if seen.insert(outcome.trace.clone()) {
                        report.distinct += 1;
                    }
                }
            }
            if let Some(failure) = outcome.failure {
                report.failures.push(failure);
                break;
            }
            match self.mode {
                Mode::Exhaustive => {
                    if report.runs >= self.max_schedules {
                        report.truncated = cursor.advance();
                        break;
                    }
                    if !cursor.advance() {
                        break;
                    }
                }
                Mode::Random { runs, .. } => {
                    if report.runs >= runs {
                        break;
                    }
                }
            }
        }
        report
    }

    fn run_once(
        &self,
        body: &Arc<dyn Fn(&Sim) + Send + Sync>,
        cursor: &mut Cursor,
        rng: &mut SplitMix64,
        random: bool,
    ) -> RunOutcome {
        let sim = Sim::new();
        let body = Arc::clone(body);
        let sim2 = sim.clone();
        sim.spawn(move || body(&sim2));

        let mut deadlock = false;
        let mut decisions = 0usize;
        {
            let mut st = sim.lock();
            loop {
                while !st.scheduler_turn {
                    st = sim.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                if st.aborted {
                    // A thread failed; wait for the rest to unwind.
                    sim.inner.cv.notify_all();
                    while !st.threads.iter().all(|t| t.status == Status::Finished) {
                        st = sim.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    break;
                }
                if st.threads.iter().all(|t| t.status == Status::Finished) {
                    break;
                }
                // Resolve a pending value choice: token goes straight
                // back to the asking thread — choosing is not a yield.
                if let Some((tid, options)) = st.pending_choice.take() {
                    if options > 1 {
                        decisions += 1;
                    }
                    let pick = if random {
                        (rng.next() % options as u64) as usize
                    } else {
                        cursor.choose(options)
                    };
                    st.trace.push(TraceStep::Choose(pick));
                    st.choice_result = Some(pick);
                    st.current = Some(tid);
                    st.scheduler_turn = false;
                    sim.inner.cv.notify_all();
                    continue;
                }
                let enabled: Vec<usize> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status == Status::Ready)
                    .map(|(i, _)| i)
                    .collect();
                if enabled.is_empty() {
                    deadlock = true;
                    st.aborted = true;
                    sim.inner.cv.notify_all();
                    while !st.threads.iter().all(|t| t.status == Status::Finished) {
                        st = sim.inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    break;
                }
                // Prefer continuing the last thread (explored first, and
                // the only option once the preemption budget is spent).
                let mut options = enabled.clone();
                let last_enabled = st.last.is_some_and(|l| enabled.contains(&l));
                if let Some(l) = st.last {
                    if let Some(pos) = options.iter().position(|&t| t == l) {
                        options.remove(pos);
                        options.insert(0, l);
                    }
                }
                if last_enabled && st.preemptions >= self.max_preemptions {
                    options.truncate(1);
                }
                if options.len() > 1 {
                    decisions += 1;
                }
                let idx = if random {
                    (rng.next() % options.len() as u64) as usize
                } else {
                    cursor.choose(options.len())
                };
                let tid = options[idx];
                if last_enabled && st.last != Some(tid) {
                    st.preemptions += 1;
                }
                st.last = Some(tid);
                st.trace.push(TraceStep::Run(tid));
                st.current = Some(tid);
                st.scheduler_turn = false;
                sim.inner.cv.notify_all();
            }
        }

        for h in sim
            .inner
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = h.join();
        }

        let st = sim.lock();
        let failure = if let Some(msg) = st.failure.clone() {
            Some(Failure {
                kind: FailureKind::Panic,
                message: msg,
                trace: st.trace.clone(),
            })
        } else if deadlock {
            let stuck: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(i, t)| format!("t{i}:{:?}", t.status))
                .collect();
            Some(Failure {
                kind: FailureKind::Deadlock,
                message: format!("no runnable thread; stuck: {}", stuck.join(", ")),
                trace: st.trace.clone(),
            })
        } else {
            None
        };
        RunOutcome {
            trace: st.trace.clone(),
            failure,
            preemptions: st.preemptions,
            decisions,
        }
    }
}

struct RunOutcome {
    trace: Vec<TraceStep>,
    failure: Option<Failure>,
    /// Preemptions this run consumed.
    preemptions: usize,
    /// Choice points with more than one live option this run hit.
    decisions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_runs_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let report = Explorer::exhaustive().explore(move |_sim| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        report.assert_ok();
        assert_eq!(report.runs, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn two_increments_always_atomic_under_mutex() {
        let report = Explorer::exhaustive().preemption_bound(2).explore(|sim| {
            let m = sim.mutex(0u32);
            let m1 = m.clone();
            let t1 = sim.spawn(move || *m1.lock() += 1);
            let m2 = m.clone();
            let t2 = sim.spawn(move || *m2.lock() += 1);
            t1.join();
            t2.join();
            assert_eq!(*m.lock(), 2);
        });
        report.assert_ok();
        assert!(report.runs > 1, "should explore several interleavings");
    }

    #[test]
    fn lost_update_is_found() {
        // Read-then-write without holding the lock across: the classic
        // lost update must appear in some interleaving.
        let report = Explorer::exhaustive().preemption_bound(2).explore(|sim| {
            let m = sim.mutex(0u32);
            let mk = |m: SimMutex<u32>, sim: Sim| {
                move || {
                    let v = *m.lock();
                    sim.yield_now();
                    *m.lock() = v + 1;
                }
            };
            let t1 = sim.spawn(mk(m.clone(), sim.clone()));
            let t2 = sim.spawn(mk(m.clone(), sim.clone()));
            t1.join();
            t2.join();
            assert_eq!(*m.lock(), 2, "lost update");
        });
        assert_eq!(report.failures.len(), 1, "must fail in some schedule");
        assert_eq!(report.failures[0].kind, FailureKind::Panic);
        assert!(report.failures[0].message.contains("lost update"));
    }

    #[test]
    fn deadlock_reported_with_trace() {
        // Receiver waits forever on a channel nobody sends to.
        let report = Explorer::exhaustive().explore(|sim| {
            let (tx, rx) = sim.channel::<u8>(None);
            let t = sim.spawn(move || {
                let _ = rx.recv();
            });
            // Keep a sender alive so recv() can never see "closed",
            // then wait for the receiver: a guaranteed deadlock.
            t.join();
            drop(tx);
        });
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].kind, FailureKind::Deadlock);
        assert!(!report.failures[0].trace.is_empty());
    }

    #[test]
    fn channel_delivers_in_order_under_all_schedules() {
        let report = Explorer::exhaustive().preemption_bound(1).explore(|sim| {
            let (tx, rx) = sim.channel(Some(1));
            let t = sim.spawn(move || {
                for i in 0..3u8 {
                    assert!(tx.send(i));
                }
            });
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                got.push(v);
            }
            t.join();
            assert_eq!(got, vec![0, 1, 2]);
        });
        report.assert_ok();
        assert!(report.runs >= 2);
    }

    #[test]
    fn choose_enumerates_values() {
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let s = Arc::clone(&seen);
        let report = Explorer::exhaustive().explore(move |sim| {
            let v = sim.choose(4);
            s.lock().unwrap().insert(v);
        });
        report.assert_ok();
        assert_eq!(report.runs, 4);
        assert_eq!(seen.lock().unwrap().len(), 4);
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let run = || {
            let order = Arc::new(Mutex::new(Vec::new()));
            let o = Arc::clone(&order);
            let report = Explorer::random(42, 20).explore(move |sim| {
                let m = sim.mutex(Vec::<u8>::new());
                let spawn_push = |tag: u8| {
                    let m = m.clone();
                    move || m.lock().push(tag)
                };
                let t1 = sim.spawn(spawn_push(1));
                let t2 = sim.spawn(spawn_push(2));
                t1.join();
                t2.join();
                o.lock().unwrap().push(m.lock().clone());
            });
            report.assert_ok();
            let v = order.lock().unwrap().clone();
            v
        };
        assert_eq!(run(), run());
    }
}
