//! The deterministic cooperative scheduler behind the `obr_model` build.
//!
//! Scenario bodies run on real OS threads, but only **one thread runs at a
//! time**: every facade operation (lock acquire, atomic op, condvar wait,
//! spawn/join/yield) is a *yield point* where the running thread parks and
//! a scheduling decision picks which parked thread continues. The decision
//! is delegated to a [`Chooser`], so the same seed (or the same replayed
//! choice prefix) always produces the same interleaving.
//!
//! Key design points:
//!
//! * **Worker-driven token passing.** There is no separate host thread:
//!   the thread that just parked runs the scheduling decision inline and
//!   either continues itself (no context switch) or wakes the chosen
//!   thread via a condvar.
//! * **Releases and notifies are inline**, not yield points: the next
//!   operation of the running thread is a yield point anyway, so making
//!   releases schedulable would only square the schedule space without
//!   adding observable interleavings. They do mark the executed step
//!   "dirty" so the DPOR-lite pruner in `obr-race` treats it as dependent
//!   on everything.
//! * **Timed condvar waits fire only when nothing else is enabled.** This
//!   models "the timeout eventually fires" without spurious `Timeout`
//!   results in schedules where real execution would have made progress.
//! * **No spurious wakeups**: a waiter becomes runnable only once
//!   notified (FIFO order for `notify_one`) or timeout-eligible, and its
//!   grant atomically reacquires the mutex.
//! * **Deadlock detection for free**: if no parked thread is enabled and
//!   at least one is unfinished, the run fails with a dump of every
//!   thread's pending operation and held locks.
//!
//! A run that fails (deadlock, panic, step limit) aborts the remaining
//! threads: they wake, unwind with a private sentinel panic (releasing
//! their locks via RAII), and the report records the first real failure.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

/// Thread-id within a controlled run (index into the run's thread table).
pub type ThreadId = usize;

static NEXT_OBJ: StdAtomicU64 = StdAtomicU64::new(1);

/// Allocates a process-unique id for a sync object (lock, condvar, atomic).
pub(crate) fn alloc_obj_id() -> u64 {
    // protocol: relaxed uniqueness is all that matters; ids are never compared for
    // ordering across threads.
    NEXT_OBJ.fetch_add(1, StdOrdering::Relaxed)
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

#[derive(Clone)]
pub(crate) struct WorkerCtx {
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) id: ThreadId,
}

pub(crate) fn current() -> Option<WorkerCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Sentinel panic payload used to unwind workers when a run aborts.
struct ScheduleAbort;

fn abort_unwind() -> ! {
    panic::panic_any(ScheduleAbort)
}

/// One schedulable operation a parked thread is waiting to perform.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// First grant of a freshly spawned thread.
    Start,
    /// Voluntary yield (also emitted after a spawn).
    Yield,
    /// Trace marker inserted by [`annotate`].
    Annotate(&'static str),
    /// Blocking mutex acquisition.
    MutexLock {
        /// Instance id of the mutex.
        obj: u64,
        /// Lock class of the mutex.
        class: &'static str,
    },
    /// Non-blocking mutex acquisition attempt (always enabled; the grant
    /// decides success).
    MutexTryLock {
        /// Instance id of the mutex.
        obj: u64,
        /// Lock class of the mutex.
        class: &'static str,
    },
    /// Shared read acquisition of an rwlock.
    RwRead {
        /// Instance id of the rwlock.
        obj: u64,
        /// Lock class of the rwlock.
        class: &'static str,
    },
    /// Exclusive write acquisition of an rwlock.
    RwWrite {
        /// Instance id of the rwlock.
        obj: u64,
        /// Lock class of the rwlock.
        class: &'static str,
    },
    /// Parked on a condvar; the grant atomically reacquires the mutex.
    CondWait {
        /// Instance id of the condvar.
        cv: u64,
        /// Instance id of the mutex to reacquire.
        mutex: u64,
        /// Lock class of the mutex.
        class: &'static str,
        /// Whether the wait carries a deadline (timeout-eligible).
        timed: bool,
    },
    /// An atomic operation with its declared memory ordering.
    Atomic {
        /// Instance id of the atomic.
        obj: u64,
        /// True for stores and read-modify-writes.
        write: bool,
        /// True for read-modify-write operations.
        rmw: bool,
        /// Name of the declared `Ordering` (e.g. `"Relaxed"`).
        ord: &'static str,
    },
    /// Joining a finished child thread.
    Join {
        /// Thread id of the child being joined.
        child: ThreadId,
    },
}

impl fmt::Debug for PendingOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PendingOp::Start => write!(f, "start"),
            PendingOp::Yield => write!(f, "yield"),
            PendingOp::Annotate(l) => write!(f, "annotate({l})"),
            PendingOp::MutexLock { obj, class } => write!(f, "lock({class}#{obj})"),
            PendingOp::MutexTryLock { obj, class } => write!(f, "try_lock({class}#{obj})"),
            PendingOp::RwRead { obj, class } => write!(f, "read({class}#{obj})"),
            PendingOp::RwWrite { obj, class } => write!(f, "write({class}#{obj})"),
            PendingOp::CondWait {
                cv,
                mutex,
                class,
                timed,
            } => {
                write!(f, "cond_wait(cv#{cv}, {class}#{mutex}, timed={timed})")
            }
            PendingOp::Atomic {
                obj,
                write,
                rmw,
                ord,
            } => {
                write!(
                    f,
                    "atomic#{obj}({}, {ord})",
                    if *rmw {
                        "rmw"
                    } else if *write {
                        "store"
                    } else {
                        "load"
                    }
                )
            }
            PendingOp::Join { child } => write!(f, "join(t{child})"),
        }
    }
}

/// Conflict-analysis classification of a candidate, used by the
/// DPOR-lite pruner in `obr-race`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CandKind {
    /// Touches no shared sync object (start/yield/annotate) — independent
    /// of everything.
    Pure,
    /// Touches sync object `obj`; `write` is true unless it is a pure
    /// read (atomic load, rwlock read).
    Sync {
        /// Instance id of the touched object.
        obj: u64,
        /// Whether the access mutates the object.
        write: bool,
    },
    /// Join — conservatively dependent on everything.
    Join,
}

/// One enabled choice at a scheduling decision.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Thread that would run.
    pub thread: ThreadId,
    /// The operation that would be granted.
    pub op: PendingOp,
    /// Conflict classification of `op`.
    pub kind: CandKind,
    /// True when this candidate is a timed condvar wait firing its
    /// timeout (only offered when nothing else is enabled).
    pub timeout_fire: bool,
}

/// Summary of the previously executed step, handed to the chooser for
/// DPOR-style pruning decisions.
#[derive(Clone, Copy, Debug)]
pub struct Executed {
    /// Thread that executed the step.
    pub thread: ThreadId,
    /// Conflict classification of the granted operation.
    pub kind: CandKind,
    /// True when the thread performed inline releases/notifies after the
    /// grant — such a step must be treated as dependent on everything.
    pub span_dirty: bool,
}

/// Picks which enabled candidate runs at each scheduling decision.
pub trait Chooser {
    /// Returns an index into `candidates` (callers take it modulo the
    /// candidate count). `last` is the previously executed step with its
    /// completed span, or `None` at the first decision.
    fn choose(&mut self, step: usize, last: Option<&Executed>, candidates: &[Candidate]) -> usize;
}

/// Seeded xorshift64* chooser: the same seed always produces the same
/// schedule for a deterministic scenario.
pub struct RandomChooser {
    state: u64,
}

impl RandomChooser {
    /// Creates a chooser from a non-zero-normalized seed. The seed is
    /// scrambled with splitmix64 so consecutive seeds (`1, 2, 3, …`, the
    /// natural sweep shape) land in unrelated streams — `seed | 1` alone
    /// made even/odd neighbours identical.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self { state: z | 1 }
    }
}

impl Chooser for RandomChooser {
    fn choose(
        &mut self,
        _step: usize,
        _last: Option<&Executed>,
        candidates: &[Candidate],
    ) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize % candidates.len()
    }
}

/// Replays a recorded prefix of candidate indices, then always picks the
/// first enabled candidate. This is the exhaustive explorer's replay
/// vehicle and the way a failing schedule is reproduced from a report.
pub struct PrefixChooser {
    prefix: Vec<usize>,
}

impl PrefixChooser {
    /// Creates a chooser that replays `prefix` (indices into each step's
    /// candidate list).
    pub fn new(prefix: Vec<usize>) -> Self {
        Self { prefix }
    }
}

impl Chooser for PrefixChooser {
    fn choose(&mut self, step: usize, _last: Option<&Executed>, candidates: &[Candidate]) -> usize {
        self.prefix.get(step).copied().unwrap_or(0) % candidates.len()
    }
}

/// Record of one scheduling decision: the enabled candidates, which was
/// chosen, and whether the chosen thread's run span performed inline
/// releases/notifies.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Enabled candidates at this decision, in thread-id order.
    pub candidates: Vec<Candidate>,
    /// Index into `candidates` of the granted choice.
    pub chosen: usize,
    /// True when the granted thread released locks or notified condvars
    /// before parking again.
    pub span_dirty: bool,
}

/// One event in the linear execution trace of a schedule.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A scheduling decision granted `op` to `thread`.
    Grant {
        /// Decision index.
        step: usize,
        /// Granted thread.
        thread: ThreadId,
        /// Granted operation.
        op: PendingOp,
        /// True when a timed wait fired its timeout.
        timeout_fire: bool,
    },
    /// `thread` released a lock inline.
    Release {
        /// Releasing thread.
        thread: ThreadId,
        /// Instance id of the released lock.
        obj: u64,
        /// Lock class of the released lock.
        class: &'static str,
        /// True for mutex/write guards, false for read guards.
        write: bool,
    },
    /// `thread` notified a condvar inline.
    Notify {
        /// Notifying thread.
        thread: ThreadId,
        /// Instance id of the condvar.
        cv: u64,
        /// True for `notify_all`.
        all: bool,
    },
    /// `thread` finished its closure.
    Finished {
        /// Finished thread.
        thread: ThreadId,
    },
}

/// Why a controlled run ended.
#[derive(Clone, Debug)]
pub enum RunResult {
    /// All threads ran to completion.
    Complete,
    /// A thread panicked (assertion failure in the scenario body).
    Panic {
        /// Panicking thread.
        thread: ThreadId,
        /// Captured panic message.
        message: String,
    },
    /// No thread was enabled while some were unfinished.
    Deadlock {
        /// Human-readable dump of pending ops and held locks.
        detail: String,
    },
    /// The decision count exceeded the configured step budget.
    StepLimit,
}

impl RunResult {
    /// True only for [`RunResult::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, RunResult::Complete)
    }
}

/// Everything observed while executing one schedule.
pub struct RunReport {
    /// How the run ended.
    pub result: RunResult,
    /// Number of scheduling decisions taken.
    pub steps: usize,
    /// Candidate index chosen at each decision (replayable via
    /// [`PrefixChooser`]).
    pub choices: Vec<usize>,
    /// Thread granted at each decision; hashing this identifies the
    /// schedule.
    pub schedule: Vec<ThreadId>,
    /// FNV-1a hash of `schedule` — two runs with equal hashes executed
    /// the same interleaving.
    pub schedule_hash: u64,
    /// Lock-acquisition-order edges observed (held class → acquired
    /// class), deduplicated.
    pub edges: BTreeSet<(&'static str, &'static str)>,
    /// Full linear event trace.
    pub trace: Vec<TraceEvent>,
    /// Per-decision records for exhaustive exploration/backtracking.
    pub records: Vec<StepRecord>,
}

#[derive(Clone, Copy)]
struct Grant {
    timed_out: bool,
    try_ok: bool,
}

impl Default for Grant {
    fn default() -> Self {
        Self {
            timed_out: false,
            try_ok: true,
        }
    }
}

struct Held {
    obj: u64,
    class: &'static str,
    write: bool,
}

#[derive(Default)]
struct LockState {
    writer: Option<ThreadId>,
    readers: Vec<ThreadId>,
}

impl LockState {
    fn free(&self) -> bool {
        self.writer.is_none() && self.readers.is_empty()
    }
}

struct Waiter {
    thread: ThreadId,
    notified: bool,
}

#[derive(Default)]
struct CvState {
    waiters: VecDeque<Waiter>,
}

struct ThreadState {
    name: String,
    parked: bool,
    finished: bool,
    pending: Option<PendingOp>,
    granted: Option<Grant>,
    held: Vec<Held>,
    last_record: Option<usize>,
    span_dirty: bool,
}

struct SchedState {
    chooser: Box<dyn Chooser + Send>,
    max_steps: usize,
    steps: usize,
    threads: Vec<ThreadState>,
    locks: HashMap<u64, LockState>,
    cvs: HashMap<u64, CvState>,
    edges: BTreeSet<(&'static str, &'static str)>,
    trace: Vec<TraceEvent>,
    records: Vec<StepRecord>,
    running: Option<ThreadId>,
    aborting: bool,
    failure: Option<RunResult>,
    done: bool,
}

pub(crate) struct Scheduler {
    mu: StdMutex<SchedState>,
    cv_workers: StdCondvar,
    cv_done: StdCondvar,
}

fn fnv1a(ids: &[ThreadId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &id in ids {
        for b in (id as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Scheduler {
    fn new(chooser: Box<dyn Chooser + Send>, max_steps: usize) -> Self {
        Self {
            mu: StdMutex::new(SchedState {
                chooser,
                max_steps,
                steps: 0,
                threads: Vec::new(),
                locks: HashMap::new(),
                cvs: HashMap::new(),
                edges: BTreeSet::new(),
                trace: Vec::new(),
                records: Vec::new(),
                running: None,
                aborting: false,
                failure: None,
                done: false,
            }),
            cv_workers: StdCondvar::new(),
            cv_done: StdCondvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, SchedState> {
        self.mu.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn register_thread(&self) -> ThreadId {
        let mut st = self.lock();
        let id = st.threads.len();
        st.threads.push(ThreadState {
            name: format!("t{id}"),
            parked: true,
            finished: false,
            pending: Some(PendingOp::Start),
            granted: None,
            held: Vec::new(),
            last_record: None,
            span_dirty: false,
        });
        id
    }

    /// Parks `me` with `op` pending, runs a scheduling decision, and waits
    /// until granted. Panics with the abort sentinel if the run aborts.
    fn yield_point(&self, me: ThreadId, op: PendingOp) -> Grant {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        finish_span(&mut st, me);
        st.threads[me].pending = Some(op);
        st.threads[me].parked = true;
        st.running = None;
        self.schedule(&mut st);
        loop {
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            if let Some(g) = st.threads[me].granted.take() {
                st.threads[me].parked = false;
                return g;
            }
            st = self.cv_workers.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Waits for the initial `Start` grant of a freshly spawned thread.
    fn wait_for_start(&self, me: ThreadId) {
        let mut st = self.lock();
        loop {
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            if st.threads[me].granted.take().is_some() {
                st.threads[me].parked = false;
                return;
            }
            st = self.cv_workers.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Runs one scheduling decision. Caller must have parked/finished the
    /// previously running thread. May set `aborting` or grant a thread.
    fn schedule(&self, st: &mut SchedState) {
        if st.aborting || st.done {
            self.cv_workers.notify_all();
            return;
        }
        if st.threads.iter().all(|t| t.finished) {
            st.done = true;
            self.cv_done.notify_all();
            return;
        }
        let candidates = enabled_candidates(st);
        if candidates.is_empty() {
            let detail = deadlock_dump(st);
            self.fail(st, RunResult::Deadlock { detail });
            return;
        }
        if st.steps >= st.max_steps {
            self.fail(st, RunResult::StepLimit);
            return;
        }
        let last = st.records.last().map(|r| Executed {
            thread: r.candidates[r.chosen].thread,
            kind: r.candidates[r.chosen].kind,
            span_dirty: r.span_dirty,
        });
        let step = st.steps;
        let idx = if candidates.len() == 1 {
            0
        } else {
            st.chooser.choose(step, last.as_ref(), &candidates) % candidates.len()
        };
        let cand = candidates[idx];
        let grant = apply_grant(st, &cand);
        st.trace.push(TraceEvent::Grant {
            step,
            thread: cand.thread,
            op: cand.op,
            timeout_fire: cand.timeout_fire,
        });
        st.records.push(StepRecord {
            candidates,
            chosen: idx,
            span_dirty: false,
        });
        let rec = st.records.len() - 1;
        let t = &mut st.threads[cand.thread];
        t.last_record = Some(rec);
        t.pending = None;
        t.granted = Some(grant);
        st.running = Some(cand.thread);
        st.steps += 1;
        self.cv_workers.notify_all();
    }

    fn fail(&self, st: &mut SchedState, result: RunResult) {
        if st.failure.is_none() {
            st.failure = Some(result);
        }
        st.aborting = true;
        self.cv_workers.notify_all();
    }

    fn finish_thread(&self, me: ThreadId) {
        let mut st = self.lock();
        finish_span(&mut st, me);
        let t = &mut st.threads[me];
        t.finished = true;
        t.parked = false;
        t.pending = None;
        if st.running == Some(me) {
            st.running = None;
        }
        st.trace.push(TraceEvent::Finished { thread: me });
        if st.aborting {
            if st.threads.iter().all(|t| t.finished) {
                st.done = true;
                self.cv_done.notify_all();
            }
            self.cv_workers.notify_all();
        } else {
            self.schedule(&mut st);
        }
    }

    fn record_worker_panic(&self, me: ThreadId, payload: &(dyn std::any::Any + Send)) {
        if payload.is::<ScheduleAbort>() {
            return;
        }
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let mut st = self.lock();
        let result = RunResult::Panic {
            thread: me,
            message,
        };
        self.fail(&mut st, result);
    }

    // ---- inline (non-yield) operations, called by the running thread ----

    pub(crate) fn release_lock(&self, me: ThreadId, obj: u64, class: &'static str, write: bool) {
        let mut st = self.lock();
        if let Some(l) = st.locks.get_mut(&obj) {
            if write {
                if l.writer == Some(me) {
                    l.writer = None;
                }
            } else {
                l.readers.retain(|&r| r != me);
            }
        }
        let t = &mut st.threads[me];
        if let Some(pos) = t
            .held
            .iter()
            .rposition(|h| h.obj == obj && h.write == write)
        {
            t.held.remove(pos);
        }
        t.span_dirty = true;
        st.trace.push(TraceEvent::Release {
            thread: me,
            obj,
            class,
            write,
        });
    }

    pub(crate) fn notify_cv(&self, me: ThreadId, cv: u64, all: bool) {
        let mut st = self.lock();
        if let Some(c) = st.cvs.get_mut(&cv) {
            if all {
                for w in c.waiters.iter_mut() {
                    w.notified = true;
                }
            } else if let Some(w) = c.waiters.iter_mut().find(|w| !w.notified) {
                w.notified = true;
            }
        }
        st.threads[me].span_dirty = true;
        st.trace.push(TraceEvent::Notify {
            thread: me,
            cv,
            all,
        });
    }

    /// Virtually releases `mutex`, enqueues `me` on `cv`, parks until
    /// notified (or the timeout fires), and reacquires the mutex as part
    /// of the grant. Returns true when the timeout fired.
    pub(crate) fn cond_wait(
        &self,
        me: ThreadId,
        cv: u64,
        mutex: u64,
        class: &'static str,
        timed: bool,
    ) -> bool {
        {
            let mut st = self.lock();
            if let Some(l) = st.locks.get_mut(&mutex) {
                if l.writer == Some(me) {
                    l.writer = None;
                }
            }
            let t = &mut st.threads[me];
            if let Some(pos) = t.held.iter().rposition(|h| h.obj == mutex) {
                t.held.remove(pos);
            }
            t.span_dirty = true;
            st.trace.push(TraceEvent::Release {
                thread: me,
                obj: mutex,
                class,
                write: true,
            });
            st.cvs.entry(cv).or_default().waiters.push_back(Waiter {
                thread: me,
                notified: false,
            });
        }
        self.yield_point(
            me,
            PendingOp::CondWait {
                cv,
                mutex,
                class,
                timed,
            },
        )
        .timed_out
    }
}

fn finish_span(st: &mut SchedState, me: ThreadId) {
    let dirty = st.threads[me].span_dirty;
    st.threads[me].span_dirty = false;
    if let Some(i) = st.threads[me].last_record {
        st.records[i].span_dirty = dirty;
    }
}

fn cand_kind(op: &PendingOp) -> CandKind {
    match *op {
        PendingOp::Start | PendingOp::Yield | PendingOp::Annotate(_) => CandKind::Pure,
        PendingOp::MutexLock { obj, .. }
        | PendingOp::MutexTryLock { obj, .. }
        | PendingOp::RwWrite { obj, .. } => CandKind::Sync { obj, write: true },
        PendingOp::RwRead { obj, .. } => CandKind::Sync { obj, write: false },
        PendingOp::CondWait { mutex, .. } => CandKind::Sync {
            obj: mutex,
            write: true,
        },
        PendingOp::Atomic {
            obj, write, rmw, ..
        } => CandKind::Sync {
            obj,
            write: write || rmw,
        },
        PendingOp::Join { .. } => CandKind::Join,
    }
}

fn lock_free(st: &SchedState, obj: u64) -> bool {
    st.locks.get(&obj).is_none_or(|l| l.free())
}

fn enabled_candidates(st: &SchedState) -> Vec<Candidate> {
    let mut normal = Vec::new();
    let mut timeouts = Vec::new();
    for (i, t) in st.threads.iter().enumerate() {
        if t.finished || !t.parked {
            continue;
        }
        let Some(op) = t.pending else { continue };
        let mk = |timeout_fire| Candidate {
            thread: i,
            op,
            kind: cand_kind(&op),
            timeout_fire,
        };
        match op {
            PendingOp::Start
            | PendingOp::Yield
            | PendingOp::Annotate(_)
            | PendingOp::Atomic { .. }
            | PendingOp::MutexTryLock { .. } => normal.push(mk(false)),
            PendingOp::MutexLock { obj, .. } | PendingOp::RwWrite { obj, .. } => {
                if lock_free(st, obj) {
                    normal.push(mk(false));
                }
            }
            PendingOp::RwRead { obj, .. } => {
                if st.locks.get(&obj).is_none_or(|l| l.writer.is_none()) {
                    normal.push(mk(false));
                }
            }
            PendingOp::Join { child } => {
                if st.threads[child].finished {
                    normal.push(mk(false));
                }
            }
            PendingOp::CondWait {
                cv, mutex, timed, ..
            } => {
                let notified = st
                    .cvs
                    .get(&cv)
                    .and_then(|c| c.waiters.iter().find(|w| w.thread == i))
                    .map(|w| w.notified)
                    .unwrap_or(false);
                if lock_free(st, mutex) {
                    if notified {
                        normal.push(mk(false));
                    } else if timed {
                        timeouts.push(mk(true));
                    }
                }
            }
        }
    }
    if normal.is_empty() {
        timeouts
    } else {
        normal
    }
}

fn record_acquire(st: &mut SchedState, me: ThreadId, obj: u64, class: &'static str, write: bool) {
    let mut new_edges = Vec::new();
    for h in &st.threads[me].held {
        if h.obj != obj {
            new_edges.push((h.class, class));
        }
    }
    st.edges.extend(new_edges);
    let l = st.locks.entry(obj).or_default();
    if write {
        l.writer = Some(me);
    } else {
        l.readers.push(me);
    }
    st.threads[me].held.push(Held { obj, class, write });
}

fn apply_grant(st: &mut SchedState, cand: &Candidate) -> Grant {
    let me = cand.thread;
    match cand.op {
        PendingOp::Start
        | PendingOp::Yield
        | PendingOp::Annotate(_)
        | PendingOp::Atomic { .. }
        | PendingOp::Join { .. } => Grant::default(),
        PendingOp::MutexLock { obj, class } | PendingOp::RwWrite { obj, class } => {
            record_acquire(st, me, obj, class, true);
            Grant::default()
        }
        PendingOp::RwRead { obj, class } => {
            record_acquire(st, me, obj, class, false);
            Grant::default()
        }
        PendingOp::MutexTryLock { obj, class } => {
            if lock_free(st, obj) {
                record_acquire(st, me, obj, class, true);
                Grant {
                    timed_out: false,
                    try_ok: true,
                }
            } else {
                Grant {
                    timed_out: false,
                    try_ok: false,
                }
            }
        }
        PendingOp::CondWait {
            cv, mutex, class, ..
        } => {
            let notified = if let Some(c) = st.cvs.get_mut(&cv) {
                if let Some(pos) = c.waiters.iter().position(|w| w.thread == me) {
                    c.waiters.remove(pos).map(|w| w.notified).unwrap_or(false)
                } else {
                    false
                }
            } else {
                false
            };
            record_acquire(st, me, mutex, class, true);
            Grant {
                timed_out: !notified,
                try_ok: true,
            }
        }
    }
}

fn deadlock_dump(st: &SchedState) -> String {
    let mut out = String::new();
    for (i, t) in st.threads.iter().enumerate() {
        if t.finished {
            continue;
        }
        let held: Vec<String> = t
            .held
            .iter()
            .map(|h| format!("{}#{}", h.class, h.obj))
            .collect();
        out.push_str(&format!(
            "{} (t{i}): pending {:?}, holds [{}]\n",
            t.name,
            t.pending,
            held.join(", ")
        ));
    }
    out
}

// ---- worker entry points used by the facade types ----

fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // Worker panics inside a controlled run (including the abort
            // sentinel) are captured and reported via RunReport — keep
            // stderr quiet for the thousands of schedules the explorer
            // replays. Panics outside a run keep the default hook.
            let controlled = CURRENT.with(|c| c.borrow().is_some());
            if !controlled {
                prev(info);
            }
        }));
    });
}

fn worker_main<F, T>(sched: Arc<Scheduler>, id: ThreadId, f: F) -> Option<T>
where
    F: FnOnce() -> T,
{
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(WorkerCtx {
            sched: sched.clone(),
            id,
        })
    });
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        sched.wait_for_start(id);
        f()
    }));
    let out = match result {
        Ok(v) => Some(v),
        Err(payload) => {
            sched.record_worker_panic(id, payload.as_ref());
            None
        }
    };
    sched.finish_thread(id);
    CURRENT.with(|c| *c.borrow_mut() = None);
    out
}

/// Executes `body` as thread 0 of a controlled run, driving every facade
/// operation through `chooser`, and returns the full schedule report.
/// Deterministic: the same chooser decisions yield the same report.
pub fn run_controlled<F>(chooser: Box<dyn Chooser + Send>, max_steps: usize, body: F) -> RunReport
where
    F: FnOnce() + Send + 'static,
{
    install_panic_hook();
    let sched = Arc::new(Scheduler::new(chooser, max_steps));
    let root = sched.register_thread();
    let schedc = sched.clone();
    let real = std::thread::spawn(move || worker_main(schedc, root, body));
    {
        let mut st = sched.lock();
        sched.schedule(&mut st);
    }
    let mut st = sched.lock();
    while !st.done {
        st = sched.cv_done.wait(st).unwrap_or_else(|p| p.into_inner());
    }
    let schedule: Vec<ThreadId> = st
        .records
        .iter()
        .map(|r| r.candidates[r.chosen].thread)
        .collect();
    let report = RunReport {
        result: st.failure.clone().unwrap_or(RunResult::Complete),
        steps: st.steps,
        choices: st.records.iter().map(|r| r.chosen).collect(),
        schedule_hash: fnv1a(&schedule),
        schedule,
        edges: st.edges.clone(),
        trace: std::mem::take(&mut st.trace),
        records: std::mem::take(&mut st.records),
    };
    drop(st);
    let _ = real.join();
    report
}

/// Inserts a named marker into the schedule trace (a yield point), used
/// by regression tests to anchor interleaving predicates. No-op outside a
/// controlled run.
pub fn annotate(label: &'static str) {
    if let Some(ctx) = current() {
        ctx.sched.yield_point(ctx.id, PendingOp::Annotate(label));
    }
}

// ---- hooks used by the modeled facade types ----

pub(crate) fn on_mutex_lock(obj: u64, class: &'static str) -> bool {
    if let Some(ctx) = current() {
        ctx.sched
            .yield_point(ctx.id, PendingOp::MutexLock { obj, class });
        true
    } else {
        false
    }
}

pub(crate) fn on_mutex_try_lock(obj: u64, class: &'static str) -> Option<bool> {
    current().map(|ctx| {
        ctx.sched
            .yield_point(ctx.id, PendingOp::MutexTryLock { obj, class })
            .try_ok
    })
}

pub(crate) fn on_rw_acquire(obj: u64, class: &'static str, write: bool) -> bool {
    if let Some(ctx) = current() {
        let op = if write {
            PendingOp::RwWrite { obj, class }
        } else {
            PendingOp::RwRead { obj, class }
        };
        ctx.sched.yield_point(ctx.id, op);
        true
    } else {
        false
    }
}

pub(crate) fn on_release(obj: u64, class: &'static str, write: bool) {
    if let Some(ctx) = current() {
        ctx.sched.release_lock(ctx.id, obj, class, write);
    }
}

pub(crate) fn on_notify(cv: u64, all: bool) -> bool {
    if let Some(ctx) = current() {
        ctx.sched.notify_cv(ctx.id, cv, all);
        true
    } else {
        false
    }
}

pub(crate) fn on_cond_wait(cv: u64, mutex: u64, class: &'static str, timed: bool) -> Option<bool> {
    current().map(|ctx| ctx.sched.cond_wait(ctx.id, cv, mutex, class, timed))
}

pub(crate) fn on_atomic(obj: u64, write: bool, rmw: bool, ord: &'static str) {
    if let Some(ctx) = current() {
        ctx.sched.yield_point(
            ctx.id,
            PendingOp::Atomic {
                obj,
                write,
                rmw,
                ord,
            },
        );
    }
}

/// Thread-spawn implementation for model builds (used via
/// `obr_sync::thread`).
pub mod thread_impl {
    use super::{current, worker_main, PendingOp, ThreadId};

    /// Handle to a spawned facade thread.
    pub enum JoinHandle<T> {
        /// Thread spawned outside a controlled run — plain `std::thread`.
        Std(std::thread::JoinHandle<T>),
        /// Thread participating in a controlled run.
        Model {
            /// Underlying OS thread (its closure returns `None` when the
            /// run aborted mid-thread).
            real: std::thread::JoinHandle<Option<T>>,
            /// Model thread id of the child.
            child: ThreadId,
        },
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result. In a
        /// controlled run this is a yield point enabled once the child
        /// has finished.
        pub fn join(self) -> std::thread::Result<T> {
            match self {
                JoinHandle::Std(h) => h.join(),
                JoinHandle::Model { real, child } => {
                    let ctx = current().expect("joining a model thread outside a controlled run");
                    ctx.sched.yield_point(ctx.id, PendingOp::Join { child });
                    match real.join() {
                        Ok(Some(v)) => Ok(v),
                        // The child unwound because the run aborted; abort
                        // the joiner too so the whole run tears down.
                        Ok(None) => super::abort_unwind(),
                        Err(e) => Err(e),
                    }
                }
            }
        }
    }

    /// Spawns a thread. Inside a controlled run the child is registered
    /// with the scheduler and starts only when a decision grants it;
    /// outside, this is plain `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match current() {
            None => JoinHandle::Std(std::thread::spawn(f)),
            Some(ctx) => {
                let child = ctx.sched.register_thread();
                let sched = ctx.sched.clone();
                let real = std::thread::spawn(move || worker_main(sched, child, f));
                // Yield so the decision point right after a spawn can
                // schedule either parent or child.
                ctx.sched.yield_point(ctx.id, PendingOp::Yield);
                JoinHandle::Model { real, child }
            }
        }
    }

    /// Voluntary yield point (plain `std::thread::yield_now` outside a
    /// controlled run).
    pub fn yield_now() {
        match current() {
            None => std::thread::yield_now(),
            Some(ctx) => {
                ctx.sched.yield_point(ctx.id, PendingOp::Yield);
            }
        }
    }
}
