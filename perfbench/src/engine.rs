//! Driving the engine: database builds, closed-loop generator threads,
//! reorganization cycles, crash + recovery rounds, counters, and the
//! correctness oracle. Every call the benchmark makes into a layer goes
//! through here, so the traced run's spans sit at exactly those calls.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obr_btree::{SidePointerMode, TreeStats};
use obr_core::{recover, Database, EngineConfig, RecoveryReport, ReorgConfig, Reorganizer};
use obr_obs::MetricValue;
use obr_server::client::{Client, ClientError};
use obr_server::proto::ErrorCode;
use obr_txn::{Session, TxnError};

use crate::gen::{self, Class, Op, Stream};
use crate::hist::Recorder;

/// Errors end the run: every one is a failed gate or a broken engine.
pub type Res<T> = Result<T, String>;

/// Writers in each crash round's fixed log tail, running at once.
pub const TAIL_WRITERS: u64 = 2;
/// Auto-commit inserts of fresh keys each tail writer makes.
pub const TAIL_WRITES: u64 = 1_000;
/// Crash + recovery rounds per run (`recovery_s` is their median).
pub const RECOVERY_ROUNDS: u64 = 5;
/// Tail keys live far above every workload's key space.
const TAIL_BASE: u64 = 1 << 40;

/// Create a fresh durable database in `dir` with the default engine
/// configuration (group commit on).
pub fn create(dir: &Path, pages: u32, frames: usize) -> Res<Arc<Database>> {
    let _ = std::fs::remove_dir_all(dir);
    Database::create_durable_with_config(
        dir,
        pages,
        frames,
        SidePointerMode::TwoWay,
        EngineConfig::default(),
    )
    .map_err(|e| format!("create database: {e}"))
}

/// Open `dir` and run restart recovery; returns the database, the
/// recovery report and the open + recover wall time.
pub fn reopen(dir: &Path, frames: usize) -> Res<(Arc<Database>, RecoveryReport, Duration)> {
    let t = Instant::now();
    let db = Database::open_durable(dir, frames, SidePointerMode::TwoWay)
        .map_err(|e| format!("open database: {e}"))?;
    let report = recover(&db).map_err(|e| format!("recover: {e}"))?;
    Ok((db, report, t.elapsed()))
}

/// Simulate a crash that loses every unflushed page and the unforced log
/// tail, then reopen and recover.
pub fn crash_and_recover(
    db: Arc<Database>,
    dir: &Path,
    frames: usize,
) -> Res<(Arc<Database>, RecoveryReport, Duration)> {
    db.crash(|_| false).map_err(|e| format!("crash: {e}"))?;
    if Arc::strong_count(&db) != 1 {
        return Err("database still referenced at crash time".into());
    }
    drop(db);
    reopen(dir, frames)
}

/// Updates per filler transaction in [`fresh_log`].
const FILLER_KEYS: usize = 100;

/// Start the log afresh before a crash round. A restart reads every
/// retained WAL segment, and truncation recycles only sealed ones, so the
/// active segment would carry whatever preceded the checkpoint (0–4 MiB,
/// depending on the run's throughput) into every restart. Update a fixed
/// set of present keys in committed transactions until the active
/// segment seals, then truncate: the restart log is only what follows.
/// The seal lands after a commit (this is the only writer), so no
/// transaction or reorganization unit straddles the recycled boundary.
pub fn fresh_log(db: &Arc<Database>, oracle: &mut Oracle) -> Res<()> {
    let session = Session::new(Arc::clone(db));
    let mid = oracle.len() / 2;
    let mut keys: Vec<(u64, u32)> = oracle
        .0
        .iter()
        .skip(mid)
        .take(FILLER_KEYS)
        .map(|(k, v)| (*k, *v))
        .collect();
    let seals = || Counters::take(db).get("wal_segment_seals");
    let before = seals();
    while seals() == before {
        let mut txn = session.begin();
        for (k, v) in keys.iter_mut() {
            *v += 1;
            txn.update(*k, &gen::value(*k, *v))
                .map_err(|e| format!("filler update {k}: {e}"))?;
        }
        txn.commit().map_err(|e| format!("filler commit: {e}"))?;
        for (k, v) in &keys {
            oracle.apply(*k, Some(*v));
        }
    }
    truncate_log(db)
}

/// Sharp checkpoint, then drop the log before it: a restart reads and
/// replays only what follows.
pub fn truncate_log(db: &Database) -> Res<()> {
    db.truncate_log()
        .map(|_| ())
        .map_err(|e| format!("truncate log: {e}"))
}

/// Tree shape via a full walk (outside timed windows only).
pub fn shape(db: &Database) -> Res<TreeStats> {
    db.tree().stats().map_err(|e| format!("tree stats: {e}"))
}

/// Counter readings from the metrics registry, the disk and the WAL.
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Read every counter of `db` now. Uses the registry directly rather
    /// than `Database::metrics_snapshot`, whose tree walk would disturb
    /// the buffer pool in the middle of a run.
    pub fn take(db: &Database) -> Counters {
        let snap = db.metrics().snapshot();
        let mut m: BTreeMap<String, u64> = snap
            .iter()
            .filter_map(|(name, v)| match v {
                MetricValue::Counter(c) => Some((name.to_string(), *c)),
                _ => None,
            })
            .collect();
        m.insert(
            "side_file_depth_peak".into(),
            snap.gauge_peak("side_file_depth"),
        );
        let disk = db.disk().stats();
        m.insert("disk.reads".into(), disk.reads);
        m.insert("disk.writes".into(), disk.writes);
        let sync = db.log().sync_stats();
        m.insert("sync.syncs".into(), sync.syncs);
        m.insert("sync.group_waits".into(), sync.group_waits);
        Counters(m)
    }

    /// One reading by name (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Summed counter deltas over one or more intervals (possibly on
/// different databases).
#[derive(Default, Clone)]
pub struct Deltas(BTreeMap<String, u64>);

impl Deltas {
    /// The summed delta of `name` (0 if never seen).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Fold another sum in.
    pub fn merge(&mut self, other: &Deltas) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// One interval.
    pub fn between(before: &Counters, after: &Counters) -> Deltas {
        Deltas(
            after
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(before.get(k))))
                .collect(),
        )
    }
}

/// Per-name span durations recorded by the benchmark around its calls
/// into a layer. Off in untraced runs, where `time` is a plain call.
pub struct Spans {
    on: bool,
    by_name: BTreeMap<&'static str, Recorder>,
}

impl Spans {
    /// A span sink; `on = false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            by_name: BTreeMap::new(),
        }
    }

    /// Is tracing on?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording its duration under `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.by_name.entry(name).or_default().record_duration(d);
        r
    }

    /// Fold another sink in.
    pub fn merge(&mut self, other: &Spans) {
        for (k, v) in &other.by_name {
            self.by_name.entry(k).or_default().merge(v);
        }
    }

    /// The `q`-quantile of `name` in microseconds (0 when never recorded).
    pub fn us(&self, name: &str, q: f64) -> f64 {
        self.by_name.get(name).map_or(0.0, |r| r.quantile(q) / 1e3)
    }
}

/// The expected contents of the tree: every acknowledged write applied to
/// the generated starting set. Key → version of the present value.
#[derive(Clone, Default)]
pub struct Oracle(BTreeMap<u64, u32>);

impl Oracle {
    /// Keys `0..n`, all at version 0.
    pub fn dense(n: u64) -> Oracle {
        Oracle((0..n).map(|k| (k, 0)).collect())
    }

    /// Key 0 and each key `base + i` with `present[i]`, at version 0.
    pub fn from_present(base: u64, present: &[bool]) -> Oracle {
        let keys = (0..present.len() as u64).filter(|&i| present[i as usize]);
        Oracle(
            std::iter::once(0)
                .chain(keys.map(|i| base + i))
                .map(|k| (k, 0))
                .collect(),
        )
    }

    /// The version `key` holds, if present.
    pub fn get(&self, key: u64) -> Option<u32> {
        self.0.get(&key).copied()
    }

    /// Apply one acknowledged write (`None` = deleted).
    pub fn apply(&mut self, key: u64, version: Option<u32>) {
        match version {
            Some(v) => self.0.insert(key, v),
            None => self.0.remove(&key),
        };
    }

    /// Records expected.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Compare the whole tree against the oracle, one key range of at
    /// most [`VERIFY_CHUNK`] expected records at a time.
    pub fn verify(&self, db: &Database) -> Res<()> {
        let mut expected = self.0.iter().peekable();
        let mut lo = 0u64;
        loop {
            let chunk: Vec<(u64, u32)> = expected
                .by_ref()
                .take(VERIFY_CHUNK)
                .map(|(k, v)| (*k, *v))
                .collect();
            let hi = match (expected.peek(), chunk.last()) {
                (Some(_), Some((k, _))) => *k,
                _ => u64::MAX,
            };
            let rows = db
                .tree()
                .range_scan(lo, hi)
                .map_err(|e| format!("scan [{lo}, {hi}]: {e}"))?;
            if rows.len() != chunk.len() {
                return Err(format!(
                    "keys [{lo}, {hi}]: tree holds {} records, acknowledged writes give {}",
                    rows.len(),
                    chunk.len()
                ));
            }
            for ((key, val), (want_key, want_ver)) in rows.iter().zip(&chunk) {
                if key != want_key {
                    return Err(format!("tree has key {key} where {want_key} was expected"));
                }
                if gen::decode(*key, val) != Some(*want_ver) {
                    return Err(format!("key {key}: value is not version {want_ver}"));
                }
            }
            if hi == u64::MAX {
                return Ok(());
            }
            lo = hi + 1;
        }
    }
}

/// Expected records compared per scan when verifying.
const VERIFY_CHUNK: usize = 4_096;

/// `obr_check::check_database` must come back clean.
pub fn fsck(db: &Database) -> Res<()> {
    let report = obr_check::check_database(db);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("check_database findings:\n{report}"))
    }
}

/// How a generator thread reaches the engine.
pub enum Exec {
    /// In-process `Txn` calls.
    Local(Session),
    /// A protocol connection to the in-process server.
    Wire(Client),
}

/// Everything one generator thread measured and acknowledged.
pub struct Tally {
    /// End-to-end latency per [`Class`] (get, put, scan), ns.
    pub lat: [Recorder; 3],
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or were refused (BUSY, DEADLOCK, TIMEOUT).
    pub failed: u64,
    /// Re-descents after an RX conflict (§4.1.2 RS fallbacks).
    pub rs_fallbacks: u64,
    /// Spans (traced runs only).
    pub spans: Spans,
    /// Completed operations per second since the load started, by second.
    pub per_second: Vec<u64>,
}

impl Tally {
    /// An empty tally.
    pub fn new(trace: bool) -> Tally {
        Tally {
            lat: Default::default(),
            attempted: 0,
            failed: 0,
            rs_fallbacks: 0,
            spans: Spans::new(trace),
            per_second: Vec::new(),
        }
    }

    /// Operations that completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Fold another tally in.
    pub fn merge(&mut self, o: &Tally) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.rs_fallbacks += o.rs_fallbacks;
        self.spans.merge(&o.spans);
        if self.per_second.len() < o.per_second.len() {
            self.per_second.resize(o.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(&o.per_second) {
            *a += b;
        }
    }
}

/// One closed-loop generator thread: its connection, its op stream, what
/// it has acknowledged so far, and what it measured.
pub struct Worker {
    /// The engine handle.
    pub exec: Exec,
    /// The seeded op stream.
    pub stream: Stream,
    /// Expected contents when the thread started (other threads never
    /// write its keys).
    pub base: Arc<Oracle>,
    /// This thread's acknowledged writes since (`None` = deleted).
    pub own: HashMap<u64, Option<u32>>,
    /// Which keys are this thread's own: `key % parts == part`.
    pub part: (u64, u64),
    /// Measurements.
    pub tally: Tally,
}

enum Outcome {
    Done,
    Refused,
}

/// What a completed operation returned.
enum Reply {
    Value(Option<Vec<u8>>),
    Rows(Vec<(u64, Vec<u8>)>),
    Written,
}

fn refused_txn(e: &TxnError) -> bool {
    matches!(e, TxnError::Deadlock | TxnError::Timeout)
}

fn refused_wire(e: &ClientError) -> bool {
    matches!(
        e.code(),
        Some(ErrorCode::Busy | ErrorCode::Deadlock | ErrorCode::Timeout)
    )
}

impl Worker {
    fn owns(&self, key: u64) -> bool {
        key % self.part.1 == self.part.0
    }

    /// A read of `key` returned `got`: it must be a valid value for the
    /// key, and exactly the expected one when this thread owns the key.
    fn check_read(&self, key: u64, got: Option<&[u8]>) -> Res<()> {
        let ver = match got {
            Some(v) => Some(
                gen::decode(key, v).ok_or_else(|| format!("read of {key} returned a bad value"))?,
            ),
            None => None,
        };
        if self.owns(key) {
            let want = match self.own.get(&key) {
                Some(v) => *v,
                None => self.base.get(key),
            };
            if ver != want {
                return Err(format!(
                    "read of {key} gave version {ver:?}, acknowledged writes give {want:?}"
                ));
            }
        }
        Ok(())
    }

    fn check_rows(&self, lo: u64, hi: u64, rows: &[(u64, Vec<u8>)]) -> Res<()> {
        let mut prev = None;
        for (k, v) in rows {
            if *k < lo || *k > hi || prev.is_some_and(|p| p >= *k) {
                return Err(format!("scan [{lo}, {hi}] returned key {k} out of order"));
            }
            prev = Some(*k);
            self.check_read(*k, Some(v))?;
        }
        Ok(())
    }

    /// Check what a completed operation returned.
    fn check_reply(&self, op: &Op, reply: &Reply) -> Res<()> {
        match (op, reply) {
            (Op::Get(k), Reply::Value(v)) => self.check_read(*k, v.as_deref()),
            (Op::Scan { lo, hi }, Reply::Rows(rows)) => self.check_rows(*lo, *hi, rows),
            (_, Reply::Written) => Ok(()),
            _ => Err(format!("{op:?}: reply of the wrong kind")),
        }
    }

    fn run_local(&mut self, op: &Op) -> Res<Outcome> {
        let Exec::Local(session) = &self.exec else {
            unreachable!()
        };
        let db = Arc::clone(session.db());
        let mut txn = session.begin();
        let spans = &mut self.tally.spans;
        if let Op::Get(k) = op {
            if spans.on() && self.tally.attempted.is_multiple_of(8) {
                spans
                    .time("btree.search", || db.tree().search(*k))
                    .map_err(|e| e.to_string())?;
            }
        }
        let r = match op {
            Op::Get(k) => spans.time("txn.get", || txn.get(*k)).map(Reply::Value),
            Op::Scan { lo, hi } => spans
                .time("txn.scan", || txn.scan(*lo, *hi))
                .map(Reply::Rows),
            Op::Put { key, version } => spans
                .time("txn.write", || {
                    txn.update(*key, &gen::value(*key, *version))
                })
                .map(|_| Reply::Written),
            Op::Insert { key, version } => spans
                .time("txn.write", || {
                    txn.insert(*key, &gen::value(*key, *version))
                })
                .map(|_| Reply::Written),
            Op::Delete(key) => spans
                .time("txn.write", || txn.delete(*key))
                .map(|_| Reply::Written),
        };
        self.tally.rs_fallbacks += txn.rs_fallbacks();
        let reply = match r {
            Ok(reply) => reply,
            Err(e) => {
                let _ = txn.abort();
                return if refused_txn(&e) {
                    Ok(Outcome::Refused)
                } else {
                    Err(format!("{op:?}: {e}"))
                };
            }
        };
        match self.tally.spans.time("txn.commit", || txn.commit()) {
            Ok(()) => self.check_reply(op, &reply).map(|()| Outcome::Done),
            Err(e) if refused_txn(&e) => Ok(Outcome::Refused),
            Err(e) => Err(format!("commit of {op:?}: {e}")),
        }
    }

    fn run_wire(&mut self, op: &Op) -> Res<Outcome> {
        let Exec::Wire(client) = &mut self.exec else {
            unreachable!()
        };
        let spans = &mut self.tally.spans;
        let r = match op {
            Op::Get(k) => spans
                .time("server.rpc", || client.get(*k))
                .map(Reply::Value),
            Op::Scan { lo, hi } => spans
                .time("server.rpc", || client.scan(*lo, *hi, 64))
                .map(|(rows, _)| Reply::Rows(rows)),
            Op::Put { key, version } => spans
                .time("server.rpc", || {
                    client.put(*key, &gen::value(*key, *version))
                })
                .map(|()| Reply::Written),
            Op::Insert { .. } | Op::Delete(_) => {
                return Err(format!("{op:?} is not part of the wire mix"))
            }
        };
        match r {
            Ok(reply) => self.check_reply(op, &reply).map(|()| Outcome::Done),
            Err(e) if refused_wire(&e) => Ok(Outcome::Refused),
            Err(e) => Err(format!("{op:?}: {e}")),
        }
    }

    /// Issue one operation, time it, and record its effect; `start` is
    /// when the load started.
    pub fn step(&mut self, op: &Op, start: Instant) -> Res<()> {
        self.tally.attempted += 1;
        let t = Instant::now();
        let outcome = match self.exec {
            Exec::Local(_) => self.run_local(op)?,
            Exec::Wire(_) => self.run_wire(op)?,
        };
        let elapsed = t.elapsed();
        match outcome {
            Outcome::Done => {
                let class = match op.class() {
                    Class::Get => 0,
                    Class::Put => 1,
                    Class::Scan => 2,
                };
                self.tally.lat[class].record_duration(elapsed);
                let second = start.elapsed().as_secs() as usize;
                if self.tally.per_second.len() <= second {
                    self.tally.per_second.resize(second + 1, 0);
                }
                self.tally.per_second[second] += 1;
                if let Some((k, v)) = op.effect() {
                    self.own.insert(k, v);
                }
                self.stream.acknowledged(op);
            }
            Outcome::Refused => self.tally.failed += 1,
        }
        Ok(())
    }

    /// Run the stream until `stop` is raised.
    pub fn drive(&mut self, stop: &AtomicBool, start: Instant) -> Res<()> {
        while !stop.load(Ordering::Relaxed) {
            let op = self.stream.next_op();
            self.step(&op, start)?;
        }
        Ok(())
    }
}

/// Run `workers` as closed-loop threads while `main` runs on this thread;
/// stop them when it returns. Returns `main`'s result, the workers (with
/// their tallies) and the wall time from start until every worker ended.
pub fn with_load<R>(
    workers: Vec<Worker>,
    main: impl FnOnce() -> Res<R>,
) -> Res<(R, Vec<Worker>, Duration)> {
    let stop = AtomicBool::new(false);
    let t = Instant::now();
    let (r, joined) = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                let stop = &stop;
                s.spawn(move || w.drive(stop, t).map(|()| w))
            })
            .collect();
        let r = main();
        stop.store(true, Ordering::Relaxed);
        let joined: Vec<Res<Worker>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect();
        (r, joined)
    });
    let elapsed = t.elapsed();
    let workers = joined.into_iter().collect::<Res<Vec<_>>>()?;
    Ok((r?, workers, elapsed))
}

/// Merge the workers' tallies and fold their acknowledged writes into
/// `oracle`.
pub fn merged(workers: &[Worker], trace: bool, oracle: &mut Oracle) -> Tally {
    let mut t = Tally::new(trace);
    for w in workers {
        t.merge(&w.tally);
        for (k, v) in &w.own {
            oracle.apply(*k, *v);
        }
    }
    t
}

/// One passes-1→3 reorganization cycle, with counter readings around each
/// pass (spans around the three public calls).
pub struct Cycle {
    /// Wall time of each pass.
    pub passes: [Duration; 3],
    /// Wall time of the whole cycle.
    pub total: Duration,
    /// Counters over pass 1 alone.
    pub pass1: Deltas,
    /// Counters over the whole cycle.
    pub all: Deltas,
}

/// Run pass 1, pass 2 and pass 3 one after another.
pub fn reorg_cycle(db: &Arc<Database>) -> Res<Cycle> {
    let reorg = Reorganizer::new(Arc::clone(db), ReorgConfig::default());
    let c0 = Counters::take(db);
    let t0 = Instant::now();
    reorg.pass1_compact().map_err(|e| format!("pass 1: {e}"))?;
    let t1 = Instant::now();
    let c1 = Counters::take(db);
    reorg
        .pass2_swap_move()
        .map_err(|e| format!("pass 2: {e}"))?;
    let t2 = Instant::now();
    reorg.pass3_shrink().map_err(|e| format!("pass 3: {e}"))?;
    let t3 = Instant::now();
    let c3 = Counters::take(db);
    Ok(Cycle {
        passes: [t1 - t0, t2 - t1, t3 - t2],
        total: t3 - t0,
        pass1: Deltas::between(&c0, &c1),
        all: Deltas::between(&c0, &c3),
    })
}

impl Exec {
    /// One auto-commit insert: `Ok(true)` when acknowledged, `Ok(false)`
    /// when refused (and rolled back).
    fn insert(&mut self, key: u64, value: &[u8]) -> Res<bool> {
        match self {
            Exec::Local(session) => {
                let mut txn = session.begin();
                if let Err(e) = txn.insert(key, value) {
                    let _ = txn.abort();
                    return if refused_txn(&e) {
                        Ok(false)
                    } else {
                        Err(format!("tail insert {key}: {e}"))
                    };
                }
                match txn.commit() {
                    Ok(()) => Ok(true),
                    Err(e) if refused_txn(&e) => Ok(false),
                    Err(e) => Err(format!("tail commit {key}: {e}")),
                }
            }
            Exec::Wire(client) => match client.put(key, value) {
                Ok(()) => Ok(true),
                Err(e) if refused_wire(&e) => Ok(false),
                Err(e) => Err(format!("tail put {key}: {e}")),
            },
        }
    }

    /// Close a protocol connection cleanly.
    fn close(self) -> Res<()> {
        match self {
            Exec::Local(_) => Ok(()),
            Exec::Wire(client) => client.bye().map_err(|e| format!("bye: {e}")),
        }
    }
}

/// Apply crash round `round`'s fixed tail: each of `execs` (one per tail
/// writer) inserts its own [`TAIL_WRITES`] fresh keys, one auto-commit
/// write at a time, all writers at once, so their commits share group
/// commits as the measured mix's writes do. Keys lie above every
/// workload's key space, so the tail is the same log on every workload
/// and every run. Only acknowledged inserts enter `oracle`.
pub fn tail(execs: Vec<Exec>, round: u64, oracle: &mut Oracle) -> Res<()> {
    let start = TAIL_BASE + round * TAIL_WRITERS * TAIL_WRITES;
    let joined: Vec<Res<Vec<u64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = execs
            .into_iter()
            .zip(0..)
            .map(|(mut exec, part)| {
                s.spawn(move || {
                    let lo = start + part * TAIL_WRITES;
                    let mut acked = Vec::new();
                    for k in lo..lo + TAIL_WRITES {
                        if exec.insert(k, &gen::value(k, 1))? {
                            acked.push(k);
                        }
                    }
                    exec.close()?;
                    Ok(acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("tail writer panicked".into()))
            })
            .collect()
    });
    for acked in joined {
        for k in acked? {
            oracle.apply(k, Some(1));
        }
    }
    Ok(())
}

/// Space amplification: allocated tree pages × page size ÷ live user
/// bytes (key + value per record).
pub fn space_amp(t: &TreeStats) -> f64 {
    let pages = (t.leaf_pages + t.internal_pages) as f64;
    pages * obr_storage::PAGE_SIZE as f64 / (t.records as f64 * (8 + gen::VALUE_LEN) as f64)
}
