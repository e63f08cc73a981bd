//! The three workloads. Each builds its dataset (several times, for
//! `setup_s`), runs its measured phase with closed-loop generator threads,
//! then the common post phase: crash + recovery rounds over a fixed log
//! tail, ending with the correctness gates.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obr_core::{Database, EngineConfig};
use obr_server::client::Client;
use obr_server::server::{Server, ServerConfig};
use obr_storage::Lsn;
use obr_txn::Session;
use obr_wal::TxnId;

use crate::engine::{self as e, Counters, Cycle, Deltas, Exec, Oracle, Res, Tally, Worker};
use crate::gen::{self, Shape, Stream};
use crate::host::Host;
use crate::report::{end_to_end, per_layer, secs, Outcome, Phase, Post, Traced};

/// Pages in each database file (sparse; far more than any tree uses).
const PAGES: u32 = 8_192;
/// Bulk-load fill of internal levels: sparse, as free-at-empty deletes
/// leave them, so every tree has height ≥ 3.
const NODE_FILL: f64 = 0.05;
/// Full dataset builds per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Generator threads (the host's core count this was sized on).
const THREADS: u64 = 2;

/// `wire-oltp`: keys, leaf fill, and a pool that holds the whole tree.
const WIRE_KEYS: u64 = 40_000;
const WIRE_LEAF_FILL: f64 = 0.45;
const WIRE_FRAMES: usize = 4_096;

/// `read-large`: keys, leaf fill, build pool, and a run pool ≤ ¼ of the tree.
const READ_KEYS: u64 = 100_000;
const READ_LEAF_FILL: f64 = 0.9;
const READ_BUILD_FRAMES: usize = 4_096;
const READ_FRAMES: usize = 512;
/// Warm-up reads before the window, so the pool is at steady state.
const READ_WARM: u64 = 20_000;

/// `reorg-churn`: data keys `CHURN_BASE..CHURN_BASE + CHURN_KEYS`; key 0
/// and the band `1..CHURN_BASE` sit below them.
const CHURN_KEYS: u64 = 50_000;
const CHURN_BASE: u64 = 1 << 24;
/// Share of base keys (‰) left after the churn deletes.
const CHURN_KEEP: u64 = 400;
const CHURN_BUILD_FRAMES: usize = 4_096;
/// Sparser internal levels than the other trees: pass 3 reads every base
/// page, and the longer its read takes, the more band splits land behind
/// its frontier.
const CHURN_NODE_FILL: f64 = 0.02;
const CHURN_FRAMES: usize = 256;
/// Reorganization cycles per measured phase, at least.
const MIN_CYCLES: usize = 3;

/// Run settings from the command line.
pub struct Cfg {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for the databases.
    pub dir: PathBuf,
}

/// Bulk-load `records`, truncate the log, and reopen with a smaller pool
/// when `run_frames` differs from the build pool.
fn build_dense(
    dir: &Path,
    records: &[(u64, Vec<u8>)],
    leaf_fill: f64,
    build_frames: usize,
    run_frames: usize,
) -> Res<Arc<Database>> {
    let db = e::create(dir, PAGES, build_frames)?;
    db.tree()
        .bulk_load(records, leaf_fill, NODE_FILL)
        .map_err(|e| format!("bulk load: {e}"))?;
    e::truncate_log(&db)?;
    if run_frames == build_frames {
        return Ok(db);
    }
    drop(db);
    e::reopen(dir, run_frames).map(|(db, _, _)| db)
}

/// Build a tree degraded the way a churned one is: even keys bulk-loaded,
/// odd keys inserted (splits scatter leaves out of key order), then the
/// seeded deletes leave sparse leaves. The build runs on a large pool and
/// the database is reopened on a pool ≤ ¼ of the tree.
fn build_churn(dir: &Path, present: &[bool], values: &ChurnValues) -> Res<Arc<Database>> {
    let db = e::create(dir, PAGES, CHURN_BUILD_FRAMES)?;
    let n = present.len() as u64;
    let key = |i: u64| CHURN_BASE + i;
    db.tree()
        .bulk_load(&values.low, 0.85, CHURN_NODE_FILL)
        .map_err(|e| format!("bulk load: {e}"))?;
    let tree = db.tree();
    for (k, v) in &values.odd {
        tree.insert(TxnId(1), Lsn::ZERO, *k, v)
            .map_err(|e| format!("churn insert: {e}"))?;
    }
    for k in (0..n).filter(|&i| !present[i as usize]).map(key) {
        tree.delete(TxnId(1), Lsn::ZERO, k)
            .map_err(|e| format!("churn delete: {e}"))?;
    }
    // Restart replays nothing of the build.
    e::truncate_log(&db)?;
    drop(db);
    e::reopen(dir, CHURN_FRAMES).map(|(db, _, _)| db)
}

/// The version-0 records every `reorg-churn` build loads: key 0 and the
/// even data keys (bulk-loaded), and the odd data keys (inserted).
/// Generated once, outside the timed builds.
struct ChurnValues {
    low: Vec<(u64, Vec<u8>)>,
    odd: Vec<(u64, Vec<u8>)>,
}

impl ChurnValues {
    fn new() -> ChurnValues {
        let record = |k: u64| (k, gen::value(k, 0));
        let data = |start: u64| (start..CHURN_KEYS).step_by(2).map(|i| CHURN_BASE + i);
        ChurnValues {
            low: std::iter::once(0).chain(data(0)).map(record).collect(),
            odd: data(1).map(record).collect(),
        }
    }
}

/// Version-0 records for keys `0..keys`, generated outside the timed
/// builds.
fn dense_records(keys: u64) -> Vec<(u64, Vec<u8>)> {
    (0..keys).map(|k| (k, gen::value(k, 0))).collect()
}

/// One generator thread per connection in `execs`, stream `i` of `n`,
/// all starting from the acknowledged state `oracle`.
fn workers(
    execs: Vec<Exec>,
    seed: u64,
    shape: &Shape,
    oracle: &Oracle,
    trace: bool,
) -> Vec<Worker> {
    let n = execs.len() as u64;
    let base = Arc::new(oracle.clone());
    execs
        .into_iter()
        .zip(0..)
        .map(|(exec, part)| Worker {
            exec,
            stream: Stream::new(seed, shape.clone(), part, n),
            base: Arc::clone(&base),
            own: HashMap::new(),
            part: (part, n),
            tally: Tally::new(trace),
        })
        .collect()
}

fn sessions(db: &Arc<Database>, n: u64) -> Vec<Exec> {
    (0..n)
        .map(|_| Exec::Local(Session::new(Arc::clone(db))))
        .collect()
}

fn connections(addr: &str) -> Res<Vec<Exec>> {
    (0..THREADS)
        .map(|_| {
            Client::connect(addr)
                .map(Exec::Wire)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

/// Run `workers` for the window; fold their writes into `oracle`.
fn timed_window(
    db: &Database,
    workers: Vec<Worker>,
    seconds: u64,
    trace: bool,
    oracle: &mut Oracle,
) -> Res<Phase> {
    let c0 = Counters::take(db);
    let ((), workers, elapsed) = e::with_load(workers, || {
        std::thread::sleep(Duration::from_secs(seconds));
        Ok(())
    })?;
    let c1 = Counters::take(db);
    let tally = e::merged(&workers, trace, oracle);
    // Whole seconds only: the last slice is cut short by the stop.
    let rates = tally
        .per_second
        .iter()
        .take(seconds as usize)
        .map(|&n| n as f64)
        .collect();
    Ok(Phase {
        tally,
        elapsed,
        deltas: Deltas::between(&c0, &c1),
        rates,
    })
}

/// Crash + recovery rounds, each on a fresh log ([`e::fresh_log`]) with
/// the same fixed tail of acknowledged writes from concurrent writers
/// (over the wire when `server` is given), so a restart reads and replays
/// exactly that tail. Nothing is checkpointed between the tail and the
/// crash: the tail survives only through the log's redo. Ends with the
/// correctness gates.
fn post(
    mut db: Arc<Database>,
    dir: &Path,
    frames: usize,
    oracle: &mut Oracle,
    mut server: Option<Server>,
    out: &mut Outcome,
) -> Res<Post> {
    let wire = server.is_some();
    let mut recovery = Vec::new();
    let mut reports = Vec::new();
    for round in 0..e::RECOVERY_ROUNDS {
        e::fresh_log(&db, oracle)?;
        if wire {
            let srv = match server.take() {
                Some(s) => s,
                None => Server::start(Arc::clone(&db), server_config())
                    .map_err(|e| format!("start server: {e}"))?,
            };
            e::tail(connections(&srv.local_addr().to_string())?, round, oracle)?;
            srv.stop_abrupt();
        } else {
            e::tail(sessions(&db, e::TAIL_WRITERS), round, oracle)?;
        }
        let (d, report, t) = e::crash_and_recover(db, dir, frames)?;
        db = d;
        recovery.push(t);
        reports.push(report);
    }
    e::fsck(&db)?;
    oracle.verify(&db)?;
    out.notes.push(format!(
        "gate ok: check_database clean and all {} acknowledged records readable after {} crash + recover rounds",
        oracle.len(),
        e::RECOVERY_ROUNDS
    ));
    let tree = e::shape(&db)?;
    Ok(Post {
        recovery,
        reports,
        tree,
    })
}

fn server_config() -> ServerConfig {
    ServerConfig::from_engine("127.0.0.1:0", &EngineConfig::default())
}

fn check_height(out: &mut Outcome, db: &Database, what: &str) -> Res<obr_btree::TreeStats> {
    let t = e::shape(db)?;
    out.require(
        t.height >= 3,
        format!("{what}: tree height {} ≥ 3", t.height),
    )?;
    Ok(t)
}

/// [`SETUPS`] timed builds in `dir`. Every build but the last is
/// discarded; the last is returned for the measured phase. Removing the
/// previous build's files is not timed.
fn setups(
    dir: &Path,
    mut build: impl FnMut() -> Res<Arc<Database>>,
) -> Res<(Arc<Database>, Vec<Duration>)> {
    let mut times = Vec::new();
    loop {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let db = build()?;
        times.push(t.elapsed());
        if times.len() == SETUPS {
            return Ok((db, times));
        }
    }
}

fn attempted(out: &mut Outcome, p: &Phase) {
    out.attempted += p.tally.attempted;
    out.failed += p.tally.failed;
}

/// `wire-oltp`: two protocol connections to an in-process server, 50%
/// GET / 30% PUT / 20% SCAN, pool ≥ data, no reorganizer in the window.
pub fn wire_oltp(cfg: &Cfg, host: &Host) -> Res<Outcome> {
    let mut out = Outcome::default();
    let dir = cfg.dir.join("wire-oltp");
    let records = dense_records(WIRE_KEYS);
    let (db, setup) = setups(&dir, || {
        let db = build_dense(&dir, &records, WIRE_LEAF_FILL, WIRE_FRAMES, WIRE_FRAMES)?;
        db.tree()
            .range_scan(0, u64::MAX)
            .map_err(|e| format!("warm-up scan: {e}"))?;
        Ok(db)
    })?;
    let t = check_height(&mut out, &db, "start")?;
    let pages = t.leaf_pages + t.internal_pages;
    out.require(
        2 * pages <= WIRE_FRAMES,
        format!("pool of {WIRE_FRAMES} frames holds the {pages}-page tree twice over (room for the crash tails)"),
    )?;
    let mut oracle = Oracle::dense(WIRE_KEYS);
    let shape = Shape::WireOltp { keys: WIRE_KEYS };
    let server = Server::start(Arc::clone(&db), server_config())
        .map_err(|e| format!("start server: {e}"))?;
    let addr = server.local_addr().to_string();
    let untraced = if cfg.trace {
        let w = workers(
            connections(&addr)?,
            gen::derive(cfg.seed, 10),
            &shape,
            &oracle,
            false,
        );
        Some(timed_window(&db, w, cfg.seconds, false, &mut oracle)?)
    } else {
        None
    };
    let w = workers(
        connections(&addr)?,
        gen::derive(cfg.seed, 11),
        &shape,
        &oracle,
        cfg.trace,
    );
    let measured = timed_window(&db, w, cfg.seconds, cfg.trace, &mut oracle)?;
    attempted(&mut out, &measured);
    // In-process probe of the same mix: the `txn` time a wire call wraps.
    let probe = if cfg.trace {
        let w = workers(
            sessions(&db, THREADS),
            gen::derive(cfg.seed, 12),
            &shape,
            &oracle,
            true,
        );
        Some(timed_window(&db, w, cfg.seconds.min(3), true, &mut oracle)?)
    } else {
        None
    };
    let tree = e::shape(&db)?;
    let evictions = Counters::take(&db).get("pool_evictions");
    out.require(
        evictions == 0,
        format!("pool_evictions = {evictions} = 0 (no page misses)"),
    )?;
    let post = post(db, &dir, WIRE_FRAMES, &mut oracle, Some(server), &mut out)?;
    match (untraced, probe) {
        (Some(untraced), Some(probe)) => {
            per_layer(
                &mut out,
                Traced {
                    measured: &measured,
                    txn: &probe.tally,
                    server_self_us: (measured.tally.lat[0].quantile(0.5)
                        - probe.tally.lat[0].quantile(0.5))
                        / 1e3,
                    cycles: &[],
                    tree: &tree,
                    post: &post,
                    host,
                    overhead: measured.ops_per_s() / untraced.ops_per_s(),
                },
            );
        }
        _ => end_to_end(&mut out, &setup, &measured, &[], &post),
    }
    Ok(out)
}

/// `read-large`: two in-process session threads, 90% GET on skewed keys,
/// 5% PUT, 5% short SCAN, over a tree about 4× the pool.
pub fn read_large(cfg: &Cfg, host: &Host) -> Res<Outcome> {
    let mut out = Outcome::default();
    let dir = cfg.dir.join("read-large");
    let hot_len = READ_KEYS / 10;
    let shape = Shape::ReadLarge {
        keys: READ_KEYS,
        hot_lo: gen::derive(cfg.seed, 20) % (READ_KEYS - hot_len),
        hot_len,
    };
    let records = dense_records(READ_KEYS);
    let (db, setup) = setups(&dir, || {
        let db = build_dense(
            &dir,
            &records,
            READ_LEAF_FILL,
            READ_BUILD_FRAMES,
            READ_FRAMES,
        )?;
        let mut warm = Stream::new(gen::derive(cfg.seed, 21), shape.clone(), 0, 1);
        for _ in 0..READ_WARM {
            if let gen::Op::Get(k) = warm.next_op() {
                db.tree()
                    .search(k)
                    .map_err(|e| format!("warm-up read: {e}"))?;
            }
        }
        Ok(db)
    })?;
    let t = check_height(&mut out, &db, "start")?;
    let pages = t.leaf_pages + t.internal_pages;
    out.require(
        pages >= 4 * READ_FRAMES,
        format!("{pages}-page tree ≥ 4 × the {READ_FRAMES}-frame pool"),
    )?;
    let mut oracle = Oracle::dense(READ_KEYS);
    let untraced = if cfg.trace {
        let w = workers(
            sessions(&db, THREADS),
            gen::derive(cfg.seed, 22),
            &shape,
            &oracle,
            false,
        );
        Some(timed_window(&db, w, cfg.seconds, false, &mut oracle)?)
    } else {
        None
    };
    let w = workers(
        sessions(&db, THREADS),
        gen::derive(cfg.seed, 23),
        &shape,
        &oracle,
        cfg.trace,
    );
    let measured = timed_window(&db, w, cfg.seconds, cfg.trace, &mut oracle)?;
    attempted(&mut out, &measured);
    let evictions = measured.deltas.get("pool_evictions");
    out.require(
        evictions > 0,
        format!("pool_evictions = {evictions} > 0 in the window"),
    )?;
    let tree = e::shape(&db)?;
    let post = post(db, &dir, READ_FRAMES, &mut oracle, None, &mut out)?;
    match untraced {
        Some(untraced) => per_layer(
            &mut out,
            Traced {
                measured: &measured,
                txn: &measured.tally,
                server_self_us: 0.0,
                cycles: &[],
                tree: &tree,
                post: &post,
                host,
                overhead: measured.ops_per_s() / untraced.ops_per_s(),
            },
        ),
        None => end_to_end(&mut out, &setup, &measured, &[], &post),
    }
    Ok(out)
}

/// One `reorg-churn` phase: cycles until `seconds` of cycle time and at
/// least [`MIN_CYCLES`], each on a freshly degraded tree.
struct Churn {
    phase: Phase,
    cycles: Vec<Cycle>,
    setup: Vec<Duration>,
    /// The last cycle's database and its oracle.
    last: Option<(Arc<Database>, Oracle)>,
    tree: Option<obr_btree::TreeStats>,
}

fn churn_phase(cfg: &Cfg, dir: &Path, phase_id: u64, trace: bool, out: &mut Outcome) -> Res<Churn> {
    let mut ch = Churn {
        phase: Phase {
            tally: Tally::new(trace),
            elapsed: Duration::ZERO,
            deltas: Deltas::default(),
            rates: Vec::new(),
        },
        cycles: Vec::new(),
        setup: Vec::new(),
        last: None,
        tree: None,
    };
    let budget = Duration::from_secs(cfg.seconds);
    let values = ChurnValues::new();
    let mut i = 0u64;
    while ch.cycles.len() < MIN_CYCLES || ch.phase.elapsed < budget {
        let seed = gen::derive(cfg.seed, 100 * phase_id + i);
        i += 1;
        drop(ch.last.take());
        let present = gen::churn_present(seed, CHURN_KEYS, CHURN_KEEP);
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let db = build_churn(dir, &present, &values)?;
        ch.setup.push(t.elapsed());
        let s = check_height(out, &db, "cycle start")?;
        let pages = s.leaf_pages + s.internal_pages;
        out.require(
            4 * CHURN_FRAMES <= pages,
            format!("{CHURN_FRAMES}-frame pool ≤ ¼ of the {pages}-page tree"),
        )?;
        let mut oracle = Oracle::from_present(CHURN_BASE, &present);
        let shape = Shape::churn(CHURN_BASE, present);
        let w = workers(sessions(&db, 1), seed, &shape, &oracle, trace);
        let c0 = Counters::take(&db);
        let (cycle, w, elapsed) = e::with_load(w, || e::reorg_cycle(&db))?;
        let c1 = Counters::take(&db);
        let tally = e::merged(&w, trace, &mut oracle);
        e::fsck(&db)?;
        oracle.verify(&db)?;
        ch.tree = Some(e::shape(&db)?);
        ch.phase.tally.merge(&tally);
        ch.phase.elapsed += elapsed;
        ch.phase
            .rates
            .push(tally.completed() as f64 / elapsed.as_secs_f64());
        let d = Deltas::between(&c0, &c1);
        ch.phase.deltas.merge(&d);
        out.notes.push(format!(
            "cycle {}: {:.3} s (passes {:.3?} s), {} foreground ops, {} fsyncs, {} pool misses, {} side-file appends",
            ch.cycles.len() + 1,
            cycle.total.as_secs_f64(),
            secs(&cycle.passes),
            tally.completed(),
            d.get("sync.syncs"),
            d.get("pool_misses"),
            d.get("side_file_appends")
        ));
        ch.cycles.push(cycle);
        ch.last = Some((db, oracle));
    }
    out.notes.push(format!(
        "gate ok: check_database clean and tree = acknowledged writes after each of {} cycles",
        ch.cycles.len()
    ));
    let d = &ch.phase.deltas;
    let (ev, app, applied) = (
        d.get("pool_evictions"),
        d.get("side_file_appends"),
        d.get("reorg_side_entries_applied"),
    );
    out.require(ev > 0, format!("pool_evictions = {ev} > 0"))?;
    out.require(app > 0, format!("side_file_appends = {app} > 0"))?;
    out.require(
        applied > 0,
        format!("reorg_side_entries_applied = {applied} > 0"),
    )?;
    Ok(ch)
}

/// `reorg-churn`: passes 1→3 called one after another on a degraded tree
/// while one session thread reads, inserts and deletes, including a hot
/// low-key band behind pass 3's read frontier. Pool ≤ ¼ of the tree.
pub fn reorg_churn(cfg: &Cfg, host: &Host) -> Res<Outcome> {
    let mut out = Outcome::default();
    let dir = cfg.dir.join("reorg-churn");
    // The untraced phase's databases are dropped before the traced one
    // reuses the directory.
    let untraced_ops = if cfg.trace {
        Some(
            churn_phase(cfg, &dir, 0, false, &mut out)?
                .phase
                .ops_per_s(),
        )
    } else {
        None
    };
    let mut ch = churn_phase(cfg, &dir, 1, cfg.trace, &mut out)?;
    attempted(&mut out, &ch.phase);
    let (db, mut oracle) = ch.last.take().expect("at least one cycle");
    let tree = ch.tree.take().expect("at least one cycle");
    let post = post(db, &dir, CHURN_FRAMES, &mut oracle, None, &mut out)?;
    match untraced_ops {
        Some(base) => per_layer(
            &mut out,
            Traced {
                measured: &ch.phase,
                txn: &ch.phase.tally,
                server_self_us: 0.0,
                cycles: &ch.cycles,
                tree: &tree,
                post: &post,
                host,
                overhead: ch.phase.ops_per_s() / base,
            },
        ),
        None => end_to_end(&mut out, &ch.setup, &ch.phase, &ch.cycles, &post),
    }
    Ok(out)
}
