//! Multi-threaded throughput benchmark of the default engine (sharded
//! buffer pool, group-commit WAL) across a sweep of thread counts.
//!
//! ```text
//! concurrency [--smoke] [--out PATH]
//! ```
//!
//! Built with `--features obs-noop` the same sweep runs with every metric
//! compiled out, which is the instrumentation-overhead A/B of experiment
//! E9; each run row records which build produced it.
//!
//! For each thread count, a fresh *durable* database
//! (file-backed pages + WAL, so commits pay a real fsync) is bulk-loaded
//! sparse, the reorganization daemon is started, and then N writer threads
//! (durable commits on disjoint key ranges) race N reader threads (point
//! reads + occasional scans over the preloaded keys) for a fixed window.
//! After each run the live pool is checked with `obr-check`. Results go to
//! `BENCH_concurrency.json` (or `--out`) as hand-rolled JSON plus a table on
//! stdout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use obr_btree::SidePointerMode;
use obr_core::{Database, ReorgConfig, ReorgDaemon, ReorgTrigger};
use obr_txn::{Session, TxnError};

/// Each writer owns `[WRITER_BASE + w * WRITER_STRIDE, ..)` — disjoint from
/// every other writer and from the preloaded `[0, n)` read range, so the
/// contention measured is the engine's, not the workload's.
const WRITER_BASE: u64 = 1 << 32;
const WRITER_STRIDE: u64 = 1 << 24;

/// Which build ran: instrumented, or with every metric compiled out.
const CONFIG: &str = if cfg!(feature = "obs-noop") {
    "obs-noop"
} else {
    "default"
};

struct RunResult {
    threads: usize,
    commits: u64,
    reads: u64,
    restarts: u64,
    elapsed: Duration,
    fsyncs: u64,
    wal_batches: u64,
    flush_calls: u64,
    pool_shards: usize,
    reorg_runs: usize,
    check_clean: bool,
    /// Full metrics-registry snapshot (`Database::metrics_snapshot`) taken
    /// at the end of the run, already rendered as a JSON object.
    metrics_json: String,
}

impl RunResult {
    fn ops(&self) -> u64 {
        self.commits + self.reads
    }
    fn ops_per_sec(&self) -> f64 {
        self.ops() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn run_one(
    threads: usize,
    preload: u64,
    pages: u32,
    frames: usize,
    window: Duration,
    dir: &std::path::Path,
) -> RunResult {
    let _ = std::fs::remove_dir_all(dir);
    let db = Database::create_durable(dir, pages, frames, SidePointerMode::TwoWay)
        .expect("create durable database");
    let records: Vec<(u64, Vec<u8>)> = (0..preload).map(|k| (k, vec![0xB7; 64])).collect();
    // Sparse load so the daemon has real reorganization work during the run.
    db.tree().bulk_load(&records, 0.45, 0.9).expect("bulk load");

    let sync_before = db.log().sync_stats();
    let daemon = ReorgDaemon::spawn(
        Arc::clone(&db),
        ReorgConfig::default(),
        ReorgTrigger::default(),
        Duration::from_millis(25),
    );

    let stop = AtomicBool::new(false);
    let commits = AtomicU64::new(0);
    let reads = AtomicU64::new(0);
    let restarts = AtomicU64::new(0);
    let barrier = Barrier::new(2 * threads + 1);
    let started = std::thread::scope(|s| {
        for w in 0..threads {
            let db = Arc::clone(&db);
            let (stop, commits, restarts, barrier) = (&stop, &commits, &restarts, &barrier);
            s.spawn(move || {
                let session = Session::new(db);
                let value = vec![0x5Au8; 64];
                let mut key = WRITER_BASE + w as u64 * WRITER_STRIDE;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = session.begin();
                    match txn.insert(key, &value) {
                        Ok(()) => {
                            if txn.commit().is_ok() {
                                commits.fetch_add(1, Ordering::Relaxed);
                            }
                            key += 1;
                        }
                        Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {
                            let _ = txn.abort();
                            restarts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("writer failed on key {key}: {e}"),
                    }
                }
            });
        }
        for r in 0..threads {
            let db = Arc::clone(&db);
            let (stop, reads, restarts, barrier) = (&stop, &reads, &restarts, &barrier);
            s.spawn(move || {
                let session = Session::new(db);
                let mut rng = 0x9E3779B9u64 ^ ((r as u64 + 1) << 16);
                barrier.wait();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = xorshift(&mut rng) % preload;
                    let outcome = if i.is_multiple_of(64) {
                        session.scan(key, key + 50).map(|_| ())
                    } else {
                        session.read(key).map(|_| ())
                    };
                    match outcome {
                        Ok(()) => {
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {
                            restarts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("reader failed on key {key}: {e}"),
                    }
                    i += 1;
                }
            });
        }
        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        started
    });
    let elapsed = started.elapsed();
    // A daemon run that gives up after repeated deadlock losses is a valid
    // outcome under heavy contention (especially time-sliced on few cores),
    // not a benchmark failure: the reorganizer is designed to back off.
    let reorg_runs = match daemon.stop() {
        Ok(decisions) => decisions.len(),
        Err(e) => {
            eprintln!("note: reorg daemon gave up at {threads}t: {e}");
            0
        }
    };
    let sync_after = db.log().sync_stats();

    let report = obr_check::check_database(&db);
    let check_clean = report.is_clean();
    if !check_clean {
        eprintln!("check findings at {threads}t:\n{report}");
    }
    let metrics_json = db
        .metrics_snapshot()
        .map_or_else(|_| "{}".to_string(), |s| s.to_json());
    let result = RunResult {
        threads,
        commits: commits.load(Ordering::Relaxed),
        reads: reads.load(Ordering::Relaxed),
        restarts: restarts.load(Ordering::Relaxed),
        elapsed,
        fsyncs: sync_after.syncs - sync_before.syncs,
        wal_batches: sync_after.batches - sync_before.batches,
        flush_calls: sync_after.flush_calls - sync_before.flush_calls,
        pool_shards: db.pool().shard_count(),
        reorg_runs,
        check_clean,
        metrics_json,
    };
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// Effective parallelism of this machine as the scheduler reports it.
/// `available_parallelism` honours cgroup CPU quotas and affinity masks, so
/// inside a constrained container it can be far below the core count — and
/// below the benchmark's own thread counts, which makes the "scaling" rows
/// time-sliced rather than parallel.
fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A warning when the benchmark oversubscribes the machine, or `None`.
/// Each run at N threads spawns 2N workers (N writers + N readers).
fn parallelism_warning(max_threads: usize) -> Option<String> {
    let hw = effective_parallelism();
    let workers = 2 * max_threads;
    (hw < workers).then(|| {
        format!(
            "{workers} worker threads (N={max_threads} writers + readers) \
             oversubscribe {hw} available hardware threads; \
             per-thread-count rows are time-sliced, not parallel"
        )
    })
}

fn emit_json(results: &[RunResult], smoke: bool, out: &std::path::Path) {
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"concurrency\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!("  \"hw_threads\": {},\n", effective_parallelism()));
    let max_threads = results.iter().map(|r| r.threads).max().unwrap_or(0);
    match parallelism_warning(max_threads) {
        Some(w) => body.push_str(&format!("  \"parallelism_warning\": \"{w}\",\n")),
        None => body.push_str("  \"parallelism_warning\": null,\n"),
    }
    body.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"config\": \"{}\", \"threads\": {}, \"commits\": {}, \"reads\": {}, \
             \"restarts\": {}, \"elapsed_ms\": {:.1}, \"ops_per_sec\": {:.1}, \"fsyncs\": {}, \
             \"wal_batches\": {}, \"flush_calls\": {}, \"pool_shards\": {}, \"reorg_runs\": {}, \
             \"check_clean\": {}, \"metrics\": {}}}{}\n",
            CONFIG,
            r.threads,
            r.commits,
            r.reads,
            r.restarts,
            r.elapsed.as_secs_f64() * 1e3,
            r.ops_per_sec(),
            r.fsyncs,
            r.wal_batches,
            r.flush_calls,
            r.pool_shards,
            r.reorg_runs,
            r.check_clean,
            r.metrics_json,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    let all_clean = results.iter().all(|r| r.check_clean);
    body.push_str(&format!("  \"all_checks_clean\": {all_clean}\n"));
    body.push_str("}\n");
    std::fs::write(out, &body).expect("write BENCH_concurrency.json");
    println!("wrote {}", out.display());
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_concurrency.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            "--help" | "-h" => {
                eprintln!("usage: concurrency [--smoke] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let (thread_counts, preload, pages, frames, window): (&[usize], u64, u32, usize, Duration) =
        if smoke {
            (&[1, 4], 800, 8_192, 512, Duration::from_millis(150))
        } else {
            (
                &[1, 2, 4, 8],
                4_000,
                32_768,
                1_024,
                Duration::from_millis(700),
            )
        };

    let max_threads = thread_counts.iter().copied().max().unwrap_or(0);
    println!(
        "effective parallelism: {} hardware threads available, \
         {} worker threads at the widest point",
        effective_parallelism(),
        2 * max_threads,
    );
    if let Some(w) = parallelism_warning(max_threads) {
        println!("WARNING: {w}");
    }

    let tmp = std::env::temp_dir().join(format!("obr-bench-conc-{}", std::process::id()));
    let mut results = Vec::new();
    for &threads in thread_counts {
        let r = run_one(
            threads,
            preload,
            pages,
            frames,
            window,
            &tmp.join(format!("run-{threads}")),
        );
        println!(
            "{:>8} {:>2} threads: {:>8.0} ops/s ({} commits, {} reads, {} restarts) | \
             {} flushes -> {} batches, {} fsyncs | {} shards, {} reorg runs, check {}",
            CONFIG,
            r.threads,
            r.ops_per_sec(),
            r.commits,
            r.reads,
            r.restarts,
            r.flush_calls,
            r.wal_batches,
            r.fsyncs,
            r.pool_shards,
            r.reorg_runs,
            if r.check_clean { "clean" } else { "DIRTY" },
        );
        results.push(r);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    emit_json(&results, smoke, &out);
    if results.iter().any(|r| !r.check_clean) {
        eprintln!("FAILED: post-run check reported findings");
        std::process::exit(1);
    }
}
