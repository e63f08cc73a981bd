//! Network-frontend throughput benchmark: sustained ops/s and tail
//! latency over the wire **while the reorganization daemon runs**.
//!
//! ```text
//! server [--smoke] [--out PATH]
//! ```
//!
//! A fresh durable database is sparse-loaded (so the daemon has real work
//! from the first cycle), the TCP frontend is started, and N client
//! connections run a mixed workload (50% point reads, 30% upserts, 20%
//! short scans) for a fixed window, timing every call end-to-end — codec,
//! socket, admission, engine, and fsync all in the measured path. BUSY
//! sheds are retried with backoff and counted, not timed. Results land in
//! `BENCH_server.json` (or `--out`) with p50/p95/p99 and the post-run
//! integrity verdict.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use obr_btree::SidePointerMode;
use obr_core::{Database, EngineConfig, ReorgConfig, ReorgDaemon, ReorgTrigger};
use obr_server::client::Client;
use obr_server::proto::ErrorCode;
use obr_server::server::{Server, ServerConfig};
use obr_sync::atomic::{AtomicBool, Ordering};
use obr_txn::workload::LatencyHistogram;

struct BenchResult {
    clients: usize,
    ops: u64,
    busy_retries: u64,
    elapsed: Duration,
    latency: LatencyHistogram,
    reorg_runs: usize,
    sessions_total: u64,
    requests_shed: u64,
    check_clean: bool,
    metrics_json: String,
}

impl BenchResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn run_one(
    clients: usize,
    preload: u64,
    pages: u32,
    frames: usize,
    window: Duration,
    dir: &std::path::Path,
) -> BenchResult {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = EngineConfig::default();
    let db = Database::create_durable_with_config(
        dir,
        pages,
        frames,
        SidePointerMode::TwoWay,
        cfg.clone(),
    )
    .expect("create durable database");
    let records: Vec<(u64, Vec<u8>)> = (0..preload).map(|k| (k, vec![0xB7; 64])).collect();
    // Sparse load: the daemon reorganizes underneath the whole run.
    db.tree().bulk_load(&records, 0.45, 0.9).expect("bulk load");

    let daemon = ReorgDaemon::spawn(
        Arc::clone(&db),
        ReorgConfig::default(),
        ReorgTrigger::default(),
        Duration::from_millis(25),
    );
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::from_engine("127.0.0.1:0", &cfg),
    )
    .expect("start server");
    let addr = server.local_addr().to_string();

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(clients + 1);
    let (started, worker_results) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let addr = addr.clone();
            let (stop, barrier) = (&stop, &barrier);
            handles.push(s.spawn(move || {
                let mut client = Client::connect(&addr).expect("client connect");
                let mut hist = LatencyHistogram::default();
                let mut busy = 0u64;
                let mut rng = 0xD1B5_4A32_D192_ED03u64 ^ ((c as u64 + 1) << 17);
                let write_base = 1u64 << 32;
                barrier.wait();
                let mut i = 0u64;
                // protocol: relaxed go/no-go flag for the measurement window.
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift(&mut rng);
                    let key = r % preload;
                    let t0 = Instant::now();
                    let outcome = match r % 10 {
                        0..=4 => client.get(key).map(|_| ()),
                        5..=7 => client.put(write_base + (c as u64) * (1 << 24) + i, &[0x5A; 64]),
                        _ => client.scan(key, key + 30, 32).map(|_| ()),
                    };
                    match outcome {
                        Ok(()) => hist.record(t0.elapsed()),
                        Err(e)
                            if matches!(
                                e.code(),
                                Some(ErrorCode::Busy | ErrorCode::Deadlock | ErrorCode::Timeout)
                            ) =>
                        {
                            busy += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("client {c} failed: {e}"),
                    }
                    i += 1;
                }
                let _ = client.bye();
                (hist, busy)
            }));
        }
        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(window);
        // protocol: relaxed go/no-go flag.
        stop.store(true, Ordering::Relaxed);
        let results: Vec<(LatencyHistogram, u64)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (started, results)
    });
    let elapsed = started.elapsed();

    let reorg_runs = match daemon.stop() {
        Ok(d) => d.len(),
        Err(e) => {
            eprintln!("note: reorg daemon gave up at {clients} clients: {e}");
            0
        }
    };
    server.shutdown().expect("server shutdown");

    let mut latency = LatencyHistogram::default();
    let mut busy_retries = 0u64;
    for (h, b) in &worker_results {
        latency.merge(h);
        busy_retries += b;
    }
    let snap = db.metrics_snapshot().expect("metrics snapshot");
    let sessions_total = snap.counter("server_sessions_total");
    let requests_shed = snap.counter("server_requests_shed");
    let metrics_json = snap.to_json();
    let report = obr_check::check_database(&db);
    let check_clean = report.is_clean();
    if !check_clean {
        eprintln!("check findings at {clients} clients:\n{report}");
    }
    let result = BenchResult {
        clients,
        ops: latency.count(),
        busy_retries,
        elapsed,
        latency,
        reorg_runs,
        sessions_total,
        requests_shed,
        check_clean,
        metrics_json,
    };
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parallelism_warning(max_clients: usize) -> Option<String> {
    let hw = effective_parallelism();
    // Each client costs two threads (client side + server session).
    let workers = 2 * max_clients;
    (hw < workers).then(|| {
        format!(
            "{workers} threads (N={max_clients} clients + their server sessions) \
             oversubscribe {hw} available hardware threads; \
             per-client-count rows are time-sliced, not parallel"
        )
    })
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn emit_json(results: &[BenchResult], smoke: bool, out: &std::path::Path) {
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"server\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!("  \"hw_threads\": {},\n", effective_parallelism()));
    let max_clients = results.iter().map(|r| r.clients).max().unwrap_or(0);
    match parallelism_warning(max_clients) {
        Some(w) => body.push_str(&format!("  \"parallelism_warning\": \"{w}\",\n")),
        None => body.push_str("  \"parallelism_warning\": null,\n"),
    }
    body.push_str(
        "  \"workload\": \"50% GET / 30% PUT / 20% SCAN over TCP while the reorg daemon runs\",\n",
    );
    body.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"clients\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, \
             \"elapsed_ms\": {:.1}, \"latency_us\": {{\"mean\": {:.1}, \"p50\": {:.1}, \
             \"p95\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}}, \"busy_retries\": {}, \
             \"requests_shed\": {}, \"sessions_total\": {}, \"reorg_runs\": {}, \
             \"check_clean\": {}, \"metrics\": {}}}{}\n",
            r.clients,
            r.ops,
            r.ops_per_sec(),
            r.elapsed.as_secs_f64() * 1e3,
            micros(r.latency.mean()),
            micros(r.latency.percentile(0.50)),
            micros(r.latency.percentile(0.95)),
            micros(r.latency.percentile(0.99)),
            micros(r.latency.max()),
            r.busy_retries,
            r.requests_shed,
            r.sessions_total,
            r.reorg_runs,
            r.check_clean,
            r.metrics_json,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    let all_clean = results.iter().all(|r| r.check_clean);
    let total_reorgs: usize = results.iter().map(|r| r.reorg_runs).sum();
    body.push_str(&format!("  \"total_reorg_runs\": {total_reorgs},\n"));
    body.push_str(&format!("  \"all_checks_clean\": {all_clean}\n"));
    body.push_str("}\n");
    std::fs::write(out, &body).expect("write BENCH_server.json");
    println!("wrote {}", out.display());
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_server.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            "--help" | "-h" => {
                eprintln!("usage: server [--smoke] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    let (client_counts, preload, pages, frames, window): (&[usize], u64, u32, usize, Duration) =
        if smoke {
            (&[1, 4], 800, 8_192, 512, Duration::from_millis(200))
        } else {
            (
                &[1, 2, 4, 8],
                4_000,
                32_768,
                1_024,
                Duration::from_millis(800),
            )
        };

    let max_clients = client_counts.iter().copied().max().unwrap_or(0);
    println!(
        "effective parallelism: {} hardware threads, {} worker threads at the widest point",
        effective_parallelism(),
        2 * max_clients,
    );
    if let Some(w) = parallelism_warning(max_clients) {
        println!("WARNING: {w}");
    }

    let tmp = std::env::temp_dir().join(format!("obr-bench-server-{}", std::process::id()));
    let mut results = Vec::new();
    for &clients in client_counts {
        let r = run_one(
            clients,
            preload,
            pages,
            frames,
            window,
            &tmp.join(format!("c{clients}")),
        );
        println!(
            "{:>2} clients: {:>8.0} ops/s | p50 {:>7.1}us p95 {:>7.1}us p99 {:>7.1}us | \
             {} busy retries, {} shed, {} reorg runs, check {}",
            r.clients,
            r.ops_per_sec(),
            micros(r.latency.percentile(0.50)),
            micros(r.latency.percentile(0.95)),
            micros(r.latency.percentile(0.99)),
            r.busy_retries,
            r.requests_shed,
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
