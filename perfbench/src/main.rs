//! The benchmark of record for the obr engine.
//!
//! ```text
//! perfbench --workload <wire-oltp|read-large|reorg-churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the workload's dataset from the seed in a durable database under
//! `.bench_run/` in the working directory, measures for `S` seconds, checks
//! every correctness gate and workload precondition, and prints each metric
//! by name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones. A failed gate or precondition exits with code 1.
//! See `README.md` next to this crate for every metric and workload.

mod engine;
mod gen;
mod hist;
mod host;
mod report;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use workloads::Cfg;

const WORKLOADS: [&str; 3] = ["wire-oltp", "read-large", "reorg-churn"];

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        cfg: Cfg {
            seed,
            seconds,
            trace,
            dir,
        },
    })
}

fn json_line(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = &args.cfg;
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let host = host::Host::probe(&cfg.dir).map_err(|e| format!("host probe: {e}"))?;
    println!(
        "host: nproc={} fsync_p50_us={:.1} fsync_p99_us={:.1} (n={}) profile={} revision={}",
        host.nproc,
        host.fsync.quantile(0.5) / 1e3,
        host.fsync.quantile(0.99) / 1e3,
        host.fsync.count(),
        host.profile,
        host.revision
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    match args.workload.as_str() {
        "wire-oltp" => workloads::wire_oltp(cfg, &host),
        "read-large" => workloads::read_large(cfg, &host),
        _ => workloads::reorg_churn(cfg, &host),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.cfg.dir);
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok(out) => {
            for n in &out.notes {
                println!("{n}");
            }
            for m in &out.metrics {
                let gate = if m.gated { "" } else { "; printed, not gated" };
                println!(
                    "metric {} = {} {} ({}{gate})",
                    m.name, m.value, m.unit, m.note
                );
            }
            println!("{}", json_line(true, &out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}
