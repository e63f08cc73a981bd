//! Host fingerprint: what a result needs next to it to be compared with
//! another run — cores, a measured fsync latency in the data directory,
//! the build profile, the source revision, and peak memory.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::hist::Recorder;

/// fsyncs the probe times (≥ 10 samples beyond p99).
const FSYNC_SAMPLES: usize = 1_000;

/// The recorded fingerprint.
pub struct Host {
    /// Available hardware threads.
    pub nproc: usize,
    /// 4 KiB write + `fdatasync` latency in the data directory, ns.
    pub fsync: Recorder,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Source revision, when the checkout carries one.
    pub revision: String,
}

impl Host {
    /// Probe the host, timing fsyncs in `dir`.
    pub fn probe(dir: &Path) -> std::io::Result<Host> {
        Ok(Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fsync: fsync_probe(dir)?,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            revision: revision(),
        })
    }
}

fn fsync_probe(dir: &Path) -> std::io::Result<Recorder> {
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path)?;
    let block = [0x5Au8; 4096];
    let mut rec = Recorder::default();
    for _ in 0..FSYNC_SAMPLES {
        let t = Instant::now();
        f.write_all(&block)?;
        f.sync_data()?;
        rec.record_duration(t.elapsed());
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(rec)
}

/// The commit the working directory was checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
