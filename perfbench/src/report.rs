//! Turning what a run measured into named metrics: the end-to-end set of
//! an untraced run and the per-layer set of a traced one.

use std::time::Duration;

use obr_btree::TreeStats;

use crate::engine::{self as e, Cycle, Deltas, Res, Tally};
use crate::host::{self, Host};

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or base, printed next to the value.
    pub note: String,
    /// Part of the result line (and of `BENCHMARK.json`); otherwise only
    /// printed.
    pub gated: bool,
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Foreground operations issued in the measured phase(s).
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Metrics to report.
    pub metrics: Vec<Metric>,
    /// Preconditions and gates that held, for the human-readable log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Report a metric in the result line.
    pub fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
            gated: true,
        });
    }

    /// Print a metric that is not gated: on a shared host its run-to-run
    /// spread exceeds the largest bound a gated metric may have (README.md).
    pub fn show(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
            gated: false,
        });
    }

    /// Record a precondition that held, or fail the run.
    pub fn require(&mut self, ok: bool, what: String) -> Res<()> {
        if ok {
            self.notes.push(format!("precondition ok: {what}"));
            Ok(())
        } else {
            Err(format!("precondition failed: {what}"))
        }
    }
}

/// The median (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Durations in seconds.
pub fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// A measured interval: merged tallies, wall time, counter deltas.
pub struct Phase {
    /// What the generator threads measured.
    pub tally: Tally,
    /// Wall time.
    pub elapsed: Duration,
    /// Counter deltas over the interval.
    pub deltas: Deltas,
    /// Throughput of each slice of the interval: each whole second of a
    /// window, each cycle of `reorg-churn`.
    pub rates: Vec<f64>,
}

impl Phase {
    /// Completed operations per second, median over the slices: a stall
    /// of the shared disk in a few seconds moves the mean, not this.
    pub fn ops_per_s(&self) -> f64 {
        median(self.rates.clone())
    }

    /// Completed operations ÷ wall time over the whole interval.
    pub fn mean_ops_per_s(&self) -> f64 {
        self.tally.completed() as f64 / self.elapsed.as_secs_f64()
    }
}

/// The post phase's results.
pub struct Post {
    /// Open + recover time of each crash round.
    pub recovery: Vec<Duration>,
    /// Each round's recovery report.
    pub reports: Vec<obr_core::RecoveryReport>,
    /// Tree shape at the end of the run.
    pub tree: TreeStats,
}

/// End-to-end metrics shared by every workload.
pub fn end_to_end(
    out: &mut Outcome,
    setup: &[Duration],
    measured: &Phase,
    cycles: &[Cycle],
    post: &Post,
) {
    out.put(
        "setup_s",
        median(secs(setup)),
        "s",
        format!("median of {} builds", setup.len()),
    );
    out.show(
        "ops_per_s",
        measured.ops_per_s(),
        "1/s",
        format!(
            "median of {} slices; {} ops in {:.3} s = {:.1}/s overall",
            measured.rates.len(),
            measured.tally.completed(),
            measured.elapsed.as_secs_f64(),
            measured.mean_ops_per_s()
        ),
    );
    let classes = [
        ("get_p50_us", "get_p99_us"),
        ("put_p50_us", "put_p99_us"),
        ("scan_p50_us", "scan_p99_us"),
    ];
    for (rec, (p50, p99)) in measured.tally.lat.iter().zip(classes) {
        let n = rec.count();
        out.show(p50, rec.quantile(0.5) / 1e3, "us", format!("n={n}"));
        let beyond = rec.beyond(0.99);
        out.show(
            p99,
            rec.quantile(0.99) / 1e3,
            "us",
            format!("n={n}, {beyond} beyond"),
        );
    }
    // Only `reorg-churn` runs the reorganizer.
    if !cycles.is_empty() {
        out.show(
            "reorg_s",
            median(cycles.iter().map(|c| c.total.as_secs_f64()).collect()),
            "s",
            format!("median of {} cycles", cycles.len()),
        );
    }
    out.put(
        "space_amp",
        e::space_amp(&post.tree),
        "ratio",
        format!(
            "{} pages for {} records",
            post.tree.leaf_pages + post.tree.internal_pages,
            post.tree.records
        ),
    );
    out.show(
        "recovery_s",
        median(secs(&post.recovery)),
        "s",
        format!(
            "median of {:.4?} s over rounds replaying {} concurrent writers' {} auto-commit inserts each",
            secs(&post.recovery),
            e::TAIL_WRITERS,
            e::TAIL_WRITES
        ),
    );
    let ops = measured.tally.completed();
    let syncs = measured.deltas.get("sync.syncs");
    out.put(
        "fsyncs_per_op",
        ratio(syncs, ops),
        "count",
        format!("{syncs} WAL fsyncs over {ops} ops"),
    );
    out.show("rss_peak_mb", host::rss_peak_mb(), "MiB", "VmHWM");
    out.notes.push(format!(
        "failed_ratio = {} ({} of {} ops failed or refused)",
        ratio(measured.tally.failed, measured.tally.attempted),
        measured.tally.failed,
        measured.tally.attempted
    ));
}

/// Inputs to the per-layer metrics of a traced run.
pub struct Traced<'a> {
    /// The traced measured phase.
    pub measured: &'a Phase,
    /// Tally whose spans time the `txn` calls (the in-process probe on
    /// `wire-oltp`, the measured phase elsewhere).
    pub txn: &'a Tally,
    /// Client-observed GET p50 minus in-process GET p50 (wire only).
    pub server_self_us: f64,
    /// Reorganization cycles the `reorg` metrics describe.
    pub cycles: &'a [Cycle],
    /// Tree shape at the end of the measured phase.
    pub tree: &'a obr_btree::TreeStats,
    pub post: &'a Post,
    pub host: &'a Host,
    /// Traced ÷ untraced `ops_per_s`.
    pub overhead: f64,
}

pub fn per_layer(out: &mut Outcome, t: Traced<'_>) {
    let d = &t.measured.deltas;
    let count = |name: &str| d.get(name) as f64;
    let ops = t.measured.tally.completed();
    let spans = &t.measured.tally.spans;
    let ts = &t.txn.spans;
    let tr = t.tree;
    let syncs = d.get("sync.syncs");
    let (hits, misses) = (d.get("pool_hits"), d.get("pool_misses"));
    let (now, waited) = (d.get("lock_grants_immediate"), d.get("lock_grants_waited"));
    let txns = &t.txn;
    let rows = [
        ("server.rpc_p50_us", spans.us("server.rpc", 0.5), "us"),
        ("server.self_p50_us", t.server_self_us, "us"),
        (
            "server.requests_shed",
            count("server_requests_shed"),
            "count",
        ),
        ("txn.get_p50_us", ts.us("txn.get", 0.5), "us"),
        ("txn.write_p50_us", ts.us("txn.write", 0.5), "us"),
        ("txn.commit_p50_us", ts.us("txn.commit", 0.5), "us"),
        ("txn.commit_p99_us", ts.us("txn.commit", 0.99), "us"),
        (
            "txn.retry_ratio",
            ratio(txns.rs_fallbacks + txns.failed, txns.attempted),
            "ratio",
        ),
        ("wal.syncs_per_op", ratio(syncs, ops), "count"),
        (
            "wal.records_per_sync",
            ratio(d.get("wal_appends"), syncs),
            "count",
        ),
        (
            "wal.append_bytes_per_op",
            ratio(d.get("wal_append_bytes"), ops),
            "B",
        ),
        ("wal.group_waits", count("sync.group_waits"), "count"),
        ("host.fsync_p50_us", t.host.fsync.quantile(0.5) / 1e3, "us"),
        ("host.fsync_p99_us", t.host.fsync.quantile(0.99) / 1e3, "us"),
        // Sampled in the measured phase, or in the probe on `wire-oltp`.
        (
            "btree.search_p50_us",
            spans
                .us("btree.search", 0.5)
                .max(ts.us("btree.search", 0.5)),
            "us",
        ),
        ("btree.height", f64::from(tr.height), "levels"),
        ("btree.leaf_pages", tr.leaf_pages as f64, "count"),
        ("btree.fill", tr.avg_leaf_fill, "ratio"),
        (
            "btree.discontinuity_ratio",
            ratio(
                tr.leaf_discontinuities() as u64,
                tr.leaf_pages.saturating_sub(1) as u64,
            ),
            "ratio",
        ),
        ("storage.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("storage.misses_per_op", ratio(misses, ops), "count"),
        (
            "storage.evictions_per_op",
            ratio(d.get("pool_evictions"), ops),
            "count",
        ),
        ("storage.disk_reads", count("disk.reads"), "count"),
        ("storage.disk_writes", count("disk.writes"), "count"),
        ("lock.waited_ratio", ratio(waited, now + waited), "ratio"),
        (
            "lock.wait_ms_total",
            count("lock_wait_ns_total") / 1e6,
            "ms",
        ),
        ("lock.forgone_rx", count("lock_forgone_rx"), "count"),
        ("lock.rs_instant", count("lock_rs_instant_grants"), "count"),
        ("lock.deadlocks", count("lock_deadlocks"), "count"),
    ];
    for (name, value, unit) in rows {
        out.put(name, value, unit, "");
    }
    out.notes.push(format!(
        "traced phase: {ops} ops, {syncs} fsyncs, {misses} pool misses, {} txns with {} RS re-descents and {} refusals",
        txns.attempted, txns.rs_fallbacks, txns.failed
    ));
    reorg_layer(out, t.cycles);
    let reports = &t.post.reports;
    let redo = median(reports.iter().map(|r| r.redo_applied as f64).collect());
    let losers = median(reports.iter().map(|r| r.losers_undone as f64).collect());
    out.put("recovery.redo_applied", redo, "count", "median over rounds");
    out.put(
        "recovery.losers_undone",
        losers,
        "count",
        "median over rounds",
    );
    out.put(
        "trace.overhead_ratio",
        t.overhead,
        "ratio",
        "traced ÷ untraced ops_per_s",
    );
}

/// The `reorg` layer: pass spans (median over cycles), counters per cycle,
/// and pass 1's misses and fsyncs per unit.
fn reorg_layer(out: &mut Outcome, cycles: &[Cycle]) {
    let n = cycles.len().max(1) as f64;
    let mut all = Deltas::default();
    let mut pass1 = Deltas::default();
    for c in cycles {
        all.merge(&c.all);
        pass1.merge(&c.pass1);
    }
    for (i, name) in ["reorg.pass1_s", "reorg.pass2_s", "reorg.pass3_s"]
        .into_iter()
        .enumerate()
    {
        let v = cycles.iter().map(|c| c.passes[i].as_secs_f64()).collect();
        out.put(
            name,
            median(v),
            "s",
            format!("median of {} cycles", cycles.len()),
        );
    }
    for (name, counter) in [
        ("reorg.units", "reorg_units_completed"),
        ("reorg.records_moved", "reorg_records_moved"),
        ("reorg.pages_freed", "reorg_pages_freed"),
        ("reorg.pass2_swaps", "reorg_pass2_swaps"),
        ("reorg.pass2_moves", "reorg_pass2_moves"),
        ("reorg.deadlock_retries", "reorg_deadlock_retries"),
        ("reorg.units_undone", "reorg_units_undone"),
        ("reorg.side_appends", "side_file_appends"),
        ("reorg.side_applied", "reorg_side_entries_applied"),
    ] {
        out.put(name, all.get(counter) as f64 / n, "count", "per cycle");
    }
    let units = all.get("reorg_units_completed");
    out.put(
        "reorg.inplace_ratio",
        ratio(all.get("reorg_units_inplace"), units),
        "ratio",
        "",
    );
    let (units1, misses1, syncs1) = (
        pass1.get("reorg_units_completed"),
        pass1.get("pool_misses"),
        pass1.get("sync.syncs"),
    );
    out.put(
        "reorg.misses_per_unit",
        ratio(misses1, units1),
        "count",
        format!("pass 1: {misses1} misses / {units1} units"),
    );
    out.put(
        "reorg.syncs_per_unit",
        ratio(syncs1, units1),
        "count",
        format!("pass 1: {syncs1} fsyncs / {units1} units"),
    );
    let peak = cycles
        .iter()
        .map(|c| c.all.get("side_file_depth_peak"))
        .max();
    out.put(
        "reorg.side_depth_peak",
        peak.unwrap_or(0) as f64,
        "count",
        "",
    );
}
