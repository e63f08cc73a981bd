//! A background reorganization daemon: the deployment shape the paper
//! implies ("the reorganizer runs in the background as one process", §8) —
//! it periodically inspects the tree and runs only the passes the
//! [`ReorgTrigger`] calls for.

use obr_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use obr_sync::Mutex;

use crate::db::Database;
use crate::error::{CoreError, CoreResult};
use crate::reorg::{ReorgConfig, ReorgDecision, ReorgTrigger, Reorganizer};

/// Optional housekeeping the daemon performs alongside reorganization.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonOptions {
    /// When set, any cycle that finds the WAL's on-disk footprint above
    /// this many bytes drives [`Database::truncate_log`] (sharp
    /// checkpoint plus sealed-segment recycling), keeping a long-lived
    /// service's log bounded.
    pub wal_budget_bytes: Option<u64>,
}

/// Handle to a running background reorganizer.
pub struct ReorgDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<CoreResult<Vec<ReorgDecision>>>>,
    runs: Arc<Mutex<Vec<ReorgDecision>>>,
}

impl ReorgDaemon {
    /// Spawn the daemon: every `interval` it evaluates `trigger` and runs
    /// whichever passes are needed.
    pub fn spawn(
        db: Arc<Database>,
        cfg: ReorgConfig,
        trigger: ReorgTrigger,
        interval: Duration,
    ) -> ReorgDaemon {
        Self::spawn_with_options(db, cfg, trigger, interval, DaemonOptions::default())
    }

    /// Like [`Self::spawn`], with housekeeping options (WAL truncation
    /// budget).
    ///
    /// A failed cycle — reorganization error, checkpoint flush error, log
    /// I/O error — is counted (`reorg_daemon_errors`), traced
    /// (`daemon_error`), and retried on the next interval; it never kills
    /// the daemon thread. Only a panic (a bug, not an environmental
    /// failure) ends the loop early.
    pub fn spawn_with_options(
        db: Arc<Database>,
        cfg: ReorgConfig,
        trigger: ReorgTrigger,
        interval: Duration,
        opts: DaemonOptions,
    ) -> ReorgDaemon {
        let stop = Arc::new(AtomicBool::new(false));
        let runs = Arc::new(Mutex::named(Vec::new(), "daemon.runs"));
        let stop2 = Arc::clone(&stop);
        let runs2 = Arc::clone(&runs);
        let handle = std::thread::Builder::new()
            .name("obr-reorg-daemon".into())
            .spawn(move || {
                let mut decisions = Vec::new();
                let mut consecutive_errors = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    // Sleep in small slices so stop() is responsive.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop2.load(Ordering::Relaxed) {
                        let slice = Duration::from_millis(10).min(interval - slept);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    db.core_metrics().daemon_cycles.inc();
                    db.tracer()
                        .emit(obr_obs::TraceKind::DaemonCycle, 0, 0, 0, 0, 0);
                    match Self::run_cycle(&db, &cfg, trigger, &opts) {
                        Ok(decision) => {
                            consecutive_errors = 0;
                            if decision != ReorgDecision::default() {
                                db.core_metrics().daemon_runs.inc();
                                db.tracer().emit(
                                    obr_obs::TraceKind::DaemonRun,
                                    0,
                                    0,
                                    0,
                                    u64::from(decision.compacted)
                                        | (u64::from(decision.swapped) << 1),
                                    u64::from(decision.shrunk),
                                );
                                decisions.push(decision);
                                runs2.lock().push(decision);
                            }
                        }
                        Err(e) => {
                            // Logged retry: a transient flush or I/O error
                            // must not abort the daemon (the next cycle
                            // simply tries again).
                            consecutive_errors += 1;
                            db.core_metrics().daemon_errors.inc();
                            db.tracer().emit_failure(
                                obr_obs::TraceKind::DaemonError,
                                consecutive_errors,
                                &e.to_string(),
                            );
                            eprintln!(
                                "obr-reorg-daemon: cycle failed (retrying next interval): {e}"
                            );
                        }
                    }
                }
                Ok(decisions)
            })
            .expect("spawn reorg daemon");
        ReorgDaemon {
            stop,
            handle: Some(handle),
            runs,
        }
    }

    /// One daemon cycle: reorganize if the trigger fires, then enforce the
    /// WAL budget. Every fallible step is propagated so the loop above can
    /// count/log and retry.
    fn run_cycle(
        db: &Arc<Database>,
        cfg: &ReorgConfig,
        trigger: ReorgTrigger,
        opts: &DaemonOptions,
    ) -> CoreResult<ReorgDecision> {
        let reorg = Reorganizer::new(Arc::clone(db), cfg.clone());
        let decision = reorg.run_if_needed(trigger)?;
        if let Some(budget) = opts.wal_budget_bytes {
            if db.log().on_disk_bytes() > budget {
                db.truncate_log()?;
                db.core_metrics().daemon_truncations.inc();
            }
        }
        Ok(decision)
    }

    /// Decisions made so far (non-blocking snapshot).
    pub fn decisions(&self) -> Vec<ReorgDecision> {
        self.runs.lock().clone()
    }

    /// Signal the daemon and wait for it to finish its current cycle.
    /// Returns every non-trivial decision it made.
    pub fn stop(mut self) -> CoreResult<Vec<ReorgDecision>> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h
                .join()
                .map_err(|_| CoreError::Recovery("reorg daemon panicked".into()))?,
            None => Ok(Vec::new()),
        }
    }
}

impl Drop for ReorgDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_btree::SidePointerMode;
    use obr_storage::{DiskManager, InMemoryDisk};

    fn sparse_db() -> Arc<Database> {
        let disk = Arc::new(InMemoryDisk::new(8192));
        let db =
            Database::create(disk as Arc<dyn DiskManager>, 8192, SidePointerMode::TwoWay).unwrap();
        let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, vec![0x44; 64])).collect();
        db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
        db
    }

    #[test]
    fn daemon_heals_a_degraded_tree_then_idles() {
        let db = sparse_db();
        let expected = db.tree().collect_all().unwrap();
        let daemon = ReorgDaemon::spawn(
            Arc::clone(&db),
            ReorgConfig::default(),
            ReorgTrigger::default(),
            Duration::from_millis(20),
        );
        // Wait until it has acted once.
        for _ in 0..200 {
            if !daemon.decisions().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let decisions = daemon.stop().unwrap();
        assert!(!decisions.is_empty(), "the sparse tree must trigger a run");
        assert!(decisions[0].compacted);
        // Subsequent cycles were no-ops (healthy tree): at most a couple of
        // decisions total.
        assert!(decisions.len() <= 2, "{decisions:?}");
        db.tree().validate().unwrap();
        assert_eq!(db.tree().collect_all().unwrap(), expected);
        assert!(db.tree().stats().unwrap().avg_leaf_fill > 0.7);
    }

    #[test]
    fn dropping_the_daemon_stops_it() {
        let db = sparse_db();
        {
            let _daemon = ReorgDaemon::spawn(
                Arc::clone(&db),
                ReorgConfig::default(),
                ReorgTrigger::default(),
                Duration::from_millis(5),
            );
            std::thread::sleep(Duration::from_millis(30));
        } // drop
        db.tree().validate().unwrap();
    }
}
