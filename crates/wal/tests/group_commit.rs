//! Group commit under real concurrency: K committers racing `flush_to` on a
//! durable segmented log must each observe their own durability, while the
//! flusher-baton batching keeps the fsync count at or below K (and, when the
//! scheduler cooperates, well below it). The small seal threshold makes
//! batches seal segments mid-storm.

use std::sync::{Arc, Barrier};

use obr_wal::{LogManager, LogRecord, TxnId};

/// Seal threshold: a few records per segment.
const SEG_BYTES: u64 = 256;

fn temp_wal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("obr-wal-gc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// K concurrent committers: every waiter sees `durable_lsn >= its lsn`, and
/// the whole storm costs between 1 and K fsyncs.
#[test]
fn concurrent_committers_batch_into_at_most_k_fsyncs() {
    const K: u64 = 8;
    const COMMITS_PER_THREAD: u64 = 10;
    let dir = temp_wal("batch");
    let log = Arc::new(LogManager::open_dir(&dir, SEG_BYTES).unwrap());
    let before = log.sync_stats();
    let barrier = Barrier::new(K as usize);
    std::thread::scope(|s| {
        for t in 0..K {
            let log = Arc::clone(&log);
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..COMMITS_PER_THREAD {
                    let lsn = log.append(&LogRecord::TxnCommit {
                        txn: TxnId(t * COMMITS_PER_THREAD + i + 1),
                    });
                    log.flush_to(lsn).unwrap();
                    assert!(
                        log.durable_lsn() >= lsn,
                        "thread {t} commit {i}: durable {} < requested {lsn}",
                        log.durable_lsn()
                    );
                }
            });
        }
    });
    let d = log.sync_stats().since(&before);
    // A committer whose lsn was already covered by someone else's batch
    // returns without touching the disk, so flush_calls <= total commits.
    assert!(d.flush_calls <= K * COMMITS_PER_THREAD);
    assert!(d.syncs >= 1, "someone must have hit the disk");
    assert!(
        d.syncs <= K * COMMITS_PER_THREAD,
        "group commit can never fsync more than once per commit: {} > {}",
        d.syncs,
        K * COMMITS_PER_THREAD
    );
    // Nothing is lost: a crash now replays every record, and a reopen of
    // the sealed segments plus the active one reads all of them back.
    assert_eq!(log.simulate_crash(), 0);
    assert!(log.segment_catalog().len() > 1, "the storm must seal");
    drop(log);
    let reopened = LogManager::open_dir(&dir, SEG_BYTES).unwrap();
    assert_eq!(reopened.len() as u64, K * COMMITS_PER_THREAD);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One storm of K committers released at once on a single barrier tick:
/// fsyncs stay <= K even in the worst case where nobody overlaps.
#[test]
fn single_wave_of_committers_never_exceeds_k_fsyncs() {
    const K: u64 = 8;
    let dir = temp_wal("wave");
    let log = Arc::new(LogManager::open_dir(&dir, SEG_BYTES).unwrap());
    let before = log.sync_stats();
    let barrier = Barrier::new(K as usize);
    std::thread::scope(|s| {
        for t in 0..K {
            let log = Arc::clone(&log);
            let barrier = &barrier;
            s.spawn(move || {
                let lsn = log.append(&LogRecord::TxnCommit { txn: TxnId(t + 1) });
                barrier.wait();
                log.flush_to(lsn).unwrap();
                assert!(log.durable_lsn() >= lsn);
            });
        }
    });
    let d = log.sync_stats().since(&before);
    assert!(d.flush_calls <= K);
    assert!(
        (1..=K).contains(&d.syncs),
        "got {} fsyncs for {K} commits",
        d.syncs
    );
    let _ = std::fs::remove_dir_all(&dir);
}
