//! Threaded stress: the sharded buffer pool and group-commit WAL under
//! racing readers, writers, flushers, and a live reorganization daemon.
//! Every run must end fsck-clean — these tests are the executable form of
//! the lock-ordering argument in DESIGN.md's "Concurrency architecture".

use obr_sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use obr::btree::SidePointerMode;
use obr::core::{Database, ReorgConfig, ReorgDaemon, ReorgTrigger};
use obr::storage::{BufferPool, DiskManager, InMemoryDisk, PageId};
use obr::txn::{Session, TxnError};

/// 8 threads hammer a pool of 32 frames over 256 pages: pin/unpin, dirty,
/// targeted flush, full-pool flush, and discard all race the clock-hand
/// eviction. Each thread owns a disjoint page range, so after a final
/// `flush_all` the disk must hold every thread's last write.
#[test]
fn pool_churn_under_eviction_and_flush() {
    const THREADS: u32 = 8;
    const PAGES_PER_THREAD: u32 = 32;
    const ROUNDS: u64 = 60;
    let disk = Arc::new(InMemoryDisk::new(1 + THREADS * PAGES_PER_THREAD));
    let pool = Arc::new(BufferPool::with_shards(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        32,
        8,
    ));
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let barrier = &barrier;
            s.spawn(move || {
                let base = 1 + t * PAGES_PER_THREAD;
                barrier.wait();
                for round in 0..ROUNDS {
                    for i in 0..PAGES_PER_THREAD {
                        let id = PageId(base + i);
                        {
                            let g = pool.fetch(id).expect("fetch under churn");
                            let mut page = g.write();
                            page.bytes_mut()[..8].copy_from_slice(&(round + 1).to_le_bytes());
                        }
                        match round % 4 {
                            0 => pool.flush_page(id).expect("flush_page"),
                            1 if i == 0 => pool.flush_all().expect("flush_all"),
                            2 if i.is_multiple_of(7) => {
                                pool.flush_page(id).expect("flush before discard");
                                pool.discard(id);
                            }
                            _ => {}
                        }
                    }
                }
            });
        }
    });
    assert!(pool.resident() <= pool.capacity());
    pool.flush_all().expect("final flush");
    for t in 0..THREADS {
        for i in 0..PAGES_PER_THREAD {
            let id = PageId(1 + t * PAGES_PER_THREAD + i);
            let page = disk.read_page(id).expect("read back");
            let mut got = [0u8; 8];
            got.copy_from_slice(&page.bytes()[..8]);
            assert_eq!(
                u64::from_le_bytes(got),
                ROUNDS,
                "page {id} lost its last write"
            );
        }
    }
}

/// Full-engine stress: 8+ session threads (inserts, deletes, reads, scans)
/// race the reorganization daemon on a small sharded pool, then the live
/// database must pass every `obr-check` checker.
#[test]
fn engine_stress_with_reorg_daemon_ends_fsck_clean() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    let disk = Arc::new(InMemoryDisk::new(16_384));
    let db = Database::create(
        disk as Arc<dyn DiskManager>,
        512, // small pool: eviction runs throughout
        SidePointerMode::TwoWay,
    )
    .unwrap();
    assert!(db.pool().shard_count() >= 8, "stress needs a sharded pool");
    // Sparse preload gives the daemon real compaction work.
    let records: Vec<(u64, Vec<u8>)> = (0..3000u64).map(|k| (k, vec![0xAB; 48])).collect();
    db.tree().bulk_load(&records, 0.4, 0.9).unwrap();

    let daemon = ReorgDaemon::spawn(
        Arc::clone(&db),
        ReorgConfig::default(),
        ReorgTrigger::default(),
        Duration::from_millis(15),
    );
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(WRITERS + READERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS as u64 {
            let db = Arc::clone(&db);
            let (stop, barrier) = (&stop, &barrier);
            s.spawn(move || {
                let session = Session::new(db);
                // Disjoint per-writer key range, far above the preload.
                let base = 1_000_000 + w * 1_000_000;
                let mut k = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let key = base + (k % 500);
                    let mut txn = session.begin();
                    let op = if k % 3 == 2 {
                        txn.delete(key).map(|_| ())
                    } else {
                        txn.insert(key, &key.to_be_bytes()).map(|_| ())
                    };
                    match op {
                        Ok(()) => {
                            txn.commit().unwrap();
                        }
                        Err(TxnError::KeyExists(_)) | Err(TxnError::KeyNotFound(_)) => {
                            txn.commit().unwrap();
                        }
                        Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {
                            let _ = txn.abort();
                        }
                        Err(e) => panic!("writer {w} failed: {e}"),
                    }
                    k += 1;
                }
            });
        }
        for r in 0..READERS as u64 {
            let db = Arc::clone(&db);
            let (stop, barrier) = (&stop, &barrier);
            s.spawn(move || {
                let session = Session::new(db);
                let mut rng = 0x243F6A88u64 ^ (r + 1);
                barrier.wait();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = rng % 3000;
                    let outcome = if i.is_multiple_of(32) {
                        session.scan(key, key + 40).map(|_| ())
                    } else {
                        session.read(key).map(|_| ())
                    };
                    match outcome {
                        Ok(()) | Err(TxnError::Deadlock) | Err(TxnError::Timeout) => {}
                        Err(e) => panic!("reader {r} failed: {e}"),
                    }
                    i += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });
    daemon.stop().unwrap();

    // Quiescent now: the live pool must check clean end to end.
    db.tree().validate().unwrap();
    let report = obr::check::check_database(&db);
    assert!(report.is_clean(), "post-stress check found:\n{report}");
}
