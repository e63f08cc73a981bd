//! The §4.1.2 reader protocol end to end: a transaction that has written
//! nothing leaves no trace in the log and never waits for an fsync, and a
//! reader never returns a value whose commit is not durable.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obr_btree::SidePointerMode;
use obr_core::{recover, Database, EngineConfig};
use obr_lock::{LockMode, OwnerId, ResourceId};
use obr_storage::Lsn;
use obr_txn::{Session, TxnError};
use obr_wal::LogRecord;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("obr-reader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable(dir: &Path, wal_segment_bytes: u64) -> Arc<Database> {
    Database::create_durable_with_config(
        dir,
        1024,
        256,
        SidePointerMode::TwoWay,
        EngineConfig {
            wal_segment_bytes,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

fn load(s: &Session, keys: std::ops::Range<u64>) {
    for k in keys {
        s.insert(k, &k.to_le_bytes()).unwrap();
    }
}

/// `(end LSN, fsyncs, flush calls)` of the database's log.
fn log_marks(db: &Database) -> (Lsn, u64, u64) {
    let st = db.log().sync_stats();
    (db.log().next_lsn(), st.syncs, st.flush_calls)
}

#[test]
fn read_only_transactions_append_nothing_and_never_force() {
    let tmp = Scratch::new("no-log");
    let db = durable(tmp.path(), EngineConfig::default().wal_segment_bytes);
    let s = Session::new(Arc::clone(&db));
    load(&s, 0..200);
    let before = log_marks(&db);

    assert_eq!(s.read(7).unwrap(), Some(7u64.to_le_bytes().to_vec()));
    assert_eq!(s.read(10_000).unwrap(), None);
    assert_eq!(s.scan(10, 19).unwrap().len(), 10);
    let mut t = s.begin();
    t.get(3).unwrap();
    t.scan(50, 60).unwrap();
    t.commit().unwrap();
    let mut t = s.begin();
    t.get(4).unwrap();
    t.abort().unwrap();
    {
        let mut t = s.begin();
        t.scan(0, 5).unwrap();
        // dropped without commit or abort
    }

    assert_eq!(
        log_marks(&db),
        before,
        "(end LSN, fsyncs, flush calls) moved for read-only work"
    );
    // The readers released their locks: a writer gets every key they read.
    s.delete(3).unwrap();
    s.delete(4).unwrap();
    s.delete(5).unwrap();
}

#[test]
fn idle_reader_does_not_hold_back_the_low_water_mark() {
    let tmp = Scratch::new("low-water");
    let db = durable(tmp.path(), 1024);
    let s = Session::new(Arc::clone(&db));
    load(&s, 0..50);
    let mut reader = s.begin();
    reader.get(1).unwrap();
    let began_at = db.log().next_lsn();
    // Enough committed work after the reader began to seal segments.
    load(&s, 1000..1300);
    let dropped = db.truncate_log().unwrap();
    assert!(dropped > 0);
    assert!(
        db.log().first_lsn() > began_at,
        "truncation must recycle past the idle reader: first LSN {} vs reader start {began_at}",
        db.log().first_lsn()
    );
    assert!(db.log_low_water_mark() > began_at);
    assert_eq!(reader.get(1).unwrap(), Some(1u64.to_le_bytes().to_vec()));
    reader.commit().unwrap();
}

#[test]
fn idle_reader_is_neither_a_checkpoint_txn_nor_a_recovery_loser() {
    let tmp = Scratch::new("loser");
    let reader_id;
    {
        let db = durable(tmp.path(), EngineConfig::default().wal_segment_bytes);
        let s = Session::new(Arc::clone(&db));
        load(&s, 0..100);
        let mut reader = s.begin();
        reader_id = reader.id();
        reader.get(42).unwrap();
        db.checkpoint().unwrap();
        let (_, rec) = db.log().last_checkpoint().unwrap().unwrap();
        let LogRecord::Checkpoint { data } = rec else {
            panic!("not a checkpoint: {rec:?}");
        };
        assert!(
            data.active_txns.iter().all(|(t, _)| *t != reader_id),
            "idle reader {reader_id:?} listed active: {:?}",
            data.active_txns
        );
        // A later commit forces everything appended before it; the reader
        // must have appended nothing for that force to carry.
        s.insert(500, b"after").unwrap();
        db.crash(|_| false).unwrap();
        drop(reader);
    }
    let db = Database::open_durable(tmp.path(), 256, SidePointerMode::TwoWay).unwrap();
    let report = recover(&db).unwrap();
    assert_eq!(report.losers_undone, 0, "{report:?}");
    let begins = db
        .log()
        .records_from(db.log().first_lsn())
        .unwrap()
        .into_iter()
        .filter(|(_, r)| matches!(r, LogRecord::TxnBegin { txn } if *txn == reader_id))
        .count();
    assert_eq!(begins, 0, "the reader left a BEGIN in the log");
    assert_eq!(
        db.tree().search(500).unwrap().as_deref(),
        Some(&b"after"[..])
    );
}

#[test]
fn a_failed_first_write_logs_begin_once() {
    let tmp = Scratch::new("one-begin");
    let db = durable(tmp.path(), EngineConfig::default().wal_segment_bytes);
    let s = Session::new(Arc::clone(&db));
    load(&s, 0..10);
    let mut t = s.begin();
    let id = t.id();
    // The server's upsert: a strict insert that fails, then an update.
    assert!(matches!(t.insert(5, b"dup"), Err(TxnError::KeyExists(5))));
    assert_ne!(
        db.txn_lsn(id),
        Lsn::ZERO,
        "the failed write already registered the transaction"
    );
    t.update(5, b"five").unwrap();
    t.insert(50, b"fifty").unwrap();
    t.commit().unwrap();
    let recs = db.log().records_from(db.log().first_lsn()).unwrap();
    let count = |f: &dyn Fn(&LogRecord) -> bool| recs.iter().filter(|(_, r)| f(r)).count();
    assert_eq!(
        count(&|r| matches!(r, LogRecord::TxnBegin { txn } if *txn == id)),
        1
    );
    assert_eq!(
        count(&|r| matches!(r, LogRecord::TxnCommit { txn } if *txn == id)),
        1
    );
    assert_eq!(s.read(5).unwrap().as_deref(), Some(&b"five"[..]));

    // A transaction whose only write failed still ends in the log.
    let mut t = s.begin();
    let id = t.id();
    assert!(matches!(t.delete(9_999), Err(TxnError::KeyNotFound(_))));
    t.abort().unwrap();
    let recs = db.log().records_from(db.log().first_lsn()).unwrap();
    let mine: Vec<&LogRecord> = recs
        .iter()
        .map(|(_, r)| r)
        .filter(|r| {
            matches!(r, LogRecord::TxnBegin { txn } | LogRecord::TxnAbort { txn } if *txn == id)
        })
        .collect();
    assert_eq!(mine.len(), 2, "{mine:?}");
    assert_eq!(
        db.txn_lsn(id),
        Lsn::ZERO,
        "an aborted transaction is not active"
    );
}

/// Poll until `cond` holds; panics after five seconds.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Regression: `Txn::get` used to search before taking the key lock. A
/// writer whose insert of `k` split the leaf carried `k` onto a new leaf it
/// holds no lock on; the reader's leaf S lock was granted there, it read
/// the uncommitted `k`, waited on the key lock, and returned the value after
/// the writer aborted.
#[test]
fn a_reader_never_returns_an_aborted_insert_carried_by_a_split() {
    let disk = Arc::new(obr_storage::InMemoryDisk::new(1024));
    let db = Database::create(disk, 1024, SidePointerMode::TwoWay).unwrap();
    let s = Session::new(Arc::clone(&db));
    let value = [0xABu8; 300];
    let mut w = s.begin();
    let w_owner = OwnerId(w.id().0);
    let mut carried = None;
    for k in 1..200u64 {
        let before = *db.tree().path_for(k).unwrap().last().unwrap();
        w.insert(k, &value).unwrap();
        let after = *db.tree().path_for(k).unwrap().last().unwrap();
        if after != before
            && db
                .locks()
                .held_mode(w_owner, ResourceId::Page(after.0))
                .is_none()
        {
            carried = Some((k, after));
            break;
        }
    }
    let (k, new_leaf) = carried.expect("no insert split onto an unlocked leaf");

    let reader = s.begin();
    let r_owner = OwnerId(reader.id().0);
    let h = std::thread::spawn(move || {
        let mut reader = reader;
        let v = reader.get(k);
        reader.commit().unwrap();
        v
    });
    // The reader gets its S lock on the new leaf, then blocks on the key.
    wait_for("the reader's leaf S lock", || {
        db.locks().held_mode(r_owner, ResourceId::Page(new_leaf.0)) == Some(LockMode::S)
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !h.is_finished(),
        "the reader must wait for the writer's key lock"
    );
    w.abort().unwrap();
    assert_eq!(h.join().unwrap().unwrap(), None, "read an aborted insert");
    db.tree().validate().unwrap();
}

/// A read forces nothing, so what it returns must already be durable: a
/// writer releases its locks only after its commit record is forced.
#[test]
fn a_value_read_without_a_force_survives_a_crash() {
    let tmp = Scratch::new("crash-read");
    {
        let db = durable(tmp.path(), EngineConfig::default().wal_segment_bytes);
        let a = Session::new(Arc::clone(&db));
        let b = Session::new(Arc::clone(&db));
        load(&a, 0..20);
        db.checkpoint().unwrap();
        a.insert(77, b"committed by A").unwrap();
        let syncs = db.log().sync_stats().syncs;
        assert_eq!(b.read(77).unwrap().as_deref(), Some(&b"committed by A"[..]));
        assert_eq!(
            db.log().sync_stats().syncs,
            syncs,
            "the read forced the log"
        );
        // Crash: no page reaches the disk, the unforced log tail is lost.
        db.crash(|_| false).unwrap();
    }
    let db = Database::open_durable(tmp.path(), 256, SidePointerMode::TwoWay).unwrap();
    recover(&db).unwrap();
    assert_eq!(
        db.tree().search(77).unwrap().as_deref(),
        Some(&b"committed by A"[..])
    );
    assert_eq!(db.tree().validate().unwrap(), 21);
}
