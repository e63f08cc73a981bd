//! Loopback integration tests: a real TCP server over a real durable
//! database, driven by real clients — the full PROTOCOL.md surface.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use obr_btree::SidePointerMode;
use obr_core::{Database, EngineConfig, ReorgConfig, ReorgDaemon, ReorgTrigger};
use obr_server::client::{Client, NetReplica};
use obr_server::proto::{read_frame, write_frame, ErrorCode, Request, Response, VERSION};
use obr_server::server::{Server, ServerConfig};
use obr_storage::Lsn;

struct Rig {
    _tmp: tempdir::TempDir,
    db: Arc<Database>,
    server: Option<Server>,
    addr: String,
}

/// Tiny vendored tempdir (no external deps in this workspace).
mod tempdir {
    use obr_sync::atomic::{AtomicU64, Ordering};
    use std::path::{Path, PathBuf};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> TempDir {
            // protocol: relaxed a unique-name counter; no ordering needed.
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("obr-loopback-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn rig_with(tag: &str, cfg: EngineConfig) -> Rig {
    let tmp = tempdir::TempDir::new(tag);
    let db = Database::create_durable_with_config(
        tmp.path(),
        2048,
        2048,
        SidePointerMode::TwoWay,
        cfg.clone(),
    )
    .unwrap();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::from_engine("127.0.0.1:0", &cfg),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    Rig {
        _tmp: tmp,
        db,
        server: Some(server),
        addr,
    }
}

fn rig(tag: &str) -> Rig {
    rig_with(
        tag,
        EngineConfig {
            wal_segment_bytes: 16 << 10, // frequent seals → shipping exercised
            ..EngineConfig::default()
        },
    )
}

#[test]
fn point_ops_round_trip_over_the_wire() {
    let mut r = rig("point");
    let mut c = Client::connect(&r.addr).unwrap();
    c.ping().unwrap();
    assert_eq!(c.get(1).unwrap(), None);
    c.put(1, b"one").unwrap();
    assert_eq!(c.get(1).unwrap().as_deref(), Some(b"one".as_slice()));
    c.put(1, b"one-v2").unwrap(); // upsert outside a transaction
    assert_eq!(c.get(1).unwrap().as_deref(), Some(b"one-v2".as_slice()));
    assert_eq!(c.delete(1).unwrap(), b"one-v2");
    let err = c.delete(1).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::KeyNotFound));
    for k in 0..50u64 {
        c.put(k * 2, &k.to_le_bytes()).unwrap();
    }
    let (rows, truncated) = c.scan(10, 30, 100).unwrap();
    assert_eq!(
        rows.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        (5..=15).map(|k| k * 2).collect::<Vec<_>>()
    );
    assert!(!truncated);
    let (rows, truncated) = c.scan(0, 98, 5).unwrap();
    assert_eq!(rows.len(), 5);
    assert!(truncated, "the row cap must be reported");
    c.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(obr_check::check_database(&r.db).is_clean());
}

#[test]
fn transaction_lifecycle_and_state_errors() {
    let mut r = rig("txn");
    let mut c = Client::connect(&r.addr).unwrap();
    // State errors are typed.
    assert_eq!(c.commit().unwrap_err().code(), Some(ErrorCode::TxnState));
    assert_eq!(c.abort().unwrap_err().code(), Some(ErrorCode::TxnState));
    c.begin().unwrap();
    assert_eq!(c.begin().unwrap_err().code(), Some(ErrorCode::TxnState));
    // Transactional writes are invisible to other sessions until commit.
    c.put(7, b"staged").unwrap();
    let mut other = Client::connect(&r.addr).unwrap();
    // (A read of any key on the staged leaf would block on the writer's
    // IX page lock — strict 2PL — so probe liveness with PING instead.)
    other.ping().unwrap();
    c.commit().unwrap();
    assert_eq!(other.get(7).unwrap().as_deref(), Some(b"staged".as_slice()));
    // Abort rolls back.
    c.begin().unwrap();
    c.put(9, b"doomed").unwrap();
    c.abort().unwrap();
    assert_eq!(c.get(9).unwrap(), None);
    // Transactional PUT is a strict insert.
    c.begin().unwrap();
    let err = c.put(7, b"dup").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::KeyExists));
    c.abort().unwrap();
    // A dropped connection aborts its open transaction (locks released).
    c.begin().unwrap();
    c.put(11, b"leaked").unwrap();
    drop(c);
    // The other session can now write the key the dropped txn held.
    let mut tries = 0;
    loop {
        match other.put(11, b"winner") {
            Ok(()) => break,
            Err(e) if tries < 100 && e.code() == Some(ErrorCode::Timeout) => tries += 1,
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(
        other.get(11).unwrap().as_deref(),
        Some(b"winner".as_slice())
    );
    other.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(obr_check::check_database(&r.db).is_clean());
}

#[test]
fn concurrent_clients_under_live_reorg_daemon_stay_consistent() {
    let mut r = rig("reorg");
    // Seed a tree, sparsify it, and let the daemon heal it while clients
    // keep hammering the frontend.
    {
        let mut c = Client::connect(&r.addr).unwrap();
        for k in 0..600u64 {
            c.put(k, &[0x42; 100]).unwrap();
        }
        for k in 0..600u64 {
            if k % 4 != 0 {
                c.delete(k).unwrap();
            }
        }
        c.bye().unwrap();
    }
    let daemon = ReorgDaemon::spawn(
        Arc::clone(&r.db),
        ReorgConfig::default(),
        ReorgTrigger::default(),
        Duration::from_millis(20),
    );
    let addr = r.addr.clone();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let addr = addr.clone();
            s.spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                for i in 0..150u64 {
                    let k = 10_000 + t * 1000 + i;
                    retry_busy(|| c.put(k, b"live"));
                    retry_busy(|| c.get(k).map(|_| ()));
                    retry_busy(|| c.scan(0, 600, 64).map(|_| ()));
                }
                c.bye().unwrap();
            });
        }
    });
    let decisions = daemon.stop().unwrap();
    assert!(
        !decisions.is_empty(),
        "the sparsified tree must have triggered the daemon"
    );
    // Every live key written during the reorganization is present.
    let mut c = Client::connect(&r.addr).unwrap();
    for t in 0..4u64 {
        for i in 0..150u64 {
            let k = 10_000 + t * 1000 + i;
            assert!(c.get(k).unwrap().is_some(), "key {k} lost under reorg");
        }
    }
    c.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(
        obr_check::check_database(&r.db).is_clean(),
        "post-run fsck must be clean"
    );
}

fn retry_busy<T>(mut f: impl FnMut() -> Result<T, obr_server::client::ClientError>) {
    for attempt in 0..1000 {
        match f() {
            Ok(_) => return,
            Err(e)
                if matches!(
                    e.code(),
                    Some(ErrorCode::Busy | ErrorCode::Deadlock | ErrorCode::Timeout)
                ) =>
            {
                std::thread::sleep(Duration::from_micros(100 * (attempt + 1)));
            }
            Err(e) => panic!("{e}"),
        }
    }
    panic!("still busy after 1000 attempts");
}

#[test]
fn admission_shed_answers_busy_not_hang() {
    // One session slot, zero request slots: deterministic shedding.
    let mut r = rig_with(
        "shed",
        EngineConfig {
            wal_segment_bytes: 16 << 10,
            max_sessions: 1,
            admission_queue: 0,
            ..EngineConfig::default()
        },
    );
    let mut first = Client::connect(&r.addr).unwrap();
    // Session slot exhausted: the second HELLO is answered BUSY, fast.
    let second = Client::connect(&r.addr);
    let err = second.err().expect("second session must be shed");
    assert!(err.is_busy(), "got {err}");
    // Zero request slots: every data request is shed with BUSY — but the
    // connection survives and control frames still work.
    let err = first.get(1).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Busy));
    first.ping().unwrap();
    let err = first.put(1, b"x").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Busy));
    // Metrics observed the sheds.
    let snap = r.db.metrics_snapshot().unwrap();
    assert!(snap.counter("server_sessions_shed") >= 1);
    assert!(snap.counter("server_requests_shed") >= 2);
    first.bye().unwrap();
    // The freed slot admits a new session (the permit is released just
    // after the BYE answer, so allow a brief race window).
    let mut attempt = 0;
    let third = loop {
        match Client::connect(&r.addr) {
            Ok(c) => break c,
            Err(e) if e.is_busy() && attempt < 200 => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("{e}"),
        }
    };
    third.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
}

#[test]
fn malformed_frames_get_typed_errors_not_hangs() {
    let mut r = rig("malformed");

    // An oversize length prefix is rejected at the framing layer.
    let mut s = TcpStream::connect(&r.addr).unwrap();
    s.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    s.flush().unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    // ...and the connection is closed after.
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0);

    // A zero-length frame is malformed.
    let mut s = TcpStream::connect(&r.addr).unwrap();
    s.write_all(&0u32.to_be_bytes()).unwrap();
    s.flush().unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // An unknown opcode as the first frame is rejected (must be HELLO).
    let mut s = TcpStream::connect(&r.addr).unwrap();
    write_frame(&mut s, &[0x7f, 1, 2, 3]).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // Wrong HELLO version gets the typed VERSION error.
    let mut s = TcpStream::connect(&r.addr).unwrap();
    write_frame(&mut s, &Request::Hello { version: 0xFFFF }.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::Version,
            ..
        }
    ));

    // A truncated body (GET with a short key) after a good handshake.
    let mut s = TcpStream::connect(&r.addr).unwrap();
    write_frame(&mut s, &Request::Hello { version: VERSION }.encode()).unwrap();
    let hello = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(hello, Response::HelloOk { .. }));
    write_frame(&mut s, &[0x10, 0, 0, 0]).unwrap(); // GET needs 8 key bytes
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // Trailing bytes after a valid body are rejected too.
    let mut s = TcpStream::connect(&r.addr).unwrap();
    write_frame(&mut s, &Request::Hello { version: VERSION }.encode()).unwrap();
    let _ = read_frame(&mut s).unwrap();
    let mut payload = Request::Get { key: 3 }.encode();
    payload.push(0xAA);
    write_frame(&mut s, &payload).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // The server survived all of that abuse.
    let mut c = Client::connect(&r.addr).unwrap();
    c.put(1, b"still alive").unwrap();
    c.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(obr_check::check_database(&r.db).is_clean());
}

#[test]
fn segment_shipping_feeds_a_network_replica() {
    let mut r = rig("ship");
    let mut c = Client::connect(&r.addr).unwrap();
    for k in 0..400u64 {
        c.put(k, format!("v{k}").as_bytes()).unwrap();
    }
    // Bootstrap a replica purely over the wire and catch up.
    let replica = NetReplica::bootstrap(&mut c, 2048).unwrap();
    let applied = replica.sync(&mut c).unwrap();
    assert!(applied > 0, "must apply shipped records");
    assert!(replica.replica().applied_lsn() >= Lsn(400));
    for k in (0..400u64).step_by(37) {
        assert_eq!(
            replica.replica().get(k).unwrap().as_deref(),
            Some(format!("v{k}").as_bytes()),
            "replica diverges at key {k}"
        );
    }
    // New primary writes flow through on the next sync round.
    c.put(9_999, b"late").unwrap();
    replica.sync(&mut c).unwrap();
    assert_eq!(
        replica.replica().get(9_999).unwrap().as_deref(),
        Some(b"late".as_slice())
    );
    // Caught up: another sync applies nothing and terminates.
    assert_eq!(replica.sync(&mut c).unwrap(), 0);
    c.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(obr_check::check_database(&r.db).is_clean());
}

#[test]
fn graceful_shutdown_drains_and_checkpoints() {
    let mut r = rig("drain");
    let mut c = Client::connect(&r.addr).unwrap();
    c.put(1, b"before").unwrap();
    let server = r.server.take().unwrap();
    let handle = std::thread::spawn(move || server.shutdown());
    // The draining server answers in-flight/new requests with
    // SHUTTING_DOWN (or the connection just closes once drained).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match c.get(1) {
            Err(e) if e.code() == Some(ErrorCode::ShuttingDown) => break,
            Err(_) => break, // closed — also a valid drain outcome
            Ok(_) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server never started draining"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    handle.join().unwrap().unwrap();
    // New connections are refused outright (listener is gone).
    assert!(Client::connect(&r.addr).is_err());
    // The final checkpoint means a clean reopen needs no redo of our key.
    assert!(obr_check::check_database(&r.db).is_clean());
}

#[test]
fn stats_checkpoint_and_admin_opcodes_work() {
    let mut r = rig("admin");
    let mut c = Client::connect(&r.addr).unwrap();
    for k in 0..100u64 {
        c.put(k, &[7u8; 64]).unwrap();
    }
    let stats = c.stats().unwrap();
    assert!(stats.contains("server_sessions"), "stats: {stats}");
    c.checkpoint().unwrap();
    let info = c.db_info().unwrap();
    assert_eq!(info.pages, 2048);
    assert!(info.durable_lsn >= Lsn(100));
    // Forced reorganization runs the passes even on a healthy tree.
    let (_c1, _c2, _c3) = c.reorg(true).unwrap();
    assert_eq!(
        c.get(50).unwrap().as_deref(),
        Some([7u8; 64].as_slice()),
        "data survives a forced reorg"
    );
    c.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(obr_check::check_database(&r.db).is_clean());
}

#[test]
fn read_only_requests_append_nothing_and_never_force() {
    let mut r = rig_with(
        "readonly",
        EngineConfig {
            wal_segment_bytes: 1024,
            ..EngineConfig::default()
        },
    );
    let mut c = Client::connect(&r.addr).unwrap();
    for k in 0..100u64 {
        c.put(k, &k.to_le_bytes()).unwrap();
    }
    let marks = |db: &Database| {
        let st = db.log().sync_stats();
        (db.log().next_lsn(), st.syncs, st.flush_calls)
    };
    let before = marks(&r.db);
    assert_eq!(
        c.get(5).unwrap().as_deref(),
        Some(5u64.to_le_bytes().as_slice())
    );
    assert_eq!(c.scan(10, 19, 0).unwrap().0.len(), 10);
    c.begin().unwrap();
    assert!(c.get(6).unwrap().is_some());
    c.commit().unwrap();
    c.begin().unwrap();
    assert!(c.get(7).unwrap().is_some());
    c.abort().unwrap();
    assert_eq!(
        marks(&r.db),
        before,
        "(end LSN, fsyncs, flush calls) moved for GET, SCAN and a read-only transaction"
    );

    // An idle read-only transaction does not hold back log truncation.
    c.begin().unwrap();
    assert!(c.get(8).unwrap().is_some());
    let began_at = r.db.log().next_lsn();
    let mut w = Client::connect(&r.addr).unwrap();
    for k in 1000..1200u64 {
        w.put(k, &k.to_le_bytes()).unwrap();
    }
    r.db.truncate_log().unwrap();
    assert!(
        r.db.log().first_lsn() > began_at,
        "an idle wire BEGIN pinned the log: first LSN {} vs {began_at}",
        r.db.log().first_lsn()
    );
    c.commit().unwrap();
    c.bye().unwrap();
    w.bye().unwrap();
    r.server.take().unwrap().shutdown().unwrap();
    assert!(obr_check::check_database(&r.db).is_clean());
}
