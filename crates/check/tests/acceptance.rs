//! End-to-end acceptance tests for the checkers: a healthy database passes
//! every check, and seeded corruption (flipped sibling pointer, reordered
//! key, torn or spliced log) is caught with a finding naming the damaged
//! page or LSN.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_check::{fsck_file, lint_wal_dir, FsckOptions, WalLintOptions};
use obr_core::{Database, ReorgConfig, Reorganizer};
use obr_storage::{InMemoryDisk, PageType, PAGE_SIZE};
use obr_txn::Session;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("obr-check-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Build a durable database, load it, punch deletion holes, reorganize,
/// flush, and drop it — leaving `pages.db` and the `wal/` segments behind.
fn build_reorganized_db(dir: &Path) {
    let db = Database::create_durable(dir, 2048, 512, SidePointerMode::TwoWay).unwrap();
    let session = Session::new(Arc::clone(&db));
    for k in 0..600u64 {
        session.insert(k, &[0xab; 24]).unwrap();
    }
    // Delete most of each neighbourhood so Pass 1 has sparseness to harvest.
    for k in 0..600u64 {
        if k % 4 != 0 {
            session.delete(k).unwrap();
        }
    }
    let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    reorg.run().unwrap();
    db.checkpoint().unwrap();
    db.pool().flush_all().unwrap();
}

#[test]
fn healthy_database_passes_all_checks() {
    let scratch = Scratch::new("healthy");
    build_reorganized_db(scratch.path());

    let fsck = fsck_file(&scratch.path().join("pages.db"), &FsckOptions::default()).unwrap();
    assert!(fsck.report.is_clean(), "{}", fsck.report);
    assert!(fsck.stats.leaf_pages > 0, "expected a populated tree");

    let wal = lint_wal_dir(&scratch.path().join("wal"), &WalLintOptions::default()).unwrap();
    assert!(wal.is_clean(), "{wal}");
}

#[test]
fn live_database_check_is_clean() {
    let disk = Arc::new(InMemoryDisk::new(2048));
    let db = Database::create(disk, 512, SidePointerMode::TwoWay).unwrap();
    let session = Session::new(Arc::clone(&db));
    for k in 0..400u64 {
        session.insert(k, &[0x5a; 16]).unwrap();
    }
    for k in 0..400u64 {
        if k % 3 != 0 {
            session.delete(k).unwrap();
        }
    }
    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
        .run()
        .unwrap();
    let report = obr_check::check_database(&db);
    assert!(report.is_clean(), "{report}");
}

/// Find the page indices of all leaf pages in a raw page file.
fn leaf_pages(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len() / PAGE_SIZE)
        .filter(|&i| {
            let page: &[u8; PAGE_SIZE] = bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
                .try_into()
                .unwrap();
            let p = obr_storage::Page::from_bytes(page);
            p.page_type() == Some(PageType::Leaf) && p.slot_count() > 0
        })
        .collect()
}

#[test]
fn flipped_sibling_pointer_is_caught_in_the_file() {
    let scratch = Scratch::new("sibling");
    build_reorganized_db(scratch.path());
    let pages_db = scratch.path().join("pages.db");
    let mut bytes = fs::read(&pages_db).unwrap();

    let leaves = leaf_pages(&bytes);
    assert!(leaves.len() >= 2, "need two leaves to corrupt a chain");
    // The right-sibling field lives in the page header; point the first
    // leaf's right sibling at itself.
    let victim = leaves[0];
    let base = victim * PAGE_SIZE;
    let page_bytes: &[u8; PAGE_SIZE] = bytes[base..base + PAGE_SIZE].try_into().unwrap();
    let mut page = obr_storage::Page::from_bytes(page_bytes);
    page.set_right_sibling(obr_storage::PageId(victim as u32));
    bytes[base..base + PAGE_SIZE].copy_from_slice(page.bytes());
    fs::write(&pages_db, &bytes).unwrap();

    let fsck = fsck_file(&pages_db, &FsckOptions::default()).unwrap();
    assert!(!fsck.report.is_clean(), "corruption went unnoticed");
    assert!(
        fsck.report
            .findings
            .iter()
            .any(|f| f.page == Some(obr_storage::PageId(victim as u32))
                || f.detail.contains(&format!("{victim}"))),
        "no finding names page {victim}: {}",
        fsck.report
    );
}

#[test]
fn out_of_order_key_is_caught_in_the_file() {
    let scratch = Scratch::new("keyorder");
    build_reorganized_db(scratch.path());
    let pages_db = scratch.path().join("pages.db");
    let mut bytes = fs::read(&pages_db).unwrap();

    let leaves = leaf_pages(&bytes);
    let victim = *leaves
        .iter()
        .find(|&&i| {
            let page: &[u8; PAGE_SIZE] = bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
                .try_into()
                .unwrap();
            obr_storage::Page::from_bytes(page).slot_count() >= 2
        })
        .expect("need a leaf with two records");
    // Leaf records are laid out [key: u64 LE][len: u32][value] back to
    // back from the body start; overwrite the first key with u64::MAX so
    // it sorts after every successor.
    let body = victim * PAGE_SIZE + obr_storage::HEADER_SIZE;
    bytes[body..body + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    fs::write(&pages_db, &bytes).unwrap();

    let fsck = fsck_file(&pages_db, &FsckOptions::default()).unwrap();
    assert!(!fsck.report.is_clean(), "corruption went unnoticed");
    assert!(
        fsck.report
            .findings
            .iter()
            .any(|f| f.page == Some(obr_storage::PageId(victim as u32))),
        "no finding names page {victim}: {}",
        fsck.report
    );
}

/// The active (highest-first-LSN) segment of a segmented WAL directory.
fn active_segment(dir: &Path) -> PathBuf {
    obr_wal::segment::list_segments(&dir.join("wal"))
        .unwrap()
        .pop()
        .expect("the database leaves at least one segment")
        .1
}

/// Split a serialized log into `[len][frame]` chunks (offset, frame bytes).
fn frames(bytes: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + 4 + len > bytes.len() {
            break;
        }
        out.push((off, bytes[off..off + 4 + len].to_vec()));
        off += 4 + len;
    }
    out
}

#[test]
fn truncated_wal_is_caught_naming_the_tear() {
    let scratch = Scratch::new("torn");
    build_reorganized_db(scratch.path());
    let seg = active_segment(scratch.path());
    let first_lsn =
        obr_wal::segment::parse_segment_name(seg.file_name().unwrap().to_str().unwrap()).unwrap();
    let bytes = fs::read(&seg).unwrap();
    let parsed = frames(&bytes);
    assert!(parsed.len() > 2, "log too short to truncate meaningfully");
    // Cut inside the last frame: keep its header plus one payload byte.
    let (last_off, _) = parsed[parsed.len() - 1];
    fs::write(&seg, &bytes[..last_off + 5]).unwrap();

    // Dir mode: the tear is in the active segment, so it lints as a
    // crash-shaped torn frame naming the last intact LSN.
    let last_intact = obr_storage::Lsn(first_lsn.0 + parsed.len() as u64 - 2);
    let report = lint_wal_dir(&scratch.path().join("wal"), &WalLintOptions::default()).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "torn-frame" && f.lsn == Some(last_intact)),
        "no torn-frame finding naming LSN {last_intact}: {report}"
    );
}

#[test]
fn reordered_wal_is_caught_naming_the_lsn() {
    let scratch = Scratch::new("reorder");
    build_reorganized_db(scratch.path());
    let wal_log = active_segment(scratch.path());
    let first_lsn =
        obr_wal::segment::parse_segment_name(wal_log.file_name().unwrap().to_str().unwrap())
            .unwrap();
    let bytes = fs::read(&wal_log).unwrap();
    let parsed = frames(&bytes);

    // Swap two adjacent frames inside a reorganization unit's chain.
    let is_chained = |frame: &[u8]| {
        matches!(
            obr_wal::LogRecord::decode(&frame[4..]),
            Ok(obr_wal::LogRecord::ReorgMove { .. }
                | obr_wal::LogRecord::ReorgModify { .. }
                | obr_wal::LogRecord::ReorgSidePtr { .. })
        )
    };
    let i = (0..parsed.len() - 1)
        .find(|&i| is_chained(&parsed[i].1) && is_chained(&parsed[i + 1].1))
        .expect("reorganization left no adjacent chained records");

    let mut spliced = Vec::with_capacity(bytes.len());
    for (j, (_, frame)) in parsed.iter().enumerate() {
        let src = if j == i {
            &parsed[i + 1].1
        } else if j == i + 1 {
            &parsed[i].1
        } else {
            frame
        };
        spliced.extend_from_slice(src);
    }
    fs::write(&wal_log, &spliced).unwrap();

    let report = lint_wal_dir(&scratch.path().join("wal"), &WalLintOptions::default()).unwrap();
    let lsn = obr_storage::Lsn(first_lsn.0 + i as u64);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "broken-prev-chain" && f.lsn == Some(lsn)),
        "no broken-prev-chain finding naming LSN {lsn}: {report}"
    );
}

/// A truncated log restarts inside a reorganization unit: recycling drops
/// whole segments, so when the segment holding the checkpoint begins after
/// some unit's BEGIN, the reopened log carries that unit's later records
/// but not its BEGIN. Recovery handles this, and the checkers must not
/// report the inherited records as orphans.
#[test]
fn truncated_restart_inside_a_unit_checks_clean() {
    use obr_core::{recover, EngineConfig};
    use obr_wal::LogRecord;

    let scratch = Scratch::new("trunc-restart");
    // Every flush batch seals its segment, so segment boundaries fall
    // wherever the log was forced.
    let cfg = EngineConfig {
        wal_segment_bytes: 1,
        ..EngineConfig::default()
    };
    let db = Database::create_durable_with_config(
        scratch.path(),
        2048,
        512,
        SidePointerMode::TwoWay,
        cfg,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..600u64).map(|k| (k, vec![0xab; 24])).collect();
    db.tree().bulk_load(&records, 0.3, 0.5).unwrap();
    // A reorganization cycle. Its units are appended but not forced, so
    // the checkpoint's flushes cut the log wherever a page LSN ends.
    Reorganizer::new(Arc::clone(&db), ReorgConfig::default())
        .pass1_compact()
        .unwrap();
    db.truncate_log().unwrap();
    db.crash(|_| false).unwrap();
    drop(db);

    let db = Database::open_durable(scratch.path(), 512, SidePointerMode::TwoWay).unwrap();
    recover(&db).unwrap();
    let first = db.log().first_lsn();
    let (_, rec) = &db.log().records_from(first).unwrap()[0];
    assert!(
        rec.is_reorg() && !matches!(rec, LogRecord::ReorgBegin { .. }),
        "the truncated log must start inside a unit, not at {rec:?}"
    );
    let report = obr_check::check_database(&db);
    assert!(report.is_clean(), "{report}");
}
