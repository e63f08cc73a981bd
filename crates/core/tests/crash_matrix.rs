//! Crash-injection matrix: every unit fail site × both logging strategies ×
//! several flush behaviours, plus swap-unit forward recovery and recovery
//! idempotence. Every scenario must end with the exact pre-reorganization
//! data and a structurally valid tree.

use std::sync::Arc;

use obr_btree::SidePointerMode;
use obr_core::{
    recover, CoreError, Database, FailPoint, FailSite, LogStrategy, PlacementPolicy, ReorgConfig,
    Reorganizer,
};
use obr_storage::{DiskManager, InMemoryDisk, PageId};

fn val(k: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    v.resize(64, 0x77);
    v
}

struct Scenario {
    disk: Arc<InMemoryDisk>,
    db: Arc<Database>,
    expected: Vec<(u64, Vec<u8>)>,
}

fn setup(side: SidePointerMode) -> Scenario {
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(Arc::clone(&disk) as Arc<dyn DiskManager>, 8192, side).unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    db.checkpoint().unwrap();
    let expected = db.tree().collect_all().unwrap();
    Scenario { disk, db, expected }
}

/// Crash with the given flush behaviour, recover on a fresh engine, check
/// the data, and return the recovered database.
fn crash_and_recover(
    sc: &Scenario,
    side: SidePointerMode,
    mut keep: impl FnMut(PageId) -> bool,
) -> Arc<Database> {
    sc.db.crash(&mut keep).unwrap();
    let db2 = Database::reopen(
        Arc::clone(&sc.disk) as Arc<dyn DiskManager>,
        Arc::clone(sc.db.log()),
        8192,
        side,
    )
    .unwrap();
    recover(&db2).unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    db2
}

fn run_site(site: FailSite, nth: u64, strategy: LogStrategy, keep_mod: u64) {
    let side = SidePointerMode::TwoWay;
    let sc = setup(side);
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        log_strategy: strategy,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
        .with_fail_point(FailPoint::new(site, nth));
    match reorg.pass1_compact() {
        Err(CoreError::InjectedCrash(_)) => {}
        other => panic!("expected injected crash at {site:?}, got {other:?}"),
    }
    let mut i = 0u64;
    let db2 = crash_and_recover(&sc, side, |_| {
        i += 1;
        keep_mod != 0 && i.is_multiple_of(keep_mod)
    });
    // The reorganization completes from LK.
    Reorganizer::new(Arc::clone(&db2), cfg)
        .pass1_compact()
        .unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    assert!(db2.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn crash_after_begin_keys_only() {
    run_site(FailSite::AfterUnitBegin, 1, LogStrategy::KeysOnly, 2);
}

#[test]
fn crash_after_first_move_keys_only_nothing_flushed() {
    run_site(FailSite::AfterFirstMove, 0, LogStrategy::KeysOnly, 0);
}

#[test]
fn crash_after_first_move_keys_only_partial_flush() {
    run_site(FailSite::AfterFirstMove, 3, LogStrategy::KeysOnly, 2);
}

#[test]
fn crash_before_modify_keys_only() {
    run_site(FailSite::BeforeModify, 2, LogStrategy::KeysOnly, 3);
}

#[test]
fn crash_before_end_keys_only() {
    run_site(FailSite::BeforeEnd, 1, LogStrategy::KeysOnly, 2);
}

#[test]
fn crash_after_first_move_full_records() {
    run_site(FailSite::AfterFirstMove, 2, LogStrategy::FullRecords, 2);
}

#[test]
fn crash_before_modify_full_records() {
    run_site(FailSite::BeforeModify, 1, LogStrategy::FullRecords, 5);
}

#[test]
fn crash_during_pass2_swap_is_forward_completed() {
    let side = SidePointerMode::TwoWay;
    let sc = setup(side);
    // Random placement maximizes pass-2 work, guaranteeing swap units.
    let cfg = ReorgConfig {
        swap_pass: true,
        shrink_pass: false,
        placement: PlacementPolicy::Random(7),
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone());
    reorg.pass1_compact().unwrap();
    // Crash inside a pass-2 unit (the first BEGIN of pass 2).
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::BeforeEnd, 0));
    match reorg.pass2_swap_move() {
        Err(CoreError::InjectedCrash(_)) => {}
        Ok(()) => return, // no pass-2 work was needed; nothing to test
        other => panic!("unexpected {other:?}"),
    }
    let mut i = 0u64;
    let db2 = crash_and_recover(&sc, side, |_| {
        i += 1;
        i.is_multiple_of(2)
    });
    // Pass 2 completes after recovery.
    let reorg2 = Reorganizer::new(Arc::clone(&db2), cfg);
    reorg2.pass2_swap_move().unwrap();
    db2.tree().validate().unwrap();
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
}

#[test]
fn recovery_is_idempotent() {
    let side = SidePointerMode::TwoWay;
    let sc = setup(side);
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg)
        .with_fail_point(FailPoint::new(FailSite::BeforeModify, 1));
    let _ = reorg.pass1_compact().unwrap_err();
    sc.db.crash(|p| p.0 % 3 == 0).unwrap();
    let db2 = Database::reopen(
        Arc::clone(&sc.disk) as Arc<dyn DiskManager>,
        Arc::clone(sc.db.log()),
        8192,
        side,
    )
    .unwrap();
    let r1 = recover(&db2).unwrap();
    assert_eq!(r1.forward_units_completed, 1);
    assert_eq!(db2.tree().collect_all().unwrap(), sc.expected);
    // A second crash immediately after recovery (nothing new flushed)
    // must recover to the same state: redo + forward recovery are
    // idempotent.
    db2.log().flush_all().unwrap();
    db2.crash(|_| false).unwrap();
    let db3 = Database::reopen(
        Arc::clone(&sc.disk) as Arc<dyn DiskManager>,
        Arc::clone(db2.log()),
        8192,
        side,
    )
    .unwrap();
    let r2 = recover(&db3).unwrap();
    // The unit was already closed by the first recovery's END record.
    assert_eq!(r2.forward_units_completed, 0);
    db3.tree().validate().unwrap();
    assert_eq!(db3.tree().collect_all().unwrap(), sc.expected);
}

#[test]
fn reorg_under_one_way_side_pointers() {
    let side = SidePointerMode::OneWay;
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(Arc::clone(&disk) as Arc<dyn DiskManager>, 8192, side).unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    let expected = db.tree().collect_all().unwrap();
    let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    reorg.run().unwrap();
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
    assert!(db.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn reorg_without_side_pointers() {
    let side = SidePointerMode::None;
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(Arc::clone(&disk) as Arc<dyn DiskManager>, 8192, side).unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.25, 0.9).unwrap();
    let expected = db.tree().collect_all().unwrap();
    let reorg = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    reorg.run().unwrap();
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
}

#[test]
fn double_crash_within_one_unit() {
    // Crash, recover (forward-completes the unit), start reorganizing
    // again, crash again in a later unit, recover again.
    let side = SidePointerMode::TwoWay;
    let sc = setup(side);
    let cfg = ReorgConfig {
        swap_pass: false,
        shrink_pass: false,
        ..ReorgConfig::default()
    };
    let reorg = Reorganizer::new(Arc::clone(&sc.db), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::AfterFirstMove, 1));
    let _ = reorg.pass1_compact().unwrap_err();
    let db2 = crash_and_recover(&sc, side, |p| p.0 % 2 == 0);
    let reorg2 = Reorganizer::new(Arc::clone(&db2), cfg.clone())
        .with_fail_point(FailPoint::new(FailSite::BeforeEnd, 2));
    let _ = reorg2.pass1_compact().unwrap_err();
    db2.crash(|p| p.0 % 2 == 1).unwrap();
    let db3 = Database::reopen(
        Arc::clone(&sc.disk) as Arc<dyn DiskManager>,
        Arc::clone(db2.log()),
        8192,
        side,
    )
    .unwrap();
    recover(&db3).unwrap();
    db3.tree().validate().unwrap();
    assert_eq!(db3.tree().collect_all().unwrap(), sc.expected);
    Reorganizer::new(Arc::clone(&db3), cfg)
        .pass1_compact()
        .unwrap();
    assert_eq!(db3.tree().collect_all().unwrap(), sc.expected);
    assert!(db3.tree().stats().unwrap().avg_leaf_fill > 0.7);
}

#[test]
fn two_region_layout_packs_leaves_perfectly() {
    // §6: with leaves and internal pages in separate disk regions, pass 2
    // never meets an internal page in the leaf region and achieves perfect
    // physical key order.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create_with_regions(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
        512,
    )
    .unwrap();
    // Churn: load, split-heavy inserts, random deletes.
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k * 2, val(k))).collect();
    db.tree().bulk_load(&records, 0.85, 0.9).unwrap();
    for k in 0..2000u64 {
        db.tree()
            .insert(
                obr_wal::TxnId(1),
                obr_storage::Lsn::ZERO,
                k * 2 + 1,
                &val(k),
            )
            .unwrap();
    }
    let mut rng = 0x2222u64;
    for k in 0..4000u64 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if !rng.is_multiple_of(4) {
            let _ = db
                .tree()
                .delete(obr_wal::TxnId(1), obr_storage::Lsn::ZERO, k);
        }
    }
    let expected = db.tree().collect_all().unwrap();
    let reorg = Reorganizer::new(
        Arc::clone(&db),
        ReorgConfig {
            shrink_pass: false,
            ..ReorgConfig::default()
        },
    );
    reorg.pass1_compact().unwrap();
    reorg.pass2_swap_move().unwrap();
    db.tree().validate().unwrap();
    assert_eq!(db.tree().collect_all().unwrap(), expected);
    let stats = db.tree().stats().unwrap();
    assert_eq!(
        stats.leaf_discontinuities(),
        0,
        "regions + pass 2 must yield perfect contiguity: {:?}",
        stats.leaves_in_key_order
    );
    // Every leaf sits in the leaf region; every internal page below it.
    for l in &stats.leaves_in_key_order {
        assert!(l.0 >= 512, "leaf {l} in the internal region");
    }
    assert_eq!(reorg.stats().skipped_placements, 0);
}

/// Start a transaction that is about to write: allocate its id and log its
/// BEGIN, as `Txn`'s first write does.
fn begin_writer(db: &Arc<Database>) -> obr_wal::TxnId {
    let txn = db.new_txn_id();
    db.log_txn_begin(txn);
    txn
}

#[test]
fn log_truncation_respects_the_low_water_mark() {
    use obr_txn_free::run_committed_ops;
    mod obr_txn_free {
        use super::*;
        pub fn run_committed_ops(db: &Arc<Database>, n: u64) {
            for k in 0..n {
                let txn = begin_writer(db);
                let lsn = db
                    .tree()
                    .insert(txn, obr_storage::Lsn::ZERO, 100_000 + k, &val(k))
                    .unwrap();
                db.note_txn_lsn(txn, lsn);
                db.log()
                    .append_force(&obr_wal::LogRecord::TxnCommit { txn })
                    .unwrap();
                db.end_txn(txn);
            }
        }
    }
    let sc = setup(SidePointerMode::TwoWay);
    run_committed_ops(&sc.db, 200);
    let before = sc.db.log().len();
    let dropped = sc.db.truncate_log().unwrap();
    assert!(dropped > 0, "quiescent truncation should drop the prefix");
    assert!(sc.db.log().len() < before);
    // Crash right after truncation: recovery still works from the
    // checkpoint the truncation wrote.
    sc.db.log().flush_all().unwrap();
    sc.db.crash(|_| false).unwrap();
    let db2 = Database::reopen(
        Arc::clone(&sc.disk) as Arc<dyn DiskManager>,
        Arc::clone(sc.db.log()),
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    recover(&db2).unwrap();
    db2.tree().validate().unwrap();
    let mut expected = sc.expected.clone();
    expected.extend((0..200u64).map(|k| (100_000 + k, val(k))));
    assert_eq!(db2.tree().collect_all().unwrap(), expected);
}

#[test]
fn active_transaction_pins_the_low_water_mark() {
    let sc = setup(SidePointerMode::TwoWay);
    let txn = begin_writer(&sc.db);
    let first_lsn = sc
        .db
        .tree()
        .insert(txn, obr_storage::Lsn::ZERO, 999_999, &val(1))
        .unwrap();
    sc.db.note_txn_lsn(txn, first_lsn);
    // Lots of unrelated committed work + a checkpoint cannot advance the
    // mark past the open transaction's BEGIN.
    for k in 0..50u64 {
        let t2 = begin_writer(&sc.db);
        let l = sc
            .db
            .tree()
            .insert(t2, obr_storage::Lsn::ZERO, 200_000 + k, &val(k))
            .unwrap();
        sc.db.note_txn_lsn(t2, l);
        sc.db
            .log()
            .append_force(&obr_wal::LogRecord::TxnCommit { txn: t2 })
            .unwrap();
        sc.db.end_txn(t2);
    }
    sc.db.checkpoint().unwrap();
    // The open transaction's BEGIN precedes its first insert; the mark may
    // never pass it while the transaction lives.
    let mark_while_open = sc.db.log_low_water_mark();
    assert!(
        mark_while_open < first_lsn,
        "{mark_while_open} vs {first_lsn}"
    );
    sc.db.end_txn(txn);
    sc.db.checkpoint().unwrap();
    assert!(sc.db.log_low_water_mark() > mark_while_open);
}

#[test]
fn trigger_skips_healthy_trees_and_fixes_sick_ones() {
    use obr_core::ReorgTrigger;
    // A healthy tree: nothing should run.
    let disk = Arc::new(InMemoryDisk::new(8192));
    let db = Database::create(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        8192,
        SidePointerMode::TwoWay,
    )
    .unwrap();
    let records: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, val(k))).collect();
    db.tree().bulk_load(&records, 0.9, 0.9).unwrap();
    let r = Reorganizer::new(Arc::clone(&db), ReorgConfig::default());
    let d = r.run_if_needed(ReorgTrigger::default()).unwrap();
    assert!(!d.compacted && !d.swapped && !d.shrunk, "{d:?}");
    // A sparse tree: compaction (at least) must run.
    let sc = setup(SidePointerMode::TwoWay);
    let r2 = Reorganizer::new(Arc::clone(&sc.db), ReorgConfig::default());
    let d2 = r2.run_if_needed(ReorgTrigger::default()).unwrap();
    assert!(d2.compacted, "{d2:?}");
    sc.db.tree().validate().unwrap();
    assert_eq!(sc.db.tree().collect_all().unwrap(), sc.expected);
    assert!(sc.db.tree().stats().unwrap().avg_leaf_fill > 0.7);
}
