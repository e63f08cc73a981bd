//! The source checker must hold over the live workspace — the same scan
//! `obr-cli check --protocol` and CI run — and, crucially, must still
//! have teeth: sabotaging the real sources (dropping an audit comment or
//! a `Relaxed` note, un-vetting a manifest edge, downgrading a memory
//! ordering, importing a raw lock, whitelisting a missing file) must
//! produce the corresponding finding with a path-level diagnostic.

use obr_check::lockorder::{parse_manifest, LockOrderManifest};
use obr_check::{Finding, Report};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

/// The real workspace sources as owned `(path, text)` pairs.
fn sources() -> Vec<(String, String)> {
    obr_check::scan_files(workspace_root()).expect("workspace scan")
}

fn as_refs(files: &[(String, String)]) -> Vec<(&str, &str)> {
    files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect()
}

/// The committed manifest without the lines starting with `drop`.
fn manifest_without(drop: &str) -> LockOrderManifest {
    let text = std::fs::read_to_string(workspace_root().join("check").join("lockorder.toml"))
        .expect("manifest readable");
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| drop.is_empty() || !l.trim_start().starts_with(drop))
        .collect();
    parse_manifest(&kept.join("\n")).expect("manifest parses")
}

/// Run every rule over `files` with the committed manifest.
fn check(files: &[(String, String)]) -> Report {
    obr_check::check_sources(&as_refs(files), Some(&manifest_without("")))
}

/// The scanned source at `path`, for sabotage.
fn source_mut<'a>(files: &'a mut [(String, String)], path: &str) -> &'a mut String {
    &mut files
        .iter_mut()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("{path} scanned"))
        .1
}

/// The first `code` finding whose detail contains `needle`.
fn finding<'r>(report: &'r Report, code: &str, needle: &str) -> &'r Finding {
    report
        .findings
        .iter()
        .find(|f| f.code == code && f.detail.contains(needle))
        .unwrap_or_else(|| panic!("expected {code} naming {needle}:\n{report}"))
}

#[test]
fn workspace_is_protocol_clean() {
    let report = obr_check::check_protocol(workspace_root()).expect("workspace scan");
    assert!(report.is_clean(), "protocol findings:\n{report}");
    assert!(
        report
            .info
            .iter()
            .any(|n| n.contains("Relaxed sites audited")),
        "the lexical rules ran:\n{report}"
    );
}

/// R1 teeth: deleting the `// protocol: no-wal` audit above recovery's
/// `redo_one` must resurface it as an unlogged mutation path, with the
/// offending call chain in the diagnostic.
#[test]
fn sabotage_dropping_no_wal_audit_is_caught() {
    let mut files = sources();
    let rec = source_mut(&mut files, "crates/core/src/recovery.rs");
    assert!(rec.contains("// protocol: no-wal"), "audit present");
    *rec = rec.replace("// protocol: no-wal", "//");
    let report = check(&files);
    // The finding is reported at the entry point (replica ingest), with
    // the chain running down through redo_one to the leaf primitive.
    let f = finding(&report, "wal-unlogged-path", "redo_one -> ");
    assert!(
        f.detail.contains(".rs:"),
        "diagnostic carries the file: {f:?}"
    );
}

/// R2 teeth: removing the replica-progress edges from the manifest must
/// flag the replica's hold-progress-across-redo nesting as undeclared.
#[test]
fn sabotage_unvetting_manifest_edge_is_caught() {
    let m = manifest_without("\"replica.progress\" = [");
    let report = obr_check::check_sources(&as_refs(&sources()), Some(&m));
    let f = finding(&report, "latch-undeclared-edge", "replica.progress");
    assert!(
        f.detail.contains("replica.rs"),
        "diagnostic names the file the edge is created in: {f:?}"
    );
}

/// R2 teeth for a path-qualified constructor: `db.active_txns` is built
/// with `obr_sync::Mutex::named`, and un-vetting its edge must flag the
/// BEGIN append made under it.
#[test]
fn sabotage_unvetting_active_txns_edge_is_caught() {
    let m = manifest_without("\"db.active_txns\" = [");
    let report = obr_check::check_sources(&as_refs(&sources()), Some(&m));
    let f = finding(&report, "latch-undeclared-edge", "\"db.active_txns\"");
    assert!(
        f.detail.contains("Database::log_txn_begin"),
        "diagnostic names the nesting function: {f:?}"
    );
}

/// R3 teeth: downgrading the B+-tree epoch's seqlock read from Acquire
/// to Relaxed (the PR 6 lost-write shape) must be flagged as a
/// relaxed consume of a release-published field.
#[test]
fn sabotage_relaxed_epoch_read_is_caught() {
    let mut files = sources();
    let tree = source_mut(&mut files, "crates/btree/src/tree.rs");
    let needle = "self.epoch.load(Ordering::Acquire)";
    assert!(tree.contains(needle), "epoch read present");
    *tree = tree.replacen(needle, "self.epoch.load(Ordering::Relaxed)", 1);
    let report = check(&files);
    let f = finding(&report, "atomic-relaxed-consume", "epoch");
    assert!(
        f.detail.contains("tree.rs"),
        "diagnostic names the load site's file: {f:?}"
    );
}

/// Relaxed teeth: stripping the `// protocol: relaxed` notes from a file
/// off the whitelist must flag its Relaxed sites.
#[test]
fn sabotage_dropping_relaxed_note_is_caught() {
    let path = "crates/storage/src/buffer.rs";
    assert!(!obr_check::RELAXED_OK.iter().any(|(p, _)| *p == path));
    let mut files = sources();
    let src = source_mut(&mut files, path);
    assert!(src.contains("// protocol: relaxed"), "notes present");
    *src = src.replace("// protocol: relaxed", "//");
    finding(
        &check(&files),
        "relaxed-unjustified",
        "crates/storage/src/buffer.rs:",
    );
}

/// Facade teeth: a raw `std::sync::Mutex` import in an engine crate is
/// invisible to the model scheduler and must be flagged.
#[test]
fn sabotage_raw_std_mutex_import_is_caught() {
    let mut files = sources();
    source_mut(&mut files, "crates/core/src/db.rs").insert_str(0, "use std::sync::Mutex;\n");
    finding(&check(&files), "facade-bypass", "crates/core/src/db.rs:1:");
}

/// Whitelist teeth: an entry naming a file that is not in the tree is
/// stale.
#[test]
fn sabotage_whitelisting_a_missing_file_is_caught() {
    let mut whitelist = obr_check::RELAXED_OK.to_vec();
    whitelist.push(("crates/core/src/no_such_file.rs", "a counter"));
    let report = obr_check::check_whitelist(&whitelist, &as_refs(&sources()));
    finding(&report, "whitelist-stale", "no_such_file.rs");
    assert_eq!(report.error_count(), 1, "{report}");
}
