//! Static analysis and invariant verification for the on-line
//! reorganization system: checks that prove structural and protocol
//! invariants *without running a workload*.
//!
//! The checkers, by invariant family:
//!
//! - [`fsck`] — tree fsck. Walks a page file (or a live buffer pool) and
//!   verifies key ordering within and across leaves, side-pointer chain
//!   consistency (§4.3), parent/child key-range agreement under the
//!   router's clamping semantics, free-space-map agreement, and the
//!   per-base-page fill accounting that Pass 1's sparseness test (§4.1)
//!   depends on.
//! - [`lockcheck`] — lock-protocol model checker. Compares
//!   [`obr_lock::LockMode`] against a declarative transcription of the
//!   paper's Table 1 (§4), verifies the RX *forgone* conflict action and
//!   RS instant duration against a live manager, and proves the
//!   acquisition-order graph of every locking protocol acyclic
//!   (deadlock-freedom among protocol followers).
//! - [`wal_lint`] — WAL linter. Replays a log read-only and flags
//!   careful-writing violations (§5.1), broken unit prev-LSN chains,
//!   units that can neither be completed forward nor were finished
//!   (§5.2), and checkpoint snapshots that reference the future (§5.3).
//! - [`crashcheck`] — exhaustive crash-consistency checker. Runs scripted
//!   workloads against a journaling disk, enumerates *every* crash state
//!   (each WAL record boundary × each point in the careful-writing write
//!   order, plus torn tails), and proves Forward Recovery (§5.1) drives
//!   each one back to a committed, fsck-clean state.
//! - [`lockorder`] — lock-acquisition-order manifest checker. Diffs the
//!   lock-order edges observed by the `obr-race` explorer against the
//!   committed manifest `check/lockorder.toml` and proves the declared
//!   graph acyclic.
//! - [`protocol`] — the source checker. Lexes each workspace file once
//!   ([`lexer`]) into per-function fact summaries ([`facts`]) joined by a
//!   whole-workspace call graph ([`callgraph`]), then proves three rules
//!   on all static engine paths — WAL-before-data (R1), latch discipline
//!   against the vetted manifest (R2), atomic publication pairing (R3) —
//!   and two lexical ones over the whole workspace: every `Relaxed`
//!   ordering justified, and no raw sync primitive bypassing the
//!   `obr-sync` facade.
//!
//! All checkers report through [`Report`]; a clean report has no findings
//! of any severity. The `obr-cli check` subcommand and the repository's CI
//! run them; `debug_assertions` builds additionally run targeted local
//! checks inside SMO and reorganization-unit paths.

pub mod callgraph;
pub mod crashcheck;
pub mod facts;
pub mod fsck;
pub mod lexer;
pub mod lockcheck;
pub mod lockorder;
pub mod protocol;
pub mod report;
pub mod wal_lint;

pub use crashcheck::{run_crash_check, CrashCheckOptions, CrashCheckOutcome, CrashCheckStats};
pub use fsck::{
    fsck_db, fsck_file, fsck_source, BaseFill, FileSource, FsckOptions, FsckResult, FsckStats,
    PageSource, PoolSource,
};
pub use lockcheck::{check_acquisition_order, check_compat_matrix, check_lock_protocol};
pub use lockorder::{
    check_lock_order, check_lock_order_file, load_manifest, parse_manifest, LockOrderManifest,
};
pub use protocol::{
    check_protocol, check_sources, check_whitelist, scan_files, FACADE_EXEMPT, RELAXED_OK,
};
pub use report::{Finding, Report, Severity};
pub use wal_lint::{lint_log, lint_records, lint_wal_dir, WalLintOptions};

use obr_core::Database;

/// Run every checker that applies to a live database: tree fsck over the
/// buffer pool, WAL lint over the attached log (if any), and the
/// lock-protocol model check. Returns the merged report.
pub fn check_database(db: &Database) -> Report {
    let mut report = fsck_db(db, &FsckOptions::default()).report;
    report.merge(lint_log(db.log(), &WalLintOptions::default()));
    report.merge(check_lock_protocol());
    report
}
