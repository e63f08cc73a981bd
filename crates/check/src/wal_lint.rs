//! WAL linter: read-only structural replay of a log.
//!
//! The linter parses a log without truncating or repairing it (unlike
//! [`obr_wal::LogManager`]'s open path, which trims torn tails) and checks
//! the write-ahead-logging discipline of §5:
//!
//! - **Careful writing** — under [`MovePayload::Keys`] logging, a MOVE may
//!   carry keys only; a [`MovePayload::Records`] payload is flagged unless
//!   it is the compensating reverse of an earlier MOVE in the same unit
//!   (the §5.2 undo path legitimately logs full records, because the
//!   source page has already been emptied).
//! - **Unit chaining** — every chained record (MOVE/MODIFY/SWAP/SIDEPTR)
//!   must name the open unit and carry `prev_lsn` equal to the unit's most
//!   recent LSN (the BEGIN's LSN for the first). A mismatch means the log
//!   was reordered or spliced.
//! - **Completability** — at end of log, an open unit whose chain is
//!   intact is a crash-shaped tail (warning: recovery will finish it); an
//!   open unit with a broken chain can neither be completed forward nor
//!   was it finished (error).
//! - **Checkpoint ordering** — a checkpoint's reorg-table snapshot must
//!   reference LSNs of reorg records that precede the checkpoint, with
//!   `begin_lsn <= recent_lsn < checkpoint LSN`.
//! - **Transaction pairing** — begin/commit/abort bracketing per
//!   transaction ([`TxnId::SYSTEM`] is exempt: system actions are logged
//!   without brackets).
//! - **Pass-3 progress** — `stable_key` never regresses within one build
//!   of the new tree (it resets at the switch).
//!
//! A log whose first record has an LSN above 1 was truncated: recycling
//! drops whole segments, so the log can start inside the reorganization
//! unit (and the transactions) that were open at the cut. Records of that
//! one inherited unit, ends of transactions that began before the cut and
//! checkpoint references below it are not findings; a log that starts at
//! LSN 1 is held to every rule.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::path::Path;

use obr_storage::{Lsn, PageId};
use obr_wal::{LogManager, LogReader, LogRecord, MovePayload, TornReason, TxnId, UnitId};

use crate::report::Report;

/// Name this checker stamps on findings.
const CHECKER: &str = "wal";

/// Linter configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalLintOptions {
    /// Accept full-record MOVE payloads unconditionally (the
    /// `LogStrategy::FullRecords` configuration, where careful writing is
    /// not enforced and E6 measures the logging overhead).
    pub allow_full_records: bool,
}

/// The in-flight reorganization unit while scanning.
struct OpenUnit {
    unit: UnitId,
    /// [`Lsn::ZERO`] for a unit inherited from before a truncated log's
    /// first LSN.
    begin_lsn: Lsn,
    recent_lsn: Lsn,
    chain_broken: bool,
    /// `(org, dest)` of forward MOVEs seen so far, for undo detection.
    moves: Vec<(PageId, PageId)>,
    /// Chained work records (MOVE/MODIFY/SWAP/SIDEPTR) attributed to the
    /// unit, for empty-unit detection at END.
    work: u64,
}

/// Scan state for [`lint_records`].
struct Linter<'a> {
    opts: &'a WalLintOptions,
    report: Report,
    open: Option<OpenUnit>,
    /// LSNs at which reorg-unit records (BEGIN/chained/END) were seen.
    reorg_lsns: BTreeSet<Lsn>,
    /// Active user transactions and the LSN of their begin record.
    txns: BTreeMap<TxnId, Lsn>,
    finished_units: u64,
    checkpoints: u64,
    stable_key: Option<u64>,
    records: u64,
    /// First LSN of a truncated log (`None` when the log starts at LSN 1):
    /// records that refer below it refer to the recycled prefix.
    start: Option<Lsn>,
    /// True until the first unit boundary of a truncated log: a chained
    /// record or END seen while it holds belongs to the unit that was open
    /// at the cut.
    inherit_unit: bool,
}

impl<'a> Linter<'a> {
    fn new(opts: &'a WalLintOptions, first_lsn: Option<Lsn>) -> Linter<'a> {
        let start = first_lsn.filter(|&l| l > Lsn(1));
        Linter {
            opts,
            report: Report::new(),
            open: None,
            reorg_lsns: BTreeSet::new(),
            txns: BTreeMap::new(),
            finished_units: 0,
            checkpoints: 0,
            stable_key: None,
            records: 0,
            start,
            inherit_unit: start.is_some(),
        }
    }

    /// True when `lsn` lies in the recycled prefix of a truncated log.
    fn before_start(&self, lsn: Lsn) -> bool {
        self.start.is_some_and(|start| lsn < start)
    }

    /// Check a chained record's `unit`/`prev_lsn` against the open unit and
    /// advance the chain. Returns `false` when the record is orphaned.
    fn chain(&mut self, lsn: Lsn, unit: UnitId, prev_lsn: Lsn, what: &str) -> bool {
        if self.open.is_none() && self.inherit_unit && self.before_start(prev_lsn) {
            // The unit's earlier records were recycled: pick up its chain.
            self.inherit_unit = false;
            self.open = Some(OpenUnit {
                unit,
                begin_lsn: Lsn::ZERO,
                recent_lsn: prev_lsn,
                chain_broken: false,
                moves: Vec::new(),
                work: 0,
            });
        }
        let Some(open) = self.open.as_mut() else {
            self.report.error(
                CHECKER,
                "orphan-unit-record",
                None,
                Some(lsn),
                format!(
                    "{what} for unit {} with no open unit (missing BEGIN)",
                    unit.0
                ),
            );
            return false;
        };
        if open.unit != unit {
            self.report.error(
                CHECKER,
                "unit-mismatch",
                None,
                Some(lsn),
                format!(
                    "{what} names unit {} but unit {} is open",
                    unit.0, open.unit.0
                ),
            );
            open.chain_broken = true;
            return false;
        }
        if prev_lsn != open.recent_lsn {
            self.report.error(
                CHECKER,
                "broken-prev-chain",
                None,
                Some(lsn),
                format!(
                    "{what} has prev_lsn={} but the unit's most recent LSN is {} \
                     (reordered or spliced log?)",
                    prev_lsn, open.recent_lsn
                ),
            );
            open.chain_broken = true;
        }
        open.recent_lsn = lsn;
        open.work += 1;
        true
    }

    fn record(&mut self, lsn: Lsn, rec: &LogRecord) {
        self.records += 1;
        match rec {
            LogRecord::ReorgBegin { unit, .. } => {
                self.reorg_lsns.insert(lsn);
                self.inherit_unit = false;
                if let Some(open) = &self.open {
                    self.report.error(
                        CHECKER,
                        "overlapping-units",
                        None,
                        Some(lsn),
                        format!(
                            "unit {} begins while unit {} (begun at LSN {}) is \
                             still open — units are serial by construction",
                            unit.0, open.unit.0, open.begin_lsn
                        ),
                    );
                }
                self.open = Some(OpenUnit {
                    unit: *unit,
                    begin_lsn: lsn,
                    recent_lsn: lsn,
                    chain_broken: false,
                    moves: Vec::new(),
                    work: 0,
                });
            }
            LogRecord::ReorgMove {
                unit,
                org,
                dest,
                payload,
                prev_lsn,
            } => {
                self.reorg_lsns.insert(lsn);
                let in_unit = self.chain(lsn, *unit, *prev_lsn, "MOVE");
                if let MovePayload::Records(_) = payload {
                    // A full-record payload is only legal as the §5.2
                    // compensating move, which reverses an earlier
                    // (org, dest) pair of the same unit (unknowable for an
                    // inherited unit, whose forward MOVEs were recycled).
                    let is_undo = in_unit
                        && self.open.as_ref().is_some_and(|o| {
                            o.begin_lsn == Lsn::ZERO || o.moves.contains(&(*dest, *org))
                        });
                    if !is_undo && !self.opts.allow_full_records {
                        self.report.error(
                            CHECKER,
                            "careful-writing-violation",
                            Some(*org),
                            Some(lsn),
                            format!(
                                "MOVE {org} -> {dest} logs full records; under \
                                 careful writing a forward MOVE carries keys only"
                            ),
                        );
                    }
                }
                if in_unit {
                    if let Some(open) = self.open.as_mut() {
                        open.moves.push((*org, *dest));
                    }
                }
            }
            LogRecord::ReorgSwap { unit, prev_lsn, .. } => {
                self.reorg_lsns.insert(lsn);
                self.chain(lsn, *unit, *prev_lsn, "SWAP");
            }
            LogRecord::ReorgModify { unit, prev_lsn, .. } => {
                self.reorg_lsns.insert(lsn);
                self.chain(lsn, *unit, *prev_lsn, "MODIFY");
            }
            LogRecord::ReorgSidePtr { unit, prev_lsn, .. } => {
                self.reorg_lsns.insert(lsn);
                self.chain(lsn, *unit, *prev_lsn, "SIDEPTR");
            }
            LogRecord::ReorgEnd { unit, largest_key } => {
                self.reorg_lsns.insert(lsn);
                let inherited = std::mem::take(&mut self.inherit_unit);
                match self.open.take() {
                    // Everything but the END was recycled.
                    None if inherited => self.finished_units += 1,
                    None => self.report.error(
                        CHECKER,
                        "orphan-end",
                        None,
                        Some(lsn),
                        format!("END for unit {} with no open unit", unit.0),
                    ),
                    Some(open) if open.unit != *unit => {
                        self.report.error(
                            CHECKER,
                            "unit-mismatch",
                            None,
                            Some(lsn),
                            format!("END names unit {} but unit {} is open", unit.0, open.unit.0),
                        );
                    }
                    Some(open) => {
                        // A unit abandoned before its first MOVE ENDs with
                        // largest key 0, which cannot move LK: a no-op
                        // close. An empty unit that advances LK did no
                        // work but claims progress. Recovery legitimately
                        // closes a unit that had logged no work after a
                        // crash right past BEGIN, so it is suspicious but
                        // not fatal.
                        if open.work == 0 && *largest_key != 0 {
                            self.report.warning(
                                CHECKER,
                                "empty-unit",
                                None,
                                Some(lsn),
                                format!(
                                    "unit {} (begun at LSN {}) ends with no \
                                     MOVE/MODIFY/SWAP/SIDEPTR records but \
                                     largest key {largest_key}",
                                    open.unit.0, open.begin_lsn
                                ),
                            );
                        }
                        self.finished_units += 1;
                    }
                }
            }
            LogRecord::Checkpoint { data } => {
                self.checkpoints += 1;
                let snap = &data.reorg;
                if let Some(recent) = snap.recent_lsn.filter(|&l| !self.before_start(l)) {
                    if recent >= lsn {
                        self.report.error(
                            CHECKER,
                            "checkpoint-order",
                            None,
                            Some(lsn),
                            format!(
                                "checkpoint snapshot references recent_lsn={recent} \
                                 at or after the checkpoint itself"
                            ),
                        );
                    } else if !self.reorg_lsns.contains(&recent) {
                        self.report.error(
                            CHECKER,
                            "checkpoint-dangling-lsn",
                            None,
                            Some(lsn),
                            format!(
                                "checkpoint snapshot references recent_lsn={recent}, \
                                 which is not the LSN of any reorg record seen so far"
                            ),
                        );
                    }
                }
                if let Some(begin) = snap.begin_lsn.filter(|&l| !self.before_start(l)) {
                    if begin >= lsn || !self.reorg_lsns.contains(&begin) {
                        self.report.error(
                            CHECKER,
                            "checkpoint-dangling-lsn",
                            None,
                            Some(lsn),
                            format!(
                                "checkpoint snapshot references begin_lsn={begin}, \
                                 which is not a preceding reorg-record LSN"
                            ),
                        );
                    }
                    if let Some(recent) = snap.recent_lsn {
                        if begin > recent {
                            self.report.error(
                                CHECKER,
                                "checkpoint-order",
                                None,
                                Some(lsn),
                                format!(
                                    "checkpoint snapshot has begin_lsn={begin} > \
                                     recent_lsn={recent}"
                                ),
                            );
                        }
                    }
                }
            }
            LogRecord::Pass3Stable { state } => {
                if let Some(prev) = self.stable_key {
                    if state.stable_key < prev {
                        self.report.error(
                            CHECKER,
                            "stable-key-regression",
                            None,
                            Some(lsn),
                            format!(
                                "Pass-3 stable key regressed from {prev} to {}",
                                state.stable_key
                            ),
                        );
                    }
                }
                self.stable_key = Some(state.stable_key);
            }
            LogRecord::Pass3Switch { .. } => {
                // A switch completes the build; a later Pass 3 starts over.
                self.stable_key = None;
            }
            LogRecord::TxnBegin { txn } => {
                if *txn != TxnId::SYSTEM && self.txns.insert(*txn, lsn).is_some() {
                    self.report.error(
                        CHECKER,
                        "txn-double-begin",
                        None,
                        Some(lsn),
                        format!("transaction {} begins twice", txn.0),
                    );
                }
            }
            LogRecord::TxnCommit { txn } | LogRecord::TxnAbort { txn } => {
                // In a truncated log the BEGIN may have been recycled.
                if *txn != TxnId::SYSTEM && self.txns.remove(txn).is_none() && self.start.is_none()
                {
                    self.report.error(
                        CHECKER,
                        "txn-unpaired-end",
                        None,
                        Some(lsn),
                        format!("transaction {} ends without a begin", txn.0),
                    );
                }
            }
            LogRecord::TxnInsert { .. }
            | LogRecord::TxnDelete { .. }
            | LogRecord::TxnUpdate { .. }
            | LogRecord::Clr { .. }
            | LogRecord::Smo { .. } => {}
        }
    }

    fn finish(mut self, last_lsn: Option<Lsn>) -> Report {
        if let Some(open) = self.open.take() {
            if open.chain_broken {
                self.report.error(
                    CHECKER,
                    "unit-uncompletable",
                    None,
                    Some(open.begin_lsn),
                    format!(
                        "unit {} (begun at LSN {}) was never finished and its \
                         chain is broken: it can neither be completed forward \
                         nor rolled back from the log",
                        open.unit.0, open.begin_lsn
                    ),
                );
            } else {
                self.report.warning(
                    CHECKER,
                    "unit-open-at-eof",
                    None,
                    Some(open.recent_lsn),
                    format!(
                        "unit {} (begun at LSN {}) is open at end of log — \
                         crash-shaped tail; recovery will undo it",
                        open.unit.0, open.begin_lsn
                    ),
                );
            }
        }
        self.report.note(format!(
            "scanned {} records (last LSN {}), {} finished reorg units, {} checkpoints",
            self.records,
            last_lsn.map_or_else(|| "-".into(), |l| l.to_string()),
            self.finished_units,
            self.checkpoints,
        ));
        self.report
    }
}

/// Lint an already-decoded record sequence.
pub fn lint_records(records: &[(Lsn, LogRecord)], opts: &WalLintOptions) -> Report {
    let mut linter = Linter::new(opts, records.first().map(|(lsn, _)| *lsn));
    let mut last: Option<Lsn> = None;
    for (lsn, rec) in records {
        if let Some(prev) = last {
            if *lsn <= prev {
                linter.report.error(
                    CHECKER,
                    "lsn-not-monotonic",
                    None,
                    Some(*lsn),
                    format!("LSN {lsn} follows LSN {prev}"),
                );
            }
        }
        last = Some(*lsn);
        linter.record(*lsn, rec);
    }
    linter.finish(last)
}

/// Lint a live [`LogManager`]'s full record history.
pub fn lint_log(log: &LogManager, opts: &WalLintOptions) -> Report {
    match log.records_from(Lsn(1)) {
        Ok(records) => lint_records(&records, opts),
        Err(e) => {
            let mut report = Report::new();
            report.error(
                CHECKER,
                "log-unreadable",
                None,
                None,
                format!("cannot read log records: {e}"),
            );
            report
        }
    }
}

/// Lint a WAL directory (`wal-<first-LSN>.seg` files) without repairing
/// it.
///
/// Unlike [`LogManager`]'s open path this never truncates a torn tail: the
/// tail is reported as a finding naming the byte offset and the last intact
/// LSN before it. Frame parsing is [`LogReader::scan`], the same parser the
/// open path uses, so the linter and recovery agree on where the clean
/// prefix ends. Segment-level structure is checked first — contiguous
/// first-LSN naming, no empty or torn **sealed** segments (only the active
/// segment, the one with the highest first LSN, may legitimately end
/// mid-frame after a crash) — then the concatenated record stream is
/// linted with [`lint_records`].
pub fn lint_wal_dir(dir: &Path, opts: &WalLintOptions) -> std::io::Result<Report> {
    let segments = obr_wal::segment::list_segments(dir)?;
    let mut report = Report::new();
    if segments.is_empty() {
        report.error(
            CHECKER,
            "no-segments",
            None,
            None,
            format!("{} contains no WAL segments", dir.display()),
        );
        return Ok(report);
    }
    let mut records: Vec<(Lsn, LogRecord)> = Vec::new();
    let mut expect = segments[0].0;
    let last_idx = segments.len() - 1;
    for (i, (first_lsn, path)) in segments.iter().enumerate() {
        let name = path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        if *first_lsn != expect {
            report.error(
                CHECKER,
                "segment-gap",
                None,
                Some(expect),
                format!(
                    "segment {name} starts at LSN {first_lsn} but LSN {expect} \
                     was expected (missing or misnamed segment)"
                ),
            );
            // Linting resynchronizes to where the file actually starts
            // (`expect` is recomputed from `first_lsn` below).
        }
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        let scan = LogReader::scan(&bytes);
        let sealed = i != last_idx;
        if let Some(tail) = scan.torn {
            let last = Lsn(first_lsn.0 + scan.records.len() as u64 - 1);
            if sealed {
                // A sealed segment was complete when the next one was
                // created; a tear here is corruption, not a crash shape.
                report.error(
                    CHECKER,
                    "torn-sealed-segment",
                    None,
                    Some(last),
                    format!(
                        "sealed segment {name} is torn at byte offset {}; \
                         last intact record is LSN {last}",
                        tail.offset
                    ),
                );
            } else {
                let (code, what) = match tail.reason {
                    TornReason::TruncatedLength => {
                        ("torn-frame", "trailing bytes too short for a frame header")
                    }
                    TornReason::TruncatedFrame => ("torn-frame", "frame cut short"),
                    TornReason::Undecodable => ("undecodable-frame", "frame bytes do not decode"),
                };
                report.error(
                    CHECKER,
                    code,
                    None,
                    Some(last),
                    format!(
                        "{what} at byte offset {} of active segment {name}; \
                         last intact record is LSN {last}",
                        tail.offset
                    ),
                );
            }
        }
        if sealed && scan.records.is_empty() {
            report.error(
                CHECKER,
                "empty-sealed-segment",
                None,
                Some(*first_lsn),
                format!("sealed segment {name} holds no complete records"),
            );
        }
        let parsed = scan.records.len() as u64;
        for (j, rec) in scan.records.into_iter().enumerate() {
            records.push((Lsn(first_lsn.0 + j as u64), rec));
        }
        // The next segment must start one past this file's last record.
        expect = Lsn(first_lsn.0 + parsed);
    }
    report.note(format!(
        "{} segments, active segment {}",
        segments.len(),
        segments[last_idx]
            .1
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
    ));
    report.merge(lint_records(&records, opts));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obr_wal::ReorgKind;

    fn begin(unit: u64) -> LogRecord {
        LogRecord::ReorgBegin {
            unit: UnitId(unit),
            kind: ReorgKind::Compact,
            base_pages: vec![PageId(1)],
            leaf_pages: vec![PageId(10), PageId(11)],
        }
    }

    fn mv(unit: u64, org: u32, dest: u32, prev: u64) -> LogRecord {
        LogRecord::ReorgMove {
            unit: UnitId(unit),
            org: PageId(org),
            dest: PageId(dest),
            payload: MovePayload::Keys(vec![1, 2, 3]),
            prev_lsn: Lsn(prev),
        }
    }

    fn end(unit: u64) -> LogRecord {
        LogRecord::ReorgEnd {
            unit: UnitId(unit),
            largest_key: 3,
        }
    }

    fn seq(records: Vec<LogRecord>) -> Vec<(Lsn, LogRecord)> {
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| (Lsn(i as u64 + 1), r))
            .collect()
    }

    #[test]
    fn well_formed_unit_is_clean() {
        let r = lint_records(
            &seq(vec![begin(1), mv(1, 10, 20, 1), mv(1, 11, 20, 2), end(1)]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn empty_unit_warns_but_is_not_fatal() {
        // BEGIN immediately followed by END: no MOVE/SIDEPTR in between.
        // Recovery forward-completes such units, so this is a warning.
        let r = lint_records(&seq(vec![begin(1), end(1)]), &WalLintOptions::default());
        assert!(
            r.findings.iter().any(|f| f.code == "empty-unit"),
            "expected an empty-unit warning: {r}"
        );
        assert_eq!(r.error_count(), 0, "{r}");
    }

    #[test]
    fn abandoned_empty_unit_is_clean() {
        // An abandoned unit that never moved a record ENDs with largest
        // key 0: nothing happened, and LK cannot move.
        let r = lint_records(
            &seq(vec![
                begin(1),
                LogRecord::ReorgEnd {
                    unit: UnitId(1),
                    largest_key: 0,
                },
            ]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn reordered_log_breaks_the_chain() {
        // Swap the two MOVEs: the first now claims prev_lsn=2 at LSN 2.
        let r = lint_records(
            &seq(vec![begin(1), mv(1, 11, 20, 2), mv(1, 10, 20, 1), end(1)]),
            &WalLintOptions::default(),
        );
        assert!(
            r.findings.iter().any(|f| f.code == "broken-prev-chain"),
            "{r}"
        );
    }

    #[test]
    fn full_records_forward_move_is_a_violation() {
        let recs = seq(vec![
            begin(1),
            LogRecord::ReorgMove {
                unit: UnitId(1),
                org: PageId(10),
                dest: PageId(20),
                payload: MovePayload::Records(vec![(1, vec![0xaa])]),
                prev_lsn: Lsn(1),
            },
            end(1),
        ]);
        let r = lint_records(&recs, &WalLintOptions::default());
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "careful-writing-violation"),
            "{r}"
        );
        let relaxed = lint_records(
            &recs,
            &WalLintOptions {
                allow_full_records: true,
            },
        );
        assert!(relaxed.is_clean(), "{relaxed}");
    }

    #[test]
    fn compensating_reverse_move_is_legal() {
        // Forward MOVE 10 -> 20 with keys, then the §5.2 undo: a full-record
        // MOVE 20 -> 10, then END with LK untouched.
        let r = lint_records(
            &seq(vec![
                begin(1),
                mv(1, 10, 20, 1),
                LogRecord::ReorgMove {
                    unit: UnitId(1),
                    org: PageId(20),
                    dest: PageId(10),
                    payload: MovePayload::Records(vec![(1, vec![0xaa])]),
                    prev_lsn: Lsn(2),
                },
                end(1),
            ]),
            &WalLintOptions::default(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn open_unit_at_eof_is_crash_shaped() {
        let r = lint_records(
            &seq(vec![begin(1), mv(1, 10, 20, 1)]),
            &WalLintOptions::default(),
        );
        assert!(
            r.findings.iter().any(|f| f.code == "unit-open-at-eof"),
            "{r}"
        );
        assert_eq!(r.error_count(), 0, "{r}");
    }

    #[test]
    fn truncated_log_may_start_inside_a_unit() {
        // Unit 1 began at LSN 10, MOVEd at 11; the log was truncated at 12.
        use obr_wal::{CheckpointData, ReorgTableSnapshot};
        let tail = vec![
            (Lsn(12), mv(1, 11, 20, 11)),
            // Taken while unit 1 was in flight.
            (
                Lsn(13),
                LogRecord::Checkpoint {
                    data: CheckpointData {
                        reorg: ReorgTableSnapshot {
                            lk: None,
                            begin_lsn: Some(Lsn(10)),
                            recent_lsn: Some(Lsn(11)),
                        },
                        active_txns: vec![(TxnId(7), Lsn(9))],
                        pass3: None,
                    },
                },
            ),
            (Lsn(14), end(1)),
            (Lsn(15), LogRecord::TxnCommit { txn: TxnId(7) }),
            (Lsn(16), begin(2)),
            (Lsn(17), mv(2, 10, 20, 16)),
            (Lsn(18), end(2)),
        ];
        let r = lint_records(&tail, &WalLintOptions::default());
        assert!(r.is_clean(), "{r}");
        // Only the END survived the cut.
        let r = lint_records(&[(Lsn(14), end(1))], &WalLintOptions::default());
        assert!(r.is_clean(), "{r}");

        // A log that starts at LSN 1 has no recycled prefix to inherit from.
        let whole: Vec<_> = tail
            .iter()
            .map(|(l, rec)| (Lsn(l.0 - 11), rec.clone()))
            .collect();
        let r = lint_records(&whole, &WalLintOptions::default());
        for code in [
            "orphan-unit-record",
            "checkpoint-dangling-lsn",
            "orphan-end",
            "txn-unpaired-end",
        ] {
            assert!(r.findings.iter().any(|f| f.code == code), "{code}: {r}");
        }

        // Only the unit open at the cut is inherited: a later orphan is
        // still an orphan.
        let mut later = tail.clone();
        later.push((Lsn(19), mv(3, 10, 20, 2)));
        let r = lint_records(&later, &WalLintOptions::default());
        assert!(
            r.findings.iter().any(|f| f.code == "orphan-unit-record"),
            "{r}"
        );
    }

    #[test]
    fn checkpoint_must_reference_seen_lsns() {
        use obr_wal::{CheckpointData, ReorgTableSnapshot};
        // LSN 4 is a TxnBegin, not a reorg record, so a snapshot naming it
        // dangles even though it precedes the checkpoint.
        let r = lint_records(
            &seq(vec![
                begin(1),
                mv(1, 10, 20, 1),
                end(1),
                LogRecord::TxnBegin { txn: TxnId(7) },
                LogRecord::Checkpoint {
                    data: CheckpointData {
                        reorg: ReorgTableSnapshot {
                            lk: Some(3),
                            begin_lsn: None,
                            recent_lsn: Some(Lsn(4)),
                        },
                        active_txns: vec![(TxnId(7), Lsn(4))],
                        pass3: None,
                    },
                },
            ]),
            &WalLintOptions::default(),
        );
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "checkpoint-dangling-lsn"),
            "{r}"
        );
    }
}
