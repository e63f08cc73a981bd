//! The source checker: `obr-cli check --protocol`.
//!
//! One walker collects the workspace's `.rs` files, each file is lexed
//! once into [`crate::facts::FileFacts`], and every rule below runs over
//! those facts. Three rules are interprocedural, using the
//! facts/callgraph layers:
//!
//! * **R1 WAL-before-data** (`wal-unlogged-path`): every call path from
//!   an entry point to a page-mutation primitive must pass a function
//!   that performs (directly or through a callee) a WAL append, or be
//!   audited with `// protocol: no-wal <why>`. Primitives are the
//!   `// protocol: page-mutation` annotated mutators (leaf/node views,
//!   `Page::format`); appends are the `// protocol: wal-append`
//!   annotated `LogManager` entry points. The engine's idiom is
//!   mutate-then-append-then-`set_lsn` under the page latch, so the
//!   rule requires an append *on the path*, not strictly before the
//!   mutation token.
//! * **R2 latch discipline** (`latch-undeclared-edge`,
//!   `latch-self-edge`, `latch-unknown-class`): every static
//!   `(held, acquired)` lock-class pair — including pairs created
//!   interprocedurally via callee summaries — must be declared in
//!   `check/lockorder.toml`'s `may_hold_while_acquiring`. Same-class
//!   nesting is an error unless the class is in the `SELF_EDGE_OK` list
//!   (page latches legitimately couple parent→child). This closes the
//!   PR 3 cross-shard rule statically: holding one `pool.shard.frames`
//!   lock while taking another is a self-edge and flagged.
//! * **R3 publication pairing** (`atomic-relaxed-consume`,
//!   `atomic-relaxed-publication`, `atomic-mixed-publication`,
//!   `atomic-unpaired-acquire`): per named atomic field, Release-family
//!   stores must be consumed by Acquire-family loads and vice versa.
//!   A Relaxed load of a field that has Release stores is exactly the
//!   PR 6 lost-write shape. Only pure `load` calls count as consumes:
//!   RMW read-halves always see the latest value in the field's
//!   modification order, and `compare_exchange` failure orderings are
//!   exempt (the retry path re-reads). A site can be audited with
//!   `// protocol: mixed-ordering <why>` on the line above.
//!
//! Three are lexical, and keep the hot paths analyzable by the
//! interleaving explorer:
//!
//! * **`relaxed-unjustified`**: every `Ordering::Relaxed` site sits in a
//!   file of [`RELAXED_OK`] (with a recorded reason) or carries a
//!   `// protocol: relaxed <why>` note on its line or one of the five
//!   above. The note does not exempt a site from R3; only
//!   `mixed-ordering` does.
//! * **`facade-bypass`**: locks and atomics come from the `obr-sync`
//!   facade. A `std::sync` path reaching `atomic`, `Mutex`, `RwLock`,
//!   `Condvar` or `Barrier`, or any `parking_lot` path, creates sync
//!   operations the model scheduler cannot see.
//! * **`whitelist-stale`**, **`whitelist-duplicate`**,
//!   **`whitelist-no-reason`** ([`check_whitelist`]): every
//!   [`RELAXED_OK`] entry names a scanned file, once, with a reason.
//!
//! Comments and string literals are separate tokens, so a pattern quoted
//! in a message, a doc comment or a test fixture never trips a rule.
//!
//! ## Scan scope
//!
//! The walker covers the workspace tree: `target/`, VCS directories and
//! any nested directory whose `Cargo.toml` declares a `[workspace]` of
//! its own (another project) are skipped. Within it each rule has a path
//! scope:
//!
//! * `relaxed-unjustified`: every file.
//! * `facade-bypass`: every file outside [`FACADE_EXEMPT`] and outside
//!   `tests/`, `benches/` and `examples/` directories.
//! * R1–R3: the engine crates only, `crates/{storage,wal,btree,lock,core,
//!   txn,baseline,server}` and the workload layer in `src/`.
//!   Infrastructure is excluded — `crates/{check,race,bench,sync,obs}`,
//!   `shims/`, `src/bin/`, plus `tests/`, `benches/`, `examples/` and
//!   `#[cfg(test)]` modules — so the checker reasons about the engine,
//!   not about its own scaffolding or model-build scenarios.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::callgraph::{FnId, Workspace};
use crate::facts::{extract_file, AnnKind, FileFacts, Op, Seg};
use crate::lockorder::{load_manifest, LockOrderManifest};
use crate::report::Report;

/// Checker name used in findings.
const CHECKER: &str = "protocol";

/// Classes where same-class nesting is a vetted pattern: page latches
/// couple parent→child during descent and splits, always ordered by
/// tree structure, so `pool.frame.data` may be held while acquiring
/// another `pool.frame.data`. Everything else (notably
/// `pool.shard.frames`, the PR 3 rule) must never self-nest.
const SELF_EDGE_OK: &[&str] = &["pool.frame.data"];

/// Files allowed to use `Ordering::Relaxed` without per-site
/// `// protocol: relaxed` notes, with the audit reason recorded. Paths are
/// relative to the workspace root, `/`-separated.
pub const RELAXED_OK: &[(&str, &str)] = &[
    (
        "crates/storage/src/disk.rs",
        "I/O statistics counters; read only by stats snapshots",
    ),
    (
        "crates/lock/src/manager.rs",
        "monotonic ticket allocation and test-harness stop flags",
    ),
    (
        "crates/core/src/sidefile.rs",
        "sequence allocation; the entries mutex is the ordering point",
    ),
    (
        "crates/core/src/daemon.rs",
        "daemon stop flag; shutdown is quiesced by joining the thread",
    ),
    (
        "crates/baseline/src/tandem.rs",
        "baseline stop flag and statistics counters",
    ),
    (
        "crates/txn/src/workload.rs",
        "throughput statistics and harness stop flag",
    ),
    (
        "crates/obs/src/metrics.rs",
        "metrics registry counters are relaxed by design (observability)",
    ),
    (
        "crates/obs/src/trace.rs",
        "trace ring sequence counter; observability only",
    ),
    (
        "crates/bench/src/bin/concurrency.rs",
        "benchmark harness statistics counters and stop flags",
    ),
    (
        "src/workloads.rs",
        "CLI workload-driver statistics counters",
    ),
    (
        "tests/concurrency_stress.rs",
        "stress-harness statistics counters and stop flags",
    ),
];

/// Path prefixes (workspace-relative, `/`-separated) exempt from the
/// facade-bypass rule: the facade and shims themselves, observability
/// (lock-free by design), checkers and harnesses that run outside the
/// modeled scenarios, and test/bench/example code.
pub const FACADE_EXEMPT: &[&str] = &[
    "shims/",
    "crates/sync/",
    "crates/obs/",
    "crates/check/",
    "crates/race/",
    "crates/bench/",
    "src/",
    "tests/",
    "examples/",
];

/// Directories outside R1–R3's engine scope wherever they appear.
const NON_ENGINE_DIRS: &[&str] = &["tests", "benches", "examples", "shims", "bin"];

/// Path prefixes (relative, slash-normalized) outside R1–R3's engine
/// scope.
const NON_ENGINE_PREFIXES: &[&str] = &[
    "crates/check/",
    "crates/race/",
    "crates/bench/",
    "crates/sync/",
    "crates/obs/",
];

/// Collect the workspace's `.rs` files under `root` as `(path, source)`
/// pairs sorted by path, paths relative and `/`-separated. Skips
/// `target/`, VCS directories and nested workspaces.
pub fn scan_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | ".git" | ".github") && !declares_workspace(&path) {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// True when `dir/Cargo.toml` declares a `[workspace]` (or one of its
/// `[workspace.*]` tables): the directory is the root of another project.
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|toml| {
        toml.lines().map(str::trim).any(|line| {
            line == "[workspace]" || line.starts_with("[workspace.") && line.ends_with(']')
        })
    })
}

/// R1–R3 scope: engine sources, not infrastructure or test code.
fn in_engine_scope(path: &str) -> bool {
    let dirs = path.rsplit_once('/').map_or("", |(d, _)| d);
    !dirs.split('/').any(|d| NON_ENGINE_DIRS.contains(&d))
        && !NON_ENGINE_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Facade-rule scope. Integration tests, benches and examples may use
/// real (un-modeled) primitives: they exercise true concurrency, not
/// modeled schedules.
fn in_facade_scope(path: &str) -> bool {
    !FACADE_EXEMPT.iter().any(|p| path.starts_with(p))
        && !["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|seg| path.contains(seg))
}

/// Record an error finding of this checker.
fn error(report: &mut Report, code: &'static str, detail: String) {
    report.error(CHECKER, code, None, None, detail);
}

/// Run the full check rooted at `root` (the repo checkout): every rule
/// over [`scan_files`], R2 against `check/lockorder.toml`, and
/// [`check_whitelist`] on [`RELAXED_OK`].
pub fn check_protocol(root: &Path) -> io::Result<Report> {
    let files = scan_files(root)?;
    let files: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    let manifest_path = root.join("check").join("lockorder.toml");
    let mut report = Report::new();
    let manifest = match load_manifest(&manifest_path) {
        Ok(m) => Some(m),
        Err(e) => {
            error(
                &mut report,
                "manifest-unreadable",
                format!("cannot load {}: {e}", manifest_path.display()),
            );
            None
        }
    };
    report.merge(check_sources(&files, manifest.as_ref()));
    report.merge(check_whitelist(RELAXED_OK, &files));
    Ok(report)
}

/// Run every rule but the whitelist checks over in-memory `(path,
/// source)` pairs, each within its path scope. R2 runs only with a
/// manifest.
pub fn check_sources(files: &[(&str, &str)], manifest: Option<&LockOrderManifest>) -> Report {
    let mut report = Report::new();
    let facts: Vec<FileFacts> = files.iter().map(|(p, s)| extract_file(p, s)).collect();
    check_source_rules(&facts, &mut report);
    let ws = Workspace::build(
        facts
            .into_iter()
            .filter(|f| in_engine_scope(&f.path))
            .collect(),
    );
    report.note(format!(
        "protocol: scanned {} files, {} in the engine scope with {} functions",
        files.len(),
        ws.files.len(),
        ws.fns.len()
    ));
    check_r1(&ws, &mut report);
    if let Some(m) = manifest {
        check_r2(&ws, m, &mut report);
    }
    check_r3(&ws, &mut report);
    report
}

/// The lexical rules: `relaxed-unjustified` and `facade-bypass`.
fn check_source_rules(facts: &[FileFacts], report: &mut Report) {
    let mut n_sites = 0usize;
    for f in facts {
        n_sites += f.relaxed_sites.len();
        if !RELAXED_OK.iter().any(|(p, _)| *p == f.path) {
            for site in f.relaxed_sites.iter().filter(|s| !s.justified) {
                error(
                    report,
                    "relaxed-unjustified",
                    format!(
                        "{}:{}: Relaxed ordering without a `// protocol: relaxed <why>` note \
                         on its line or the five above, in a file not whitelisted",
                        f.path, site.line
                    ),
                );
            }
        }
        if in_facade_scope(&f.path) {
            for line in &f.raw_sync_lines {
                error(
                    report,
                    "facade-bypass",
                    format!(
                        "{}:{line}: raw sync primitive bypasses the obr-sync facade \
                         (invisible to the model scheduler)",
                        f.path
                    ),
                );
            }
        }
    }
    report.note(format!(
        "lexical rules: {n_sites} Relaxed sites audited; {} whitelisted files",
        RELAXED_OK.len()
    ));
}

/// Check a Relaxed whitelist against the scanned `files`: each entry
/// names a scanned file, appears once, and records an audit reason.
pub fn check_whitelist(whitelist: &[(&str, &str)], files: &[(&str, &str)]) -> Report {
    let mut report = Report::new();
    let mut seen = BTreeSet::new();
    for (path, reason) in whitelist {
        if !seen.insert(*path) {
            error(
                &mut report,
                "whitelist-duplicate",
                format!("{path} listed twice"),
            );
        }
        if reason.trim().is_empty() {
            error(
                &mut report,
                "whitelist-no-reason",
                format!("{path} has no audit reason"),
            );
        }
        if !files.iter().any(|(p, _)| p == path) {
            error(
                &mut report,
                "whitelist-stale",
                format!("{path} whitelisted but absent from the tree"),
            );
        }
    }
    report
}

fn has_ann(ws: &Workspace, id: FnId, kind: AnnKind) -> bool {
    ws.fn_info(id).anns.iter().any(|a| a.kind == kind)
}

/// A function "logs locally" when an append happens in its own body —
/// directly or through any callee — so every path *through* it passes
/// an append.
fn logs_locally(ws: &Workspace, id: FnId) -> bool {
    if has_ann(ws, id, AnnKind::WalAppend) {
        return true;
    }
    ws.fns[id]
        .callees
        .iter()
        .any(|(_, callees)| callees.iter().any(|c| ws.appends[*c]))
}

/// R1: WAL-before-data.
fn check_r1(ws: &Workspace, report: &mut Report) {
    let n = ws.fns.len();
    let seed: Vec<bool> = (0..n)
        .map(|i| has_ann(ws, i, AnnKind::PageMutation))
        .collect();
    let exempt: Vec<bool> = (0..n).map(|i| has_ann(ws, i, AnnKind::NoWal)).collect();
    let logs: Vec<bool> = (0..n).map(|i| logs_locally(ws, i)).collect();

    // bad(f): some path f → ... → mutation primitive has no append and
    // no audit anywhere along it.
    let mut bad = seed.clone();
    loop {
        let mut changed = false;
        for id in 0..n {
            if bad[id] || seed[id] || exempt[id] || logs[id] {
                continue;
            }
            let hit = ws.fns[id]
                .callees
                .iter()
                .any(|(_, callees)| callees.iter().any(|c| bad[*c]));
            if hit {
                bad[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut n_mutating_roots = 0usize;
    for id in 0..n {
        if !bad[id] || seed[id] {
            continue;
        }
        if !ws.callers[id].is_empty() {
            continue; // interior of a chain; the root gets the report
        }
        n_mutating_roots += 1;
        // Reconstruct one offending chain root → primitive.
        let mut chain = vec![id];
        let mut cur = id;
        let mut guard = 0;
        while !seed[cur] && guard < 64 {
            guard += 1;
            let next = ws.fns[cur]
                .callees
                .iter()
                .flat_map(|(_, cs)| cs.iter())
                .copied()
                .find(|c| bad[*c] || seed[*c]);
            match next {
                Some(c) => {
                    chain.push(c);
                    cur = c;
                }
                None => break,
            }
        }
        let path: Vec<String> = chain.iter().map(|c| ws.fn_path(*c)).collect();
        error(
            report,
            "wal-unlogged-path",
            format!(
                "{}:{} {}: page mutation reachable with no WAL append on the path: {} \
                 (annotate `// protocol: no-wal <why>` if audited)",
                ws.fn_file(id),
                ws.fn_info(id).line,
                ws.fn_path(id),
                path.join(" -> "),
            ),
        );
    }
    let n_mutators = (0..n).filter(|i| ws.mutates[*i]).count();
    report.note(format!(
        "R1: {} functions reach page mutations, {} unlogged entry points",
        n_mutators, n_mutating_roots
    ));
}

/// R2: latch discipline against the manifest.
fn check_r2(ws: &Workspace, manifest: &LockOrderManifest, report: &mut Report) {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut unknown: BTreeSet<String> = BTreeSet::new();
    let mut n_edges = 0usize;
    for id in 0..ws.fns.len() {
        for e in ws.static_edges(id) {
            n_edges += 1;
            for c in [&e.held, &e.acquired] {
                if !manifest.classes.contains_key(c.as_str()) && unknown.insert(c.clone()) {
                    error(report, "latch-unknown-class", format!(
                            "{}:{} {}: lock class \"{}\" is not declared in lockorder.toml [classes]",
                            ws.fn_file(id),
                            e.line,
                            ws.fn_path(id),
                            c
                        ),
                    );
                }
            }
            if !seen.insert((e.held.clone(), e.acquired.clone())) {
                continue; // report each ordered pair once
            }
            let via = e
                .via
                .map(|v| format!(" via {}", ws.fn_path(v)))
                .unwrap_or_default();
            if e.held == e.acquired {
                if !SELF_EDGE_OK.contains(&e.held.as_str()) {
                    error(
                        report,
                        "latch-self-edge",
                        format!(
                            "{}:{} {}: may hold \"{}\" while re-acquiring the same class{} \
                             (one-at-a-time classes must never self-nest)",
                            ws.fn_file(id),
                            e.line,
                            ws.fn_path(id),
                            e.held,
                            via
                        ),
                    );
                }
                continue;
            }
            if !manifest
                .allowed
                .contains(&(e.held.clone(), e.acquired.clone()))
            {
                error(
                    report,
                    "latch-undeclared-edge",
                    format!(
                        "{}:{} {}: static order \"{}\" -> \"{}\"{} is not vetted in \
                         lockorder.toml may_hold_while_acquiring",
                        ws.fn_file(id),
                        e.line,
                        ws.fn_path(id),
                        e.held,
                        e.acquired,
                        via
                    ),
                );
            }
        }
    }
    let distinct = seen.len();
    let covered = seen
        .iter()
        .filter(|(a, b)| a != b && manifest.allowed.contains(&(a.clone(), b.clone())))
        .count();
    report.note(format!(
        "R2: {} static acquisition sites, {} distinct edges, {} of {} manifest edges exercised statically",
        n_edges,
        distinct,
        covered,
        manifest.allowed.len()
    ));
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Load,
    Store,
}

fn release_ish(o: &str) -> bool {
    matches!(o, "Release" | "AcqRel" | "SeqCst")
}
fn acquire_ish(o: &str) -> bool {
    matches!(o, "Acquire" | "AcqRel" | "SeqCst")
}

/// R3: publication pairing per atomic field.
fn check_r3(ws: &Workspace, report: &mut Report) {
    // key → (role, ordering, file, line, fn path)
    type Site = (Role, String, String, u32, String);
    let mut by_key: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();

    for id in 0..ws.fns.len() {
        let locals = ws.typed_locals(id);
        let file = ws.fn_file(id).to_string();
        for op in &ws.fn_info(id).ops {
            let a = match op {
                Op::Atomic(a) => a,
                _ => continue,
            };
            if a.orderings.iter().any(|o| o == "Exempt") {
                continue; // site audited with `// protocol: mixed-ordering`
            }
            let field = match a.chain.last() {
                Some(Seg::Field(f)) => f.clone(),
                Some(Seg::Base(b)) if a.chain.len() == 1 => b.clone(),
                _ => continue,
            };
            // Resolve the owning struct: type the chain prefix, else
            // fall back to a globally unique atomic field name.
            let owner = if a.chain.len() > 1 {
                ws.type_of_chain(id, &locals, &a.chain[..a.chain.len() - 1])
                    .filter(|t| ws.struct_has_atomic_field(t, &field))
            } else {
                None
            };
            let owner = owner.or_else(|| match ws.atomic_field_owners.get(&field) {
                Some(owners) if owners.len() == 1 => Some(owners[0].clone()),
                Some(_) => {
                    ambiguous.insert(field.clone());
                    None
                }
                None => None,
            });
            let key = match owner {
                Some(t) => format!("{t}.{field}"),
                None => continue, // not a known atomic field (locals, foreign)
            };
            // RMWs (`swap`, `fetch_*`, `compare_exchange*`,
            // `fetch_update`) are stores for pairing purposes. Their read
            // half always observes the latest value in the field's
            // modification order regardless of ordering, so it is *not* a
            // publication consume — a seqlock writer's
            // `fetch_add(1, Release)` must not be flagged as a
            // Relaxed-family load. The first ordering argument is the
            // success/set order on every method; failure/fetch orders are
            // exempt.
            let role = if a.method == "load" {
                Role::Load
            } else {
                Role::Store
            };
            if let Some(o) = a.orderings.first() {
                by_key.entry(key).or_default().push((
                    role,
                    o.clone(),
                    file.clone(),
                    a.line,
                    ws.fn_path(id),
                ));
            }
        }
    }

    let mut n_fields = 0usize;
    for (key, sites) in &by_key {
        n_fields += 1;
        let rel_stores: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Store && release_ish(&s.1))
            .collect();
        let weak_stores: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Store && !release_ish(&s.1))
            .collect();
        let acq_loads: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Load && acquire_ish(&s.1))
            .collect();
        let weak_loads: Vec<&Site> = sites
            .iter()
            .filter(|s| s.0 == Role::Load && !acquire_ish(&s.1))
            .collect();

        if !rel_stores.is_empty() && !weak_loads.is_empty() {
            let s = &rel_stores[0];
            for l in &weak_loads {
                error(report, "atomic-relaxed-consume", format!(
                        "{key}: {} load at {}:{} ({}) consumes a publication released at {}:{} ({}) — \
                         upgrade to Acquire or audit with `// protocol: mixed-ordering <why>`",
                        l.1, l.2, l.3, l.4, s.2, s.3, s.4
                    ),
                );
            }
        }
        if !rel_stores.is_empty() && !weak_stores.is_empty() {
            let s = &weak_stores[0];
            error(
                report,
                "atomic-mixed-publication",
                format!(
                    "{key}: mixes Release-family and {} stores (e.g. {}:{} in {}) — \
                     one publication protocol per field",
                    s.1, s.2, s.3, s.4
                ),
            );
        }
        if rel_stores.is_empty() && !weak_stores.is_empty() && !acq_loads.is_empty() {
            let l = &acq_loads[0];
            error(
                report,
                "atomic-relaxed-publication",
                format!(
                    "{key}: Acquire load at {}:{} ({}) but every store is Relaxed-family — \
                     nothing is published; upgrade the store or relax the load",
                    l.2, l.3, l.4
                ),
            );
        }
        if sites.iter().all(|s| s.0 != Role::Store) && !acq_loads.is_empty() {
            let l = &acq_loads[0];
            report.warning(
                CHECKER,
                "atomic-unpaired-acquire",
                None,
                None,
                format!(
                    "{key}: Acquire load at {}:{} ({}) with no visible store in the scan scope",
                    l.2, l.3, l.4
                ),
            );
        }
    }
    for f in &ambiguous {
        report.note(format!(
            "R3: atomic field name \"{f}\" is declared by multiple structs; untyped accesses skipped"
        ));
    }
    report.note(format!("R3: {} atomic fields checked", n_fields));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockorder::parse_manifest;

    fn manifest(text: &str) -> crate::lockorder::LockOrderManifest {
        parse_manifest(text).expect("fixture manifest parses")
    }

    fn codes<'r>(r: &'r Report, code: &str) -> Vec<&'r str> {
        r.findings
            .iter()
            .filter(|f| f.code == code)
            .map(|f| f.detail.as_str())
            .collect()
    }

    const TWO_CLASS_MANIFEST: &str = r#"
[classes]
"class.a" = "outer fixture lock"
"class.b" = "inner fixture lock"

[may_hold_while_acquiring]
"class.a" = ["class.b"]
"#;

    // ---- R1: WAL-before-data ----

    const R1_PRIMS: &str = "
struct Log;
impl Log {
    // protocol: wal-append
    fn append(&self) {}
}
struct Leaf;
impl Leaf {
    // protocol: page-mutation
    fn insert(&mut self) {}
}
";

    #[test]
    fn r1_logged_path_is_clean() {
        let src = format!(
            "{R1_PRIMS}
fn do_insert(log: &Log, leaf: &mut Leaf) {{
    log.append();
    leaf.insert();
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            !r.findings.iter().any(|f| f.code == "wal-unlogged-path"),
            "append on the path must satisfy R1: {r}"
        );
    }

    #[test]
    fn r1_unlogged_path_flagged_with_chain() {
        let src = format!(
            "{R1_PRIMS}
fn forgot_logging(leaf: &mut Leaf) {{
    leaf.insert();
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "wal-unlogged-path")
            .expect("unlogged mutation path must be flagged");
        assert!(
            f.detail.contains("fix.rs"),
            "diagnostic names the file: {f:?}"
        );
        assert!(
            f.detail.contains("forgot_logging -> Leaf::insert"),
            "diagnostic shows the call chain: {f:?}"
        );
    }

    #[test]
    fn r1_unlogged_interprocedural_chain_is_reported_at_the_root() {
        let src = format!(
            "{R1_PRIMS}
fn helper(leaf: &mut Leaf) {{
    leaf.insert();
}}
fn entry(leaf: &mut Leaf) {{
    helper(leaf);
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        let flagged: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.code == "wal-unlogged-path")
            .collect();
        assert_eq!(flagged.len(), 1, "only the root is reported: {r}");
        assert!(
            flagged[0]
                .detail
                .contains("entry -> helper -> Leaf::insert"),
            "chain runs root to primitive: {:?}",
            flagged[0]
        );
    }

    #[test]
    fn r1_no_wal_audit_clears_the_path() {
        let src = format!(
            "{R1_PRIMS}
// protocol: no-wal fixture bulk loader is made durable by flushing
fn bulk(leaf: &mut Leaf) {{
    leaf.insert();
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            !r.findings.iter().any(|f| f.code == "wal-unlogged-path"),
            "audited path must be exempt: {r}"
        );
    }

    // ---- R2: latch discipline ----

    const R2_NEST: &str = "
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn new() -> S {
        S { a: Mutex::named(0, \"class.a\"), b: Mutex::named(0, \"class.b\") }
    }
    fn nest(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
    }
}
";

    #[test]
    fn r2_vetted_edge_is_clean() {
        let m = manifest(TWO_CLASS_MANIFEST);
        let r = check_sources(&[("fix.rs", R2_NEST)], Some(&m));
        assert!(r.is_clean(), "a->b is vetted: {r}");
    }

    #[test]
    fn r2_undeclared_edge_flagged() {
        // Same manifest without the a->b edge.
        let m = manifest(
            "\n[classes]\n\"class.a\" = \"outer\"\n\"class.b\" = \"inner\"\n\n[may_hold_while_acquiring]\n",
        );
        let r = check_sources(&[("fix.rs", R2_NEST)], Some(&m));
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "latch-undeclared-edge")
            .expect("unvetted nesting must be flagged");
        assert!(
            f.detail.contains("\"class.a\" -> \"class.b\""),
            "diagnostic names the ordered pair: {f:?}"
        );
        assert!(
            f.detail.contains("S::nest"),
            "diagnostic names the function: {f:?}"
        );
    }

    #[test]
    fn r2_interprocedural_edge_via_callee() {
        let src = "
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn new() -> S {
        S { a: Mutex::named(0, \"class.a\"), b: Mutex::named(0, \"class.b\") }
    }
    fn inner(&self) {
        let h = self.b.lock();
    }
    fn outer(&self) {
        let g = self.a.lock();
        self.inner();
    }
}
";
        let m = manifest(
            "\n[classes]\n\"class.a\" = \"outer\"\n\"class.b\" = \"inner\"\n\n[may_hold_while_acquiring]\n",
        );
        let r = check_sources(&[("fix.rs", src)], Some(&m));
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "latch-undeclared-edge")
            .expect("edge created through a callee must be flagged");
        assert!(
            f.detail.contains("via S::inner"),
            "diagnostic names the callee: {f:?}"
        );
    }

    #[test]
    fn r2_self_edge_flagged_unless_whitelisted() {
        let src = "
struct S { frames: Mutex<u32> }
impl S {
    fn new() -> S { S { frames: Mutex::named(0, \"pool.shard.frames\") } }
    fn double(&self) {
        let g = self.frames.lock();
        let h = self.frames.lock();
    }
}
";
        let m = manifest(
            "\n[classes]\n\"pool.shard.frames\" = \"shard table\"\n\n[may_hold_while_acquiring]\n",
        );
        let r = check_sources(&[("fix.rs", src)], Some(&m));
        assert!(
            r.findings.iter().any(|f| f.code == "latch-self-edge"),
            "the PR 3 cross-shard shape must be flagged: {r}"
        );
        // The same shape on the vetted page-latch class passes.
        let src_ok = src.replace("pool.shard.frames", "pool.frame.data");
        let m_ok = manifest(
            "\n[classes]\n\"pool.frame.data\" = \"page latch\"\n\n[may_hold_while_acquiring]\n",
        );
        let r_ok = check_sources(&[("fix.rs", src_ok.as_str())], Some(&m_ok));
        assert!(
            !r_ok.findings.iter().any(|f| f.code == "latch-self-edge"),
            "page-latch coupling is vetted: {r_ok}"
        );
    }

    #[test]
    fn r2_unknown_class_flagged() {
        let src = "
struct S { x: Mutex<u32> }
impl S {
    fn new() -> S { S { x: Mutex::named(0, \"not.in.manifest\") } }
    fn outer(&self) {
        let g = self.x.lock();
        self.inner();
    }
    fn inner(&self) {
        let h = self.x.lock();
    }
}
";
        let m = manifest("\n[classes]\n\"class.a\" = \"a\"\n\n[may_hold_while_acquiring]\n");
        let r = check_sources(&[("fix.rs", src)], Some(&m));
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "latch-unknown-class" && f.detail.contains("not.in.manifest")),
            "undeclared class must be flagged: {r}"
        );
    }

    // ---- R3: publication pairing ----

    const R3_STRUCT: &str = "
struct P { ready: AtomicBool }
";

    #[test]
    fn r3_release_acquire_pairing_is_clean() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{ self.ready.load(Ordering::Acquire) }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            r.is_clean(),
            "Release/Acquire pairing is the vetted shape: {r}"
        );
    }

    #[test]
    fn r3_relaxed_consume_flagged() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{ self.ready.load(Ordering::Relaxed) }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "atomic-relaxed-consume")
            .expect("the PR 6 lost-write shape must be flagged");
        assert!(
            f.detail.contains("P.ready"),
            "diagnostic names the field: {f:?}"
        );
        assert!(
            f.detail.contains("P::consume"),
            "diagnostic names the load site: {f:?}"
        );
    }

    #[test]
    fn r3_mixed_ordering_audit_clears_the_site() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{
        // protocol: mixed-ordering fixture hint only, re-checked under the lock
        self.ready.load(Ordering::Relaxed)
    }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            !r.findings
                .iter()
                .any(|f| f.code == "atomic-relaxed-consume"),
            "audited site must be exempt: {r}"
        );
    }

    #[test]
    fn r3_rmw_release_writer_is_not_a_consume() {
        // Seqlock writer: fetch_add(Release) publishes; only the pure
        // Acquire load consumes. The RMW read-half must not be flagged.
        let src = "
struct E { epoch: AtomicU64 }
impl E {
    fn enter(&self) { self.epoch.fetch_add(1, Ordering::Release); }
    fn stable(&self) -> u64 { self.epoch.load(Ordering::Acquire) }
}
";
        let r = check_sources(&[("fix.rs", src)], None);
        assert!(r.is_clean(), "seqlock writer RMW is not a consume: {r}");
    }

    #[test]
    fn r3_relaxed_publication_flagged() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Relaxed); }}
    fn consume(&self) -> bool {{ self.ready.load(Ordering::Acquire) }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "atomic-relaxed-publication"),
            "Acquire load with only Relaxed stores publishes nothing: {r}"
        );
    }

    #[test]
    fn r3_relaxed_note_does_not_clear_a_pairing_finding() {
        let src = format!(
            "{R3_STRUCT}
impl P {{
    fn publish(&self) {{ self.ready.store(true, Ordering::Release); }}
    fn consume(&self) -> bool {{
        // protocol: relaxed fixture note for the lexical rule only
        self.ready.load(Ordering::Relaxed)
    }}
}}
"
        );
        let r = check_sources(&[("fix.rs", src.as_str())], None);
        // Only mixed-ordering audits an R3 site; the note justifies the
        // Relaxed site itself.
        assert_eq!(codes(&r, "atomic-relaxed-consume").len(), 1, "{r}");
        assert!(codes(&r, "relaxed-unjustified").is_empty(), "{r}");
    }

    // ---- Lexical rules ----

    #[test]
    fn unjustified_relaxed_is_flagged_and_a_note_clears_it() {
        let bad = "fn f() { x.load(Ordering::Relaxed); }\n";
        let good = "// protocol: relaxed counter is observability-only\n\
                    fn f() { x.load(Ordering::Relaxed); }\n";
        let far = "// protocol: relaxed too far above\n\n\n\n\n\n\
                   fn f() { x.load(Ordering::Relaxed); }\n";
        let r = check_sources(
            &[
                ("crates/core/src/a.rs", bad),
                ("crates/core/src/b.rs", good),
                ("crates/core/src/c.rs", far),
                ("crates/core/src/sidefile.rs", bad),
            ],
            None,
        );
        let flagged = codes(&r, "relaxed-unjustified");
        assert_eq!(flagged.len(), 2, "{r}");
        assert!(flagged[0].starts_with("crates/core/src/a.rs:1:"), "{r}");
        assert!(flagged[1].starts_with("crates/core/src/c.rs:7:"), "{r}");
    }

    #[test]
    fn relaxed_inside_string_or_comment_is_invisible() {
        let fixture = concat!(
            "// a doc mentioning Ordering::Relaxed is not a use site\n",
            "fn f() -> &'static str {\n",
            "    \"self.real.load(Ordering::Relaxed)\"\n",
            "}\n",
        );
        let r = check_sources(&[("crates/core/src/a.rs", fixture)], None);
        assert!(
            codes(&r, "relaxed-unjustified").is_empty(),
            "string/comment text must not trip the rule: {r}"
        );
    }

    #[test]
    fn facade_bypass_flagged_outside_exempt_paths() {
        let import = "use parking_lot::Mutex;\n";
        let r = check_sources(
            &[
                ("crates/core/src/a.rs", import),
                ("crates/core/tests/t.rs", import),
                ("shims/x/src/lib.rs", import),
                ("tests/t.rs", import),
            ],
            None,
        );
        let flagged = codes(&r, "facade-bypass");
        assert_eq!(flagged.len(), 1, "{r}");
        assert!(flagged[0].starts_with("crates/core/src/a.rs:1:"), "{r}");
    }

    #[test]
    fn std_sync_import_in_string_is_invisible() {
        let fixture = "fn f() -> &'static str { \"use std::sync::Mutex;\" }\n";
        let r = check_sources(&[("crates/core/src/a.rs", fixture)], None);
        assert!(
            codes(&r, "facade-bypass").is_empty(),
            "quoted import must not trip the facade rule: {r}"
        );
    }

    #[test]
    fn nested_workspace_is_skipped_by_every_rule() {
        let root = std::env::temp_dir().join(format!("obr-protocol-nested-{}", std::process::id()));
        // A raw import, an unjustified Relaxed site and an unknown lock
        // class: each would be flagged inside this workspace.
        let fixture = "use parking_lot::Mutex;\n\
                       struct S { x: Mutex<u32> }\n\
                       impl S {\n\
                           fn new() -> S { S { x: Mutex::named(0, \"not.in.manifest\") } }\n\
                           fn twice(&self) { let g = self.x.lock(); let h = self.x.lock(); }\n\
                           fn f(&self) { y.load(Ordering::Relaxed); }\n\
                       }\n";
        for (rel, content) in [
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
            ("crates/core/Cargo.toml", "[package]\nname = \"core\"\n"),
            ("crates/core/src/a.rs", fixture),
            (
                "bench/Cargo.toml",
                "[package]\nname = \"bench\"\n\n[workspace]\n",
            ),
            ("bench/src/main.rs", fixture),
        ] {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, content).unwrap();
        }
        let files = scan_files(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["crates/core/src/a.rs"]);
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(p, s)| (p.as_str(), s.as_str()))
            .collect();
        let m = manifest(TWO_CLASS_MANIFEST);
        let r = check_sources(&refs, Some(&m));
        for code in [
            "facade-bypass",
            "relaxed-unjustified",
            "latch-unknown-class",
        ] {
            assert_eq!(codes(&r, code).len(), 1, "{code} once, in crates/core: {r}");
        }
    }

    #[test]
    fn whitelist_entries_are_unique_reasoned_and_present() {
        let files = [("crates/core/src/a.rs", ""), ("crates/core/src/b.rs", "")];
        let clean = check_whitelist(&[("crates/core/src/a.rs", "counters")], &files);
        assert!(clean.is_clean(), "{clean}");
        let r = check_whitelist(
            &[
                ("crates/core/src/a.rs", "counters"),
                ("crates/core/src/a.rs", "again"),
                ("crates/core/src/b.rs", " "),
                ("crates/core/src/gone.rs", "stop flag"),
            ],
            &files,
        );
        assert_eq!(codes(&r, "whitelist-duplicate").len(), 1, "{r}");
        assert_eq!(codes(&r, "whitelist-no-reason").len(), 1, "{r}");
        assert_eq!(
            codes(&r, "whitelist-stale"),
            vec!["crates/core/src/gone.rs whitelisted but absent from the tree"]
        );
    }
}
