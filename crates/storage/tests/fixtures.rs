//! The workspace's robustness claims, pinned to where they are enforced.
//!
//! rustc and clippy hold most of them through attributes: a panic-freedom
//! zone is a `deny` list on the zoned file or function, the unsafe audit is
//! `#![forbid(unsafe_code)]` on every crate root, rustdoc is
//! `missing_docs`, and an escape is an `#[expect]` with a reason. No
//! compiler notices an attribute that was deleted, though, so these tests
//! read the sources and check that the attributes sit where the tables
//! below say: growing or shrinking a zone is an edit to this file. The two
//! rules no attribute expresses are behaviour here: no core or engine
//! `pub fn` carries a sibling suffix, and a failing fsync-family call
//! leaves nothing visible.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use common::FlakyStorage;
use uprov_engine::UpdateLog;
use uprov_storage::{DurableEngine, DurableError, SNAPSHOT_BLOB, WAL_BLOB};

/// The panic-freedom zones: a file and the functions the zone covers (none
/// = the whole file). These are the paths whose claims no test can check
/// exhaustively: the total protocol parser, the session loop that frames
/// whatever bytes a peer sends, the service every client's requests run
/// through, the storage decode and recovery paths, and the worker pool's
/// `run`. `snapshot.rs` is zoned in its decode half only: `encode`
/// indexes vectors it sized, `decode` must be total over arbitrary bytes.
const NO_PANIC_ZONES: &[(&str, &[&str])] = &[
    ("crates/service/src/proto.rs", &[]),
    ("crates/service/src/net.rs", &[]),
    ("crates/service/src/service.rs", &[]),
    ("crates/storage/src/codec.rs", &[]),
    ("crates/storage/src/wal.rs", &[]),
    (
        "crates/storage/src/snapshot.rs",
        &[
            "decode",
            "decode_payload",
            "decode_tail",
            "take_gap",
            "check_live",
        ],
    ),
    ("crates/storage/src/durable.rs", &[]),
    ("crates/core/src/pool.rs", &[]),
];

/// What a zone denies: one lint per panicking construct.
const ZONE_LINTS: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// The only files that may contain `unsafe` code: none.
const UNSAFE_ALLOWLIST: &[&str] = &[];

/// How an `unsafe` block, impl or fn starts.
const UNSAFE_SITES: [&str; 3] = ["unsafe {", "unsafe impl", "unsafe fn"];

/// Crates whose public items must carry rustdoc.
const RUSTDOC_CRATES: &[&str] = &["engine", "service", "storage"];

/// Crates whose public functions come one per operation: a thread count, a
/// memo pool or a round budget is an argument or rides the memo it belongs
/// to, never a name suffix.
const ONE_FN_CRATES: &[&str] = &["core", "engine"];

/// `pub fn` name endings denied in [`ONE_FN_CRATES`]: each once named a
/// sibling that differed from its base function only in where such state
/// came from.
const SIBLING_SUFFIXES: [&str; 5] = ["_par", "_par_in", "_scoped_in", "_budget_in", "_batch_in"];

/// Most `pub fn`s [`ONE_FN_CRATES`] may declare together, counted as lines
/// whose trimmed start is `pub fn `. A ratchet: lower it when the surface
/// shrinks, never raise it to admit a new sibling.
const PUB_FN_CAP: usize = 142;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under the workspace-relative `dir`, workspace-relative
/// and sorted.
fn rust_files(dir: &str) -> Vec<String> {
    let mut dirs = vec![root().join(dir)];
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root()).unwrap();
                files.push(rel.to_str().unwrap().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// Each crate's root files: `src/lib.rs` and, for a binary, `src/main.rs`.
fn crate_roots() -> Vec<String> {
    let files = rust_files("crates");
    let is_root = |f: &&String| f.ends_with("/src/lib.rs") || f.ends_with("/src/main.rs");
    files.iter().filter(is_root).cloned().collect()
}

/// Each run of consecutive one-line `head` attributes in `src` (`"#![deny("`
/// for inner, `"#[deny("` for outer ones), as the lints the run names and
/// the line that follows it.
fn deny_runs<'a>(src: &'a str, head: &str) -> Vec<(BTreeSet<&'a str>, &'a str)> {
    let mut runs = Vec::new();
    let mut lints = BTreeSet::new();
    for line in src.lines().map(str::trim) {
        match line.strip_prefix(head).and_then(|l| l.strip_suffix(")]")) {
            Some(list) => lints.extend(list.split(',').map(str::trim)),
            None if !lints.is_empty() => runs.push((std::mem::take(&mut lints), line)),
            None => {}
        }
    }
    runs
}

/// The lints a file's inner `#![deny(..)]` attributes name.
fn inner_denies(src: &str) -> BTreeSet<&str> {
    deny_runs(src, "#![deny(")
        .into_iter()
        .flat_map(|(lints, _)| lints)
        .collect()
}

/// The functions under an outer `#[deny(..)]` run that names
/// `clippy::unwrap_used`, with the lints of that run.
fn fn_zones(src: &str) -> BTreeMap<&str, BTreeSet<&str>> {
    let runs = deny_runs(src, "#[deny(").into_iter();
    let zoned = runs.filter(|(lints, _)| lints.contains("clippy::unwrap_used"));
    zoned
        .map(|(lints, item)| {
            let sig = item.strip_prefix("pub ").unwrap_or(item);
            let name = sig
                .strip_prefix("fn ")
                .and_then(|s| s.split(['(', '<']).next());
            (
                name.unwrap_or_else(|| panic!("zone on a non-fn: {item}")),
                lints,
            )
        })
        .collect()
}

/// The `pub fn`s in `src` whose names end in a sibling suffix.
fn sibling_suffixed(src: &str) -> Vec<&str> {
    let fns = src
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("pub fn "));
    let names = fns.filter_map(|rest| rest.split(['(', '<']).next());
    names
        .filter(|n| SIBLING_SUFFIXES.iter().any(|s| n.ends_with(s)))
        .collect()
}

fn log(text: &str) -> UpdateLog {
    text.parse().expect("valid log text")
}

// ---------------------------------------------------------------- panic

/// A zone is only as good as its paths: a renamed file must take the map
/// with it, not silently leave it behind.
#[test]
fn config_zone_paths_exist_on_disk() {
    let zones = NO_PANIC_ZONES.iter().map(|&(path, _)| path.to_string());
    let allowlist = UNSAFE_ALLOWLIST.iter().map(|p| p.to_string());
    let crates = RUSTDOC_CRATES.iter().chain(ONE_FN_CRATES);
    let roots = crates.map(|c| format!("crates/{c}/src/lib.rs"));
    for rel in zones.chain(allowlist).chain(roots) {
        assert!(
            root().join(&rel).is_file(),
            "the map names a missing file: {rel}"
        );
    }
    assert!(root().join("clippy.toml").is_file());
}

/// The files that deny the zone lints for their whole body are exactly the
/// map's whole-file zones.
#[test]
fn check_file_applies_the_zone_map() {
    let whole_file: BTreeSet<String> = NO_PANIC_ZONES
        .iter()
        .filter(|(_, fns)| fns.is_empty())
        .map(|&(path, _)| path.to_string())
        .collect();
    let zoned: BTreeSet<String> = rust_files("crates")
        .into_iter()
        .filter(|f| f.contains("/src/"))
        .filter(|f| inner_denies(&read(f)).contains("clippy::unwrap_used"))
        .collect();
    assert_eq!(zoned, whole_file);
}

/// `snapshot.rs` is zoned function by function, and the functions that
/// carry the zone attributes are exactly the decode half the map names.
#[test]
fn check_file_scopes_snapshot_zone_to_decode() {
    for &(path, fns) in NO_PANIC_ZONES {
        let src = read(path);
        let zoned: BTreeSet<&str> = fn_zones(&src).into_keys().collect();
        assert_eq!(zoned, fns.iter().copied().collect(), "{path}");
    }
}

/// Every zone, whole-file or per function, denies all seven constructs.
#[test]
fn panic_pass_flags_each_construct_with_exact_location() {
    for &(path, fns) in NO_PANIC_ZONES {
        let src = read(path);
        let mut zones = vec![(path.to_string(), inner_denies(&src))];
        if !fns.is_empty() {
            let per_fn = fn_zones(&src).into_iter();
            zones = per_fn
                .map(|(f, lints)| (format!("{path}::{f}"), lints))
                .collect();
        }
        for (zone, lints) in zones {
            let missing: Vec<_> = ZONE_LINTS.iter().filter(|l| !lints.contains(*l)).collect();
            assert!(missing.is_empty(), "{zone} does not deny {missing:?}");
        }
    }
}

/// Stronger than the zones: no placeholder macro anywhere in the crates.
#[test]
fn panic_pass_flags_todo_and_unimplemented() {
    let placeholders = ["todo", "unimplemented"].map(|m| format!("{m}!("));
    for file in rust_files("crates") {
        let src = read(&file);
        for p in &placeholders {
            assert!(!src.contains(p.as_str()), "{file} calls {p}..)");
        }
    }
}

/// Test code may unwrap, expect, panic and index — exactly those four, and
/// only in tests: `clippy.toml` holds the exemption and nothing else.
#[test]
fn panic_pass_exempts_test_items() {
    let toml = read("clippy.toml");
    let settings: BTreeMap<&str, &str> = toml
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once('=').expect("key = value"))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect();
    let want: BTreeMap<&str, &str> = [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
        "allow-indexing-slicing-in-tests",
    ]
    .map(|k| (k, "true"))
    .into();
    assert_eq!(settings, want);
}

/// An escape carries its reason: every crate root denies a reasonless
/// `allow`, and every `allow`/`expect` attribute under `crates/` (test
/// crates included, which no crate root reaches) names one.
#[test]
fn panic_pass_honors_reasoned_allow_and_rejects_bare_allow() {
    for file in crate_roots() {
        let src = read(&file);
        let lints = inner_denies(&src);
        assert!(
            lints.contains("clippy::allow_attributes_without_reason"),
            "{file}"
        );
    }
    let openers = ["allow", "expect"].map(|a| ["#[", "#!["].map(|h| format!("{h}{a}(")));
    for file in rust_files("crates") {
        let src = read(&file);
        for opener in openers.iter().flatten() {
            for (at, _) in src.match_indices(opener.as_str()) {
                let attr = &src[at..];
                let attr = &attr[..attr.find(")]").map_or(attr.len(), |end| end + 2)];
                assert!(
                    attr.contains("reason = "),
                    "{file}: escape without a reason: {attr}"
                );
            }
        }
    }
}

// --------------------------------------------------------------- unsafe

/// `unsafe` code appears only in the allowlisted files, and every crate
/// root forbids it.
#[test]
fn unsafe_pass_denies_outside_allowlist() {
    let mut with_unsafe = BTreeSet::new();
    for file in rust_files("crates")
        .into_iter()
        .filter(|f| f.contains("/src/"))
    {
        let src = read(&file);
        if UNSAFE_SITES.iter().any(|k| src.contains(k)) {
            with_unsafe.insert(file);
        }
    }
    let allowlist: BTreeSet<String> = UNSAFE_ALLOWLIST.iter().map(|p| p.to_string()).collect();
    assert_eq!(with_unsafe, allowlist);
    for file in crate_roots() {
        let src = read(&file);
        assert!(
            src.lines().any(|l| l == "#![forbid(unsafe_code)]"),
            "{file}"
        );
    }
}

/// There is no `unsafe` site left for a `// SAFETY:` comment to document:
/// no `crates/*/src` line outside a comment has an `unsafe` block, impl or
/// fn.
#[test]
fn unsafe_pass_requires_safety_comment_in_allowlisted_files() {
    let mut sites = Vec::new();
    for file in rust_files("crates")
        .into_iter()
        .filter(|f| f.contains("/src/"))
    {
        for (n, line) in read(&file).lines().enumerate() {
            let line = line.trim();
            if !line.starts_with("//") && UNSAFE_SITES.iter().any(|k| line.contains(k)) {
                sites.push(format!("{file}:{}", n + 1));
            }
        }
    }
    assert!(sites.is_empty(), "`unsafe` sites: {sites:?}");
}

// ------------------------------------------------------------------ api

#[test]
fn api_pass_requires_rustdoc_on_public_items() {
    for name in RUSTDOC_CRATES {
        let file = format!("crates/{name}/src/lib.rs");
        assert!(
            inner_denies(&read(&file)).contains("missing_docs"),
            "{file}"
        );
    }
}

#[test]
fn api_pass_forbids_sibling_suffixes_on_pub_fns() {
    for suffix in SIBLING_SUFFIXES {
        let src = format!("pub fn eval{suffix}(root: NodeId) -> u32 {{ 0 }}\n");
        assert_eq!(sibling_suffixed(&src), [format!("eval{suffix}")], "{src}");
    }
    let mut bad = Vec::new();
    for name in ONE_FN_CRATES {
        for file in rust_files(&format!("crates/{name}/src")) {
            let src = read(&file);
            bad.extend(
                sibling_suffixed(&src)
                    .iter()
                    .map(|f| format!("{file}: {f}")),
            );
        }
    }
    assert!(bad.is_empty(), "sibling-suffixed pub fns: {bad:?}");
}

#[test]
fn api_pass_caps_pub_fn_count() {
    let count: usize = ONE_FN_CRATES
        .iter()
        .flat_map(|name| rust_files(&format!("crates/{name}/src")))
        .map(|file| {
            read(&file)
                .lines()
                .filter(|line| line.trim_start().starts_with("pub fn "))
                .count()
        })
        .sum();
    assert!(
        count <= PUB_FN_CAP,
        "{ONE_FN_CRATES:?} declare {count} pub fns, over the cap of {PUB_FN_CAP}"
    );
}

/// Most bytes each long-lived document may hold. A ratchet like
/// [`PUB_FN_CAP`]: a change edits the text in place, and a cap only ever
/// comes down.
const DOC_BYTE_CAPS: &[(&str, usize)] = &[
    ("README.md", 24_541),
    ("docs/ARCHITECTURE.md", 49_992),
    ("docs/PAPER_MAP.md", 12_123),
    (".claude/skills/verify/SKILL.md", 23_889),
];

#[test]
fn docs_stay_under_their_byte_caps() {
    let over: Vec<String> = DOC_BYTE_CAPS
        .iter()
        .filter_map(|&(doc, cap)| {
            let len = read(doc).len();
            (len > cap).then(|| format!("{doc}: {len} bytes, cap {cap}"))
        })
        .collect();
    assert!(over.is_empty(), "documents over their byte caps: {over:?}");
}

/// Only public API counts, and a plain `_in` is fine: the memo is the
/// context, passed in.
#[test]
fn api_pass_ignores_private_fns_and_memo_free_bodies() {
    let src = "\
fn run_scoped_in() {}
pub(crate) fn eval_batch_in() {}
pub fn no_memo(x: u32) -> u32 { x + 1 }
pub fn nf_in(root: NodeId, memo: &mut NfMemo) -> u32 { walk(root, memo) }
";
    assert!(sibling_suffixed(src).is_empty());
}

// ---------------------------------------------------------------- fsync

/// Durable before visible: a batch whose fsync fails is not applied. Its
/// records are in the WAL, but nothing in memory moved (not the state,
/// `seq`, the arena or the atom table), and the next append truncates
/// them, so recovery never sees the batch.
#[test]
fn fsync_pass_flags_state_apply_before_the_barrier() {
    common::failed_batch_leaves_no_trace(FlakyStorage::sync_trigger);
}

/// A checkpoint's `write_atomic` is a barrier too: when the snapshot write
/// fails, the checkpoint is `Err`, no snapshot appears and the WAL keeps
/// every record, so the engine keeps appending and a recovery still reads
/// the full state; the retried checkpoint then covers it all.
#[test]
fn fsync_pass_treats_write_atomic_as_a_barrier_and_reads_as_harmless() {
    let storage = FlakyStorage::default();
    let fail = storage.write_trigger();
    let (mut db, _) = DurableEngine::open(storage).expect("fresh");
    db.append(&log("base a b\nbegin t1\ninsert c\ncommit\n"))
        .unwrap();
    let wal = db.storage().inner.blob(WAL_BLOB).unwrap().to_vec();

    fail.store(true, Ordering::SeqCst);
    assert!(matches!(db.snapshot(), Err(DurableError::Io(_))));
    assert_eq!(db.storage().inner.blob(SNAPSHOT_BLOB), None);
    assert_eq!(db.storage().inner.blob(WAL_BLOB), Some(&wal[..]));

    db.append(&log("begin t2\ndelete b\ncommit\n")).unwrap();
    let want = db.state().to_snapshot();
    let (cold, report) = DurableEngine::open(db.storage().inner.clone()).expect("recovers");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 2);
    assert_eq!(cold.state().to_snapshot(), want);

    db.snapshot().expect("the retry checkpoints");
    let (warm, report) = DurableEngine::open(db.into_storage().inner).expect("recovers");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 0);
    assert_eq!((warm.seq(), warm.state().to_snapshot()), (2, want));
}
