//! Per-pass fixture suites: known-good and known-bad inline snippets,
//! with the diagnostics pinned down to the exact `file:line: [pass]
//! message` rendering CI prints — so a change in a pass's behavior (or
//! its wording) is a deliberate edit here, not a silent drift.

use uprov_lint::diag::Diagnostic;
use uprov_lint::passes::{self, ApiOptions};
use uprov_lint::source::SourceFile;
use uprov_lint::{check_file, config};

fn parse(src: &str) -> SourceFile<'_> {
    SourceFile::parse("crates/x/src/f.rs", src).expect("fixture lexes")
}

fn rendered(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(|d| d.to_string()).collect()
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_pass_flags_each_construct_with_exact_location() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"msg\");
    if a > b { panic!(\"boom\") }
    unreachable!()
}
";
    let diags = passes::panic_freedom(&parse(src), &[]);
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:2: [panic] call to `unwrap` in a no-panic zone",
            "crates/x/src/f.rs:3: [panic] call to `expect` in a no-panic zone",
            "crates/x/src/f.rs:4: [panic] `panic!` invocation in a no-panic zone",
            "crates/x/src/f.rs:5: [panic] `unreachable!` invocation in a no-panic zone",
        ]
    );
}

#[test]
fn panic_pass_flags_todo_and_unimplemented() {
    let src = "fn f() { todo!() }\nfn g() { unimplemented!() }\n";
    let diags = passes::panic_freedom(&parse(src), &[]);
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:1: [panic] `todo!` invocation in a no-panic zone",
            "crates/x/src/f.rs:2: [panic] `unimplemented!` invocation in a no-panic zone",
        ]
    );
}

#[test]
fn panic_pass_flags_indexing_but_not_types_attrs_or_macros() {
    let src = "\
#[derive(Debug)]
struct S { xs: Vec<u32>, arr: [u8; 4] }
fn f(s: &S, i: usize) -> u32 {
    let v = vec![1, 2, 3];
    let _fine: Option<[u8; 2]> = None;
    s.xs[i] + u32::from(s.arr[0]) + foo(i)[1]
}
";
    let diags = passes::panic_freedom(&parse(src), &[]);
    // Three index sites on line 6: after an identifier path, after a
    // field access, and after a call's closing paren. The `vec![…]`
    // macro, the attribute and both array *types* stay silent.
    assert_eq!(diags.len(), 3, "diags: {:?}", rendered(&diags));
    assert!(diags.iter().all(|d| d.line == 6
        && d.message == "direct slice/array indexing in a no-panic zone (use `get`)"));
}

#[test]
fn panic_pass_flags_indexing_after_try_operator() {
    // `r.take(1, "tag")?[0]` — the `[` follows `?`; the lint must see
    // through the try operator (a real pattern from the storage decoder).
    let src = "fn f(r: &mut R) -> Result<u8, E> {\n    Ok(r.take(1)?[0])\n}\n";
    let diags = passes::panic_freedom(&parse(src), &[]);
    assert_eq!(
        rendered(&diags),
        vec!["crates/x/src/f.rs:2: [panic] direct slice/array indexing in a no-panic zone (use `get`)"]
    );
}

#[test]
fn panic_pass_honors_reasoned_allow_and_rejects_bare_allow() {
    let src = "\
fn f(x: Option<u32>) {
    // lint: allow(panic, reason = \"checked two lines above\")
    x.unwrap();
    // lint: allow(panic)
    x.unwrap();
    x.unwrap(); // lint: allow(panic, reason = \"trailing form\")
}
";
    let diags = passes::panic_freedom(&parse(src), &[]);
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:5: [panic] call to `unwrap` in a no-panic zone \
             (allow annotation must carry a non-empty reason)",
        ]
    );
}

#[test]
fn panic_pass_exempts_test_items() {
    let src = "\
fn live(x: Option<u32>) { x.unwrap(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { None::<u32>.unwrap(); }
}
";
    let diags = passes::panic_freedom(&parse(src), &[]);
    assert_eq!(
        rendered(&diags),
        vec!["crates/x/src/f.rs:1: [panic] call to `unwrap` in a no-panic zone"]
    );
}

#[test]
fn panic_pass_respects_function_scoped_zones() {
    let src = "\
fn encode(v: &[u32]) -> u32 {
    v[0]
}
fn decode(v: &[u32]) -> u32 {
    v[0]
}
";
    // Whole file: both flagged. Scoped to `decode`: only line 5.
    assert_eq!(passes::panic_freedom(&parse(src), &[]).len(), 2);
    let scoped = passes::panic_freedom(&parse(src), &["decode"]);
    assert_eq!(
        rendered(&scoped),
        vec!["crates/x/src/f.rs:5: [panic] direct slice/array indexing in a no-panic zone (use `get`)"]
    );
}

#[test]
fn panic_pass_ignores_method_definitions_named_expect() {
    // Defining (or calling a free fn named) `expect` is fine — only the
    // method-call form `.expect(` panics.
    let src = "fn expect(want: u8) -> bool { want == 0 }\nfn g() { let _ = expect(1); }\n";
    assert!(passes::panic_freedom(&parse(src), &[]).is_empty());
}

// --------------------------------------------------------------- unsafe

#[test]
fn unsafe_pass_denies_outside_allowlist() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let diags = passes::unsafe_audit(&parse(src), false);
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:2: [unsafe] `unsafe` in a file outside the unsafe allowlist \
             (add it to config::UNSAFE_ALLOWLIST deliberately)"
        ]
    );
}

#[test]
fn unsafe_pass_requires_safety_comment_in_allowlisted_files() {
    let bad = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let diags = passes::unsafe_audit(&parse(bad), true);
    assert_eq!(
        rendered(&diags),
        vec!["crates/x/src/f.rs:2: [unsafe] `unsafe` without a `// SAFETY:` comment immediately above"]
    );

    let good = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid for reads.
    unsafe { *p }
}
";
    assert!(passes::unsafe_audit(&parse(good), true).is_empty());
}

#[test]
fn unsafe_pass_safety_window_is_five_lines() {
    let near = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: valid pointer.
    let q = p;
    let r = q;
    unsafe { *r }
}
";
    assert!(passes::unsafe_audit(&parse(near), true).is_empty());
    let far = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: valid pointer.
    let a = 1;
    let b = 2;
    let c = 3;
    let d = 4;
    let e = 5;
    unsafe { *p }
}
";
    assert_eq!(passes::unsafe_audit(&parse(far), true).len(), 1);
}

// ---------------------------------------------------------------- fsync

#[test]
fn fsync_pass_flags_visible_mutation_before_the_barrier() {
    let src = "\
impl D {
    fn append(&mut self) -> Result<(), E> {
        self.storage.append(WAL_BLOB, &bytes)?;
        self.seq += 1;
        self.storage.sync(WAL_BLOB)?;
        Ok(())
    }
}
";
    let diags = passes::fsync_order(&parse(src));
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:4: [fsync] `append` mutates visible state (`self.seq`) after \
             the WAL append on line 3 without an intervening fsync-family call"
        ]
    );
}

#[test]
fn fsync_pass_flags_state_apply_before_the_barrier() {
    let src = "\
fn append_many(&mut self) -> Result<(), E> {
    self.storage.append(WAL_BLOB, &bytes)?;
    self.engine.append(&mut self.state, log)?;
    self.storage.sync(WAL_BLOB)?;
    Ok(())
}
";
    let diags = passes::fsync_order(&parse(src));
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:3: [fsync] `append_many` applies state (`.append(…)`) after \
             the WAL append on line 2 without an intervening fsync-family call"
        ]
    );
}

#[test]
fn fsync_pass_accepts_the_durable_before_visible_shape() {
    let src = "\
fn append(&mut self) -> Result<(), E> {
    self.storage.append(WAL_BLOB, &bytes)?;
    self.storage.sync(WAL_BLOB)?;
    self.seq += 1;
    self.engine.append(&mut self.state, log)?;
    Ok(())
}
";
    assert!(passes::fsync_order(&parse(src)).is_empty());
}

#[test]
fn fsync_pass_treats_write_atomic_as_a_barrier_and_reads_as_harmless() {
    let src = "\
fn checkpoint(&mut self) -> Result<(), E> {
    self.storage.append(WAL_BLOB, &bytes)?;
    let n = self.seq;
    let eq = self.seq == n;
    self.storage.write_atomic(SNAPSHOT_BLOB, &snap)?;
    self.seq = n + 1;
    Ok(())
}
";
    assert!(passes::fsync_order(&parse(src)).is_empty());
}

#[test]
fn fsync_pass_accepts_clone_and_swap_since_the_copy_is_not_visible() {
    // Validation by applying to a scratch copy never touches `self.state`
    // before the barrier (it costs a clone, which is not this pass's
    // business).
    let src = "\
fn append_many(&mut self, logs: &[UpdateLog]) -> Result<(), E> {
    let mut scratch = self.state.clone();
    for log in logs {
        self.engine.append(&mut scratch, log)?;
    }
    self.storage.append(WAL_BLOB, &bytes)?;
    self.storage.sync(WAL_BLOB)?;
    self.seq = seq;
    self.state = scratch;
    Ok(())
}
";
    assert!(passes::fsync_order(&parse(src)).is_empty());
}

#[test]
fn fsync_pass_flags_the_undo_log_shape_that_applies_before_the_wal_append() {
    let src = "\
fn append(&mut self, log: &UpdateLog) -> Result<(), E> {
    let undo = self.state.undo_log(log);
    self.engine.append(&mut self.state, log)?;
    self.seq += 1;
    if self.storage.append(WAL_BLOB, &bytes).is_err() {
        self.state = undo.roll_back();
    }
    self.storage.sync(WAL_BLOB)?;
    Ok(())
}
";
    let diags = passes::fsync_order(&parse(src));
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:3: [fsync] `append` applies state (`.append(…)`) before the \
             WAL append on line 5 is written and fenced",
            "crates/x/src/f.rs:4: [fsync] `append` mutates visible state (`self.seq`) before \
             the WAL append on line 5 is written and fenced",
            "crates/x/src/f.rs:6: [fsync] `append` mutates visible state (`self.state`) after \
             the WAL append on line 5 without an intervening fsync-family call",
        ]
    );
}

// ------------------------------------------------------------------ api

#[test]
fn api_pass_forbids_sibling_suffixes_on_pub_fns() {
    let opts = ApiOptions {
        forbid_siblings: true,
        require_docs: false,
    };
    let bad = "\
pub fn eval(root: NodeId) -> u32 { walk(root, 1) }
pub fn eval_par(root: NodeId, threads: usize) -> u32 { walk(root, threads) }
";
    let diags = passes::api_discipline(&parse(bad), opts);
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:2: [api] public fn `eval_par` is a `_par` sibling: keep one \
             function per operation and pass the shared state in"
        ]
    );
    for suffix in config::SIBLING_SUFFIXES {
        let src = format!("pub fn eval{suffix}() {{}}\n");
        assert_eq!(passes::api_discipline(&parse(&src), opts).len(), 1, "{src}");
    }

    // A memo-allocating pub fn needs no `_in` sibling, and a plain `_in`
    // (the memo is the context, passed in) is fine.
    let good = "\
pub fn eval(root: NodeId) -> u32 {
    let mut memo = DenseMemo::new();
    walk(root, &mut memo)
}
pub fn nf_in(root: NodeId, memo: &mut NfMemo) -> u32 { walk(root, memo) }
";
    assert!(passes::api_discipline(&parse(good), opts).is_empty());
}

#[test]
fn api_pass_ignores_private_fns_and_memo_free_bodies() {
    let opts = ApiOptions {
        forbid_siblings: true,
        require_docs: false,
    };
    let src = "\
fn run_scoped_in() {}
pub(crate) fn eval_batch_in() {}
pub fn no_memo(x: u32) -> u32 { x + 1 }
#[cfg(test)]
mod tests {
    pub fn helper_par() {}
}
";
    assert!(passes::api_discipline(&parse(src), opts).is_empty());
}

#[test]
fn api_pass_requires_rustdoc_on_public_items() {
    let opts = ApiOptions {
        forbid_siblings: false,
        require_docs: true,
    };
    let bad = "pub fn f() {}\npub struct S;\n";
    let diags = passes::api_discipline(&parse(bad), opts);
    assert_eq!(
        rendered(&diags),
        vec![
            "crates/x/src/f.rs:1: [api] public fn `f` has no rustdoc",
            "crates/x/src/f.rs:2: [api] public struct `S` has no rustdoc",
        ]
    );

    let good = "\
/// Does the thing.
pub fn f() {}
/// Holds the thing.
#[derive(Debug)]
pub struct S;
#[doc = \"attribute form\"]
pub enum E { A }
pub mod outline;
pub(crate) fn not_public_api() {}
";
    assert!(passes::api_discipline(&parse(good), opts).is_empty());
}

// ----------------------------------------------------- zone map plumbing

#[test]
fn check_file_applies_the_zone_map() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    // In a declared no-panic zone: flagged.
    let in_zone = check_file("crates/service/src/proto.rs", src);
    assert_eq!(in_zone.len(), 1, "diags: {:?}", rendered(&in_zone));
    // Outside every zone (workload crate has no panic/doc/naming rules).
    assert!(check_file("crates/workload/src/lib.rs", src).is_empty());
}

#[test]
fn check_file_zones_the_session_loop() {
    // net.rs frames bytes a peer chose: slicing the read buffer at the
    // newline must go through `get`.
    let src = "\
fn read_frame(buf: &[u8], at: usize) -> &[u8] {
    &buf[..at]
}
";
    assert_eq!(
        rendered(&check_file("crates/service/src/net.rs", src)),
        vec!["crates/service/src/net.rs:2: [panic] direct slice/array indexing in a no-panic zone (use `get`)"]
    );
    let good = "fn read_frame(buf: &[u8], at: usize) -> &[u8] { buf.get(..at).unwrap_or(buf) }";
    assert!(check_file("crates/service/src/net.rs", good).is_empty());
}

#[test]
fn check_file_scopes_snapshot_zone_to_decode() {
    let src = "\
pub fn encode(v: &[u32]) -> u32 { v[0] }
pub fn decode(v: &[u32]) -> u32 { v[0] }
";
    let diags = check_file("crates/storage/src/snapshot.rs", src);
    let panics: Vec<_> = diags
        .iter()
        .filter(|d| d.pass == uprov_lint::diag::Pass::Panic)
        .collect();
    assert_eq!(panics.len(), 1);
    assert_eq!(panics[0].line, 2, "only the decode half is a no-panic zone");
}

#[test]
fn check_file_reports_unlexable_source_as_a_finding() {
    let diags = check_file("crates/service/src/proto.rs", "fn f() { \"unterminated }");
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.starts_with("file does not lex:"));
}

#[test]
fn config_zone_paths_exist_on_disk() {
    // The zone map is only as good as its paths: a rename that leaves a
    // stale entry silently un-lints the file. CARGO_MANIFEST_DIR is
    // crates/lint, so the workspace root is two levels up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let all = config::NO_PANIC_ZONES
        .iter()
        .map(|&(p, _)| p)
        .chain(config::UNSAFE_ALLOWLIST.iter().copied())
        .chain(config::FSYNC_ZONES.iter().copied());
    for rel in all {
        assert!(
            root.join(rel).is_file(),
            "zone map names a missing file: {rel}"
        );
    }
}

#[test]
fn json_report_escapes_and_round_trips_shape() {
    let d = Diagnostic::new(
        uprov_lint::diag::Pass::Api,
        "crates/x/src/f.rs",
        3,
        "message with \"quotes\" and a\nnewline",
    );
    assert_eq!(
        d.to_json(),
        "{\"pass\":\"api\",\"file\":\"crates/x/src/f.rs\",\"line\":3,\
         \"message\":\"message with \\\"quotes\\\" and a\\nnewline\"}"
    );
}
