//! `uprov-lint`: the in-tree invariant lint engine.
//!
//! The system stakes claims no test can exhaustively check — a *total*
//! panic-free protocol parser, *durable-before-visible* write ordering,
//! recovery that returns typed errors instead of panicking. Those are
//! exactness guarantees in the spirit of the paper's condensed
//! representations: the compact form must preserve every answer, so the
//! code paths that maintain it must be mechanically auditable, not just
//! spot-tested. This crate is the static half of that audit: a
//! self-built, string/comment-aware token scanner ([`lexer`]) and a
//! [pass pipeline](passes) that runs over every crate in the workspace,
//! driven by the explicit zone map in [`config`].
//!
//! Run it as CI does:
//!
//! ```text
//! cargo run -p uprov-lint -- check            # human-readable, exit 1 on findings
//! cargo run -p uprov-lint -- check --json     # one JSON object per finding
//! ```
//!
//! Or from code — fixture tests drive single passes on inline sources:
//!
//! ```
//! use uprov_lint::{check_file, source::SourceFile, passes};
//!
//! let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
//! let sf = SourceFile::parse("crates/service/src/proto.rs", src).unwrap();
//! let diags = passes::panic_freedom(&sf, &[]);
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].line, 1);
//! // `check_file` applies the zone map: the same source outside a
//! // no-panic zone is clean.
//! assert!(check_file("crates/workload/src/lib.rs", src).is_empty());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Pass};
use passes::ApiOptions;
use source::SourceFile;

/// Lints one file's source under the zone map in [`config`], selecting
/// passes by its workspace-relative `rel_path` (always `/`-separated).
/// A file the scanner cannot lex yields a single diagnostic rather than
/// an error: unlexable source is a finding.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let sf = match SourceFile::parse(rel_path, src) {
        Ok(sf) => sf,
        Err(e) => {
            return vec![Diagnostic::new(
                Pass::Panic,
                rel_path,
                e.line,
                format!("file does not lex: {}", e.message),
            )]
        }
    };
    let mut out = Vec::new();
    if let Some((_, fns)) = config::NO_PANIC_ZONES.iter().find(|(p, _)| *p == rel_path) {
        out.extend(passes::panic_freedom(&sf, fns));
    }
    out.extend(passes::unsafe_audit(
        &sf,
        config::UNSAFE_ALLOWLIST.contains(&rel_path),
    ));
    if config::FSYNC_ZONES.contains(&rel_path) {
        out.extend(passes::fsync_order(&sf));
    }
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or_default();
    let opts = ApiOptions {
        forbid_siblings: config::ONE_FN_CRATES.contains(&crate_name),
        require_docs: config::RUSTDOC_CRATES.contains(&crate_name),
    };
    if opts.forbid_siblings || opts.require_docs {
        out.extend(passes::api_discipline(&sf, opts));
    }
    out
}

/// Walks `root/crates/*/src/**/*.rs` and lints every file, returning the
/// combined diagnostics sorted by file then line. Benches, integration
/// tests and fixtures are out of scope by construction — they live
/// outside `src/` and are expected to unwrap freely.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src_dir = entry?.path().join("src");
        if src_dir.is_dir() {
            collect_rs(&src_dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = rel_path(root, &path);
        let src = std::fs::read_to_string(&path)?;
        out.extend(check_file(&rel, &src));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators (the form the zone map and
/// reports use on every platform).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
