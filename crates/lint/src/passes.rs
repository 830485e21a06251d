//! The pass pipeline: four token-level checks, each enforcing one
//! invariant the system states in prose elsewhere.
//!
//! | pass     | invariant                                                        |
//! |----------|------------------------------------------------------------------|
//! | `panic`  | declared no-panic zones contain no panicking construct           |
//! | `unsafe` | every `unsafe` is allowlisted *and* carries a `// SAFETY:` note  |
//! | `fsync`  | no visible-state mutation until a WAL append's barrier returned  |
//! | `api`    | one public fn per operation (no sibling suffix); pub items doc   |
//!
//! Every pass skips `#[cfg(test)]` / `#[test]` regions (tests unwrap
//! freely, on purpose). Only the `panic` pass has a per-site escape
//! hatch — `// lint: allow(panic, reason = "…")` with a mandatory
//! non-empty reason; the others are governed by the allowlists in
//! [`crate::config`], so loosening them is a reviewed config edit, not a
//! drive-by comment.

use crate::config::{FSYNC_METHODS, SIBLING_SUFFIXES};
use crate::diag::{Diagnostic, Pass};
use crate::source::{Allow, SourceFile};

/// Method names denied in no-panic zones when called (`.name(`).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macro names denied in no-panic zones when invoked (`name!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Pass 1 — panic-freedom zones. Denies `unwrap`/`expect` calls,
/// panicking macros, and direct slice/array indexing. A site can be
/// excused with `// lint: allow(panic, reason = "…")` directly above or
/// trailing the line; an annotation without a non-empty reason is itself
/// a diagnostic.
///
/// `fns` narrows the zone to the named functions (by line extent); an
/// empty slice means the whole file — see
/// [`crate::config::NO_PANIC_ZONES`].
pub fn panic_freedom(sf: &SourceFile<'_>, fns: &[&str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ranges = (!fns.is_empty()).then(|| sf.fn_line_ranges(fns));
    let in_zone = |line: u32| match &ranges {
        None => true,
        Some(rs) => rs.iter().any(|&(lo, hi)| (lo..=hi).contains(&line)),
    };
    let mut flag = |line: u32, message: String| match sf.allowed(line, "panic") {
        Allow::Allowed => {}
        Allow::MissingReason => out.push(Diagnostic::new(
            Pass::Panic,
            &sf.path,
            line,
            format!("{message} (allow annotation must carry a non-empty reason)"),
        )),
        Allow::None => out.push(Diagnostic::new(Pass::Panic, &sf.path, line, message)),
    };
    for (i, tok) in sf.tokens.iter().enumerate() {
        if sf.in_test[i] || tok.is_comment() || !in_zone(tok.line) {
            continue;
        }
        let prev = sf.prev_code(i);
        let next = sf.next_code(i);
        let prev_is = |p: char| prev.is_some_and(|j| sf.tokens[j].is_punct(p));
        let next_is = |p: char| next.is_some_and(|j| sf.tokens[j].is_punct(p));
        if PANIC_METHODS.contains(&tok.text) && prev_is('.') && next_is('(') {
            flag(
                tok.line,
                format!("call to `{}` in a no-panic zone", tok.text),
            );
        } else if PANIC_MACROS.contains(&tok.text) && next_is('!') {
            flag(
                tok.line,
                format!("`{}!` invocation in a no-panic zone", tok.text),
            );
        } else if tok.is_punct('[') {
            // An index expression: `expr[…]` — the opening bracket
            // follows a value (identifier, closing bracket/paren, `?`,
            // or a literal). Types, attributes (`#[`), macros (`vec![`)
            // and slice patterns all follow other punctuation and stay
            // legal.
            let indexes = prev.is_some_and(|j| {
                let p = &sf.tokens[j];
                matches!(
                    p.kind,
                    crate::lexer::TokKind::Ident | crate::lexer::TokKind::Str
                ) || p.is_punct(']')
                    || p.is_punct(')')
                    || p.is_punct('?')
            });
            if indexes {
                flag(
                    tok.line,
                    "direct slice/array indexing in a no-panic zone (use `get`)".to_owned(),
                );
            }
        }
    }
    out
}

/// Pass 2 — unsafe audit. Outside the allowlist, `unsafe` is denied
/// outright. Inside it, every `unsafe` token must have a `// SAFETY:`
/// comment on its line or within the 5 lines above (the window absorbs
/// multi-line statements between the comment and the keyword).
pub fn unsafe_audit(sf: &SourceFile<'_>, allowlisted: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, tok) in sf.tokens.iter().enumerate() {
        if sf.in_test[i] || !tok.is_ident("unsafe") {
            continue;
        }
        if !allowlisted {
            out.push(Diagnostic::new(
                Pass::Unsafe,
                &sf.path,
                tok.line,
                "`unsafe` in a file outside the unsafe allowlist \
                 (add it to config::UNSAFE_ALLOWLIST deliberately)",
            ));
        } else if !sf.comment_within(tok.line, 5, "SAFETY:") {
            out.push(Diagnostic::new(
                Pass::Unsafe,
                &sf.path,
                tok.line,
                "`unsafe` without a `// SAFETY:` comment immediately above",
            ));
        }
    }
    out
}

/// Pass 3 — durability ordering. Within each function of a zone file
/// that contains a WAL append (`.append(WAL_BLOB, …)`), no visible-state
/// mutation may occur until an fsync-family call ([`FSYNC_METHODS`]) has
/// fenced that append — neither between the two nor *before* the WAL
/// append (apply-then-log-then-roll-back, the undo-log shape, is visible
/// before it is durable as well). A mutation is an assignment to
/// `self.state` / `self.seq`, or an apply: `.append(… state …)` ahead of
/// the WAL append (an `.append` to a scratch copy touches nothing
/// visible), any second `.append(…)` once the WAL append is in flight.
/// This is the static half of the durable-before-visible contract.
pub fn fsync_order(sf: &SourceFile<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &sf.tokens;
    let mut i = 0;
    while i < toks.len() {
        if sf.in_test[i] || !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let name_ix = match sf.next_code(i) {
            Some(j) if toks[j].kind == crate::lexer::TokKind::Ident => j,
            _ => {
                i += 1;
                continue;
            }
        };
        let fn_name = toks[name_ix].text;
        // Find the body: first top-level `{` before any top-level `;`.
        let mut depth = 0i64;
        let mut body: Option<(usize, usize)> = None;
        let mut j = name_ix;
        while j < toks.len() {
            match toks[j].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let mut d = 0i64;
                    let mut k = j;
                    while k < toks.len() {
                        match toks[k].text {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    body = Some((j, k));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            i = name_ix + 1;
            continue;
        };
        check_fn_order(sf, fn_name, open, close, &mut out);
        i = close + 1;
    }
    out
}

/// Where a function stands relative to its WAL append.
#[derive(Clone, Copy)]
enum Barrier {
    /// The WAL append on this line is still ahead.
    Ahead(u32),
    /// The WAL append on this line awaits its fsync-family call.
    Pending(u32),
    /// Fenced: the append is durable, mutations are legal.
    Passed,
}

impl Barrier {
    /// What a visible-state mutation at this point violates, if anything.
    fn unfenced(self) -> Option<String> {
        match self {
            Barrier::Ahead(line) => Some(format!(
                "before the WAL append on line {line} is written and fenced"
            )),
            Barrier::Pending(line) => Some(format!(
                "after the WAL append on line {line} without an intervening fsync-family call"
            )),
            Barrier::Passed => None,
        }
    }
}

fn check_fn_order(
    sf: &SourceFile<'_>,
    fn_name: &str,
    open: usize,
    close: usize,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &sf.tokens;
    let body = open..=close.min(toks.len().saturating_sub(1));
    // `.name(` at token `i`, and the index of its opening parenthesis.
    let call_at = |i: usize| {
        let dotted = sf.prev_code(i).is_some_and(|j| toks[j].is_punct('.'));
        sf.next_code(i).filter(|&j| dotted && toks[j].is_punct('('))
    };
    let wal_append_at = |i: usize| {
        toks[i].is_ident("append")
            && call_at(i)
                .and_then(|paren| sf.next_code(paren))
                .is_some_and(|arg| toks[arg].is_ident("WAL_BLOB"))
    };
    // Functions that never append to the WAL have no barrier to respect.
    let Some(first) = body
        .clone()
        .find(|&i| !toks[i].is_comment() && wal_append_at(i))
    else {
        return;
    };
    let mut barrier = Barrier::Ahead(toks[first].line);
    for i in body {
        let t = &toks[i];
        if t.is_comment() {
            continue;
        }
        if t.is_ident("append") {
            let Some(paren) = call_at(i) else { continue };
            if wal_append_at(i) {
                barrier = Barrier::Pending(t.line);
                continue;
            }
            // `engine.append(…)` applies replay state. Ahead of the WAL
            // append only an apply that names `state` counts.
            let applies = !matches!(barrier, Barrier::Ahead(_))
                || call_args(toks, paren).any(|a| a.is_ident("state"));
            if let (true, Some(unfenced)) = (applies, barrier.unfenced()) {
                out.push(Diagnostic::new(
                    Pass::Fsync,
                    &sf.path,
                    t.line,
                    format!("`{fn_name}` applies state (`.append(…)`) {unfenced}"),
                ));
            }
            continue;
        }
        // Fsync family fences a pending WAL append.
        if FSYNC_METHODS.contains(&t.text) && call_at(i).is_some() {
            if matches!(barrier, Barrier::Pending(_)) {
                barrier = Barrier::Passed;
            }
            continue;
        }
        // `self.state = …` / `self.seq += …` — visible-state mutation.
        if t.is_ident("self") {
            let dot = sf.next_code(i).filter(|&j| toks[j].is_punct('.'));
            let field = dot.and_then(|j| sf.next_code(j));
            let field_name = field.map(|j| toks[j].text);
            if matches!(field_name, Some("state" | "seq")) {
                let after = field.and_then(|j| sf.next_code(j));
                let after2 = after.and_then(|j| sf.next_code(j));
                let assigns = match after.map(|j| toks[j].text) {
                    Some("=") => after2.is_none_or(|j| toks[j].text != "="),
                    Some("+" | "-") => after2.is_some_and(|j| toks[j].text == "="),
                    _ => false,
                };
                if let (true, Some(unfenced)) = (assigns, barrier.unfenced()) {
                    out.push(Diagnostic::new(
                        Pass::Fsync,
                        &sf.path,
                        t.line,
                        format!(
                            "`{fn_name}` mutates visible state (`self.{}`) {unfenced}",
                            field_name.unwrap_or_default()
                        ),
                    ));
                }
            }
        }
    }
}

/// The tokens between the parenthesis at `paren` and its match.
fn call_args<'t, 's>(
    toks: &'t [crate::lexer::Token<'s>],
    paren: usize,
) -> impl Iterator<Item = &'t crate::lexer::Token<'s>> {
    let mut depth = 0i64;
    toks.iter().skip(paren).take_while(move |t| {
        match t.text {
            "(" => depth += 1,
            ")" => depth -= 1,
            _ => {}
        }
        depth > 0
    })
}

/// Options for [`api_discipline`], derived from the crate a file belongs
/// to (see [`crate::config`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ApiOptions {
    /// Deny public fns named as a sibling of another ([`SIBLING_SUFFIXES`]).
    pub forbid_siblings: bool,
    /// Require rustdoc on public items.
    pub require_docs: bool,
}

/// Pass 4 — API discipline. With `forbid_siblings`, a `pub fn` whose name
/// ends in one of [`SIBLING_SUFFIXES`] is a finding: each operation has
/// one public function, and what such a suffix used to select is passed
/// in instead. With `require_docs`, every public item must carry
/// rustdoc (`///`, `//!` or `#[doc…]`); outline `pub mod x;`
/// declarations are exempt — their file-level `//!` docs live in `x.rs`.
pub fn api_discipline(sf: &SourceFile<'_>, opts: ApiOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if opts.require_docs {
        check_docs(sf, &mut out);
    }
    if opts.forbid_siblings {
        check_siblings(sf, &mut out);
    }
    out
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union",
];

fn check_docs(sf: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &sf.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if sf.in_test[i] || tok.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        if !ITEM_KEYWORDS.contains(&tok.text) {
            continue;
        }
        // Directly preceded by bare `pub` (pub(crate)/pub(super) end in
        // `)` and are not public API).
        let Some(pub_ix) = sf.prev_code(i).filter(|&j| toks[j].is_ident("pub")) else {
            continue;
        };
        // `pub mod x;` — documented by `//!` in x.rs; only inline
        // `pub mod x { … }` needs docs here.
        if tok.text == "mod" {
            let semi = sf
                .next_code(i)
                .and_then(|j| sf.next_code(j))
                .is_some_and(|j| toks[j].is_punct(';'));
            if semi {
                continue;
            }
        }
        if !has_doc(sf, pub_ix) {
            let name = sf.next_code(i).map(|j| toks[j].text).unwrap_or("<unnamed>");
            out.push(Diagnostic::new(
                Pass::Api,
                &sf.path,
                tok.line,
                format!("public {} `{}` has no rustdoc", tok.text, name),
            ));
        }
    }
}

/// True if the item whose `pub` sits at `pub_ix` is documented: walking
/// back over attributes, the nearest token is a doc comment (or a
/// `#[doc…]` attribute).
fn has_doc(sf: &SourceFile<'_>, pub_ix: usize) -> bool {
    let toks = &sf.tokens;
    let mut i = pub_ix;
    loop {
        let Some(j) = i.checked_sub(1) else {
            return false;
        };
        let t = &toks[j];
        if t.is_comment() {
            if t.text.starts_with("///") || t.text.starts_with("//!") || t.text.starts_with("/**") {
                return true;
            }
            i = j;
            continue;
        }
        // Walk over a preceding attribute `#[…]` (or inner `#![…]`).
        if t.is_punct(']') {
            let Some(open) = open_of(toks, j) else {
                return false;
            };
            if toks[open + 1..j].iter().any(|t| t.is_ident("doc")) {
                return true;
            }
            if open >= 1 && toks[open - 1].is_punct('#') {
                i = open - 1;
                continue;
            }
            if open >= 2 && toks[open - 1].is_punct('!') && toks[open - 2].is_punct('#') {
                i = open - 2;
                continue;
            }
            return false;
        }
        return false;
    }
}

/// Index of the `[` matching the `]` at `close_ix`.
fn open_of(toks: &[crate::lexer::Token<'_>], close_ix: usize) -> Option<usize> {
    let mut depth = 0i64;
    for j in (0..=close_ix).rev() {
        if toks[j].is_punct(']') {
            depth += 1;
        } else if toks[j].is_punct('[') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn check_siblings(sf: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &sf.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if sf.in_test[i] || !tok.is_ident("fn") {
            continue;
        }
        if !sf.prev_code(i).is_some_and(|j| toks[j].is_ident("pub")) {
            continue;
        }
        let Some(name) = sf.next_code(i).map(|j| &toks[j]) else {
            continue;
        };
        if let Some(suffix) = SIBLING_SUFFIXES.iter().find(|s| name.text.ends_with(*s)) {
            out.push(Diagnostic::new(
                Pass::Api,
                &sf.path,
                name.line,
                format!(
                    "public fn `{}` is a `{suffix}` sibling: keep one function per \
                     operation and pass the shared state in",
                    name.text
                ),
            ));
        }
    }
}
