//! Diagnostics: the one currency every pass trades in, with text and
//! machine-readable JSON renderings.

use std::fmt;

/// Which pass produced a diagnostic. The names double as the categories
/// accepted by the `// lint: allow(<pass>, reason = "…")` escape hatch
/// (only `panic` is escapable today; see the pass docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Panic-freedom zones: no `unwrap`/`expect`/panicking macros/direct
    /// indexing in declared no-panic regions.
    Panic,
    /// Unsafe audit: `// SAFETY:` comments required, per-file allowlist
    /// enforced.
    Unsafe,
    /// Durability ordering: no visible-state mutation between a WAL
    /// append and its fsync barrier.
    Fsync,
    /// API discipline: one public fn per operation (no sibling
    /// suffixes) and rustdoc on public items.
    Api,
}

impl Pass {
    /// The stable pass name used in reports and allow annotations.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Panic => "panic",
            Pass::Unsafe => "unsafe",
            Pass::Fsync => "fsync",
            Pass::Api => "api",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: pass, location, and what rule the source broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which pass fired.
    pub pass: Pass,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What is wrong, in one sentence.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; `file` should be workspace-relative so
    /// reports are machine-stable.
    pub fn new(pass: Pass, file: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            pass,
            file: file.to_owned(),
            line,
            message: message.into(),
        }
    }

    /// The `{"pass":…,"file":…,"line":…,"message":…}` JSON object for the
    /// machine-readable report (same tiny dialect the service protocol
    /// speaks: string escapes only where needed).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pass\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.pass,
            escape(&self.file),
            self.line,
            escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_text_and_json() {
        let d = Diagnostic::new(Pass::Panic, "crates/x/src/lib.rs", 7, "call to `unwrap`");
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: [panic] call to `unwrap`"
        );
        assert_eq!(
            d.to_json(),
            "{\"pass\":\"panic\",\"file\":\"crates/x/src/lib.rs\",\"line\":7,\
             \"message\":\"call to `unwrap`\"}"
        );
    }
}
