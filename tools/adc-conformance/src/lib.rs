//! # adc-conformance
//!
//! Workspace conformance linter for the determinism/safety contract of the
//! ADC miner: a hand-rolled lexer over the crate sources plus a handful of
//! rule families that make the *causes* of determinism violations illegal,
//! instead of waiting for a differential test to catch their effects.
//!
//! The rules (see [`rules`] for the table) enforce:
//!
//! - **determinism** — hash-container iteration must not leak hash order
//!   into the outputs of modules tagged
//!   `#![doc = "conformance: ordered-output"]`;
//! - **concurrency confinement** — threads, atomics, and locks live only in
//!   the blessed parallel sweep kernel and the `adc_sync` schedule shim;
//! - **panic surface** — no `unwrap`/`expect`/`panic!` in library paths
//!   without a reasoned `// conformance: allow(panic) — <why>` annotation;
//! - **env hygiene** — all environment reads go through
//!   `adc_bench::parsed_env`'s hard-error contract;
//! - **no unsafe** — `#![forbid(unsafe_code)]` present on every crate root,
//!   and no `unsafe` token anywhere in scope.
//!
//! The binary (`cargo run -p adc-conformance -- check --deny`) walks the
//! workspace; this library exposes the same pipeline for the fixture and
//! self-check tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

use source::SourceFile;
use std::fmt;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id, e.g. `panic/forbidden`.
    pub rule: &'static str,
    /// Human-readable explanation with the suggested remedy.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

impl Finding {
    /// GitHub Actions annotation format (`::error file=…`), so rule hits
    /// surface as inline annotations in the CI failure summary.
    pub fn github_annotation(&self) -> String {
        format!(
            "::error file={},line={},col={},title={}::{}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Lint a single file given its workspace-relative path and contents.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, src);
    let mut out = Vec::new();
    rules::check_file(&file, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Lint every in-scope file under the workspace root. Findings are sorted
/// by path, line, column, and rule, so output order is stable.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = workspace::discover(root)?;
    let scanned = files.len();
    let mut findings = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let file = SourceFile::parse(rel, &src);
        rules::check_file(&file, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok((findings, scanned))
}
