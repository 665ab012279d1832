//! The rule families. Each rule walks a [`SourceFile`]'s syntax tokens and
//! emits [`Finding`]s; test-gated lines and annotated lines are exempt
//! per-rule.
//!
//! Rule ids (used in `conformance: allow(<id's short name>)` annotations):
//!
//! | id                        | allow name    | protects                          |
//! |---------------------------|---------------|-----------------------------------|
//! | `determinism/unordered-iter` | `unordered` | ordered-output modules            |
//! | `concurrency/confinement` | `concurrency` | the blessed parallel kernel       |
//! | `panic/forbidden`         | `panic`       | the library panic surface         |
//! | `env/parsed-env`          | `env`         | the `parsed_env` hard-error gate  |
//! | `unsafe/forbid-missing`   | *(none)*      | `#![forbid(unsafe_code)]` roots   |
//! | `unsafe/usage`            | *(none)*      | no `unsafe` anywhere              |
//! | `annotation/malformed`    | *(none)*      | the escape hatches themselves     |

pub mod concurrency;
pub mod determinism;
pub mod env;
pub mod panics;
pub mod unsafety;

use crate::source::SourceFile;
use crate::Finding;

/// Paths (workspace-relative, `/`-separated) allowed to use concurrency
/// primitives: the parallel sweep kernel plus the `adc_sync` schedule shim
/// that the schedule auditor drives it through.
pub const CONCURRENCY_ALLOWLIST: &[&str] = &[
    "crates/evidence/src/sweep.rs",
    "crates/evidence/src/sync.rs",
];

/// Is this file part of the linted library surface? Crate sources under
/// `crates/*/src`, the facade `src/`, and the linter's own sources; never
/// `vendor/`, `tests/`, `benches/`, `examples/`, or fixtures.
pub fn in_library_scope(rel_path: &str) -> bool {
    let in_src = |prefix: &str| {
        rel_path.strip_prefix(prefix).is_some_and(|rest| {
            rest.split_once('/')
                .is_some_and(|(_, tail)| tail.starts_with("src/"))
        })
    };
    rel_path.starts_with("src/") || in_src("crates/") || in_src("tools/")
}

/// Run every rule applicable to `file` and append the findings.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    out.extend(file.annotation_findings.iter().cloned());
    if !in_library_scope(&file.rel_path) {
        // Out-of-scope files still get the annotation sanity check above
        // (a malformed allow in a test is as misleading as one in a lib),
        // but none of the code rules.
        return;
    }
    determinism::check(file, out);
    concurrency::check(file, out);
    panics::check(file, out);
    env::check(file, out);
    unsafety::check(file, out);
}
