//! `concurrency/confinement` — concurrency primitives stay in the blessed
//! modules.
//!
//! The determinism contract rests on exactly one parallel kernel
//! (`crates/evidence/src/sweep.rs`) plus the `adc_sync` schedule shim
//! (`crates/evidence/src/sync.rs`) that audits it. Ad-hoc
//! `std::thread`, `Atomic*`, `Mutex`, or channel use anywhere else would
//! create a scheduling side channel the differential tests do not cover, so
//! it is denied outright. Test-gated code is exempt (tests may drive
//! threads), and `// conformance: allow(concurrency) — <why>` exists for a
//! future, deliberate extension of the allowlist.

use crate::rules::CONCURRENCY_ALLOWLIST;
use crate::source::SourceFile;
use crate::Finding;

const RULE: &str = "concurrency/confinement";

/// Exact identifiers that mark synchronisation primitives.
const SYNC_IDENTS: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "OnceLock", "mpsc", "atomic", "rayon",
];

/// Run this rule over `file`, appending findings to `out`.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if CONCURRENCY_ALLOWLIST.contains(&file.rel_path.as_str()) {
        return;
    }
    for i in 0..file.syntax.len() {
        let Some(tok) = file.syn(i) else { break };
        if file.in_test(tok.line) || file.is_allowed("concurrency", tok.line) {
            continue;
        }
        let flagged = SYNC_IDENTS.contains(&tok.text.as_str())
            || tok.text.starts_with("Atomic")
            // `thread` only as a path head (`thread::spawn`, `std::thread`),
            // never as a plain variable name.
            || (tok.text == "thread"
                && (file.is_punct(i + 1, ':')
                    || (i >= 3
                        && file.is_ident(i - 3, "std")
                        && file.is_punct(i - 2, ':')
                        && file.is_punct(i - 1, ':'))));
        if flagged {
            out.push(file.finding_at(
                i,
                RULE,
                format!(
                    "concurrency primitive `{}` outside the blessed modules \
                     ({}); route parallelism through the sweep kernel or \
                     extend the adc_sync allowlist deliberately",
                    tok.text,
                    CONCURRENCY_ALLOWLIST.join(", ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_primitives_outside_allowlist() {
        let out = findings(
            "crates/core/src/miner.rs",
            "use std::sync::atomic::AtomicUsize;\nuse std::thread;\nfn f() { let m = std::sync::Mutex::new(0); }\n",
        );
        // `atomic` + `AtomicUsize` + `thread` + `Mutex`.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn allowlisted_files_are_clean() {
        let out = findings(
            "crates/evidence/src/sweep.rs",
            "use std::sync::atomic::AtomicUsize;\nuse std::thread;\n",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn thread_as_variable_name_is_fine() {
        let out = findings(
            "crates/core/src/miner.rs",
            "fn f(threads: usize) { let per_thread = threads * 2; }\n",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn tests_and_annotations_are_exempt() {
        let out = findings(
            "crates/core/src/miner.rs",
            "// conformance: allow(concurrency) — metrics counter, order-free by construction\nuse std::sync::atomic::AtomicU64;\n#[cfg(test)]\nmod tests {\n    use std::thread;\n}\n",
        );
        // The standalone annotation covers the `use` line; the test mod is
        // masked. But `atomic` and `AtomicU64` share one line: one allow
        // covers both.
        assert!(out.is_empty());
    }
}
