//! Per-rule fixture suite: every rule family has a positive fixture (each
//! seeded violation is found) and a negative fixture (every sanctioned
//! idiom stays clean). Fixtures live under `fixtures/` and are linted at a
//! chosen workspace-relative path, since several rules are path-sensitive.

use adc_conformance::lint_source;

fn fixture(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

#[test]
fn determinism_violations_are_found() {
    let out = lint_source(
        "crates/demo/src/module.rs",
        &fixture("determinism/violation.rs"),
    );
    assert_eq!(out.len(), 2, "method iteration + direct for loop: {out:#?}");
    assert!(out.iter().all(|f| f.rule == "determinism/unordered-iter"));
}

#[test]
fn determinism_sanctioned_idioms_are_clean() {
    let out = lint_source(
        "crates/demo/src/module.rs",
        &fixture("determinism/clean.rs"),
    );
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn concurrency_violations_are_found() {
    let out = lint_source(
        "crates/demo/src/module.rs",
        &fixture("concurrency/violation.rs"),
    );
    // `atomic` + `AtomicUsize` on the use line, `Mutex` use line, both
    // constructor sites, and `std::thread`.
    assert_eq!(out.len(), 6, "{out:#?}");
    assert!(out.iter().all(|f| f.rule == "concurrency/confinement"));
}

#[test]
fn concurrency_is_allowed_in_the_blessed_kernels() {
    // The same violating source is clean when it lives in an allowlisted
    // kernel file: confinement is a property of the path.
    let out = lint_source(
        "crates/evidence/src/sweep.rs",
        &fixture("concurrency/violation.rs"),
    );
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn concurrency_sanctioned_idioms_are_clean() {
    let out = lint_source(
        "crates/demo/src/module.rs",
        &fixture("concurrency/clean.rs"),
    );
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn panic_violations_are_found() {
    let out = lint_source("crates/demo/src/module.rs", &fixture("panic/violation.rs"));
    assert_eq!(
        out.len(),
        4,
        "unwrap + expect + panic! + unreachable!: {out:#?}"
    );
    assert!(out.iter().all(|f| f.rule == "panic/forbidden"));
}

#[test]
fn panic_sanctioned_idioms_are_clean() {
    let out = lint_source("crates/demo/src/module.rs", &fixture("panic/clean.rs"));
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn env_violations_are_found() {
    let out = lint_source("crates/demo/src/module.rs", &fixture("env/violation.rs"));
    assert_eq!(out.len(), 2, "std::env::var + env::var_os: {out:#?}");
    assert!(out.iter().all(|f| f.rule == "env/parsed-env"));
}

#[test]
fn env_sanctioned_idioms_are_clean() {
    let out = lint_source("crates/demo/src/module.rs", &fixture("env/clean.rs"));
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn unsafety_violations_are_found() {
    let out = lint_source("crates/demo/src/lib.rs", &fixture("unsafety/violation.rs"));
    let rules: Vec<&str> = out.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"unsafe/forbid-missing"), "{out:#?}");
    assert!(rules.contains(&"unsafe/usage"), "{out:#?}");
}

#[test]
fn unsafety_compliant_root_is_clean() {
    let out = lint_source("crates/demo/src/lib.rs", &fixture("unsafety/clean.rs"));
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn malformed_annotation_is_itself_a_finding() {
    // A reasonless allow is worse than no allow: it silences without
    // recording why. The annotation checker runs even out of scope.
    let out = lint_source(
        "crates/demo/src/module.rs",
        "fn f(a: Option<u32>) -> u32 {\n    // conformance: allow(panic)\n    a.unwrap()\n}\n",
    );
    assert!(
        out.iter().any(|f| f.rule == "annotation/malformed"),
        "{out:#?}"
    );
}
