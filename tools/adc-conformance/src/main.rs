//! `adc-conformance` CLI.
//!
//! ```text
//! adc-conformance check [--deny] [--github] [--root <path>]
//! adc-conformance rules
//! ```
//!
//! `check` lints the workspace and prints one line per finding
//! (`path:line:col: [rule] message`). Without `--deny` the run is advisory
//! (exit 0 either way); with `--deny` any finding makes the exit code 1 —
//! that is the CI mode. `--github` additionally emits GitHub Actions
//! `::error` annotations so hits render inline in the job summary.

#![forbid(unsafe_code)]

use adc_conformance::{lint_workspace, workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: adc-conformance <check [--deny] [--github] [--root <path>] | rules>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            print!("{}", rule_table());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut deny = false;
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--github" => github = true,
            "--root" => match it.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--root needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(err) => {
                    eprintln!("cannot determine working directory: {err}");
                    return ExitCode::from(2);
                }
            };
            match workspace::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "no workspace root ([workspace] in Cargo.toml) above {}; \
                         pass --root explicitly",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let (findings, scanned) = match lint_workspace(&root) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("failed to lint workspace at {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    for finding in &findings {
        println!("{finding}");
        if github {
            println!("{}", finding.github_annotation());
        }
    }
    let files_hit = {
        let mut paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        paths.dedup();
        paths.len()
    };
    println!(
        "adc-conformance: {} finding(s) in {} file(s) ({} files scanned, mode: {})",
        findings.len(),
        files_hit,
        scanned,
        if deny { "deny" } else { "advisory" }
    );
    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn rule_table() -> String {
    "\
determinism/unordered-iter  hash-order iteration in `#![doc = \"conformance: ordered-output\"]` modules; allow(unordered)
concurrency/confinement     threads/atomics/locks outside crates/evidence/src/{sweep,sync}.rs; allow(concurrency)
panic/forbidden             unwrap/expect/panic!-family in library paths; allow(panic)
env/parsed-env              raw env::var outside adc_bench::parsed_env/raw_env; allow(env)
unsafe/forbid-missing       crate root without #![forbid(unsafe_code)]; no allow
unsafe/usage                `unsafe` token anywhere in scope; no allow
annotation/malformed        conformance annotation without a rule or a reason; no allow
"
    .to_string()
}
