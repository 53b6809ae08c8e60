//! The experiment binaries' command line, end to end: exactly `--quick`,
//! `--jobs N` and `--trace-out PATH` are accepted; anything else exits 2
//! with an `error:` line on stderr before any output. Driven through
//! `fig01_dwdm_trend`, whose experiment is a static table, so a
//! mis-parsed run would finish at once instead of hanging the test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fig01(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig01_dwdm_trend"))
        .args(args)
        .output()
        .expect("spawn fig01_dwdm_trend")
}

fn assert_rejected(args: &[&str]) {
    let out = fig01(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} must print no output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn a_jobs_value_that_is_not_a_count_is_rejected() {
    assert_rejected(&["--quick", "--jobs", "two"]);
}

#[test]
fn a_misspelt_quick_is_rejected() {
    assert_rejected(&["--quik"]);
}

#[test]
fn a_trace_out_without_a_path_is_rejected() {
    assert_rejected(&["--quick", "--trace-out"]);
}

#[test]
fn an_unknown_flag_is_rejected() {
    assert_rejected(&["--quick", "--bogus", "1"]);
}

#[test]
fn the_accepted_forms_print_the_golden_table_and_trace() {
    let trace = std::env::temp_dir().join(format!("quartz-cli-args-{}.ndjson", std::process::id()));
    let trace_arg = format!("--trace-out={}", trace.display());
    let out = fig01(&["--quick", "--jobs=1", &trace_arg]);
    assert!(out.status.success());
    let golden = std::fs::read(repo_file("results/quick/fig01_dwdm_trend.txt")).unwrap();
    assert_eq!(out.stdout, golden);
    let written = std::fs::read(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    let golden = std::fs::read(repo_file("results/quick_trace/fig01_dwdm_trend.ndjson")).unwrap();
    assert_eq!(written, golden);
}
