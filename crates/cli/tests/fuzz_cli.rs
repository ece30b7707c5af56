//! Golden coverage for the `dds fuzz` subcommand at the binary level:
//! help text, the deterministic seeded run summary, the unknown-subcommand
//! exit path, and the pinned minimized-repro file format. Also the spec
//! error `dds check` and `dds verify` give for a guard nested too deep.
//!
//! Snapshots live in `tests/golden/` next to this file; refresh after an
//! intentional change with:
//!
//! ```text
//! DDS_UPDATE_GOLDEN=1 cargo test -p dds_cli --test fuzz_cli
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dds() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dds"))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn updating() -> bool {
    std::env::var_os("DDS_UPDATE_GOLDEN").is_some()
}

fn compare(golden: &Path, actual: &str, hint: &str) {
    if updating() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(golden, actual).unwrap();
        return;
    }
    let want = fs::read_to_string(golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `DDS_UPDATE_GOLDEN=1 cargo test -p dds_cli --test fuzz_cli`",
            golden.display()
        )
    });
    assert_eq!(
        actual,
        want,
        "{hint} drifted from {} — if intentional, refresh with \
         `DDS_UPDATE_GOLDEN=1 cargo test -p dds_cli --test fuzz_cli`",
        golden.display()
    );
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn fuzz_help_matches_snapshot() {
    let out = dds().args(["fuzz", "--help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    compare(
        &golden_dir().join("fuzz_help.txt"),
        &stdout_of(&out),
        "dds fuzz --help",
    );
}

#[test]
fn seeded_run_summary_is_deterministic_and_matches_snapshot() {
    // Cheap classes only: the summary must stay fast in debug builds.
    let args = [
        "fuzz",
        "--seed",
        "7",
        "--iters",
        "2",
        "--max-size",
        "1",
        "--class",
        "free,equivalence,linear-order,words",
    ];
    let a = dds().args(args).output().unwrap();
    assert_eq!(out_code(&a), 0, "stderr: {}", stderr_of(&a));
    let b = dds().args(args).output().unwrap();
    assert_eq!(
        stdout_of(&a),
        stdout_of(&b),
        "same seed must mean same report"
    );
    compare(
        &golden_dir().join("fuzz_seed7.txt"),
        &stdout_of(&a),
        "dds fuzz --seed 7 summary",
    );
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = dds().arg("frobnicate").output().unwrap();
    assert_eq!(out_code(&out), 2);
    assert!(stdout_of(&out).is_empty());
    compare(
        &golden_dir().join("unknown_subcommand.txt"),
        &stderr_of(&out),
        "unknown-subcommand diagnostic",
    );
}

/// A guard nested 20,000 parentheses deep is a spec error with exit 2
/// from `dds check` and `dds verify`, not a stack overflow.
#[test]
fn deep_guard_is_a_spec_error() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for command in ["check", "verify"] {
        let out = dds()
            .current_dir(&root)
            .args([command, "specs/adversarial/deep_guard.dds"])
            .output()
            .unwrap();
        assert_eq!(out_code(&out), 2, "dds {command}");
        assert!(stdout_of(&out).is_empty(), "dds {command}");
        compare(
            &golden_dir().join(format!("deep_guard.{command}.txt")),
            &stderr_of(&out),
            &format!("dds {command} diagnostic"),
        );
    }
}

#[test]
fn fuzz_usage_error_exits_2() {
    let out = dds().args(["fuzz", "--class", "quantum"]).output().unwrap();
    assert_eq!(out_code(&out), 2);
    assert!(stderr_of(&out).starts_with("unknown class `quantum`"));
}

#[test]
fn injected_failure_writes_the_pinned_repro_format() {
    let dir = std::env::temp_dir().join("dds-fuzz-cli-golden");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let out = dds()
        .args([
            "fuzz",
            "--seed",
            "7",
            "--iters",
            "1",
            "--max-size",
            "1",
            "--class",
            "free",
            "--inject-failure",
            "free:0",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out_code(&out), 1, "injected failure must exit 1");
    let summary = stdout_of(&out);
    assert!(
        summary.contains("result: FAIL (1 iterations, 1 failures)"),
        "summary: {summary}"
    );
    let repro = dir.join("fuzz-repro-free-s7-i0.dds");
    let contents = fs::read_to_string(&repro).unwrap();
    compare(
        &golden_dir().join("fuzz_repro_free_s7.dds"),
        &contents,
        "minimized repro format",
    );
    let _ = fs::remove_dir_all(&dir);
}

fn out_code(out: &Output) -> i32 {
    out.status.code().expect("process exited")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}
