//! `pealint` refuses arguments it does not know, and flags without a
//! usable path: a usage error (exit 2) that names the cause and writes no
//! report.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::Command;

/// A fresh empty working directory for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pealint-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `pealint args` in a fresh directory; returns the exit code, the
/// stderr text and whether any report file appeared.
fn run<S: AsRef<OsStr>>(name: &str, args: &[S]) -> (Option<i32>, String, bool) {
    let dir = scratch_dir(name);
    let output = Command::new(env!("CARGO_BIN_EXE_pealint"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let wrote = std::fs::read_dir(&dir).unwrap().next().is_some();
    std::fs::remove_dir_all(&dir).unwrap();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        wrote,
    )
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let (code, stderr, wrote) = run("bogus", &["--bogus", "--out"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`--bogus`"), "{stderr}");
    assert!(!wrote, "no report may be written on a usage error");
}

#[test]
fn flag_without_its_path_is_a_usage_error() {
    for args in [&["--out"][..], &["--callgraph", "--out", "x.json"][..]] {
        let (code, stderr, wrote) = run("missing", args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("needs a path"), "{args:?}: {stderr}");
        assert!(!wrote, "{args:?}");
    }
}

#[test]
fn stray_argument_is_a_usage_error() {
    let (code, stderr, wrote) = run("stray", &["report.json"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`report.json`"), "{stderr}");
    assert!(!wrote);
}

#[cfg(unix)]
#[test]
fn non_utf8_path_is_a_usage_error() {
    use std::os::unix::ffi::OsStrExt;
    let path = OsStr::from_bytes(b"\xff.json");
    let (code, stderr, wrote) = run("non-utf8", &[OsStr::new("--out"), path]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--out: path is not UTF-8"), "{stderr}");
    assert!(!wrote);
}
