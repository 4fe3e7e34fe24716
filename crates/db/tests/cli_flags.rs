//! End-to-end tests of the `amosql` shell's command-line flags: the
//! shell starts without flags, and an unknown flag exits 2 naming the
//! supported ones.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `amosql` with the given args and empty stdin; return
/// (exit code, stdout, stderr).
fn run_amosql(args: &[&str]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_amosql"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn amosql");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"")
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait amosql");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn shell_starts_without_flags() {
    let (code, stdout, stderr) = run_amosql(&[]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("amos-pdiff interactive shell"), "{stdout}");
}

#[test]
fn unknown_flag_exits_2_naming_the_supported_ones() {
    let (code, stdout, stderr) = run_amosql(&["--turbo", "on"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown flag `--turbo`"), "{stderr}");
    assert!(stderr.contains("(supported: --wal-dir <dir>)"), "{stderr}");
    assert!(!stdout.contains("interactive shell"), "{stdout}");
}

/// Adaptive planning has no switch: `--static-plans` is rejected like
/// any other unknown flag.
#[test]
fn static_plans_flag_is_rejected() {
    let (code, _stdout, stderr) = run_amosql(&["--static-plans"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown flag `--static-plans`"), "{stderr}");
}
