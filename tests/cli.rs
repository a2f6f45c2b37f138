//! End-to-end checks on the `sop` command line: asking for help never
//! runs a command, and a malformed numeric flag or a flag the chosen
//! mode would ignore fails before any work starts. Each case runs the
//! built binary in an empty directory and requires the directory to
//! stay empty.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `sop` inside `dir`, with its result cache pointed there too, so
/// any report, cache entry or heartbeat it writes shows up in `dir`.
fn sop(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sop"))
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("run sop")
}

fn entries(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn help_after_a_subcommand_runs_nothing() {
    let dir = empty_dir("help");
    // The cheap case first: before the fix it ran a short bench and
    // wrote BENCH_sim.json here.
    for args in [
        &["bench", "--quick", "--only", "ch2", "-h"][..],
        &["bench", "--help"],
        &["fleet", "--quick", "--help"],
    ] {
        let out = sop(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "sop {args:?}: {stderr}");
        assert!(stderr.contains("usage: sop"), "sop {args:?}: {stderr}");
        assert!(
            entries(&dir).is_empty(),
            "sop {args:?} wrote {:?}",
            entries(&dir)
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Asserts `sop args` exits 2, names every needle on stderr, and
/// writes nothing into `dir`.
fn rejected_without_writing(dir: &Path, args: &[&str], needles: &[&str]) {
    let out = sop(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "sop {args:?}: {stderr}");
    assert!(
        needles.iter().all(|n| stderr.contains(n)),
        "sop {args:?} must name {needles:?}: {stderr}"
    );
    assert!(
        entries(dir).is_empty(),
        "sop {args:?} wrote {:?}",
        entries(dir)
    );
}

#[test]
fn malformed_numbers_exit_2_without_writing() {
    let dir = empty_dir("numbers");
    for (args, flag) in [
        (&["fleet", "--quick", "--servers", "abc"][..], "--servers"),
        (&["fleet", "--quick", "--seed", "abc"], "--seed"),
        (&["fleet", "--quick", "--jobs", "abc"], "--jobs"),
        (&["fleet", "--quick", "--retries", "abc"], "--retries"),
        (
            &["fleet", "--quick", "--timeout-secs", "abc"],
            "--timeout-secs",
        ),
        (&["prof", "--quick", "--cores", "abc"], "--cores"),
        (
            &["bench", "--quick", "--only", "ch2", "--tol", "abc"],
            "--tol",
        ),
    ] {
        // The flag and the bad value, so a typo never runs silently
        // with the default.
        rejected_without_writing(&dir, args, &[flag, "\"abc\""]);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn flags_a_mode_would_ignore_exit_2_without_writing() {
    let dir = empty_dir("ignored");
    for (args, flag, value) in [
        (
            &["fleet", "--quick", "--resilience", "--policy", "drain"][..],
            "--policy",
            "\"drain\"",
        ),
        (
            &["fleet", "--quick", "--resilience", "--series"],
            "--series",
            "--resilience",
        ),
    ] {
        rejected_without_writing(&dir, args, &[flag, value]);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
