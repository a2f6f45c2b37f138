//! End-to-end checks on the `sop` command line: asking for help never
//! runs a command, and a malformed numeric flag, a flag the chosen mode
//! would ignore, or anything the command's flag table does not list
//! fails before any work starts. Each case runs the built binary in an
//! empty directory and requires the directory to stay empty.

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
        &["--help"],
        &["help"],
        &["sweep", "ch2", "--threads", "4", "--json", "-h"],
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

#[test]
fn anything_the_flag_table_does_not_list_exits_2_without_writing() {
    let dir = empty_dir("table");
    for (args, needles) in [
        // An unknown enum value is an error, not the default.
        (
            &["pod", "ooo", "--node", "28"][..],
            &["--node", "\"28\"", "40 32 20"][..],
        ),
        // Unlisted flags name themselves and the valid set.
        (&["pod", "ooo", "--nodes", "20"], &["--nodes", "--node"]),
        (
            &["sweep", "ch2", "--threads", "4"],
            &["--threads", "--jobs"],
        ),
        (&["list", "--bogus"], &["--bogus"]),
        // A value flag without its value.
        (
            &["sweep", "ch2", "--json"],
            &["--json needs a value", "FILE"],
        ),
        // A non-repeatable flag given twice.
        (
            &["fleet", "--quick", "--servers", "8", "--servers", "16"],
            &["--servers given twice"],
        ),
        // A positional the command does not take.
        (&["list", "extra"], &["\"extra\""]),
        // An unreadable baseline fails before the bench runs.
        (
            &[
                "bench",
                "--quick",
                "--only",
                "ch2",
                "--baseline",
                "nope.json",
            ],
            &["cannot read nope.json"],
        ),
        // So does a baseline measured at another worker count (the
        // committed history's latest entry ran at --jobs 1).
        (
            &[
                "bench",
                "--quick",
                "--only",
                "ch2",
                "--jobs",
                "2",
                "--baseline",
                concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sim.json"),
            ],
            &["--jobs 2", "rerun with --jobs 1"],
        ),
    ] {
        rejected_without_writing(&dir, args, needles);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn top_counts_malformed_heartbeat_lines() {
    let dir = empty_dir("top");
    let fixture = include_str!("fixtures/progress.ndjson");
    let body = fixture.trim_end();
    for (name, text, note) in [
        ("clean.ndjson", fixture.to_owned(), None),
        // The final line cut short, as a reader racing the writer sees it.
        (
            "cut.ndjson",
            body[..body.len() - 40].to_owned(),
            Some("1 malformed line(s) skipped"),
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write stream");
        let out = sop(
            &dir,
            &["top", "--once", "--file", path.to_str().expect("utf-8")],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}: {stdout}");
        assert!(stdout.contains("campaign fig3.3"), "{name}: {stdout}");
        assert_eq!(
            stdout.contains("malformed"),
            note.is_some(),
            "{name}: {stdout}"
        );
        if let Some(note) = note {
            assert!(stdout.contains(note), "{name}: {stdout}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn hostile_json_input_exits_2_instead_of_aborting() {
    let dir = empty_dir("deep");
    let input = std::env::temp_dir().join(format!("sop-cli-deep-{}.json", std::process::id()));
    std::fs::write(&input, "[".repeat(50_000) + &"]".repeat(50_000)).expect("write input");
    let path = input.to_str().expect("utf-8");
    for args in [&["metrics", path][..], &["diff", path, path]] {
        rejected_without_writing(&dir, args, &["not valid JSON", "nesting"]);
    }
    std::fs::remove_file(&input).expect("cleanup input");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
