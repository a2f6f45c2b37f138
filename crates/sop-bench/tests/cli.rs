//! End-to-end checks on the `repro`, `ablation` and `calibrate` command
//! lines: help runs nothing, anything a binary's flag table does not
//! list exits 2 naming it and the valid set, and the engine flags every
//! engine-backed binary shares are accepted. Each case runs the built
//! binary in an empty directory with its result cache pointed there.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("run binary")
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

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const ABLATION: &str = env!("CARGO_BIN_EXE_ablation");
const CALIBRATE: &str = env!("CARGO_BIN_EXE_calibrate");

#[test]
fn help_runs_nothing() {
    let dir = empty_dir("help");
    for (bin, name) in [
        (REPRO, "repro"),
        (ABLATION, "ablation"),
        (CALIBRATE, "calibrate"),
    ] {
        for args in [&["--help"][..], &["-h"], &["--json", "r.json", "--help"]] {
            let out = run(bin, &dir, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{name} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("usage: {name}")) && stderr.contains("--jobs"),
                "{name} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{name} {args:?} printed output");
            assert!(entries(&dir).is_empty(), "{name} {args:?} wrote files");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unlisted_arguments_exit_2_without_writing() {
    let dir = empty_dir("rejected");
    for (bin, args, needles) in [
        (
            ABLATION,
            &["bogus"][..],
            &["\"bogus\"", "pods llcrow links ir all"][..],
        ),
        (ABLATION, &["pods", "ir"], &["\"ir\""]),
        (CALIBRATE, &["--bogus", "--json"], &["--bogus", "--json"]),
        (CALIBRATE, &["--json"], &["--json needs a value"]),
        (
            REPRO,
            &["fig2.1", "--jobs", "1", "--jobs", "2"],
            &["--jobs given twice"],
        ),
    ] {
        let out = run(bin, &dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            needles.iter().all(|n| stderr.contains(n)),
            "{bin} {args:?} must name {needles:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
        assert!(entries(&dir).is_empty(), "{bin} {args:?} wrote files");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn engine_flags_are_accepted_everywhere_the_engine_runs() {
    let dir = empty_dir("engine");
    // The engine flags' values are consumed as values, never mistaken
    // for the ablation to run.
    let out = run(ABLATION, &dir, &["--retries", "1", "pods"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("Ablation: pod granularity"), "{stdout}");
    assert!(!stdout.contains("Ablation: instruction"), "{stdout}");

    let out = run(REPRO, &dir, &["fig2.1", "--no-heartbeat", "--retries", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("Golden checks: 31/31 ok"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
