//! The argv grammar: everything a command's flag table lists parses,
//! everything it does not list is an error naming the offender and the
//! valid set, and the usage text is rendered from the table.

use sop_exec::cli::{Args, Command, Flag, ENGINE_FLAGS};
use sop_exec::ExecConfig;

const DIFF_FLAGS: &[Flag] = &[
    Flag::value("--tol", "PCT", "tolerance"),
    Flag::value("--tol-path", "PREFIX=PCT", "per-path tolerance"),
    Flag::switch("--quick", "shorter"),
];

static DIFF: Command =
    Command::new("tool diff", "<a> <b>", (2, 2), "compare two files").flags(DIFF_FLAGS);

const RUN_FLAGS: &[Flag] = &[Flag::value("--json", "FILE", "report path")];

static RUN: Command = Command::new("tool run", "[ch2|ch3]", (0, 1), "run a campaign")
    .choices(&["ch2", "ch3"])
    .flags(RUN_FLAGS)
    .engine();

fn argv(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| (*a).to_owned()).collect()
}

fn parse(cmd: &'static Command, list: &[&str]) -> Result<Args, String> {
    cmd.try_parse(&argv(list))
        .map(|a| a.expect("help was not asked for"))
}

#[test]
fn switches_values_and_positionals_parse() {
    let a = parse(
        &DIFF,
        &[
            "x.json",
            "--tol",
            "5",
            "y.json",
            "--tol-path",
            "a.=1",
            "--tol-path",
            "b.=2",
        ],
    )
    .expect("valid");
    assert_eq!(a.positionals(), argv(&["x.json", "y.json"]));
    assert_eq!(a.num::<f64>("--tol"), Some(5.0));
    assert_eq!(a.values("--tol-path").collect::<Vec<_>>(), ["a.=1", "b.=2"]);
    assert!(!a.switch("--quick"));
    assert!(a.switch("--tol") && !a.switch("--quick"));
    // A negative number is a value, not a flag.
    let a = parse(&DIFF, &["x", "y", "--tol", "-5"]).expect("valid");
    assert_eq!(a.value("--tol"), Some("-5"));
}

#[test]
fn everything_the_table_does_not_list_is_rejected() {
    for (list, needles) in [
        (
            &["x", "y", "--threads", "4"][..],
            &["unknown flag --threads", "--tol --tol-path --quick"][..],
        ),
        (&["x", "y", "--tol"], &["--tol needs a value", "PCT"]),
        (&["x", "y", "--tol", "--quick"], &["--tol needs a value"]),
        (
            &["x", "y", "--tol", "1", "--tol", "2"],
            &["--tol given twice"],
        ),
        (&["x", "y", "--quick", "--quick"], &["--quick given twice"]),
        (&["x", "y", "z"], &["\"z\"", "tool diff <a> <b> [flags]"]),
        (&["x"], &["missing <a> <b>"]),
        (&["x", "y", "-j"], &["unknown flag -j"]),
    ] {
        let err = parse(&DIFF, list).expect_err(&format!("{list:?}"));
        for n in needles {
            assert!(err.contains(n), "{list:?}: {err:?} lacks {n:?}");
        }
    }
    let err = parse(&RUN, &["ch9"]).expect_err("unknown choice");
    assert!(err.contains("\"ch9\"") && err.contains("ch2 ch3"), "{err}");
    static BARE: Command = Command::new("tool bare", "[n]", (0, 1), "no flags at all");
    let err = parse(&BARE, &["--bogus"]).expect_err("no flags");
    assert!(
        err.contains("unknown flag --bogus; tool bare takes no flags"),
        "{err}"
    );
}

#[test]
fn help_anywhere_wins() {
    for list in [
        &["--help"][..],
        &["x", "--bogus", "-h"],
        &["--tol", "--help"],
    ] {
        assert!(DIFF.try_parse(&argv(list)).expect("help").is_none());
    }
}

#[test]
fn engine_flags_are_declared_once_and_read_back() {
    let a = parse(
        &RUN,
        &[
            "ch2",
            "--jobs",
            "4",
            "--no-cache",
            "--resume",
            "--retries",
            "1",
            "--no-heartbeat",
        ],
    )
    .expect("valid");
    let cfg = ExecConfig::from_cli(&a);
    assert_eq!(cfg.jobs, 4);
    assert!(cfg.no_cache && cfg.resume && !cfg.heartbeat);
    assert_eq!(cfg.retries, 1);
    assert_eq!(cfg.timeout_secs, None);
    let none = ExecConfig::from_cli(&parse(&RUN, &[]).expect("valid"));
    assert_eq!(none, ExecConfig::default());
    // Commands without the engine do not take its flags.
    let err = parse(&DIFF, &["x", "y", "--jobs", "2"]).expect_err("not an engine command");
    assert!(err.contains("unknown flag --jobs"), "{err}");
}

#[test]
fn usage_lists_every_flag_from_the_table() {
    let text = RUN.usage();
    assert!(
        text.starts_with("usage: tool run [ch2|ch3] [flags]\n  run a campaign\n"),
        "{text}"
    );
    assert!(text.contains("[ch2|ch3]: one of ch2 ch3"), "{text}");
    for f in RUN_FLAGS.iter().chain(ENGINE_FLAGS) {
        assert!(text.contains(f.name) && text.contains(f.help), "{text}");
    }
    assert!(
        text.contains("--json FILE") && text.contains("engine flags:"),
        "{text}"
    );
    assert!(!DIFF.usage().contains("engine flags:"));
}

#[test]
#[should_panic(expected = "does not declare --jsno")]
fn reading_an_undeclared_flag_is_a_caller_bug() {
    parse(&RUN, &[]).expect("valid").value("--jsno");
}
