//! The argv grammar of every binary in the workspace.
//!
//! Each command declares its positionals and a static table of
//! [`Flag`]s in a [`Command`]; [`Command::parse`] is the one pass over
//! argv. It rejects (exit 2, naming the offender and the valid set) an
//! unlisted flag, a value flag without its value, a non-repeatable flag
//! given twice, and a positional the command does not take. `-h` or
//! `--help` anywhere prints the usage rendered from the table and exits
//! 0 before anything runs. Engine-backed commands accept exactly
//! [`ENGINE_FLAGS`] on top of their own, read back by
//! [`ExecConfig::from_cli`]. What a value *means* (a policy label, a
//! node size) stays with the command's own typed parsers.

use crate::ExecConfig;
use std::fmt::Write as _;

/// One `--flag`, optionally followed by a value.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--jobs`.
    pub name: &'static str,
    /// The value's placeholder in usage (`N`, `FILE`); `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Flag {
    /// A flag that stands alone.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag followed by a value.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(metavar),
            help,
        }
    }
}

/// The flags every engine-backed command accepts.
#[rustfmt::skip]
pub const ENGINE_FLAGS: &[Flag] = &[
    Flag::value("--jobs", "N", "worker threads (0 or omitted = one per core)"),
    Flag::switch("--no-cache", "recompute every job, ignoring the result cache"),
    Flag::switch("--resume", "replay jobs a previous run's manifest recorded"),
    Flag::value("--timeout-secs", "N", "per-job watchdog timeout"),
    Flag::value("--retries", "N", "retry budget for transient jobs (default 2)"),
    Flag::switch("--no-heartbeat", "do not append progress events"),
];

/// The one flag that may be given more than once.
const REPEATABLE: &str = "--tol-path";

/// A command's grammar: its positionals and its flag table.
#[derive(Debug)]
pub struct Command {
    /// How the command is invoked.
    pub name: &'static str,
    args: &'static str,
    arity: (usize, usize),
    /// What the command does, in one line.
    pub about: &'static str,
    choices: &'static [&'static str],
    flags: &'static [Flag],
    engine: bool,
}

/// Prints `message` to stderr and exits 2: the exit for input the
/// command line should never have accepted.
pub fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

impl Command {
    /// A command without flags. `name` is how it is invoked (`sop
    /// fleet`, `repro`), `args` its positionals as usage shows them,
    /// `arity` how many it takes (at least, at most), and `about` one
    /// line saying what it does.
    pub const fn new(
        name: &'static str,
        args: &'static str,
        arity: (usize, usize),
        about: &'static str,
    ) -> Command {
        Command {
            name,
            args,
            arity,
            about,
            choices: &[],
            flags: &[],
            engine: false,
        }
    }

    /// The values the first positional accepts (default: anything).
    pub const fn choices(self, choices: &'static [&'static str]) -> Command {
        Command { choices, ..self }
    }

    /// The command's own flags.
    pub const fn flags(self, flags: &'static [Flag]) -> Command {
        Command { flags, ..self }
    }

    /// The command also takes [`ENGINE_FLAGS`].
    pub const fn engine(self) -> Command {
        Command {
            engine: true,
            ..self
        }
    }

    fn engine_flags(&self) -> &'static [Flag] {
        if self.engine {
            ENGINE_FLAGS
        } else {
            &[]
        }
    }

    fn all_flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        self.flags.iter().chain(self.engine_flags())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    /// The one-line synopsis, e.g. `sop diff <a.json> <b.json> [flags]`.
    pub fn synopsis(&self) -> String {
        let sep = if self.args.is_empty() { "" } else { " " };
        let flags = self.all_flags().next().map_or("", |_| " [flags]");
        format!("{}{sep}{}{flags}", self.name, self.args)
    }

    /// The full usage text: synopsis, what the command does, the first
    /// positional's choices, and one line per flag.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}\n  {}\n", self.synopsis(), self.about);
        if let (Some(first), false) = (self.args.split_whitespace().next(), self.choices.is_empty())
        {
            let _ = writeln!(out, "  {first}: one of {}", self.choices.join(" "));
        }
        let spec = |f: &Flag| {
            f.value
                .map_or(f.name.to_owned(), |v| format!("{} {v}", f.name))
        };
        let width = self.all_flags().map(|f| spec(f).len()).max().unwrap_or(0);
        for (title, flags) in [("flags", self.flags), ("engine flags", self.engine_flags())] {
            if !flags.is_empty() {
                let _ = writeln!(out, "\n{title}:");
            }
            for f in flags {
                let _ = writeln!(out, "  {:<width$}  {}", spec(f), f.help);
            }
        }
        out
    }

    /// Parses `argv` (without the program and command names); `Ok(None)`
    /// means help was asked for.
    pub fn try_parse(&'static self, argv: &[String]) -> Result<Option<Args>, String> {
        if argv.iter().any(|a| a == "-h" || a == "--help") {
            return Ok(None);
        }
        let mut args = Args {
            command: self,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            // `-5` is a value, not a flag.
            if !arg.starts_with('-') || arg[1..].starts_with(|c: char| c.is_ascii_digit()) {
                args.positionals.push(arg.clone());
                continue;
            }
            let Some(flag) = self.flag(arg) else {
                let names: Vec<&str> = self.all_flags().map(|f| f.name).collect();
                if names.is_empty() {
                    return Err(format!("unknown flag {arg}; {} takes no flags", self.name));
                }
                return Err(format!("unknown flag {arg}; one of: {}", names.join(" ")));
            };
            if flag.name != REPEATABLE && args.flags.iter().any(|(n, _)| *n == flag.name) {
                return Err(format!("{} given twice", flag.name));
            }
            let value = match flag.value {
                None => None,
                Some(metavar) => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{0} needs a value: {0} {metavar}", flag.name)),
                },
            };
            args.flags.push((flag.name, value));
        }
        let (min, max) = self.arity;
        let given = &args.positionals;
        if let Some(extra) = given.get(max) {
            return Err(format!(
                "unexpected argument {extra:?}; usage: {}",
                self.synopsis()
            ));
        }
        if given.len() < min {
            return Err(format!("missing {}; usage: {}", self.args, self.synopsis()));
        }
        match given.first() {
            Some(first) if !self.choices.is_empty() && !self.choices.contains(&first.as_str()) => {
                let valid = self.choices.join(" ");
                Err(format!("unknown argument {first:?}; one of: {valid}"))
            }
            _ => Ok(Some(args)),
        }
    }

    /// Parses `argv` or exits: 0 after printing the usage when help was
    /// asked for, 2 naming the offending argument and the valid set.
    pub fn parse(&'static self, argv: impl IntoIterator<Item = String>) -> Args {
        match self.try_parse(&argv.into_iter().collect::<Vec<_>>()) {
            Ok(Some(args)) => args,
            Ok(None) => {
                eprint!("{}", self.usage());
                std::process::exit(0)
            }
            Err(e) => fail(format_args!("{}: {e}", self.name)),
        }
    }
}

/// One parsed invocation: its positionals and the flags it gave.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The declared spelling of `name`. Panics on a flag the command
    /// does not declare: a typo in the caller must not read as "flag
    /// absent".
    fn declared(&self, name: &str) -> &'static str {
        let flag = self.command.flag(name);
        flag.unwrap_or_else(|| panic!("{} does not declare {name}", self.command.name))
            .name
    }

    /// The positionals, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The `i`-th positional, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether the flag `name` (a switch or a value flag) was given.
    pub fn switch(&self, name: &str) -> bool {
        let name = self.declared(name);
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// Every value given to the flag `name`, in order.
    pub fn values(&self, name: &str) -> impl Iterator<Item = &str> + '_ {
        let name = self.declared(name);
        let given = self.flags.iter().filter(move |(n, _)| *n == name);
        given.filter_map(|(_, v)| v.as_deref())
    }

    /// The value given to the flag `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).next()
    }

    /// The value given to the flag `name`, if any; a value outside
    /// `valid` exits 2 naming the flag, the value and the valid set.
    pub fn choice(&self, name: &str, valid: &[&str]) -> Option<&str> {
        let value = self.value(name)?;
        if !valid.contains(&value) {
            let (cmd, valid) = (self.command.name, valid.join(" "));
            fail(format_args!(
                "{cmd}: {name}: unknown value {value:?}; one of: {valid}"
            ));
        }
        Some(value)
    }

    /// The number given to the flag `name`, if any. A value that does
    /// not parse exits 2 naming the flag and the value, so a typo never
    /// runs with the default.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let value = self.value(name)?;
        let cmd = self.command.name;
        let bad = || {
            fail(format_args!(
                "{cmd}: {name}: {value:?} is not a valid number"
            ))
        };
        Some(value.parse().unwrap_or_else(|_| bad()))
    }
}

impl ExecConfig {
    /// The engine settings an engine-backed command's [`ENGINE_FLAGS`]
    /// select; everything else keeps [`ExecConfig::default`].
    pub fn from_cli(args: &Args) -> ExecConfig {
        let defaults = ExecConfig::default();
        ExecConfig {
            jobs: args.num("--jobs").unwrap_or(0),
            no_cache: args.switch("--no-cache"),
            resume: args.switch("--resume"),
            timeout_secs: args.num("--timeout-secs"),
            retries: args.num("--retries").unwrap_or(defaults.retries),
            heartbeat: !args.switch("--no-heartbeat"),
            ..defaults
        }
    }
}
