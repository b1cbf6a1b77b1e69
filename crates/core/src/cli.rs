//! The one command-line parser. A [`Command`] declares rows of [`Flag`]s
//! (switch, value, or optional value); [`parse`] rejects unknown and
//! repeated flags and a missing value (a word starting with `--` is never
//! a value; `-` is), answers `--help` before anything runs, and leaves the
//! rest as operands. [`Args::get`] is the one typed getter, reporting
//! ``bad {name} `{value}` ``. The `rr` tables live in [`crate::commands`].

use std::path::PathBuf;
use std::str::FromStr;

use crate::cache::{DEFAULT_STORE_DIR, STORE_ENV};

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Present or absent: `--progress`.
    Switch,
    /// Always followed by a value: `--jobs 4`.
    Value,
    /// Followed by a value unless the next word is a flag or there is
    /// none: `--store [dir]`.
    OptionalValue,
}

/// One row of a flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as usage text shows it: the name, `--` included, then a
    /// placeholder for its value (`--jobs <n>`, `--store [dir]`).
    pub syntax: &'static str,
    /// How it takes its value.
    pub arity: Arity,
    /// What the value is, for error messages: ``bad {what} `{value}` ``.
    pub what: &'static str,
    /// Its line of usage text (`\n` continues it on the next line).
    pub help: &'static str,
}

impl Flag {
    /// A flag without a value.
    pub const fn switch(syntax: &'static str, help: &'static str) -> Flag {
        Flag { syntax, arity: Arity::Switch, what: syntax, help }
    }

    /// A flag that always takes a value.
    pub const fn value(syntax: &'static str, what: &'static str, help: &'static str) -> Flag {
        Flag { syntax, arity: Arity::Value, what, help }
    }

    /// A flag whose value may be left out.
    pub const fn optional_value(
        syntax: &'static str,
        what: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { syntax, arity: Arity::OptionalValue, what, help }
    }

    /// The flag's name, `--` included.
    pub fn name(&self) -> &'static str {
        self.syntax.split_once(' ').map_or(self.syntax, |(name, _)| name)
    }
}

/// One command: its name, what its usage text says above the flags, the
/// flags it accepts (in groups, so commands can share rows), and how many
/// operands it takes.
#[derive(Debug)]
pub struct Command {
    /// The name it is invoked by.
    pub name: &'static str,
    /// The usage text above the flag list: title, synopsis and notes.
    pub about: &'static str,
    /// The accepted flags, in groups.
    pub flags: &'static [&'static [Flag]],
    /// The most operands (words that are not flags) it takes.
    pub operands: usize,
}

impl Command {
    /// Every flag the command accepts.
    pub fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn row(&self, name: &str) -> Option<&'static Flag> {
        self.rows().find(|f| f.name() == name)
    }

    /// What `--help` prints: [`Command::about`], then one entry per flag.
    pub fn usage(&self) -> String {
        const INDENT: &str = "\n                       ";
        let mut text = format!("{}\nFlags:\n", self.about);
        let rows = self.rows().map(|f| (f.syntax, f.help));
        for (syntax, help) in rows.chain([("--help", "print this text and exit")]) {
            let help = help.replace('\n', INDENT);
            if syntax.len() > 20 {
                text.push_str(&format!("  {syntax}{INDENT}{help}\n"));
            } else {
                text.push_str(&format!("  {syntax:<20} {help}\n"));
            }
        }
        text
    }
}

/// A parsed command line: the flags given, with their values, and the
/// operands.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static Flag, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// The command these arguments were parsed for.
    pub fn command(&self) -> &'static Command {
        self.command
    }

    /// Whether the flag was given (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name() == name)
    }

    /// The raw value the flag was given, if it was given one.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f.name() == name).and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as `T`; `None` when it was not given.
    ///
    /// # Errors
    ///
    /// A value that does not parse, as ``bad {what} `{value}` ``.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((flag, Some(raw))) = self.given.iter().find(|(f, _)| f.name() == name) else {
            return Ok(None);
        };
        // Integers may be written in hex, as `0x1f`.
        let hex = raw.strip_prefix("0x").and_then(|h| u64::from_str_radix(h, 16).ok());
        let parsed = match hex {
            Some(v) => v.to_string().parse(),
            None => raw.parse(),
        };
        parsed.map(Some).map_err(|_| format!("bad {} `{raw}`", flag.what))
    }

    /// The `i`-th operand.
    pub fn operand(&self, i: usize) -> Option<&str> {
        self.operands.get(i).map(String::as_str)
    }

    /// Whether nothing at all followed the command name.
    pub fn is_empty(&self) -> bool {
        self.given.is_empty() && self.operands.is_empty()
    }

    /// The result-store directory asked for. `--no-store` turns the store
    /// off; `--store [dir]` turns it on (in `dir`, else `.rr-store`);
    /// otherwise `$RR_STORE` names one, and without it there is none.
    pub fn store_dir(&self) -> Option<PathBuf> {
        if self.has("--no-store") {
            return None;
        }
        if self.has("--store") {
            return Some(PathBuf::from(self.raw("--store").unwrap_or(DEFAULT_STORE_DIR)));
        }
        std::env::var(STORE_ENV).ok().filter(|v| !v.is_empty()).map(PathBuf::from)
    }
}

/// The process's arguments after the program name.
pub fn words() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Parses `words` (the arguments after the command name) against the
/// command's table. `Ok(None)` means `--help` was asked for: print
/// [`Command::usage`] and do nothing else.
///
/// # Errors
///
/// An unknown or repeated flag, a missing value, or too many operands.
pub fn parse(command: &'static Command, words: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args { command, given: Vec::new(), operands: Vec::new() };
    let mut words = words.iter().peekable();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            if args.operands.len() == command.operands {
                return Err(format!("unexpected argument `{word}` for {}", command.name));
            }
            args.operands.push(word.clone());
            continue;
        }
        if word == "--help" {
            return Ok(None);
        }
        let flag = command.row(word).ok_or_else(|| {
            format!("unknown flag `{word}` for {} (see its --help)", command.name)
        })?;
        if args.has(flag.name()) {
            return Err(format!("`{word}` given twice"));
        }
        let next_is_value = words.peek().is_some_and(|next| !next.starts_with("--"));
        let value = match flag.arity {
            Arity::Switch => None,
            Arity::OptionalValue | Arity::Value if next_is_value => words.next().cloned(),
            Arity::OptionalValue => None,
            Arity::Value => {
                return Err(match words.peek() {
                    Some(next) => format!("`{word}` needs a {}, not the flag `{next}`", flag.what),
                    None => format!("`{word}` needs a {}", flag.what),
                })
            }
        };
        args.given.push((flag, value));
    }
    Ok(Some(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOOL: Command = Command {
        name: "tool",
        about: "tool — a test command\n",
        flags: &[
            &[
                Flag::value("--jobs <n>", "job count", "workers"),
                Flag::value("--json <path>", "JSON path", "report"),
            ],
            &[
                Flag::switch("--quick", "smaller"),
                Flag::optional_value("--store [dir]", "store directory", "cache\nin dir"),
                Flag::switch("--no-store", "no cache"),
            ],
        ],
        operands: 1,
    };

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn args(list: &[&str]) -> Args {
        parse(&TOOL, &words(list)).expect("parses").expect("not --help")
    }

    fn error(list: &[&str]) -> String {
        parse(&TOOL, &words(list)).expect_err("rejected")
    }

    #[test]
    fn flags_values_and_operands() {
        let a = args(&["--jobs", "0x10", "in.s", "--quick", "--json", "-"]);
        assert_eq!(a.get::<usize>("--jobs"), Ok(Some(16)));
        assert_eq!(a.raw("--json"), Some("-"), "`-` is a value");
        assert!(a.has("--quick") && !a.has("--no-store"));
        assert_eq!(a.operand(0), Some("in.s"));
        assert_eq!(a.get::<u32>("--absent"), Ok(None));
        let bad = args(&["--jobs", "many"]).get::<usize>("--jobs");
        assert_eq!(bad, Err("bad job count `many`".into()));
        assert!(args(&[]).is_empty());
    }

    #[test]
    fn usage_lists_every_row() {
        let usage = TOOL.usage();
        assert!(usage.starts_with("tool — a test command\n\nFlags:\n"), "{usage}");
        assert!(usage.contains("\n  --store [dir]        cache\n                       in dir\n"));
        assert!(usage.ends_with("  --help               print this text and exit\n"), "{usage}");
    }

    #[test]
    fn help_wins_and_nothing_else_is_read() {
        assert!(parse(&TOOL, &words(&["--quick", "--help", "--bogus"])).unwrap().is_none());
    }

    #[test]
    fn bad_command_lines_are_rejected_by_name() {
        assert!(error(&["--bogus"]).contains("`--bogus`"));
        assert!(error(&["--quick", "--quick"]).contains("given twice"));
        assert!(error(&["--json", "--no-store"]).contains("not the flag `--no-store`"));
        assert!(error(&["--json"]).contains("needs a JSON path"));
        assert!(error(&["a.s", "b.s"]).contains("unexpected argument `b.s`"));
    }

    #[test]
    fn store_dir_precedence() {
        assert_eq!(args(&["--no-store", "--store", "d"]).store_dir(), None);
        assert_eq!(args(&["--store", "mydir"]).store_dir(), Some(PathBuf::from("mydir")));
        assert_eq!(
            args(&["--store", "--quick"]).store_dir(),
            Some(PathBuf::from(DEFAULT_STORE_DIR)),
            "--store with no value falls back to the default dir"
        );
        assert_eq!(args(&["--store"]).store_dir(), Some(PathBuf::from(DEFAULT_STORE_DIR)));
    }
}
