//! The one command-line parser behind `repro`, `differential`,
//! `ooc-bench` and `llp-mst-serve`.
//!
//! Every tool is `<tool> <command> [--flag value | --switch]...`. A
//! command handler takes its own flags out of the argument list with the
//! `take_*` helpers, then calls [`no_leftovers`], so a flag that belongs
//! to another command (or to no command) is rejected. A bad, missing or
//! unknown flag is a usage error: a message and exit status 2, before any
//! work is done. A handler that fails while running returns `Err(String)`,
//! which [`exit_status`] reports with exit status 1.

use std::process::ExitCode;
use std::str::FromStr;

/// Prints `msg` and exits with status 2: a bad, missing or unknown flag
/// is the caller's mistake, not a run failure (status 1) or a panic.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses the value of the command-line flag `flag`, or exits through
/// [`usage_error`].
pub fn parse_flag<T: FromStr>(flag: &str, value: &str) -> T {
    value
        .trim()
        .parse()
        .unwrap_or_else(|_| usage_error(format_args!("{flag}: '{value}' is not a valid value")))
}

/// [`parse_flag`] for a count that must be at least 1 (threads,
/// repetitions); 0 is a usage error with exit status 2.
fn parse_count(flag: &str, value: &str) -> usize {
    match parse_flag(flag, value) {
        0 => usage_error(format_args!("{flag} must be at least 1")),
        n => n,
    }
}

/// Splits the process arguments into the command word and its flags. A
/// missing command word, or a flag in its place, is a usage error that
/// prints `usage`.
pub fn command(usage: &str) -> (String, Vec<String>) {
    let mut args = std::env::args().skip(1);
    match args.next() {
        Some(cmd) if !cmd.starts_with('-') => (cmd, args.collect()),
        _ => usage_error(usage),
    }
}

/// Removes `--name value` from `args`, if present.
pub fn take_opt(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        usage_error(format_args!("{name} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Removes the bare flag `--name` from `args`; true if it was present.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == name) else {
        return false;
    };
    args.remove(i);
    true
}

/// Removes the required `--name value` from `args`.
pub fn take_required(args: &mut Vec<String>, name: &str) -> String {
    take_opt(args, name).unwrap_or_else(|| usage_error(format_args!("{name} is required")))
}

/// Parses `--name value`, or returns `default` when the flag is absent.
pub fn take_parsed<T: FromStr>(args: &mut Vec<String>, name: &str, default: T) -> T {
    take_opt(args, name).map_or(default, |v| parse_flag(name, &v))
}

/// [`take_parsed`] for a count that must be at least 1.
pub fn take_count(args: &mut Vec<String>, name: &str, default: usize) -> usize {
    take_opt(args, name).map_or(default, |v| parse_count(name, &v))
}

/// Parses the comma list `--name a,b,c`, or returns `default` when the
/// flag is absent; every item must parse.
pub fn take_list<T: FromStr>(args: &mut Vec<String>, name: &str, default: Vec<T>) -> Vec<T> {
    take_opt(args, name).map_or(default, |v| {
        v.split(',').map(|s| parse_flag(name, s)).collect()
    })
}

/// `--threads T`: at least 1, by default the available parallelism.
pub fn take_threads(args: &mut Vec<String>) -> usize {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    take_count(args, "--threads", default)
}

/// Rejects leftover (unrecognized) arguments.
pub fn no_leftovers(args: &[String]) {
    if !args.is_empty() {
        usage_error(format_args!("unrecognized arguments: {}", args.join(" ")));
    }
}

/// The exit status of `tool cmd`: 0 on success; a run-time failure is
/// printed as `tool cmd: msg` and exits 1.
pub fn exit_status(tool: &str, cmd: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{tool} {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}
