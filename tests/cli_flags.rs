//! The `tpi` CLI accepts exactly the flags its usage text lists: a
//! retired or misspelt flag is an error naming the flag and the command,
//! never silently ignored, and every flag `tpi help` prints still parses.

use std::path::PathBuf;
use std::process::{Command, Output};

const BENCH: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\n\
                     g0 = AND(a, b)\ny = OR(g0, c)\nOUTPUT(y)\n";

fn tpi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpi"))
        .args(args)
        .output()
        .expect("tpi runs")
}

fn circuit() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpi-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("c.bench");
    std::fs::write(&path, BENCH).unwrap();
    path
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unknown_flags_are_rejected() {
    let path = circuit();
    let file = path.to_str().unwrap();
    // The baseline invocation succeeds, so each failure below is the flag.
    assert!(tpi(&["simulate", file, "--patterns", "64"])
        .status
        .success());
    for (command, flag, value) in [
        // `--detection` was a flag of both commands; it is retired.
        ("simulate", "detection", "explicit"),
        ("insert", "detection", "cpt"),
        ("simulate", "theads", "2"),
        ("atpg", "bogus-flag", "3"),
    ] {
        let output = tpi(&[command, file, &format!("--{flag}"), value]);
        assert!(!output.status.success(), "--{flag} accepted by {command}");
        let want = format!("tpi: unknown flag --{flag} for `tpi {command}`");
        assert!(stderr(&output).contains(&want), "{}", stderr(&output));
    }
}

/// `(command, flag)` for every `--flag` on the usage text's lines.
fn usage_flags() -> Vec<(String, String)> {
    let usage = stderr(&tpi(&["help"]));
    let mut command = None;
    let mut flags = Vec::new();
    for line in usage.lines() {
        let mut words = line.split_whitespace().peekable();
        if words.peek() == Some(&"tpi") {
            words.next();
            command = words.next().map(str::to_string);
        }
        for word in words {
            let Some(start) = word.find("--") else {
                continue;
            };
            let name: String = word[start + 2..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            let command = command.clone().expect("flags follow a command line");
            flags.push((command, name));
        }
    }
    flags
}

#[test]
fn every_usage_flag_is_accepted() {
    let flags = usage_flags();
    assert!(flags.len() >= 40, "usage parsed to {flags:?}");
    for (command, flag) in flags {
        // Two missing positionals make every command fail right after
        // flag parsing (an extra argument, or an unreadable checkpoint
        // for `merge`), so nothing runs and nothing binds or writes.
        // Whether `flag` takes a value or not, `1` parses either as its
        // value or as one more positional.
        let output = tpi(&[
            &command,
            &format!("--{flag}"),
            "1",
            "missing-a.bench",
            "missing-b.bench",
        ]);
        assert!(!output.status.success());
        let err = stderr(&output);
        assert!(
            !err.contains("unknown flag"),
            "`tpi {command}` rejects its documented --{flag}: {err}"
        );
    }
}
