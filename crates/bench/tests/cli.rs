//! The `msgr-bench` command line: the experiment table behind `--list`
//! has unique names, agrees with the commands the docs quote, and
//! anything else is a usage error (exit 2, the workspace contract).

use std::process::Command;

fn msgr_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_msgr-bench")).args(args).output().expect("spawn msgr-bench")
}

fn listed() -> Vec<String> {
    let out = msgr_bench(&["--list"]);
    assert!(out.status.success(), "--list failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8").lines().map(str::to_string).collect()
}

/// The word after every occurrence of `marker` in `text` (flags such as
/// `--list` are not words).
fn words_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    text.match_indices(marker)
        .map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            &rest[..rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())]
        })
        .filter(|word| !word.is_empty())
        .collect()
}

#[test]
fn experiment_table_matches_the_docs() {
    let names = listed();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate experiment name in {names:?}");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let readme = std::fs::read_to_string(format!("{root}/README.md")).expect("README.md");
    let quoted = words_after(&readme, "-p msgr-bench -- ");
    for name in &quoted {
        assert!(names.iter().any(|n| n == name), "README.md runs unknown experiment {name:?}");
    }
    for name in &names {
        assert!(quoted.contains(&name.as_str()), "README.md never shows how to run {name:?}");
    }

    let experiments =
        std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let headers: String = experiments.lines().filter(|l| l.starts_with('#')).collect();
    let sections = words_after(&headers, "`msgr-bench ");
    assert!(!sections.is_empty(), "no EXPERIMENTS.md section header names its experiment");
    for name in sections {
        assert!(names.iter().any(|n| n == name), "EXPERIMENTS.md header names unknown {name:?}");
    }
}

#[test]
fn anything_but_one_known_experiment_is_a_usage_error() {
    for args in [&[][..], &["no_such_experiment"], &["--smoke"], &["text_codesize", "extra"]] {
        let out = msgr_bench(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "args {args:?} printed results");
    }
    assert!(msgr_bench(&["text_codesize"]).status.success());
}
