//! The `msgr run` command line refuses what the cluster cannot do with
//! an error exit, never a panic: exit 1 for a finding about the run,
//! exit 2 for a usage error.

use std::process::{Command, Output};

const SCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scripts/census.mc");

fn msgr_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_msgr"))
        .arg("run")
        .arg(SCRIPT)
        .args(args)
        .output()
        .expect("spawn msgr")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn injecting_into_a_missing_daemon_is_a_finding() {
    for platform in [&[][..], &["--threads"][..]] {
        let out = msgr_run(&[&["--daemons", "4", "--inject", "9"][..], platform].concat());
        assert_eq!(out.status.code(), Some(1), "{platform:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("inject at `9`: not found: daemon 9"),
            "{platform:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn a_daemon_count_outside_u16_is_a_usage_error() {
    for n in ["0", "65536"] {
        let out = msgr_run(&["--daemons", n]);
        assert_eq!(out.status.code(), Some(2), "--daemons {n}: {}", stderr(&out));
        assert!(stderr(&out).contains("--daemons wants 1 to 65535"), "{}", stderr(&out));
    }
}
