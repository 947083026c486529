//! The repo's standing perf ledger. See `README.md` in this directory.
//!
//! With `--workload W` this process runs that workload and prints the
//! driver's result line last. Without it, it is the suite: every
//! workload in a process of its own (so memory and CPU are per
//! workload), optionally twice (`--agree`).

mod harness;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::{json_number, json_string};
use metrics::{Clock, END_TO_END, RUN_SECONDS};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--traced] [--agree] [--out FILE] [--manifest]
  --workload W   run one workload in this process and print the result line
  --trace 0|1    with --workload: end-to-end metrics (0) or the traced run's
                 per-layer metrics (1)
  --smoke        tiny sizes, one repeat: every metric name, no usable number
  --traced       suite: also make each workload's traced run
  --agree        suite: run everything twice and compare the two sets
  --out FILE     suite: where to write the results JSON (default out/results.json)
  --manifest     print BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    traced: bool,
    agree: bool,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        traced: false,
        agree: false,
        out: None,
        out_dir: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--traced" => a.traced = true,
            "--agree" => a.agree = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--out-dir" => a.out_dir = Some(PathBuf::from(value()?)),
            "--manifest" => a.manifest = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// The `MSGR_*` variables silently change `ClusterConfig::new`; a run
/// with one set would not measure what ships.
fn refuse_msgr_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MSGR_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set: unset every MSGR_* variable", set.join(", ")))
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What was measured: the defaults `ClusterConfig::new` resolved to, and
/// the machine and toolchain. A later default flip shows here instead of
/// as an unexplained jump.
fn provenance(a: &Args) -> Vec<(&'static str, String)> {
    let cfg = msgr_core::ClusterConfig::new(workloads::THREAD_DAEMONS);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut rows = vec![
        ("seed", a.seed.to_string()),
        ("seconds", json_number(a.seconds)),
        ("smoke", a.smoke.to_string()),
        ("exec", format!("{:?}", cfg.exec)),
        ("lanes", cfg.lane_count().to_string()),
        ("batch", cfg.batching().to_string()),
        ("local_move", cfg.local_move.to_string()),
        ("analysis", cfg.analysis.to_string()),
        ("succession", format!("{:?}", cfg.succession)),
        ("replication", cfg.replica_count().to_string()),
        ("nproc", nproc.to_string()),
    ];
    // A single-workload run starts no process of its own; the suite asks
    // the toolchain and the repository who they are.
    if a.workload.is_none() {
        rows.push(("rustc", first_line_of("rustc", &["--version"])));
        rows.push(("git_commit", first_line_of("git", &["rev-parse", "HEAD"])));
    }
    rows
}

fn print_provenance(a: &Args) {
    for (k, v) in provenance(a) {
        println!("# {k}: {v}");
    }
}

/// A `metric` line of a child, parsed back.
#[derive(Debug, Clone)]
struct Parsed {
    workload: String,
    name: String,
    unit: String,
    clock: String,
    /// `None` when the child printed `unresolved`.
    median: Option<f64>,
    q1: f64,
    q3: f64,
    n: usize,
}

fn parse_metric_line(line: &str) -> Option<Parsed> {
    let body = line.split("  # ").next()?;
    let mut f = body.split(' ');
    if f.next()? != "metric" {
        return None;
    }
    Some(Parsed {
        workload: f.next()?.to_string(),
        name: f.next()?.to_string(),
        unit: f.next()?.to_string(),
        clock: f.next()?.to_string(),
        median: f.next()?.parse().ok(),
        q1: f.next()?.parse().ok()?,
        q3: f.next()?.parse().ok()?,
        n: f.next()?.parse().ok()?,
    })
}

/// One full pass over the workloads.
#[derive(Default)]
struct Set {
    rows: Vec<Parsed>,
    /// Runtime counter name → workloads on which it was non-zero.
    counters: BTreeMap<String, BTreeSet<String>>,
}

/// Run one workload in a child process, echoing its output.
fn child(a: &Args, workload: &str, trace: bool, set: &mut Set) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()]);
    cmd.args(["--seconds", &json_number(a.seconds), "--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &a.out_dir {
        cmd.arg("--out-dir").arg(dir);
    }
    let mut proc = cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout was piped");
    let mut correct = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {workload}: {e}"))?;
        if let Some(row) = parse_metric_line(&line) {
            println!("{line}");
            set.rows.push(row);
        } else if let Some(rest) = line.strip_prefix("counter ") {
            let mut f = rest.split(' ');
            if let (Some(w), Some(name), Some(v)) = (f.next(), f.next(), f.next()) {
                let on = set.counters.entry(name.to_string()).or_default();
                if v != "0" {
                    on.insert(w.to_string());
                }
            }
        } else if line.starts_with("{\"correct\": true,") {
            correct = true;
        } else if line.starts_with("# repeat ") {
            println!("# {workload} {}", &line[2..]);
        }
    }
    let status = proc.wait().map_err(|e| format!("waiting for {workload}: {e}"))?;
    match (status.success(), correct) {
        (true, true) => Ok(()),
        (true, false) => Err(format!("{workload}: output checks failed (see stderr above)")),
        (false, _) => Err(format!("{workload} (trace {}) failed: {status}", u8::from(trace))),
    }
}

fn run_set(a: &Args) -> Result<Set, String> {
    let mut set = Set::default();
    for w in &workloads::ALL {
        child(a, w.name, false, &mut set)?;
        if a.traced || a.agree {
            child(a, w.name, true, &mut set)?;
        }
    }
    Ok(set)
}

/// Compare two sets: host-clock end-to-end medians within their bound,
/// simulated-clock values and counts identical. Counts of
/// `mandel_threads` depend on which worker wins each block, so they only
/// have to be close.
fn agree(a: &Set, b: &Set) -> bool {
    let mut ok = true;
    println!("# agree: set B against set A");
    for ra in &a.rows {
        let Some(rb) = b.rows.iter().find(|r| r.workload == ra.workload && r.name == ra.name)
        else {
            println!("agree {} {} missing from set B", ra.workload, ra.name);
            ok = false;
            continue;
        };
        let e2e = END_TO_END.iter().find(|m| m.name == ra.name);
        let host = ra.clock == Clock::Host.label();
        if host && e2e.is_none() {
            continue; // per-layer host timings are reported, not gated
        }
        let (Some(va), Some(vb)) = (ra.median, rb.median) else {
            println!("agree {} {} unresolved", ra.workload, ra.name);
            ok = false;
            continue;
        };
        let delta = if va == 0.0 { vb.abs() } else { (vb - va).abs() / va.abs() };
        let tolerance = match e2e {
            Some(m) if host => m.bound,
            _ if ra.workload == "mandel_threads" => 1e-3,
            _ => 1e-9,
        };
        let within = delta <= tolerance || (vb - va).abs() <= e2e.map_or(0.0, |m| m.floor);
        if host || !within {
            let verdict = if within { "ok" } else { "DISAGREE" };
            println!(
                "agree {} {} A {} B {} delta {:.4} tolerance {tolerance} {verdict}",
                ra.workload,
                ra.name,
                json_number(va),
                json_number(vb),
                delta
            );
        }
        ok &= within;
    }
    ok
}

fn results_json(a: &Args, sets: &[Set], dead: &[&String]) -> String {
    let mut out = String::from("{\n  \"provenance\": {");
    let prov: Vec<String> = provenance(a)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    out.push_str(&prov.join(", "));
    out.push_str("},\n  \"sets\": [\n");
    let sets_json: Vec<String> = sets
        .iter()
        .map(|set| {
            let rows: Vec<String> = set
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "      {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"clock\": {}, \
                         \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                        json_string(&r.workload),
                        json_string(&r.name),
                        json_string(&r.unit),
                        json_string(&r.clock),
                        r.median.map_or("\"unresolved\"".to_string(), json_number),
                        json_number(r.q1),
                        json_number(r.q3),
                        r.n
                    )
                })
                .collect();
            format!("    [\n{}\n    ]", rows.join(",\n"))
        })
        .collect();
    out.push_str(&sets_json.join(",\n"));
    let dead: Vec<String> = dead.iter().map(|d| json_string(d)).collect();
    let _ = write!(out, "\n  ],\n  \"dead_signals\": [{}]\n}}\n", dead.join(", "));
    out
}

fn suite(a: &Args) -> Result<bool, String> {
    print_provenance(a);
    let mut sets = vec![run_set(a)?];
    if a.agree {
        sets.push(run_set(a)?);
    }
    // Runtime metrics that no workload moved: dead signals, or layers the
    // matrix does not reach. Reported, not gated.
    let dead: Vec<&String> =
        sets[0].counters.iter().filter(|(_, on)| on.is_empty()).map(|(name, _)| name).collect();
    if !sets[0].counters.is_empty() {
        let names: Vec<&str> = dead.iter().map(|s| s.as_str()).collect();
        println!(
            "# dead signals (zero or absent on all {} workloads): {}",
            workloads::ALL.len(),
            names.join(" ")
        );
    }
    let out = a.out.clone().or_else(|| a.out_dir.as_ref().map(|d| d.join("results.json")));
    if let Some(path) = out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, results_json(a, &sets, &dead))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# results: {}", path.display());
    }
    if let (Some(dir), true) = (&a.out_dir, a.traced || a.agree) {
        // One file for the whole suite, as the per-workload files arrive.
        let mut all = String::new();
        for w in &workloads::ALL {
            let path = dir.join(format!("spans.{}.jsonl", w.name));
            all.push_str(
                &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
        let path = dir.join("spans.jsonl");
        std::fs::write(&path, all).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {}", path.display());
    }
    Ok(match sets.as_slice() {
        [a, b] => agree(a, b),
        _ => true,
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| {
        if a.manifest {
            print!("{}", metrics::manifest());
            return Ok(true);
        }
        refuse_msgr_env()?;
        match &a.workload {
            Some(name) => {
                let workload = workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?;
                let opts = harness::Opts {
                    workload,
                    seed: a.seed,
                    seconds: a.seconds,
                    trace: a.trace,
                    smoke: a.smoke,
                    out_dir: a.out_dir.clone(),
                };
                print_provenance(&a);
                harness::run(&opts).map(|()| true)
            }
            None => suite(&a),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_back() {
        let row = parse_metric_line(
            "metric hop_ring work_per_s 1/s host 650000.5 640000 660000 5  # a note",
        )
        .expect("parses");
        assert_eq!(
            (row.workload.as_str(), row.name.as_str(), row.unit.as_str(), row.clock.as_str()),
            ("hop_ring", "work_per_s", "1/s", "host")
        );
        assert_eq!((row.median, row.q1, row.q3, row.n), (Some(650000.5), 640000.0, 660000.0, 5));
        let row = parse_metric_line("metric w m s host unresolved 1 2 5").expect("parses");
        assert_eq!(row.median, None);
        assert!(parse_metric_line("counter hop_ring hops 5").is_none());
        assert!(parse_metric_line("{\"correct\": true}").is_none());
    }

    fn row(workload: &str, name: &str, clock: Clock, median: f64) -> Parsed {
        Parsed {
            workload: workload.into(),
            name: name.into(),
            unit: "x".into(),
            clock: clock.label().into(),
            median: Some(median),
            q1: median,
            q3: median,
            n: 5,
        }
    }

    #[test]
    fn agreement_rules() {
        let set = |rows: Vec<Parsed>| Set { rows, counters: BTreeMap::new() };
        let bound = END_TO_END.iter().find(|m| m.name == "work_per_s").expect("declared").bound;
        let a = set(vec![
            row("hop_ring", "work_per_s", Clock::Host, 100.0),
            row("hop_ring", "setup_s", Clock::Host, 0.001),
            row("hop_ring", "bytes_per_hop", Clock::Count, 39.0),
            row("hop_ring", "vm.launch_ns", Clock::Host, 50.0),
        ]);
        // Inside the bound, under the set-up floor, identical count, and a
        // per-layer timing that is not gated.
        let b = set(vec![
            row("hop_ring", "work_per_s", Clock::Host, 100.0 * (1.0 - bound / 2.0)),
            row("hop_ring", "setup_s", Clock::Host, 0.003),
            row("hop_ring", "bytes_per_hop", Clock::Count, 39.0),
            row("hop_ring", "vm.launch_ns", Clock::Host, 500.0),
        ]);
        assert!(agree(&a, &b));
        let slower =
            set(vec![row("hop_ring", "work_per_s", Clock::Host, 100.0 * (1.0 - bound * 1.5))]);
        assert!(!agree(&set(vec![a.rows[0].clone()]), &slower));
        let moved = set(vec![row("hop_ring", "bytes_per_hop", Clock::Count, 39.01)]);
        assert!(!agree(&set(vec![a.rows[2].clone()]), &moved));
        assert!(!agree(&a, &set(vec![])));
    }
}
