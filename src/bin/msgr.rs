//! `msgr` — the MESSENGERS command shell.
//!
//! The paper's users inject messengers "from the shell" into any
//! daemon's `init` node (§2.1). This binary is that shell, batch-style:
//! compile an MSGR-C script, optionally build a logical network from a
//! topology file, inject messengers, run the cluster, and print node
//! variables.
//!
//! ```text
//! msgr check  script.mc                      # compile only
//! msgr dis    script.mc                      # disassemble bytecode
//! msgr run    script.mc [options]
//!     --daemons N          cluster size, 1 to 65535 (default 4)
//!     --threads            real threaded runtime (default: simulator)
//!     --topology FILE      net_builder topology file (node/link lines)
//!     --entry NAME         entry function (default: first in file)
//!     --inject WHERE[:a,b] injection point: daemon number or node name,
//!                          with optional int/float/string arguments
//!                          (repeatable; default: one messenger at daemon 0)
//!     --show NODE.VAR      print a node variable after the run (repeatable)
//!     --seed N             RNG seed (default 0x5EED); same seed + same
//!                          flags ⇒ bit-identical run and trace
//!     --trace FILE         record the flight-recorder trace as JSONL
//!     --exec MODE          execution engine: `interp` (default) or
//!                          `compiled` (the interpreter entering fused
//!                          loops; identical results, faster on
//!                          loop-heavy code)
//!     --faults SPEC        inject faults (simulator only); SPEC is a
//!                          comma list of drop=P, dup=P, reorder=P,
//!                          kill=HOST@MS (permanent death + failover) and
//!                          crash=HOST@MS+MS (transient, down for +MS)
//!     --replication K      checkpoint replication factor: each version is
//!                          write-ahead copied to K next-alive holders
//!                          (default 1; simulator only)
//!     --profile            cost-attribution profiling: per-messenger
//!                          phase ledgers + VM pc samples ride the trace
//!                          stream (implies tracing)
//! msgr trace  record  script.mc --out FILE [run options]
//! msgr trace  summary FILE                   # validate + summarize
//!                                            # (exit 1 if rings truncated)
//! msgr trace  chrome  IN OUT                 # convert to Chrome trace_event
//! msgr trace  diff    A B                    # compare two trace files
//! msgr profile FILE [--folded OUT]           # cost attribution over a trace
//!                                            # recorded with `run --profile`
//! msgr metrics --list                        # the typed metric registry
//! ```
//!
//! Examples:
//!
//! ```text
//! msgr run examples/scripts/census.mc --daemons 8 --show init.workers
//! msgr run examples/scripts/census.mc --daemons 4 --faults drop=0.01,kill=2@50
//! msgr trace record examples/scripts/walker.mc --out walk.jsonl --daemons 4
//! msgr trace chrome walk.jsonl walk.trace.json   # open in Perfetto
//! ```
//!
//! Exit status: 0 on success, 1 when the script has findings (compile or
//! verification errors), the run fails, a trace fails validation, or
//! `trace diff` finds differences; 2 on internal errors (unreadable
//! files, bad usage).

use std::process::ExitCode;

use messengers::core::topology::LogicalTopology;
use messengers::core::{
    Cluster, ClusterConfig, ExecMode, Platform, SimCluster, ThreadCluster, Trace, TraceConfig,
};
use messengers::sim::{CrashEvent, FaultPlan, MILLI};
use messengers::vm::{Program, Value};

/// A finding: the user's script or run is at fault (exit 1).
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("msgr: {msg}");
    ExitCode::FAILURE
}

/// An internal/usage error: nothing wrong with the script (exit 2).
fn fail_internal(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("msgr: {msg}");
    ExitCode::from(2)
}

/// Parse a `--faults` spec: `drop=P,dup=P,reorder=P,kill=H@MS,crash=H@MS+MS`.
fn parse_faults(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let (key, val) =
            part.split_once('=').ok_or_else(|| format!("`{part}` is not key=value"))?;
        let prob = |v: &str| -> Result<f64, String> {
            let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability `{v}` outside [0,1]"));
            }
            Ok(p)
        };
        let host_at = |v: &str| -> Result<(u32, u64), String> {
            let (h, at) = v.split_once('@').ok_or_else(|| format!("`{v}` wants HOST@MS"))?;
            Ok((
                h.parse().map_err(|_| format!("bad host `{h}`"))?,
                at.parse().map_err(|_| format!("bad time `{at}`"))?,
            ))
        };
        match key {
            "drop" => plan.drop_p = prob(val)?,
            "dup" => plan.dup_p = prob(val)?,
            "reorder" => {
                plan.reorder_p = prob(val)?;
                if plan.reorder_delay == 0 {
                    plan.reorder_delay = MILLI;
                }
            }
            "kill" => {
                let (h, at) = host_at(val)?;
                plan.crashes.push(CrashEvent::kill(h, at * MILLI));
            }
            "crash" => {
                let (h, rest) = val
                    .split_once('@')
                    .map(|(h, r)| (h.to_string(), r))
                    .ok_or_else(|| format!("`{val}` wants HOST@MS+MS"))?;
                let (at, down) =
                    rest.split_once('+').ok_or_else(|| format!("`{val}` wants HOST@MS+MS"))?;
                plan.crashes.push(CrashEvent::transient(
                    h.parse().map_err(|_| format!("bad host `{h}`"))?,
                    at.parse::<u64>().map_err(|_| format!("bad time `{at}`"))? * MILLI,
                    down.parse::<u64>().map_err(|_| format!("bad duration `{down}`"))? * MILLI,
                ));
            }
            other => return Err(format!("unknown fault key `{other}`")),
        }
    }
    Ok(plan)
}

fn parse_arg_value(raw: &str) -> Value {
    if let Ok(i) = raw.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = raw.parse::<f64>() {
        if !f.is_nan() {
            return Value::Float(f);
        }
    }
    Value::str(raw)
}

struct Injection {
    where_: String,
    args: Vec<Value>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return fail_internal("usage: msgr <check|dis|run|trace> <script.mc> [options]"),
    };
    if cmd == "trace" {
        return trace_cmd(rest);
    }
    if cmd == "profile" {
        return profile_cmd(rest);
    }
    if cmd == "metrics" {
        return metrics_cmd(rest);
    }
    let (path, opts) = match rest.split_first() {
        Some((p, o)) => (p.as_str(), o),
        None => return fail_internal("missing script path"),
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail_internal(format!("cannot read `{path}`: {e}")),
    };

    match cmd {
        "check" => match messengers::lang::compile(&source) {
            Ok(p) => {
                // Run the same static analysis the daemon registry
                // applies at load time, so `check` means "will load".
                let report = messengers::analyze::analyze(&p);
                for d in &report.diags {
                    println!("{}", d.render(&p));
                }
                if !report.is_verified() {
                    return fail("program failed verification");
                }
                println!(
                    "ok: {} function(s), {} bytecode ops, program {}",
                    p.funcs.len(),
                    p.instruction_count(),
                    p.id()
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "dis" => match messengers::lang::compile(&source) {
            Ok(p) => {
                print!("{}", messengers::lang::dis::disassemble(&p));
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "run" => run(&source, opts),
        other => fail_internal(format!("unknown command `{other}`")),
    }
}

/// `msgr profile FILE [--folded OUT]`: cost attribution over a merged
/// trace recorded with `run --profile`.
fn profile_cmd(args: &[String]) -> ExitCode {
    let (path, rest) = match args.split_first() {
        Some((p, r)) => (p.as_str(), r),
        None => return fail_internal("usage: msgr profile FILE [--folded OUT]"),
    };
    let mut folded_out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--folded" => match it.next() {
                Some(f) => folded_out = Some(f.clone()),
                None => return fail_internal("--folded needs a file"),
            },
            other => return fail_internal(format!("unknown option `{other}`")),
        }
    }
    let t = match load_trace(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let p = messengers::prof::Profile::from_trace(&t);
    if p.is_empty() {
        return fail(format!(
            "`{path}` carries no profiler events; record it with `msgr run --profile --trace`"
        ));
    }
    print!("{}", p.report());
    if let Some(out) = folded_out {
        let folded = p.folded();
        if let Err(e) = std::fs::write(&out, &folded) {
            return fail_internal(format!("cannot write `{out}`: {e}"));
        }
        println!("\nfolded stacks: {} line(s) -> {out}", folded.lines().count());
    }
    ExitCode::SUCCESS
}

/// `msgr metrics --list`: print the typed metric registry.
fn metrics_cmd(args: &[String]) -> ExitCode {
    use messengers::trace::{Metric, MetricKind, Unit};
    if args != ["--list"] {
        return fail_internal("usage: msgr metrics --list");
    }
    for &m in Metric::ALL {
        let kind = match m.kind() {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let unit = match m.unit() {
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Nanos => "ns",
            Unit::Ops => "ops",
        };
        println!("{:<28} {kind:<9} {unit}", m.name());
    }
    ExitCode::SUCCESS
}

/// Load and schema-validate a trace file. `Err(code)` is already the
/// process exit status: 2 for I/O problems, 1 for validation findings.
fn load_trace(path: &str) -> Result<Trace, ExitCode> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| fail_internal(format!("cannot read `{path}`: {e}")))?;
    Trace::from_jsonl(&text).map_err(|e| fail(format!("`{path}` is not a valid trace: {e}")))
}

/// The `msgr trace` subcommands: record, summary, chrome, diff.
fn trace_cmd(args: &[String]) -> ExitCode {
    let usage = "usage: msgr trace <record script.mc --out FILE [run options] \
                 | summary FILE | chrome IN OUT | diff A B>";
    let (sub, rest) = match args.split_first() {
        Some((s, r)) => (s.as_str(), r),
        None => return fail_internal(usage),
    };
    match sub {
        "record" => {
            let (path, opts) = match rest.split_first() {
                Some((p, o)) => (p.as_str(), o),
                None => return fail_internal("trace record: missing script path"),
            };
            // `record` is `run` with a mandatory `--trace`: lift `--out`
            // into the run option and reuse the whole run pipeline.
            let mut out: Option<String> = None;
            let mut run_opts: Vec<String> = Vec::new();
            let mut it = opts.iter();
            while let Some(o) = it.next() {
                if o == "--out" {
                    match it.next() {
                        Some(f) => out = Some(f.clone()),
                        None => return fail_internal("--out needs a file"),
                    }
                } else {
                    run_opts.push(o.clone());
                }
            }
            let Some(out) = out else {
                return fail_internal("trace record: --out FILE is required");
            };
            run_opts.push("--trace".to_string());
            run_opts.push(out);
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => return fail_internal(format!("cannot read `{path}`: {e}")),
            };
            run(&source, &run_opts)
        }
        "summary" => {
            let [path] = rest else {
                return fail_internal("usage: msgr trace summary FILE");
            };
            match load_trace(path) {
                Ok(t) => {
                    print!("{}", t.summary());
                    if t.dropped > 0 {
                        // Truncated rings mean the oldest window of those
                        // daemons' streams is missing: a finding, since
                        // any analysis over this trace is partial.
                        return fail(format!(
                            "{} event(s) lost to flight-recorder ring bounds",
                            t.dropped
                        ));
                    }
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        "chrome" => {
            let [input, output] = rest else {
                return fail_internal("usage: msgr trace chrome IN OUT");
            };
            let t = match load_trace(input) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let doc = messengers::trace::chrome::to_chrome(&t);
            match std::fs::write(output, doc) {
                Ok(()) => {
                    println!("wrote {output} ({} events); open it in Perfetto", t.events.len());
                    ExitCode::SUCCESS
                }
                Err(e) => fail_internal(format!("cannot write `{output}`: {e}")),
            }
        }
        "diff" => {
            let [a_path, b_path] = rest else {
                return fail_internal("usage: msgr trace diff A B");
            };
            let (a, b) = match (load_trace(a_path), load_trace(b_path)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            let diffs = a.diff(&b, 10);
            if diffs.is_empty() {
                println!("traces are identical ({} events)", a.events.len());
                ExitCode::SUCCESS
            } else {
                for d in &diffs {
                    println!("{d}");
                }
                fail(format!("{} difference(s) between `{a_path}` and `{b_path}`", diffs.len()))
            }
        }
        other => fail_internal(format!("unknown trace subcommand `{other}`; {usage}")),
    }
}

/// Print the human-readable recovery section of a kill-bearing run: the
/// restored/replayed counters, then the trace's recovery timeline.
fn print_recovery(stats: &messengers::sim::Stats, trace: Option<&Trace>) {
    println!("recovery:");
    for key in [
        "kills",
        "fd_deaths",
        "evictions",
        "restores",
        "restored_nodes",
        "restored_messengers",
        "xport_redirected",
    ] {
        println!("  {key}: {}", stats.counter(key));
    }
    let lat = stats.counter("recovery_latency_ns");
    if lat > 0 {
        println!("  recovery_latency_ms: {:.3}", lat as f64 / 1e6);
    }
    if let Some(t) = trace {
        let s = t.summary();
        if let Some(pos) = s.find("recovery timeline:") {
            print!("{}", &s[pos..]);
        }
    }
}

fn run(source: &str, opts: &[String]) -> ExitCode {
    let mut daemons = 4usize;
    let mut threads = false;
    let mut entry: Option<String> = None;
    let mut job = Job::default();
    let mut faults = FaultPlan::none();
    let mut seed: Option<u64> = None;
    let mut exec: Option<ExecMode> = None;
    let mut replication: Option<usize> = None;

    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{opt} needs {what}"))
        };
        let result: Result<(), String> = (|| {
            match opt.as_str() {
                "--daemons" => {
                    let n: usize =
                        take("a count")?.parse().map_err(|_| "bad daemon count".to_string())?;
                    if n == 0 || n > u16::MAX as usize {
                        return Err(format!("--daemons wants 1 to {}", u16::MAX));
                    }
                    daemons = n;
                }
                "--threads" => threads = true,
                "--dump" => job.dump = true,
                "--topology" => {
                    let file = take("a file")?;
                    let text = std::fs::read_to_string(&file)
                        .map_err(|e| format!("cannot read `{file}`: {e}"))?;
                    job.topology = Some(LogicalTopology::parse(&text)?);
                }
                "--entry" => entry = Some(take("a function name")?),
                "--inject" => {
                    let spec = take("an injection point")?;
                    let (where_, args) = match spec.split_once(':') {
                        Some((w, a)) => (
                            w.to_string(),
                            a.split(',').filter(|s| !s.is_empty()).map(parse_arg_value).collect(),
                        ),
                        None => (spec, Vec::new()),
                    };
                    job.injections.push(Injection { where_, args });
                }
                "--show" => {
                    let spec = take("NODE.VAR")?;
                    let (node, var) =
                        spec.split_once('.').ok_or_else(|| "--show wants NODE.VAR".to_string())?;
                    job.shows.push((node.to_string(), var.to_string()));
                }
                "--faults" => faults = parse_faults(&take("a fault spec")?)?,
                "--seed" => {
                    seed = Some(take("a seed")?.parse().map_err(|_| "bad seed".to_string())?);
                }
                "--trace" => job.trace_out = Some(take("a file")?),
                "--profile" => job.profile = true,
                "--exec" => {
                    let mode = take("`interp` or `compiled`")?;
                    exec = Some(
                        ExecMode::parse(&mode).ok_or_else(|| format!("bad exec mode `{mode}`"))?,
                    );
                }
                "--replication" => {
                    let k: usize = take("a replication factor")?
                        .parse()
                        .map_err(|_| "bad replication factor".to_string())?;
                    if k == 0 {
                        return Err("--replication wants k >= 1".to_string());
                    }
                    replication = Some(k);
                }
                other => return Err(format!("unknown option `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            return fail_internal(e);
        }
    }
    if let Err(e) = faults.validate(daemons) {
        return fail_internal(format!("invalid fault plan: {e}"));
    }
    if faults.crashes.iter().any(|c| c.is_kill() && c.host == 0) {
        return fail_internal(
            "daemon 0 hosts the GVT coordinator and cannot be permanently killed",
        );
    }
    if job.injections.is_empty() {
        job.injections.push(Injection { where_: "0".to_string(), args: Vec::new() });
    }

    let program = match entry {
        Some(name) => messengers::lang::compile_with_entry(source, &name),
        None => messengers::lang::compile(source),
    };
    let program = match program {
        Ok(p) => p,
        Err(e) => return fail(e),
    };

    // Kill-bearing runs (simulator only) get tracing for free: the
    // recovery timeline printed after the run comes out of the flight
    // recorders.
    job.recovery = faults.has_kills();

    let mut cfg = ClusterConfig::new(daemons);
    cfg.faults = faults;
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(m) = exec {
        cfg.exec = m;
    }
    if let Some(k) = replication {
        cfg.replication = k;
    }
    if job.trace_out.is_some() || job.recovery {
        cfg.trace = TraceConfig::on();
    }
    // The platform constructor forces tracing on when profiling: the
    // phase ledgers travel in the trace stream.
    cfg.profile = job.profile;
    if !threads {
        return job.drive(SimCluster::new(cfg), &program);
    }
    if job.dump {
        return fail_internal("--dump is only available on the simulation platform");
    }
    if cfg.reliable() {
        return fail_internal("--faults is only available on the simulation platform");
    }
    if replication.is_some() {
        return fail_internal("--replication is only available on the simulation platform");
    }
    match ThreadCluster::new(cfg) {
        Ok(cluster) => job.drive(cluster, &program),
        Err(e) => fail(e),
    }
}

/// What `msgr run` does with a configured cluster, on either platform.
#[derive(Default)]
struct Job {
    topology: Option<LogicalTopology>,
    injections: Vec<Injection>,
    shows: Vec<(String, String)>,
    /// Print the logical network after the run.
    dump: bool,
    /// Print the recovery counters and timeline after the run.
    recovery: bool,
    profile: bool,
    trace_out: Option<String>,
}

impl Job {
    /// Build, inject `program`, run and print; the exit status says
    /// whether any messenger faulted.
    fn drive<P: Platform>(&self, mut cluster: Cluster<P>, program: &Program) -> ExitCode {
        if let Some(t) = &self.topology {
            if let Err(e) = cluster.build(t) {
                return fail(e);
            }
        }
        let pid = cluster.register_program(program);
        for inj in &self.injections {
            let outcome = match inj.where_.parse::<u16>() {
                Ok(d) => cluster.inject(d, pid, &inj.args),
                Err(_) => cluster.inject_at(&Value::str(&inj.where_), pid, &inj.args),
            };
            if let Err(e) = outcome {
                return fail(format!("inject at `{}`: {e}", inj.where_));
            }
        }
        let report = match cluster.run() {
            Ok(report) => report,
            Err(e) => return fail(e),
        };
        println!("{:.6} {} seconds | counters:", report.seconds, report.clock);
        for (k, v) in report.stats.counters() {
            println!("  {k}: {v}");
        }
        for (id, err) in &report.faults {
            eprintln!("fault: messenger {id}: {err}");
        }
        for (node, var) in &self.shows {
            let name = Value::str(node);
            let v =
                cluster.node_var_by_name(&name, var).or_else(|| cluster.node_var(0, &name, var));
            println!("{node}.{var} = {}", v.unwrap_or(Value::Null));
        }
        if self.recovery {
            print_recovery(&report.stats, report.trace.as_ref());
        }
        if self.profile {
            if let Some(t) = &report.trace {
                print!("{}", messengers::prof::Profile::from_trace(t).report());
            }
        }
        if let (Some(path), Some(t)) = (&self.trace_out, &report.trace) {
            if let Err(e) = std::fs::write(path, t.to_jsonl()) {
                return fail_internal(format!("cannot write `{path}`: {e}"));
            }
            println!("trace: {} event(s) -> {path}", t.events.len());
        }
        if self.dump {
            print!("{}", cluster.network_dump());
        }
        if report.faults.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
