//! One workload in this process: warm-up, timed repeats, and with
//! `--trace 1` a traced repeat plus the per-layer probes.
//!
//! A repeat is a fresh set-up (one `setup_s` sample), the timed `run`
//! (one wall-time sample) and an untimed read-back. Repeats continue
//! until the timed runs add up to `--seconds`. End-to-end numbers come
//! only from untraced repeats.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::{json_number, json_string};
use crate::metrics::{Clock, Source, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{Outcome, Workload};

pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: Option<PathBuf>,
}

/// Shortest timed repeat accepted outside `--smoke`: the threads
/// platform's 200 µs quiescence poll and 500 µs idle timeout put about
/// 0.7 ms of jitter on every run.
const MIN_REPEAT_S: f64 = 0.5;
const MIN_REPEATS: usize = 5;
/// Untraced repeats of a traced run: the base of `span.overhead_frac`.
const TRACED_RUN_BASE_REPEATS: usize = 2;
/// Share of `--seconds` a traced run gives the probes.
const PROBE_SHARE: f64 = 0.4;

struct Repeat {
    setup_s: f64,
    wall_s: f64,
    out: Outcome,
}

/// One printed row.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub summary: Summary,
    /// An end-to-end metric too spread out between the repeats (beyond
    /// its bound, and its floor) to be quoted as a number.
    pub unresolved: bool,
    pub note: String,
}

fn one_repeat(o: &Opts, spans: &mut Spans) -> Repeat {
    spans.enter("repeat");
    spans.enter("setup");
    let t = Instant::now();
    let mut job = (o.workload.setup)(o.seed, o.smoke, spans);
    let setup_s = t.elapsed().as_secs_f64();
    spans.exit();
    let t = Instant::now();
    job.run(spans);
    let wall_s = t.elapsed().as_secs_f64();
    let out = job.verify(spans);
    spans.scope("teardown", |_| drop(job));
    spans.exit();
    Repeat { setup_s, wall_s, out }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn over_repeats(repeats: &[Repeat], f: impl Fn(&Repeat) -> f64) -> Summary {
    Summary::of(&repeats.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end_rows(w: &Workload, repeats: &[Repeat]) -> Vec<Row> {
    END_TO_END
        .iter()
        .map(|m| {
            let summary = match m.name {
                "work_per_s" => over_repeats(repeats, |r| r.out.work as f64 / r.wall_s),
                "bytes_per_hop" => over_repeats(repeats, |r| {
                    let s = &r.out.stats;
                    ratio(s.counter("migration_bytes") as f64, s.counter("hops") as f64)
                }),
                "setup_s" => over_repeats(repeats, |r| r.setup_s),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            let note = match m.name {
                "work_per_s" => format!("work counted in {}", w.work_unit),
                _ => String::new(),
            };
            let unresolved = summary.spread() > m.bound && summary.q3 - summary.q1 > m.floor;
            Row { name: m.name, unit: m.unit, clock: m.clock, summary, unresolved, note }
        })
        .collect()
}

/// Process CPU seconds (user + system, all threads, from
/// `/proc/self/stat` at the kernel's 100 ticks per second) and peak
/// resident set in MB (`VmHWM` of `/proc/self/status`).
fn host_readings() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, 12th and 13th after the `)`.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    (ticks / 100.0, hwm_kb / 1024.0)
}

/// Everything a traced run hands to [`per_layer_rows`].
struct Traced<'a> {
    base: &'a [Repeat],
    traced: &'a Repeat,
    spans: &'a Spans,
    /// Index of the traced repeat's root span.
    root: usize,
    cpu_s: f64,
    peak_rss_mb: f64,
    elapsed_s: f64,
    probes: probes::Rows,
}

fn per_layer_rows(w: &Workload, t: Traced<'_>) -> Vec<Row> {
    let exact = |v: f64| (Summary::exact(v), String::new());
    let mut values = t.probes;
    let out = &t.traced.out;
    let stats = &out.stats;
    let base_wall = over_repeats(t.base, |r| r.wall_s);

    for (name, key) in [
        ("core.hops_per_s", "hops"),
        ("core.ops_per_s", "ops"),
        ("core.messengers_per_s", "terminated"),
    ] {
        let rate = over_repeats(t.base, |r| r.out.stats.counter(key) as f64 / r.wall_s);
        values.insert(name, (rate, String::new()));
    }
    let (sent, resent) = (stats.counter("xport_sent"), stats.counter("xport_retransmits"));
    values.insert("core.xport.retransmit_ratio", exact(ratio(resent as f64, sent as f64)));
    let delivery = |q: f64| stats.histogram("xport_delivery_ns").map_or(0, |h| h.quantile(q));
    values.insert("core.xport.delivery_ns_p50", exact(delivery(0.5) as f64));
    values.insert("core.xport.delivery_ns_p99", exact(delivery(0.99) as f64));
    values.insert("core.recovery_latency_ms_p50", exact(out.sim.recovery_ms_p50));
    values.insert("core.recovery_latency_ms_max", exact(out.sim.recovery_ms_max));
    values.insert("sim.makespan_s", exact(out.sim.makespan_s));
    values.insert("sim.msgr_over_pvm", exact(out.sim.msgr_over_pvm));

    // Spans of the traced repeat only: the probes record their own
    // compile/register/... spans under other roots.
    let span_s = |name: &str| t.spans.seconds_under(t.root, name);
    for (metric, span) in [
        ("span.compile_s", "compile"),
        ("span.register_s", "register"),
        ("span.build_s", "build"),
        ("span.inject_s", "inject"),
        ("span.run_s", "run"),
        ("span.readback_s", "readback"),
        ("span.mandel_msgr_s", "mandel_msgr"),
        ("span.mandel_pvm_s", "mandel_pvm"),
        ("span.matmul_msgr_s", "matmul_msgr"),
        ("span.matmul_pvm_s", "matmul_pvm"),
        ("apps.mandel_work_s", "precompute"),
    ] {
        values.insert(metric, exact(span_s(span)));
    }
    values.insert("pvm.host_s", exact(span_s("mandel_pvm") + span_s("matmul_pvm")));
    let root_s = t.spans.all()[t.root].seconds();
    values.insert("span.root_coverage", exact(ratio(t.spans.child_seconds(t.root), root_s)));
    let run_s = span_s("run");
    values.insert(
        "span.overhead_frac",
        (
            Summary::exact(ratio(run_s, base_wall.median) - 1.0),
            format!(
                "traced run {run_s:.4} s over untraced median {:.4} s, less 1",
                base_wall.median
            ),
        ),
    );
    let seq_s = out.seq_equiv * span_s("precompute");
    values.insert(
        "apps.mandel.speedup_vs_seq",
        (
            Summary::exact(ratio(seq_s, run_s)),
            format!("sequential {seq_s:.4} s over traced run {run_s:.4} s"),
        ),
    );

    values.insert("host.peak_rss_mb", exact(t.peak_rss_mb));
    values.insert("host.cpu_s", exact(t.cpu_s));
    values.insert(
        "host.cpu_util",
        (
            Summary::exact(ratio(t.cpu_s, t.elapsed_s)),
            format!("cpu {:.2} s over {:.2} s of process wall time", t.cpu_s, t.elapsed_s),
        ),
    );

    // What the layer probes predict for this run, over what it took:
    // hops at the matching per-hop cost plus ops at the interpreter's.
    let probe = |name: &str| values.get(name).map_or(0.0, |v| v.0.median);
    let (hops, ops) = (stats.counter("hops") as f64, stats.counter("ops") as f64);
    let bytes_per_hop = ratio(stats.counter("migration_bytes") as f64, hops);
    let hop_metric = if w.host_threads == 1 {
        "core.sim.hop_host_ns"
    } else if bytes_per_hop > 2048.0 {
        "core.daemon.hop_ns_4k"
    } else {
        "core.daemon.hop_ns"
    };
    let predicted_s = (hops * probe(hop_metric) + ops * probe("vm.interp_ns_per_op")) / 1e9;
    let available_s = t.traced.wall_s * w.host_threads as f64;
    values.insert(
        "model.explained_frac",
        (
            Summary::exact(ratio(predicted_s, available_s)),
            format!(
                "{hops} hops at {hop_metric} plus {ops} ops at vm.interp_ns_per_op = \
                 {predicted_s:.4} s over {available_s:.4} thread-seconds"
            ),
        ),
    );

    let rows: Vec<Row> = PER_LAYER
        .iter()
        .map(|m| {
            let (summary, note) = match m.source {
                Source::Counter(key) => exact(stats.counter(key) as f64),
                Source::Pvm(key) => exact(out.pvm.counter(key) as f64),
                Source::Probe | Source::Harness => values
                    .remove(m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was never measured", m.name)),
            };
            Row { name: m.name, unit: m.unit, clock: m.clock, summary, unresolved: false, note }
        })
        .collect();
    assert!(values.is_empty(), "undeclared per-layer metrics: {:?}", values.keys());
    rows
}

fn print_row(workload: &str, r: &Row) {
    let s = &r.summary;
    let median = if r.unresolved { "unresolved".to_string() } else { json_number(s.median) };
    let note = if r.note.is_empty() { String::new() } else { format!("  # {}", r.note) };
    println!(
        "metric {workload} {} {} {} {median} {} {} {}{note}",
        r.name,
        r.unit,
        r.clock.label(),
        json_number(s.q1),
        json_number(s.q3),
        s.n
    );
}

/// The driver's result line.
fn result_line(attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(r.name),
                json_number(r.summary.median),
                json_string(r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// What a run measured: its rows and the output checks behind them.
pub struct Measured {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(setup_s, wall_s)` of every timed repeat made.
    pub repeats: Vec<(f64, f64)>,
    /// After a traced run: every metric the runtime registers and what the
    /// traced repeat counted under it, for the suite's dead-signal report.
    pub counters: Vec<(&'static str, u64)>,
}

/// Run the workload and print its rows and, last, the result line.
pub fn run(o: &Opts) -> Result<(), String> {
    let m = measure(o)?;
    for (i, (setup_s, wall_s)) in m.repeats.iter().enumerate() {
        println!("# repeat {} setup_s {setup_s:.6} wall_s {wall_s:.6}", i + 1);
    }
    for (name, v) in &m.counters {
        println!("counter {} {name} {v}", o.workload.name);
    }
    for r in &m.rows {
        print_row(o.workload.name, r);
    }
    for f in m.failures.iter().take(10) {
        eprintln!("{}: check failed: {f}", o.workload.name);
    }
    println!("{}", result_line(m.attempted, m.failures.len() as u64, &m.rows));
    Ok(())
}

/// Warm up, repeat, and with `o.trace` trace and probe.
pub fn measure(o: &Opts) -> Result<Measured, String> {
    let started = Instant::now();
    let w = o.workload;
    let mut spans = Spans::new();
    let mut attempted = 0;
    let mut failures: Vec<String> = Vec::new();
    let mut absorb = |out: &mut Outcome| {
        attempted += out.attempted;
        failures.append(&mut out.failures);
    };

    let mut warm_up = one_repeat(o, &mut spans);
    absorb(&mut warm_up.out);

    let (target_s, min_repeats) = match (o.smoke, o.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (0.0, TRACED_RUN_BASE_REPEATS),
        (false, false) => (o.seconds, MIN_REPEATS),
    };
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut measured_s = 0.0;
    while repeats.len() < min_repeats || measured_s < target_s {
        let mut r = one_repeat(o, &mut spans);
        absorb(&mut r.out);
        if !o.smoke && r.wall_s < MIN_REPEAT_S {
            return Err(format!(
                "{}: a timed repeat took {:.3} s, under the {MIN_REPEAT_S} s noise floor",
                w.name, r.wall_s
            ));
        }
        measured_s += r.wall_s;
        repeats.push(r);
    }

    let mut counters = Vec::new();
    let rows = if o.trace {
        spans.on = true;
        let root = spans.all().len();
        let mut traced = one_repeat(o, &mut spans);
        absorb(&mut traced.out);
        let (cpu_s, peak_rss_mb) = host_readings();
        let elapsed_s = started.elapsed().as_secs_f64();
        let budget_s = if o.smoke { 0.05 } else { o.seconds * PROBE_SHARE };
        let probes = probes::run_all(&mut spans, budget_s, o.seed);
        spans.on = false;
        if let Some(dir) = &o.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("spans.{}.jsonl", w.name));
            std::fs::write(&path, spans.to_jsonl(w.name))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        for m in msgr_trace::Metric::ALL {
            let (s, name) = (&traced.out.stats, m.name());
            let hist = s.histogram(name).map_or(0, |h| h.count());
            let pvm = traced.out.pvm.counter(name);
            counters.push((name, s.counter(name) + s.gauge(name) + hist + pvm));
        }
        per_layer_rows(
            w,
            Traced {
                base: &repeats,
                traced: &traced,
                spans: &spans,
                root,
                cpu_s,
                peak_rss_mb,
                elapsed_s,
                probes,
            },
        )
    } else {
        end_to_end_rows(w, &repeats)
    };

    let repeats = repeats.iter().map(|r| (r.setup_s, r.wall_s)).collect();
    Ok(Measured { rows, attempted, failures, repeats, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// A smoke run emits exactly the declared metric names, in order, for
    /// both kinds of run (and `metrics::tests` holds `BENCHMARK.json` to
    /// the same tables).
    #[test]
    fn smoke_run_emits_the_declared_names() {
        for trace in [false, true] {
            let o = Opts {
                workload: workloads::by_name("hop_ring").expect("declared"),
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
                out_dir: None,
            };
            let m = measure(&o).expect("smoke run");
            assert_eq!(m.failures, Vec::<String>::new());
            assert!(m.attempted >= 1);
            let got: Vec<&str> = m.rows.iter().map(|r| r.name).collect();
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|p| p.name).collect()
            } else {
                END_TO_END.iter().map(|e| e.name).collect()
            };
            assert_eq!(got, declared);
            assert!(m.rows.iter().all(|r| r.summary.median.is_finite()));
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let rows = vec![Row {
            name: "setup_s",
            unit: "s",
            clock: Clock::Host,
            summary: Summary::exact(0.25),
            unresolved: false,
            note: String::new(),
        }];
        assert_eq!(
            result_line(3, 1, &rows),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
