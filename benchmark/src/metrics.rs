//! The declared metrics. `BENCHMARK.json` at the repo root is generated
//! from these tables and the workload table (`--manifest`), and a test
//! holds the committed file to them.

use crate::json::json_string;
use crate::workloads;

/// How long one run measures; `run_seconds` of `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Which clock a value was read from. Host timings are noisy and are the
/// only thing an optimisation can improve; simulated-clock values and
/// counts repeat exactly for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, reported by every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Two values closer than this are the same value, whatever their
    /// ratio (`BENCHMARK.json` has no field for it; `unresolved` and
    /// `--agree` use it).
    pub floor: f64,
    pub clock: Clock,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "bytes_per_hop",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
        floor: 0.0,
        clock: Clock::Count,
    },
    // Most set-ups here take well under 5 ms, where a quarter is noise.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
        clock: Clock::Host,
    },
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A MESSENGERS counter of the traced repeat's merged `Stats`.
    Counter(&'static str),
    /// A PVM-baseline counter of the traced repeat.
    Pvm(&'static str),
    /// A calibrated single-threaded loop in `probes.rs`.
    Probe,
    /// Spans, `/proc`, or a value derived by the harness.
    Harness,
}

/// A metric of a single layer; the layer is the name's prefix.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    pub source: Source,
}

const fn probe(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, clock: Clock::Host, source: Source::Probe }
}

const fn count(name: &'static str, unit: &'static str, key: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Count,
        source: Source::Counter(key),
    }
}

const fn harness(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> PerLayer {
    PerLayer { name, unit, better, clock, source: Source::Harness }
}

const fn higher(m: PerLayer) -> PerLayer {
    PerLayer { better: Better::Higher, ..m }
}

pub const PER_LAYER: [PerLayer; 102] = [
    // lang: the MSGR-C front end over the six-script corpus.
    probe("lang.compile_ns", "ns"),
    higher(probe("lang.tokens_per_s", "1/s")),
    harness("lang.bytecode_ops", "ops", Better::Lower, Clock::Count),
    // analyze: verifier and full analysis over the corpus.
    probe("analyze.verify_ns", "ns"),
    probe("analyze.analyze_ns", "ns"),
    // vm: the hot-loop body under each engine, launch, state codec.
    probe("vm.interp_ns_per_op", "ns/op"),
    probe("vm.compiled_ns_per_op", "ns/op"),
    probe("vm.summaries_ns_per_op", "ns/op"),
    probe("vm.closure_compile_ns", "ns"),
    probe("vm.launch_ns", "ns"),
    probe("vm.encode_ns_small", "ns"),
    probe("vm.decode_ns_small", "ns"),
    probe("vm.encode_ns_4k", "ns"),
    probe("vm.decode_ns_4k", "ns"),
    harness("vm.state_bytes_small", "B", Better::Lower, Clock::Count),
    harness("vm.state_bytes_4k", "B", Better::Lower, Clock::Count),
    // core: cluster set-up calls, one daemon's hop path, thread wake.
    probe("core.register_ns", "ns"),
    probe("core.build_ns_per_node", "ns/node"),
    probe("core.inject_ns", "ns"),
    probe("core.daemon.hop_ns", "ns/hop"),
    probe("core.daemon.hop_ns_4k", "ns/hop"),
    probe("core.threads.wake_ns", "ns/hop"),
    probe("core.threads.spawn_join_ns", "ns"),
    probe("core.sim.hop_host_ns", "ns/hop"),
    harness("core.sim.events_per_hop", "events/hop", Better::Lower, Clock::Count),
    // core: what the traced repeat's daemons counted.
    count("core.daemon.segments", "count", "segments"),
    count("core.daemon.ops", "ops", "ops"),
    count("core.daemon.hops", "count", "hops"),
    count("core.daemon.creates", "count", "creates"),
    count("core.daemon.terminated", "count", "terminated"),
    count("core.migrations_out", "count", "migrations_out"),
    count("core.migration_bytes", "B", "migration_bytes"),
    count("core.lane_steals", "count", "lane_steals"),
    count("core.batch_flushes", "count", "batch_flushes"),
    count("core.batch_frames", "count", "batch_frames"),
    count("core.compile_programs", "count", "compile_programs"),
    count("core.analysis_typed_loops", "count", "analysis_typed_loops"),
    count("core.analysis_snapshots_elided", "count", "analysis_snapshots_elided"),
    harness("core.hops_per_s", "1/s", Better::Higher, Clock::Host),
    harness("core.ops_per_s", "1/s", Better::Higher, Clock::Host),
    harness("core.messengers_per_s", "1/s", Better::Higher, Clock::Host),
    // core: the reliability stack; zero wherever no fault plan is set.
    count("core.xport.sent", "count", "xport_sent"),
    count("core.xport.acked", "count", "xport_acked"),
    count("core.xport.retransmits", "count", "xport_retransmits"),
    count("core.xport.dup_dropped", "count", "xport_dup_dropped"),
    harness("core.xport.retransmit_ratio", "ratio", Better::Lower, Clock::Count),
    harness("core.xport.delivery_ns_p50", "ns", Better::Lower, Clock::Sim),
    harness("core.xport.delivery_ns_p99", "ns", Better::Lower, Clock::Sim),
    count("core.fd.beats", "count", "fd_beats"),
    count("core.fd.deaths", "count", "fd_deaths"),
    count("core.ckpt.count", "count", "checkpoints"),
    count("core.ckpt.bytes", "B", "checkpoint_bytes"),
    count("core.ckpt.replica_bytes", "B", "ckpt_replica_bytes"),
    count("core.restores", "count", "restores"),
    count("core.restored_messengers", "count", "restored_messengers"),
    harness("core.recovery_latency_ms_p50", "ms", Better::Lower, Clock::Sim),
    harness("core.recovery_latency_ms_max", "ms", Better::Lower, Clock::Sim),
    // sim: event engine, network model, fault injector, simulated results.
    higher(probe("sim.engine.events_per_s", "1/s")),
    count("sim.wires", "count", "wires"),
    count("sim.wire_bytes", "B", "wire_bytes"),
    count("sim.net.messages", "count", "net_messages"),
    count("sim.net.payload_bytes", "B", "net_payload_bytes"),
    count("sim.net.queueing_ns", "ns", "net_queueing_ns"),
    count("sim.fault.frames_lost", "count", "net_frames_lost"),
    harness("sim.makespan_s", "s", Better::Lower, Clock::Sim),
    harness("sim.msgr_over_pvm", "ratio", Better::Lower, Clock::Sim),
    // gvt
    probe("gvt.round_ns_32", "ns"),
    count("gvt.rounds", "count", "gvt_rounds"),
    // ctrl
    probe("ctrl.decree_ns_5", "ns"),
    count("ctrl.proposals", "count", "ctrl_proposals"),
    count("ctrl.frames", "count", "ctrl_frames"),
    count("ctrl.decrees", "count", "ctrl_decrees"),
    count("ctrl.gossip_pushes", "count", "gossip_pushes"),
    count("ctrl.gossip_merges", "count", "gossip_merges"),
    // trace, prof: over the events of one small traced + profiled sim ring.
    probe("trace.to_jsonl_ns_per_event", "ns/event"),
    probe("trace.from_jsonl_ns_per_event", "ns/event"),
    probe("prof.from_trace_ns_per_event", "ns/event"),
    harness("trace.run_overhead_frac", "fraction", Better::Lower, Clock::Host),
    // pvm: the baseline's buffer codec and what it sent on paper_figs.
    probe("pvm.pack_unpack_ns_4k", "ns"),
    PerLayer {
        name: "pvm.messages",
        unit: "count",
        better: Better::Lower,
        clock: Clock::Count,
        source: Source::Pvm("messages"),
    },
    PerLayer {
        name: "pvm.message_bytes",
        unit: "B",
        better: Better::Lower,
        clock: Clock::Count,
        source: Source::Pvm("message_bytes"),
    },
    harness("pvm.host_s", "s", Better::Lower, Clock::Host),
    // apps: the real kernels.
    probe("apps.mandel_kernel_ns_per_iter", "ns/iter"),
    probe("apps.block_multiply_ns_64", "ns"),
    harness("apps.mandel_work_s", "s", Better::Lower, Clock::Host),
    harness("apps.mandel.speedup_vs_seq", "ratio", Better::Higher, Clock::Host),
    // host: the workload process, from /proc/self.
    harness("host.peak_rss_mb", "MB", Better::Lower, Clock::Host),
    harness("host.cpu_s", "s", Better::Lower, Clock::Host),
    harness("host.cpu_util", "ratio", Better::Lower, Clock::Host),
    // span: the traced repeat, from the benchmark's own spans.
    harness("span.compile_s", "s", Better::Lower, Clock::Host),
    harness("span.register_s", "s", Better::Lower, Clock::Host),
    harness("span.build_s", "s", Better::Lower, Clock::Host),
    harness("span.inject_s", "s", Better::Lower, Clock::Host),
    harness("span.run_s", "s", Better::Lower, Clock::Host),
    harness("span.readback_s", "s", Better::Lower, Clock::Host),
    harness("span.mandel_msgr_s", "s", Better::Lower, Clock::Host),
    harness("span.mandel_pvm_s", "s", Better::Lower, Clock::Host),
    harness("span.matmul_msgr_s", "s", Better::Lower, Clock::Host),
    harness("span.matmul_pvm_s", "s", Better::Lower, Clock::Host),
    harness("span.root_coverage", "fraction", Better::Higher, Clock::Host),
    harness("span.overhead_frac", "fraction", Better::Lower, Clock::Host),
    harness("model.explained_frac", "fraction", Better::Higher, Clock::Host),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json_string(w.name), json_string(w.why))
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.label()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.label())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `benchmark/run.sh --manifest`");
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = BTreeSet::new();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        let layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
        let loads = workloads::ALL.iter().map(|w| (w.name, "count"));
        for (name, unit) in e2e.chain(layer).chain(loads) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok), "{unit}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn every_counter_source_is_a_registered_metric() {
        for m in &PER_LAYER {
            if let Source::Counter(key) | Source::Pvm(key) = m.source {
                assert!(msgr_trace::Metric::from_name(key).is_some(), "{key}");
            }
        }
    }
}
