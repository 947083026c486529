//! Trace determinism properties: the flight recorder is part of the
//! deterministic surface of the simulator, so two runs of the **same
//! seed and fault plan must serialize to byte-identical JSONL** — not
//! just equal event multisets, but the same bytes, so `msgr trace diff`
//! and CI can compare runs with `cmp`.
//!
//! Every property runs 256 generated cases through `msgr-check`; a
//! failing case prints a `MSGR_CHECK_SEED=<n>` line and replays (and
//! shrinks) deterministically.
//!
//! ## Mutation check
//!
//! `perturbed_seed_changes_the_trace` proves the byte-identity property
//! has teeth: flipping one bit of the cluster seed under loss produces a
//! *different* trace. If tracing ever degenerated into something
//! seed-independent (empty traces, constant timestamps), both properties
//! together would catch it.

use msgr_check::{check_with, prop_assert, prop_assert_eq, Config, Source};
use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, DaemonId, SimCluster};
use msgr_sim::{CrashEvent, FaultPlan, MILLI};
use msgr_trace::{Metric, Trace};
use msgr_vm::{Dir, Value};

/// Ring walker (same shape as the core chaos suite): enough hops,
/// retransmits, and checkpoints to exercise every event class.
const WALK: &str = r#"
walk(passes) {
    int i = 0;
    node int visits;
    visits = visits + 1;
    while (i < passes) {
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
        i = i + 1;
    }
}
"#;

fn cases() -> Config {
    Config::with_cases(256)
}

struct Scenario {
    daemons: usize,
    nodes: usize,
    msgrs: usize,
    passes: i64,
    seed: u64,
    plan: FaultPlan,
}

/// Random cluster shapes kept a notch smaller than the core chaos suite
/// (2–5 daemons, short walks) because every case runs the cluster twice.
fn arb_scenario(s: &mut Source) -> Scenario {
    let daemons = s.usize_in(2..6);
    let mut plan = FaultPlan {
        drop_p: s.f64_in(0.0, 0.10),
        dup_p: s.f64_in(0.0, 0.10),
        reorder_p: s.f64_in(0.0, 0.10),
        reorder_delay: s.u64_in(MILLI / 10..5 * MILLI),
        crashes: Vec::new(),
    };
    // Sometimes add one transient crash window (non-overlapping by
    // construction, and short enough not to trip permanent failover).
    if s.usize_in(0..2) == 1 {
        plan.crashes.push(CrashEvent::transient(
            s.u32_in(0..daemons as u32),
            s.u64_in(0..40 * MILLI),
            s.u64_in(MILLI..30 * MILLI),
        ));
    }
    Scenario {
        daemons,
        nodes: s.usize_in(daemons..2 * daemons + 1),
        msgrs: s.usize_in(1..4),
        passes: s.i64_in(1..12),
        seed: s.any_u64(),
        plan,
    }
}

/// Build the ring, run to quiescence with tracing on, and return the
/// collected trace plus the run's stats.
fn run_traced(sc: &Scenario, seed: u64) -> Result<(Trace, msgr_sim::Stats), String> {
    let mut topo = LogicalTopology::new();
    for i in 0..sc.nodes {
        topo.node(Value::str(format!("p{i}")), DaemonId((i % sc.daemons) as u16));
    }
    for i in 0..sc.nodes {
        topo.link(
            Value::str(format!("p{i}")),
            Value::str(format!("p{}", (i + 1) % sc.nodes)),
            Value::str("ring"),
            Dir::Forward,
        );
    }
    let mut cfg = ClusterConfig::new(sc.daemons);
    cfg.seed = seed;
    cfg.faults = sc.plan.clone();
    cfg.trace.enabled = true;
    let mut cluster = SimCluster::new(cfg);
    cluster.build(&topo).map_err(|e| e.to_string())?;
    let pid = cluster.register_program(&msgr_lang::compile(WALK).map_err(|e| e.to_string())?);
    for m in 0..sc.msgrs {
        cluster
            .inject_at(&Value::str(format!("p{}", m % sc.nodes)), pid, &[Value::Int(sc.passes)])
            .map_err(|e| e.to_string())?;
    }
    let report = cluster.run().map_err(|e| e.to_string())?;
    let trace = report.trace.clone().ok_or("tracing was enabled but no trace came back")?;
    Ok((trace, report.stats.clone()))
}

/// Same seed + same fault plan ⇒ byte-identical JSONL. The trace is the
/// new tier-1 determinism witness: it covers event payloads, ordering,
/// and both timestamp domains at once.
#[test]
fn same_seed_runs_serialize_byte_identically() {
    check_with(cases(), "same_seed_runs_serialize_byte_identically", |s| {
        let sc = arb_scenario(s);
        let (a, _) = run_traced(&sc, sc.seed)?;
        let (b, _) = run_traced(&sc, sc.seed)?;
        let (ja, jb) = (a.to_jsonl(), b.to_jsonl());
        prop_assert!(ja == jb, "same-seed traces differ: {:?}", a.diff(&b, 5));
        prop_assert!(!a.events.is_empty(), "trace must not be empty");
        // And the codec round-trips: parse(serialize(t)) == t, byte for byte.
        let back = Trace::from_jsonl(&ja)?;
        prop_assert_eq!(back.to_jsonl(), ja);
        Ok(())
    });
}

/// Mutation check: a perturbed seed yields a different trace. Uses a
/// fixed scenario with enough traffic and loss that the fault schedule
/// is guaranteed to actually fire (tiny generated cases can go an entire
/// run without a single drop, which would make a property-based version
/// of this check flaky).
#[test]
fn perturbed_seed_changes_the_trace() {
    let sc = Scenario {
        daemons: 4,
        nodes: 6,
        msgrs: 3,
        passes: 16,
        seed: 7,
        plan: FaultPlan {
            drop_p: 0.08,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_delay: MILLI,
            crashes: Vec::new(),
        },
    };
    let (a, _) = run_traced(&sc, 7).expect("seed 7 run failed");
    let (b, _) = run_traced(&sc, 8).expect("seed 8 run failed");
    assert!(
        a.to_jsonl() != b.to_jsonl(),
        "seeds 7 and 8 produced identical traces — tracing has gone seed-independent"
    );
}

/// A seeded chaos run with a mid-run kill must produce every event class
/// the acceptance bar names: hop, retransmit, checkpoint, and restore.
#[test]
fn chaos_run_covers_required_event_classes() {
    let sc = Scenario {
        daemons: 4,
        nodes: 4,
        msgrs: 2,
        passes: 12,
        seed: 7,
        plan: FaultPlan {
            drop_p: 0.05,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_delay: MILLI,
            crashes: vec![CrashEvent::kill(2, 20 * MILLI)],
        },
    };
    let (trace, _) = run_traced(&sc, sc.seed).expect("chaos run failed");
    let counts: std::collections::HashMap<&str, u64> = trace.counts().into_iter().collect();
    for ev in ["inject", "hop", "retransmit", "checkpoint", "kill", "restore"] {
        assert!(
            counts.get(ev).copied().unwrap_or(0) > 0,
            "chaos trace is missing `{ev}` events; got {counts:?}"
        );
    }
}

/// Key-drift allowlist: every stats key a smoke run emits — counters,
/// gauges, and histograms — must resolve through [`Metric::from_name`].
/// A typo'd or unregistered key fails here (and under `debug_assertions`
/// already fails inside `Stats` via the installed validator).
#[test]
fn every_emitted_stats_key_is_registered() {
    let sc = Scenario {
        daemons: 4,
        nodes: 5,
        msgrs: 2,
        passes: 10,
        seed: 11,
        plan: FaultPlan {
            drop_p: 0.05,
            dup_p: 0.02,
            reorder_p: 0.02,
            reorder_delay: MILLI,
            crashes: vec![CrashEvent::kill(1, 20 * MILLI)],
        },
    };
    let (_, stats) = run_traced(&sc, sc.seed).expect("smoke run failed");
    let mut keys: Vec<&'static str> = stats
        .counters()
        .map(|(k, _)| k)
        .chain(stats.gauges().map(|(k, _)| k))
        .chain(stats.histograms().map(|(k, _)| k))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(!keys.is_empty(), "smoke run emitted no stats at all");
    let unregistered: Vec<&str> =
        keys.into_iter().filter(|k| Metric::from_name(k).is_none()).collect();
    assert!(unregistered.is_empty(), "stats keys not in the Metric registry: {unregistered:?}");
}

// ---------------------------------------------------------------------
// Codec coverage: every event class, including the profiler's
// PhaseLedger / PcSample, survives JSONL *and* the Chrome export.
// ---------------------------------------------------------------------

use msgr_trace::{json, EventKind, TraceEvent};

/// Safe integer payloads: the JSON parser is f64-backed, so anything
/// serialized as a bare number must stay below 2^53. (Fields that need
/// all 64 bits — program content hashes — go over the wire as hex
/// strings and may use `any_u64`.)
fn arb_num(s: &mut Source) -> u64 {
    s.u64_in(0..1 << 50)
}

fn arb_name(s: &mut Source) -> String {
    // Exercise JSON escaping: quotes, backslashes, control chars,
    // multi-byte UTF-8.
    s.string(0..9, "ab\"\\\n\tπé ")
}

/// One instance of every [`EventKind`] variant, fields drawn from `s`.
/// Listed in declaration order; a new variant fails the length check in
/// `every_event_kind_round_trips_losslessly` until it is added here.
fn all_kinds(s: &mut Source) -> Vec<EventKind> {
    vec![
        EventKind::MsgrInject { mid: arb_num(s) },
        EventKind::MsgrHop { mid: arb_num(s), to: s.any_u16(), bytes: arb_num(s) },
        EventKind::MsgrArrive { mid: arb_num(s) },
        EventKind::MsgrFork { mid: arb_num(s), replicas: arb_num(s) },
        EventKind::MsgrPark { mid: arb_num(s), wake: s.f64_in(-1e9, 1e9) },
        EventKind::MsgrRevive { mid: arb_num(s) },
        EventKind::MsgrRetire { mid: arb_num(s) },
        EventKind::MsgrFault { mid: arb_num(s) },
        EventKind::FrameSend { chan: s.any_u16(), seq: arb_num(s), bytes: arb_num(s) },
        EventKind::FrameAck { chan: s.any_u16(), seq: arb_num(s) },
        EventKind::FrameRetransmit { chan: s.any_u16(), seq: arb_num(s), attempt: s.any_u32() },
        EventKind::FrameRedirect { chan: s.any_u16(), seq: arb_num(s), to: s.any_u16() },
        EventKind::GvtRound { round: arb_num(s) },
        EventKind::GvtAdvance { gvt: s.f64_in(0.0, 1e9) },
        EventKind::GvtEvict { victim: s.any_u16(), floor: s.f64_in(0.0, 1e9) },
        EventKind::Checkpoint { bytes: arb_num(s) },
        EventKind::Restore { victim: s.any_u16(), nodes: arb_num(s), messengers: arb_num(s) },
        EventKind::NetDrop { to: s.any_u16() },
        EventKind::NetDup { to: s.any_u16() },
        EventKind::NetDelay { to: s.any_u16(), by: arb_num(s) },
        EventKind::CodeCompile { prog: s.any_u64(), funcs: arb_num(s), superinsts: arb_num(s) },
        EventKind::CodeCacheHit { prog: s.any_u64() },
        EventKind::CtrlPropose { victim: s.any_u16(), seq: s.any_u32() },
        EventKind::CtrlDecide { victim: s.any_u16(), successor: s.any_u16(), seq: s.any_u32() },
        EventKind::GossipMerge { from: s.any_u16() },
        EventKind::CkptReplica { owner: s.any_u16(), ver: s.any_u32() },
        EventKind::PhaseLedger {
            mid: arb_num(s),
            born: arb_num(s),
            parent: arb_num(s),
            queue: arb_num(s),
            verify: arb_num(s),
            exec: arb_num(s),
            enc: arb_num(s),
            xport: arb_num(s),
            park: arb_num(s),
            stall: arb_num(s),
            total: arb_num(s),
        },
        EventKind::PcSample {
            prog: s.any_u64(),
            func: s.any_u32(),
            line: s.any_u32(),
            count: arb_num(s),
        },
        EventKind::Kill,
        EventKind::SpanBegin { name: arb_name(s) },
        EventKind::SpanEnd { name: arb_name(s) },
    ]
}

/// A trace holding at least one of every event kind (plus duplicates),
/// arbitrary stamps, and sometimes a truncation attribution header.
fn arb_full_trace(s: &mut Source) -> Trace {
    let mut kinds = all_kinds(s);
    for _ in 0..s.usize_in(0..8) {
        let extra = all_kinds(s);
        kinds.push(extra[s.usize_in(0..extra.len())].clone());
    }
    let events: Vec<TraceEvent> = kinds
        .into_iter()
        .map(|kind| TraceEvent {
            daemon: s.u8_in(0..6) as u16,
            seq: arb_num(s),
            rt: arb_num(s),
            vt: s.f64_in(0.0, 1e9),
            gvt: s.f64_in(0.0, 1e9),
            kind,
        })
        .collect();
    let dropped_by: Vec<(u16, u64)> =
        (0..s.usize_in(0..3)).map(|i| (i as u16 * 2, s.u64_in(1..1000))).collect();
    let dropped = dropped_by.iter().map(|&(_, n)| n).sum();
    Trace { events, dropped, dropped_by }
}

/// Every event class — profiler events included — round-trips the JSONL
/// codec byte-identically and lands in the Chrome export with its
/// payload intact. 256 generated cases.
#[test]
fn every_event_kind_round_trips_losslessly() {
    check_with(cases(), "every_event_kind_round_trips_losslessly", |s| {
        let t = arb_full_trace(s);
        prop_assert!(t.events.len() >= 31, "generator must cover all 31 event kinds");

        // JSONL: decode(encode(t)) == t, and re-encoding is canonical.
        let doc = t.to_jsonl();
        let back = Trace::from_jsonl(&doc)?;
        prop_assert!(back == t, "JSONL round-trip lost data: {:?}", t.diff(&back, 5));
        prop_assert_eq!(back.to_jsonl(), doc);

        // Chrome: the export parses, and every source event is present —
        // hops, arrives, and parks fan out into two entries (flow arrow /
        // counter), everything else maps 1:1 (plus per-daemon metadata).
        let chrome = msgr_trace::chrome::to_chrome(&t);
        let parsed = json::parse(&chrome).map_err(|e| format!("chrome export: {e}"))?;
        let entries =
            parsed.get("traceEvents").and_then(json::Json::as_arr).ok_or("no traceEvents")?;
        let mut daemons: Vec<u16> = t.events.iter().map(|e| e.daemon).collect();
        daemons.sort_unstable();
        daemons.dedup();
        let expected: usize = daemons.len()
            + t.events
                .iter()
                .map(|e| match e.kind {
                    EventKind::MsgrHop { .. }
                    | EventKind::MsgrArrive { .. }
                    | EventKind::MsgrPark { .. } => 2,
                    _ => 1,
                })
                .sum::<usize>();
        prop_assert_eq!(entries.len(), expected);

        // Payload spot-checks through the generic args path: the
        // profiler events carry their headline numbers into Chrome.
        for (kind, field, want) in t.events.iter().filter_map(|e| match &e.kind {
            EventKind::PhaseLedger { total, .. } => Some(("phase_ledger", "total", *total)),
            EventKind::PcSample { count, .. } => Some(("pc_sample", "count", *count)),
            _ => None,
        }) {
            let hit = entries.iter().any(|e| {
                e.get("name").and_then(json::Json::as_str) == Some(kind)
                    && e.get("args").and_then(|a| a.get(field)).and_then(json::Json::as_u64)
                        == Some(want)
            });
            prop_assert!(hit, "chrome export lost {kind} with {field}={want}");
        }
        Ok(())
    });
}
