//! The mobile-code trust boundary, end to end: a program that fails
//! bytecode verification is quarantined by the code registry, and any
//! messenger that tries to run it faults with an observable
//! `verify_rejected` counter — while verified programs on the same
//! cluster are untouched.

use msgr_core::config::NetKind;
use msgr_core::{
    Cluster, ClusterConfig, ClusterError, CodeCache, LogicalTopology, Platform, SimCluster,
    ThreadCluster,
};
use msgr_lang::compile;
use msgr_vm::{Builder, Dir, FuncId, HopSpec, LinkPat, NodePat, Op, Program, Value};

/// A structurally broken program: its only instruction jumps far out
/// of bounds (verifier code V002).
fn bad_program() -> Program {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Jump(100)]);
    b.finish(f)
}

fn sim(n: usize) -> SimCluster {
    let mut cfg = ClusterConfig::new(n);
    cfg.net = NetKind::Ideal;
    SimCluster::new(cfg)
}

#[test]
fn code_cache_quarantines_unverifiable_programs() {
    let cache = CodeCache::new();
    let bad = bad_program();
    let id = cache.register(&bad);
    // The id is minted (content hash), but the program is invisible to
    // execution lookups and carries a precise rejection reason.
    assert!(cache.get(id).is_none());
    let reason = cache.rejection(id).expect("rejection reason recorded");
    assert!(reason.contains("V002"), "reason: {reason}");
    assert!(cache.get_any(id).is_some(), "quarantined code still inspectable");

    // A good program is unaffected.
    let good = compile("main() { node int x; x = 1; }").unwrap();
    let gid = cache.register(&good);
    assert!(cache.get(gid).is_some());
    assert!(cache.rejection(gid).is_none());
}

#[test]
fn daemon_refuses_quarantined_program_in_run() {
    let mut c = sim(2);
    let bad_id = c.register_program(&bad_program());
    let good = compile("main() { node int ok; ok = 1; }").unwrap();
    let good_id = c.register_program(&good);

    // Injection succeeds — the daemon, not the shell, is the boundary.
    c.inject(0, bad_id, &[]).unwrap();
    c.inject(1, good_id, &[]).unwrap();

    let report = c.run().unwrap();
    // Exactly one refusal, as a fault naming verification.
    assert_eq!(report.stats.counter("verify_rejected"), 1);
    assert_eq!(report.faults.len(), 1, "faults: {:?}", report.faults);
    assert!(report.faults[0].1.contains("failed verification"), "fault: {}", report.faults[0].1);
    assert!(report.faults[0].1.contains("V002"), "fault: {}", report.faults[0].1);
    // The counter and the report agree: a refusal is a fault like any other.
    assert_eq!(report.stats.counter("faults"), report.faults.len() as u64);
    // Accounting stays clean and the good messenger ran to completion.
    assert_eq!(report.live_leak, 0);
    assert_eq!(c.node_var(1, &Value::str("init"), "ok"), Some(Value::Int(1)));
}

/// `hop(ll = virtual)` with no `ln`: the compiler refuses to emit it, but
/// hand-built bytecode can (verifier code V014).
fn virtual_hop_to_nowhere() -> Program {
    let mut b = Builder::new();
    let s = b.hop_spec(HopSpec { ln: NodePat::Wild, ll: LinkPat::Virtual, ldir: Dir::Any });
    let f = b.function("main", 0, 0, vec![Op::Hop(s)]);
    b.finish(f)
}

#[test]
fn a_virtual_hop_without_a_node_is_refused_on_both_platforms() {
    let cache = CodeCache::new();
    let id = cache.register(&virtual_hop_to_nowhere());
    let reason = cache.rejection(id).expect("quarantined");
    assert!(reason.contains("V014"), "reason: {reason}");

    let mut c = sim(1);
    let id = c.register_program(&virtual_hop_to_nowhere());
    c.inject(0, id, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.stats.counter("verify_rejected"), 1);
    assert!(report.faults[0].1.contains("V014"), "faults: {:?}", report.faults);
    assert_eq!(report.live_leak, 0);

    let mut t = ThreadCluster::new(ClusterConfig::new(1)).unwrap();
    let id = t.register_program(&virtual_hop_to_nowhere());
    t.inject(0, id, &[]).unwrap();
    let report = t.run().unwrap();
    assert_eq!(report.stats.counter("verify_rejected"), 1);
    assert!(report.faults[0].1.contains("V014"), "faults: {:?}", report.faults);
}

/// Two quarantined programs whose entry frame cannot even be built: an
/// entry index past the function table, and an entry with more
/// parameters than slots. Each is injected with the entry's arity.
fn unlaunchable() -> [(Program, Vec<Value>); 2] {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Ret]);
    let mut past_the_table = b.finish(f);
    past_the_table.entry = FuncId(3);
    let mut b = Builder::new();
    let f = b.function("main", 2, 0, vec![Op::Ret]);
    let mut short_of_slots = b.finish(f);
    short_of_slots.funcs[0].n_slots = 1;
    [(past_the_table, vec![]), (short_of_slots, vec![Value::Int(1), Value::Int(2)])]
}

/// `inject` and `inject_at` of every unlaunchable program return a typed
/// error and leave the cluster with nothing to run.
fn refuses_unlaunchable<P: Platform>(c: &mut Cluster<P>) {
    c.build(&LogicalTopology::star(1, 1)).unwrap();
    for (p, args) in unlaunchable() {
        let id = c.register_program(&p);
        let direct = c.inject(0, id, &args);
        assert!(matches!(&direct, Err(ClusterError::BadInjection(m)) if m.contains("corrupt")));
        let named = c.inject_at(&Value::str("hub"), id, &args);
        assert!(matches!(&named, Err(ClusterError::BadInjection(m)) if m.contains("corrupt")));
    }
}

#[test]
fn an_unlaunchable_program_is_a_typed_error_on_every_injection_path() {
    let cache = CodeCache::new();
    for (p, _) in unlaunchable() {
        assert!(cache.rejection(cache.register(&p)).is_some(), "{p:?} is quarantined");
    }
    let mut c = sim(1);
    refuses_unlaunchable(&mut c);
    // A late injection fails inside the run, as a fault.
    for (p, args) in unlaunchable() {
        let id = c.register_program(&p);
        c.inject_at_time(&Value::str("hub"), id, &args, 0.001).unwrap();
    }
    let report = c.run().unwrap();
    assert_eq!(report.faults.len(), 2, "faults: {:?}", report.faults);
    for (_, fault) in &report.faults {
        assert!(fault.starts_with("late injection failed: corrupt"), "fault: {fault}");
    }
    assert_eq!(report.live_leak, 0);

    let mut t = ThreadCluster::new(ClusterConfig::new(1)).unwrap();
    refuses_unlaunchable(&mut t);
    let report = t.run().unwrap();
    assert!(report.faults.is_empty(), "faults: {:?}", report.faults);
    assert_eq!(report.live_leak, 0);
}
