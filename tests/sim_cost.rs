//! What a simulated run costs the host: engine events per messenger hop.
//!
//! The sim platform charges every segment to its daemon's CPU and looks
//! for more work when the CPU frees up. That look must be one pending
//! wake-up per daemon, not one chain per frame that arrived while the
//! CPU was busy — otherwise a busy daemon costs O(arrivals × segments)
//! engine events and a parameter sweep pays for it on the host clock.

use messengers::core::topology::LogicalTopology;
use messengers::core::{ClusterConfig, DaemonId, SimCluster};
use messengers::vm::{Dir, Value};

/// The benchmark probe's walker: one hop and one node-variable update
/// per pass.
const WALKER: &str = r#"
walker(passes) {
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

const DAEMONS: usize = 4;
const NODES: usize = 16;
const WALKERS: usize = 16;
const PASSES: i64 = 25;

fn node(i: usize) -> Value {
    Value::str(format!("p{i}"))
}

#[test]
fn a_busy_daemon_wakes_once_not_once_per_arrival() {
    let program = messengers::lang::compile(WALKER).expect("walker compiles");
    let mut cluster = SimCluster::new(ClusterConfig::new(DAEMONS));
    let pid = cluster.register_program(&program);
    // A directed 16-node ring dealt round-robin over the daemons, so
    // every hop crosses to the next daemon.
    let mut topo = LogicalTopology::new();
    for i in 0..NODES {
        topo.node(node(i), DaemonId((i % DAEMONS) as u16));
    }
    for i in 0..NODES {
        topo.link(node(i), node((i + 1) % NODES), Value::str("ring"), Dir::Forward);
    }
    cluster.build(&topo).expect("ring builds");
    for w in 0..WALKERS {
        cluster.inject_at(&node(w), pid, &[Value::Int(PASSES)]).expect("inject");
    }
    let report = cluster.run().expect("ring runs");
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(report.live_leak, 0);

    let hops = report.stats.counter("hops");
    assert_eq!(hops, WALKERS as u64 * PASSES as u64);
    assert_eq!(report.stats.counter("terminated"), WALKERS as u64);
    let visits: i64 = (0..NODES)
        .map(|i| cluster.node_var_by_name(&node(i), "visits").unwrap().as_int().unwrap())
        .sum();
    assert_eq!(visits, WALKERS as i64 * (PASSES + 1));

    let per_hop = report.events as f64 / hops as f64;
    assert!(per_hop <= 8.0, "{per_hop:.1} engine events per hop ({} events)", report.events);
}
