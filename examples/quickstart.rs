//! Quickstart: compile an MSGR-C script, build a logical network, inject
//! messengers, and inspect the results — on both platforms.
//!
//! Run with: `cargo run --example quickstart`

use messengers::core::topology::LogicalTopology;
use messengers::core::{Cluster, ClusterConfig, DaemonId, Platform, SimCluster, ThreadCluster};
use messengers::vm::{Dir, Program, Value};

const SCRIPT: &str = r#"
// Walk a ring of logical nodes, incrementing a counter at each stop and
// recording the total distance travelled in the messenger's own state.
walker(laps, ring_len) {
    int steps, total = laps * ring_len;
    node int visits;
    for (steps = 0; steps < total; steps = steps + 1) {
        visits = visits + 1;
        hop(ll = "ring"; ldir = +);
    }
    visits = visits + 1000;   // mark the final node
}
"#;

fn build_ring(n: usize, daemons: usize) -> LogicalTopology {
    let mut topo = LogicalTopology::new();
    for i in 0..n {
        topo.node(Value::str(format!("r{i}")), DaemonId((i % daemons) as u16));
    }
    for i in 0..n {
        topo.link(
            Value::str(format!("r{i}")),
            Value::str(format!("r{}", (i + 1) % n)),
            Value::str("ring"),
            Dir::Forward,
        );
    }
    topo
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = messengers::lang::compile(SCRIPT)?;
    println!("compiled `walker` to {} bytecode ops", program.instruction_count());

    // The simulation platform: deterministic, with a 1997 cost model.
    walk(SimCluster::new(ClusterConfig::new(4)), &program)?;
    // The threaded platform: real concurrent execution, one thread per
    // daemon.
    walk(ThreadCluster::new(ClusterConfig::new(4))?, &program)?;
    Ok(())
}

/// Walk a walker three laps round an 8-node ring on `cluster`, then
/// print the run and every node's visits: the same code on either
/// platform.
fn walk<P: Platform>(
    mut cluster: Cluster<P>,
    program: &Program,
) -> Result<(), Box<dyn std::error::Error>> {
    cluster.build(&build_ring(8, 4))?;
    let pid = cluster.register_program(program);
    cluster.inject_at(&Value::str("r0"), pid, &[Value::Int(3), Value::Int(8)])?;
    let report = cluster.run()?;
    println!(
        "\n{:.3} ms of {} time on 4 daemons, {} migrations",
        report.seconds * 1e3,
        report.clock,
        report.stats.counter("migrations_out"),
    );
    let mut total = 0;
    for i in 0..8 {
        let v = cluster.node_var_by_name(&Value::str(format!("r{i}")), "visits");
        println!("  r{i}: visits = {}", v.clone().unwrap_or(Value::Null));
        total += v.and_then(|v| v.as_int().ok()).unwrap_or(0);
    }
    println!("total visits across the ring: {total} (24 hops + 1000 end marker)");
    assert_eq!(total, 3 * 8 + 1000);
    Ok(())
}
