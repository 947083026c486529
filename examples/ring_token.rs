//! A classic distributed-systems exercise in the navigational style:
//! leader election on a unidirectional ring (Chang–Roberts), written as
//! a single MSGR-C script.
//!
//! Each node injects one candidate messenger carrying its id. A
//! messenger circulating the ring compares its id with each node's
//! resident id: it dies if the resident id is larger, keeps travelling
//! otherwise, and declares itself leader when it returns to a node
//! already marked with its own id. Node variables do all coordination —
//! there are no explicit messages anywhere.
//!
//! Run with: `cargo run --example ring_token`

use messengers::core::topology::LogicalTopology;
use messengers::core::{ClusterConfig, DaemonId, SimCluster};
use messengers::vm::{Dir, Value};

const ELECTION: &str = r#"
elect(my_id) {
    int circulating = 1;
    node int resident, leader;
    resident = my_id;          // my home node; runs before any hop
    while (circulating) {
        hop(ll = "ring"; ldir = +);
        if (resident == my_id) {
            // Back at a node that already saw my id: I won.
            leader = my_id;
            hop(ll = virtual; ln = "announce");
            node int elected;
            elected = my_id;
            circulating = 0;
        } else if (resident < my_id) {
            resident = my_id;  // beat the locals; keep going
        } else {
            circulating = 0;   // someone bigger came through; die out
        }
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 9usize;
    let daemons = 3usize;
    let mut topo = LogicalTopology::new();
    for i in 0..n {
        topo.node(Value::str(format!("p{i}")), DaemonId((i % daemons) as u16));
    }
    for i in 0..n {
        topo.link(
            Value::str(format!("p{i}")),
            Value::str(format!("p{}", (i + 1) % n)),
            Value::str("ring"),
            Dir::Forward,
        );
    }
    topo.node(Value::str("announce"), DaemonId(0));

    let mut cluster = SimCluster::new(ClusterConfig::new(daemons));
    cluster.build(&topo)?;
    let program = messengers::lang::compile(ELECTION)?;
    let pid = cluster.register_program(&program);

    // Shuffled candidate ids, one injected at each ring position.
    let ids = [4i64, 9, 2, 7, 5, 1, 8, 3, 6];
    for (i, id) in ids.iter().enumerate() {
        cluster.inject_at(&Value::str(format!("p{i}")), pid, &[Value::Int(*id)])?;
    }
    let report = cluster.run()?;
    assert!(report.faults.is_empty(), "faults: {:?}", report.faults);

    let winner =
        cluster.node_var_by_name(&Value::str("announce"), "elected").unwrap_or(Value::Null);
    println!(
        "elected leader: {winner} (expected 9) after {} migrations in {:.2} simulated ms",
        report.stats.counter("migrations_out"),
        report.seconds * 1e3
    );
    assert_eq!(winner, Value::Int(9));
    Ok(())
}
