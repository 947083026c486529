//! An individual-based simulation — the application family the paper's
//! introduction motivates for persistent logical networks
//! ("individual-based systems, distributed interactive simulations").
//!
//! A swarm of agents random-walks a torus of logical nodes in lock-step
//! virtual time: at every tick each agent deposits into the node it
//! stands on and hops to a neighbor chosen by a deterministic hash of
//! its identity and the tick. This is also the repository's Time-Warp
//! showcase: unlike the tightly synchronized matrix multiplication,
//! the swarm's causality violations are rare and local, so optimistic
//! execution typically *beats* the conservative global-minimum rule.

use msgr_core::config::VtMode;
use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, ClusterError, DaemonId, SimCluster};
use msgr_sim::Stats;
use msgr_vm::{Dir, Value};

/// The agent script: deposit, then hop in a pseudo-random direction,
/// once per virtual-time tick.
pub const ANT_SCRIPT: &str = r#"
ant(id, ticks) {
    int t, d;
    node int pheromone;
    for (t = 0; t < ticks; t = t + 1) {
        M_sched_time_abs(t);
        pheromone = pheromone + 1;
        d = (id * 31 + t * 7 + id * t) % 4;
        if (d == 0)      hop(ll = "n"; ldir = +);
        else if (d == 1) hop(ll = "e"; ldir = +);
        else if (d == 2) hop(ll = "s"; ldir = +);
        else             hop(ll = "w"; ldir = +);
    }
}
"#;

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmScene {
    /// Torus side length (cells per dimension).
    pub side: usize,
    /// Number of agents.
    pub ants: i64,
    /// Virtual-time ticks each agent lives.
    pub ticks: i64,
    /// Daemons hosting the torus.
    pub daemons: usize,
}

/// Outcome of a swarm run.
#[derive(Debug, Clone)]
pub struct SwarmRun {
    /// Simulated seconds.
    pub seconds: f64,
    /// Row-major pheromone field (side × side).
    pub field: Vec<i64>,
    /// Counters (`rollbacks`, `gvt_rounds`, …).
    pub stats: Stats,
}

/// The torus topology: each cell has four outgoing directed links named
/// `n`/`e`/`s`/`w`.
pub fn torus(side: usize, daemons: usize) -> LogicalTopology {
    let name = |x: usize, y: usize| Value::str(format!("c{x}_{y}"));
    let mut topo = LogicalTopology::new();
    for y in 0..side {
        for x in 0..side {
            topo.node(name(x, y), DaemonId(((y * side + x) % daemons) as u16));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let east = name((x + 1) % side, y);
            let west = name((x + side - 1) % side, y);
            let north = name(x, (y + side - 1) % side);
            let south = name(x, (y + 1) % side);
            topo.link(name(x, y), north, Value::str("n"), Dir::Forward);
            topo.link(name(x, y), east, Value::str("e"), Dir::Forward);
            topo.link(name(x, y), south, Value::str("s"), Dir::Forward);
            topo.link(name(x, y), west, Value::str("w"), Dir::Forward);
        }
    }
    topo
}

/// Run the swarm in the given virtual-time mode.
///
/// # Errors
///
/// Propagates [`ClusterError`]; messenger faults become
/// `ClusterError::Config`.
pub fn run(scene: SwarmScene, mode: VtMode) -> Result<SwarmRun, ClusterError> {
    let mut cfg = ClusterConfig::new(scene.daemons);
    cfg.vt_mode = mode;
    let mut cluster = SimCluster::new(cfg);
    cluster.build(&torus(scene.side, scene.daemons))?;
    let program = msgr_lang::compile(ANT_SCRIPT).expect("ant script compiles");
    let pid = cluster.register_program(&program);
    for a in 0..scene.ants {
        let home = Value::str(format!(
            "c{}_{}",
            a as usize % scene.side,
            (a as usize / scene.side) % scene.side
        ));
        cluster.inject_at(&home, pid, &[Value::Int(a), Value::Int(scene.ticks)])?;
    }
    let report = cluster.run()?;
    if let Some((mid, err)) = report.faults.first() {
        return Err(ClusterError::Config(format!("messenger {mid} faulted: {err}")));
    }
    let mut field = Vec::with_capacity(scene.side * scene.side);
    for y in 0..scene.side {
        for x in 0..scene.side {
            field.push(
                cluster
                    .node_var_by_name(&Value::str(format!("c{x}_{y}")), "pheromone")
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(0),
            );
        }
    }
    Ok(SwarmRun { seconds: report.seconds, field, stats: report.stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene() -> SwarmScene {
        SwarmScene { side: 5, ants: 10, ticks: 8, daemons: 4 }
    }

    #[test]
    fn deposits_are_conserved() {
        let run = run(scene(), VtMode::Conservative).unwrap();
        assert_eq!(run.field.iter().sum::<i64>(), 10 * 8);
    }

    #[test]
    fn optimistic_produces_the_identical_field() {
        let cons = run(scene(), VtMode::Conservative).unwrap();
        let opt = run(scene(), VtMode::Optimistic).unwrap();
        assert_eq!(cons.field, opt.field);
        assert!(opt.stats.counter("rollbacks") > 0, "some speculation expected");
    }

    #[test]
    fn torus_has_four_out_links_per_cell() {
        let t = torus(4, 2);
        assert_eq!(t.nodes.len(), 16);
        assert_eq!(t.links.len(), 64);
    }

    #[test]
    fn field_is_deterministic() {
        let a = run(scene(), VtMode::Conservative).unwrap();
        let b = run(scene(), VtMode::Conservative).unwrap();
        assert_eq!(a.field, b.field);
        assert_eq!(a.seconds, b.seconds);
    }
}
