//! The threaded platform: one OS thread per daemon, `std::sync::mpsc`
//! channels as the physical network, real wall-clock time.
//!
//! This is the "it actually runs" runtime: the same daemons, bytecode,
//! wire frames, and GVT protocol as the simulation, but with genuine
//! concurrency. Termination uses a cluster-wide live-messenger counter
//! (injection +1, replication +k−1, death −1): when it reaches zero no
//! messenger exists or is in flight, so the cluster has quiesced. (A
//! WAN deployment would use a distributed termination detector; the
//! counter is exact here because all daemons share one process.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, RwLock};

use msgr_sim::Stats;
use msgr_trace::{Metric, Trace};
use msgr_vm::{MessengerId, NativeCtx, NativeRegistry, Program, ProgramId, Value};

use crate::codes::CodeCache;
use crate::config::{ClusterConfig, VtMode};
use crate::daemon::{Daemon, Directory, Effect};
use crate::ids::{DaemonId, NodeRef};
use crate::topology::{DaemonTopology, LogicalTopology};
use crate::wire::Wire;
use crate::ClusterError;

type DirMap = HashMap<Value, (DaemonId, NodeRef)>;

#[derive(Clone)]
struct SharedDirectory(Arc<RwLock<DirMap>>);

impl Directory for SharedDirectory {
    fn lookup(&self, name: &Value) -> Option<(DaemonId, NodeRef)> {
        self.0.read().unwrap().get(name).copied()
    }
}

/// Outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Real elapsed time of the run, in seconds.
    pub wall_seconds: f64,
    /// Messenger runtime faults.
    pub faults: Vec<(MessengerId, String)>,
    /// Merged daemon counters.
    pub stats: Stats,
    /// Merged flight-recorder trace, present iff tracing was enabled.
    /// Threaded runs have no simulated clock, so events carry `rt = 0`
    /// and order within a daemon by sequence number only — causal per
    /// daemon, best-effort across daemons.
    pub trace: Option<Trace>,
}

/// A MESSENGERS cluster running on real threads.
///
/// Usage mirrors [`crate::SimCluster`]: configure, register programs and
/// natives, build the logical topology, inject, then [`ThreadCluster::run`]
/// — which spawns the daemon threads, waits for quiescence, and joins
/// them — and finally inspect node variables.
pub struct ThreadCluster {
    cfg: Arc<ClusterConfig>,
    daemons: Vec<Daemon>,
    codes: CodeCache,
    natives: Arc<RwLock<NativeRegistry>>,
    directory: SharedDirectory,
    live: Arc<AtomicI64>,
    faults: Arc<Mutex<Vec<(MessengerId, String)>>>,
}

impl std::fmt::Debug for ThreadCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCluster").field("daemons", &self.daemons.len()).finish()
    }
}

impl ThreadCluster {
    /// Build a cluster per `cfg` with a clique daemon topology.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] — optimistic virtual time and fault
    /// injection are only supported on the simulation platform.
    pub fn new(mut cfg: ClusterConfig) -> Result<Self, ClusterError> {
        // Profiler output rides the trace stream: profiling implies tracing.
        if cfg.profile {
            cfg.trace.enabled = true;
        }
        if cfg.vt_mode == VtMode::Optimistic {
            return Err(ClusterError::Config(
                "optimistic virtual time requires the simulation platform".to_string(),
            ));
        }
        if cfg.reliable() {
            // In-process channels neither lose nor reorder; injecting
            // faults here would need a virtual clock for timers anyway.
            return Err(ClusterError::Config(
                "fault injection requires the simulation platform".to_string(),
            ));
        }
        // Same typed-key discipline as the simulation platform.
        msgr_sim::install_key_validator(Metric::validator);
        let cfg = Arc::new(cfg);
        let codes = CodeCache::with_analysis(cfg.analysis);
        let natives = Arc::new(RwLock::new(NativeRegistry::new()));
        let topo = Arc::new(DaemonTopology::clique(cfg.daemons));
        let daemons = (0..cfg.daemons)
            .map(|i| {
                Daemon::new(
                    DaemonId(i as u16),
                    cfg.clone(),
                    topo.clone(),
                    codes.clone(),
                    natives.clone(),
                )
            })
            .collect();
        Ok(ThreadCluster {
            cfg,
            daemons,
            codes,
            natives,
            directory: SharedDirectory(Arc::new(RwLock::new(HashMap::new()))),
            live: Arc::new(AtomicI64::new(0)),
            faults: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Register a compiled program cluster-wide.
    pub fn register_program(&mut self, program: &Program) -> ProgramId {
        let (id, outcome) = self.codes.register_outcome(program);
        for kind in outcome.trace_events(id) {
            self.daemons[0].recorder_mut().emit_sys(kind);
        }
        id
    }

    /// Register a native function on every daemon.
    pub fn register_native(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut dyn NativeCtx, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) {
        self.natives.write().unwrap().register(name, f);
    }

    /// Realize a logical topology before the run.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] / [`ClusterError::Config`] as for the
    /// simulation platform.
    pub fn build(&mut self, topo: &LogicalTopology) -> Result<(), ClusterError> {
        topo.realize(&mut self.daemons, &mut self.directory.0.write().unwrap())
    }

    /// Inject a messenger into daemon `d`'s `init` node (pre-run).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownProgram`] / [`ClusterError::BadInjection`].
    pub fn inject(
        &mut self,
        d: u16,
        program: ProgramId,
        args: &[Value],
    ) -> Result<MessengerId, ClusterError> {
        let at = self.daemons[d as usize].init_node();
        self.inject_at_node(d, program, args, at)
    }

    /// Inject a messenger into the named node (pre-run).
    ///
    /// # Errors
    ///
    /// As [`ThreadCluster::inject`], plus [`ClusterError::NotFound`].
    pub fn inject_at(
        &mut self,
        node: &Value,
        program: ProgramId,
        args: &[Value],
    ) -> Result<MessengerId, ClusterError> {
        let (d, gid) = self
            .directory
            .lookup(node)
            .ok_or_else(|| ClusterError::NotFound(format!("node {node}")))?;
        self.inject_at_node(d.0, program, args, gid)
    }

    fn inject_at_node(
        &mut self,
        d: u16,
        program: ProgramId,
        args: &[Value],
        at: NodeRef,
    ) -> Result<MessengerId, ClusterError> {
        // Mirror the sim platform: quarantined code injects fine and is
        // refused (with a fault + `verify_rejected`) by the executing
        // daemon.
        let prog = self.codes.get_any(program).ok_or(ClusterError::UnknownProgram)?;
        let id = self.daemons[d as usize]
            .launch(&prog, args, at)
            .map_err(|e| ClusterError::BadInjection(e.to_string()))?;
        self.live.fetch_add(1, Ordering::SeqCst);
        Ok(id)
    }

    /// Write a node variable of a named node (pre-run setup).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] if the node is unknown.
    pub fn set_node_var(&mut self, node: &Value, var: &str, v: Value) -> Result<(), ClusterError> {
        let (d, gid) = self
            .directory
            .lookup(node)
            .ok_or_else(|| ClusterError::NotFound(format!("node {node}")))?;
        self.daemons[d.0 as usize].set_node_var(gid, var, v);
        Ok(())
    }

    /// Read a node variable of a named node (post-run inspection).
    pub fn node_var_by_name(&self, node: &Value, var: &str) -> Option<Value> {
        let (d, gid) = self.directory.lookup(node)?;
        self.daemons[d.0 as usize].node_var(gid, var)
    }

    /// Read a node variable of daemon `d`'s node named `node`.
    pub fn node_var(&self, d: u16, node: &Value, var: &str) -> Option<Value> {
        let daemon = &self.daemons[d as usize];
        let gid = daemon.find_node(node)?;
        daemon.node_var(gid, var)
    }

    /// Spawn the daemon threads, run to quiescence, join, and report.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Stalled`] if the cluster fails to quiesce within
    /// a generous wall-clock bound (5 minutes).
    pub fn run(&mut self) -> Result<ThreadReport, ClusterError> {
        let n = self.daemons.len();
        let (senders, receivers): (Vec<Sender<Wire>>, Vec<Receiver<Wire>>) =
            (0..n).map(|_| channel()).unzip();
        let shutdown = Arc::new(AtomicBool::new(false));
        let gvt_needed = self.codes.any_uses_virtual_time();

        let start = Instant::now();
        let mut handles = Vec::with_capacity(n);
        for (mut daemon, rx) in self.daemons.drain(..).zip(receivers) {
            let senders = senders.clone();
            let shutdown = shutdown.clone();
            let live = self.live.clone();
            let faults = self.faults.clone();
            let dir = self.directory.clone();
            handles.push(std::thread::spawn(move || {
                run_daemon(&mut daemon, rx, senders, shutdown, live, faults, dir);
                daemon
            }));
        }

        // GVT interval ticker.
        let ticker = if gvt_needed {
            let tx0 = senders[0].clone();
            let shutdown = shutdown.clone();
            let interval = Duration::from_nanos(self.cfg.gvt_interval.max(1_000_000));
            Some(std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if tx0.send(Wire::GvtKick).is_err() {
                        break;
                    }
                }
            }))
        } else {
            None
        };

        // Wait for quiescence.
        let deadline = Instant::now() + Duration::from_secs(300);
        let stalled = loop {
            if self.live.load(Ordering::SeqCst) <= 0 {
                break false;
            }
            if Instant::now() > deadline {
                break true;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        shutdown.store(true, Ordering::SeqCst);
        for h in handles {
            let daemon = h.join().expect("daemon thread panicked");
            self.daemons.push(daemon);
        }
        if let Some(t) = ticker {
            let _ = t.join();
        }
        if stalled {
            return Err(ClusterError::Stalled { events: 0 });
        }
        let mut stats = Stats::new();
        for d in &self.daemons {
            stats.merge(d.stats());
        }
        stats.merge(&self.codes.stats());
        let trace = self.cfg.trace.enabled.then(|| {
            let parts = self.daemons.iter_mut().map(Daemon::take_trace).collect();
            Trace::from_parts(parts)
        });
        if let Some(t) = &trace {
            if t.dropped > 0 {
                stats.add(Metric::TraceDropped, t.dropped);
            }
        }
        Ok(ThreadReport {
            wall_seconds: start.elapsed().as_secs_f64(),
            faults: self.faults.lock().unwrap().clone(),
            stats,
            trace,
        })
    }
}

fn run_daemon(
    daemon: &mut Daemon,
    rx: Receiver<Wire>,
    senders: Vec<Sender<Wire>>,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicI64>,
    faults: Arc<Mutex<Vec<(MessengerId, String)>>>,
    dir: SharedDirectory,
) {
    // On threads the recorder's `rt` stays 0 for trace determinism, so
    // the profiler (if on) keeps its own monotonic clock instead.
    daemon.profile_wallclock();
    let mut fx: Vec<Effect> = Vec::new();
    loop {
        // Drain the inbox.
        while let Ok(wire) = rx.try_recv() {
            daemon.on_wire(wire, &mut fx);
            apply(&mut fx, &senders, &live, &faults, &dir);
        }
        if daemon.has_work() {
            daemon.run_segment(&dir, &mut fx);
            apply(&mut fx, &senders, &live, &faults, &dir);
            continue;
        }
        // Idle: block briefly for new work, checking for shutdown.
        match rx.recv_timeout(Duration::from_micros(500)) {
            Ok(wire) => {
                daemon.on_wire(wire, &mut fx);
                apply(&mut fx, &senders, &live, &faults, &dir);
            }
            Err(_) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
        }
    }
}

fn apply(
    fx: &mut Vec<Effect>,
    senders: &[Sender<Wire>],
    live: &AtomicI64,
    faults: &Mutex<Vec<(MessengerId, String)>>,
    dir: &SharedDirectory,
) {
    for f in fx.drain(..) {
        match f {
            Effect::Send { dst, wire } => {
                let _ = senders[dst.0 as usize].send(wire);
            }
            Effect::LiveDelta(d) => {
                live.fetch_add(d, Ordering::SeqCst);
            }
            Effect::Fault { messenger, error } => {
                faults.lock().unwrap().push((messenger, error));
            }
            Effect::DirectoryAdd { name, daemon, node } => {
                dir.0.write().unwrap().insert(name, (daemon, node));
            }
            Effect::DirectoryRemove { name } => {
                dir.0.write().unwrap().remove(&name);
            }
            // Unreachable: `new` rejects fault plans, and without one the
            // daemons never arm retransmission timers or failover.
            Effect::Timer { .. } | Effect::Recover { .. } => {}
        }
    }
}
