//! Runtime platforms: the deterministic cluster simulator and the real
//! threaded runtime.
//!
//! Both platforms drive the same [`crate::Daemon`] logic through one
//! front, [`Cluster`], and differ only in how wires travel and how time
//! passes. Everything else lives here, once: configuration
//! normalisation, the code cache, natives and daemons, registration,
//! building, injection, node-variable access, the report tail, and the
//! census — the live-messenger count, the faults and the name directory
//! — which books the four bookkeeping [`Effect`]s for both platforms.
//! Benchmarks use the simulator (reproducible, scales to 32 "hosts" on
//! one machine, charges the calibrated 1997 cost model); examples and
//! correctness tests also run the threaded platform to show real
//! concurrent execution.

pub mod sim;
pub mod threads;

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use msgr_sim::{Clock, SimTime, Stats};
use msgr_trace::{EventKind, Metric, Trace};
use msgr_vm::{MessengerId, NativeCtx, NativeRegistry, Program, ProgramId, Value};

use crate::codes::CodeCache;
use crate::config::ClusterConfig;
use crate::daemon::{Daemon, Directory, Effect};
use crate::ids::{DaemonId, NodeRef};
use crate::logical::Orient;
use crate::topology::{DaemonTopology, LogicalTopology};
use crate::ClusterError;

/// Public only so that [`Platform`] can name them: nothing outside
/// this crate can name, implement or import either, so nothing outside
/// can implement [`Platform`].
mod seal {
    use std::sync::{Arc, RwLock};

    use msgr_sim::{Clock, SimTime, Stats};
    use msgr_vm::NativeRegistry;

    use super::Census;
    use crate::codes::CodeCache;
    use crate::config::ClusterConfig;
    use crate::daemon::Daemon;
    use crate::ids::DaemonId;
    use crate::ClusterError;

    /// What a platform adds to the shared front.
    pub trait Sealed: Sized {
        /// What moves the cluster between calls: the simulator's event
        /// engine, nothing on threads.
        type Driver: Default;
        /// The clock a run's seconds are read on.
        const CLOCK: Clock;
        /// A messenger was just injected on daemon `d`.
        fn launched(driver: &mut Self::Driver, d: DaemonId);
        /// The driver's clock, stamped on the events the front records
        /// between runs.
        fn now(driver: &Self::Driver) -> SimTime;
        /// Run to quiescence: the run's seconds, the events it took (0
        /// on threads) and the platform's own counters.
        fn drive(
            driver: &mut Self::Driver,
            front: &mut Front<Self>,
        ) -> Result<(f64, u64, Stats), ClusterError>;
    }

    /// What every platform holds: the daemons, what they share, the
    /// census, and the platform's own state. The simulator's engine
    /// steps this.
    pub struct Front<P> {
        pub(super) cfg: Arc<ClusterConfig>,
        pub(super) daemons: Vec<Daemon>,
        pub(super) codes: CodeCache,
        pub(super) natives: Arc<RwLock<NativeRegistry>>,
        pub(super) census: Arc<Census>,
        pub(super) plat: P,
    }
}
use seal::{Front, Sealed};

/// A runtime platform: [`sim::Sim`] or [`threads::Threads`]. Code
/// outside this crate can write a function over every `Cluster<P>`
/// with `P: Platform`, but cannot add a platform: the supertrait is
/// private.
pub trait Platform: Sealed {}

/// Outcome of a run on either platform.
#[derive(Debug, Clone)]
pub struct Report {
    /// Elapsed time of the run, in seconds on `clock`: simulated on
    /// `sim` (the number the paper's figures plot), wall on `threads`.
    pub seconds: f64,
    /// The clock `seconds` were read on.
    pub clock: Clock,
    /// Discrete events executed (0 on threads, which has no event
    /// queue).
    pub events: u64,
    /// Messenger runtime faults (id, message).
    pub faults: Vec<(MessengerId, String)>,
    /// Merged counters: per-daemon stats, the code registry's, and the
    /// platform's (`wires`, `wire_bytes`, … on sim).
    pub stats: Stats,
    /// Live-messenger accounting leak (0 for a clean run).
    pub live_leak: i64,
    /// Merged flight-recorder trace, present iff tracing was enabled in
    /// the cluster configuration. On sim events are in the
    /// deterministic total order `(realtime, daemon, seq)`; threads has
    /// no simulated clock, so its events carry `rt = 0` and order
    /// within a daemon by sequence number only.
    pub trace: Option<Trace>,
}

// `benchmark/` imports both names.
/// A [`Report`] of a [`crate::SimCluster`] run.
pub type SimReport = Report;
/// A [`Report`] of a [`crate::ThreadCluster`] run.
pub type ThreadReport = Report;

/// A MESSENGERS cluster on platform `P`: [`crate::SimCluster`] or
/// [`crate::ThreadCluster`].
///
/// Typical flow: configure → register programs and natives → build a
/// logical topology (optional) → inject → `run` → inspect node
/// variables and the report.
pub struct Cluster<P: Platform> {
    driver: P::Driver,
    front: Front<P>,
}

impl<P: Platform> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("daemons", &self.front.daemons.len()).finish()
    }
}

impl<P: Platform> Cluster<P> {
    /// Normalise `cfg`, then build the code cache, the natives and one
    /// daemon per host over `topo`, beside the platform's state `plat`.
    fn assemble(mut cfg: ClusterConfig, topo: DaemonTopology, plat: P) -> Self {
        // The profiler's output (phase ledgers, pc samples) rides the
        // trace stream: profiling implies tracing.
        if cfg.profile {
            cfg.trace.enabled = true;
        }
        // Every stats key the cluster emits must be a registered typed
        // metric; debug builds assert it at the emission site.
        msgr_sim::install_key_validator(Metric::validator);
        let cfg = Arc::new(cfg);
        let codes = CodeCache::new();
        let natives = Arc::new(RwLock::new(NativeRegistry::new()));
        let topo = Arc::new(topo);
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
        let front = Front { cfg, daemons, codes, natives, census: Arc::default(), plat };
        Cluster { driver: P::Driver::default(), front }
    }

    /// Register a compiled program cluster-wide (the shared code
    /// registry).
    pub fn register_program(&mut self, program: &Program) -> ProgramId {
        let (id, outcome) = self.front.codes.register_outcome(program);
        if let Some(kind) = outcome.trace_event(id) {
            self.front.daemons[0].recorder_mut().emit_sys(kind);
        }
        id
    }

    /// Register a native function on every daemon.
    pub fn register_native(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut dyn NativeCtx, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) {
        self.front.natives.write().expect(POISONED).register(name, f);
    }

    /// Realize a logical topology (the `net_builder` service): create the
    /// named nodes on their daemons and install all links.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] if a link references an unknown node,
    /// [`ClusterError::Config`] for placements outside the cluster.
    pub fn build(&mut self, topo: &LogicalTopology) -> Result<(), ClusterError> {
        let front = &mut self.front;
        topo.realize(&mut front.daemons, &mut front.census.names.write().expect(POISONED))
    }

    /// Inject a messenger into daemon `d`'s `init` node.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] if there is no daemon `d`,
    /// [`ClusterError::UnknownProgram`] / [`ClusterError::BadInjection`].
    pub fn inject(
        &mut self,
        d: u16,
        program: ProgramId,
        args: &[Value],
    ) -> Result<MessengerId, ClusterError> {
        let daemon = self.front.daemons.get(d as usize);
        let at = daemon.ok_or_else(|| ClusterError::NotFound(format!("daemon {d}")))?.init_node();
        self.launch(DaemonId(d), program, args, at)
    }

    /// Inject a messenger into the named logical node.
    ///
    /// # Errors
    ///
    /// As [`Cluster::inject`].
    pub fn inject_at(
        &mut self,
        node: &Value,
        program: ProgramId,
        args: &[Value],
    ) -> Result<MessengerId, ClusterError> {
        let (d, gid) = self.front.census.find(node)?;
        self.launch(d, program, args, gid)
    }

    /// The one launch path of both injections.
    fn launch(
        &mut self,
        d: DaemonId,
        program: ProgramId,
        args: &[Value],
        at: NodeRef,
    ) -> Result<MessengerId, ClusterError> {
        // `get_any`: a quarantined program may be injected — the daemon
        // refuses it at execution time with an observable fault, which
        // is the honest model of a foreign messenger arriving with bad
        // code.
        let prog = self.front.codes.get_any(program).ok_or(ClusterError::UnknownProgram)?;
        let id = self.front.daemons[d.0 as usize]
            .launch(&prog, program, args, at)
            .map_err(|e| ClusterError::BadInjection(e.to_string()))?;
        self.front.census.count(1);
        P::launched(&mut self.driver, d);
        Ok(id)
    }

    /// Write a node variable of a named node (pre-run setup, e.g. the
    /// resident matrix blocks).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] if the node is unknown.
    pub fn set_node_var(&mut self, node: &Value, var: &str, v: Value) -> Result<(), ClusterError> {
        let (d, gid) = self.front.census.find(node)?;
        self.front.daemons[d.0 as usize].set_node_var(gid, var, v);
        Ok(())
    }

    /// Read a node variable of a named node (post-run inspection).
    pub fn node_var_by_name(&self, node: &Value, var: &str) -> Option<Value> {
        let (d, gid) = self.front.census.lookup(node)?;
        self.front.daemons[d.0 as usize].node_var(gid, var)
    }

    /// Read a node variable of daemon `d`'s node named `node` (covers
    /// unnamed-directory cases like `init`); `None` if there is no
    /// daemon `d`.
    pub fn node_var(&self, d: u16, node: &Value, var: &str) -> Option<Value> {
        let daemon = self.front.daemons.get(d as usize)?;
        daemon.node_var(daemon.find_node(node)?, var)
    }

    /// Run until the cluster quiesces, then report: the platform's
    /// counters plus the daemons' and the code registry's, and the
    /// merged trace if tracing is on, its ring losses counted.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Stalled`] if the cluster does not quiesce: on sim
    /// the event budget is exhausted (typically a messenger population
    /// that never dies), on threads a generous wall-clock bound (5
    /// minutes) passes. On sim also [`ClusterError::CheckpointLost`] if
    /// a killed daemon and all of its checkpoint-replica holders are
    /// dead, and [`ClusterError::CheckpointDamaged`] if its surviving
    /// checkpoint does not decode.
    ///
    /// # Panics
    ///
    /// On threads, re-raises the panic of a daemon thread that unwound
    /// (a native that panicked), as soon as the other threads are
    /// joined.
    pub fn run(&mut self) -> Result<Report, ClusterError> {
        let (seconds, events, mut stats) = P::drive(&mut self.driver, &mut self.front)?;
        let w = &mut self.front;
        for d in &w.daemons {
            stats.merge(&d.stats());
        }
        stats.merge(&w.codes.stats());
        let trace = w.cfg.trace.enabled.then(|| {
            let parts = w.daemons.iter_mut().map(Daemon::take_trace).collect();
            Trace::from_parts(parts)
        });
        if let Some(t) = &trace {
            if t.dropped > 0 {
                stats.add(Metric::TraceDropped, t.dropped);
            }
        }
        Ok(Report {
            seconds,
            clock: P::CLOCK,
            events,
            faults: w.census.faults(),
            stats,
            live_leak: w.census.live(),
            trace,
        })
    }

    /// A human-readable dump of the whole logical network: every node
    /// with its variables and link endpoints, grouped by daemon. For
    /// debugging and the `msgr` shell's `--dump` flag.
    pub fn network_dump(&self) -> String {
        let mut out = String::new();
        for d in &self.front.daemons {
            out.push_str(&format!("daemon {}:\n", d.id()));
            for node in d.nodes() {
                out.push_str(&format!("  node {} ({})\n", node.name, node.gid));
                let mut vars: Vec<_> = node.vars.iter().collect();
                vars.sort_by_key(|(k, _)| k.to_string());
                for (k, v) in vars {
                    out.push_str(&format!("    {k} = {v}\n"));
                }
                for l in &node.links {
                    let arrow = match l.orient {
                        Orient::Out => "->",
                        Orient::In => "<-",
                        Orient::Undirected => "--",
                    };
                    let name =
                        if l.name == Value::Null { "~".to_string() } else { l.name.to_string() };
                    out.push_str(&format!(
                        "    link {name} {arrow} {} on {} ({})\n",
                        l.peer_name, l.peer.0, l.peer.1
                    ));
                }
            }
        }
        out
    }

    /// Open a named trace span on daemon 0 at the driver's current
    /// time. No-op when tracing is off. Apps bracket phases (e.g.
    /// "inject", "compute") so the Chrome export shows them as nested
    /// slices.
    pub fn trace_span_begin(&mut self, name: &str) {
        let kind = EventKind::SpanBegin { name: name.to_string() };
        self.front.emit(DaemonId(0), P::now(&self.driver), kind);
    }

    /// Close the innermost span opened by [`Cluster::trace_span_begin`].
    pub fn trace_span_end(&mut self, name: &str) {
        let kind = EventKind::SpanEnd { name: name.to_string() };
        self.front.emit(DaemonId(0), P::now(&self.driver), kind);
    }
}

impl<P> Front<P> {
    /// Record a platform-level event in daemon `d`'s flight recorder.
    fn emit(&mut self, d: DaemonId, at: SimTime, kind: EventKind) {
        let rec = self.daemons[d.0 as usize].recorder_mut();
        rec.set_now(at);
        rec.emit_sys(kind);
    }
}

/// Every lock here is held only to copy, insert or remove, none of
/// which panics, so a poisoned one is a bug in this module.
const POISONED: &str = "a platform lock was poisoned";

/// The cluster-wide census: the live-messenger count, the messenger
/// faults and the name directory. Shared with the daemon threads on
/// `threads`; on `sim` nobody contends for it.
#[derive(Default)]
struct Census {
    /// Messengers alive or in flight: injection +1, replication +k−1,
    /// death −1. Zero means the cluster has quiesced.
    live: AtomicI64,
    faults: Mutex<Vec<(MessengerId, String)>>,
    names: RwLock<HashMap<Value, (DaemonId, NodeRef)>>,
}

impl Directory for Census {
    fn lookup(&self, name: &Value) -> Option<(DaemonId, NodeRef)> {
        self.names.read().expect(POISONED).get(name).copied()
    }
}

impl Census {
    /// Book `f` if it is census business; hand back any other effect.
    fn book(&self, f: Effect) -> Option<Effect> {
        match f {
            Effect::LiveDelta(d) => self.count(d),
            Effect::Fault { messenger, error } => self.fault(messenger, error),
            Effect::DirectoryAdd { name, daemon, node } => {
                self.names.write().expect(POISONED).insert(name, (daemon, node));
            }
            Effect::DirectoryRemove { name } => {
                self.names.write().expect(POISONED).remove(&name);
            }
            other => return Some(other),
        }
        None
    }

    /// Count `d` more live messengers.
    fn count(&self, d: i64) {
        self.live.fetch_add(d, Ordering::SeqCst);
    }

    fn fault(&self, messenger: MessengerId, error: String) {
        self.faults.lock().expect(POISONED).push((messenger, error));
    }

    fn live(&self) -> i64 {
        self.live.load(Ordering::SeqCst)
    }

    fn faults(&self) -> Vec<(MessengerId, String)> {
        self.faults.lock().expect(POISONED).clone()
    }

    /// Where the named node lives.
    fn find(&self, node: &Value) -> Result<(DaemonId, NodeRef), ClusterError> {
        self.lookup(node).ok_or_else(|| ClusterError::NotFound(format!("node {node}")))
    }
}
