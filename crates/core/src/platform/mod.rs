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

use msgr_sim::Stats;
use msgr_trace::{Metric, Trace};
use msgr_vm::{MessengerId, NativeCtx, NativeRegistry, Program, ProgramId, Value};

use crate::codes::CodeCache;
use crate::config::ClusterConfig;
use crate::daemon::{Daemon, Directory, Effect};
use crate::ids::{DaemonId, NodeRef};
use crate::topology::{DaemonTopology, LogicalTopology};
use crate::ClusterError;

/// Public only so that [`Cluster`]'s bound can name them: nothing
/// outside this crate can name, implement or import either.
mod seal {
    use std::sync::{Arc, RwLock};

    use msgr_vm::NativeRegistry;

    use super::Census;
    use crate::codes::CodeCache;
    use crate::config::ClusterConfig;
    use crate::daemon::Daemon;
    use crate::ids::DaemonId;

    /// What a platform adds to the shared front.
    pub trait Platform {
        /// What moves the cluster between calls: the simulator's event
        /// engine, nothing on threads.
        type Driver: Default;
        /// A messenger was just injected on daemon `d`.
        fn launched(driver: &mut Self::Driver, d: DaemonId);
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
use seal::{Front, Platform};

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
        let codes = CodeCache::with_analysis(cfg.analysis);
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
        for kind in outcome.trace_events(id) {
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
            .launch(&prog, args, at)
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
}

impl<P> Front<P> {
    /// The tail of every report: `stats` plus the daemons' and the code
    /// registry's, and the merged trace if tracing is on, its ring
    /// losses counted.
    fn report_tail(&mut self, mut stats: Stats) -> (Stats, Option<Trace>) {
        for d in &self.daemons {
            stats.merge(&d.stats());
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
        (stats, trace)
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
