//! The threaded platform: one OS thread per daemon, `std::sync::mpsc`
//! channels as the physical network, real wall-clock time.
//!
//! This is the "it actually runs" runtime: the same daemons, bytecode,
//! wire frames, and GVT protocol as the simulation, but with genuine
//! concurrency. Nothing here polls; every wait ends on an event.
//!
//! - **Termination is signalled, not sampled.** The census's
//!   live-messenger count holds the credit (injection +1, replication
//!   +k−1, death −1): at zero no messenger exists or is in flight, so
//!   the cluster has quiesced. The daemon whose death takes it to zero
//!   unparks the driver, which is parked against the stall deadline. (A
//!   WAN deployment would use a distributed termination detector; the
//!   counter is exact here because all daemons share one process.)
//! - **Idle is spin-then-block.** A daemon with an empty inbox and no
//!   runnable messenger re-tries its channel for a bounded spin
//!   (`IDLE_SPIN`) — long enough to catch a walker that is coming
//!   straight back — and then blocks in `recv()` until mail arrives.
//! - **Shutdown is a message.** The channels carry `Option<Wire>`; the
//!   driver sends `None` to every daemon once the run is over, behind
//!   whatever is still queued.
//! - **A dead daemon is an event too.** A daemon thread that unwinds
//!   (a panicking native, say) unparks the driver on its way out, and
//!   `run` re-raises the panic once the other threads are joined.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use msgr_sim::Stats;
use msgr_trace::Trace;
use msgr_vm::MessengerId;

use super::{Census, Cluster, Platform};
use crate::config::{ClusterConfig, VtMode};
use crate::daemon::{Daemon, Effect};
use crate::ids::DaemonId;
use crate::topology::DaemonTopology;
use crate::wire::Wire;
use crate::ClusterError;

/// The threaded platform. It keeps no state between runs: each run
/// spawns its threads and channels and joins them before it returns.
pub struct Threads;

impl Platform for Threads {
    type Driver = ();

    // The daemon threads find the messenger when the run starts.
    fn launched(_: &mut (), _: DaemonId) {}
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
pub type ThreadCluster = Cluster<Threads>;

impl ThreadCluster {
    /// Build a cluster per `cfg` with a clique daemon topology.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] — optimistic virtual time and fault
    /// injection are only supported on the simulation platform.
    pub fn new(cfg: ClusterConfig) -> Result<Self, ClusterError> {
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
        let topo = DaemonTopology::clique(cfg.daemons);
        Ok(Cluster::assemble(cfg, topo, Threads))
    }

    /// Spawn the daemon threads, run to quiescence, join, and report.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Stalled`] if the cluster fails to quiesce within
    /// a generous wall-clock bound (5 minutes).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a daemon thread that unwound (a native
    /// that panicked), as soon as the other threads are joined.
    pub fn run(&mut self) -> Result<ThreadReport, ClusterError> {
        let w = &mut self.front;
        let n = w.daemons.len();
        let (senders, receivers): (Vec<Sender<Mail>>, Vec<Receiver<Mail>>) =
            (0..n).map(|_| channel()).unzip();
        let shared = Shared {
            senders,
            census: w.census.clone(),
            exited: Arc::new(AtomicUsize::new(0)),
            driver: std::thread::current(),
        };
        let gvt_needed = w.codes.any_uses_virtual_time();

        let start = Instant::now();
        let mut handles = Vec::with_capacity(n);
        for (mut daemon, rx) in w.daemons.drain(..).zip(receivers) {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                let _exit = ExitSignal(&shared);
                run_daemon(&mut daemon, rx, &shared);
                daemon
            }));
        }

        // GVT interval ticker. It has no stop flag: it ends when daemon 0
        // is gone, and the unpark below spares the join a full interval.
        let ticker = gvt_needed.then(|| {
            let tx0 = shared.senders[0].clone();
            let interval = Duration::from_nanos(w.cfg.gvt_interval.max(1_000_000));
            std::thread::spawn(move || loop {
                std::thread::park_timeout(interval);
                if tx0.send(Some(Wire::GvtKick)).is_err() {
                    break;
                }
            })
        });

        // Wait for quiescence: parked until the death that takes `live`
        // to zero (or a daemon thread's exit) unparks us. An unpark that
        // lands before the park makes it return at once, and a stale or
        // spurious one only costs a re-check.
        let deadline = Instant::now() + Duration::from_secs(300);
        let stalled = loop {
            if w.census.live() <= 0 || shared.exited.load(Ordering::SeqCst) > 0 {
                break false;
            }
            let now = Instant::now();
            if now >= deadline {
                break true;
            }
            std::thread::park_timeout(deadline - now);
        };
        for tx in &shared.senders {
            let _ = tx.send(None);
        }
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(daemon) => w.daemons.push(daemon),
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(t) = ticker {
            t.thread().unpark();
            let _ = t.join();
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        if stalled {
            return Err(ClusterError::Stalled { events: 0 });
        }
        let (stats, trace) = w.report_tail(Stats::new());
        Ok(ThreadReport {
            wall_seconds: start.elapsed().as_secs_f64(),
            faults: w.census.faults(),
            stats,
            trace,
        })
    }
}

/// What a daemon's channel carries: a frame, or `None` — the driver's
/// order to stop.
type Mail = Option<Wire>;

/// How long an idle daemon re-tries its inbox before it blocks. Waking a
/// blocked thread costs sender and sleeper tens of microseconds between
/// them; a frame that arrives within the spin costs neither. Measured on
/// `hop_ring` (2 daemons, 2 cores): 20–200 µs were indistinguishable and
/// 0–5 µs lost half the gain over blocking at once, so this sits in the
/// flat part and bounds the idle burn at 50 µs per daemon per wait.
const IDLE_SPIN: Duration = Duration::from_micros(50);

/// What a daemon thread shares with its peers and the driver.
#[derive(Clone)]
struct Shared {
    senders: Vec<Sender<Mail>>,
    census: Arc<Census>,
    /// Daemon threads that have ended. Before the stop order none ends
    /// except by unwinding, so the driver reads `> 0` as "one panicked".
    exited: Arc<AtomicUsize>,
    driver: Thread,
}

/// Lives as long as a daemon thread's body: its drop tells the driver
/// the thread is ending, by return or by unwinding, so a panic cannot
/// leave `run` parked on a `live` count that will never reach zero.
struct ExitSignal<'a>(&'a Shared);

impl Drop for ExitSignal<'_> {
    fn drop(&mut self) {
        self.0.exited.fetch_add(1, Ordering::SeqCst);
        self.0.driver.unpark();
    }
}

fn run_daemon(daemon: &mut Daemon, rx: Receiver<Mail>, shared: &Shared) {
    // On threads the recorder's `rt` stays 0 for trace determinism, so
    // the profiler (if on) keeps its own monotonic clock instead.
    daemon.profile_wallclock();
    let mut fx: Vec<Effect> = Vec::new();
    loop {
        // The inbox first, then one segment, then the inbox again.
        let mail = match rx.try_recv() {
            Ok(mail) => mail,
            Err(_) if daemon.has_work() => {
                daemon.run_segment(&*shared.census, &mut fx);
                apply(&mut fx, shared);
                continue;
            }
            Err(_) => idle_recv(&rx),
        };
        let Some(wire) = mail else { return };
        daemon.on_wire(wire, &mut fx);
        apply(&mut fx, shared);
    }
}

/// Idle: spin on the inbox for `IDLE_SPIN`, then block until mail
/// arrives. Every daemon holds a sender to itself, so the channel cannot
/// disconnect under it; were it to, that is a stop.
fn idle_recv(rx: &Receiver<Mail>) -> Mail {
    let spin_until = Instant::now() + IDLE_SPIN;
    while Instant::now() < spin_until {
        if let Ok(mail) = rx.try_recv() {
            return mail;
        }
        std::hint::spin_loop();
    }
    rx.recv().unwrap_or(None)
}

fn apply(fx: &mut Vec<Effect>, shared: &Shared) {
    // An empty batch cannot take the live count to zero.
    if fx.is_empty() {
        return;
    }
    for f in fx.drain(..) {
        // The census books the live count, the faults and the names.
        // No `Timer` or `Recover` comes back: `new` rejects fault plans,
        // and without one the daemons never arm retransmission timers or
        // failover.
        if let Some(Effect::Send { dst, wire }) = shared.census.book(f) {
            let _ = shared.senders[dst.0 as usize].send(Some(wire));
        }
    }
    // The last death signals termination to the parked driver.
    if shared.census.live() <= 0 {
        shared.driver.unpark();
    }
}
