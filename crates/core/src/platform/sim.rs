//! The simulation platform: the whole MESSENGERS cluster inside the
//! deterministic discrete-event simulator (`msgr-sim`).
//!
//! Hosts are CPUs with the configured speed; daemons charge every
//! execution segment, migration encode/decode, and GVT control message
//! to their host CPU; wires travel through the configured network model
//! (shared-bus Ethernet by default). A run ends when the event queue
//! drains — i.e. when every messenger has terminated.

use msgr_sim::{
    Clock, Cpu, DetRng, Engine, FaultInjector, FrameFate, HostId, NetModel, SimTime, Stats, MILLI,
};
use msgr_trace::{Counters, EventKind, Metric};
use msgr_vm::{MessengerId, ProgramId, Value};

use super::{Cluster, Front, Platform, Sealed};
use crate::ckpt::ReplicatedStore;
use crate::config::{ClusterConfig, VtMode};
use crate::daemon::{with_counters, Daemon, Effect};
use crate::ids::DaemonId;
use crate::members::{DEAD_AFTER, SUSPECT_AFTER};
use crate::topology::DaemonTopology;
use crate::wire::Wire;
use crate::ClusterError;

/// Interval between heartbeat rounds of a recovery-armed run (simulated
/// time). Liveness is also refreshed by any data/ack traffic from a peer.
const HEARTBEAT_EVERY: SimTime = 20 * MILLI;

/// Interval between checkpoint snapshots of each daemon's durable state
/// (node variables, parked messengers, transport channels).
const CHECKPOINT_EVERY: SimTime = 40 * MILLI;

// A peer is suspected only after missed beats, and dead strictly later.
const _: () = assert!(SUSPECT_AFTER >= 2 * HEARTBEAT_EVERY && DEAD_AFTER > SUSPECT_AFTER);

/// The simulation platform's own state: hosts, network, fate draws,
/// crash windows, checkpoints and recovery.
pub struct Sim {
    cpus: Vec<Cpu>,
    net: Box<dyn NetModel>,
    in_flight: u64,
    /// Frame-fault oracle; `None` under the benign default plan, in which
    /// case none of the fault bookkeeping below is ever touched.
    injector: Option<FaultInjector>,
    /// Per-daemon crash windows: daemon `i` ignores the world until
    /// `down_until[i]` (its state survives — fail-recover semantics).
    /// `SimTime::MAX` marks a *permanent* kill: volatile state is gone
    /// and only a checkpoint restore brings the work back.
    down_until: Vec<SimTime>,
    /// Checkpoint storage, `k`-replicated: every snapshot version lives
    /// on the owner's host and on its `k` next-alive successors, and a
    /// holder's copies die with it. Recovery reads the best copy on a
    /// live holder, so it survives losing the victim together with up to
    /// `k - 1` of its replica holders.
    ckpt: ReplicatedStore,
    /// Per-daemon snapshot version counters (monotone; replica staleness
    /// is resolved by version, not arrival order).
    ckpt_ver: Vec<u32>,
    /// Failover once-guard: victim `i`'s checkpoint is restored at most
    /// once, no matter how many detectors reach the Dead verdict.
    restored: Vec<bool>,
    /// When each permanently killed daemon died (recovery-latency stat).
    killed_at: Vec<Option<SimTime>>,
    /// Whether the cluster-wide heartbeat chain is scheduled. The chain
    /// winds down when the cluster quiesces; a later kill revives it.
    beats_live: bool,
    /// Same, per daemon, for the periodic checkpoint chains.
    ckpt_live: Vec<bool>,
    /// Per daemon: whether a deferred [`tick`] is already scheduled.
    /// A daemon that cannot run now (CPU busy, or inside a crash window)
    /// keeps at most one wake-up in the queue, however many frames reach
    /// it meanwhile.
    wake_pending: Vec<bool>,
    /// Completion time of the last *productive* event (frame accepted or
    /// segment finished). Reported instead of `engine.now()` when faults
    /// are active, because stale retransmission timers legitimately
    /// outlive the computation and would otherwise inflate the runtime.
    last_work: SimTime,
    /// Set when the run cannot continue (an unrecoverable daemon loss);
    /// [`Cluster::run`] stops at the next event and returns it.
    fatal: Option<ClusterError>,
    /// The platform's own counters, one slot per [`Metric`] (frames put
    /// on the wire, injected faults, crashes); merged into the report as
    /// the daemons' are.
    counters: Counters,
    /// The recovery-latency histogram and its running total.
    stats: Stats,
}

impl Sealed for Sim {
    type Driver = En;
    const CLOCK: Clock = Clock::Simulated;

    fn launched(en: &mut En, d: DaemonId) {
        en.schedule_at(en.now(), move |en, w| tick(en, w, d));
    }

    fn now(en: &En) -> SimTime {
        en.now()
    }

    fn drive(en: &mut En, w: &mut World) -> Result<(f64, u64, Stats), ClusterError> {
        // Arm the GVT service if needed.
        if w.codes.any_uses_virtual_time() || w.cfg.vt_mode == VtMode::Optimistic {
            en.schedule_in(w.cfg.gvt_interval, gvt_tick);
        }
        if w.cfg.recovery_armed() {
            // Time-zero checkpoints: even an instant kill can restore to
            // the injected workload, never to nothing.
            for i in 0..w.daemons.len() {
                checkpoint_now(en, w, DaemonId(i as u16));
            }
            w.plat.beats_live = true;
            en.schedule_in(HEARTBEAT_EVERY, beat_tick);
            for i in 0..w.daemons.len() {
                let d = DaemonId(i as u16);
                w.plat.ckpt_live[i] = true;
                en.schedule_in(CHECKPOINT_EVERY, move |en, w| ckpt_tick(en, w, d));
            }
        }
        if w.cfg.trace.enabled {
            w.emit(DaemonId(0), en.now(), EventKind::SpanBegin { name: "run".to_string() });
        }
        let mut left = w.cfg.max_events;
        while left > 0 && w.plat.fatal.is_none() && en.step(w) {
            left -= 1;
        }
        if let Some(e) = w.plat.fatal.take() {
            return Err(e);
        }
        if en.pending() > 0 {
            return Err(ClusterError::Stalled { events: en.processed() });
        }
        let mut counters = w.plat.counters.clone();
        let net = w.plat.net.stats();
        counters.add(Metric::NetMessages, net.messages);
        counters.add(Metric::NetPayloadBytes, net.payload_bytes);
        counters.add(Metric::NetQueueingNs, net.queueing_ns);
        let stats = with_counters(&w.plat.stats, &counters);
        // Under faults, stale retransmission timers (armed for frames
        // that were acked, or backed off past the end of the run) drain
        // after the computation finishes; completion time is the last
        // productive event, not the last timer expiry. Without faults
        // the two are identical and we keep the original expression.
        let completed = if w.plat.injector.is_some() { w.plat.last_work } else { en.now() };
        if w.cfg.trace.enabled {
            // Close the run-wide root span at the reported completion
            // instant, before the recorders are drained.
            w.emit(DaemonId(0), completed, EventKind::SpanEnd { name: "run".to_string() });
        }
        Ok((msgr_sim::to_secs(completed), en.processed(), stats))
    }
}

impl Platform for Sim {}

/// The world threaded through simulation events.
type World = Front<Sim>;

impl World {
    fn outstanding(&self) -> bool {
        self.plat.in_flight > 0
            || self.daemons.iter().any(Daemon::has_any_messengers)
            || self.daemons.iter().map(Daemon::unacked_frames).sum::<u64>() > 0
            || self.daemons.iter().map(Daemon::staged_work).sum::<u64>() > 0
            || self.has_unrestored_kill()
    }

    /// A permanently killed daemon whose checkpoint has not been
    /// restored yet holds work (its checkpointed messengers) that no
    /// live daemon can see — the run must not quiesce past it.
    fn has_unrestored_kill(&self) -> bool {
        (0..self.daemons.len())
            .any(|i| self.plat.down_until[i] == SimTime::MAX && !self.plat.restored[i])
    }
}

type En = Engine<World>;

fn apply_effects(en: &mut En, w: &mut World, src: DaemonId, at: SimTime, mut fx: Vec<Effect>) {
    // Under an active fault plan, envelope outgoing payload frames in the
    // reliable transport (no-op otherwise).
    w.daemons[src.0 as usize].seal_effects(at, &mut fx);
    for f in fx {
        match w.census.book(f) {
            Some(Effect::Send { dst, wire }) => {
                let bytes = wire.wire_bytes(w.cfg.costs.wire_header_bytes);
                let src_h = HostId(src.0 as u32);
                let dst_h = HostId(dst.0 as u32);
                // Checkpoint replication is the durable-write path: a
                // push is a disk write on the holder's host, not a
                // droppable datagram — it either completes or the holder
                // is dead (reliable-or-fail-stop). Everything else,
                // consensus and gossip included, faces the injector;
                // ctrl losses heal by re-proposal at a higher ballot.
                let durable = matches!(&wire, Wire::CkptPush { .. } | Wire::CkptAck { .. });
                let fate = match &mut w.plat.injector {
                    Some(inj) if src != dst && !durable => inj.fate(),
                    _ => FrameFate::intact(),
                };
                w.plat.counters.bump(Metric::Wires);
                w.plat.counters.add(Metric::WireBytes, bytes);
                if fate.dropped() {
                    // The bits went onto the medium; they just never
                    // arrived. Charge the network, schedule nothing.
                    let _ = w.plat.net.transfer(at, src_h, dst_h, bytes);
                    w.plat.counters.bump(Metric::NetFramesLost);
                    w.emit(src, at, EventKind::NetDrop { to: dst.0 });
                    continue;
                }
                if fate.copies == 2 {
                    w.plat.counters.bump(Metric::NetFramesDuplicated);
                    w.emit(src, at, EventKind::NetDup { to: dst.0 });
                }
                let mut wire = Some(wire);
                for k in 0..fate.copies as usize {
                    let extra = fate.delays[k];
                    if extra > 0 {
                        w.plat.counters.bump(Metric::NetFramesDelayed);
                        w.emit(src, at, EventKind::NetDelay { to: dst.0, by: extra });
                    }
                    let arrival =
                        w.plat.net.transfer(at, src_h, dst_h, bytes).saturating_add(extra);
                    w.plat.in_flight += 1;
                    let copy = if k + 1 == fate.copies as usize {
                        wire.take().expect("one move per frame")
                    } else {
                        wire.as_ref().expect("clone before move").clone()
                    };
                    en.schedule_at(arrival, move |en, w| deliver(en, w, src, dst, at, copy));
                }
            }
            Some(Effect::Timer { src: csrc, chan, seq, delay }) => {
                // The timer belongs to `src` — the daemon currently
                // holding the channel's retransmit buffer. If it dies,
                // the timer dies with it; the successor re-arms its own.
                en.schedule_at(at.saturating_add(delay), move |en, w| {
                    timer_fire(en, w, src, csrc, chan, seq);
                });
            }
            Some(Effect::Recover { victim }) => recover(en, w, src, victim),
            // The census booked it: a live count, a fault or a name.
            _ => {}
        }
    }
}

/// Whether daemon `d` is up and may act on the event being handled. A
/// crashed daemon ignores the world until its restart instant, so `retry`
/// (the same event) is scheduled for then; a permanently dead one never
/// acts again, so the event is dropped.
fn up(
    en: &mut En,
    w: &mut World,
    d: DaemonId,
    retry: impl FnOnce(&mut En, &mut World) + 'static,
) -> bool {
    let resume = w.plat.down_until[d.0 as usize];
    if resume != SimTime::MAX && resume > en.now() {
        en.schedule_at(resume, retry);
    }
    resume <= en.now()
}

/// Charge `cost` to daemon `d`'s CPU from `now` and apply `fx` when it
/// finishes — unless the daemon is killed in between, which destroys the
/// uncommitted batch along with the rest of its volatile state (senders'
/// retransmit buffers and the last checkpoint still hold whatever caused
/// it, so the successor replays it after failover). `productive` work
/// (a frame accepted, a segment run) also counts towards the completion
/// time and is followed by a look for more.
fn charge(en: &mut En, w: &mut World, d: DaemonId, cost: u64, fx: Vec<Effect>, productive: bool) {
    let (_, end) = w.plat.cpus[d.0 as usize].run(en.now(), cost);
    if productive {
        w.plat.last_work = w.plat.last_work.max(end);
    }
    en.schedule_at(end, move |en, w| {
        if w.plat.down_until[d.0 as usize] == SimTime::MAX {
            return;
        }
        apply_effects(en, w, d, en.now(), fx);
        if productive {
            tick(en, w, d);
        }
    });
}

/// A retransmission timer fired on daemon `holder` for the channel
/// `(src, chan)`, frame `seq`. A dead holder's timers die with it (the
/// successor re-armed its own); a crashed one retransmits on restart.
fn timer_fire(
    en: &mut En,
    w: &mut World,
    holder: DaemonId,
    src: DaemonId,
    chan: DaemonId,
    seq: u64,
) {
    if !up(en, w, holder, move |en, w| timer_fire(en, w, holder, src, chan, seq)) {
        return;
    }
    let mut fx = Vec::new();
    let cost = w.daemons[holder.0 as usize].on_timer(en.now(), src, chan, seq, &mut fx);
    // A stale timer (the frame was acked long ago) costs nothing.
    if cost != 0 || !fx.is_empty() {
        charge(en, w, holder, cost, fx, false);
    }
}

fn deliver(en: &mut En, w: &mut World, src: DaemonId, dst: DaemonId, sent_at: SimTime, wire: Wire) {
    w.plat.in_flight -= 1;
    let now = en.now();
    let i = dst.0 as usize;
    let down = w.plat.down_until[i];
    if down > now {
        if down != SimTime::MAX && src == dst {
            // A daemon's hand-off to itself never touches the wire: it
            // is daemon memory, and fail-recover semantics preserve
            // daemon memory across a crash. Park it until the restart.
            w.plat.in_flight += 1;
            en.schedule_at(down, move |en, w| deliver(en, w, src, dst, sent_at, wire));
        } else {
            // Lost in flight. To a crashed daemon, the sender's
            // retransmission timer re-delivers it after the restart; to a
            // permanently dead one (loopback included), the retransmission
            // is re-routed to the successor once the eviction lands.
            w.plat.counters.bump(Metric::CrashFramesLost);
        }
        return;
    }
    let mut fx = Vec::new();
    // Cost-attribution profiling: credit the in-flight latency of every
    // messenger carried in this frame (a no-op with profiling off).
    w.daemons[i].profile_transport(&wire, now.saturating_sub(sent_at));
    let cost = w.daemons[i].on_wire_at(now, wire, &mut fx);
    charge(en, w, dst, cost, fx, true);
}

/// Let daemon `d` run its next segment if it can. If it cannot yet — it
/// is inside a crash window, or its CPU is busy — it is woken when it
/// can, through one pending wake-up per daemon: the wake clears the flag
/// and looks again, re-arming if the CPU was reserved meanwhile. A
/// killed daemon never acts again.
fn tick(en: &mut En, w: &mut World, d: DaemonId) {
    let now = en.now();
    let i = d.0 as usize;
    let down = w.plat.down_until[i];
    if down == SimTime::MAX {
        return;
    }
    let wake = if down > now { down } else { w.plat.cpus[i].busy_until() };
    if wake > now {
        if !std::mem::replace(&mut w.plat.wake_pending[i], true) {
            en.schedule_at(wake, move |en, w| {
                w.plat.wake_pending[i] = false;
                tick(en, w, d);
            });
        }
        return;
    }
    if !w.daemons[i].has_work() {
        return;
    }
    w.daemons[i].recorder_mut().set_now(now);
    let mut fx = Vec::new();
    let cost = w.daemons[i].run_segment(&*w.census, &mut fx);
    if let Some(cost) = cost {
        charge(en, w, d, cost, fx, true);
    }
}

fn gvt_tick(en: &mut En, w: &mut World) {
    // GVT rounds — including the final one that confirms quiescence —
    // are part of the run for timing purposes. Stamping them here keeps
    // the faulty-run metric (`last_work`) aligned with the fault-free
    // one (`engine.now()`), which includes this drain tail.
    w.plat.last_work = w.plat.last_work.max(en.now());
    if !w.outstanding() {
        return; // computation finished; let the queue drain
    }
    let mut fx = Vec::new();
    w.daemons[0].gvt_begin(&mut fx);
    apply_effects(en, w, DaemonId(0), en.now(), fx);
    let interval = w.cfg.gvt_interval.max(MILLI / 2);
    en.schedule_in(interval, gvt_tick);
}

/// A permanent kill: the daemon's volatile state is destroyed on the
/// spot. Its last checkpoint (in `Sim::ckpt`) is all that remains.
fn kill(en: &mut En, w: &mut World, d: DaemonId) {
    let i = d.0 as usize;
    w.plat.down_until[i] = SimTime::MAX;
    w.plat.killed_at[i] = Some(en.now());
    w.plat.counters.bump(Metric::Kills);
    // The kill event lands in the victim's own flight recorder *before*
    // `gut`: the recorder deliberately survives the kill, so the last
    // window of pre-crash events — including this one — reaches the
    // merged trace.
    w.emit(d, en.now(), EventKind::Kill);
    w.daemons[i].gut();
    // Every checkpoint replica this daemon held dies with its host, and
    // so does its checkpoint cadence.
    w.plat.ckpt.fail(d);
    w.plat.ckpt_live[i] = false;
    // If the cluster had quiesced, the heartbeat and checkpoint chains
    // wound down — but the kill itself creates new work (the victim's
    // unrestored checkpoint), so failure detection must come back.
    if !w.plat.beats_live {
        w.plat.beats_live = true;
        en.schedule_in(HEARTBEAT_EVERY, beat_tick);
    }
    for j in 0..w.daemons.len() {
        if j != i && w.plat.down_until[j] != SimTime::MAX && !w.plat.ckpt_live[j] {
            w.plat.ckpt_live[j] = true;
            let dj = DaemonId(j as u16);
            en.schedule_at(en.now().saturating_add(CHECKPOINT_EVERY), move |en, w| {
                ckpt_tick(en, w, dj);
            });
        }
    }
}

/// Checkpoint daemon `d` right now: flush the output-commit stage (which
/// seals staged sends into the retransmit buffer and releases deferred
/// acks), store the snapshot durably, then let the flushed effects out.
/// The order is load-bearing: the effects become visible only together
/// with the snapshot that can replay them.
fn checkpoint_now(en: &mut En, w: &mut World, d: DaemonId) {
    let i = d.0 as usize;
    let now = en.now();
    let mut fx = Vec::new();
    w.daemons[i].checkpoint_flush(now, &mut fx);
    let snap = w.daemons[i].checkpoint_snapshot();
    let bytes = snap.len() as u64;
    // Write-ahead replication: the snapshot is durable on the owner's
    // host and on its k next-alive successors *before* the flushed
    // effects go out below — the output-commit barrier, now k-wide. The
    // CkptPush frames carry the same bytes through the (loss-exempt)
    // network for cost accounting and the holders' acks. A snapshot
    // identical to the last one keeps its version, and holders that
    // already have the current version are not pushed to again — the
    // idempotence that lets the cadence quiesce with the computation
    // (while still re-replicating after a *holder* dies).
    if !w.plat.ckpt.unchanged(d, &snap) {
        w.plat.ckpt_ver[i] += 1;
    }
    let ver = w.plat.ckpt_ver[i];
    w.plat.ckpt.install(d, d, ver, snap.clone());
    let k = w.cfg.replica_count();
    let n = w.daemons.len();
    let mut out = Vec::new();
    let mut covered = 0usize;
    let mut pushed = 0u64;
    for step in 1..n {
        if covered >= k {
            break;
        }
        let j = (i + step) % n;
        if w.plat.down_until[j] == SimTime::MAX {
            continue;
        }
        let holder = DaemonId(j as u16);
        covered += 1;
        if w.plat.ckpt.held_version(d, holder) == Some(ver) {
            continue; // already durable there — nothing to push
        }
        w.plat.ckpt.install(d, holder, ver, snap.clone());
        out.push(Effect::Send {
            dst: holder,
            wire: Wire::CkptPush { owner: d, ver, snapshot: snap.clone() },
        });
        pushed += 1;
    }
    // Pushes ride ahead of the flushed effects they guard.
    out.append(&mut fx);
    let cost = w.cfg.costs.hop_send_ns + bytes * (1 + pushed) * w.cfg.costs.per_byte_copy_ns;
    let (_, end) = w.plat.cpus[i].run(now, cost);
    w.plat.last_work = w.plat.last_work.max(end);
    apply_effects(en, w, d, now, out);
}

/// Periodic per-daemon checkpoint cadence (recovery-armed runs only).
fn ckpt_tick(en: &mut En, w: &mut World, d: DaemonId) {
    if !up(en, w, d, move |en, w| ckpt_tick(en, w, d)) {
        return;
    }
    checkpoint_now(en, w, d);
    if !w.outstanding() {
        w.plat.ckpt_live[d.0 as usize] = false;
        return; // computation finished; let the queue drain
    }
    en.schedule_at(en.now().saturating_add(CHECKPOINT_EVERY), move |en, w| ckpt_tick(en, w, d));
    tick(en, w, d);
}

/// One cluster-wide heartbeat instant: every live daemon beats and runs
/// its failure detector at the same simulated time, so Dead verdicts —
/// and therefore failover — are deterministic per seed.
fn beat_tick(en: &mut En, w: &mut World) {
    if !w.outstanding() {
        w.plat.beats_live = false;
        return;
    }
    let now = en.now();
    for i in 0..w.daemons.len() {
        if w.plat.down_until[i] > now {
            continue;
        }
        let d = DaemonId(i as u16);
        let mut fx = Vec::new();
        w.daemons[i].on_beat_tick(now, &mut fx);
        apply_effects(en, w, d, now, fx);
    }
    en.schedule_in(HEARTBEAT_EVERY, beat_tick);
}

/// Failover: `successor` adopts `victim`'s last checkpoint. Runs at most
/// once per victim; the restore is followed immediately by a checkpoint
/// of the successor, so a chained failure cannot lose the adopted state.
fn recover(en: &mut En, w: &mut World, successor: DaemonId, victim: DaemonId) {
    let vi = victim.0 as usize;
    if w.plat.restored[vi] {
        return;
    }
    w.plat.restored[vi] = true;
    let Some((_, snap)) = w.plat.ckpt.best(victim) else {
        w.plat.fatal =
            Some(ClusterError::CheckpointLost { victim, replicas: w.cfg.replica_count() });
        return;
    };
    let bytes = snap.len() as u64;
    let now = en.now();
    let si = successor.0 as usize;
    let mut fx = Vec::new();
    if let Err(e) = w.daemons[si].restore_from(victim, snap, now, &mut fx) {
        w.plat.fatal = Some(ClusterError::CheckpointDamaged { victim, reason: e.to_string() });
        return;
    }
    // Restored nodes keep their gids: published names move to the
    // successor in place, and names the victim never published stay out
    // of the directory.
    for entry in w.census.names.write().expect(super::POISONED).values_mut() {
        if entry.0 == victim {
            entry.0 = successor;
        }
    }
    if let Some(k) = w.plat.killed_at[vi] {
        // Both views of the same number: the counter keeps the historical
        // total, the histogram feeds the p50/p99/max quantiles the
        // recovery ablation reports.
        let lat = now.saturating_sub(k);
        w.plat.stats.add(Metric::RecoveryLatencyNs, lat);
        w.plat.stats.record(Metric::RecoveryLatencyNs, lat);
        // The messengers the restore just revived sat behind the crash
        // for exactly this long: charge it to their `stall` phase.
        w.daemons[si].profile_recovery_stall(lat);
    }
    let cost = w.cfg.costs.hop_recv_ns + bytes * w.cfg.costs.per_byte_copy_ns;
    let (_, end) = w.plat.cpus[si].run(now, cost);
    w.plat.last_work = w.plat.last_work.max(end);
    apply_effects(en, w, successor, now, fx);
    checkpoint_now(en, w, successor);
    en.schedule_at(end, move |en, w| tick(en, w, successor));
}

/// A MESSENGERS cluster inside the discrete-event simulator.
///
/// See the crate-level example. Typical flow: configure → register
/// programs and natives → build a logical topology (optional) → inject →
/// [`Cluster::run`] → inspect node variables and the report.
pub type SimCluster = Cluster<Sim>;

impl SimCluster {
    /// Build a cluster per `cfg`, with a clique daemon topology.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::with_daemon_topology(cfg.clone(), DaemonTopology::clique(cfg.daemons))
    }

    /// Build a cluster with an explicit daemon topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology size differs from `cfg.daemons`.
    pub fn with_daemon_topology(cfg: ClusterConfig, topo: DaemonTopology) -> Self {
        assert_eq!(topo.len(), cfg.daemons, "topology size mismatch");
        if let Err(e) = cfg.faults.validate(cfg.daemons) {
            panic!("invalid fault plan: {e}");
        }
        if cfg.recovery_armed() {
            assert!(
                cfg.vt_mode != VtMode::Optimistic,
                "permanent kills are not supported under optimistic virtual time \
                 (checkpoints do not capture Time-Warp rollback state)"
            );
            assert!(
                cfg.faults.crashes.iter().all(|c| !(c.is_kill() && c.host == 0)),
                "daemon 0 hosts the GVT coordinator and cannot be permanently killed \
                 (coordinator failover is not supported)"
            );
        }
        let n = cfg.daemons;
        let sim = Sim {
            cpus: (0..n).map(|_| Cpu::new(cfg.cpu_speed)).collect(),
            net: cfg.net.build(n),
            in_flight: 0,
            // Fault draws get their own RNG stream, forked off the run
            // seed, so enabling faults never perturbs other randomized
            // choices.
            injector: (!cfg.faults.is_none()).then(|| {
                FaultInjector::new(cfg.faults.clone(), DetRng::new(cfg.seed).fork(0xFA17))
            }),
            down_until: vec![0; n],
            ckpt: ReplicatedStore::default(),
            ckpt_ver: vec![0; n],
            restored: vec![false; n],
            killed_at: vec![None; n],
            beats_live: false,
            ckpt_live: vec![false; n],
            wake_pending: vec![false; n],
            last_work: 0,
            fatal: None,
            counters: Counters::default(),
            stats: Stats::new(),
        };
        let mut cluster = Cluster::assemble(cfg, topo, sim);
        // Crash/restart windows are part of the scenario: schedule them
        // up front so they fire regardless of how the run is driven.
        for ev in cluster.front.cfg.faults.crashes.clone() {
            let d = DaemonId(ev.host as u16);
            if ev.is_kill() {
                cluster.driver.schedule_at(ev.at, move |en, w| kill(en, w, d));
                continue;
            }
            cluster.driver.schedule_at(ev.at, move |en, w| {
                let down = ev.down_for.expect("kills handled above");
                let until = en.now().saturating_add(down);
                let i = d.0 as usize;
                w.plat.down_until[i] = w.plat.down_until[i].max(until);
                w.plat.counters.bump(Metric::Crashes);
                en.schedule_at(until, move |en, w| {
                    w.plat.counters.bump(Metric::Restarts);
                    tick(en, w, d);
                });
            });
        }
        cluster
    }

    /// Number of daemons.
    pub fn daemons(&self) -> usize {
        self.front.daemons.len()
    }

    /// Inject a messenger at a *future simulated time* — the paper's
    /// runtime injection ("arbitrary new Messengers may also be injected
    /// by the user from the outside (the command shell) at runtime",
    /// §1). The messenger appears at the named node when the cluster
    /// clock reaches `at_seconds`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownProgram`] if unregistered,
    /// [`ClusterError::NotFound`] if the node is unknown *now* (the node
    /// must already exist when scheduling).
    pub fn inject_at_time(
        &mut self,
        node: &Value,
        program: ProgramId,
        args: &[Value],
        at_seconds: f64,
    ) -> Result<(), ClusterError> {
        if self.front.codes.get_any(program).is_none() {
            return Err(ClusterError::UnknownProgram);
        }
        let (d, gid) = self.front.census.find(node)?;
        let args = args.to_vec();
        let when = msgr_sim::from_secs(at_seconds).max(self.driver.now());
        // Counted from scheduling so runs don't quiesce early.
        self.front.census.count(1);
        self.driver.schedule_at(when, move |en, w| {
            let prog =
                w.daemons[d.0 as usize].codes_get(program).expect("checked at scheduling time");
            if let Err(e) = w.daemons[d.0 as usize].launch(&prog, program, &args, gid) {
                w.census.count(-1);
                w.census.fault(MessengerId(0), format!("late injection failed: {e}"));
            }
            tick(en, w, d);
        });
        Ok(())
    }

    /// Direct access to a daemon (tests and diagnostics).
    pub fn daemon(&self, d: u16) -> &Daemon {
        &self.front.daemons[d as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgr_vm::bytes::Bytes;

    #[test]
    fn a_damaged_checkpoint_stops_the_run_with_a_typed_error() {
        let mut cluster = SimCluster::new(ClusterConfig::new(3));
        let (heir, victim) = (DaemonId(1), DaemonId(2));
        // The victim's only surviving copy, on its heir, is garbage.
        cluster.front.plat.ckpt.fail(victim);
        cluster.front.plat.ckpt.install(victim, heir, 1, Bytes::from(vec![0xFF; 16]));
        recover(&mut cluster.driver, &mut cluster.front, heir, victim);
        match cluster.run() {
            Err(ClusterError::CheckpointDamaged { victim: v, reason }) => {
                assert_eq!(v, victim);
                assert!(reason.contains("checkpoint version"), "{reason}");
            }
            other => panic!("expected CheckpointDamaged, got {other:?}"),
        }
        // Nothing of the victim was adopted.
        assert_eq!(cluster.daemon(1).stats().counter("restores"), 0);
    }
}
