//! The MESSENGERS daemon: receives messengers, interprets them, and
//! forwards them — platform-independent core logic.
//!
//! A daemon owns the logical nodes mapped to its host, a ready queue of
//! arrived messengers, and a virtual-time queue of suspended ones. The
//! platform (simulated or threaded) feeds it [`Wire`] frames via
//! [`Daemon::on_wire`] and asks it to execute one non-preemptive segment
//! at a time via [`Daemon::run_segment`]; both return the reference-CPU
//! cost of the work so the simulation can charge it to the host.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, RwLock};

use msgr_vm::bytes::Bytes;

use msgr_gvt::{
    Cancel, Coordinator, CoordinatorAction, CtrlMsg, Participant, PendingQueue, Rollback, TimeWarp,
};
use msgr_sim::{DetRng, SimTime, Stats};
use msgr_trace::{Counters, EventKind, FlightRecorder, Metric, TraceEvent};
use msgr_vm::{
    interp, wire as vmwire, Dir, EvalCreate, EvalCreateItem, EvalHop, EvalLink, LinkInstance,
    MessengerId, MessengerState, NativeCtx, NativeRegistry, NetVar, Program, ProgramId, Value,
    VmError, Vt, Yield,
};

use crate::ckpt::Snapshot;
// `msgr_core::daemon::CodeCache` is the path `tests/wire_format.rs` pins.
pub use crate::codes::CodeCache;
use crate::codes::Entry;
use crate::config::{ClusterConfig, ExecMode, VtMode};
use crate::ids::{DaemonId, NodeRef};
use crate::logical::{write_var, LinkRec, LogicalNode, Orient};
use crate::members::{Members, DEAD_AFTER, SUSPECT_AFTER};
use crate::profiling::{Ledger, Prof, PROFILE_INTERVAL};
use crate::topology::DaemonTopology;
use crate::wire::{CreateNode, Migration, Wire};
use crate::xport::{carried, frame_vtime, Redirect, TimerOutcome, Xport};

/// A messenger queued for execution at a node of this daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct Runnable {
    /// The messenger.
    pub state: MessengerState,
    /// The node it is at.
    pub at: NodeRef,
    /// The link it arrived on (`$last`).
    pub last: Option<LinkInstance>,
}

/// Side effects a daemon hands back to its platform.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Transmit a frame (possibly to this daemon itself — the platform
    /// loops it back, preserving uniform accounting).
    Send {
        /// Destination daemon.
        dst: DaemonId,
        /// The frame.
        wire: Wire,
    },
    /// The live-messenger population changed (replications, deaths).
    LiveDelta(i64),
    /// A messenger died with a runtime error.
    Fault {
        /// Which messenger.
        messenger: MessengerId,
        /// What went wrong.
        error: String,
    },
    /// A named node came into existence (directory update).
    DirectoryAdd {
        /// Node name.
        name: Value,
        /// Placement.
        daemon: DaemonId,
        /// Reference.
        node: NodeRef,
    },
    /// A named node was deleted.
    DirectoryRemove {
        /// Node name.
        name: Value,
    },
    /// (Reliable transport only.) Ask the platform to call
    /// [`Daemon::on_timer`] for the channel `(src, chan)` and sequence
    /// `seq` after `delay` has elapsed, so an unacknowledged frame can be
    /// retransmitted. Harmless if the ack arrives first: the timer
    /// callback finds nothing to resend.
    Timer {
        /// The channel's original sender ([`Wire::Data::src`]) — this
        /// daemon itself except for channels adopted during a failover.
        src: DaemonId,
        /// The channel's original receiver ([`Wire::Data::chan`]).
        chan: DaemonId,
        /// Transport sequence number of the frame.
        seq: u64,
        /// Delay from now until the timer fires.
        delay: SimTime,
    },
    /// (Crash recovery only.) This daemon has declared `victim`
    /// permanently dead and elected itself the successor: the platform
    /// must load the victim's last checkpoint, feed it to
    /// [`Daemon::restore_from`], and then checkpoint this daemon again so
    /// a chained failure cannot lose the adopted state.
    Recover {
        /// The dead daemon whose checkpoint must be restored here.
        victim: DaemonId,
    },
}

/// Name → location resolution for virtual hops, provided by the
/// platform.
pub trait Directory {
    /// Where the named node lives, if anywhere.
    fn lookup(&self, name: &Value) -> Option<(DaemonId, NodeRef)>;
}

impl Directory for HashMap<Value, (DaemonId, NodeRef)> {
    fn lookup(&self, name: &Value) -> Option<(DaemonId, NodeRef)> {
        self.get(name).copied()
    }
}

type NodeVars = HashMap<Arc<str>, Value>;

/// Why a messenger ceased to exist on this daemon; [`Daemon::bury`] maps
/// each cause to its counter, its trace event and its effects.
enum Death {
    /// Ran to completion.
    Retired,
    /// Killed by an error: unverifiable or unknown code, undecodable
    /// state, a VM error, a statement the virtual-time mode forbids.
    Fault(String),
    /// A `hop` or `create` matched no destination (§2.1: replicated to
    /// zero, it ceases to exist); the counter says which statement.
    NoMatch(Metric),
    /// Its destination node is gone.
    DeadLetter,
    /// Cancelled by its anti-messenger (Time Warp).
    Annihilated,
    /// Queued at a node that was deleted under it.
    Stranded,
    /// Lost in flight: the transport gave up delivering it to `chan`.
    Abandoned { chan: DaemonId, attempts: u32 },
}

/// One MESSENGERS daemon.
pub struct Daemon {
    id: DaemonId,
    cfg: Arc<ClusterConfig>,
    topo: Arc<DaemonTopology>,
    codes: CodeCache,
    /// This daemon's own copy of each registry entry it has used: read
    /// from `codes` once per program, then from here, so a segment takes
    /// no shared lock and writes no shared refcount. Entries never change
    /// once registered, so nothing here goes stale. It holds registered
    /// programs only, and a daemon runs a handful: a scan beats a hash
    /// map here (about 5% of `chaos_sim` host time, DESIGN.md §9).
    programs: Vec<(ProgramId, Arc<Entry>)>,
    natives: Arc<RwLock<NativeRegistry>>,
    nodes: HashMap<NodeRef, LogicalNode>,
    init: NodeRef,
    node_seq: u64,
    link_seq: u64,
    msgr_seq: u64,
    rr: usize,
    /// Ready messengers, served first-in first-out (conservative mode).
    ready: VecDeque<Runnable>,
    pending: PendingQueue<Runnable>,
    part: Participant,
    coord: Option<Coordinator>,
    /// The optimistic scheduler; `Some` iff the run is under Time Warp,
    /// and then it holds every messenger queued here.
    tw: Option<TimeWarp<NodeRef, NodeVars, Runnable>>,
    xport: Option<Xport>,
    // ---- crash recovery (active only when `cfg.recovery_armed()`) ----
    /// Recovery armed: the fault plan can kill a daemon permanently.
    recovery: bool,
    /// Membership view and failure-detector state.
    members: Members,
    /// Quorum control plane: one single-decree Paxos instance per
    /// `(victim, seq)`. `Some` only when recovery is armed on a cluster
    /// of at least two (a singleton has no quorum to consult).
    ctrl: Option<msgr_ctrl::Quorum>,
    /// Seeded peer-pick stream for the anti-entropy gossip schedule.
    gossip_rng: DetRng,
    /// Highest GVT estimate seen (via the coordinator or gossip hints).
    gvt_hint: f64,
    /// Output-commit stage: durable effects held back until the next
    /// checkpoint flush, so a death between checkpoints rolls back
    /// cleanly (the work re-executes from the snapshot, exactly once).
    stage: Vec<Effect>,
    /// Minimum virtual time pinned in this daemon's last checkpoint —
    /// the floor a restore can resurrect; GVT must never pass it.
    last_ckpt_min: Vt,
    /// Counters, one slot per [`Metric`]; gauges and histograms are in
    /// `stats`. [`Daemon::stats`] reports both as one [`Stats`].
    counters: Counters,
    stats: Stats,
    /// Flight recorder; a no-op unless `cfg.trace.enabled`. Deliberately
    /// NOT volatile state: a kill (`gut`) keeps it so the last window of
    /// events before the crash survives into the merged trace.
    rec: FlightRecorder,
    /// Cost-attribution profiler; `None` unless `cfg.profile`. Pure
    /// bookkeeping — charges nothing to the simulation cost model.
    prof: Option<Box<Prof>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("id", &self.id)
            .field("nodes", &self.nodes.len())
            .field("ready", &self.ready.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl Daemon {
    /// Create daemon `id` of a cluster of `cfg.daemons`, with its `init`
    /// node. Daemon 0 hosts the GVT coordinator.
    pub fn new(
        id: DaemonId,
        cfg: Arc<ClusterConfig>,
        topo: Arc<DaemonTopology>,
        codes: CodeCache,
        natives: Arc<RwLock<NativeRegistry>>,
    ) -> Self {
        let coord = (id.0 == 0).then(|| Coordinator::new(cfg.daemons));
        // One independent jitter stream per daemon, forked off the run
        // seed so transport randomness never perturbs other draws.
        let xport = cfg
            .reliable()
            .then(|| Xport::new(cfg.retransmit, DetRng::new(cfg.seed).fork(0xACC + id.0 as u64)));
        let recovery = cfg.recovery_armed();
        let n = cfg.daemons;
        let trace_cfg = cfg.trace.clone();
        let ctrl = (recovery && n >= 2).then(|| msgr_ctrl::Quorum::new(id.0, n as u16));
        // Gossip peer picks get their own fork so adding an exchange
        // never perturbs transport jitter.
        let gossip_rng = DetRng::new(cfg.seed).fork(0x605_5190 ^ u64::from(id.0));
        let prof = cfg.profile.then(Box::<Prof>::default);
        let tw = (cfg.vt_mode == VtMode::Optimistic).then(TimeWarp::default);
        let mut d = Daemon {
            id,
            cfg,
            topo,
            codes,
            programs: Vec::new(),
            natives,
            nodes: HashMap::new(),
            init: NodeRef::new(id.0, 0),
            node_seq: 0,
            link_seq: 0,
            msgr_seq: 0,
            rr: 0,
            ready: VecDeque::new(),
            pending: PendingQueue::new(),
            part: Participant::new(id.0),
            coord,
            tw,
            xport,
            recovery,
            members: Members::new(n),
            ctrl,
            gossip_rng,
            gvt_hint: 0.0,
            stage: Vec::new(),
            last_ckpt_min: Vt::INFINITY,
            counters: Counters::default(),
            stats: Stats::new(),
            rec: FlightRecorder::new(id.0, &trace_cfg),
            prof,
        };
        let init = d.build_node(Value::str("init"));
        d.init = init;
        d
    }

    /// This daemon's id.
    pub fn id(&self) -> DaemonId {
        self.id
    }

    /// The daemon's `init` node.
    pub fn init_node(&self) -> NodeRef {
        self.init
    }

    /// Counters, gauges and histograms collected so far.
    pub fn stats(&self) -> Stats {
        with_counters(&self.stats, &self.counters)
    }

    /// The flight recorder (platform stamps the clock through this).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.rec
    }

    /// Drain the flight recorder: this daemon's id, its buffered events,
    /// plus the count lost to the ring bound. Called by the platform at
    /// the end of a run; the recorder stays armed, and survives kills
    /// (see [`Daemon::gut`]).
    pub fn take_trace(&mut self) -> (u16, Vec<TraceEvent>, u64) {
        let (evs, dropped) = self.rec.drain();
        (self.id.0, evs, dropped)
    }

    // ---- cost-attribution profiling hooks ---------------------------------
    //
    // All of these are single-branch no-ops with profiling off; none of
    // them touches the simulation cost model or the flight recorder's
    // event stream shape (ledgers/samples are *extra* events).

    /// A messenger joined the ready queue.
    fn prof_enqueue(&mut self, mid: u64) {
        let rt = self.rec.now();
        if let Some(p) = self.prof.as_mut() {
            let now = p.now(rt);
            p.on_enqueue(mid, now);
        }
    }

    /// A messenger parked on virtual time (pending queue).
    fn prof_park(&mut self, mid: u64) {
        let rt = self.rec.now();
        if let Some(p) = self.prof.as_mut() {
            let now = p.now(rt);
            p.on_park(mid, now);
        }
    }

    /// A messenger was popped from the ready queue for execution.
    fn prof_dequeue(&mut self, mid: u64) {
        let rt = self.rec.now();
        if let Some(p) = self.prof.as_mut() {
            let now = p.now(rt);
            p.on_dequeue(mid, now);
        }
    }

    /// Emit `l` as the `phase_ledger` event of `mid`. `parent` is 0
    /// except for sender-side partial ledgers.
    fn emit_ledger(&mut self, mid: u64, parent: u64, l: &Ledger, vt: f64) {
        self.counters.bump(Metric::ProfLedgers);
        self.rec.emit(
            vt,
            EventKind::PhaseLedger {
                mid,
                born: l.born,
                parent,
                queue: l.queue,
                verify: l.verify,
                exec: l.exec,
                enc: l.enc,
                xport: l.xport,
                park: l.park,
                stall: l.stall,
                total: l.total(),
            },
        );
    }

    /// Emit the finished ledger of `mid`, if it has one here, and drop it.
    fn prof_retire(&mut self, mid: u64, vt: f64) {
        let Some(p) = self.prof.as_mut() else {
            return;
        };
        let credit = p.transport.remove(&mid).unwrap_or(0);
        if let Some(mut l) = p.take(mid) {
            l.xport += credit;
            self.emit_ledger(mid, 0, &l, vt);
        }
    }

    /// Emit a sender-side partial ledger for an outgoing replica: only
    /// the encode cost is known here; `parent` ties it to the ledger of
    /// the messenger that forked it so `msgr profile` can stitch the
    /// cross-daemon critical path.
    fn prof_fork(&mut self, mid: u64, parent: u64, enc: u64, vt: f64) {
        if self.prof.is_some() {
            self.emit_ledger(mid, parent, &Ledger { enc, ..Ledger::new(mid) }, vt);
        }
    }

    /// Charge receive-side work (`verify` or `enc`) to `mid`'s ledger.
    fn prof_charge_recv(&mut self, mid: u64, verify: u64, enc: u64) {
        if let Some(p) = self.prof.as_mut() {
            let l = p.ledger(mid);
            l.verify += verify;
            l.enc += enc;
        }
    }

    /// Platform hook (threads): switch the profiler onto wall-clock time
    /// (the recorder `rt` is pinned to 0 there).
    pub fn profile_wallclock(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.start_wallclock();
        }
    }

    /// Platform hook (sim): credit `ns` of in-flight transport time to
    /// the messenger carried inside `wire`, before the frame is
    /// processed. Anti-messengers carry no ledger.
    pub fn profile_transport(&mut self, wire: &Wire, ns: u64) {
        if ns == 0 {
            return;
        }
        if let (Some(p), Some(m)) = (self.prof.as_mut(), carried(wire)) {
            p.credit_transport(m.id.0, ns);
        }
    }

    /// Platform hook (sim): attribute `ns` of recovery stall to every
    /// messenger the latest checkpoint restore revived.
    pub fn profile_recovery_stall(&mut self, ns: u64) {
        if let Some(p) = self.prof.as_mut() {
            p.charge_recovery_stall(ns);
        }
    }

    /// Whether any messenger is ready to execute right now.
    pub fn has_work(&self) -> bool {
        !self.ready.is_empty() || self.tw.as_ref().is_some_and(|tw| !tw.is_empty())
    }

    /// Whether anything (ready or suspended) exists on this daemon.
    pub fn has_any_messengers(&self) -> bool {
        self.has_work() || !self.pending.is_empty()
    }

    /// The minimum virtual time over all local messengers — this
    /// daemon's contribution to GVT.
    pub fn local_min(&self) -> Vt {
        let tw_min = self.tw.as_ref().map_or(Vt::INFINITY, TimeWarp::min);
        let ready = self.ready.iter().map(|r| r.state.vtime);
        ready.chain(self.pending.min_wake()).fold(tw_min, Vt::min)
    }

    /// Total Time-Warp rollbacks performed here.
    pub fn rollbacks(&self) -> u64 {
        self.counters.get(Metric::Rollbacks)
    }

    // ---- identifiers -------------------------------------------------------

    fn alloc_node(&mut self) -> NodeRef {
        self.node_seq += 1;
        NodeRef::new(self.id.0, self.node_seq)
    }

    /// Allocate a cluster-unique link instance id.
    pub fn alloc_link(&mut self) -> LinkInstance {
        self.link_seq += 1;
        LinkInstance(((self.id.0 as u64) << 48) | self.link_seq)
    }

    fn alloc_mid(&mut self) -> MessengerId {
        self.msgr_seq += 1;
        MessengerId::compose(self.id.0, self.msgr_seq)
    }

    // ---- platform-facing construction ---------------------------------------

    /// Create a logical node directly (initial topology construction and
    /// the `init` node). Named nodes should be announced to the
    /// directory by the caller.
    pub fn build_node(&mut self, name: Value) -> NodeRef {
        let gid = self.alloc_node();
        self.nodes.insert(gid, LogicalNode::new(gid, name));
        gid
    }

    /// Install one half of a link on an existing node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist (construction-time bug).
    pub fn install_link(&mut self, node: NodeRef, rec: LinkRec) {
        self.nodes.get_mut(&node).expect("install_link on missing node").links.push(rec);
    }

    /// Look up a program in the shared code registry (platform helper).
    /// Quarantined programs *are* returned — launching one is allowed;
    /// the refusal happens (and is counted) when a daemon executes it.
    pub fn codes_get(&self, id: ProgramId) -> Option<Arc<Program>> {
        self.codes.get_any(id)
    }

    /// Iterate this daemon's logical nodes (diagnostics, dumps).
    pub fn nodes(&self) -> impl Iterator<Item = &LogicalNode> {
        let mut v: Vec<&LogicalNode> = self.nodes.values().collect();
        v.sort_by_key(|n| n.gid);
        v.into_iter()
    }

    /// Find a local node by name.
    pub fn find_node(&self, name: &Value) -> Option<NodeRef> {
        self.nodes.values().find(|n| n.name.loose_eq(name)).map(|n| n.gid)
    }

    /// Access a node.
    pub fn node(&self, gid: NodeRef) -> Option<&LogicalNode> {
        self.nodes.get(&gid)
    }

    /// Read a node variable.
    pub fn node_var(&self, gid: NodeRef, var: &str) -> Option<Value> {
        self.nodes.get(&gid).map(|n| n.var(var))
    }

    /// Write a node variable (topology/setup phase).
    pub fn set_node_var(&mut self, gid: NodeRef, var: &str, v: Value) {
        if let Some(n) = self.nodes.get_mut(&gid) {
            n.set_var(var, v);
        }
    }

    /// Launch a fresh messenger at `at` (injection). Returns its id.
    /// `program_id` is the id the code registry gave `program`; the
    /// program is not hashed again.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::Arity`] if `args` do not match the entry
    /// function, and [`VmError::Corrupt`] if the entry cannot be
    /// activated at all (a quarantined program).
    pub fn launch(
        &mut self,
        program: &Program,
        program_id: ProgramId,
        args: &[Value],
        at: NodeRef,
    ) -> Result<MessengerId, VmError> {
        let id = self.alloc_mid();
        let state = MessengerState::launch_registered(program, program_id, id, args)?;
        self.rec.emit(state.vtime.as_f64(), EventKind::MsgrInject { mid: id.0 });
        self.enqueue(Runnable { state, at, last: None });
        Ok(id)
    }

    fn enqueue(&mut self, r: Runnable) {
        let id = r.state.id.0;
        if let Some(tw) = self.tw.as_mut() {
            tw.push((r.state.vtime, id), r.at, r);
            self.prof_enqueue(id);
        } else if r.state.vtime <= self.part.gvt() {
            self.prof_enqueue(id);
            self.ready.push_back(r);
        } else {
            self.prof_park(id);
            self.pending.push(r.state.vtime, r);
        }
    }

    // ---- wire handling -------------------------------------------------------

    /// Process an incoming frame; returns the CPU cost of accepting it.
    ///
    /// Equivalent to [`Daemon::on_wire_at`] at platform time 0; platforms
    /// that track a clock (the simulator) should prefer `on_wire_at` so
    /// the transport can measure delivery latency.
    pub fn on_wire(&mut self, wire: Wire, fx: &mut Vec<Effect>) -> u64 {
        self.on_wire_at(0, wire, fx)
    }

    /// Process an incoming frame at platform time `now`; returns the CPU
    /// cost of accepting it.
    pub fn on_wire_at(&mut self, now: SimTime, wire: Wire, fx: &mut Vec<Effect>) -> u64 {
        self.rec.set_now(now);
        let cost = self.on_wire_inner(now, wire, fx);
        self.stage_durable(fx);
        cost
    }

    fn on_wire_inner(&mut self, now: SimTime, wire: Wire, fx: &mut Vec<Effect>) -> u64 {
        let c = self.cfg.costs;
        // A frame from outside the cluster is ignored, as `Members` ignores
        // its id: a reply would address a daemon no platform has.
        let sender = match &wire {
            Wire::Data { src: d, .. }
            | Wire::Beat { from: d, .. }
            | Wire::Ctrl { from: d, .. }
            | Wire::Gossip { from: d, .. }
            | Wire::CkptPush { owner: d, .. }
            | Wire::CkptAck { holder: d, .. } => Some(*d),
            _ => None,
        };
        if sender.is_some_and(|d| usize::from(d.0) >= self.cfg.daemons) {
            return c.gvt_msg_ns;
        }
        match wire {
            Wire::Data { src, chan, seq, frame } => {
                let mut cost = c.gvt_msg_ns;
                // The physical transmitter is whoever owns the channel's
                // sender slot (the sender itself at steady state).
                let from = self.members.owner(src);
                self.heard_from(now, from);
                let Some(x) = self.xport.as_mut() else {
                    // Transport disabled: treat the envelope as
                    // transparent (only reachable by hand-fed frames
                    // in tests).
                    return cost + self.on_wire_inner(now, *frame, fx);
                };
                let delivery = x.on_data(src, chan, seq, *frame);
                if !delivery.fresh {
                    self.counters.bump(Metric::XportDupDropped);
                }
                if self.recovery {
                    // Output commit: the ack goes out only once the
                    // delivery is pinned in a checkpoint, so the sender's
                    // retransmit buffer stays the log of every frame not
                    // yet durable here.
                    self.counters.bump(Metric::AcksDeferred);
                    x.defer_ack(src, chan, seq);
                } else {
                    // Ack every copy — the ack for an earlier copy may
                    // itself have been lost.
                    let cum = delivery.cum;
                    fx.push(Effect::Send { dst: from, wire: Wire::Ack { src, chan, cum, seq } });
                }
                for f in delivery.ready {
                    cost += self.on_wire_inner(now, f, fx);
                }
                cost
            }
            Wire::Ack { src, chan, cum, seq } => {
                let from = self.members.owner(chan);
                self.heard_from(now, from);
                if let Some(x) = self.xport.as_mut() {
                    let acked = x.on_ack(src, chan, cum, seq);
                    for &first_sent in &acked {
                        self.counters.bump(Metric::XportAcked);
                        self.stats.record(Metric::XportDeliveryNs, now.saturating_sub(first_sent));
                    }
                    if !acked.is_empty() {
                        self.rec.emit_sys(EventKind::FrameAck { chan: chan.0, seq });
                    }
                }
                c.gvt_msg_ns
            }
            Wire::Beat { from, epoch: _ } => {
                self.heard_from(now, from);
                c.gvt_msg_ns
            }
            Wire::Evict { victim, epoch, floor } => {
                self.apply_evict(victim, epoch, floor, fx);
                c.gvt_msg_ns
            }
            Wire::Ctrl { from, msg } => {
                self.heard_from(now, from);
                let step = self.ctrl.as_mut().map(|q| q.deliver(from.0, msg));
                if let Some(step) = step {
                    self.dispatch_ctrl(step, fx);
                }
                c.gvt_msg_ns
            }
            Wire::Gossip { from, reply, digest } => {
                self.heard_from(now, from);
                let mine = self.digest();
                // Pull half of push-pull: reply with our digest iff we
                // know something the sender doesn't. Replies are never
                // replied to, so one exchange is at most two frames.
                if !reply && mine.knows_more_than(&digest) {
                    self.counters.bump(Metric::GossipReplies);
                    fx.push(Effect::Send {
                        dst: from,
                        wire: Wire::Gossip { from: self.id, reply: true, digest: mine.clone() },
                    });
                }
                if digest.knows_more_than(&mine) {
                    self.merge_digest(&digest, from, fx);
                }
                c.gvt_msg_ns
            }
            Wire::CkptPush { owner, ver, snapshot } => {
                // Durable-write path: the platform installed the replica
                // before delivery; the daemon accounts it and acks the
                // owner so the write-ahead barrier can release.
                self.heard_from(now, owner);
                self.counters.bump(Metric::CkptReplicas);
                self.counters.add(Metric::CkptReplicaBytes, snapshot.len() as u64);
                self.rec.emit_sys(EventKind::CkptReplica { owner: owner.0, ver });
                fx.push(Effect::Send {
                    dst: owner,
                    wire: Wire::CkptAck { owner, holder: self.id, ver },
                });
                c.gvt_msg_ns + snapshot.len() as u64 * c.per_byte_copy_ns
            }
            Wire::CkptAck { owner: _, holder, ver: _ } => {
                self.heard_from(now, holder);
                self.counters.bump(Metric::CkptReplicaAcks);
                c.gvt_msg_ns
            }
            Wire::Migrate(m) => {
                self.part.on_receive(m.epoch, m.vtime);
                self.counters.bump(Metric::MigrationsIn);
                if m.anti {
                    self.annihilate(m.id, m.vtime, fx);
                    return c.gvt_msg_ns;
                }
                self.admit(m, false, fx)
            }
            Wire::Create(cn) => {
                let cn = *cn;
                self.part.on_receive(cn.messenger.epoch, cn.messenger.vtime);
                self.counters.bump(Metric::RemoteCreates);
                let mut node = LogicalNode::new(cn.gid, cn.name.clone());
                node.links.push(LinkRec {
                    inst: cn.inst,
                    name: cn.link_name,
                    orient: cn.orient_at_new,
                    peer: cn.origin,
                    peer_name: cn.origin_name,
                });
                self.nodes.insert(cn.gid, node);
                if cn.name != Value::Null {
                    fx.push(Effect::DirectoryAdd { name: cn.name, daemon: self.id, node: cn.gid });
                }
                // It lands on the node just built, whatever the inner
                // frame says.
                let landing =
                    Migration { to: (self.id, cn.gid), via: Some(cn.inst), ..cn.messenger };
                self.admit(landing, true, fx)
            }
            Wire::Unlink { node, inst } => {
                if let Some(n) = self.nodes.get_mut(&node) {
                    n.unlink(inst);
                    // Singleton collection is deferred while messengers
                    // are present (e.g. the deleting messenger itself has
                    // just arrived over the link being torn down).
                    if n.is_singleton() && node != self.init && !self.node_occupied(node) {
                        self.delete_node(node, fx);
                    }
                }
                c.gvt_msg_ns
            }
            Wire::Gvt(msg) => {
                self.on_gvt(msg, fx);
                c.gvt_msg_ns
            }
            Wire::GvtKick => {
                self.gvt_begin(fx);
                0
            }
        }
    }

    /// The receive path of every live messenger, whether it arrives on a
    /// `Migrate` or (`created`) with the node a `Create` just built:
    /// decode → quarantine check → node check → enqueue. Returns the CPU
    /// cost of accepting it.
    fn admit(&mut self, m: Migration, created: bool, fx: &mut Vec<Effect>) -> u64 {
        let c = self.cfg.costs;
        let fixed = if created { c.create_node_ns + c.hop_recv_ns } else { c.hop_recv_ns };
        let copy = m.bytes.len() as u64 * c.per_byte_copy_ns;
        // Receive-side attribution: fixed accept/verify overhead vs
        // byte-proportional decode.
        self.prof_charge_recv(m.id.0, fixed, copy);
        let cause = match vmwire::decode_messenger(m.bytes) {
            Err(e) => Death::Fault(e.to_string()),
            // The anti-messenger got here first.
            Ok(_) if self.tw.as_mut().is_some_and(|tw| tw.cancelled(m.id.0)) => Death::Annihilated,
            Ok(state) => match self.program(state.program).as_deref() {
                // Refuse quarantined code at the door — a migrating
                // messenger never even enqueues.
                Some(Entry::Quarantined { reason, .. }) => self.refusal(state.program, reason),
                _ if self.nodes.contains_key(&m.to.1) => {
                    // A created messenger's arrival is the creation of
                    // its node; the stream has never carried an `arrive`
                    // for it.
                    if !created {
                        self.rec.emit(state.vtime.as_f64(), EventKind::MsgrArrive { mid: m.id.0 });
                    }
                    self.enqueue(Runnable { state, at: m.to.1, last: m.via });
                    return fixed + copy;
                }
                // Destination node was deleted in flight.
                _ => Death::DeadLetter,
            },
        };
        self.bury(m.id, m.vtime, cause, fx);
        fixed + copy
    }

    /// What the registry holds for `pid`, from this daemon's copy: the
    /// shared registry is read once per program. A program not registered
    /// yet is not remembered, so a later registration is seen.
    fn program(&mut self, pid: ProgramId) -> Option<Arc<Entry>> {
        if let Some((_, entry)) = self.programs.iter().find(|(p, _)| *p == pid) {
            return Some(entry.clone());
        }
        let entry = Arc::new(self.codes.lookup(pid)?);
        self.programs.push((pid, entry.clone()));
        Some(entry)
    }

    /// A quarantined program reached this daemon: count the refusal and
    /// name it as the cause of death.
    fn refusal(&mut self, program: ProgramId, reason: &str) -> Death {
        self.counters.bump(Metric::VerifyRejected);
        Death::Fault(format!("program {program} failed verification: {reason}"))
    }

    /// Retire one messenger — the only place the live census drops by
    /// one. The cause picks the counter, the trace event and whether the
    /// platform hears an [`Effect::Fault`]; the census, the profiler
    /// ledger and their order are the same for every death.
    fn bury(&mut self, mid: MessengerId, vt: Vt, cause: Death, fx: &mut Vec<Effect>) {
        let fault = Some(EventKind::MsgrFault { mid: mid.0 });
        let (counter, event, error) = match cause {
            Death::Retired => {
                (Metric::Terminated, Some(EventKind::MsgrRetire { mid: mid.0 }), None)
            }
            Death::NoMatch(counter) => (counter, None, None),
            Death::DeadLetter => (Metric::DeadLetters, None, None),
            Death::Annihilated => (Metric::Annihilations, None, None),
            Death::Stranded => (Metric::StrandedKilled, None, None),
            Death::Fault(error) => (Metric::Faults, fault, Some(error)),
            Death::Abandoned { chan, attempts } => (
                Metric::Faults,
                fault,
                Some(format!("delivery to d{} abandoned after {attempts} attempts", chan.0)),
            ),
        };
        if let Some(error) = error {
            fx.push(Effect::Fault { messenger: mid, error });
        }
        fx.push(Effect::LiveDelta(-1));
        self.counters.bump(counter);
        if let Some(kind) = event {
            self.rec.emit(vt.as_f64(), kind);
        }
        self.prof_retire(mid.0, vt.as_f64());
    }

    // ---- reliable transport (sender side) ----------------------------------

    /// Wrap this daemon's outgoing payload frames in [`Wire::Data`]
    /// envelopes and arm their retransmission timers. Platforms call
    /// this on every effect batch before applying it; with the default
    /// benign fault plan it is a no-op.
    ///
    /// Acks, heartbeats, and frames that are already envelopes (a
    /// retransmission from [`Daemon::on_timer`]) pass through untouched.
    /// A lost heartbeat *is* the failure detector's signal, so sealing
    /// one would defeat it. Loopback sends also pass through — except
    /// under recovery, where a frame in flight to *this* daemon must
    /// survive this daemon's own death (it sits in the checkpointed
    /// retransmit buffer like any other frame).
    pub fn seal_effects(&mut self, now: SimTime, fx: &mut Vec<Effect>) {
        let Some(x) = self.xport.as_mut() else {
            return;
        };
        self.rec.set_now(now);
        let mut timers = Vec::new();
        for e in fx.iter_mut() {
            let Effect::Send { dst, wire } = e else {
                continue;
            };
            let payload = matches!(
                wire,
                Wire::Migrate(_)
                    | Wire::Create(_)
                    | Wire::Unlink { .. }
                    | Wire::Gvt(_)
                    | Wire::Evict { .. }
            );
            if !payload || (*dst == self.id && !self.recovery) {
                continue;
            }
            let chan = *dst;
            let inner = std::mem::replace(wire, Wire::GvtKick);
            let (data, seq, delay) = x.seal(self.id, chan, inner, now);
            let bytes = data.wire_bytes(self.cfg.costs.wire_header_bytes);
            *wire = data;
            *dst = self.members.owner(chan);
            timers.push(Effect::Timer { src: self.id, chan, seq, delay });
            self.counters.bump(Metric::XportSent);
            self.rec.emit_sys(EventKind::FrameSend { chan: chan.0, seq, bytes });
        }
        fx.extend(timers);
    }

    /// A retransmission timer fired for sequence `seq` on channel
    /// `(src, chan)`. If the frame is still unacknowledged, resend it
    /// with doubled timeout (plus deterministic jitter) or — after
    /// `max_attempts` transmissions — give up and account the loss.
    /// Every retry re-resolves the channel's current owner, so frames
    /// addressed to a daemon that has since died follow it to its
    /// successor. Returns the CPU cost.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        src: DaemonId,
        chan: DaemonId,
        seq: u64,
        fx: &mut Vec<Effect>,
    ) -> u64 {
        self.rec.set_now(now);
        match self.xport.as_mut().map_or(TimerOutcome::Stale, |x| x.on_timer(src, chan, seq)) {
            TimerOutcome::Stale => return 0, // acked in the meantime: no work
            TimerOutcome::GaveUp { frame, attempts } => {
                self.counters.bump(Metric::XportGaveUp);
                // If the frame carried a live messenger, it is now lost for
                // good: keep the population ledger honest and surface a
                // fault so no run under a sane policy silently passes.
                if let Some(m) = carried(&frame) {
                    self.bury(m.id, m.vtime, Death::Abandoned { chan, attempts }, fx);
                }
                self.stage_durable(fx);
            }
            TimerOutcome::Resend { frame, attempt, delay } => {
                self.counters.bump(Metric::XportRetransmits);
                self.rec.emit_sys(EventKind::FrameRetransmit { chan: chan.0, seq, attempt });
                fx.push(Effect::Send { dst: self.members.owner(chan), wire: frame });
                fx.push(Effect::Timer { src, chan, seq, delay });
            }
        }
        self.cfg.costs.gvt_msg_ns
    }

    /// Number of sent frames not yet acknowledged (0 when the transport
    /// is off). Platforms count these as outstanding work: the run is
    /// not quiescent while a retransmit buffer is non-empty.
    pub fn unacked_frames(&self) -> u64 {
        self.xport.as_ref().map_or(0, Xport::outstanding)
    }

    // ---- crash recovery ------------------------------------------------------

    /// Durable effects and deferred acks awaiting the next checkpoint
    /// flush (0 when recovery is off). Platforms count these as
    /// outstanding work: the run is not quiescent while anything is
    /// staged.
    pub fn staged_work(&self) -> u64 {
        (self.stage.len() + self.xport.as_ref().map_or(0, Xport::deferred_acks)) as u64
    }

    /// This daemon's membership epoch (number of evictions it knows of).
    pub fn mem_epoch(&self) -> u64 {
        self.members.epoch()
    }

    /// Whether this daemon's membership view considers `d` alive.
    pub fn is_peer_alive(&self, d: DaemonId) -> bool {
        self.members.is_alive(d)
    }

    /// Refresh the failure detector: `d` was just heard from.
    fn heard_from(&mut self, now: SimTime, d: DaemonId) {
        if self.recovery {
            self.members.heard(now, d);
        }
    }

    /// Under recovery, divert durable effects (payload sends, census
    /// changes, faults, directory updates) into the output-commit stage;
    /// soft effects (GVT traffic, control frames, timers) stay in `fx`
    /// for immediate application. A no-op when recovery is off.
    fn stage_durable(&mut self, fx: &mut Vec<Effect>) {
        if !self.recovery {
            return;
        }
        let durable = |e: &Effect| match e {
            Effect::Send { wire, .. } => {
                matches!(wire, Wire::Migrate(_) | Wire::Create(_) | Wire::Unlink { .. })
            }
            Effect::LiveDelta(_)
            | Effect::Fault { .. }
            | Effect::DirectoryAdd { .. }
            | Effect::DirectoryRemove { .. } => true,
            Effect::Timer { .. } | Effect::Recover { .. } => false,
        };
        for e in std::mem::take(fx) {
            if durable(&e) {
                self.stage.push(e);
            } else {
                fx.push(e);
            }
        }
    }

    /// This daemon's contribution to GVT: the queue minimum plus — under
    /// recovery — everything a crash could roll back or resurrect: staged
    /// (uncommitted) sends, unacknowledged in-flight frames, and the
    /// floor of the last checkpoint a restore would reinstate. With the
    /// drain check disabled after an eviction, these floors are what
    /// keeps Mattern's estimate safe.
    fn gvt_min(&self) -> Vt {
        self.local_min().min(self.recovery_floor())
    }

    fn recovery_floor(&self) -> Vt {
        if !self.recovery {
            return Vt::INFINITY;
        }
        let mut m = self.last_ckpt_min;
        for e in &self.stage {
            if let Effect::Send { wire, .. } = e {
                m = m.min(frame_vtime(wire));
            }
        }
        self.xport.as_ref().map_or(m, |x| m.min(x.channels().floor_of_unacked()))
    }

    /// The minimum virtual time pinned by a snapshot taken right now:
    /// every queued messenger plus the payloads held out-of-order in the
    /// resequencing buffers (their senders drop them once our deferred
    /// acks go out, so after the flush this snapshot is their only copy).
    fn snapshot_floor(&self) -> Vt {
        let m = self.local_min();
        self.xport.as_ref().map_or(m, |x| m.min(x.channels().floor_of_held()))
    }

    /// One failure-detector round: emit heartbeats to every peer still in
    /// the membership, then advance the suspicion state machine on peer
    /// silence. Alive → Suspect is soft (counted, reversible); Suspect →
    /// Dead is monotone and — on the victim's successor only — triggers
    /// failover via [`Effect::Recover`]. Platforms call this every
    /// heartbeat interval; a no-op unless recovery is armed. Returns the
    /// CPU cost.
    pub fn on_beat_tick(&mut self, now: SimTime, fx: &mut Vec<Effect>) -> u64 {
        if !self.recovery {
            return 0;
        }
        self.rec.set_now(now);
        let (from, epoch) = (self.id, self.members.epoch());
        let beat = |dst| Effect::Send { dst, wire: Wire::Beat { from, epoch } };
        fx.extend(self.members.peers(from).map(beat));
        self.counters.bump(Metric::FdBeats);
        let (dead, suspected) = self.members.verdicts(now, self.id, SUSPECT_AFTER, DEAD_AFTER);
        if suspected > 0 {
            // (Adding zero would still create the counter.)
            self.counters.add(Metric::FdSuspects, suspected);
        }
        for v in dead {
            self.propose_eviction(v, fx);
        }
        // Anti-entropy: push our digest to one seeded-random alive peer
        // per tick. Epidemic push-pull converges a new fact to every
        // daemon in O(log n) ticks even if the originating broadcast was
        // lost.
        let alive = self.members.alive_mask();
        if let Some(peer) = msgr_ctrl::pick_peer(&mut self.gossip_rng, self.id.0, alive) {
            self.counters.bump(Metric::GossipPushes);
            let digest = self.digest();
            fx.push(Effect::Send {
                dst: DaemonId(peer),
                wire: Wire::Gossip { from: self.id, reply: false, digest },
            });
        }
        self.cfg.costs.gvt_msg_ns
    }

    /// Propose burying `victim` to the quorum (or nudge a decided but
    /// not-yet-enacted decree along). Called on every beat tick while the
    /// victim is dead-silent and still in the membership, so lost ctrl
    /// frames heal by re-proposal at a higher ballot rather than by
    /// retransmission.
    fn propose_eviction(&mut self, victim: DaemonId, fx: &mut Vec<Effect>) {
        if !self.members.is_alive(victim) {
            return;
        }
        let Some(ctrl) = self.ctrl.as_mut() else {
            return;
        };
        // Cascade: if an earlier decree named an heir that has itself
        // died before restoring, open the next instance; if the decree's
        // heir is alive, re-send `Learn` in case it never heard it.
        let seq = match ctrl.decided_for(victim.0) {
            Some((seq, d)) if self.members.is_alive(DaemonId(d.successor)) => {
                let inst = msgr_ctrl::InstanceId { victim: victim.0, seq };
                if let Some(learn) = ctrl.learn_msg(inst) {
                    self.counters.bump(Metric::CtrlFrames);
                    fx.push(Effect::Send {
                        dst: DaemonId(d.successor),
                        wire: Wire::Ctrl { from: self.id, msg: learn },
                    });
                }
                return;
            }
            Some((seq, _)) => seq + 1,
            None => 0,
        };
        let heir = self.members.successor_of(victim);
        if heir == victim {
            return; // no live successor: nothing a decree could order
        }
        let decree = msgr_ctrl::Decree {
            victim: victim.0,
            successor: heir.0,
            epoch: (self.members.epoch() + 1) as u32,
        };
        let inst = msgr_ctrl::InstanceId { victim: victim.0, seq };
        self.counters.bump(Metric::CtrlProposals);
        self.rec.emit_sys(EventKind::CtrlPropose { victim: victim.0, seq });
        let step = ctrl.propose(inst, decree);
        self.dispatch_ctrl(step, fx);
    }

    /// Turn a consensus [`msgr_ctrl::Step`] into wire traffic, and act on
    /// a freshly learned decree.
    fn dispatch_ctrl(&mut self, step: msgr_ctrl::Step, fx: &mut Vec<Effect>) {
        for (dst, msg) in step.send {
            self.counters.bump(Metric::CtrlFrames);
            fx.push(Effect::Send { dst: DaemonId(dst), wire: Wire::Ctrl { from: self.id, msg } });
        }
        if let Some((inst, decree)) = step.learned {
            self.on_decree(inst, decree, fx);
        }
    }

    /// A burial decree reached quorum. Only the decree-named heir acts
    /// (the single-restorer invariant); everyone else waits for the
    /// heir's reliable `Evict` broadcast, which carries the checkpoint
    /// floor GVT must respect.
    fn on_decree(
        &mut self,
        inst: msgr_ctrl::InstanceId,
        decree: msgr_ctrl::Decree,
        fx: &mut Vec<Effect>,
    ) {
        self.counters.bump(Metric::CtrlDecrees);
        self.rec.emit_sys(EventKind::CtrlDecide {
            victim: decree.victim,
            successor: decree.successor,
            seq: inst.seq,
        });
        if !self.members.is_alive(DaemonId(decree.victim)) || decree.successor != self.id.0 {
            return;
        }
        self.counters.bump(Metric::FdDeaths);
        fx.push(Effect::Recover { victim: DaemonId(decree.victim) });
    }

    /// This daemon's current anti-entropy digest.
    fn digest(&self) -> msgr_ctrl::Digest {
        msgr_ctrl::Digest {
            mem_epoch: self.members.epoch() as u32,
            evictions: self.members.evictions().to_vec(),
            code_hash: self.codes.content_hash(),
            gvt: self.gvt_hint,
        }
    }

    /// Fold a peer's digest into local state: unknown evictions apply
    /// (with their floors), the membership epoch ratchets, a registry
    /// hash mismatch is surfaced as a metric, and a newer GVT hint runs
    /// the full advance path (parked messengers revive / fossils
    /// collect — a hint is as good as a coordinator broadcast).
    fn merge_digest(&mut self, d: &msgr_ctrl::Digest, from: DaemonId, fx: &mut Vec<Effect>) {
        self.counters.bump(Metric::GossipMerges);
        self.rec.emit_sys(EventKind::GossipMerge { from: from.0 });
        for &(victim, floor) in &d.evictions {
            if victim != self.id.0 && self.members.is_alive(DaemonId(victim)) {
                self.apply_evict(DaemonId(victim), u64::from(d.mem_epoch), Vt::new(floor), fx);
            }
        }
        self.members.ratchet(u64::from(d.mem_epoch));
        if d.code_hash != self.codes.content_hash() {
            self.counters.bump(Metric::GossipCodeMismatch);
        }
        if d.gvt > self.gvt_hint {
            self.advance_gvt_local(Vt::new(d.gvt));
        }
    }

    /// Apply a membership eviction: mark `victim` dead (monotone), rebind
    /// every link record pointing at it to its successor, and — on the
    /// coordinator — evict it from the GVT round with the restored
    /// checkpoint's `floor`.
    fn apply_evict(&mut self, victim: DaemonId, epoch: u64, floor: Vt, fx: &mut Vec<Effect>) {
        if !self.recovery || victim == self.id || !self.members.evict(victim, epoch, floor) {
            return;
        }
        self.counters.bump(Metric::Evictions);
        self.rec.emit_sys(EventKind::GvtEvict { victim: victim.0, floor: floor.as_f64() });
        let heir = self.members.owner(victim);
        for n in self.nodes.values_mut() {
            for l in n.links.iter_mut() {
                if l.peer.0 == victim {
                    l.peer.0 = heir;
                }
            }
        }
        if let Some(coord) = self.coord.as_mut() {
            let action = coord.evict(victim.0, floor);
            self.coordinate(action, fx);
        }
    }

    /// Phase 1 of a checkpoint: commit everything staged since the last
    /// one. Staged payload sends are sealed into the retransmit buffer
    /// (so the snapshot that follows contains them) and the deferred acks
    /// go out with the cumulative sequence numbers the snapshot pins.
    /// Must be immediately followed by [`Daemon::checkpoint_snapshot`] in
    /// the same platform event: flushing makes effects visible to the
    /// cluster, so the snapshot that backs them must not be lost.
    pub fn checkpoint_flush(&mut self, now: SimTime, fx: &mut Vec<Effect>) {
        if !self.recovery {
            return;
        }
        self.rec.set_now(now);
        let mut out = std::mem::take(&mut self.stage);
        for (src, ack) in self.xport.iter_mut().flat_map(Xport::flush_acks) {
            out.push(Effect::Send { dst: self.members.owner(src), wire: ack });
        }
        self.seal_effects(now, &mut out);
        fx.append(&mut out);
    }

    /// Phase 2 of a checkpoint: serialize this daemon's durable state —
    /// logical nodes with their variables and links, every parked or
    /// queued messenger, id counters, and the transport channels
    /// (retransmit buffers and resequencing state) — into one snapshot
    /// the platform stores. [`Daemon::restore_from`] is the inverse.
    pub fn checkpoint_snapshot(&mut self) -> Bytes {
        debug_assert!(self.staged_work() == 0, "checkpoint_flush must precede checkpoint_snapshot");
        // Every parked messenger, in deterministic dequeue order.
        let pending: Vec<_> = std::iter::from_fn(|| self.pending.pop_min()).collect();
        let queued = (self.ready.iter().chain(pending.iter().map(|(_, r)| r)))
            .chain(self.tw.iter().flat_map(TimeWarp::queued));
        let out = Snapshot {
            counters: [self.node_seq, self.link_seq, self.msgr_seq, self.rr as u64],
            nodes: self.nodes.values().map(Cow::Borrowed).collect(),
            parked: queued.map(|r| (r.at, r.last, Cow::Borrowed(&r.state))).collect(),
            channels: self.xport.as_ref().map(|x| Cow::Borrowed(x.channels())),
        }
        .encode();
        for (wake, r) in pending {
            self.pending.push(wake, r);
        }
        self.last_ckpt_min = self.snapshot_floor();
        self.counters.bump(Metric::Checkpoints);
        self.counters.add(Metric::CheckpointBytes, out.len() as u64);
        self.rec.emit_sys(EventKind::Checkpoint { bytes: out.len() as u64 });
        out
    }

    /// Failover: this daemon (the successor) adopts everything in
    /// `victim`'s last checkpoint. Evicts the victim from the local
    /// membership, installs its logical nodes (rebinding link records per
    /// the new membership), re-enqueues its parked messengers, adopts its
    /// transport channels (re-arming and immediately redirecting every
    /// unacknowledged frame), and finally broadcasts the eviction —
    /// reliably, carrying the restored GVT floor — to the surviving
    /// peers. The platform must rebind its directory entries for the
    /// victim to this daemon, and checkpoint this daemon again right
    /// afterwards so a chained failure cannot lose the adopted state.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if the snapshot is malformed (a platform
    /// storage bug, not a recoverable condition).
    #[deny(clippy::cast_possible_truncation)]
    pub fn restore_from(
        &mut self,
        victim: DaemonId,
        bytes: Bytes,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) -> Result<(), VmError> {
        self.rec.set_now(now);
        // The victim's id counters die with it: NodeRefs and messenger
        // ids embed their creator, so the successor keeps minting from
        // its own sequences without collision.
        let snap = Snapshot::decode(bytes)?;
        let floor = snap.floor();

        // Evict first so `owner()` sees the new membership for every
        // rebinding below (this also feeds the coordinator, if local).
        self.apply_evict(victim, self.members.epoch() + 1, floor, fx);

        // Restored nodes keep their gids, so the platform rebinds its
        // existing directory entries (victim → this daemon) rather than
        // this daemon republishing: a node the victim never published
        // (e.g. its `init` node) must not enter the directory now.
        let restored_nodes = snap.nodes.len() as u64;
        let restored_msgrs = snap.parked.len() as u64;
        for node in snap.nodes {
            let mut node = node.into_owned();
            for l in node.links.iter_mut() {
                l.peer.0 = self.members.owner(l.peer.0);
            }
            self.counters.bump(Metric::RestoredNodes);
            self.nodes.insert(node.gid, node);
        }
        for (at, last, state) in snap.parked {
            self.counters.bump(Metric::RestoredMessengers);
            if let Some(p) = self.prof.as_mut() {
                // The platform charges the recovery latency to these
                // revived messengers once it is known (`profile_recovery_stall`).
                p.restored.push(state.id.0);
            }
            self.enqueue(Runnable { state: state.into_owned(), at, last });
        }
        if let (Some(x), Some(channels)) = (self.xport.as_mut(), snap.channels) {
            for Redirect { src, chan, seq, frame, delay } in x.adopt(channels.into_owned(), now) {
                let route = self.members.owner(chan);
                self.counters.bump(Metric::XportRedirected);
                self.rec.emit_sys(EventKind::FrameRedirect { chan: chan.0, seq, to: route.0 });
                fx.push(Effect::Send { dst: route, wire: frame });
                fx.push(Effect::Timer { src, chan, seq, delay });
            }
        }
        self.last_ckpt_min = self.last_ckpt_min.min(floor);
        self.counters.bump(Metric::Restores);
        self.rec.emit_sys(EventKind::Restore {
            victim: victim.0,
            nodes: restored_nodes,
            messengers: restored_msgrs,
        });
        let evict = Wire::Evict { victim, epoch: self.members.epoch(), floor };
        fx.extend(self.members.peers(self.id).map(|dst| Effect::Send { dst, wire: evict.clone() }));
        Ok(())
    }

    /// Erase all volatile state of a permanently killed daemon, so the
    /// platform's quiescence accounting converges. Its last checkpoint
    /// (held by the platform) is now the only remnant; everything since
    /// was never acknowledged or committed, so the survivors' retransmit
    /// buffers and the checkpoint together reconstruct it exactly once.
    pub fn gut(&mut self) {
        self.ready.clear();
        self.pending = PendingQueue::new();
        self.tw = self.tw.take().map(|_| TimeWarp::default());
        self.nodes.clear();
        self.stage.clear();
        self.last_ckpt_min = Vt::INFINITY;
        if let Some(x) = self.xport.as_mut() {
            x.clear();
        }
        if let Some(q) = self.ctrl.as_mut() {
            q.reset();
        }
        self.members.clear_evictions();
        if let Some(p) = self.prof.as_mut() {
            // The dead daemon's live ledgers die with its messengers;
            // the restored copies start fresh on the successor.
            p.ledgers.clear();
            p.transport.clear();
            p.restored.clear();
        }
    }

    /// Whether any queued messenger currently sits at `gid`.
    fn node_occupied(&self, gid: NodeRef) -> bool {
        self.ready.iter().chain(self.tw.iter().flat_map(TimeWarp::queued)).any(|r| r.at == gid)
    }

    fn delete_node(&mut self, gid: NodeRef, fx: &mut Vec<Effect>) {
        if let Some(n) = self.nodes.remove(&gid) {
            if n.name != Value::Null {
                fx.push(Effect::DirectoryRemove { name: n.name.clone() });
            }
            self.counters.bump(Metric::NodesDeleted);
            // Messengers stranded at the node die. (Under Time Warp none
            // is: no messenger deletes, and an unlinked node is collected
            // only once no messenger is queued at it.)
            let parked = self.pending.drain_matching(|r| r.at == gid);
            let dead: Vec<(MessengerId, Vt)> = (self.ready.iter())
                .chain(parked.iter().map(|(_, r)| r))
                .filter(|r| r.at == gid)
                .map(|r| (r.state.id, r.state.vtime))
                .collect();
            self.ready.retain(|r| r.at != gid);
            for (mid, vt) in dead {
                self.bury(mid, vt, Death::Stranded, fx);
            }
        }
    }

    // ---- GVT ------------------------------------------------------------------

    fn on_gvt(&mut self, msg: CtrlMsg, fx: &mut Vec<Effect>) {
        match msg {
            CtrlMsg::Cut { round } => {
                self.rec.emit_sys(EventKind::GvtRound { round });
                let lm = self.gvt_min();
                let ack = self.part.on_cut(round, lm);
                fx.push(Effect::Send { dst: DaemonId(0), wire: Wire::Gvt(ack) });
            }
            CtrlMsg::Poll { round } => {
                let lm = self.gvt_min();
                let ack = self.part.on_poll(round, lm);
                fx.push(Effect::Send { dst: DaemonId(0), wire: Wire::Gvt(ack) });
            }
            CtrlMsg::Advance { gvt } => self.advance_gvt_local(gvt),
            ack @ (CtrlMsg::CutAck { .. } | CtrlMsg::PollAck { .. }) => {
                let Some(coord) = self.coord.as_mut() else {
                    return;
                };
                let action = coord.on_ack(&ack);
                self.coordinate(action, fx);
            }
        }
    }

    /// Carry out what the GVT coordinator decided.
    fn coordinate(&mut self, action: CoordinatorAction, fx: &mut Vec<Effect>) {
        match action {
            CoordinatorAction::Wait => {}
            CoordinatorAction::PollAll { round } => self.broadcast_gvt(CtrlMsg::Poll { round }, fx),
            CoordinatorAction::Advance { gvt } => {
                self.counters.bump(Metric::GvtRounds);
                self.broadcast_gvt(CtrlMsg::Advance { gvt }, fx);
            }
        }
    }

    /// Adopt a GVT estimate — from the coordinator's `Advance` broadcast
    /// or from a gossip hint; both must run the same revive/fossil path.
    fn advance_gvt_local(&mut self, gvt: Vt) {
        self.part.on_advance(gvt);
        let g = gvt.as_f64();
        self.gvt_hint = self.gvt_hint.max(g);
        self.rec.set_gvt(g);
        self.rec.emit_sys(EventKind::GvtAdvance { gvt: g });
        if g.is_finite() && g > 0.0 {
            self.stats.gauge_set(Metric::GvtNs, (g * 1e9) as u64);
        }
        if let Some(tw) = self.tw.as_mut() {
            tw.fossil_collect(gvt);
            return;
        }
        while let Some((_, r)) = self.pending.pop_runnable(gvt) {
            self.rec.emit(r.state.vtime.as_f64(), EventKind::MsgrRevive { mid: r.state.id.0 });
            self.prof_enqueue(r.state.id.0);
            self.ready.push_back(r);
        }
    }

    fn broadcast_gvt(&mut self, msg: CtrlMsg, fx: &mut Vec<Effect>) {
        let all = self.members.alive();
        fx.extend(all.map(|dst| Effect::Send { dst, wire: Wire::Gvt(msg.clone()) }));
    }

    /// (Coordinator only.) Start a GVT round; returns `false` if this
    /// daemon is not the coordinator or a round is already running.
    pub fn gvt_begin(&mut self, fx: &mut Vec<Effect>) -> bool {
        let Some(coord) = self.coord.as_mut() else {
            return false;
        };
        let Some(cut) = coord.begin_round() else {
            return false;
        };
        self.broadcast_gvt(cut, fx);
        true
    }

    // ---- annihilation (optimistic) -----------------------------------------------

    /// An anti-messenger arrived; only Time Warp sends them.
    fn annihilate(&mut self, id: MessengerId, vt: Vt, fx: &mut Vec<Effect>) {
        match self.tw.as_mut().map(|tw| tw.annihilate(id.0)) {
            // No Time Warp here, or the anti-messenger overtook its
            // positive and waits for it.
            None | Some(Cancel::Stashed) => return,
            Some(Cancel::Dequeued) => {}
            Some(Cancel::RolledBack(gid, rb)) => self.apply_rollback(gid, rb, fx),
        }
        self.bury(id, vt, Death::Annihilated, fx);
    }

    fn apply_rollback(
        &mut self,
        gid: NodeRef,
        rb: Rollback<NodeVars, Runnable>,
        fx: &mut Vec<Effect>,
    ) {
        self.counters.bump(Metric::Rollbacks);
        self.counters.add(Metric::RolledBackEvents, rb.reexecute.len() as u64);
        if let Some(n) = self.nodes.get_mut(&gid) {
            n.vars = rb.restore;
        }
        for (_, input) in rb.reexecute {
            self.enqueue(input);
        }
        for cancel in rb.cancel {
            let dst = DaemonId(cancel.dest);
            if dst == self.id {
                self.annihilate(MessengerId(cancel.id), cancel.ts, fx);
            } else {
                self.part.on_send(cancel.ts);
                self.counters.bump(Metric::AntiSent);
                fx.push(Effect::Send {
                    dst,
                    wire: Wire::Migrate(Migration {
                        id: MessengerId(cancel.id),
                        vtime: cancel.ts,
                        epoch: self.part.stamp(),
                        anti: true,
                        to: (dst, NodeRef::new(0, 0)),
                        via: None,
                        bytes: Bytes::new(),
                        code_bytes: 0,
                    }),
                });
            }
        }
    }

    // ---- execution ---------------------------------------------------------------

    /// Execute one non-preemptive segment. Returns its reference-CPU
    /// cost, or `None` if nothing is runnable.
    pub fn run_segment(&mut self, dir: &dyn Directory, fx: &mut Vec<Effect>) -> Option<u64> {
        let cost = self.run_segment_inner(dir, fx)?;
        self.stage_durable(fx);
        Some(cost)
    }

    fn run_segment_inner(&mut self, dir: &dyn Directory, fx: &mut Vec<Effect>) -> Option<u64> {
        let (run, rollback) = match self.tw.as_mut() {
            Some(tw) => tw.pop()?,
            None => (self.ready.pop_front()?, None),
        };
        self.prof_dequeue(run.state.id.0);
        let Some(rb) = rollback else {
            return Some(self.execute(run, dir, fx));
        };
        // A straggler rolls its node back and waits its turn again.
        let undone = rb.reexecute.len() as u64;
        self.apply_rollback(run.at, rb, fx);
        self.enqueue(run);
        Some(undone * self.cfg.costs.rollback_per_event_ns)
    }

    fn execute(&mut self, mut run: Runnable, dir: &dyn Directory, fx: &mut Vec<Effect>) -> u64 {
        let c = self.cfg.costs;
        let (mid, at, pid) = (run.state.id, run.at, run.state.program);
        let entry = self.program(pid);
        let found = match (self.nodes.get(&at), entry.as_deref()) {
            (None, _) => Err(Death::DeadLetter),
            (Some(node), Some(Entry::Loaded(code))) => Ok((node, code)),
            (Some(_), Some(Entry::Quarantined { reason, .. })) => Err(self.refusal(pid, reason)),
            (Some(_), None) => Err(Death::Fault(format!("program {pid} not in code registry"))),
        };
        let (node, code) = match found {
            Ok(found) => found,
            Err(cause) => {
                self.bury(mid, run.state.vtime, cause, fx);
                return c.gvt_msg_ns;
            }
        };

        // Time Warp logs the node's state before the event and its input.
        let logged = self.tw.is_some().then(|| (node.vars.clone(), run.clone()));

        let fuel = self.cfg.segment_fuel;
        let address = self.id.0;
        let prof_t0 = self.prof.as_ref().map(|p| p.now(self.rec.now()));
        // Scoped mutable borrow of the node's variables for the VM.
        let (yielded, ops, native_ns, samples) = {
            let node = self.nodes.get_mut(&at).expect("the node was found above");
            let mut env = SegEnv {
                node_name: &node.name,
                vars: &mut node.vars,
                natives: &self.natives,
                address,
                last: run.last,
                mid,
                vtime: run.state.vtime,
                ops: 0,
                native_ns: 0,
                sample_every: if self.prof.is_some() { PROFILE_INTERVAL } else { 0 },
                samples: BTreeMap::new(),
            };
            let y = match self.cfg.exec {
                ExecMode::Interp => interp::run(&code.program, &mut run.state, &mut env, fuel),
                ExecMode::Compiled => msgr_vm::compile::run(
                    &code.compiled,
                    &code.program,
                    &mut run.state,
                    &mut env,
                    fuel,
                ),
            };
            (y, env.ops, env.native_ns, env.samples)
        };
        let vt = run.state.vtime;
        let mut cost = ops * c.per_op_ns + native_ns;
        self.counters.bump(Metric::Segments);
        self.counters.add(Metric::Ops, ops);

        // Charge the execute phase: wall time on threads, the cost-model
        // charge (same number the simulation bills) on sim. Then fold the
        // segment's pc hits to source lines and emit them, sorted, so the
        // event stream stays deterministic per seed.
        if let Some(t0) = prof_t0 {
            let rt = self.rec.now();
            let p = self.prof.as_mut().expect("prof_t0 implies profiler");
            let exec_ns = if p.wallclock() { p.now(rt).saturating_sub(t0) } else { cost };
            p.ledger(mid.0).exec += exec_ns;
            let mut by_line: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for ((func, pc), n) in samples {
                let line = code
                    .program
                    .funcs
                    .get(func as usize)
                    .and_then(|f| f.line_at(pc as usize))
                    .unwrap_or(0);
                *by_line.entry((func, line)).or_insert(0) += n;
            }
            for ((func, line), count) in by_line {
                self.counters.add(Metric::ProfSamples, count);
                self.rec.emit(vt.as_f64(), EventKind::PcSample { prog: pid.0, func, line, count });
            }
        }

        cost += match yielded {
            Ok(y) => self.handle_yield(run, y, &code.program, dir, fx),
            Err(e) => {
                self.bury(mid, vt, Death::Fault(e.to_string()), fx);
                0
            }
        };
        if let (Some(tw), Some((pre_state, input))) = (self.tw.as_mut(), logged) {
            tw.record((input.state.vtime, mid.0), at, pre_state, input);
        }
        cost
    }

    /// Act on the segment's outcome. The messenger arrives here by
    /// value: it is buried, re-enqueued, or handed on to its
    /// destinations, never copied.
    fn handle_yield(
        &mut self,
        mut run: Runnable,
        y: Yield,
        program: &Program,
        dir: &dyn Directory,
        fx: &mut Vec<Effect>,
    ) -> u64 {
        let (mid, vt) = (run.state.id, run.state.vtime);
        let cause = match y {
            Yield::Terminated(_) => Death::Retired,
            Yield::SchedDlt(dt) if dt < 0.0 => {
                Death::Fault("negative virtual-time delta".to_string())
            }
            Yield::Create(_) if self.tw.is_some() => Death::Fault(
                "optimistic mode requires a static logical network (create)".to_string(),
            ),
            Yield::SchedAbs(t) => {
                run.state.vtime = vt.max(t);
                self.resuspend(run);
                return 0;
            }
            Yield::SchedDlt(dt) => {
                run.state.vtime = vt.plus(dt);
                self.resuspend(run);
                return 0;
            }
            Yield::Hop(eh) => return self.do_hop(run, &eh, false, program, dir, fx),
            Yield::Delete(eh) => return self.do_hop(run, &eh, true, program, dir, fx),
            Yield::Create(ec) => return self.do_create(run, &ec, program, fx),
        };
        self.bury(mid, vt, cause, fx);
        0
    }

    /// Re-enqueue a suspended continuation under a fresh id (so that a
    /// Time-Warp rollback can cancel it like any other send).
    fn resuspend(&mut self, mut next: Runnable) {
        let old = next.state.id.0;
        next.state.id = self.alloc_mid();
        if let Some(p) = self.prof.as_mut() {
            // One ledger covers the whole local stay across the park's
            // re-identification.
            p.transfer(old, next.state.id.0);
        }
        if let Some(tw) = self.tw.as_mut() {
            tw.sent(next.state.id.0, self.id.0, next.state.vtime);
        }
        self.counters.bump(Metric::Suspensions);
        self.rec.emit(
            next.state.vtime.as_f64(),
            EventKind::MsgrPark { mid: next.state.id.0, wake: next.state.vtime.as_f64() },
        );
        self.enqueue(next);
    }

    /// The send path of every live messenger, whether it leaves on a
    /// `hop`/`delete` or (`create`) towards a node a `create` is about to
    /// build: mint the replica's id, then hand the state over by move or
    /// encode it into the [`Migration`] the caller puts on the wire.
    /// Returns the CPU cost and that migration (`None` when the replica
    /// was moved and is already queued here).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        parent: MessengerId,
        mut state: MessengerState,
        to: (DaemonId, NodeRef),
        via: Option<LinkInstance>,
        create: bool,
        code_bytes: u64,
        fx: &mut Vec<Effect>,
    ) -> (u64, Option<Migration>) {
        let c = self.cfg.costs;
        state.id = self.alloc_mid();
        let (id, vtime) = (state.id, state.vtime);
        if let Some(tw) = self.tw.as_mut() {
            tw.sent(id.0, to.0 .0, vtime);
        }
        // Same-process hop: hand the state over by move instead of
        // encode → wire → decode. Only when the destination is this
        // daemon, transport is direct (no reliable-delivery seq to
        // burn), and we are not under Time Warp or recovery —
        // the Mattern counters stay balanced because neither
        // on_send nor on_receive fires for a moved hop.
        let moved = self.cfg.local_move
            && !create
            && to.0 == self.id
            && self.xport.is_none()
            && !self.recovery
            && self.tw.is_none();
        let bytes = if moved { Bytes::new() } else { vmwire::encode_messenger(&state) };
        let wire_bytes = if moved { 0 } else { bytes.len() as u64 + code_bytes };
        let fixed = if create { c.create_node_ns + c.hop_send_ns } else { c.hop_send_ns };
        let cost = fixed + bytes.len() as u64 * c.per_byte_copy_ns;
        self.prof_fork(id.0, parent.0, cost, vtime.as_f64());
        self.rec
            .emit(vtime.as_f64(), EventKind::MsgrHop { mid: id.0, to: to.0 .0, bytes: wire_bytes });
        if moved {
            if self.nodes.contains_key(&to.1) {
                self.rec.emit(vtime.as_f64(), EventKind::MsgrArrive { mid: id.0 });
                self.enqueue(Runnable { state, at: to.1, last: via });
            } else {
                // Destination node vanished between match and move.
                self.bury(id, vtime, Death::DeadLetter, fx);
            }
            return (cost, None);
        }
        self.part.on_send(vtime);
        self.counters.bump(Metric::MigrationsOut);
        self.counters.add(Metric::MigrationBytes, wire_bytes);
        let epoch = self.part.stamp();
        (cost, Some(Migration { id, vtime, epoch, anti: false, to, via, bytes, code_bytes }))
    }

    fn do_hop(
        &mut self,
        run: Runnable,
        eh: &EvalHop,
        delete: bool,
        program: &Program,
        dir: &dyn Directory,
        fx: &mut Vec<Effect>,
    ) -> u64 {
        let (mid, vt, at) = (run.state.id, run.state.vtime, run.at);
        self.counters.bump(if delete { Metric::Deletes } else { Metric::Hops });

        if delete && self.tw.is_some() {
            let error = "optimistic mode requires a static logical network (delete)";
            self.bury(mid, vt, Death::Fault(error.to_string()), fx);
            return 0;
        }

        // Resolve destinations.
        let mut dests: Vec<(Option<LinkInstance>, DaemonId, NodeRef)> = Vec::new();
        if eh.ll == EvalLink::Virtual {
            // Invariant: only verified code runs, and the verifier refuses
            // a virtual hop spec whose `ln` is wild (V014).
            let name = eh.ln.as_ref().expect("verifier enforces ln on virtual hops");
            if let Some((d, n)) = dir.lookup(name) {
                dests.push((None, d, n));
            }
            self.counters.bump(Metric::VirtualHops);
        } else if let Some(node) = self.nodes.get(&at) {
            for l in node.matching_links(eh) {
                dests.push((Some(l.inst), l.peer.0, l.peer.1));
            }
        }

        // Delete: tear down traversed links. The local halves go now;
        // the far halves go by wire, queued AFTER the migrations so the
        // traveling messenger (FIFO per pair) reaches the peer node
        // before any singleton collection can remove it.
        let mut deferred_unlinks: Vec<Effect> = Vec::new();
        if delete {
            for (inst, daemon, peer) in dests.iter().filter_map(|(i, d, n)| i.map(|i| (i, *d, *n)))
            {
                if let Some(node) = self.nodes.get_mut(&at) {
                    node.unlink(inst);
                }
                deferred_unlinks
                    .push(Effect::Send { dst: daemon, wire: Wire::Unlink { node: peer, inst } });
            }
            // The current node may have become an empty singleton.
            let now_singleton = self.nodes.get(&at).is_some_and(|n| n.is_singleton());
            if now_singleton && at != self.init && !self.node_occupied(at) {
                self.delete_node(at, fx);
            }
        }

        let Some(last) = dests.len().checked_sub(1) else {
            fx.append(&mut deferred_unlinks);
            // Replicate to zero destinations: the messenger ceases to
            // exist (§2.1 hop semantics).
            self.bury(mid, vt, Death::NoMatch(Metric::HopNoMatch), fx);
            return 0;
        };

        // A single-destination hop hands its own credit on: only
        // replicas need more.
        if last > 0 {
            fx.push(Effect::LiveDelta(last as i64));
            self.rec.emit(
                vt.as_f64(),
                EventKind::MsgrFork { mid: mid.0, replicas: dests.len() as u64 },
            );
        }
        let code_bytes = if self.cfg.carry_code { program.wire_bytes() } else { 0 };
        let mut cost = 0u64;
        let mut state = Some(run.state);
        for (i, (via, daemon, node)) in dests.into_iter().enumerate() {
            // The last destination takes the state itself: a
            // single-destination hop copies nothing.
            let replica = if i == last { state.take() } else { state.clone() };
            let replica = replica.expect("only the last destination takes the state");
            let (ns, migration) =
                self.dispatch(mid, replica, (daemon, node), via, false, code_bytes, fx);
            cost += ns;
            if let Some(m) = migration {
                fx.push(Effect::Send { dst: daemon, wire: Wire::Migrate(m) });
            }
        }
        fx.extend(deferred_unlinks);
        // The hopping messenger itself is gone from this daemon: its
        // local ledger is complete.
        self.prof_retire(mid.0, vt.as_f64());
        cost
    }

    fn do_create(
        &mut self,
        run: Runnable,
        ec: &EvalCreate,
        program: &Program,
        fx: &mut Vec<Effect>,
    ) -> u64 {
        let (mid, vt, at) = (run.state.id, run.state.vtime, run.at);
        self.counters.bump(Metric::Creates);
        let Some(origin_name) = self.nodes.get(&at).map(|n| n.name.clone()) else {
            self.bury(mid, vt, Death::DeadLetter, fx);
            return 0;
        };

        let mut targets: Vec<(&EvalCreateItem, DaemonId)> = Vec::new();
        for item in &ec.items {
            let matches = self.topo.matches(self.id, &item.dn, &item.dl, item.ddir);
            if ec.all {
                targets.extend(matches.into_iter().map(|d| (item, d)));
            } else if !matches.is_empty() {
                // Deterministic round-robin among the matching daemons
                // (the paper defers the selection rule to [FBDM98]).
                targets.push((item, matches[self.rr % matches.len()]));
                self.rr += 1;
            }
        }
        let Some(last) = targets.len().checked_sub(1) else {
            self.bury(mid, vt, Death::NoMatch(Metric::CreateNoMatch), fx);
            return 0;
        };

        // Credit for the replicas before the frames that spend it, as in
        // `do_hop`: a replica may die on its peer before this batch of
        // effects is applied through, and the live count must not touch
        // zero in between.
        if last > 0 {
            fx.push(Effect::LiveDelta(last as i64));
        }
        let code_bytes = if self.cfg.carry_code { program.wire_bytes() } else { 0 };
        let mut cost = 0u64;
        let mut state = Some(run.state);
        for (i, (item, daemon)) in targets.into_iter().enumerate() {
            let gid = self.alloc_node();
            let inst = self.alloc_link();
            let node_name = item.ln.clone().unwrap_or(Value::Null);
            let link_name = item.ll.clone().unwrap_or(Value::Null);
            // Orientation at the origin: `+` points origin → new.
            let orient_origin = match item.ldir {
                Dir::Forward => Orient::Out,
                Dir::Backward => Orient::In,
                Dir::Any => Orient::Undirected,
            };
            if let Some(n) = self.nodes.get_mut(&at) {
                n.links.push(LinkRec {
                    inst,
                    name: link_name.clone(),
                    orient: orient_origin,
                    peer: (daemon, gid),
                    peer_name: node_name.clone(),
                });
            }
            let replica = if i == last { state.take() } else { state.clone() };
            let replica = replica.expect("only the last destination takes the state");
            let (ns, migration) =
                self.dispatch(mid, replica, (daemon, gid), Some(inst), true, code_bytes, fx);
            cost += ns;
            fx.push(Effect::Send {
                dst: daemon,
                wire: Wire::Create(Box::new(CreateNode {
                    gid,
                    name: node_name,
                    origin: (self.id, at),
                    origin_name: origin_name.clone(),
                    inst,
                    link_name,
                    orient_at_new: orient_origin.reversed(),
                    messenger: migration.expect("a create is never moved"),
                })),
            });
        }
        if last > 0 {
            self.rec
                .emit(vt.as_f64(), EventKind::MsgrFork { mid: mid.0, replicas: last as u64 + 1 });
        }
        self.prof_retire(mid.0, vt.as_f64());
        cost
    }
}

/// `stats` with `counters` added in: the [`Stats`] the daemon would hold
/// had every counter gone through it by key.
pub(crate) fn with_counters(stats: &Stats, counters: &Counters) -> Stats {
    let mut out = stats.clone();
    for (m, n) in counters.touched() {
        out.add(m, n);
    }
    out
}

/// The VM environment for one execution segment: the current node's
/// variables plus cost metering. Also the [`NativeCtx`] handed to native
/// functions.
struct SegEnv<'a> {
    vars: &'a mut NodeVars,
    /// Read-locked on a native call only.
    natives: &'a RwLock<NativeRegistry>,
    address: u16,
    node_name: &'a Value,
    last: Option<LinkInstance>,
    mid: MessengerId,
    vtime: Vt,
    ops: u64,
    native_ns: u64,
    /// PC sampling interval in executed ops (0 = sampling off).
    sample_every: u64,
    /// Sample hits for this segment, keyed `(func, pc)` — folded to
    /// source lines and emitted as `pc_sample` events after the segment.
    samples: BTreeMap<(u32, u32), u64>,
}

impl interp::Env for SegEnv<'_> {
    fn node_var(&mut self, name: &str) -> Value {
        self.vars.get(name).cloned().unwrap_or(Value::Null)
    }
    fn set_node_var(&mut self, name: &str, v: Value) {
        write_var(self.vars, name, v);
    }
    fn net_var(&mut self, var: NetVar) -> Value {
        match var {
            NetVar::Address => Value::Int(self.address as i64),
            NetVar::Last => self.last.map(Value::Link).unwrap_or(Value::Null),
            NetVar::Node => self.node_name.clone(),
            NetVar::Time => Value::Float(self.vtime.as_f64()),
        }
    }
    fn call_native(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError> {
        // Natives are registered through `&mut` cluster methods before
        // the run, so nothing waits to write during a segment.
        let natives = self.natives.read().expect("native registry lock poisoned");
        natives.call(self, name, args)
    }
    fn charge_ops(&mut self, ops: u64) {
        self.ops += ops;
    }
    fn sample_interval(&self) -> u64 {
        self.sample_every
    }
    fn pc_sample(&mut self, func: u32, pc: u32, count: u64) {
        *self.samples.entry((func, pc)).or_insert(0) += count;
    }
}

impl NativeCtx for SegEnv<'_> {
    fn node_var(&mut self, name: &str) -> Value {
        self.vars.get(name).cloned().unwrap_or(Value::Null)
    }
    fn set_node_var(&mut self, name: &str, v: Value) {
        write_var(self.vars, name, v);
    }
    fn charge(&mut self, ref_ns: u64) {
        self.native_ns += ref_ns;
    }
    fn daemon(&self) -> u16 {
        self.address
    }
    fn node_name(&self) -> Value {
        self.node_name.clone()
    }
    fn messenger(&self) -> MessengerId {
        self.mid
    }
    fn vtime(&self) -> Vt {
        self.vtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgr_trace::MetricKind;

    #[test]
    fn indexed_counters_report_as_keyed_stats_would() {
        // The same adds, zeros included, through the array and by key.
        let counters: Vec<Metric> =
            Metric::ALL.iter().copied().filter(|m| m.kind() == MetricKind::Counter).collect();
        let mut rng = DetRng::new(28);
        let (mut indexed, mut keyed) = (Counters::default(), Stats::new());
        let mut base = Stats::new();
        base.gauge_set(Metric::GvtNs, 7);
        base.record(Metric::XportDeliveryNs, 300);
        keyed.merge(&base);
        for _ in 0..400 {
            let m = counters[rng.below(counters.len() as u64) as usize];
            let n = rng.below(3);
            indexed.add(m, n);
            keyed.add(m, n);
        }
        let got = with_counters(&base, &indexed);
        assert!(got.counters().any(|(_, n)| n == 0), "the run must touch a counter with 0");
        assert_eq!(got.counters().collect::<Vec<_>>(), keyed.counters().collect::<Vec<_>>());
        assert_eq!(got.gauges().collect::<Vec<_>>(), keyed.gauges().collect::<Vec<_>>());
        let hist = |s: &Stats| s.histograms().map(|(k, h)| (k, h.clone())).collect::<Vec<_>>();
        assert_eq!(hist(&got), hist(&keyed));
    }
}
