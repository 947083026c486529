//! The simulated PVM backend: [`Task`] state machines inside the
//! discrete-event cluster simulator.
//!
//! ## Cost model
//!
//! PVM 3.3's default message path is task → local pvmd → remote pvmd →
//! task: the payload is copied into the send buffer at pack time, copied
//! to the local daemon, forwarded over the network, copied to the
//! receiving task, and copied out at unpack time. With
//! [`PvmCostModel::direct_route`] (PvmRouteDirect) the pvmd copies
//! disappear. MESSENGERS, by contrast, serializes messenger variables
//! exactly once per side (§2.1) — this asymmetry is one of the paper's
//! central performance arguments.

use std::collections::VecDeque;

use msgr_sim::{Clock, Cpu, DetRng, Engine, FaultPlan, HostId, NetModel, SimTime, Stats};
use msgr_trace::Metric;

use crate::task::{Cmd, Roster, Wait};
use crate::{Buf, Message, PvmError, PvmNet, PvmReport, Status, Tag, Task, TaskCtx, TaskId};

/// CPU cost constants, in reference nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvmCostModel {
    /// Fixed send overhead (syscalls, headers).
    pub send_fixed_ns: u64,
    /// Fixed receive overhead.
    pub recv_fixed_ns: u64,
    /// memcpy cost per byte (same constant as the MESSENGERS model).
    pub per_byte_copy_ns: u64,
    /// Extra fixed cost per message at each pvmd when routing through
    /// the daemons.
    pub pvmd_fixed_ns: u64,
    /// Task spawn cost (fork/exec plus pvmd bookkeeping).
    pub spawn_ns: u64,
    /// XDR data conversion per byte (PvmDataDefault); 0 models
    /// PvmDataRaw on a homogeneous cluster, which is what the paper's
    /// SPARC-only LAN would use.
    pub xdr_per_byte_ns: u64,
    /// Per-message wire header bytes.
    pub wire_header_bytes: u64,
    /// pvmd-to-pvmd messages are fragmented at this size; each fragment
    /// is individually acknowledged (PVM 3.3's stop-and-wait daemon
    /// protocol over UDP), which throttles large messages on a shared
    /// medium.
    pub frag_bytes: u64,
    /// If a fragment's acknowledgement takes longer than this (medium
    /// congestion, collision backoff), the pvmd declares it lost and
    /// retransmits after `retrans_ns` — PVM 3.3's UDP retry timer. Set
    /// to 0 to disable the timeout model.
    pub ack_timeout_ns: u64,
    /// Retransmission timer penalty on a presumed-lost fragment.
    pub retrans_ns: u64,
    /// pvmd-to-pvmd sliding window: fragments per acknowledgement.
    pub window_frags: u64,
    /// Minimum number of hosts before ACK timeouts fire: UDP loss on
    /// shared Ethernet is a collision phenomenon, and collision
    /// probability grows with the number of contending stations. Small
    /// virtual machines (the 4–9 host matmul runs) resolve contention
    /// without loss.
    pub collision_hosts: usize,
    /// Route tasks' messages directly (PvmRouteDirect) instead of via
    /// the pvmds.
    pub direct_route: bool,
}

impl Default for PvmCostModel {
    fn default() -> Self {
        PvmCostModel {
            send_fixed_ns: 100_000,
            recv_fixed_ns: 80_000,
            per_byte_copy_ns: 25,
            pvmd_fixed_ns: 60_000,
            spawn_ns: 30_000_000, // ~30 ms fork+exec, paid once per worker
            xdr_per_byte_ns: 0,
            wire_header_bytes: 64,
            frag_bytes: 1500,
            ack_timeout_ns: 30_000_000, // 30 ms before a window is presumed lost
            retrans_ns: 250_000_000,    // 250 ms pvmd retry timer
            window_frags: 8,
            collision_hosts: 12,
            direct_route: false,
        }
    }
}

/// Configuration of a simulated PVM virtual machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PvmSimConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// Network model.
    pub net: PvmNet,
    /// CPU speed relative to the 110 MHz reference.
    pub cpu_speed: f64,
    /// Cost constants.
    pub costs: PvmCostModel,
    /// Event budget before declaring a stall.
    pub max_events: u64,
    /// Injected network faults, for apples-to-apples comparison with the
    /// MESSENGERS cluster under the same plan. PVM's transports are
    /// already reliable (TCP for direct routes, the pvmds' stop-and-wait
    /// retry protocol over UDP), so loss never corrupts a run — it only
    /// stretches it: every lost transmission costs a retry-timer wait
    /// plus a full resend on the critical path. Duplication and
    /// reordering are masked by those same layers at negligible cost and
    /// draw no randomness here. Crash events are **not** supported: PVM
    /// 3.3 has no recovery story for a dead pvmd (the virtual machine
    /// collapses), and modeling that would just abort the run — see
    /// DESIGN.md's fault-model section for the asymmetry with
    /// MESSENGERS, which re-injects messengers after a daemon restart.
    pub faults: FaultPlan,
    /// Seed for the fault-injection RNG. Unused (no draws at all) when
    /// `faults` is [`FaultPlan::none`], so fault-free runs are
    /// bit-identical to a build without this field.
    pub seed: u64,
}

impl PvmSimConfig {
    /// Paper-era defaults for `hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`.
    pub fn new(hosts: usize) -> Self {
        assert!(hosts > 0, "need at least one host");
        PvmSimConfig {
            hosts,
            net: PvmNet::Ethernet100,
            cpu_speed: 1.0,
            costs: PvmCostModel::default(),
            max_events: 200_000_000,
            faults: FaultPlan::none(),
            seed: 0x5EED,
        }
    }
}

struct Slot {
    task: Option<Box<dyn Task>>,
    host: usize,
    wait: Wait,
    mailbox: VecDeque<Message>,
}

struct World {
    cfg: PvmSimConfig,
    slots: Vec<Slot>,
    cpus: Vec<Cpu>,
    net: Box<dyn NetModel>,
    roster: Roster,
    barriers: std::collections::HashMap<String, (usize, Vec<TaskId>)>,
    stats: Stats,
    /// `Some` only when `cfg.faults` has a nonzero loss rate; fault-free
    /// runs never draw from it, keeping their event streams untouched.
    rng: Option<DetRng>,
}

impl World {
    /// Draw once: was this transmission lost? `false` without a fault
    /// plan (no RNG consumption).
    fn frame_lost(&mut self) -> bool {
        match &mut self.rng {
            Some(rng) => {
                let p = self.cfg.faults.drop_p;
                rng.chance(p)
            }
            None => false,
        }
    }
}

type En = Engine<World>;

/// A simulated PVM virtual machine.
pub struct PvmSim {
    engine: En,
    world: World,
}

impl std::fmt::Debug for PvmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PvmSim").field("tasks", &self.world.slots.len()).finish()
    }
}

impl PvmSim {
    /// A fresh virtual machine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.faults` is invalid or contains crash events (PVM
    /// has no crash-recovery model; see [`PvmSimConfig::faults`]).
    pub fn new(cfg: PvmSimConfig) -> Self {
        cfg.faults.assert_valid();
        assert!(
            cfg.faults.crashes.is_empty(),
            "PVM 3.3 cannot survive a pvmd crash; crash events are only \
             meaningful on the MESSENGERS cluster"
        );
        let net = cfg.net.build(cfg.hosts);
        let cpus = (0..cfg.hosts).map(|_| Cpu::new(cfg.cpu_speed)).collect();
        let rng = (cfg.faults.drop_p > 0.0).then(|| DetRng::new(cfg.seed).fork(0xFA17));
        PvmSim {
            engine: Engine::new(),
            world: World {
                rng,
                cfg,
                slots: Vec::new(),
                cpus,
                net,
                roster: Roster::default(),
                barriers: std::collections::HashMap::new(),
                stats: Stats::new(),
            },
        }
    }

    /// Install the root task on host 0 (it starts when `run` is called).
    pub fn root(&mut self, task: Box<dyn Task>) -> TaskId {
        let tid = self.world.roster.next_tid();
        self.world.slots.push(Slot {
            task: Some(task),
            host: 0,
            wait: Wait::Running,
            mailbox: VecDeque::new(),
        });
        self.engine.schedule_at(0, move |en, w| resume_task(en, w, tid, None));
        tid
    }

    /// Run the virtual machine until every task exits.
    ///
    /// # Errors
    ///
    /// [`PvmError::Deadlock`] or [`PvmError::Stalled`].
    pub fn run(&mut self) -> Result<PvmReport, PvmError> {
        let budget = self.world.cfg.max_events;
        if !self.engine.run_bounded(&mut self.world, budget) {
            return Err(PvmError::Stalled { events: self.engine.processed() });
        }
        let waiting: Vec<TaskId> = self
            .world
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.wait.blocked())
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        if !waiting.is_empty() {
            return Err(PvmError::Deadlock { waiting });
        }
        let mut stats = self.world.stats.clone();
        let net = self.world.net.stats();
        stats.add(Metric::NetMessages, net.messages);
        stats.add(Metric::NetPayloadBytes, net.payload_bytes);
        stats.add(Metric::NetQueueingNs, net.queueing_ns);
        Ok(PvmReport {
            seconds: msgr_sim::to_secs(self.engine.now()),
            clock: Clock::Simulated,
            events: self.engine.processed(),
            stats,
        })
    }
}

fn frags(c: &PvmCostModel, bytes: u64) -> u64 {
    bytes.div_ceil(c.frag_bytes.max(1)).max(1)
}

fn send_cost(c: &PvmCostModel, bytes: u64) -> u64 {
    // pack copy + (pvmd route: task→pvmd copy + per-fragment pvmd
    // handling) + XDR.
    let copies = if c.direct_route { 1 } else { 2 };
    let fixed =
        c.send_fixed_ns + if c.direct_route { 0 } else { c.pvmd_fixed_ns * frags(c, bytes) };
    fixed + bytes * c.per_byte_copy_ns * copies + bytes * c.xdr_per_byte_ns
}

fn recv_cost(c: &PvmCostModel, bytes: u64) -> u64 {
    let copies = if c.direct_route { 1 } else { 2 };
    let fixed =
        c.recv_fixed_ns + if c.direct_route { 0 } else { c.pvmd_fixed_ns * frags(c, bytes) };
    fixed + bytes * c.per_byte_copy_ns * copies + bytes * c.xdr_per_byte_ns
}

fn resume_task(en: &mut En, w: &mut World, tid: TaskId, msg: Option<Message>) {
    let now = en.now();
    let i = tid.0 as usize;
    let host = w.slots[i].host;
    // Take the task out to avoid aliasing the world while it runs.
    let mut task = match w.slots[i].task.take() {
        Some(t) => t,
        None => return, // already exited
    };
    let mut ctx = TaskCtx::new(tid, host, w.cfg.hosts, &w.roster);
    let status = task.resume(&mut ctx, msg);
    let (charged, cmds) = ctx.finish();
    w.slots[i].task = Some(task);
    w.stats.bump(Metric::Segments);

    // Segment cost: compute plus marshalling for every send issued.
    let mut cost = charged;
    for cmd in &cmds {
        match cmd {
            Cmd::Send { buf, .. } => {
                cost += send_cost(&w.cfg.costs, buf.byte_len());
            }
            Cmd::Mcast { to, buf, .. } => {
                // One pack, then per-destination transmission overhead.
                cost += send_cost(&w.cfg.costs, buf.byte_len());
                cost += (to.len().saturating_sub(1)) as u64 * w.cfg.costs.send_fixed_ns;
            }
            Cmd::Spawn { .. } => {
                cost += w.cfg.costs.spawn_ns;
            }
        }
    }
    let (_, end) = w.cpus[host].run(now, cost);

    // Update state now; transmissions and deliveries happen at `end`.
    w.slots[i].wait = Wait::after(&status);
    if matches!(status, Status::Exit) {
        w.slots[i].task = None;
        w.stats.bump(Metric::Exited);
    }
    if let Status::Barrier { name, count } = &status {
        let name = name.clone();
        let count = *count;
        en.schedule_at(end, move |en, w| barrier_arrive(en, w, tid, name, count));
    }

    en.schedule_at(end, move |en, w| {
        for cmd in cmds {
            match cmd {
                Cmd::Send { to, tag, buf } => {
                    transmit(en, w, tid, to, tag, buf);
                }
                Cmd::Mcast { to, tag, buf } => {
                    for t in to {
                        transmit(en, w, tid, t, tag, buf.clone());
                    }
                }
                Cmd::Spawn { tid: new, host, task } => {
                    w.stats.bump(Metric::Spawns);
                    debug_assert_eq!(new.0 as usize, w.slots.len());
                    w.slots.push(Slot {
                        task: Some(task),
                        host,
                        wait: Wait::Running,
                        mailbox: VecDeque::new(),
                    });
                    // Startup announcement travels to the target host.
                    let src = w.slots[tid.0 as usize].host;
                    let arrival =
                        w.net.transfer(en.now(), HostId(src as u32), HostId(host as u32), 128);
                    en.schedule_at(arrival, move |en, w| resume_task(en, w, new, None));
                }
            }
        }
        // If a message was pending for us before we blocked, consume it.
        try_deliver_from_mailbox(en, w, tid);
    });
}

/// A task reached a barrier: its "here" message travels to the group
/// server (host 0); the last arrival releases everyone with a broadcast.
fn barrier_arrive(en: &mut En, w: &mut World, tid: TaskId, name: String, count: usize) {
    let host = w.slots[tid.0 as usize].host;
    // Arrival notification to the group server.
    let t = w.net.transfer(en.now(), HostId(host as u32), HostId(0), 64);
    en.schedule_at(t, move |en, w| {
        let entry = w.barriers.entry(name.clone()).or_insert_with(|| (count, Vec::new()));
        entry.1.push(tid);
        if entry.1.len() >= entry.0 {
            let waiters = std::mem::take(&mut entry.1);
            w.barriers.remove(&name);
            w.stats.bump(Metric::BarriersReleased);
            for waiter in waiters {
                let dst = w.slots[waiter.0 as usize].host;
                let arr = w.net.transfer(en.now(), HostId(0), HostId(dst as u32), 64);
                en.schedule_at(arr, move |en, w| {
                    if w.slots[waiter.0 as usize].wait == Wait::Barrier {
                        w.slots[waiter.0 as usize].wait = Wait::Running;
                        resume_task(en, w, waiter, None);
                    }
                });
            }
        }
    });
}

fn transmit(en: &mut En, w: &mut World, from: TaskId, to: TaskId, tag: Tag, mut buf: Buf) {
    let src = w.slots[from.0 as usize].host;
    let Some(slot) = w.slots.get(to.0 as usize) else {
        w.stats.bump(Metric::DeadLetters);
        return;
    };
    let dst = slot.host;
    let bytes = buf.byte_len() + w.cfg.costs.wire_header_bytes;
    w.stats.bump(Metric::Messages);
    w.stats.add(Metric::MessageBytes, bytes);
    let (src_h, dst_h) = (HostId(src as u32), HostId(dst as u32));
    let arrival = if w.cfg.costs.direct_route || src == dst {
        // Direct TCP route: the message streams as one transfer. Injected
        // loss (same-host traffic never touches the wire) surfaces as
        // TCP retransmission timeouts: the kernel redelivers after the
        // RTO, modeled with the same retry-timer constant as the pvmds.
        let mut t = w.net.transfer(en.now(), src_h, dst_h, bytes);
        while src != dst && w.frame_lost() {
            w.stats.bump(Metric::InjectedLosses);
            w.stats.bump(Metric::Retransmissions);
            t += w.cfg.costs.retrans_ns;
            t = w.net.transfer(t, src_h, dst_h, bytes);
        }
        t
    } else {
        // pvmd store-and-forward: fragments with per-fragment daemon
        // acknowledgements (PVM 3.3's stop-and-wait UDP protocol).
        let frag = w.cfg.costs.frag_bytes.max(1);
        let c = w.cfg.costs;
        let window = frag * c.window_frags.max(1);
        let send_window = |w: &mut World, mut t: SimTime, win: u64| -> SimTime {
            let mut left = win;
            while left > 0 {
                let chunk = left.min(frag);
                t = w.net.transfer(t, src_h, dst_h, chunk);
                left -= chunk;
                w.stats.bump(Metric::Fragments);
            }
            w.net.transfer(t, dst_h, src_h, 48) // pvmd window ACK
        };
        let mut t = en.now();
        let mut remaining = bytes;
        while remaining > 0 {
            // One sliding window of fragments, then a daemon-level ACK.
            let win = remaining.min(window);
            remaining -= win;
            let sent_at = t;
            t = send_window(w, t, win);
            if c.ack_timeout_ns > 0
                && w.cfg.hosts >= c.collision_hosts
                && t - sent_at > c.ack_timeout_ns
            {
                // The ACK outlived the daemon's timer: the window is
                // presumed lost and retransmitted after the retry timer
                // (PVM 3.3's UDP reliability layer). Congestion thus
                // compounds — the paper-era failure mode of PVM on a
                // saturated shared Ethernet.
                w.stats.bump(Metric::Retransmissions);
                t += c.retrans_ns;
                t = send_window(w, t, win);
            }
            // Injected loss (FaultPlan): the pvmd protocol is
            // stop-and-wait per window, so a lost window stalls the
            // whole message behind the 250 ms retry timer and a full
            // resend. This serialized recovery — versus the MESSENGERS
            // transport's 10 ms-scale selective retransmit — is why
            // loss hits PVM's completion times so much harder in
            // `ablation_faults`.
            while w.frame_lost() {
                w.stats.bump(Metric::InjectedLosses);
                w.stats.bump(Metric::Retransmissions);
                t += c.retrans_ns;
                t = send_window(w, t, win);
            }
        }
        t
    };
    buf.rewind();
    let msg = Message { from, tag, buf };
    en.schedule_at(arrival, move |en, w| deliver(en, w, to, msg));
}

fn deliver(en: &mut En, w: &mut World, to: TaskId, msg: Message) {
    let i = to.0 as usize;
    // Receive-side costs are charged when the task actually consumes the
    // message (PVM copies on pvm_recv).
    w.slots[i].mailbox.push_back(msg);
    try_deliver_from_mailbox(en, w, to);
}

fn try_deliver_from_mailbox(en: &mut En, w: &mut World, to: TaskId) {
    let i = to.0 as usize;
    let Wait::Recv(sel) = w.slots[i].wait else {
        return;
    };
    let Some(pos) = w.slots[i].mailbox.iter().position(|m| sel.matches(m)) else {
        return;
    };
    let msg = w.slots[i].mailbox.remove(pos).expect("position valid");
    let host = w.slots[i].host;
    let cost = recv_cost(&w.cfg.costs, msg.buf.byte_len());
    let now = en.now();
    let (_, end) = w.cpus[host].run(now, cost);
    // Mark as running so a racing delivery doesn't double-resume.
    w.slots[i].wait = Wait::Running;
    en.schedule_at(end, move |en, w| resume_task(en, w, to, Some(msg)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Pinger;

    #[test]
    fn pvmd_route_costs_more_than_direct() {
        fn run(direct: bool) -> f64 {
            let mut cfg = PvmSimConfig::new(2);
            cfg.costs.direct_route = direct;
            let mut vm = PvmSim::new(cfg);
            vm.root(Box::new(Pinger::new(20)));
            vm.run().unwrap().seconds
        }
        let routed = run(false);
        let direct = run(true);
        assert!(routed > direct, "routed={routed} direct={direct}");
    }

    #[test]
    fn injected_loss_slows_but_never_corrupts() {
        let run = |drop_p: f64| {
            let mut cfg = PvmSimConfig::new(2);
            cfg.faults = FaultPlan { drop_p, ..FaultPlan::none() };
            let mut vm = PvmSim::new(cfg);
            // Pinger asserts every reply arrives intact and in order.
            vm.root(Box::new(Pinger::remote(20)));
            vm.run().unwrap()
        };
        let clean = run(0.0);
        let lossy = run(0.3);
        assert_eq!(clean.stats.counter("injected_losses"), 0);
        assert!(lossy.stats.counter("injected_losses") > 0);
        assert!(
            lossy.seconds > clean.seconds,
            "loss must stretch the run: {} vs {}",
            lossy.seconds,
            clean.seconds
        );
    }

    #[test]
    fn injected_loss_is_deterministic() {
        let run = || {
            let mut cfg = PvmSimConfig::new(3);
            cfg.faults = FaultPlan::lossy(0.25);
            cfg.seed = 42;
            let mut vm = PvmSim::new(cfg);
            vm.root(Box::new(Pinger::remote(30)));
            vm.run().unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats.counter("injected_losses"), b.stats.counter("injected_losses"));
    }

    #[test]
    fn loss_hits_the_direct_route_too() {
        let mut cfg = PvmSimConfig::new(2);
        cfg.costs.direct_route = true;
        cfg.faults = FaultPlan::lossy(0.3);
        let mut vm = PvmSim::new(cfg);
        vm.root(Box::new(Pinger::remote(20)));
        let report = vm.run().unwrap();
        assert!(report.stats.counter("injected_losses") > 0);
    }

    #[test]
    #[should_panic(expected = "pvmd crash")]
    fn crash_plans_are_rejected() {
        let mut cfg = PvmSimConfig::new(2);
        cfg.faults.crashes.push(msgr_sim::CrashEvent::transient(0, 0, msgr_sim::MILLI));
        let _ = PvmSim::new(cfg);
    }
}
