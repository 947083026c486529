//! Runtime side of the cost-attribution profiler: per-messenger phase
//! ledgers and the daemon-local bookkeeping behind them.
//!
//! The paper's cost model says a messenger's end-to-end time decomposes
//! into interpretation, navigation, and transport terms. This module
//! *measures* that decomposition: while profiling is enabled
//! ([`crate::ClusterConfig::profile`]), every resident messenger owns a
//! [`Ledger`] that the daemon charges as the messenger moves through its
//! lifecycle — waiting in the ready queue, verified on receive, executing
//! in the VM, being encoded for a hop, in flight on the wire, parked on
//! virtual time, or stalled behind a crash recovery. At the messenger's terminal
//! local disposition (retire, fault, or hop away) the ledger is emitted
//! as one `phase_ledger` trace event; partial sender-side ledgers tie
//! outgoing replicas back to their parent so the post-hoc analysis in
//! `msgr-prof` can stitch cross-daemon critical paths.
//!
//! Everything here is bookkeeping only: the profiler charges **nothing**
//! to the simulation cost model, so simulated results (and, with
//! profiling off, traces) are bit-identical whether it runs or not.
//!
//! Clock domains: on the `sim` platform phases are measured in simulated
//! nanoseconds (the flight-recorder `rt` clock); on `threads`, where
//! `rt` is pinned to 0 for trace determinism, the profiler keeps its own
//! monotonic epoch ([`Prof::start_wallclock`]) — ledgers are then real
//! wall-clock and not run-to-run reproducible, exactly like any native
//! profiler.

use std::collections::HashMap;
use std::time::Instant;

/// One messenger's accumulated phase times, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// The messenger id at arrival/injection (parks re-identify the
    /// continuation; this keeps the inbound transport join key).
    pub born: u64,
    /// When the messenger last joined the ready queue (`None` while
    /// executing, parked, or in flight).
    pub enq: Option<u64>,
    /// When the messenger parked on virtual time (`None` otherwise).
    pub park_start: Option<u64>,
    /// Wait in the ready queue.
    pub queue: u64,
    /// Receive-time verification work.
    pub verify: u64,
    /// VM execution (bytecode + natives).
    pub exec: u64,
    /// Serialize/encode + decode for migration.
    pub enc: u64,
    /// Transport in-flight (sim only).
    pub xport: u64,
    /// Parked on virtual time.
    pub park: u64,
    /// Recovery stall behind a daemon death.
    pub stall: u64,
}

impl Ledger {
    /// A fresh ledger for a messenger first seen as `born`.
    pub fn new(born: u64) -> Self {
        Ledger { born, ..Ledger::default() }
    }

    /// Total locally-attributed time: the sum of every phase. Emitted
    /// explicitly so the fraction-sum invariant holds by construction.
    pub fn total(&self) -> u64 {
        self.queue + self.verify + self.exec + self.enc + self.xport + self.park + self.stall
    }
}

/// VM PC sampling interval, in executed bytecode ops per sample.
pub(crate) const PROFILE_INTERVAL: u64 = 4096;

/// Per-daemon profiler state. Lives on the daemon as
/// `Option<Box<Prof>>`; `None` means profiling is off and every hook is
/// a single branch.
#[derive(Debug, Default)]
pub struct Prof {
    /// Monotonic epoch for the threads platform; `None` on sim, where
    /// the flight-recorder `rt` clock is the time base.
    epoch: Option<Instant>,
    /// Live ledgers keyed by current messenger id.
    pub ledgers: HashMap<u64, Ledger>,
    /// Transport in-flight nanoseconds credited by the platform for
    /// messengers that have not arrived yet (keyed by wire mid).
    pub transport: HashMap<u64, u64>,
    /// Messenger ids revived by the most recent checkpoint restore;
    /// drained by [`Prof::charge_recovery_stall`].
    pub restored: Vec<u64>,
}

impl Prof {
    /// Switch the profiler onto real wall-clock time (threads platform,
    /// where the recorder's `rt` stays 0).
    pub fn start_wallclock(&mut self) {
        if self.epoch.is_none() {
            self.epoch = Some(Instant::now());
        }
    }

    /// Whether the profiler measures real wall-clock time (threads).
    pub fn wallclock(&self) -> bool {
        self.epoch.is_some()
    }

    /// The profiler's clock: `rt` (simulated ns) on sim, elapsed
    /// monotonic ns on threads.
    pub fn now(&self, rt: u64) -> u64 {
        match &self.epoch {
            Some(e) => e.elapsed().as_nanos() as u64,
            None => rt,
        }
    }

    /// The ledger for `mid`, created on first touch.
    pub fn ledger(&mut self, mid: u64) -> &mut Ledger {
        self.ledgers.entry(mid).or_insert_with(|| Ledger::new(mid))
    }

    /// A messenger joined the ready queue at `now`: close any open
    /// park window, open the queue window, and absorb transport credit
    /// the platform recorded for its in-flight leg.
    pub fn on_enqueue(&mut self, mid: u64, now: u64) {
        let credit = self.transport.remove(&mid).unwrap_or(0);
        let l = self.ledger(mid);
        if let Some(p) = l.park_start.take() {
            l.park += now.saturating_sub(p);
        }
        l.xport += credit;
        l.enq = Some(now);
    }

    /// A messenger parked on virtual time at `now` (it is *not* in the
    /// ready queue; GVT will revive it).
    pub fn on_park(&mut self, mid: u64, now: u64) {
        let credit = self.transport.remove(&mid).unwrap_or(0);
        let l = self.ledger(mid);
        l.xport += credit;
        l.park_start = Some(now);
    }

    /// A messenger was popped from the ready queue at `now`: close
    /// the queue window.
    pub fn on_dequeue(&mut self, mid: u64, now: u64) {
        let l = self.ledger(mid);
        if let Some(e) = l.enq.take() {
            l.queue += now.saturating_sub(e);
        }
    }

    /// A park re-identified the continuation: move the ledger from the
    /// dying id to the fresh one so one ledger covers the whole local
    /// stay (keeping `born` as the arrival join key).
    pub fn transfer(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        if let Some(l) = self.ledgers.remove(&old) {
            self.ledgers.insert(new, l);
        }
    }

    /// Take the finished ledger for `mid` (terminal disposition).
    pub fn take(&mut self, mid: u64) -> Option<Ledger> {
        self.ledgers.remove(&mid)
    }

    /// Credit `ns` of in-flight transport time to `mid`, to be absorbed
    /// into its ledger when it is enqueued on arrival.
    pub fn credit_transport(&mut self, mid: u64, ns: u64) {
        *self.transport.entry(mid).or_insert(0) += ns;
    }

    /// Attribute `ns` of recovery stall to every messenger the last
    /// restore revived, and clear the revival list.
    pub fn charge_recovery_stall(&mut self, ns: u64) {
        for mid in std::mem::take(&mut self.restored) {
            self.ledger(mid).stall += ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_total_is_the_phase_sum() {
        let mut l = Ledger::new(7);
        l.queue = 1;
        l.verify = 2;
        l.exec = 3;
        l.enc = 4;
        l.xport = 5;
        l.park = 6;
        l.stall = 7;
        assert_eq!(l.total(), 28);
    }

    #[test]
    fn queue_and_park_windows_close_in_order() {
        let mut p = Prof::default();
        p.credit_transport(9, 250);
        p.on_enqueue(9, 1_000);
        p.on_dequeue(9, 1_400);
        let l = &p.ledgers[&9];
        assert_eq!(l.queue, 400);
        assert_eq!(l.xport, 250);
        assert_eq!(l.born, 9);
        // Park under a fresh id; the ledger follows the continuation.
        p.transfer(9, 12);
        p.on_park(12, 2_000);
        p.on_enqueue(12, 5_000);
        p.on_dequeue(12, 5_100);
        let l = p.take(12).expect("ledger moved");
        assert_eq!(l.park, 3_000);
        assert_eq!(l.queue, 500);
        assert_eq!(l.born, 9, "born survives the park re-identification");
        assert!(p.ledgers.is_empty());
    }

    #[test]
    fn recovery_stall_hits_only_revived_messengers() {
        let mut p = Prof::default();
        p.on_enqueue(1, 0);
        p.restored.push(1);
        p.on_enqueue(2, 0);
        p.charge_recovery_stall(7_000);
        assert_eq!(p.ledgers[&1].stall, 7_000);
        assert_eq!(p.ledgers[&2].stall, 0);
        assert!(p.restored.is_empty());
    }
}
