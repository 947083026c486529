//! The distributed GVT estimation protocol.
//!
//! A coordinator (daemon 0 in practice) periodically runs *rounds*. The
//! design follows Mattern's two-cut / message-counting family:
//!
//! 1. **Epochs.** Every daemon is in an epoch `e` (Mattern's "color");
//!    every messenger migration is stamped with its sender's epoch.
//! 2. **Cut.** The coordinator broadcasts [`CtrlMsg::Cut`] with round
//!    `r`, moving each daemon into epoch `r`. The daemon freezes its
//!    previous-epoch send count and replies with a [`CtrlMsg::CutAck`]
//!    carrying its local minimum (ready + suspended messengers) and the
//!    frozen counters.
//! 3. **Drain.** Messages stamped with the *previous* epoch may still be
//!    in flight. The coordinator compares Σsent against Σreceived and
//!    re-polls ([`CtrlMsg::Poll`]) until the previous epoch has fully
//!    drained. A previous-epoch message that arrives after its receiver's
//!    cut reports its timestamp into a `late_min` accumulator.
//! 4. **Advance.** `GVT = max(old, min(cut minima, late minima,
//!    current-epoch send minima))`. The last term makes the estimate
//!    safe even under optimistic execution, where a daemon may send
//!    low-timestamped messengers after its cut. The `max` keeps the
//!    published GVT monotone. The coordinator broadcasts
//!    [`CtrlMsg::Advance`].
//!
//! The estimate never exceeds the true GVT (safety: every in-flight
//! messenger is accounted by its sender's counters until its receiver
//! has integrated it) and advances once the system quiesces at the next
//! wake time (liveness), which is what the conservative scheduler needs.

use msgr_vm::Vt;

/// Control messages exchanged between the coordinator and participants.
/// The embedding (core) routes them over the same channels as ordinary
/// migrations, so their cost is visible in the benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Coordinator → all: start round `round`.
    Cut {
        /// Round number (equals the new epoch).
        round: u64,
    },
    /// Participant → coordinator: cut acknowledgement.
    CutAck {
        /// Round being acknowledged.
        round: u64,
        /// Sender daemon.
        daemon: u16,
        /// Local minimum over ready and suspended messengers at the cut.
        lmin: Vt,
        /// Frozen count of messages sent in the previous epoch.
        prev_sent: u64,
        /// Count of previous-epoch messages received so far.
        prev_recv: u64,
        /// Minimum timestamp among late previous-epoch arrivals.
        late_min: Vt,
        /// Minimum timestamp sent in the *current* epoch so far.
        cur_sent_min: Vt,
    },
    /// Coordinator → all: the previous epoch has not drained; report
    /// updated counters.
    Poll {
        /// Round being polled.
        round: u64,
    },
    /// Participant → coordinator: poll reply (same payload as `CutAck`
    /// minus the frozen send count, which cannot change).
    PollAck {
        /// Round being acknowledged.
        round: u64,
        /// Sender daemon.
        daemon: u16,
        /// Updated local minimum.
        lmin: Vt,
        /// Updated count of previous-epoch messages received.
        prev_recv: u64,
        /// Updated late minimum.
        late_min: Vt,
        /// Updated current-epoch send minimum.
        cur_sent_min: Vt,
    },
    /// Coordinator → all: a new GVT estimate.
    Advance {
        /// The new global virtual time (monotone).
        gvt: Vt,
    },
}

impl CtrlMsg {
    /// Approximate wire size in bytes, for network-cost accounting.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            CtrlMsg::Cut { .. } | CtrlMsg::Poll { .. } | CtrlMsg::Advance { .. } => 16,
            CtrlMsg::CutAck { .. } => 56,
            CtrlMsg::PollAck { .. } => 48,
        }
    }
}

/// Per-daemon protocol state.
#[derive(Debug, Clone)]
pub struct Participant {
    daemon: u16,
    epoch: u64,
    /// Messages sent in the current epoch.
    cur_sent: u64,
    /// Minimum timestamp sent in the current epoch.
    cur_sent_min: Vt,
    /// Messages sent in the previous epoch (frozen at the cut).
    prev_sent: u64,
    /// Previous-epoch messages received.
    prev_recv: u64,
    /// Current-epoch messages received.
    cur_recv: u64,
    /// Messages received that were stamped with the *next* epoch — the
    /// sender processed the cut before we did. They must be counted
    /// toward the next epoch or the coordinator's Σsent/Σrecv can never
    /// reconcile.
    next_recv: u64,
    /// Min timestamp among previous-epoch messages that arrived after
    /// this daemon's cut.
    late_min: Vt,
    /// The last GVT value this daemon learned.
    gvt: Vt,
}

impl Participant {
    /// A fresh participant for `daemon`, in epoch 0 with GVT 0.
    pub fn new(daemon: u16) -> Self {
        Participant {
            daemon,
            epoch: 0,
            cur_sent: 0,
            cur_sent_min: Vt::INFINITY,
            prev_sent: 0,
            prev_recv: 0,
            cur_recv: 0,
            next_recv: 0,
            late_min: Vt::INFINITY,
            gvt: Vt::ZERO,
        }
    }

    /// The epoch stamp for an outgoing migration.
    pub fn stamp(&self) -> u64 {
        self.epoch
    }

    /// The last GVT this daemon learned.
    pub fn gvt(&self) -> Vt {
        self.gvt
    }

    /// Record an outgoing timestamped migration.
    pub fn on_send(&mut self, ts: Vt) {
        self.cur_sent += 1;
        self.cur_sent_min = self.cur_sent_min.min(ts);
    }

    /// Record an incoming migration carrying the sender's epoch `stamp`.
    /// Receive counts are bucketed by the *stamp's* epoch so that the
    /// coordinator's Σsent/Σrecv per epoch reconcile exactly.
    pub fn on_receive(&mut self, stamp: u64, ts: Vt) {
        use std::cmp::Ordering;
        match stamp.cmp(&self.epoch) {
            Ordering::Equal => self.cur_recv += 1,
            Ordering::Greater => self.next_recv += 1, // sender cut first
            Ordering::Less => {
                // A message from the previous epoch crossing the cut.
                self.prev_recv += 1;
                self.late_min = self.late_min.min(ts);
            }
        }
    }

    /// Handle a [`CtrlMsg::Cut`]; returns the acknowledgement to send
    /// back. `local_min` is the daemon's minimum over ready and
    /// suspended messengers at this instant.
    pub fn on_cut(&mut self, round: u64, local_min: Vt) -> CtrlMsg {
        if round > self.epoch {
            // Move epochs: current becomes previous; early arrivals for
            // the new epoch become current.
            self.epoch = round;
            self.prev_sent = self.cur_sent;
            self.prev_recv = self.cur_recv;
            self.cur_sent = 0;
            self.cur_recv = self.next_recv;
            self.next_recv = 0;
            self.late_min = Vt::INFINITY;
            self.cur_sent_min = Vt::INFINITY;
        }
        CtrlMsg::CutAck {
            round,
            daemon: self.daemon,
            lmin: local_min,
            prev_sent: self.prev_sent,
            prev_recv: self.prev_recv,
            late_min: self.late_min,
            cur_sent_min: self.cur_sent_min,
        }
    }

    /// Handle a [`CtrlMsg::Poll`].
    pub fn on_poll(&mut self, round: u64, local_min: Vt) -> CtrlMsg {
        CtrlMsg::PollAck {
            round,
            daemon: self.daemon,
            lmin: local_min,
            prev_recv: self.prev_recv,
            late_min: self.late_min,
            cur_sent_min: self.cur_sent_min,
        }
    }

    /// Handle a [`CtrlMsg::Advance`]. The estimate is a watermark, so it
    /// folds in monotonically: after a daemon failover, the successor
    /// replays the victim's adopted channel, which can legally redeliver
    /// an old `Advance` the victim had consumed after its last
    /// checkpoint — a stale (lower) value must never roll GVT back.
    pub fn on_advance(&mut self, gvt: Vt) {
        self.gvt = self.gvt.max(gvt);
    }
}

/// What the coordinator wants done after processing an acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorAction {
    /// Wait for more acknowledgements.
    Wait,
    /// Broadcast [`CtrlMsg::Poll`] (previous epoch not drained yet).
    PollAll {
        /// The round to poll.
        round: u64,
    },
    /// Round complete: broadcast [`CtrlMsg::Advance`] with this value.
    Advance {
        /// The new GVT.
        gvt: Vt,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Collecting,
}

/// Coordinator state (usually embedded in daemon 0 or the shell).
#[derive(Debug, Clone)]
pub struct Coordinator {
    n: usize,
    round: u64,
    phase: Phase,
    gvt: Vt,
    // Per-daemon latest report for the active round.
    reported: Vec<bool>,
    lmin: Vec<Vt>,
    prev_sent: Vec<u64>,
    prev_recv: Vec<u64>,
    late_min: Vec<Vt>,
    cur_sent_min: Vec<Vt>,
    // Membership: evicted (permanently dead) participants and the epoch
    // number that counts eviction events. Monotone — a dead daemon never
    // rejoins.
    dead: Vec<bool>,
    mem_epoch: u64,
    rounds_run: u64,
    polls_sent: u64,
}

impl Coordinator {
    /// A coordinator for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "coordinator needs at least one participant");
        Coordinator {
            n,
            round: 0,
            phase: Phase::Idle,
            gvt: Vt::ZERO,
            reported: vec![false; n],
            lmin: vec![Vt::INFINITY; n],
            prev_sent: vec![0; n],
            prev_recv: vec![0; n],
            late_min: vec![Vt::INFINITY; n],
            cur_sent_min: vec![Vt::INFINITY; n],
            dead: vec![false; n],
            mem_epoch: 0,
            rounds_run: 0,
            polls_sent: 0,
        }
    }

    /// The coordinator's current GVT estimate.
    pub fn gvt(&self) -> Vt {
        self.gvt
    }

    /// Number of completed rounds.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Number of poll broadcasts issued (drain retries).
    pub fn polls_sent(&self) -> u64 {
        self.polls_sent
    }

    /// Whether a round is in progress.
    pub fn busy(&self) -> bool {
        self.phase == Phase::Collecting
    }

    /// Membership epoch: the number of evictions applied so far.
    pub fn mem_epoch(&self) -> u64 {
        self.mem_epoch
    }

    /// Whether `daemon` has been evicted.
    pub fn is_dead(&self, daemon: u16) -> bool {
        self.dead.get(daemon as usize).copied().unwrap_or(false)
    }

    /// Number of surviving participants.
    pub fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Evict a permanently dead participant from the membership
    /// (monotone: re-evicting is a no-op returning `Wait`). Its pending
    /// report for the active round — which will never arrive — is
    /// replaced by `floor`, the minimum virtual time of the checkpoint
    /// its successor restored, so a round stalled on the victim resumes
    /// with the surviving set *and* GVT cannot advance past the
    /// resurrected messengers. `floor` matters only for the round in
    /// flight: any round begun after the eviction reaches the successor
    /// when it already hosts the restored state and reports it itself.
    /// The returned action must be acted on exactly as for
    /// [`Coordinator::on_ack`].
    ///
    /// After the first eviction the per-epoch Σsent/Σrecv drain check is
    /// disabled: frames addressed to a dead daemon are counted by their
    /// sender but can never be counted by a receiver, so the counts no
    /// longer reconcile. Safety then rests on the survivors' reported
    /// minima, which (under the recovery-mode transport) cover every
    /// unacknowledged in-flight frame and every checkpointed virtual
    /// time that a restore can resurrect.
    pub fn evict(&mut self, daemon: u16, floor: Vt) -> CoordinatorAction {
        let i = daemon as usize;
        if i >= self.n || self.dead[i] {
            return CoordinatorAction::Wait;
        }
        self.dead[i] = true;
        self.mem_epoch += 1;
        self.late_min[i] = Vt::INFINITY;
        self.cur_sent_min[i] = Vt::INFINITY;
        self.prev_sent[i] = 0;
        self.prev_recv[i] = 0;
        if self.phase == Phase::Collecting {
            // Even if the victim reported before dying, `floor` bounds
            // everything a restore can bring back, and its old report
            // bounds what it still hosted at the cut — keep the lower.
            self.lmin[i] = self.lmin[i].min(floor);
            self.reported[i] = true;
            self.evaluate()
        } else {
            self.lmin[i] = Vt::INFINITY;
            CoordinatorAction::Wait
        }
    }

    /// Start a new round; returns the `Cut` to broadcast, or `None` if a
    /// round is already active.
    pub fn begin_round(&mut self) -> Option<CtrlMsg> {
        if self.phase != Phase::Idle {
            return None;
        }
        self.round += 1;
        self.phase = Phase::Collecting;
        // Dead participants will never report; pre-mark them with
        // neutral values.
        self.reported = self.dead.clone();
        self.lmin = vec![Vt::INFINITY; self.n];
        self.late_min = vec![Vt::INFINITY; self.n];
        self.cur_sent_min = vec![Vt::INFINITY; self.n];
        for i in 0..self.n {
            if self.dead[i] {
                self.prev_sent[i] = 0;
                self.prev_recv[i] = 0;
            }
        }
        Some(CtrlMsg::Cut { round: self.round })
    }

    fn evaluate(&mut self) -> CoordinatorAction {
        if self.reported.iter().any(|r| !r) {
            return CoordinatorAction::Wait;
        }
        let sent: u64 = self.prev_sent.iter().sum();
        let recv: u64 = self.prev_recv.iter().sum();
        if sent != recv && self.mem_epoch == 0 {
            // Previous epoch not drained; ask everyone again. (Once a
            // member has died the counts cannot reconcile — see
            // [`Coordinator::evict`] — so the check is skipped.)
            debug_assert!(recv < sent, "received more than was sent");
            self.reported = vec![false; self.n];
            self.polls_sent += 1;
            return CoordinatorAction::PollAll { round: self.round };
        }
        let mut estimate = Vt::INFINITY;
        for i in 0..self.n {
            estimate = estimate.min(self.lmin[i]).min(self.late_min[i]).min(self.cur_sent_min[i]);
        }
        // Monotone clamp: the estimate is a lower bound on the true GVT,
        // so taking the max of successive lower bounds is still a lower
        // bound, and published GVT never regresses.
        self.gvt = self.gvt.max(estimate);
        self.phase = Phase::Idle;
        self.rounds_run += 1;
        CoordinatorAction::Advance { gvt: self.gvt }
    }

    /// Feed a `CutAck` or `PollAck`; stale rounds are ignored.
    pub fn on_ack(&mut self, msg: &CtrlMsg) -> CoordinatorAction {
        match *msg {
            CtrlMsg::CutAck {
                round,
                daemon,
                lmin,
                prev_sent,
                prev_recv,
                late_min,
                cur_sent_min,
            } => {
                if round != self.round || self.phase != Phase::Collecting {
                    return CoordinatorAction::Wait;
                }
                let i = daemon as usize;
                if self.dead.get(i).copied().unwrap_or(true) {
                    // A redirected straggler from an evicted daemon, or
                    // an id outside the membership.
                    return CoordinatorAction::Wait;
                }
                self.reported[i] = true;
                self.lmin[i] = lmin;
                self.prev_sent[i] = prev_sent;
                self.prev_recv[i] = prev_recv;
                self.late_min[i] = late_min;
                self.cur_sent_min[i] = cur_sent_min;
                self.evaluate()
            }
            CtrlMsg::PollAck { round, daemon, lmin, prev_recv, late_min, cur_sent_min } => {
                if round != self.round || self.phase != Phase::Collecting {
                    return CoordinatorAction::Wait;
                }
                let i = daemon as usize;
                if self.dead.get(i).copied().unwrap_or(true) {
                    return CoordinatorAction::Wait;
                }
                self.reported[i] = true;
                self.lmin[i] = lmin;
                self.prev_recv[i] = prev_recv;
                self.late_min[i] = late_min;
                self.cur_sent_min[i] = cur_sent_min;
                self.evaluate()
            }
            _ => CoordinatorAction::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a full round synchronously against a set of participants
    /// with the given local minima; returns the new GVT.
    fn run_round(coord: &mut Coordinator, parts: &mut [Participant], lmins: &[Vt]) -> Vt {
        let cut = coord.begin_round().expect("idle");
        let round = match cut {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        let mut action = CoordinatorAction::Wait;
        for (p, &lm) in parts.iter_mut().zip(lmins) {
            let ack = p.on_cut(round, lm);
            action = coord.on_ack(&ack);
        }
        loop {
            match action {
                CoordinatorAction::Advance { gvt } => {
                    for p in parts.iter_mut() {
                        p.on_advance(gvt);
                    }
                    return gvt;
                }
                CoordinatorAction::PollAll { round } => {
                    for (i, p) in parts.iter_mut().enumerate() {
                        let ack = p.on_poll(round, lmins[i]);
                        action = coord.on_ack(&ack);
                    }
                }
                CoordinatorAction::Wait => panic!("stuck waiting with all acks in"),
            }
        }
    }

    #[test]
    fn quiescent_round_takes_min() {
        let mut coord = Coordinator::new(3);
        let mut parts: Vec<Participant> = (0..3).map(Participant::new).collect();
        let gvt = run_round(&mut coord, &mut parts, &[Vt::new(5.0), Vt::new(3.0), Vt::new(7.0)]);
        assert_eq!(gvt, Vt::new(3.0));
        assert_eq!(parts[0].gvt(), Vt::new(3.0));
        assert_eq!(coord.rounds_run(), 1);
    }

    #[test]
    fn gvt_is_monotone_even_if_minima_rise_and_fall() {
        let mut coord = Coordinator::new(2);
        let mut parts: Vec<Participant> = (0..2).map(Participant::new).collect();
        let g1 = run_round(&mut coord, &mut parts, &[Vt::new(4.0), Vt::new(6.0)]);
        assert_eq!(g1, Vt::new(4.0));
        // A (buggy or optimistic) participant reports a lower minimum
        // later; published GVT must not regress.
        let g2 = run_round(&mut coord, &mut parts, &[Vt::new(2.0), Vt::new(6.0)]);
        assert_eq!(g2, Vt::new(4.0));
        let g3 = run_round(&mut coord, &mut parts, &[Vt::new(9.0), Vt::new(8.0)]);
        assert_eq!(g3, Vt::new(8.0));
    }

    #[test]
    fn in_flight_message_blocks_round_until_drained() {
        let mut coord = Coordinator::new(2);
        let mut p0 = Participant::new(0);
        let mut p1 = Participant::new(1);
        // p0 sends a migration (ts 1.0) that has not yet arrived at p1.
        p0.on_send(Vt::new(1.0));
        let stamp = p0.stamp();

        let cut = coord.begin_round().unwrap();
        let round = match cut {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        // Both daemons report; p0's queue min is 5.0, p1's is 9.0 — the
        // in-flight ts-1.0 messenger must keep GVT at or below 1.0.
        let a0 = p0.on_cut(round, Vt::new(5.0));
        assert_eq!(coord.on_ack(&a0), CoordinatorAction::Wait);
        let a1 = p1.on_cut(round, Vt::new(9.0));
        // Counts don't match: 1 sent, 0 received → poll.
        let act = coord.on_ack(&a1);
        assert_eq!(act, CoordinatorAction::PollAll { round });

        // The migration now arrives at p1 — stamped with the old epoch,
        // so it is a late white message.
        p1.on_receive(stamp, Vt::new(1.0));

        let a0 = p0.on_poll(round, Vt::new(5.0));
        assert_eq!(coord.on_ack(&a0), CoordinatorAction::Wait);
        let a1 = p1.on_poll(round, Vt::new(9.0));
        match coord.on_ack(&a1) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(1.0)),
            other => panic!("expected advance, got {other:?}"),
        }
        assert_eq!(coord.polls_sent(), 1);
    }

    #[test]
    fn current_epoch_sends_bound_the_estimate() {
        // After the cut, a daemon sends a low-timestamped messenger
        // (possible under optimistic execution). The round must not
        // publish a GVT above that timestamp.
        let mut coord = Coordinator::new(2);
        let mut p0 = Participant::new(0);
        let mut p1 = Participant::new(1);
        let cut = coord.begin_round().unwrap();
        let round = match cut {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        let a0 = p0.on_cut(round, Vt::new(10.0));
        coord.on_ack(&a0);
        // p1 cuts, then immediately sends at ts 2.0 before acking — model
        // by feeding on_send between cut and ack construction.
        let mut ack1 = p1.on_cut(round, Vt::new(11.0));
        p1.on_send(Vt::new(2.0));
        // Rebuild the ack as a poll would see it (cur_sent_min updated).
        if let CtrlMsg::CutAck { cur_sent_min, .. } = &mut ack1 {
            *cur_sent_min = Vt::new(2.0);
        }
        match coord.on_ack(&ack1) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(2.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_round_acks_are_ignored() {
        let mut coord = Coordinator::new(1);
        let mut p = Participant::new(0);
        let cut = coord.begin_round().unwrap();
        let round = match cut {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        let ack = p.on_cut(round, Vt::new(1.0));
        // An ack for a round that never existed.
        let stale = CtrlMsg::CutAck {
            round: round + 7,
            daemon: 0,
            lmin: Vt::ZERO,
            prev_sent: 0,
            prev_recv: 0,
            late_min: Vt::INFINITY,
            cur_sent_min: Vt::INFINITY,
        };
        assert_eq!(coord.on_ack(&stale), CoordinatorAction::Wait);
        assert!(matches!(coord.on_ack(&ack), CoordinatorAction::Advance { .. }));
        // Acks after completion are also ignored.
        assert_eq!(coord.on_ack(&ack), CoordinatorAction::Wait);
    }

    #[test]
    fn begin_round_refuses_while_busy() {
        let mut coord = Coordinator::new(2);
        assert!(coord.begin_round().is_some());
        assert!(coord.begin_round().is_none());
        assert!(coord.busy());
    }

    #[test]
    fn epoch_advances_on_cut_only_once() {
        let mut p = Participant::new(0);
        assert_eq!(p.stamp(), 0);
        p.on_cut(1, Vt::ZERO);
        assert_eq!(p.stamp(), 1);
        // Duplicate cut for the same round must not shift counters again.
        p.on_send(Vt::new(5.0));
        let ack = p.on_cut(1, Vt::ZERO);
        if let CtrlMsg::CutAck { prev_sent, .. } = ack {
            assert_eq!(prev_sent, 0);
        }
        assert_eq!(p.stamp(), 1);
    }

    #[test]
    fn wire_bytes_are_small() {
        assert!(CtrlMsg::Cut { round: 1 }.wire_bytes() <= 16);
        assert!(
            CtrlMsg::CutAck {
                round: 1,
                daemon: 0,
                lmin: Vt::ZERO,
                prev_sent: 0,
                prev_recv: 0,
                late_min: Vt::ZERO,
                cur_sent_min: Vt::ZERO,
            }
            .wire_bytes()
                <= 64
        );
    }

    #[test]
    fn round_stalls_forever_when_a_participant_never_acks() {
        // The documented failure mode this PR's eviction machinery
        // exists for: with fixed membership, one silent participant
        // wedges the round permanently — no number of acks from the
        // others completes it.
        let mut coord = Coordinator::new(3);
        let mut p0 = Participant::new(0);
        let mut p1 = Participant::new(1);
        let round = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        assert_eq!(coord.on_ack(&p0.on_cut(round, Vt::new(1.0))), CoordinatorAction::Wait);
        assert_eq!(coord.on_ack(&p1.on_cut(round, Vt::new(2.0))), CoordinatorAction::Wait);
        // Daemon 2 never acks; duplicate acks from the others change
        // nothing.
        assert_eq!(coord.on_ack(&p0.on_poll(round, Vt::new(1.0))), CoordinatorAction::Wait);
        assert!(coord.busy(), "round is wedged without an eviction");
    }

    #[test]
    fn evicting_the_silent_participant_unblocks_the_round() {
        let mut coord = Coordinator::new(3);
        let mut p0 = Participant::new(0);
        let mut p1 = Participant::new(1);
        let round = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        coord.on_ack(&p0.on_cut(round, Vt::new(4.0)));
        coord.on_ack(&p1.on_cut(round, Vt::new(6.0)));
        // The victim's checkpoint floor (3.0) sits below every survivor:
        // the round must advance only to the floor, because a restore is
        // about to resurrect messengers at that virtual time.
        match coord.evict(2, Vt::new(3.0)) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(3.0)),
            other => panic!("eviction must complete the round, got {other:?}"),
        }
        assert!(!coord.busy());
        assert_eq!(coord.mem_epoch(), 1);
        assert!(coord.is_dead(2));
        assert_eq!(coord.alive(), 2);
    }

    #[test]
    fn eviction_round_trip_resumes_with_survivors() {
        // Epoch-eviction round-trip: evict while idle, then run full
        // rounds with the surviving set — GVT keeps advancing and the
        // dead slot stays neutral.
        let mut coord = Coordinator::new(3);
        let mut parts: Vec<Participant> = (0..3).map(Participant::new).collect();
        let g1 = run_round(&mut coord, &mut parts, &[Vt::new(1.0), Vt::new(2.0), Vt::new(3.0)]);
        assert_eq!(g1, Vt::new(1.0));
        assert_eq!(
            coord.evict(1, Vt::INFINITY),
            CoordinatorAction::Wait,
            "idle eviction defers to next round"
        );
        assert_eq!(coord.evict(1, Vt::ZERO), CoordinatorAction::Wait, "re-eviction is a no-op");
        assert_eq!(coord.mem_epoch(), 1);
        // Survivors only: daemon 1 never reports again.
        let round = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        assert_eq!(coord.on_ack(&parts[0].on_cut(round, Vt::new(5.0))), CoordinatorAction::Wait);
        match coord.on_ack(&parts[2].on_cut(round, Vt::new(7.0))) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(5.0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(coord.rounds_run(), 2);
    }

    #[test]
    fn acks_naming_a_daemon_outside_the_membership_are_ignored() {
        // `daemon` comes off the wire: an id past the membership must not
        // index the per-daemon tables.
        let mut coord = Coordinator::new(2);
        let round = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        let mut ghost = Participant::new(9);
        assert_eq!(coord.on_ack(&ghost.on_cut(round, Vt::ZERO)), CoordinatorAction::Wait);
        let poll = CtrlMsg::PollAck {
            round,
            daemon: 9,
            lmin: Vt::ZERO,
            prev_recv: 0,
            late_min: Vt::ZERO,
            cur_sent_min: Vt::ZERO,
        };
        assert_eq!(coord.on_ack(&poll), CoordinatorAction::Wait);
        let (mut p0, mut p1) = (Participant::new(0), Participant::new(1));
        assert_eq!(coord.on_ack(&p0.on_cut(round, Vt::new(2.0))), CoordinatorAction::Wait);
        match coord.on_ack(&p1.on_cut(round, Vt::new(3.0))) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(2.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn acks_from_an_evicted_daemon_are_ignored() {
        // A redirected straggler ack from the victim must not corrupt
        // the survivor round (e.g. resurrect its minima).
        let mut coord = Coordinator::new(2);
        let mut p0 = Participant::new(0);
        let mut p1 = Participant::new(1);
        coord.evict(1, Vt::INFINITY);
        let round = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        let ghost = p1.on_cut(round, Vt::new(0.25));
        assert_eq!(coord.on_ack(&ghost), CoordinatorAction::Wait);
        match coord.on_ack(&p0.on_cut(round, Vt::new(9.0))) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(9.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eviction_skips_the_drain_check_but_keeps_monotonicity() {
        // An in-flight frame addressed to the victim leaves Σsent ≠
        // Σrecv forever; the post-eviction round must still complete,
        // and published GVT must stay monotone.
        let mut coord = Coordinator::new(2);
        let mut p0 = Participant::new(0);
        p0.on_send(Vt::new(50.0)); // addressed to daemon 1, never received
        let r1 = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        coord.on_ack(&p0.on_cut(r1, Vt::new(10.0)));
        match coord.evict(1, Vt::INFINITY) {
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(10.0)),
            other => panic!("sent≠recv must not wedge survivors: {other:?}"),
        }
        assert_eq!(coord.polls_sent(), 0, "no drain polls once membership changed");
        let r2 = match coord.begin_round().unwrap() {
            CtrlMsg::Cut { round } => round,
            _ => unreachable!(),
        };
        match coord.on_ack(&p0.on_cut(r2, Vt::new(4.0))) {
            // The survivor's floor dropped below published GVT; the
            // monotone clamp holds the line.
            CoordinatorAction::Advance { gvt } => assert_eq!(gvt, Vt::new(10.0)),
            other => panic!("{other:?}"),
        }
    }

    /// Randomized safety check: simulate daemons exchanging timestamped
    /// messages through a delaying network while rounds run; the
    /// published GVT must never exceed the true minimum unprocessed
    /// timestamp at publication time.
    #[test]
    fn randomized_safety_gvt_never_overestimates() {
        use msgr_sim::DetRng;

        for seed in 0..20u64 {
            let mut rng = DetRng::new(seed);
            let n = 3usize;
            let mut parts: Vec<Participant> = (0..n as u16).map(Participant::new).collect();
            let mut coord = Coordinator::new(n);
            // Each daemon has a bag of pending timestamps; messages in
            // flight are (dst, ts, stamp, deliver_at_step).
            let mut queues: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let mut flight: Vec<(usize, f64, u64, u32)> = Vec::new();
            let true_min = |queues: &Vec<Vec<f64>>, flight: &Vec<(usize, f64, u64, u32)>| {
                let q = queues.iter().flatten().copied().fold(f64::INFINITY, f64::min);
                let f = flight.iter().map(|x| x.1).fold(f64::INFINITY, f64::min);
                q.min(f)
            };
            for step in 0..200u32 {
                // Deliver due messages.
                let mut still = Vec::new();
                for (dst, ts, stamp, due) in flight.drain(..) {
                    if due <= step {
                        parts[dst].on_receive(stamp, Vt::new(ts));
                        queues[dst].push(ts);
                    } else {
                        still.push((dst, ts, stamp, due));
                    }
                }
                flight = still;
                // Random daemon processes its min and maybe sends a new
                // message with a larger timestamp.
                let d = rng.below(n as u64) as usize;
                if !queues[d].is_empty() {
                    let idx = queues[d]
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap();
                    let ts = queues[d].remove(idx);
                    if rng.chance(0.8) {
                        let nts = ts + rng.range_f64(0.0, 2.0);
                        let dst = rng.below(n as u64) as usize;
                        parts[d].on_send(Vt::new(nts));
                        flight.push((dst, nts, parts[d].stamp(), step + 1 + rng.below(4) as u32));
                    }
                }
                // Occasionally run a full round synchronously.
                if step % 17 == 0 {
                    if let Some(CtrlMsg::Cut { round }) = coord.begin_round() {
                        let mut action = CoordinatorAction::Wait;
                        for i in 0..n {
                            let lm = queues[i].iter().copied().fold(f64::INFINITY, f64::min);
                            let ack = parts[i].on_cut(round, Vt::new(lm));
                            action = coord.on_ack(&ack);
                        }
                        let mut guard = 0;
                        loop {
                            match action {
                                CoordinatorAction::Advance { gvt } => {
                                    let tm = true_min(&queues, &flight);
                                    assert!(
                                        gvt.as_f64() <= tm + 1e-9,
                                        "seed {seed} step {step}: GVT {gvt} > true min {tm}"
                                    );
                                    break;
                                }
                                CoordinatorAction::PollAll { round } => {
                                    // Deliver everything in flight before
                                    // polling (worst case for drain).
                                    for (dst, ts, stamp, _) in flight.drain(..) {
                                        parts[dst].on_receive(stamp, Vt::new(ts));
                                        queues[dst].push(ts);
                                    }
                                    action = CoordinatorAction::Wait;
                                    for i in 0..n {
                                        let lm =
                                            queues[i].iter().copied().fold(f64::INFINITY, f64::min);
                                        let ack = parts[i].on_poll(round, Vt::new(lm));
                                        action = coord.on_ack(&ack);
                                    }
                                }
                                CoordinatorAction::Wait => {
                                    guard += 1;
                                    assert!(guard < 100, "round never completed");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
