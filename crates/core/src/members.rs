//! The membership view: which daemons this daemon believes alive, the
//! failure detector's soft state, and the ring rule that names a dead
//! daemon's heir.
//!
//! [`Members`] is pure state: it knows nothing of metrics, trace events
//! or platform effects, and quorum, gossip and GVT glue stay in the
//! daemon and ask it. Its fields are private, so the invariants hold by
//! construction: `alive[d]` flips to `false` exactly once and never back,
//! the epoch only grows, and every id it is handed — from a frame, a
//! decree or a damaged checkpoint — is bounded by the cluster size here,
//! once, instead of at each index site.

use msgr_sim::{SimTime, MILLI};
use msgr_vm::Vt;

use crate::ids::DaemonId;

/// Silence after which a peer is *suspected* (soft state, reported in
/// `Stats` only): three missed heartbeats.
pub(crate) const SUSPECT_AFTER: SimTime = 60 * MILLI;

/// Silence after which a peer is declared *dead* — monotone: a dead peer
/// never rejoins. Must exceed the longest transient crash window the chaos
/// suites schedule plus one heartbeat, or failover fires on a host that
/// was about to restart.
pub(crate) const DEAD_AFTER: SimTime = 240 * MILLI;

/// One daemon's view of the cluster membership.
#[derive(Debug)]
pub(crate) struct Members {
    /// Monotone: `alive[d]` flips to `false` exactly once.
    alive: Vec<bool>,
    /// Failure-detector soft state (reset whenever the peer is heard).
    suspect: Vec<bool>,
    /// When each peer was last heard from (any frame, incl. heartbeats).
    last_heard: Vec<SimTime>,
    /// Membership epoch: number of evictions this daemon knows of.
    epoch: u64,
    /// Every eviction this daemon knows of, as `(victim, floor)` — the
    /// gossip digest's membership payload.
    evictions: Vec<(u16, f64)>,
}

impl Members {
    /// A cluster of `n` daemons, all alive and just heard from.
    pub(crate) fn new(n: usize) -> Self {
        Members {
            alive: vec![true; n],
            suspect: vec![false; n],
            last_heard: vec![0; n],
            epoch: 0,
            evictions: Vec::new(),
        }
    }

    /// The membership epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopt a peer's epoch if it is ahead of ours.
    pub(crate) fn ratchet(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Every known eviction, oldest first.
    pub(crate) fn evictions(&self) -> &[(u16, f64)] {
        &self.evictions
    }

    /// Forget the eviction log (the daemon was killed).
    pub(crate) fn clear_evictions(&mut self) {
        self.evictions.clear();
    }

    /// Whether `d` is in the cluster and not known dead.
    pub(crate) fn is_alive(&self, d: DaemonId) -> bool {
        self.alive.get(usize::from(d.0)).copied().unwrap_or(false)
    }

    /// The alive flag of every daemon, by id.
    pub(crate) fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// Every alive daemon, in id order.
    pub(crate) fn alive(&self) -> impl Iterator<Item = DaemonId> + '_ {
        (0u16..).zip(&self.alive).filter(|&(_, &up)| up).map(|(d, _)| DaemonId(d))
    }

    /// Every alive daemon but `me`.
    pub(crate) fn peers(&self, me: DaemonId) -> impl Iterator<Item = DaemonId> + '_ {
        self.alive().filter(move |&d| d != me)
    }

    /// The successor that must take over `victim`'s state if it dies
    /// *now* (ignores whether the view already has `victim` dead): the
    /// next alive daemon by id, mod cluster size — the deterministic rule
    /// every daemon agrees on once membership views converge. `victim`
    /// itself when nobody else is alive.
    pub(crate) fn successor_of(&self, victim: DaemonId) -> DaemonId {
        let n = self.alive.len();
        let heir = (1..n).map(|k| (usize::from(victim.0) + k) % n).find(|&d| self.alive[d]);
        heir.map_or(victim, |d| DaemonId(d as u16))
    }

    /// The current owner of daemon id `d`: `d` itself while alive, else
    /// its successor.
    pub(crate) fn owner(&self, d: DaemonId) -> DaemonId {
        if self.is_alive(d) {
            d
        } else {
            self.successor_of(d)
        }
    }

    /// Refresh the failure detector: `d` was just heard from. Ids outside
    /// the cluster are ignored.
    pub(crate) fn heard(&mut self, now: SimTime, d: DaemonId) {
        let i = usize::from(d.0);
        if let (Some(last), Some(suspect)) = (self.last_heard.get_mut(i), self.suspect.get_mut(i)) {
            *last = (*last).max(now);
            *suspect = false;
        }
    }

    /// One failure-detector round at `now`: advance the suspicion state
    /// machine on the silence of every peer of `me`. Returns the peers
    /// silent for `dead_after` or longer, and how many others, silent for
    /// `suspect_after`, just became suspects (soft state: counted,
    /// reversible by [`Members::heard`]).
    pub(crate) fn verdicts(
        &mut self,
        now: SimTime,
        me: DaemonId,
        suspect_after: SimTime,
        dead_after: SimTime,
    ) -> (Vec<DaemonId>, u64) {
        let mut dead = Vec::new();
        let mut suspected = 0;
        for (i, up) in self.alive.iter().enumerate() {
            if !up || i == usize::from(me.0) {
                continue;
            }
            let silence = now.saturating_sub(self.last_heard[i]);
            if silence >= dead_after {
                dead.push(DaemonId(i as u16));
            } else if silence >= suspect_after && !self.suspect[i] {
                self.suspect[i] = true;
                suspected += 1;
            }
        }
        (dead, suspected)
    }

    /// Mark `victim` dead as of membership `epoch`, logging the restored
    /// checkpoint's `floor`. Returns `true` iff this is news; a repeat
    /// only ratchets the epoch, and an id outside the cluster is ignored.
    pub(crate) fn evict(&mut self, victim: DaemonId, epoch: u64, floor: Vt) -> bool {
        let i = usize::from(victim.0);
        let Some(up) = self.alive.get_mut(i) else {
            return false;
        };
        if !*up {
            self.ratchet(epoch);
            return false;
        }
        *up = false;
        self.suspect[i] = false;
        self.epoch = (self.epoch + 1).max(epoch);
        self.evictions.push((victim.0, floor.as_f64()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cluster of `n` whose alive daemons are the set bits of `mask`.
    fn members(n: usize, mask: u32) -> Members {
        let mut m = Members::new(n);
        for d in (0..n as u16).filter(|d| mask & (1 << d) == 0) {
            assert!(m.evict(DaemonId(d), 0, Vt::ZERO));
        }
        m
    }

    #[test]
    fn ring_walk_agrees_with_a_brute_force_scan() {
        for n in 1..=6usize {
            for mask in 0..1u32 << n {
                let m = members(n, mask);
                let up = |d: usize| mask & (1 << d) != 0;
                for d in (0..n as u16).chain([n as u16, 99, u16::MAX]) {
                    // Step round the ring from `d` until back at the start.
                    let start = usize::from(d) % n;
                    let mut at = (start + 1) % n;
                    while at != start && !up(at) {
                        at = (at + 1) % n;
                    }
                    let heir = if at != start { DaemonId(at as u16) } else { DaemonId(d) };
                    let who = format!("n={n} mask={mask:#b} d={d}");
                    assert_eq!(m.successor_of(DaemonId(d)), heir, "successor_of: {who}");
                    let in_cluster_and_up = usize::from(d) < n && up(usize::from(d));
                    let owner = if in_cluster_and_up { DaemonId(d) } else { heir };
                    assert_eq!(m.owner(DaemonId(d)), owner, "owner: {who}");
                    assert_eq!(m.is_alive(DaemonId(d)), in_cluster_and_up, "is_alive: {who}");
                }
                let alive: Vec<u16> = m.alive().map(|d| d.0).collect();
                assert_eq!(alive, (0..n as u16).filter(|&d| up(d.into())).collect::<Vec<_>>());
                assert!(m.peers(DaemonId(0)).all(|d| d.0 != 0 && up(d.0.into())));
            }
        }
    }

    #[test]
    fn evict_is_monotone_and_idempotent() {
        let mut m = Members::new(4);
        assert!(m.evict(DaemonId(2), 0, Vt::new(1.5)));
        assert_eq!((m.epoch(), m.evictions()), (1, &[(2, 1.5)][..]));
        // Again: not news, whatever floor it claims; only the epoch may ratchet.
        assert!(!m.evict(DaemonId(2), 0, Vt::ZERO));
        assert_eq!((m.epoch(), m.evictions().len()), (1, 1));
        assert!(!m.evict(DaemonId(2), 5, Vt::ZERO));
        assert_eq!((m.epoch(), m.evictions().len()), (5, 1));
        // Hearing from the dead does not bring them back.
        m.heard(9, DaemonId(2));
        assert!(!m.is_alive(DaemonId(2)));
        // A fresh eviction bumps the epoch by one, or up to the sender's.
        assert!(m.evict(DaemonId(3), 2, Vt::ZERO));
        assert_eq!(m.epoch(), 6);
        // Ids outside the cluster change nothing.
        assert!(!m.evict(DaemonId(4), 99, Vt::ZERO));
        m.heard(9, DaemonId(99));
        assert_eq!((m.epoch(), m.evictions().len()), (6, 2));
    }

    #[test]
    fn silence_turns_into_suspicion_then_a_verdict() {
        let (me, mut m) = (DaemonId(0), Members::new(3));
        assert_eq!(m.verdicts(9, me, 10, 30), (vec![], 0));
        m.heard(8, DaemonId(2));
        assert_eq!(m.verdicts(12, me, 10, 30), (vec![], 1), "daemon 1 is newly suspect");
        assert_eq!(m.verdicts(13, me, 10, 30), (vec![], 0), "a suspect is counted once");
        m.heard(14, DaemonId(1));
        assert_eq!(m.verdicts(24, me, 10, 30), (vec![], 2), "heard from: suspicion starts over");
        assert_eq!(m.verdicts(44, me, 10, 30), (vec![DaemonId(1), DaemonId(2)], 0));
        assert!(m.evict(DaemonId(1), 0, Vt::ZERO));
        assert_eq!(m.verdicts(44, me, 10, 30), (vec![DaemonId(2)], 0), "the dead get no verdict");
    }
}
