//! Anti-entropy gossip digests.
//!
//! Each daemon periodically picks one random alive peer (from a forked
//! deterministic RNG, so schedules replay) and pushes a [`Digest`] of
//! everything a daemon can know without a coordinator: its membership
//! epoch, the evictions behind it (victim + recovery floor, enough for
//! a peer to apply the eviction idempotently), a content hash of its
//! code registry, and its GVT watermark. The receiver merges what it
//! lacks and, if it knows strictly more, replies with its own digest —
//! the pull half of push–pull. Replies are never replied to, so one
//! exchange is at most two frames.
//!
//! Everything merged this way is monotone or idempotent: epochs only
//! grow, an eviction applies once, GVT is a watermark, and hash
//! disagreement is only *detected* here (the reliable code-distribution
//! path owns repair). That is what makes gossip safe to run over a
//! lossy, reordering network with zero coordination.

use msgr_sim::DetRng;

/// One daemon's summarized control-plane knowledge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Digest {
    /// Membership epoch (bumps once per eviction).
    pub mem_epoch: u32,
    /// Evictions this daemon knows: `(victim, recovery floor)`. The
    /// floor is the GVT safe point folded at restore time, which is all
    /// a peer needs to apply the eviction itself.
    pub evictions: Vec<(u16, f64)>,
    /// FNV content hash of the code registry (detection only).
    pub code_hash: u64,
    /// Local GVT watermark hint.
    pub gvt: f64,
}

impl Digest {
    /// Does `self` hold anything `other` provably lacks? Drives the
    /// pull half: a receiver replies exactly when this is true.
    pub fn knows_more_than(&self, other: &Digest) -> bool {
        self.mem_epoch > other.mem_epoch
            || self.gvt > other.gvt
            || self.evictions.iter().any(|(v, _)| !other.evictions.iter().any(|(ov, _)| ov == v))
            || self.code_hash != other.code_hash
    }
}

/// Pick a random alive peer (excluding `self_id`) from a deterministic
/// generator. Returns `None` when no other daemon is alive.
pub fn pick_peer(rng: &mut DetRng, self_id: u16, alive: &[bool]) -> Option<u16> {
    let peers: Vec<u16> =
        (0..=u16::MAX).zip(alive).filter(|&(d, &up)| up && d != self_id).map(|(d, _)| d).collect();
    if peers.is_empty() {
        return None;
    }
    usize::try_from(rng.below(peers.len() as u64)).ok().map(|i| peers[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(epoch: u32, evictions: &[(u16, f64)], hash: u64, gvt: f64) -> Digest {
        Digest { mem_epoch: epoch, evictions: evictions.to_vec(), code_hash: hash, gvt }
    }

    #[test]
    fn knows_more_is_driven_by_every_component() {
        let base = digest(1, &[(2, 0.5)], 7, 1.0);
        assert!(!base.knows_more_than(&base.clone()), "equal digests are quiescent");
        assert!(digest(2, &[(2, 0.5)], 7, 1.0).knows_more_than(&base), "newer epoch");
        assert!(digest(1, &[(2, 0.5)], 7, 2.0).knows_more_than(&base), "newer gvt");
        assert!(digest(1, &[(2, 0.5), (3, 0.9)], 7, 1.0).knows_more_than(&base), "extra eviction");
        assert!(digest(1, &[(2, 0.5)], 8, 1.0).knows_more_than(&base), "hash divergence");
        assert!(!digest(0, &[], 7, 0.0).knows_more_than(&base), "strictly-behind digest");
    }

    #[test]
    fn eviction_floors_do_not_mask_missing_victims() {
        let a = digest(1, &[(2, 0.5)], 7, 1.0);
        let b = digest(1, &[(2, 0.9)], 7, 1.0);
        assert!(!a.knows_more_than(&b), "same victim set, floor differences don't churn");
    }

    #[test]
    fn pick_peer_is_alive_not_self_and_deterministic() {
        let alive = [true, true, false, true];
        let mut r1 = DetRng::new(9);
        let mut r2 = DetRng::new(9);
        for _ in 0..64 {
            let p = pick_peer(&mut r1, 1, &alive).unwrap();
            assert_eq!(Some(p), pick_peer(&mut r2, 1, &alive));
            assert_ne!(p, 1, "never self");
            assert_ne!(p, 2, "never a dead daemon");
        }
        assert_eq!(pick_peer(&mut r1, 0, &[true, false]), None, "no alive peer");
    }

    #[test]
    fn pick_peer_covers_all_candidates() {
        let alive = [true; 5];
        let mut rng = DetRng::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[pick_peer(&mut rng, 0, &alive).unwrap() as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true, true]);
    }
}
