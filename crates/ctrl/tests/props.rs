//! Property suites for the control-plane state machines.
//!
//! These drive the pure quorum and gossip machines through adversarial
//! message schedules — drops, duplicates, reordering, dead acceptors,
//! dueling proposers — far faster than the full cluster simulation
//! can, so the 256-case budgets explore deep interleavings. The
//! integration-level counterparts (real daemons, real fault plans)
//! live in `crates/core/tests/ctrl_props.rs`.
//!
//! `MSGR_CHECK_SEED=<n>` replays one failing case; `MSGR_FAULT_SEED`
//! (set by `scripts/ci.sh`) perturbs every case of the sweep.

use msgr_check::{check_with, prop_assert, prop_assert_eq, Config, Source};
use msgr_ctrl::{pick_peer, Decree, Digest, InstanceId, PaxosMsg, Quorum};
use msgr_sim::DetRng;

fn fault_seed() -> u64 {
    std::env::var("MSGR_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn chaos_cases() -> Config {
    Config::with_cases(256)
}

// ---- consensus ---------------------------------------------------------

/// One in-flight message: `(from, to, msg)`.
type Net = Vec<(u16, u16, PaxosMsg)>;

struct Cluster {
    machines: Vec<Quorum>,
    dead: Vec<bool>,
    /// Every `(daemon, decree)` learn event, across the whole run.
    learned: Vec<(u16, Decree)>,
}

impl Cluster {
    fn new(n: u16, dead: Vec<bool>) -> Cluster {
        Cluster { machines: (0..n).map(|d| Quorum::new(d, n)).collect(), dead, learned: Vec::new() }
    }

    fn propose(&mut self, proposer: u16, inst: InstanceId, decree: Decree, net: &mut Net) {
        let step = self.machines[proposer as usize].propose(inst, decree);
        net.extend(step.send.into_iter().map(|(dst, m)| (proposer, dst, m)));
        if let Some((_, d)) = step.learned {
            self.learned.push((proposer, d));
        }
    }

    fn deliver(&mut self, from: u16, to: u16, msg: PaxosMsg, net: &mut Net) {
        if self.dead[to as usize] {
            return; // fail-stop: dead daemons never speak again
        }
        let step = self.machines[to as usize].deliver(from, msg);
        net.extend(step.send.into_iter().map(|(dst, m)| (to, dst, m)));
        if let Some((_, d)) = step.learned {
            self.learned.push((to, d));
        }
    }
}

/// Generate a cluster where the victim plus some extra acceptors are
/// dead, but never so many that a quorum becomes impossible (the same
/// invariant `FaultPlan::validate` enforces for real runs).
fn arb_cluster(s: &mut Source) -> (u16, u16, Vec<bool>) {
    let n = s.usize_in(2..9) as u16;
    let victim = s.usize_in(0..n as usize) as u16;
    let mut dead = vec![false; n as usize];
    dead[victim as usize] = true;
    let spare = (n as usize - 1) - Quorum::quorum_size(n);
    let extra = s.usize_in(0..spare + 1);
    let mut candidates: Vec<u16> = (0..n).filter(|&d| d != victim).collect();
    for _ in 0..extra {
        let i = s.usize_in(0..candidates.len());
        dead[candidates.remove(i) as usize] = true;
    }
    (n, victim, dead)
}

#[test]
fn quorum_agreement_is_safe_under_chaos() {
    check_with(chaos_cases(), "quorum_agreement_is_safe_under_chaos", |s| {
        let _ = fault_seed(); // cases are fully Source-driven; seed folds into draws below
        let (n, victim, dead) = arb_cluster(s);
        let inst = InstanceId { victim, seq: 0 };
        let mut cluster = Cluster::new(n, dead.clone());
        let live: Vec<u16> = (0..n).filter(|&d| !dead[d as usize]).collect();
        let mut net: Net = Vec::new();

        // 1..=3 dueling proposers, each free to prefer a different heir.
        let proposer_count = s.usize_in(1..live.len().min(3) + 1);
        for i in 0..proposer_count {
            let proposer = live[i % live.len()];
            let successor = live[s.usize_in(0..live.len())];
            cluster.propose(proposer, inst, Decree { victim, successor, epoch: 1 }, &mut net);
        }

        // Adversarial delivery: random order, ~10% drops, ~10% dups.
        let mut steps = 0;
        while !net.is_empty() && steps < 10_000 {
            steps += 1;
            let i = s.usize_in(0..net.len());
            let (from, to, msg) = net.swap_remove(i);
            if s.bool_with(0.10) {
                continue; // dropped
            }
            if s.bool_with(0.10) {
                net.push((from, to, msg)); // duplicated
            }
            cluster.deliver(from, to, msg, &mut net);
        }

        // SAFETY: every decree ever learned, by anyone, is identical.
        if let Some((_, first)) = cluster.learned.first().copied() {
            for (d, decree) in &cluster.learned {
                prop_assert_eq!(*decree, first, "daemon {} adopted a conflicting decree", d);
            }
            prop_assert_eq!(first.victim, victim);
        }

        // LIVENESS: the tick loop re-proposes with higher ballots and
        // loss is not permanent; model that with drop-free retries.
        let mut retries = 0;
        while cluster.learned.is_empty() && retries < 32 {
            retries += 1;
            let proposer = live[retries % live.len()];
            let successor = live[(retries + 1) % live.len()];
            cluster.propose(proposer, inst, Decree { victim, successor, epoch: 1 }, &mut net);
            while let Some((from, to, msg)) = net.pop() {
                cluster.deliver(from, to, msg, &mut net);
            }
        }
        prop_assert!(
            !cluster.learned.is_empty(),
            "undecided after {} drop-free retries (n={}, victim={})",
            retries,
            n,
            victim
        );
        let decided = cluster.learned[0].1;
        prop_assert!(!dead[decided.successor as usize], "decree names a live heir");
        Ok(())
    });
}

#[test]
fn cascading_instances_settle_independently() {
    check_with(chaos_cases(), "cascading_instances_settle_independently", |s| {
        // Heir of decree 0 dies too: instance (victim, 1) must decide a
        // new heir without disturbing the (victim, 0) outcome.
        let n = s.usize_in(4..9) as u16;
        let victim = 1u16;
        let first_heir = 2u16;
        let mut dead = vec![false; n as usize];
        dead[victim as usize] = true;
        let mut cluster = Cluster::new(n, dead);
        let mut net: Net = Vec::new();
        cluster.propose(
            0,
            InstanceId { victim, seq: 0 },
            Decree { victim, successor: first_heir, epoch: 1 },
            &mut net,
        );
        while let Some((from, to, msg)) = net.pop() {
            cluster.deliver(from, to, msg, &mut net);
        }
        // Now the heir dies before restoring; a second observer opens seq 1.
        cluster.dead[first_heir as usize] = true;
        let proposer = (3 + s.usize_in(0..(n - 3) as usize)) as u16;
        cluster.propose(
            proposer,
            InstanceId { victim, seq: 1 },
            Decree { victim, successor: 3, epoch: 2 },
            &mut net,
        );
        while let Some((from, to, msg)) = net.pop() {
            cluster.deliver(from, to, msg, &mut net);
        }
        let q = &cluster.machines[proposer as usize];
        prop_assert_eq!(q.decided(InstanceId { victim, seq: 0 }).map(|d| d.successor), Some(2));
        prop_assert_eq!(q.decided(InstanceId { victim, seq: 1 }).map(|d| d.successor), Some(3));
        prop_assert_eq!(q.decided_for(victim).map(|(seq, d)| (seq, d.successor)), Some((1, 3)));
        Ok(())
    });
}

// ---- gossip ------------------------------------------------------------

fn merge(into: &mut Digest, from: &Digest) {
    into.mem_epoch = into.mem_epoch.max(from.mem_epoch);
    if from.gvt > into.gvt {
        into.gvt = from.gvt;
    }
    for &(v, floor) in &from.evictions {
        if !into.evictions.iter().any(|(iv, _)| *iv == v) {
            into.evictions.push((v, floor));
        }
    }
    into.evictions.sort_by_key(|a| a.0);
}

#[test]
fn gossip_converges_within_bounded_rounds() {
    check_with(chaos_cases(), "gossip_converges_within_bounded_rounds", |s| {
        let n = s.usize_in(2..17);
        let seed = s.any_u64() ^ fault_seed();
        // A pool of evictions; each daemon starts knowing a random subset.
        let pool: Vec<(u16, f64)> =
            (0..s.usize_in(1..6)).map(|i| (i as u16 + 100, i as f64 * 0.5)).collect();
        let mut digests: Vec<Digest> = (0..n)
            .map(|_| {
                let known: Vec<(u16, f64)> =
                    pool.iter().copied().filter(|_| s.any_bool()).collect();
                Digest {
                    mem_epoch: known.len() as u32,
                    evictions: known,
                    code_hash: 7,
                    gvt: f64::from(s.u32_in(0..100)),
                }
            })
            .collect();
        let mut rngs: Vec<DetRng> =
            (0..n).map(|d| DetRng::new(seed).fork(0x605_5190 ^ d as u64)).collect();
        let alive = vec![true; n];

        let bound = 4 * (usize::BITS - n.leading_zeros()) as usize + 8;
        let mut rounds = 0;
        while rounds < bound {
            let all_equal = digests.windows(2).all(|w| w[0] == w[1]);
            if all_equal {
                break;
            }
            rounds += 1;
            for i in 0..n {
                let Some(peer) = pick_peer(&mut rngs[i], i as u16, &alive) else { continue };
                let peer = peer as usize;
                // Push: peer merges what i knows.
                let mine = digests[i].clone();
                merge(&mut digests[peer], &mine);
                // Pull: if the peer (now merged) knows more, it replies.
                if digests[peer].knows_more_than(&digests[i]) {
                    let theirs = digests[peer].clone();
                    merge(&mut digests[i], &theirs);
                }
            }
        }
        let all_equal = digests.windows(2).all(|w| w[0] == w[1]);
        prop_assert!(all_equal, "n={} digests still divergent after {} rounds", n, rounds);
        prop_assert!(rounds < bound, "n={} needed the full {} round budget", n, bound);
        Ok(())
    });
}
