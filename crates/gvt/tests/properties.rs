//! Property-based tests on the virtual-time machinery.

use std::collections::BTreeMap;

use msgr_check::{check, check_with, prop_assert, prop_assert_eq, Config, Source};

use msgr_gvt::{
    Cancel, Coordinator, CoordinatorAction, CtrlMsg, Participant, Rollback, TimeWarp, TwEntry,
    TwNode,
};
use msgr_vm::Vt;

// ---- Time-Warp log -----------------------------------------------------------

/// Feed a random interleaving of record/straggler operations through a
/// TwNode alongside a naive oracle (a sorted list); the node's view of
/// "what has been processed" must always match the oracle.
#[test]
fn tw_log_matches_oracle() {
    check("tw_log_matches_oracle", |s: &mut Source| {
        let ops = s.vec_with(1..64, |s| (s.f64_in(0.0, 64.0), s.u64_in(1..1000)));
        let mut node: TwNode<u64, u64> = TwNode::default();
        let mut oracle: Vec<(Vt, u64)> = Vec::new(); // processed keys, sorted
        let mut recorded: BTreeMap<(Vt, u64), u64> = BTreeMap::new(); // key -> pre_state
        let mut version: u64 = 0;

        for (t, id) in ops {
            let key = (Vt::new(t), id);
            if oracle.contains(&key) {
                continue; // ids are unique per event in the real system
            }
            if node.is_straggler(key) {
                // Roll back everything at or after the straggler.
                let rb = node.rollback(key).expect("straggler implies rollback");
                let undone = oracle.iter().filter(|k| **k >= key).count();
                prop_assert_eq!(rb.reexecute.len(), undone);
                // The one snapshot that comes back is the pre-state of
                // the earliest undone event.
                let earliest = oracle.iter().find(|k| **k >= key).expect("undone nonempty");
                prop_assert_eq!(rb.restore, recorded[earliest]);
                oracle.retain(|k| *k < key);
            }
            version += 1;
            recorded.insert(key, version);
            node.record(TwEntry { key, pre_state: version, input: id, sent: vec![] });
            oracle.push(key);
            oracle.sort();
            prop_assert_eq!(node.last_key(), oracle.last().copied());
            prop_assert_eq!(node.log_len(), oracle.len());
        }
        Ok(())
    });
}

#[test]
fn fossil_collection_never_loses_the_tail() {
    check("fossil_collection_never_loses_the_tail", |s: &mut Source| {
        let times = s.vec_with(1..64, |s| s.f64_in(0.0, 100.0));
        let gvt = s.f64_in(0.0, 120.0);
        let mut node: TwNode<(), u32> = TwNode::default();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        for (i, t) in sorted.iter().enumerate() {
            node.record(TwEntry {
                key: (Vt::new(*t), i as u64),
                pre_state: (),
                input: 0,
                sent: vec![],
            });
        }
        let before = node.log_len();
        let reclaimed = node.fossil_collect(Vt::new(gvt));
        prop_assert_eq!(node.log_len() + reclaimed, before);
        prop_assert!(node.log_len() >= 1, "at least one entry retained");
        // Everything still rollback-able is at or after the oldest
        // retained entry; a straggler above GVT must still be servable.
        let last = node.last_key().unwrap();
        if last.0 > Vt::new(gvt) {
            prop_assert!(node.rollback(last).is_some());
        }
        Ok(())
    });
}

// ---- Time-Warp scheduler -------------------------------------------------------

/// An event of the scheduler model: (chain, depth). Chain `c` starts with
/// messenger `c + 1`; each event at depth `d` of a chain sends the event
/// at depth `d + 1`, if the chain has one.
type Ev = (usize, usize);

/// A frame in flight to the scheduler: a positive messenger or an
/// anti-messenger, each with its id and virtual time.
enum Frame {
    Pos(u64, Ev),
    Anti(u64, Vt),
}

/// One node state folded with one event's timestamp, order-sensitively.
fn fold(state: u64, t: Vt) -> u64 {
    (state ^ t.as_f64().to_bits()).wrapping_mul(0x100000001b3)
}

/// The host's half of a rollback: restore the node, queue the undone
/// inputs again, and put the anti-messengers in flight.
fn undo(
    tw: &mut TimeWarp<u8, u64, (u64, Ev)>,
    chains: &[Vec<(Vt, u8)>],
    states: &mut [u64],
    flight: &mut Vec<Frame>,
    at: u8,
    rb: Rollback<u64, (u64, Ev)>,
) {
    states[at as usize] = rb.restore;
    for (key, (id, (c, d))) in rb.reexecute {
        tw.push(key, chains[c][d].1, (id, (c, d)));
    }
    flight.extend(rb.cancel.into_iter().map(|sent| Frame::Anti(sent.id, sent.ts)));
}

/// Feed a `TimeWarp` over 2–3 nodes a random arrival order of chains of
/// timestamped events, each folding its timestamp into its node's state
/// and sending the next event of its chain. Some chains are cancelled
/// from outside by an anti-messenger for their first event, which may
/// arrive before it; rollbacks cancel what they undo the same way, and
/// every frame in flight is delivered in random order. GVT advances
/// (with fossil collection) under everything queued or in flight. Once
/// drained, every node's state is the in-order fold over the events of
/// the chains that were not cancelled.
#[test]
fn time_warp_matches_in_order_execution() {
    check_with(Config::with_cases(256), "time_warp_matches_in_order_execution", |s| {
        let nodes = s.usize_in(2..4);
        // Timestamps are unique: the fraction names (chain, depth), and
        // each event is at least one tick after the one that sent it.
        let chains: Vec<Vec<(Vt, u8)>> = (0..s.usize_in(1..9))
            .map(|c| {
                let (mut tick, depth) = (s.u64_in(0..16), s.usize_in(1..4));
                (0..depth)
                    .map(|d| {
                        tick += s.u64_in(1..6);
                        let t = tick as f64 + (c * 4 + d + 1) as f64 / 64.0;
                        (Vt::new(t), s.usize_in(0..nodes) as u8)
                    })
                    .collect()
            })
            .collect();
        let cancelled: Vec<bool> = chains.iter().map(|_| s.bool_with(0.3)).collect();

        let mut tw: TimeWarp<u8, u64, (u64, Ev)> = TimeWarp::default();
        let mut states = vec![0u64; nodes];
        let mut flight: Vec<Frame> =
            (0..chains.len()).map(|c| Frame::Pos(c as u64 + 1, (c, 0))).collect();
        for c in (0..chains.len()).filter(|&c| cancelled[c]) {
            flight.push(Frame::Anti(c as u64 + 1, chains[c][0].0));
        }
        let mut fresh = 1000u64;
        for step in 0.. {
            prop_assert!(step < 100_000, "no progress after {step} steps");
            if flight.is_empty() && tw.is_empty() {
                break;
            }
            if !flight.is_empty() && (tw.is_empty() || s.any_bool()) {
                match flight.swap_remove(s.usize_in(0..flight.len())) {
                    Frame::Pos(id, (c, d)) if !tw.cancelled(id) => {
                        tw.push((chains[c][d].0, id), chains[c][d].1, (id, (c, d)));
                    }
                    Frame::Pos(..) => {}
                    Frame::Anti(id, _) => {
                        if let Cancel::RolledBack(at, rb) = tw.annihilate(id) {
                            undo(&mut tw, &chains, &mut states, &mut flight, at, rb);
                        }
                    }
                }
            } else {
                let ((id, (c, d)), rollback) = tw.pop().expect("queue not empty");
                let (t, at) = chains[c][d];
                if let Some(rb) = rollback {
                    undo(&mut tw, &chains, &mut states, &mut flight, at, rb);
                    tw.push((t, id), at, (id, (c, d)));
                    continue;
                }
                let pre = states[at as usize];
                states[at as usize] = fold(pre, t);
                if let Some(&(next_t, _)) = chains[c].get(d + 1) {
                    fresh += 1;
                    tw.sent(fresh, 0, next_t);
                    flight.push(Frame::Pos(fresh, (c, d + 1)));
                }
                tw.record((t, id), at, pre, (id, (c, d)));
            }
            let in_flight = flight.iter().map(|f| match f {
                Frame::Pos(_, (c, d)) => chains[*c][*d].0,
                Frame::Anti(_, ts) => *ts,
            });
            tw.fossil_collect(in_flight.fold(tw.min(), Vt::min));
        }

        let mut expect = vec![0u64; nodes];
        let mut survivors: Vec<(Vt, u8)> = (0..chains.len())
            .filter(|&c| !cancelled[c])
            .flat_map(|c| chains[c].iter().copied())
            .collect();
        survivors.sort_by_key(|&(t, _)| t);
        for (t, at) in survivors {
            expect[at as usize] = fold(expect[at as usize], t);
        }
        prop_assert_eq!(states, expect);
        Ok(())
    });
}

// ---- GVT protocol --------------------------------------------------------------

/// A quiescent system (no messages in flight, all counters consistent)
/// must complete a round in one wave and report exactly the minimum.
#[test]
fn quiescent_round_reports_exact_minimum() {
    check("quiescent_round_reports_exact_minimum", |s: &mut Source| {
        let mins = s.vec_with(1..48, |s| s.f64_in(0.0, 1e6));
        let n = mins.len();
        let mut coord = Coordinator::new(n);
        let mut parts: Vec<Participant> = (0..n as u16).map(Participant::new).collect();
        let CtrlMsg::Cut { round } = coord.begin_round().unwrap() else { unreachable!() };
        let mut outcome = None;
        for (p, &m) in parts.iter_mut().zip(&mins) {
            let ack = p.on_cut(round, Vt::new(m));
            if let CoordinatorAction::Advance { gvt } = coord.on_ack(&ack) {
                outcome = Some(gvt);
            }
        }
        let expect = mins.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(outcome, Some(Vt::new(expect)));
        Ok(())
    });
}

/// Messages recorded through on_send/on_receive in matched pairs keep
/// the books balanced: the next quiescent round still completes
/// without polling.
#[test]
fn balanced_traffic_needs_no_polling() {
    check("balanced_traffic_needs_no_polling", |s: &mut Source| {
        let transfers = s.vec_with(0..64, |s| (s.u8_in(0..8), s.u8_in(0..8), s.f64_in(0.0, 100.0)));
        let n = 8;
        let mut coord = Coordinator::new(n);
        let mut parts: Vec<Participant> = (0..n as u16).map(Participant::new).collect();
        for (src, dst, t) in transfers {
            let stamp = parts[src as usize].stamp();
            parts[src as usize].on_send(Vt::new(t));
            parts[dst as usize].on_receive(stamp, Vt::new(t));
        }
        let CtrlMsg::Cut { round } = coord.begin_round().unwrap() else { unreachable!() };
        let mut done = false;
        for p in parts.iter_mut() {
            let ack = p.on_cut(round, Vt::new(50.0));
            match coord.on_ack(&ack) {
                CoordinatorAction::Advance { .. } => done = true,
                CoordinatorAction::PollAll { .. } => {
                    prop_assert!(false, "balanced books must not poll");
                }
                CoordinatorAction::Wait => {}
            }
        }
        prop_assert!(done);
        prop_assert_eq!(coord.polls_sent(), 0);
        Ok(())
    });
}
