//! Property-based tests on the virtual-time machinery.

use std::collections::BTreeMap;

use msgr_check::{check, prop_assert, prop_assert_eq, Source};

use msgr_gvt::{Coordinator, CoordinatorAction, CtrlMsg, Participant, TwEntry, TwNode};
use msgr_vm::Vt;

// ---- Time-Warp log -----------------------------------------------------------

/// Feed a random interleaving of record/straggler operations through a
/// TwNode alongside a naive oracle (a sorted list); the node's view of
/// "what has been processed" must always match the oracle.
#[test]
fn tw_log_matches_oracle() {
    check("tw_log_matches_oracle", |s: &mut Source| {
        let ops = s.vec_with(1..64, |s| (s.f64_in(0.0, 64.0), s.u64_in(1..1000)));
        let mut node: TwNode<u64, u64> = TwNode::new();
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
        let mut node: TwNode<(), u32> = TwNode::new();
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
