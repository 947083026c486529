//! Time-Warp (optimistic virtual time) support.
//!
//! §2.2: "Optimistic approaches permit processors to advance their local
//! virtual times at their own pace but require that a computation be
//! rolled back if a 'straggler' Messenger arrives … This, in turn, may
//! require the sending of 'anti-Messengers' to cancel Messengers that
//! departed during the time that is being rolled back."
//!
//! The unit of rollback is the *logical node* (the classical Time-Warp
//! "logical process"): between two navigational statements a messenger
//! reads and writes exactly one node's variables, so an execution segment
//! is an event at that node. [`TwNode`] keeps, per node, the log of
//! processed events: the node-variable snapshot taken *before* each
//! event, the input messenger as it arrived (messengers are plain data —
//! see `msgr-vm` — so re-execution is literally re-enqueueing the saved
//! state), and references to every messenger the event sent (for
//! anti-messenger generation).
//!
//! [`TimeWarp`] is the optimistic scheduler of one host: the event queue,
//! every node's log, the anti-messengers that beat their positive copy,
//! and what the running event has sent. Its host runs what
//! [`TimeWarp::pop`] hands out and, when a rollback comes with it,
//! restores the node, queues the undone inputs again and sends the
//! anti-messengers; the scheduler knows nothing of wires, counters or
//! what a node holds.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;

use msgr_vm::Vt;

/// The ordering key of an event: timestamp, then a deterministic
/// tiebreaker (we use the messenger id), so all daemons agree on event
/// order even at equal virtual times.
pub type EventKey = (Vt, u64);

/// A reference to a messenger sent by a processed event — enough to
/// chase it with an anti-messenger.
#[derive(Debug, Clone, PartialEq)]
pub struct SentRef {
    /// The sent messenger's id.
    pub id: u64,
    /// The daemon it was sent to.
    pub dest: u16,
    /// The messenger's virtual time — carried on the anti-messenger so
    /// GVT accounting stays tight (an anti with timestamp 0 would pin
    /// the GVT estimate at 0 forever).
    pub ts: Vt,
}

/// One processed event in a node's log.
#[derive(Debug, Clone)]
pub struct TwEntry<S, M> {
    /// Ordering key (timestamp, messenger id).
    pub key: EventKey,
    /// Node-variable snapshot taken before the event executed.
    pub pre_state: S,
    /// The input messenger exactly as it arrived (for re-execution).
    pub input: M,
    /// Messengers sent by this event.
    pub sent: Vec<SentRef>,
}

/// What a rollback of one [`TwNode`] demands.
#[derive(Debug, Clone)]
pub struct Rollback<S, M> {
    /// The snapshot taken before the earliest undone event: the state to
    /// restore.
    pub restore: S,
    /// Re-enqueue these input messengers (in key order).
    pub reexecute: Vec<(EventKey, M)>,
    /// Send anti-messengers for these.
    pub cancel: Vec<SentRef>,
}

/// The Time-Warp log of one logical node.
#[derive(Debug, Clone)]
pub struct TwNode<S, M> {
    processed: Vec<TwEntry<S, M>>, // ascending by key
}

impl<S, M> Default for TwNode<S, M> {
    /// A node with an empty event log.
    fn default() -> Self {
        TwNode { processed: Vec::new() }
    }
}

impl<S, M> TwNode<S, M> {
    /// The key of the most recent processed event.
    pub fn last_key(&self) -> Option<EventKey> {
        self.processed.last().map(|e| e.key)
    }

    /// Whether an arriving event with `key` is a straggler (arrives in
    /// this node's past).
    pub fn is_straggler(&self, key: EventKey) -> bool {
        self.last_key().is_some_and(|last| key < last)
    }

    /// Number of retained log entries.
    pub fn log_len(&self) -> usize {
        self.processed.len()
    }

    /// Record a processed event.
    ///
    /// # Panics
    ///
    /// Panics if `entry.key` is not strictly greater than the last
    /// recorded key — the daemon must roll back first.
    pub fn record(&mut self, entry: TwEntry<S, M>) {
        let (key, last) = (entry.key, self.last_key());
        assert!(last < Some(key), "recording event {key:?} at or before last processed {last:?}");
        self.processed.push(entry);
    }

    /// Undo every processed event with key `>= key`. Returns `None` if
    /// nothing needs undoing.
    pub fn rollback(&mut self, key: EventKey) -> Option<Rollback<S, M>> {
        let cut = self.processed.partition_point(|e| e.key < key);
        let mut undone = self.processed.drain(cut..);
        let first = undone.next()?;
        let mut cancel = first.sent;
        let mut reexecute = vec![(first.key, first.input)];
        for e in undone {
            cancel.extend(e.sent);
            reexecute.push((e.key, e.input));
        }
        Some(Rollback { restore: first.pre_state, reexecute, cancel })
    }

    /// Handle an anti-messenger whose positive copy was already
    /// processed here: roll back from that event, *discarding* the
    /// annihilated input rather than re-executing it. `None` if no
    /// logged event had that input.
    pub fn annihilate_processed(&mut self, input_id: u64) -> Option<Rollback<S, M>> {
        let key = self.processed.iter().find(|e| e.key.1 == input_id)?.key;
        let mut rb = self.rollback(key)?;
        rb.reexecute.retain(|(k, _)| k.1 != input_id);
        Some(rb)
    }

    /// Drop log entries with timestamps strictly below `gvt`; they can
    /// never be rolled back again. Returns how many were reclaimed.
    pub fn fossil_collect(&mut self, gvt: Vt) -> usize {
        let cut = self.processed.partition_point(|e| e.key.0 < gvt);
        // Keep at least one entry: its pre_state may still be needed if an
        // event at exactly `gvt` must be rolled back.
        let cut = cut.min(self.processed.len().saturating_sub(1));
        self.processed.drain(..cut);
        cut
    }
}

/// What an anti-messenger did, as [`TimeWarp::annihilate`] reports it.
#[derive(Debug, Clone)]
pub enum Cancel<N, S, M> {
    /// Its positive copy was still queued, and is gone.
    Dequeued,
    /// Its positive copy had run at node `N`, which rolled back; the
    /// positive is not among the inputs to queue again.
    RolledBack(N, Rollback<S, M>),
    /// Its positive copy has not arrived; [`TimeWarp::cancelled`] says so
    /// when it does.
    Stashed,
}

/// The optimistic scheduler of one host, over nodes `N`, node states `S`
/// and events (input messengers) `M`.
#[derive(Debug)]
pub struct TimeWarp<N, S, M> {
    /// Events to run, in key order, each with the node it runs at.
    queue: BTreeMap<EventKey, (N, M)>,
    /// Every node's log of processed events.
    logs: HashMap<N, TwNode<S, M>>,
    /// Ids whose anti-messenger arrived first.
    antis: HashSet<u64>,
    /// What the running event has sent so far.
    sent: Vec<SentRef>,
}

impl<N, S, M> Default for TimeWarp<N, S, M> {
    fn default() -> Self {
        TimeWarp {
            queue: BTreeMap::new(),
            logs: HashMap::new(),
            antis: HashSet::new(),
            sent: Vec::new(),
        }
    }
}

impl<N: Copy + Eq + Hash, S, M> TimeWarp<N, S, M> {
    /// Queue `event`, ordered by `key`, to run at node `at`.
    pub fn push(&mut self, key: EventKey, at: N, event: M) {
        self.queue.insert(key, (at, event));
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The earliest queued timestamp (infinite when none is): the host's
    /// contribution to GVT.
    pub fn min(&self) -> Vt {
        self.queue.first_key_value().map_or(Vt::INFINITY, |(key, _)| key.0)
    }

    /// The queued events, in key order.
    pub fn queued(&self) -> impl Iterator<Item = &M> {
        self.queue.values().map(|(_, event)| event)
    }

    /// Take the earliest event. Alone, it is to run and then be logged
    /// with [`TimeWarp::record`]. With a rollback, it is a straggler that
    /// reached its node's past, and the node rolled back: the host
    /// restores the node's state, queues the event and the undone inputs
    /// again, and sends the anti-messengers.
    pub fn pop(&mut self) -> Option<(M, Option<Rollback<S, M>>)> {
        let (key, (at, event)) = self.queue.pop_first()?;
        Some((event, self.logs.get_mut(&at).and_then(|log| log.rollback(key))))
    }

    /// The running event sent messenger `id`, at virtual time `ts`, to
    /// daemon `dest`.
    pub fn sent(&mut self, id: u64, dest: u16, ts: Vt) {
        self.sent.push(SentRef { id, dest, ts });
    }

    /// Log the event that ran with `key` at node `at`, with everything it
    /// sent: that node's state before it ran and its input as it arrived.
    pub fn record(&mut self, key: EventKey, at: N, pre_state: S, input: M) {
        let sent = std::mem::take(&mut self.sent);
        self.logs.entry(at).or_default().record(TwEntry { key, pre_state, input, sent });
    }

    /// An anti-messenger for messenger `id` arrived.
    pub fn annihilate(&mut self, id: u64) -> Cancel<N, S, M> {
        if let Some(key) = self.queue.keys().find(|key| key.1 == id).copied() {
            self.queue.remove(&key);
            return Cancel::Dequeued;
        }
        let processed = self.logs.iter_mut().find_map(|(&at, log)| {
            log.annihilate_processed(id).map(|rb| Cancel::RolledBack(at, rb))
        });
        processed.unwrap_or_else(|| {
            self.antis.insert(id);
            Cancel::Stashed
        })
    }

    /// Whether messenger `id`, just arrived, was annihilated by an
    /// anti-messenger that beat it here. The stashed anti is spent.
    pub fn cancelled(&mut self, id: u64) -> bool {
        self.antis.remove(&id)
    }

    /// Drop the log entries no rollback can reach once GVT is `gvt`.
    pub fn fossil_collect(&mut self, gvt: Vt) {
        for log in self.logs.values_mut() {
            log.fossil_collect(gvt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Node = TwNode<i64, &'static str>;

    fn key(t: f64, id: u64) -> EventKey {
        (Vt::new(t), id)
    }

    fn entry(
        t: f64,
        id: u64,
        pre: i64,
        input: &'static str,
        sent: Vec<SentRef>,
    ) -> TwEntry<i64, &'static str> {
        TwEntry { key: key(t, id), pre_state: pre, input, sent }
    }

    #[test]
    fn straggler_detection() {
        let mut n = Node::default();
        assert!(!n.is_straggler(key(1.0, 1)));
        n.record(entry(1.0, 1, 0, "a", vec![]));
        n.record(entry(2.0, 2, 10, "b", vec![]));
        assert!(n.is_straggler(key(1.5, 9)));
        assert!(!n.is_straggler(key(2.5, 1)));
        // Equal timestamp: tiebreak by id.
        assert!(n.is_straggler(key(2.0, 1)));
        assert!(!n.is_straggler(key(2.0, 3)));
    }

    #[test]
    fn rollback_restores_earliest_pre_state_and_cancels_sends() {
        let mut n = Node::default();
        n.record(entry(1.0, 1, 100, "e1", vec![SentRef { id: 11, dest: 2, ts: Vt::new(1.0) }]));
        n.record(entry(2.0, 2, 200, "e2", vec![SentRef { id: 22, dest: 3, ts: Vt::new(2.0) }]));
        n.record(entry(3.0, 3, 300, "e3", vec![]));
        let rb = n.rollback(key(2.0, 0)).unwrap();
        assert_eq!(rb.restore, 200); // e2's pre-state: the earliest undone
        assert_eq!(rb.reexecute, vec![(key(2.0, 2), "e2"), (key(3.0, 3), "e3")]);
        assert_eq!(rb.cancel, vec![SentRef { id: 22, dest: 3, ts: Vt::new(2.0) }]);
        assert_eq!(n.last_key(), Some(key(1.0, 1)));
    }

    #[test]
    fn rollback_of_future_is_noop() {
        let mut n = Node::default();
        n.record(entry(1.0, 1, 0, "a", vec![]));
        assert!(n.rollback(key(5.0, 0)).is_none());
    }

    #[test]
    fn rollback_everything() {
        let mut n = Node::default();
        n.record(entry(1.0, 1, 7, "a", vec![]));
        n.record(entry(2.0, 2, 8, "b", vec![]));
        let rb = n.rollback(key(0.0, 0)).unwrap();
        assert_eq!(rb.restore, 7);
        assert_eq!(rb.reexecute.len(), 2);
        assert_eq!(n.last_key(), None);
    }

    #[test]
    fn annihilate_processed_discards_the_victim() {
        let mut n = Node::default();
        n.record(entry(1.0, 1, 7, "a", vec![]));
        n.record(entry(2.0, 42, 8, "victim", vec![SentRef { id: 9, dest: 1, ts: Vt::new(2.0) }]));
        n.record(entry(3.0, 3, 9, "c", vec![]));
        let rb = n.annihilate_processed(42).unwrap();
        // The victim's own pre-state comes back; "victim" is gone and "c"
        // gets re-executed.
        assert_eq!(rb.restore, 8);
        assert_eq!(rb.reexecute, vec![(key(3.0, 3), "c")]);
        assert_eq!(rb.cancel, vec![SentRef { id: 9, dest: 1, ts: Vt::new(2.0) }]);
        assert!(n.annihilate_processed(42).is_none());
    }

    #[test]
    #[should_panic(expected = "at or before last processed")]
    fn out_of_order_record_panics() {
        let mut n = Node::default();
        n.record(entry(2.0, 2, 0, "a", vec![]));
        n.record(entry(1.0, 1, 0, "b", vec![]));
    }

    #[test]
    fn fossil_collection_keeps_a_safety_entry() {
        let mut n = Node::default();
        for i in 0..10u64 {
            n.record(entry(i as f64, i, i as i64, "e", vec![]));
        }
        let reclaimed = n.fossil_collect(Vt::new(5.0));
        assert_eq!(reclaimed, 5);
        assert_eq!(n.log_len(), 5);
        // Collecting everything still retains the newest entry.
        let _ = n.fossil_collect(Vt::new(100.0));
        assert_eq!(n.log_len(), 1);
        // Rollback at the retained entry still works.
        assert!(n.rollback(key(9.0, 0)).is_some());
    }

    #[test]
    fn rollback_then_reprocess_in_order() {
        let mut n = Node::default();
        n.record(entry(1.0, 1, 0, "a", vec![]));
        n.record(entry(3.0, 3, 10, "c", vec![]));
        // Straggler at t=2 arrives.
        assert!(n.is_straggler(key(2.0, 2)));
        let rb = n.rollback(key(2.0, 2)).unwrap();
        assert_eq!(rb.restore, 10);
        // Daemon would now execute t=2 then re-execute t=3.
        n.record(entry(2.0, 2, 10, "b", vec![]));
        n.record(entry(3.0, 3, 20, "c", vec![]));
        assert_eq!(n.last_key(), Some(key(3.0, 3)));
    }
}
