//! Reliable transport: per-channel sequence numbers, retransmission
//! buffers and receive-side resequencing — every sequencing decision a
//! daemon makes, as one pure state machine.
//!
//! [`Xport`] knows nothing of metrics, trace events or platform effects:
//! each step takes the transport state and one input (a payload to seal,
//! a data frame, an ack, a timer) and returns the new state plus an
//! outcome the daemon turns into counters, events and effects. Its
//! fields are private, so the invariants hold by construction: a sequence
//! number is handed to the receiver's upper layer exactly once and in
//! order, and a frame leaves the retransmit buffer only by an ack or by
//! exhausting its attempts.
//!
//! Channels are keyed by the *original* `(sender, receiver)` pair, not by
//! the physical peer. At steady state the two coincide; after a failover
//! the successor adopts the dead daemon's channels under their original
//! keys ([`Xport::adopt`]), so sequencing — and therefore exactly-once
//! delivery — survives re-homing.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use msgr_sim::{DetRng, SimTime};
use msgr_vm::bytes::{Bytes, BytesMut};
use msgr_vm::{wire as vmwire, VmError, Vt};

use crate::config::RetransmitPolicy;
use crate::ids::DaemonId;
use crate::wire::{self as wirecodec, Migration, Wire};

/// The live messenger a frame carries, looking through a transport
/// envelope. Control frames and anti-messengers carry none.
pub(crate) fn carried(w: &Wire) -> Option<&Migration> {
    match w {
        Wire::Migrate(m) if !m.anti => Some(m),
        Wire::Create(cn) => Some(&cn.messenger),
        Wire::Data { frame, .. } => carried(frame),
        _ => None,
    }
}

/// The virtual-time floor a frame pins: losing or resurrecting
/// it (via retransmit or checkpoint restore) re-injects work at this
/// virtual time.
pub(crate) fn frame_vtime(w: &Wire) -> Vt {
    carried(w).map_or(Vt::INFINITY, |m| m.vtime)
}

fn floor<'a>(frames: impl Iterator<Item = &'a Wire>) -> Vt {
    frames.map(frame_vtime).fold(Vt::INFINITY, Vt::min)
}

/// An unacknowledged [`Wire::Data`] frame held for retransmission. The
/// envelope keeps the fully serialized payload — for a migrating
/// messenger this *is* its last snapshot, so a crash of the receiving
/// daemon merely delays the retransmit that re-injects the messenger.
///
/// Only the frame is durable: a checkpoint does not save the retry
/// state, and [`Xport::adopt`] re-arms an adopted frame from scratch.
#[derive(Debug, Clone, PartialEq)]
struct Unacked {
    frame: Wire,
    attempts: u32,
    first_sent: SimTime,
    /// Backed-off delay to arm on the *next* retransmission.
    rto: SimTime,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct PeerSend {
    next_seq: u64,
    unacked: BTreeMap<u64, Unacked>,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct PeerRecv {
    /// Highest sequence delivered with no gaps.
    cum: u64,
    /// Out-of-order frames held back until the gap below them fills, so
    /// delivery stays FIFO per pair even when the network reorders.
    /// Anything `<= cum` or currently held here is a duplicate.
    held: BTreeMap<u64, Wire>,
}

/// What [`Xport::on_data`] made of one incoming data frame.
#[derive(Debug)]
pub(crate) struct Delivery {
    /// `false` for a duplicate (already delivered, or already held).
    pub(crate) fresh: bool,
    /// The payload frames this arrival releases, in sequence order.
    pub(crate) ready: Vec<Wire>,
    /// Highest sequence now delivered with no gaps — the ack's `cum`.
    pub(crate) cum: u64,
}

/// What [`Xport::on_timer`] decided about one retransmission timer.
#[derive(Debug)]
pub(crate) enum TimerOutcome {
    /// The frame was acknowledged in the meantime: nothing to do.
    Stale,
    /// Send `frame` again and re-arm the timer after `delay`.
    Resend {
        /// The sealed frame, as first sent.
        frame: Wire,
        /// Transmissions so far, this one included.
        attempt: u32,
        /// Backed-off timeout plus jitter.
        delay: SimTime,
    },
    /// `max_attempts` transmissions went unanswered: the frame is dropped
    /// from the retransmit buffer for good.
    GaveUp {
        /// The abandoned frame.
        frame: Wire,
        /// Transmissions made.
        attempts: u32,
    },
}

/// An adopted unacknowledged frame: [`Xport::adopt`] re-armed it and the
/// caller must send it towards the channel's current owner.
#[derive(Debug)]
pub(crate) struct Redirect {
    pub(crate) src: DaemonId,
    pub(crate) chan: DaemonId,
    pub(crate) seq: u64,
    pub(crate) frame: Wire,
    /// Delay of the timer to arm for it.
    pub(crate) delay: SimTime,
}

/// Per-daemon reliable-delivery state. Exists only when the cluster
/// config has an active fault plan; otherwise frames travel bare.
#[derive(Debug)]
pub(crate) struct Xport {
    policy: RetransmitPolicy,
    rng: DetRng,
    chans: Channels,
    /// Acks `(src, chan, seq)` held back until the next checkpoint flush
    /// (recovery only), so a sender drops a frame from its retransmit
    /// buffer only once the delivery is pinned in a snapshot here.
    deferred: Vec<(DaemonId, DaemonId, u64)>,
}

fn jitter(policy: &RetransmitPolicy, rng: &mut DetRng) -> SimTime {
    if policy.jitter > 0 {
        rng.below(policy.jitter)
    } else {
        0
    }
}

impl Xport {
    pub(crate) fn new(policy: RetransmitPolicy, rng: DetRng) -> Self {
        Xport { policy, rng, chans: Channels::default(), deferred: Vec::new() }
    }

    /// Envelope `frame` as the next sequence number of channel
    /// `(me, chan)` and buffer it for retransmission. Returns the sealed
    /// frame, its sequence number and the delay of its first timer.
    pub(crate) fn seal(
        &mut self,
        me: DaemonId,
        chan: DaemonId,
        frame: Wire,
        now: SimTime,
    ) -> (Wire, u64, SimTime) {
        let p = self.chans.send.entry((me.0, chan.0)).or_default();
        p.next_seq += 1;
        let seq = p.next_seq;
        let data = Wire::Data { src: me, chan, seq, frame: Box::new(frame) };
        let rto = self.policy.rto;
        p.unacked.insert(seq, Unacked { frame: data.clone(), attempts: 1, first_sent: now, rto });
        (data, seq, rto + jitter(&self.policy, &mut self.rng))
    }

    /// Accept data frame `seq` of channel `(src, chan)`: a fresh one is
    /// stashed, and everything now deliverable in order comes out.
    pub(crate) fn on_data(
        &mut self,
        src: DaemonId,
        chan: DaemonId,
        seq: u64,
        frame: Wire,
    ) -> Delivery {
        let r = self.chans.recv.entry((src.0, chan.0)).or_default();
        let fresh = seq > r.cum && !r.held.contains_key(&seq);
        let mut ready = Vec::new();
        if fresh {
            r.held.insert(seq, frame);
            while let Some(f) = r.held.remove(&(r.cum + 1)) {
                r.cum += 1;
                ready.push(f);
            }
        }
        Delivery { fresh, ready, cum: r.cum }
    }

    /// Hold the ack for `(src, chan, seq)` until [`Xport::flush_acks`].
    pub(crate) fn defer_ack(&mut self, src: DaemonId, chan: DaemonId, seq: u64) {
        self.deferred.push((src, chan, seq));
    }

    /// Number of acks held back by [`Xport::defer_ack`].
    pub(crate) fn deferred_acks(&self) -> usize {
        self.deferred.len()
    }

    /// Release the deferred acks, each carrying the cumulative sequence
    /// number its channel has reached *now*, paired with the channel's
    /// sender (whose current owner the ack is for).
    pub(crate) fn flush_acks(&mut self) -> impl Iterator<Item = (DaemonId, Wire)> + '_ {
        let recv = &self.chans.recv;
        self.deferred.drain(..).map(move |(src, chan, seq)| {
            let cum = recv.get(&(src.0, chan.0)).map_or(0, |r| r.cum);
            (src, Wire::Ack { src, chan, cum, seq })
        })
    }

    /// Process an ack: drop everything `<= cum` plus the specific `seq`.
    /// Returns the first-send times of newly acknowledged frames.
    pub(crate) fn on_ack(
        &mut self,
        src: DaemonId,
        chan: DaemonId,
        cum: u64,
        seq: u64,
    ) -> Vec<SimTime> {
        let Some(p) = self.chans.send.get_mut(&(src.0, chan.0)) else {
            return Vec::new();
        };
        let mut acked = Vec::new();
        while let Some(e) = p.unacked.first_entry() {
            if *e.key() > cum {
                break;
            }
            acked.push(e.remove().first_sent);
        }
        if let Some(u) = p.unacked.remove(&seq) {
            acked.push(u.first_sent);
        }
        acked
    }

    /// The retransmission timer of frame `seq` on channel `(src, chan)`
    /// fired. A still-unacknowledged frame is resent with doubled timeout
    /// (plus deterministic jitter) or — after `max_attempts`
    /// transmissions — abandoned.
    pub(crate) fn on_timer(&mut self, src: DaemonId, chan: DaemonId, seq: u64) -> TimerOutcome {
        let Xport { policy, rng, chans, .. } = self;
        let slot = chans.send.get_mut(&(src.0, chan.0)).map(|p| p.unacked.entry(seq));
        let Some(Entry::Occupied(mut e)) = slot else {
            return TimerOutcome::Stale;
        };
        let jitter = jitter(policy, rng);
        if e.get().attempts >= policy.max_attempts {
            let u = e.remove();
            return TimerOutcome::GaveUp { frame: u.frame, attempts: u.attempts };
        }
        let u = e.get_mut();
        u.attempts += 1;
        let delay = u.rto + jitter;
        u.rto = (u.rto * 2).min(policy.max_rto);
        TimerOutcome::Resend { frame: u.frame.clone(), attempt: u.attempts, delay }
    }

    /// Number of sent frames not yet acknowledged.
    pub(crate) fn outstanding(&self) -> u64 {
        self.chans.send.values().map(|p| p.unacked.len() as u64).sum()
    }

    /// The channels as a checkpoint holds them. The retransmit buffers
    /// double as the redo log of every send not yet durable at its
    /// receiver.
    pub(crate) fn channels(&self) -> &Channels {
        &self.chans
    }

    /// Failover: take over `channels` under their original keys. Sequence
    /// marks only ever move forward; every adopted unacknowledged frame
    /// is re-armed as a first transmission at `now` and returned once, to
    /// be redirected to its channel's current owner.
    pub(crate) fn adopt(&mut self, channels: Channels, now: SimTime) -> Vec<Redirect> {
        let rto = self.policy.rto;
        let mut resend = Vec::new();
        for ((s, c), saved) in channels.send {
            let p = self.chans.send.entry((s, c)).or_default();
            p.next_seq = p.next_seq.max(saved.next_seq);
            for (seq, Unacked { frame, .. }) in saved.unacked {
                let u = Unacked { frame: frame.clone(), attempts: 1, first_sent: now, rto };
                p.unacked.insert(seq, u);
                let delay = rto + jitter(&self.policy, &mut self.rng);
                resend.push(Redirect { src: DaemonId(s), chan: DaemonId(c), seq, frame, delay });
            }
        }
        for (key, saved) in channels.recv {
            let r = self.chans.recv.entry(key).or_default();
            r.cum = r.cum.max(saved.cum);
            r.held.extend(saved.held);
        }
        resend
    }

    /// Forget everything (the daemon was killed).
    pub(crate) fn clear(&mut self) {
        self.chans = Channels::default();
        self.deferred.clear();
    }
}

/// Every channel of one daemon, by `(sender, receiver)` key: what the
/// live transport runs on, what a checkpoint's channel section holds, and
/// what [`Xport::adopt`] takes over.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Channels {
    send: BTreeMap<(u16, u16), PeerSend>,
    recv: BTreeMap<(u16, u16), PeerRecv>,
}

/// One channel: its key, its sequence mark (next to send, or highest
/// delivered in order), and the frames it retains by sequence number.
fn put_chan<'a>(
    buf: &mut BytesMut,
    (s, c): (u16, u16),
    mark: u64,
    frames: impl ExactSizeIterator<Item = (&'a u64, &'a Wire)>,
) {
    buf.put_varint(s.into());
    buf.put_varint(c.into());
    buf.put_varint(mark);
    buf.put_seq(frames, |buf, (&seq, frame)| {
        buf.put_varint(seq);
        buf.put_bytes(&wirecodec::encode_frame(frame));
    });
}

/// [`put_chan`]'s inverse: `(key, mark, frames)`.
type Chan = ((u16, u16), u64, Vec<(u64, Wire)>);

fn get_chan(buf: &mut Bytes) -> Result<Chan, VmError> {
    Ok((
        (buf.read_u16()?, buf.read_u16()?),
        buf.read_varint()?,
        buf.read_seq(vmwire::MAX_SEQ, |buf| {
            Ok((buf.read_varint()?, wirecodec::decode_frame(buf.read_bytes()?)?))
        })?,
    ))
}

impl Channels {
    /// Append the channel section of a checkpoint to `buf`.
    pub(crate) fn put(&self, buf: &mut BytesMut) {
        buf.put_seq(self.send.iter(), |buf, (&key, p)| {
            put_chan(buf, key, p.next_seq, p.unacked.iter().map(|(seq, u)| (seq, &u.frame)));
        });
        buf.put_seq(self.recv.iter(), |buf, (&key, r)| put_chan(buf, key, r.cum, r.held.iter()));
    }

    /// Read the section back. The retry state of an unacknowledged frame
    /// is not part of it and reads as zero.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] on any malformed input.
    pub(crate) fn get(buf: &mut Bytes) -> Result<Channels, VmError> {
        let mut channels = Channels::default();
        for (key, next_seq, frames) in buf.read_seq(vmwire::MAX_SEQ, get_chan)? {
            let saved = |frame| Unacked { frame, attempts: 0, first_sent: 0, rto: 0 };
            let unacked = frames.into_iter().map(|(seq, f)| (seq, saved(f))).collect();
            channels.send.insert(key, PeerSend { next_seq, unacked });
        }
        for (key, cum, frames) in buf.read_seq(vmwire::MAX_SEQ, get_chan)? {
            channels.recv.insert(key, PeerRecv { cum, held: frames.into_iter().collect() });
        }
        Ok(channels)
    }

    /// The minimum virtual time an unacknowledged frame would re-inject.
    pub(crate) fn floor_of_unacked(&self) -> Vt {
        floor(self.send.values().flat_map(|p| p.unacked.values()).map(|u| &u.frame))
    }

    /// The minimum virtual time held out of order in the resequencing
    /// buffers (their senders drop these frames once the deferred acks go
    /// out, so after a flush a snapshot is their only copy).
    pub(crate) fn floor_of_held(&self) -> Vt {
        floor(self.recv.values().flat_map(|r| r.held.values()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeRef;
    use msgr_check::{check, prop_assert, prop_assert_eq, Source};
    use msgr_vm::LinkInstance;

    const A: DaemonId = DaemonId(0);
    const B: DaemonId = DaemonId(1);

    fn xport(max_attempts: u32) -> Xport {
        let policy = RetransmitPolicy { rto: 30, max_rto: 240, jitter: 2, max_attempts };
        Xport::new(policy, DetRng::new(7))
    }

    /// A distinct, self-describing payload frame.
    fn payload(i: u64) -> Wire {
        Wire::Unlink { node: NodeRef::new(0, i), inst: LinkInstance(i) }
    }

    /// A sender with `n` sealed frames on channel `A → B`, plus the frames.
    fn sealed(n: u64) -> (Xport, Vec<Wire>) {
        let mut a = xport(u32::MAX);
        let frames = (1..=n).map(|i| a.seal(A, B, payload(i), 0).0).collect();
        (a, frames)
    }

    /// Run `frames` from `a` to a fresh receiver through a network that
    /// drops, duplicates and reorders by the draws of `s`, retransmitting
    /// on timers whenever it runs dry. Returns the receiver and what it
    /// handed up, in hand-up order.
    fn run_lossy(s: &mut Source, a: &mut Xport, frames: Vec<Wire>) -> (Xport, Vec<Wire>) {
        let mut b = xport(u32::MAX);
        let mut net = frames;
        let mut delivered = Vec::new();
        let mut chaos = 400; // then the network turns reliable, so the run ends
        while a.outstanding() > 0 {
            if net.is_empty() {
                for seq in 1..=a.chans.send[&(A.0, B.0)].next_seq {
                    if let TimerOutcome::Resend { frame, .. } = a.on_timer(A, B, seq) {
                        net.push(frame);
                    }
                }
                continue;
            }
            let frame = net.swap_remove(s.usize_in(0..net.len())); // reorder
            let fate = if chaos > 0 { s.u8_in(0..4) } else { 3 };
            chaos -= i32::from(chaos > 0);
            match fate {
                0 => continue,                // dropped
                1 => net.push(frame.clone()), // duplicated
                _ => {}
            }
            match frame {
                Wire::Data { src, chan, seq, frame } => {
                    let d = b.on_data(src, chan, seq, *frame);
                    delivered.extend(d.ready);
                    net.push(Wire::Ack { src, chan, cum: d.cum, seq });
                }
                Wire::Ack { src, chan, cum, seq } => drop(a.on_ack(src, chan, cum, seq)),
                other => unreachable!("{other:?} on the transport network"),
            }
        }
        (b, delivered)
    }

    #[test]
    fn every_frame_is_delivered_exactly_once_and_in_order() {
        check("xport_exactly_once_in_order", |s| {
            let n = s.u64_in(1..12);
            let (mut a, frames) = sealed(n);
            let (b, delivered) = run_lossy(s, &mut a, frames);
            prop_assert_eq!(delivered, (1..=n).map(payload).collect::<Vec<_>>());
            prop_assert_eq!(a.outstanding(), 0);
            prop_assert!(b.chans.recv[&(A.0, B.0)].held.is_empty(), "nothing left out of order");
            prop_assert_eq!(b.chans.recv[&(A.0, B.0)].cum, n);
            Ok(())
        });
    }

    #[test]
    fn an_ack_is_idempotent() {
        let (mut a, _) = sealed(3);
        assert_eq!(a.on_ack(A, B, 0, 2).len(), 1, "selective ack of frame 2");
        assert!(a.on_ack(A, B, 0, 2).is_empty());
        assert_eq!(a.on_ack(A, B, 3, 3).len(), 2, "cumulative ack of the rest");
        assert!(a.on_ack(A, B, 3, 3).is_empty());
        assert!(a.on_ack(B, A, 9, 9).is_empty(), "an ack for a channel never sent on");
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn max_attempts_timers_yield_exactly_one_gave_up() {
        let mut a = xport(4);
        let (sealed, seq, delay) = a.seal(A, B, payload(1), 5);
        assert!((30..32).contains(&delay), "rto plus jitter, got {delay}");
        let mut rto = 30;
        for attempt in 2..=4 {
            let TimerOutcome::Resend { frame, attempt: n, delay } = a.on_timer(A, B, seq) else {
                panic!("attempt {attempt} must resend");
            };
            assert_eq!((frame, n), (sealed.clone(), attempt));
            assert!((rto..rto + 2).contains(&delay), "backed-off {rto} plus jitter, got {delay}");
            rto = (rto * 2).min(240);
        }
        let TimerOutcome::GaveUp { frame, attempts } = a.on_timer(A, B, seq) else {
            panic!("the fourth timer must give up");
        };
        assert_eq!((frame, attempts), (sealed, 4));
        assert_eq!(a.outstanding(), 0);
        assert!(matches!(a.on_timer(A, B, seq), TimerOutcome::Stale), "and only once");
    }

    /// A daemon-`B` transport mid-run: frames 1–3 unacknowledged towards
    /// `A`, and frames 2 and 4 from `A` held behind the missing 1.
    fn mid_run() -> Xport {
        let mut b = xport(u32::MAX);
        for i in 1..=3 {
            b.seal(B, A, payload(i), 10);
        }
        for seq in [4, 2] {
            assert!(b.on_data(A, B, seq, payload(seq)).ready.is_empty());
        }
        b
    }

    #[test]
    fn the_channel_section_round_trips() {
        let put = |c: &Channels| {
            let mut buf = BytesMut::new();
            c.put(&mut buf);
            buf.freeze()
        };
        let get = |mut bytes: Bytes| {
            let read = Channels::get(&mut bytes).expect("decodes");
            assert!(bytes.is_empty(), "the section is read to its end");
            read
        };
        let live = mid_run();
        let bytes = put(live.channels());
        let saved = get(bytes.clone());
        assert_eq!(put(&saved).as_ref(), bytes.as_ref(), "put(get(b)) = b");
        assert_eq!(get(put(&saved)), saved, "get(put(x)) = x");
        // Everything durable came through; the retry state did not.
        assert_ne!(&saved, live.channels());
        assert_eq!(saved.recv, live.channels().recv);
        let frames = |c: &Channels| -> Vec<Wire> {
            c.send.values().flat_map(|p| p.unacked.values()).map(|u| u.frame.clone()).collect()
        };
        assert_eq!(frames(&saved), frames(live.channels()));
        assert_eq!(saved.floor_of_unacked().min(saved.floor_of_held()), Vt::INFINITY);
    }

    #[test]
    fn adopt_rearms_every_unacked_frame_once() {
        let victim = mid_run();
        let mut heir = xport(u32::MAX);
        heir.seal(B, A, payload(9), 0); // the heir's own mark must not move back
        let redirects = heir.adopt(victim.channels().clone(), 50);
        let seqs: Vec<_> = redirects.iter().map(|r| (r.src, r.chan, r.seq)).collect();
        assert_eq!(seqs, [(B, A, 1), (B, A, 2), (B, A, 3)]);
        assert!(redirects.iter().all(|r| (30..32).contains(&r.delay)));
        assert_eq!(heir.outstanding(), 3, "frame 1 is the victim's now");
        assert_eq!(heir.seal(B, A, payload(10), 60).1, 4, "sequencing continues past the mark");
        for r in &redirects {
            assert!(
                matches!(
                    heir.on_timer(r.src, r.chan, r.seq),
                    TimerOutcome::Resend { attempt: 2, .. }
                ),
                "adopted as a first transmission"
            );
        }
        // The held frames came along: filling the gap releases them in order.
        let d = heir.on_data(A, B, 1, payload(1));
        assert_eq!(d.ready, [payload(1), payload(2)]);
        assert_eq!(d.cum, 2);
        assert_eq!(heir.adopt(Channels::default(), 70).len(), 0);
    }
}
