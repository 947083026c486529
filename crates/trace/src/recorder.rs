//! The per-daemon flight recorder: a bounded ring of [`TraceEvent`]s
//! with drop accounting.
//!
//! Each daemon owns one recorder. The platform stamps the recorder's
//! clock (`set_now`) before handing control to the daemon, the daemon
//! emits events as it works, and the platform drains the ring at the end
//! of the run. The ring is bounded so tracing a pathological run cannot
//! exhaust memory: when full, the *oldest* event is dropped and counted,
//! flight-recorder style — the most recent window before a crash is
//! exactly what post-mortem debugging needs.
//!
//! The recorder survives `gut`-style volatile-state destruction on a
//! daemon kill: the platform owns the drain, so a killed daemon's last
//! window of events still reaches the trace ("flush on crash").

use std::collections::VecDeque;

use crate::event::{EventKind, TraceEvent};

/// Tracing configuration, carried in the cluster config.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Master switch; with it off every recorder call is a cheap no-op.
    pub enabled: bool,
    /// Ring capacity per daemon (events). When the ring is full the
    /// oldest event is dropped and counted in [`FlightRecorder::dropped`].
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, capacity: 65_536 }
    }
}

impl TraceConfig {
    /// An enabled config with default capacity.
    pub fn on() -> Self {
        TraceConfig { enabled: true, ..TraceConfig::default() }
    }
}

/// A bounded event ring for one daemon.
#[derive(Debug)]
pub struct FlightRecorder {
    daemon: u16,
    enabled: bool,
    capacity: usize,
    seq: u64,
    now: u64,
    gvt: f64,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder for `daemon` per `cfg`.
    pub fn new(daemon: u16, cfg: &TraceConfig) -> Self {
        FlightRecorder {
            daemon,
            enabled: cfg.enabled,
            capacity: cfg.capacity.max(1),
            seq: 0,
            now: 0,
            gvt: 0.0,
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether events are being recorded at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The daemon this recorder belongs to.
    pub fn daemon(&self) -> u16 {
        self.daemon
    }

    /// Stamp the platform clock used for subsequent events.
    pub fn set_now(&mut self, rt: u64) {
        self.now = rt;
    }

    /// The last stamped platform clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Stamp the daemon's current GVT estimate.
    pub fn set_gvt(&mut self, gvt: f64) {
        self.gvt = gvt;
    }

    /// Record one event at messenger virtual time `vt`.
    pub fn emit(&mut self, vt: f64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.seq += 1;
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent {
            daemon: self.daemon,
            seq: self.seq,
            rt: self.now,
            vt,
            gvt: self.gvt,
            kind,
        });
    }

    /// Record a system event (no messenger attached): `vt` is stamped
    /// with the daemon's GVT estimate.
    pub fn emit_sys(&mut self, kind: EventKind) {
        let gvt = self.gvt;
        self.emit(gvt, kind);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped to the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the ring (oldest first) and its drop count, leaving the
    /// recorder empty but still armed.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let events = std::mem::take(&mut self.ring).into();
        (events, std::mem::take(&mut self.dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut r = FlightRecorder::new(0, &TraceConfig::default());
        assert!(!r.enabled());
        r.emit(0.0, EventKind::Kill);
        assert!(r.is_empty());
        assert_eq!(r.drain().0.len(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let cfg = TraceConfig { enabled: true, capacity: 3 };
        let mut r = FlightRecorder::new(2, &cfg);
        for i in 0..5u64 {
            r.set_now(i * 10);
            r.emit(0.0, EventKind::MsgrInject { mid: i });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let (events, dropped) = r.drain();
        assert_eq!(dropped, 2);
        // The survivors are the newest three, in order, with monotone seq.
        let mids: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::MsgrInject { mid } => mid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(mids, [2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events[0].daemon, 2);
        // Drained recorder stays armed.
        r.emit(0.0, EventKind::Kill);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn stamps_now_and_gvt() {
        let mut r = FlightRecorder::new(1, &TraceConfig::on());
        r.set_now(777);
        r.set_gvt(1.5);
        r.emit(2.0, EventKind::MsgrRetire { mid: 4 });
        r.emit_sys(EventKind::Checkpoint { bytes: 10 });
        let (ev, _) = r.drain();
        assert_eq!(ev[0].rt, 777);
        assert_eq!(ev[0].vt, 2.0);
        assert_eq!(ev[0].gvt, 1.5);
        assert_eq!(ev[1].vt, 1.5, "system events stamp vt = gvt");
    }
}
