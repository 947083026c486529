//! Network models.
//!
//! The paper's testbed was a 10 Mbit/s *shared* Ethernet: a single
//! broadcast medium on which only one frame can be in flight at a time.
//! At 32 hosts this medium saturates, which is part of why the PVM
//! manager/worker curves flatten. [`SharedBus`] models that; [`Switched`]
//! models a modern full-duplex switch (used in ablations); [`IdealNet`]
//! has latency but infinite bandwidth.
//!
//! All models guarantee FIFO delivery per `(src, dst)` pair, which the
//! daemon protocol in `msgr-core` relies on.

use crate::{SimTime, MILLI};

/// Identifier of a simulated host (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Aggregate traffic statistics kept by every network model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Number of messages transferred.
    pub messages: u64,
    /// Total payload bytes transferred (excluding modeled frame overhead).
    pub payload_bytes: u64,
    /// Total wire bytes transferred (payload plus per-message overhead).
    pub wire_bytes: u64,
    /// Accumulated queueing delay (time spent waiting for the medium).
    pub queueing_ns: SimTime,
}

/// A network model maps a send request to an arrival time, tracking
/// contention internally.
pub trait NetModel {
    /// Transfer `bytes` of payload from `src` to `dst`, with the send
    /// initiated at `now`. Returns the arrival time at `dst`.
    ///
    /// Local delivery (`src == dst`) bypasses the medium and costs only
    /// the model's loopback latency (usually 0).
    fn transfer(&mut self, now: SimTime, src: HostId, dst: HostId, bytes: u64) -> SimTime;

    /// Traffic statistics so far.
    fn stats(&self) -> NetStats;
}

/// Which network model a simulated cluster runs on. MESSENGERS
/// (`msgr_core::NetKind`) and the PVM baseline (`msgr_pvm::PvmNet`) both
/// re-export this one type, so the two systems are always compared on
/// the same medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetKind {
    /// 10 Mbit/s shared-bus Ethernet.
    Ethernet10,
    /// 100 Mbit/s shared-bus Ethernet — the testbed implied by the
    /// paper's absolute runtimes (see EXPERIMENTS.md calibration notes).
    Ethernet100,
    /// Full-duplex switched network with the given per-port bits/second.
    Switched {
        /// Per-port bandwidth in bits per second.
        bandwidth_bps: f64,
    },
    /// Infinite bandwidth, fixed latency (ablations and fast tests).
    Ideal,
}

impl NetKind {
    /// The model instance for a cluster of `hosts` hosts.
    pub fn build(self, hosts: usize) -> Box<dyn NetModel> {
        match self {
            // 1 ms end-to-end message latency (UDP stack + interrupt +
            // backoff slack), 60 bytes of framing per message.
            NetKind::Ethernet10 => Box::new(SharedBus::new(10e6, MILLI, 60)),
            // A late-90s 100BaseT hub: 0.5 ms end-to-end latency.
            NetKind::Ethernet100 => Box::new(SharedBus::new(100e6, MILLI / 2, 60)),
            NetKind::Switched { bandwidth_bps } => {
                Box::new(Switched::new(hosts, bandwidth_bps, MILLI / 10, 60))
            }
            NetKind::Ideal => Box::new(IdealNet::new(MILLI / 10)),
        }
    }
}

fn frame_time(bytes: u64, bandwidth_bps: f64) -> SimTime {
    ((bytes as f64 * 8.0 / bandwidth_bps) * 1e9).round() as SimTime
}

/// Classic shared-medium Ethernet: one transmission at a time, globally.
///
/// Time for a message = wait for the medium + `(bytes + overhead) * 8 /
/// bandwidth` + propagation latency. Collisions/backoff are abstracted
/// into the fixed per-message `latency`.
#[derive(Debug, Clone)]
pub struct SharedBus {
    bandwidth_bps: f64,
    latency: SimTime,
    per_message_overhead_bytes: u64,
    busy_until: SimTime,
    stats: NetStats,
}

impl SharedBus {
    /// A shared bus with the given raw bandwidth (bits/second),
    /// propagation+stack latency, and per-message header overhead.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn new(bandwidth_bps: f64, latency: SimTime, per_message_overhead_bytes: u64) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "invalid bandwidth {bandwidth_bps}"
        );
        SharedBus {
            bandwidth_bps,
            latency,
            per_message_overhead_bytes,
            busy_until: 0,
            stats: NetStats::default(),
        }
    }
}

impl NetModel for SharedBus {
    fn transfer(&mut self, now: SimTime, src: HostId, dst: HostId, bytes: u64) -> SimTime {
        self.stats.messages += 1;
        self.stats.payload_bytes += bytes;
        if src == dst {
            self.stats.wire_bytes += bytes;
            return now; // loopback: no medium involved
        }
        let wire = bytes + self.per_message_overhead_bytes;
        self.stats.wire_bytes += wire;
        let start = self.busy_until.max(now);
        self.stats.queueing_ns += start - now;
        let tx = frame_time(wire, self.bandwidth_bps);
        self.busy_until = start + tx;
        start + tx + self.latency
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

/// Full-duplex switched network: each host has an independent transmit
/// port and receive port; a message serializes on both in order.
#[derive(Debug, Clone)]
pub struct Switched {
    bandwidth_bps: f64,
    latency: SimTime,
    per_message_overhead_bytes: u64,
    tx_busy: Vec<SimTime>,
    rx_busy: Vec<SimTime>,
    stats: NetStats,
}

impl Switched {
    /// A switch connecting `hosts` hosts with per-port `bandwidth_bps`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn new(
        hosts: usize,
        bandwidth_bps: f64,
        latency: SimTime,
        per_message_overhead_bytes: u64,
    ) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "invalid bandwidth {bandwidth_bps}"
        );
        Switched {
            bandwidth_bps,
            latency,
            per_message_overhead_bytes,
            tx_busy: vec![0; hosts],
            rx_busy: vec![0; hosts],
            stats: NetStats::default(),
        }
    }
}

impl NetModel for Switched {
    fn transfer(&mut self, now: SimTime, src: HostId, dst: HostId, bytes: u64) -> SimTime {
        self.stats.messages += 1;
        self.stats.payload_bytes += bytes;
        if src == dst {
            self.stats.wire_bytes += bytes;
            return now;
        }
        let wire = bytes + self.per_message_overhead_bytes;
        self.stats.wire_bytes += wire;
        let tx_port = &mut self.tx_busy[src.0 as usize];
        let tx_start = (*tx_port).max(now);
        self.stats.queueing_ns += tx_start - now;
        let tx = frame_time(wire, self.bandwidth_bps);
        *tx_port = tx_start + tx;
        // The frame reaches the destination port after latency, then must
        // also serialize on the receive port.
        let rx_port = &mut self.rx_busy[dst.0 as usize];
        let rx_start = (*rx_port).max(tx_start + self.latency);
        *rx_port = rx_start + tx;
        rx_start + tx
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

/// Infinite-bandwidth network with a fixed latency. Useful for isolating
/// CPU effects in ablations and for fast functional tests.
#[derive(Debug, Clone, Default)]
pub struct IdealNet {
    latency: SimTime,
    stats: NetStats,
}

impl IdealNet {
    /// An ideal network with the given fixed latency.
    pub fn new(latency: SimTime) -> Self {
        IdealNet { latency, stats: NetStats::default() }
    }
}

impl NetModel for IdealNet {
    fn transfer(&mut self, now: SimTime, src: HostId, dst: HostId, bytes: u64) -> SimTime {
        self.stats.messages += 1;
        self.stats.payload_bytes += bytes;
        self.stats.wire_bytes += bytes;
        if src == dst {
            now
        } else {
            now + self.latency
        }
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H0: HostId = HostId(0);
    const H1: HostId = HostId(1);
    const H2: HostId = HostId(2);

    #[test]
    fn shared_bus_serializes_the_medium() {
        // 8 bits/ns would be absurd; use 1e9 bps = 1 bit/ns => 8 ns/byte.
        let mut bus = SharedBus::new(1e9, 5, 0);
        let a1 = bus.transfer(0, H0, H1, 100); // tx 800 ns + 5
        assert_eq!(a1, 805);
        // Second message from a different host must wait for the medium.
        let a2 = bus.transfer(0, H2, H1, 100);
        assert_eq!(a2, 1605);
        let s = bus.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.queueing_ns, 800);
    }

    #[test]
    fn shared_bus_loopback_is_free() {
        let mut bus = NetKind::Ethernet10.build(2);
        assert_eq!(bus.transfer(42, H0, H0, 1 << 20), 42);
        // Medium untouched: a real transfer starts immediately.
        let a = bus.transfer(42, H0, H1, 0);
        assert_eq!(a, 42 + frame_time(60, 10e6) + crate::MILLI);
    }

    #[test]
    fn shared_bus_overhead_bytes_counted() {
        let mut bus = SharedBus::new(8e9, 0, 40); // 1 ns/byte
        let a = bus.transfer(0, H0, H1, 60);
        assert_eq!(a, 100);
        assert_eq!(bus.stats().wire_bytes, 100);
        assert_eq!(bus.stats().payload_bytes, 60);
    }

    #[test]
    fn switched_ports_are_independent() {
        let mut sw = Switched::new(4, 8e9, 10, 0); // 1 ns/byte
                                                   // Two disjoint pairs transfer concurrently.
        let a = sw.transfer(0, H0, H1, 1000);
        let b = sw.transfer(0, H2, HostId(3), 1000);
        // Cut-through: arrival = tx_start + latency + frame time.
        assert_eq!(a, 10 + 1000);
        assert_eq!(b, a);
        assert_eq!(sw.stats().queueing_ns, 0);
    }

    #[test]
    fn switched_tx_port_serializes() {
        let mut sw = Switched::new(4, 8e9, 10, 0);
        let a = sw.transfer(0, H0, H1, 1000);
        let b = sw.transfer(0, H0, H2, 1000); // same sender: queues on tx
        assert_eq!(a, 1010);
        assert_eq!(b, 2010, "b should queue one frame time behind a");
        assert_eq!(sw.stats().queueing_ns, 1000);
    }

    #[test]
    fn switched_rx_port_serializes() {
        let mut sw = Switched::new(4, 8e9, 0, 0);
        let a = sw.transfer(0, H0, H1, 1000);
        let b = sw.transfer(0, H2, H1, 1000); // same receiver
        assert_eq!(a, 1000);
        assert_eq!(b, 2000); // rx busy until 1000, then 1000 ns frame
    }

    #[test]
    fn ethernet_presets_are_ordered_by_speed() {
        let mut e10 = NetKind::Ethernet10.build(2);
        let mut e100 = NetKind::Ethernet100.build(2);
        let t10 = e10.transfer(0, H0, H1, 100_000);
        let t100 = e100.transfer(0, H0, H1, 100_000);
        assert!(t100 < t10, "100 Mbit must be faster: {t100} vs {t10}");
    }

    #[test]
    fn fifo_per_pair_holds_on_all_models() {
        let mut models: Vec<Box<dyn NetModel>> = vec![
            NetKind::Ethernet10.build(4),
            Box::new(Switched::new(4, 10e6, crate::MILLI, 60)),
            Box::new(IdealNet::new(crate::MILLI)),
        ];
        for m in &mut models {
            let mut last = 0;
            for i in 0..20u64 {
                let t = m.transfer(i * 10, H0, H1, (i * 137) % 2000);
                assert!(t >= last, "FIFO violated: {t} < {last}");
                last = t;
            }
        }
    }

    #[test]
    fn ideal_net_has_no_contention() {
        let mut net = IdealNet::new(100);
        assert_eq!(net.transfer(0, H0, H1, 1 << 30), 100);
        assert_eq!(net.transfer(0, H1, H0, 1 << 30), 100);
        assert_eq!(net.transfer(7, H0, H0, 1), 7);
        assert_eq!(net.stats().messages, 3);
    }
}
