//! # msgr-sim — deterministic discrete-event cluster simulator
//!
//! This crate is the hardware substrate for the MESSENGERS reproduction.
//! The paper evaluated on an Ethernet LAN of SPARCstation 5s with 1–32
//! machines; we do not have that testbed, so we simulate it: a virtual
//! clock in integer nanoseconds, per-host CPUs modeled as FIFO resources,
//! and pluggable network models (shared-bus Ethernet with medium
//! contention, a full-duplex switch, and an ideal network).
//!
//! The simulator is *deterministic*: events are ordered by
//! `(time, insertion sequence)`, and all randomness goes through a seeded
//! [`DetRng`]. Running the same scenario twice produces identical event
//! traces, which the test suite relies on.
//!
//! ## Example
//!
//! ```
//! use msgr_sim::{Engine, SECOND};
//!
//! // The "world" is any user state threaded through event callbacks.
//! let mut engine: Engine<u64> = Engine::new();
//! engine.schedule_in(3 * SECOND, |en, hits| {
//!     *hits += 1;
//!     en.schedule_in(SECOND, |_, hits| *hits += 1);
//! });
//! let mut hits = 0u64;
//! engine.run(&mut hits);
//! assert_eq!(hits, 2);
//! assert_eq!(engine.now(), 4 * SECOND);
//! ```

#![warn(missing_docs)]

mod cpu;
mod engine;
mod fault;
mod net;
mod rng;
mod stats;

pub use cpu::Cpu;
pub use engine::{Engine, SimTime};
pub use fault::{CrashEvent, FaultInjector, FaultPlan, FrameFate};
pub use net::{HostId, IdealNet, NetKind, NetModel, NetStats, SharedBus, Switched};
pub use rng::DetRng;
pub use stats::{install_key_validator, Counter, Histogram, Stats};

/// One microsecond in simulator time units (the unit is nanoseconds).
pub const MICRO: SimTime = 1_000;
/// One millisecond in simulator time units.
pub const MILLI: SimTime = 1_000_000;
/// One second in simulator time units.
pub const SECOND: SimTime = 1_000_000_000;

/// Convert a simulator time to floating-point seconds (for reporting).
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / SECOND as f64
}

/// Convert floating-point seconds to simulator time, saturating at zero.
pub fn from_secs(s: f64) -> SimTime {
    if s <= 0.0 {
        0
    } else {
        (s * SECOND as f64).round() as SimTime
    }
}

/// The clock a run's reported seconds were read on. The two never mix:
/// a claim about a run names its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// This simulator's clock: the calibrated 1997 cost model,
    /// deterministic, the one the paper's figures plot. It says nothing
    /// about how fast the host ran the simulation.
    Simulated,
    /// The host's wall clock: real elapsed time, noisy.
    Wall,
}

impl std::fmt::Display for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Clock::Simulated => "simulated",
            Clock::Wall => "wall",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_trip() {
        assert_eq!(from_secs(1.5), 1_500_000_000);
        assert!((to_secs(2_500_000_000) - 2.5).abs() < 1e-12);
        assert_eq!(from_secs(-1.0), 0);
        assert_eq!(from_secs(0.0), 0);
    }
}
