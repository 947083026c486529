//! Messenger state: the migrating entity itself.

use crate::bytecode::{FuncId, Program, ProgramId};
use crate::error::VmError;
use crate::value::Value;

/// Cluster-unique messenger identity. The high 16 bits are the daemon
/// that created the messenger, the low 48 a per-daemon counter; ids stay
/// unique without any coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MessengerId(pub u64);

impl MessengerId {
    /// Compose an id from a creating daemon and its local counter.
    pub fn compose(daemon: u16, counter: u64) -> Self {
        debug_assert!(counter < (1 << 48));
        MessengerId(((daemon as u64) << 48) | counter)
    }

    /// The daemon that created this messenger.
    pub fn creator(self) -> u16 {
        (self.0 >> 48) as u16
    }
}

impl From<u64> for MessengerId {
    fn from(v: u64) -> Self {
        MessengerId(v)
    }
}

impl std::fmt::Display for MessengerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}/{}", self.creator(), self.0 & 0xFFFF_FFFF_FFFF)
    }
}

/// Virtual time (§2.2): a totally ordered f64. The matrix-multiplication
/// application schedules at half ticks (0.5, 1.5, …), hence a float
/// rather than an integer tick counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vt(f64);

impl Vt {
    /// Virtual time zero — where injected messengers start.
    pub const ZERO: Vt = Vt(0.0);
    /// A value later than every legal virtual time.
    pub const INFINITY: Vt = Vt(f64::INFINITY);

    /// Wrap a float as a virtual time.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "virtual time cannot be NaN");
        Vt(t)
    }

    /// The raw float.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `self + dt`, saturating at NaN-free arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the result is NaN (e.g. ∞ + −∞).
    pub fn plus(self, dt: f64) -> Vt {
        Vt::new(self.0 + dt)
    }

    /// The smaller of two virtual times.
    pub fn min(self, other: Vt) -> Vt {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two virtual times.
    pub fn max(self, other: Vt) -> Vt {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Vt {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Vt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Vt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for Vt {
    fn from(t: f64) -> Self {
        Vt::new(t)
    }
}

impl std::fmt::Display for Vt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vt{}", self.0)
    }
}

/// One call frame: function, program counter, local slots (messenger
/// variables and parameters), and the operand stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The function being executed.
    pub func: FuncId,
    /// Index of the *next* instruction to execute.
    pub pc: u32,
    /// Local slots. Parameters occupy the first `arity` slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
}

impl Frame {
    /// A fresh frame for `func` with arguments moved into the first slots
    /// and the rest NULL.
    ///
    /// # Errors
    ///
    /// [`VmError::Corrupt`] if `func` is not in the program or has fewer
    /// slots than parameters (unverified code), [`VmError::Arity`] if
    /// `args` does not match its parameter count.
    pub fn activate(
        program: &Program,
        func: FuncId,
        args: impl ExactSizeIterator<Item = Value>,
    ) -> Result<Frame, VmError> {
        let f = program.func(func).ok_or(VmError::Corrupt("no such function"))?;
        if f.n_slots < u16::from(f.arity) {
            return Err(VmError::Corrupt("function has fewer slots than parameters"));
        }
        if args.len() != f.arity as usize {
            return Err(VmError::Arity {
                func: f.name.clone(),
                expected: f.arity,
                got: args.len() as u8,
            });
        }
        let mut locals = Vec::with_capacity(f.n_slots as usize);
        locals.extend(args);
        locals.resize(f.n_slots as usize, Value::Null);
        Ok(Frame { func, pc: 0, locals, stack: Vec::new() })
    }
}

/// The complete state of a Messenger: everything that migrates.
///
/// This is the paper's autonomous object, flattened into plain data. A
/// `hop` serializes this struct, ships it, and the receiving daemon
/// resumes interpretation at `frames.last().pc`. Cloning it replicates
/// the messenger (multi-link hops, `create(ALL)`); saving a copy enables
/// Time-Warp rollback.
#[derive(Debug, Clone, PartialEq)]
pub struct MessengerState {
    /// Cluster-unique identity. Replicas receive fresh ids from the
    /// daemon that performs the replication.
    pub id: MessengerId,
    /// Content hash of the program to interpret.
    pub program: ProgramId,
    /// The call stack. Never empty while the messenger is alive.
    pub frames: Vec<Frame>,
    /// Current virtual time (advanced by `M_sched_time_*`).
    pub vtime: Vt,
    /// Set when this is an anti-messenger chasing a positive one
    /// (optimistic virtual time, §2.2).
    pub anti: bool,
}

impl MessengerState {
    /// A fresh messenger at the entry function of `program`, virtual
    /// time 0. Hashes the program for its id: a caller that holds the id
    /// already (the code registry returned it) uses
    /// [`MessengerState::launch_registered`].
    ///
    /// # Errors
    ///
    /// As [`Frame::activate`] for the entry function.
    pub fn launch(program: &Program, id: MessengerId, args: &[Value]) -> Result<Self, VmError> {
        Self::launch_registered(program, program.id(), id, args)
    }

    /// [`MessengerState::launch`] for a program whose content id
    /// `program_id` is already known, so the program is not hashed again.
    ///
    /// # Errors
    ///
    /// As [`Frame::activate`] for the entry function.
    pub fn launch_registered(
        program: &Program,
        program_id: ProgramId,
        id: MessengerId,
        args: &[Value],
    ) -> Result<Self, VmError> {
        Ok(MessengerState {
            id,
            program: program_id,
            frames: vec![Frame::activate(program, program.entry, args.iter().cloned())?],
            vtime: Vt::ZERO,
            anti: false,
        })
    }

    /// Approximate serialized size in bytes — the migration payload a
    /// `hop` pays on the wire (excluding code, which is fetched from the
    /// shared code registry).
    pub fn wire_bytes(&self) -> u64 {
        let mut n = 8 + 8 + 8 + 2; // id, program, vtime, flags/counters
        for f in &self.frames {
            n += 8; // func, pc
            n += f.locals.iter().map(Value::wire_bytes).sum::<u64>();
            n += f.stack.iter().map(Value::wire_bytes).sum::<u64>();
        }
        n
    }

    /// The currently active frame.
    ///
    /// # Panics
    ///
    /// Panics if the messenger has terminated (empty call stack).
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("messenger has no active frame")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Builder, Op};

    fn prog2() -> Program {
        let mut b = Builder::new();
        let f = b.function("main", 2, 1, vec![Op::Ret]);
        b.finish(f)
    }

    #[test]
    fn messenger_id_composition() {
        let id = MessengerId::compose(7, 42);
        assert_eq!(id.creator(), 7);
        assert_eq!(id.0 & 0xFFFF_FFFF_FFFF, 42);
        assert_eq!(id.to_string(), "m7/42");
    }

    #[test]
    fn vt_total_order() {
        let a = Vt::new(0.5);
        let b = Vt::new(1.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(Vt::ZERO < Vt::INFINITY);
        assert_eq!(Vt::new(1.0).plus(0.5), Vt::new(1.5));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn vt_rejects_nan() {
        let _ = Vt::new(f64::NAN);
    }

    #[test]
    fn launch_binds_args() {
        let p = prog2();
        let m =
            MessengerState::launch(&p, MessengerId(1), &[Value::Int(3), Value::str("s")]).unwrap();
        assert_eq!(m.frames.len(), 1);
        assert_eq!(m.frame().locals, vec![Value::Int(3), Value::str("s"), Value::Null]);
        assert_eq!(m.vtime, Vt::ZERO);
        assert!(!m.anti);
    }

    #[test]
    fn launch_checks_arity() {
        let p = prog2();
        let err = MessengerState::launch(&p, MessengerId(1), &[]).unwrap_err();
        assert!(matches!(err, VmError::Arity { expected: 2, got: 0, .. }));
    }

    #[test]
    fn launch_refuses_an_entry_it_cannot_activate() {
        let mut p = prog2();
        p.funcs[0].n_slots = 1;
        let args = [Value::Int(3), Value::Int(4)];
        let err = MessengerState::launch(&p, MessengerId(1), &args).unwrap_err();
        assert!(matches!(err, VmError::Corrupt(_)), "{err:?}");
        p.entry = FuncId(1);
        let err = MessengerState::launch(&p, MessengerId(1), &args).unwrap_err();
        assert!(matches!(err, VmError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn wire_bytes_grow_with_payload() {
        let p = prog2();
        let small = MessengerState::launch(&p, MessengerId(1), &[Value::Int(1), Value::Int(2)])
            .unwrap()
            .wire_bytes();
        let big = MessengerState::launch(
            &p,
            MessengerId(1),
            &[Value::Mat(crate::value::Matrix::zeros(100, 100)), Value::Int(2)],
        )
        .unwrap()
        .wire_bytes();
        assert!(big > small + 8 * 100 * 100 - 64);
    }
}
