//! # msgr-vm — the MESSENGERS bytecode virtual machine
//!
//! The paper's Messenger scripts are "written in a subset of C and …
//! compiled into a form of byte code for more efficient transport and
//! parsing" (§2.1). This crate defines that byte code and interprets it.
//!
//! The crucial design point — and the answer to "how do you migrate a
//! computation in Rust?" — is that a running Messenger is *data*, not a
//! thread: a [`MessengerState`] holds the program hash, a stack of call
//! frames (program counter, locals, operand stack), the messenger's
//! virtual time, and nothing else. Migrating a Messenger means encoding
//! that struct ([`wire`]), shipping the bytes, and resuming
//! interpretation on the destination daemon. Rollback in optimistic
//! virtual time is equally simple: restore a saved copy of the state.
//!
//! The interpreter ([`interp::run`]) executes until the Messenger
//! *yields*: at a navigational statement (`hop` / `create` / `delete`), a
//! virtual-time suspension (`M_sched_time_abs` / `M_sched_time_dlt`), or
//! termination. What happens next (matching links, replicating the
//! state, transferring it) is the daemon's job — see `msgr-core`. This
//! mirrors the paper's non-preemptive scheduling policy: "a daemon will
//! interrupt a Messenger only when it issues a navigational command".
//!
//! ## Example: hand-assembled program
//!
//! ```
//! use msgr_vm::{Builder, Op, Value, MessengerState, interp, NullEnv, Yield};
//!
//! // fn main() { return 2 + 3; }
//! let mut b = Builder::new();
//! let two = b.constant(Value::Int(2));
//! let three = b.constant(Value::Int(3));
//! let f = b.function("main", 0, 0, vec![
//!     Op::Const(two), Op::Const(three), Op::Add, Op::Ret,
//! ]);
//! let program = b.finish(f);
//! let mut m = MessengerState::launch(&program, 1.into(), &[]).unwrap();
//! let y = interp::run(&program, &mut m, &mut NullEnv, 1_000).unwrap();
//! assert_eq!(y, Yield::Terminated(Value::Int(5)));
//! ```

#![warn(missing_docs)]

#[doc(hidden)]
pub mod binop;
mod bytecode;
pub mod bytes;
pub mod compile;
mod error;
pub mod interp;
mod natives;
mod state;
mod value;
pub mod wire;

pub use bytecode::{
    Builder, CreateItem, CreateSpec, Dir, FuncId, Function, HopSpec, LinkPat, NamePat, NetVar,
    NodePat, Op, Program, ProgramId,
};
pub use bytes::{Bytes, BytesMut};
pub use compile::CompiledProgram;
pub use error::VmError;
pub use interp::{Env, EvalCreate, EvalCreateItem, EvalHop, EvalLink, MapEnv, NullEnv, Yield};
pub use natives::{NativeCtx, NativeFn, NativeRegistry};
pub use state::{Frame, MessengerId, MessengerState, Vt};
pub use value::{LinkInstance, Matrix, Value};
