//! Native ("precompiled C") functions.
//!
//! The paper's third statement category: "Function invocation statements
//! … permit the dynamic loading and invocation of precompiled C
//! functions to be executed in native mode" (§2.1). Here natives are
//! Rust closures registered under a name; applications (Mandelbrot,
//! matrix multiplication) register `compute`, `next_task`,
//! `block_multiply`, etc.
//!
//! A native runs atomically within the messenger's current execution
//! segment (the daemon never interrupts it — the paper's critical-section
//! guarantee) and reports its *cost* through [`NativeCtx::charge`] so the
//! simulation platform can account for the work.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::VmError;
use crate::state::{MessengerId, Vt};
use crate::value::Value;

/// What a native function can see and do: the node it runs at, shared
/// node variables, and cost accounting.
pub trait NativeCtx {
    /// Read a node variable of the current logical node (NULL if unset).
    fn node_var(&mut self, name: &str) -> Value;
    /// Write a node variable of the current logical node.
    fn set_node_var(&mut self, name: &str, v: Value);
    /// Charge `ref_ns` reference-nanoseconds of CPU work for this
    /// segment (no-op on the threaded platform, where time is real).
    fn charge(&mut self, ref_ns: u64);
    /// The daemon (host) this node lives on.
    fn daemon(&self) -> u16;
    /// The name of the current logical node.
    fn node_name(&self) -> Value;
    /// The calling messenger's id.
    fn messenger(&self) -> MessengerId;
    /// The calling messenger's virtual time.
    fn vtime(&self) -> Vt;
}

/// A registered native function.
pub type NativeFn =
    Arc<dyn Fn(&mut dyn NativeCtx, &[Value]) -> Result<Value, String> + Send + Sync>;

/// Name → native function table, shared by all daemons of a cluster
/// (they all "link against the same precompiled functions").
#[derive(Clone, Default)]
pub struct NativeRegistry {
    map: HashMap<String, NativeFn>,
}

impl std::fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.map.keys().collect();
        names.sort();
        f.debug_struct("NativeRegistry").field("names", &names).finish()
    }
}

impl NativeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        NativeRegistry::default()
    }

    /// Register `f` under `name`, replacing any previous registration.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut dyn NativeCtx, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) {
        self.map.insert(name.into(), Arc::new(f));
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Registered names, sorted (for diagnostics).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.map.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Invoke a native.
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownNative`] if unregistered; [`VmError::Native`] if
    /// the function itself fails.
    pub fn call(
        &self,
        ctx: &mut dyn NativeCtx,
        name: &str,
        args: &[Value],
    ) -> Result<Value, VmError> {
        // Borrowed, not cloned: every daemon calls through this one
        // table, and a clone would write the function's shared refcount.
        let f = self.map.get(name).ok_or_else(|| VmError::UnknownNative(name.to_string()))?;
        f(ctx, args).map_err(VmError::Native)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ctx {
        vars: HashMap<String, Value>,
        charged: u64,
    }
    impl NativeCtx for Ctx {
        fn node_var(&mut self, name: &str) -> Value {
            self.vars.get(name).cloned().unwrap_or_default()
        }
        fn set_node_var(&mut self, name: &str, v: Value) {
            self.vars.insert(name.to_string(), v);
        }
        fn charge(&mut self, ref_ns: u64) {
            self.charged += ref_ns;
        }
        fn daemon(&self) -> u16 {
            3
        }
        fn node_name(&self) -> Value {
            Value::str("init")
        }
        fn messenger(&self) -> MessengerId {
            MessengerId(9)
        }
        fn vtime(&self) -> Vt {
            Vt::ZERO
        }
    }

    #[test]
    fn register_and_call() {
        let mut reg = NativeRegistry::new();
        reg.register("bump", |ctx, args| {
            let by = args[0].as_int().map_err(|e| e.to_string())?;
            let cur = ctx.node_var("n").as_int().unwrap_or(0);
            ctx.set_node_var("n", Value::Int(cur + by));
            ctx.charge(100);
            Ok(Value::Int(cur + by))
        });
        assert!(reg.contains("bump"));
        let mut ctx = Ctx { vars: HashMap::new(), charged: 0 };
        let v = reg.call(&mut ctx, "bump", &[Value::Int(5)]).unwrap();
        assert_eq!(v, Value::Int(5));
        let v = reg.call(&mut ctx, "bump", &[Value::Int(2)]).unwrap();
        assert_eq!(v, Value::Int(7));
        assert_eq!(ctx.charged, 200);
    }

    #[test]
    fn unknown_native_error() {
        let reg = NativeRegistry::new();
        let mut ctx = Ctx { vars: HashMap::new(), charged: 0 };
        assert!(matches!(reg.call(&mut ctx, "nope", &[]), Err(VmError::UnknownNative(_))));
    }

    #[test]
    fn native_failure_is_wrapped() {
        let mut reg = NativeRegistry::new();
        reg.register("fail", |_, _| Err("boom".to_string()));
        let mut ctx = Ctx { vars: HashMap::new(), charged: 0 };
        assert_eq!(reg.call(&mut ctx, "fail", &[]), Err(VmError::Native("boom".to_string())));
    }

    #[test]
    fn names_sorted() {
        let mut reg = NativeRegistry::new();
        reg.register("b", |_, _| Ok(Value::Null));
        reg.register("a", |_, _| Ok(Value::Null));
        assert_eq!(reg.names(), vec!["a", "b"]);
    }
}
