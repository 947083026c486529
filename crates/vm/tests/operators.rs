//! The binary operators from outside the crate.
//!
//! Both engines run the same `binop` code, so the differential suite
//! (`diff_props.rs`) cannot see a wrong fast path there. The property
//! below can: on generated operand pairs over generated stacks, the
//! in-place stack forms must equal pop, pop, the reference
//! `arith`/`compare`, push, down to the error and the stack it leaves.
//!
//! The hot-loop walker is the `hotloop_ring` benchmark workload's
//! (`benchmark/src/workloads.rs`): a Mandelbrot orbit of float `+ - *`
//! and an int counter compared with `<`. Its first segment, launch to
//! the first hop, is the body the `vm.*_ns_per_op` probes time, so its
//! op count and final locals are pinned here on both engines.

use msgr_check::{check_with, prop_assert, Config, Source};
use msgr_vm::binop::{self, Arith, Cmp};
use msgr_vm::compile;
use msgr_vm::{interp, MapEnv, MessengerId, MessengerState, Value, VmError, Yield};

/// Mostly ints and floats, edge values and small divisors included, so
/// the fast paths and the int zero divisor are hit often; sometimes any
/// other kind the reference has a rule for.
fn arb_value(s: &mut Source) -> Value {
    match s.u64_in(0..20) {
        0..=8 => Value::Int(if s.bool_with(0.3) {
            // Near the ends of the range, and past 2^53, where ints stop
            // widening to distinct floats.
            let base = *s.pick(&[0, 1 << 53, i64::MAX - 2, i64::MIN + 2]);
            base.wrapping_add(s.i64_in(-3..4))
        } else {
            s.i64_in(-20..20)
        }),
        9..=17 => Value::Float(if s.bool_with(0.3) {
            *s.pick(&[0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
        } else {
            s.f64_in(-20.0, 20.0)
        }),
        18 => s.pick(&[Value::Null, Value::Bool(false), Value::Bool(true)]).clone(),
        _ => Value::str(s.string(0..3, "ab")),
    }
}

/// A right operand: often a neighbour of `a`, so ties, near-ties and
/// signed zeros reach the comparisons.
fn arb_rhs(s: &mut Source, a: &Value) -> Value {
    if !s.bool_with(0.3) {
        return arb_value(s);
    }
    match a {
        Value::Int(x) => Value::Int(x.wrapping_add(s.i64_in(-1..2))),
        Value::Float(x) => Value::Float(*s.pick(&[*x, -*x, *x + 1.0])),
        other => other.clone(),
    }
}

/// Floats compared by bits, so NaN equals itself and `-0.0` differs
/// from `0.0`.
fn same(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

/// The reference stack step: pop `b`, pop `a`, push `f(a, b)`.
fn pop_pop_push(
    stack: &mut Vec<Value>,
    f: impl FnOnce(Value, Value) -> Result<Value, VmError>,
) -> Result<(), VmError> {
    let underflow = VmError::Corrupt("operand stack underflow");
    let b = stack.pop().ok_or(underflow.clone())?;
    let a = stack.pop().ok_or(underflow)?;
    stack.push(f(a, b)?);
    Ok(())
}

#[test]
fn stack_operators_equal_pop_pop_reference_push() {
    const ARITH: [Arith; 5] = [Arith::Add, Arith::Sub, Arith::Mul, Arith::Div, Arith::Mod];
    const CMP: [Cmp; 4] = [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
    check_with(Config::with_cases(256), "stack_operators_equal_reference", |s| {
        let mut stack = s.vec_with(0..4, arb_value);
        // Usually an operand pair on top; sometimes too few operands.
        if s.u64_in(0..8) > 0 {
            let a = arb_value(s);
            stack.push(arb_rhs(s, &a));
            stack.insert(stack.len() - 1, a);
        } else if s.any_bool() {
            stack.push(arb_value(s));
        }
        let (mut fast, mut slow) = (stack.clone(), stack.clone());
        let i = s.usize_in(0..ARITH.len() + CMP.len());
        let (got, want, op) = match ARITH.get(i) {
            Some(&op) => (
                binop::arith_top(op, &mut fast),
                pop_pop_push(&mut slow, |a, b| binop::arith(op, a, b)),
                format!("{op:?}"),
            ),
            None => {
                let op = CMP[i - ARITH.len()];
                (
                    binop::compare_top(op, &mut fast),
                    pop_pop_push(&mut slow, |a, b| binop::compare(op, &a, &b)),
                    format!("{op:?}"),
                )
            }
        };
        prop_assert!(got == want, "{op} on {stack:?}: stack form {got:?}, reference {want:?}");
        prop_assert!(same(&fast, &slow), "{op} on {stack:?}: left {fast:?}, reference {slow:?}");
        Ok(())
    });
}

const HOTLOOP_WALKER: &str = r#"
hotloop(passes, iters) {
    int i = 0;
    int k;
    float zr; float zi; float cr; float ci; float t;
    float acc = 0.0;
    node int visits;
    node float result;
    visits = visits + 1;
    while (i < passes) {
        cr = 0.0 - 0.1226;
        ci = 0.7449;
        zr = 0.0;
        zi = 0.0;
        k = 0;
        while (k < iters) {
            t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
            k = k + 1;
        }
        acc = acc + zr + zi;
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
        i = i + 1;
    }
    result = acc;
}
"#;

/// Inner-loop iterations of the benchmark's hop.
const ITERS: i64 = 8192;

/// The orbit in Rust, in the walker's order of operations.
fn orbit(iters: i64) -> (f64, f64) {
    let (cr, ci) = (0.0 - 0.1226, 0.7449);
    let (mut zr, mut zi) = (0.0f64, 0.0f64);
    for _ in 0..iters {
        let t = zr * zr - zi * zi + cr;
        zi = 2.0 * zr * zi + ci;
        zr = t;
    }
    (zr, zi)
}

#[test]
fn hot_loop_first_segment_is_pinned_on_both_engines() {
    let p = msgr_lang::compile(HOTLOOP_WALKER).expect("walker compiles");
    let cp = compile::compile(&p).expect("walker's loops compile");
    let args = [Value::Int(1), Value::Int(ITERS)];
    let (zr, zi) = orbit(ITERS);
    let mut frames = Vec::new();
    for compiled in [false, true] {
        let mut m = MessengerState::launch(&p, MessengerId(1), &args).expect("launch");
        let mut env = MapEnv::new();
        let y = if compiled {
            compile::run(&cp, &p, &mut m, &mut env, interp::DEFAULT_FUEL)
        } else {
            interp::run(&p, &mut m, &mut env, interp::DEFAULT_FUEL)
        };
        assert!(matches!(y, Ok(Yield::Hop(_))), "compiled={compiled}: {y:?}");
        assert_eq!(env.ops, 237_616, "compiled={compiled}");
        let locals = &m.frames[0].locals;
        // The orbit's last point and the accumulator, to the bit.
        for want in [zr, zi, 0.0 + zr + zi] {
            assert!(
                locals
                    .iter()
                    .any(|v| matches!(v, Value::Float(g) if g.to_bits() == want.to_bits())),
                "compiled={compiled}: {want} not among {locals:?}"
            );
        }
        frames.push(m.frames);
    }
    assert_eq!(frames[0], frames[1], "the engines leave different frames");
}
