//! Operator semantics shared by the interpreter and the fused loops.
//!
//! This module is the one definition of what the binary operators mean.
//! The interpreter and the compiler's fused loops, boxed and typed, all
//! call it:
//!
//! * `Arith::int`, `Arith::float` and `Cmp::holds` are the unboxed
//!   operators: wrapping `i64` arithmetic, IEEE `f64` arithmetic, and the
//!   one map from an [`Ordering`] to `< <= > >=`.
//! * [`arith_top`] and [`compare_top`] apply an operator to the top two
//!   operand-stack entries, combining an `Int/Int` or `Float/Float` pair
//!   in place.
//! * [`arith`] and [`compare`] are the reference over every operand kind
//!   (string `+`, NULL as zero, widening, type errors). Every other pair
//!   falls back to them, and `tests/operators.rs` checks the stack forms
//!   against them.
//!
//! The module is public, hidden from the docs, only for that property.

use std::cmp::Ordering;

use crate::bytecode::Op;
use crate::error::VmError;
use crate::value::Value;

/// The arithmetic operators `+ - * / %`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl Arith {
    /// The operator `op` applies, if it is arithmetic.
    pub(crate) fn of(op: Op) -> Option<Arith> {
        Some(match op {
            Op::Add => Arith::Add,
            Op::Sub => Arith::Sub,
            Op::Mul => Arith::Mul,
            Op::Div => Arith::Div,
            Op::Mod => Arith::Mod,
            _ => return None,
        })
    }

    /// `x op y` on ints: wrapping, and `None` for a zero divisor.
    #[inline]
    pub(crate) fn int(self, x: i64, y: i64) -> Option<i64> {
        match self {
            Arith::Add => Some(x.wrapping_add(y)),
            Arith::Sub => Some(x.wrapping_sub(y)),
            Arith::Mul => Some(x.wrapping_mul(y)),
            Arith::Div => (y != 0).then(|| x.wrapping_div(y)),
            Arith::Mod => (y != 0).then(|| x.wrapping_rem(y)),
        }
    }

    /// `x op y` on floats: IEEE, so a zero divisor gives an infinity or NaN.
    #[inline]
    pub(crate) fn float(self, x: f64, y: f64) -> f64 {
        match self {
            Arith::Add => x + y,
            Arith::Sub => x - y,
            Arith::Mul => x * y,
            Arith::Div => x / y,
            Arith::Mod => x % y,
        }
    }

    /// An `Int/Int` or `Float/Float` pair, unboxed. `None` for every other
    /// pair and for an int zero divisor: [`arith`] answers those.
    #[inline]
    pub(crate) fn fast(self, a: &Value, b: &Value) -> Option<Value> {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => self.int(*x, *y).map(Value::Int),
            (Value::Float(x), Value::Float(y)) => Some(Value::Float(self.float(*x, *y))),
            _ => None,
        }
    }
}

/// The ordered comparisons `< <= > >=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    /// The comparison `op` applies, if it is an ordered one.
    pub(crate) fn of(op: Op) -> Option<Cmp> {
        Some(match op {
            Op::Lt => Cmp::Lt,
            Op::Le => Cmp::Le,
            Op::Gt => Cmp::Gt,
            Op::Ge => Cmp::Ge,
            _ => return None,
        })
    }

    /// Whether `a op b` holds when `a` orders `ord` against `b`.
    #[inline]
    pub(crate) fn holds(self, ord: Ordering) -> bool {
        match self {
            Cmp::Lt => ord == Ordering::Less,
            Cmp::Le => ord != Ordering::Greater,
            Cmp::Gt => ord == Ordering::Greater,
            Cmp::Ge => ord != Ordering::Less,
        }
    }

    /// `x op y` on numbers, which compare as `f64` under `total_cmp`: ints
    /// widen first (so `i64::MAX - 1` and `i64::MAX` tie), `-0.0 < 0.0`,
    /// and NaN sorts above `+inf`.
    #[inline]
    pub(crate) fn floats(self, x: f64, y: f64) -> bool {
        self.holds(x.total_cmp(&y))
    }

    /// An `Int/Int` or `Float/Float` pair, unboxed; `None` for every other
    /// pair, which [`compare`] answers.
    #[inline]
    pub(crate) fn fast(self, a: &Value, b: &Value) -> Option<bool> {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Some(self.floats(*x as f64, *y as f64)),
            (Value::Float(x), Value::Float(y)) => Some(self.floats(*x, *y)),
            _ => None,
        }
    }
}

/// Pop the operand stack, surfacing underflow as corrupt code.
pub(crate) fn pop(stack: &mut Vec<Value>) -> Result<Value, VmError> {
    stack.pop().ok_or(VmError::Corrupt("operand stack underflow"))
}

/// Binary arithmetic (`+ - * / %`) over messenger values: the reference.
///
/// # Errors
///
/// [`VmError::DivisionByZero`] for an int zero divisor, and
/// [`VmError::Type`] for an operand that is not a number (outside `+`
/// with a string).
pub fn arith(op: Arith, a: Value, b: Value) -> Result<Value, VmError> {
    match (op, &a, &b) {
        // String concatenation with `+` when either side is a string
        // (used to build node/link names). NULL concatenates as the
        // empty string.
        (Arith::Add, Value::Str(_), _) | (Arith::Add, _, Value::Str(_)) => {
            let show = |v: &Value| match v {
                Value::Null => String::new(),
                other => other.to_string(),
            };
            Ok(Value::str(format!("{}{}", show(&a), show(&b))))
        }
        _ => {
            // Never-assigned node variables read as NULL; arithmetically
            // NULL is zero, so scripts can use node variables as
            // counters without an initialization pass.
            let a = if a == Value::Null { Value::Int(0) } else { a };
            let b = if b == Value::Null { Value::Int(0) } else { b };
            match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => {
                    op.int(*x, *y).map(Value::Int).ok_or(VmError::DivisionByZero)
                }
                _ => Ok(Value::Float(op.float(a.as_float()?, b.as_float()?))),
            }
        }
    }
}

/// Ordered comparison (`< <= > >=`) over messenger values: the reference.
///
/// # Errors
///
/// [`VmError::Type`] unless both operands are strings or both are numbers.
pub fn compare(op: Cmp, a: &Value, b: &Value) -> Result<Value, VmError> {
    // NULL orders as zero (see `arith`).
    let a = if *a == Value::Null { &Value::Int(0) } else { a };
    let b = if *b == Value::Null { &Value::Int(0) } else { b };
    Ok(Value::Bool(match (a, b) {
        (Value::Str(x), Value::Str(y)) => op.holds(x.cmp(y)),
        _ => op.floats(a.as_float()?, b.as_float()?),
    }))
}

/// `a op b` on the operand stack `[.., a, b]`, leaving `[.., a op b]`.
/// An `Int/Int` or `Float/Float` pair is combined in place; any other
/// pops `b`, pops `a` and pushes [`arith`]`(op, a, b)`, so an error leaves
/// both operands consumed.
///
/// # Errors
///
/// As [`arith`], plus [`VmError::Corrupt`] on stack underflow.
#[inline]
pub fn arith_top(op: Arith, stack: &mut Vec<Value>) -> Result<(), VmError> {
    if let [.., a, b] = stack.as_mut_slice() {
        if let Some(v) = op.fast(a, b) {
            *a = v;
            stack.pop();
            return Ok(());
        }
    }
    arith_popped(op, stack)
}

/// [`arith_top`]'s reference path, kept out of line so that the fast path
/// inlines into the dispatch loop.
#[cold]
#[inline(never)]
fn arith_popped(op: Arith, stack: &mut Vec<Value>) -> Result<(), VmError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    stack.push(arith(op, a, b)?);
    Ok(())
}

/// `a op b` on the operand stack `[.., a, b]`, leaving `[.., a op b]`; the
/// [`compare`] twin of [`arith_top`].
///
/// # Errors
///
/// As [`compare`], plus [`VmError::Corrupt`] on stack underflow.
#[inline]
pub fn compare_top(op: Cmp, stack: &mut Vec<Value>) -> Result<(), VmError> {
    if let [.., a, b] = stack.as_mut_slice() {
        if let Some(r) = op.fast(a, b) {
            *a = Value::Bool(r);
            stack.pop();
            return Ok(());
        }
    }
    compare_popped(op, stack)
}

/// [`compare_top`]'s reference path, out of line as [`arith_popped`] is.
#[cold]
#[inline(never)]
fn compare_popped(op: Cmp, stack: &mut Vec<Value>) -> Result<(), VmError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    stack.push(compare(op, &a, &b)?);
    Ok(())
}

/// Arithmetic negation: integers wrap, everything else promotes to float.
pub(crate) fn neg(a: Value) -> Result<Value, VmError> {
    Ok(match a {
        Value::Int(i) => Value::Int(i.wrapping_neg()),
        other => Value::Float(-other.as_float()?),
    })
}

/// Relative jump targets: offsets are from the *next* instruction.
pub(crate) fn jump(pc: u32, off: i32) -> u32 {
    (pc as i64 + off as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one operator application must produce.
    #[derive(Debug)]
    enum Want {
        I(i64),
        /// Compared by `to_bits`, so `-0.0` and `0.0` differ.
        F(f64),
        /// Any NaN: the payload is the hardware's, not the language's.
        Nan,
        B(bool),
        S(&'static str),
        DivZero,
        Type,
    }

    /// Apply `op` through the reference, and through the stack form on
    /// `[7, a, b]`, which must agree with it bit for bit.
    fn eval(op: Op, a: Value, b: Value) -> Result<Value, VmError> {
        let mut stack = vec![Value::Int(7), a.clone(), b.clone()];
        let (reference, top) = match (Arith::of(op), Cmp::of(op)) {
            (Some(op), _) => (arith(op, a, b), arith_top(op, &mut stack)),
            (_, Some(op)) => (compare(op, &a, &b), compare_top(op, &mut stack)),
            _ => panic!("{op:?} is not a binary operator"),
        };
        match (&reference, top) {
            (Ok(v), Ok(())) => assert!(stack[0] == Value::Int(7) && same(&stack[1], v)),
            (Err(e), Err(f)) => assert!(*e == f && stack == [Value::Int(7)]),
            (r, t) => panic!("{op:?}: reference {r:?}, stack form {t:?}"),
        }
        assert_eq!(stack.len(), 1 + usize::from(reference.is_ok()));
        reference
    }

    /// Equality with floats compared by bits, so NaN equals itself.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn operator_table_pins_every_operand_kind() {
        use Value::{Bool, Float as F, Int as I, Null};
        use Want::*;
        let s = Value::str;
        let (max, min) = (i64::MAX, i64::MIN);
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let rows: Vec<(Op, Value, Value, Want)> = vec![
            // Int/Int: wrapping, truncating division, remainder with
            // the dividend's sign, and a zero divisor as an error.
            (Op::Add, I(7), I(3), Want::I(10)),
            (Op::Sub, I(3), I(7), Want::I(-4)),
            (Op::Mul, I(-7), I(3), Want::I(-21)),
            (Op::Div, I(-7), I(2), Want::I(-3)),
            (Op::Mod, I(-7), I(3), Want::I(-1)),
            (Op::Mod, I(7), I(-3), Want::I(1)),
            (Op::Add, I(max), I(1), Want::I(min)),
            (Op::Sub, I(min), I(1), Want::I(max)),
            (Op::Mul, I(max), I(2), Want::I(-2)),
            (Op::Div, I(min), I(-1), Want::I(min)),
            (Op::Mod, I(min), I(-1), Want::I(0)),
            (Op::Div, I(1), I(0), DivZero),
            (Op::Mod, I(1), I(0), DivZero),
            (Op::Div, I(0), I(0), DivZero),
            (Op::Lt, I(1), I(2), B(true)),
            (Op::Le, I(2), I(2), B(true)),
            (Op::Gt, I(2), I(2), B(false)),
            (Op::Ge, I(2), I(3), B(false)),
            (Op::Lt, I(min), I(max), B(true)),
            // Comparison widens to f64: these two ints compare equal.
            (Op::Lt, I(max - 1), I(max), B(false)),
            (Op::Ge, I(max - 1), I(max), B(true)),
            // Float/Float: IEEE arithmetic, signed zeros kept; ordering
            // is `total_cmp`, so -0.0 < 0.0 and NaN sorts above +inf.
            (Op::Add, F(1.5), F(-2.5), Want::F(-1.0)),
            (Op::Add, F(-0.0), F(-0.0), Want::F(-0.0)),
            (Op::Add, F(-0.0), F(0.0), Want::F(0.0)),
            (Op::Sub, F(-0.0), F(0.0), Want::F(-0.0)),
            (Op::Mul, F(-0.0), F(1.5), Want::F(-0.0)),
            (Op::Div, F(1.0), F(0.0), Want::F(inf)),
            (Op::Div, F(1.0), F(-0.0), Want::F(-inf)),
            (Op::Div, F(0.0), F(0.0), Nan),
            (Op::Mod, F(5.5), F(0.0), Nan),
            (Op::Mod, F(-5.5), F(2.0), Want::F(-1.5)),
            (Op::Mod, F(5.5), F(inf), Want::F(5.5)),
            (Op::Add, F(inf), F(-inf), Nan),
            (Op::Mul, F(inf), F(0.0), Nan),
            (Op::Sub, F(nan), F(1.0), Nan),
            (Op::Lt, F(-0.0), F(0.0), B(true)),
            (Op::Le, F(0.0), F(-0.0), B(false)),
            (Op::Gt, F(nan), F(inf), B(true)),
            (Op::Lt, F(nan), F(1.0), B(false)),
            (Op::Ge, F(inf), F(inf), B(true)),
            (Op::Le, F(-inf), F(-inf), B(true)),
            // Int/Float, both ways: the int widens.
            (Op::Add, I(1), F(0.5), Want::F(1.5)),
            (Op::Add, F(0.5), I(1), Want::F(1.5)),
            (Op::Sub, I(1), F(0.5), Want::F(0.5)),
            (Op::Mul, I(3), F(-0.0), Want::F(-0.0)),
            (Op::Div, I(1), F(0.0), Want::F(inf)),
            (Op::Mod, I(7), F(2.5), Want::F(2.0)),
            (Op::Mod, F(7.5), I(2), Want::F(1.5)),
            (Op::Lt, I(1), F(1.5), B(true)),
            (Op::Ge, F(2.0), I(2), B(true)),
            (Op::Lt, I(max), F(max as f64), B(false)),
            // NULL is the int zero.
            (Op::Add, Null, I(2), Want::I(2)),
            (Op::Add, I(2), Null, Want::I(2)),
            (Op::Mul, Null, Null, Want::I(0)),
            (Op::Sub, Null, F(1.5), Want::F(-1.5)),
            (Op::Div, I(1), Null, DivZero),
            (Op::Div, F(1.0), Null, Want::F(inf)),
            (Op::Lt, Null, I(1), B(true)),
            (Op::Ge, Null, F(0.0), B(true)),
            // Bool widens to 0.0 / 1.0, even next to an int.
            (Op::Add, Bool(true), I(1), Want::F(2.0)),
            (Op::Add, Bool(true), Bool(true), Want::F(2.0)),
            (Op::Div, Bool(true), Bool(false), Want::F(inf)),
            (Op::Mul, Bool(true), F(2.5), Want::F(2.5)),
            (Op::Lt, Bool(false), Bool(true), B(true)),
            (Op::Gt, Bool(true), I(0), B(true)),
            // Str: `+` concatenates (NULL as ""), strings order
            // lexically, and every other mix is a type error.
            (Op::Add, s("n"), I(3), S("n3")),
            (Op::Add, F(1.5), s("b"), S("1.5b")),
            (Op::Add, s("a"), Bool(true), S("atrue")),
            (Op::Add, s("a"), Null, S("a")),
            (Op::Add, Null, s("x"), S("x")),
            (Op::Sub, s("a"), I(1), Type),
            (Op::Mod, s("a"), s("b"), Type),
            (Op::Mul, I(2), s("b"), Type),
            (Op::Lt, s("abc"), s("abd"), B(true)),
            (Op::Ge, s("b"), s("a"), B(true)),
            (Op::Lt, s("a"), I(1), Type),
            (Op::Gt, Null, s("a"), Type),
        ];
        for (op, a, b, want) in rows {
            let got = eval(op, a.clone(), b.clone());
            let ok = match (&want, &got) {
                (Want::I(w), Ok(Value::Int(g))) => w == g,
                (Want::F(w), Ok(Value::Float(g))) => w.to_bits() == g.to_bits(),
                (Nan, Ok(Value::Float(g))) => g.is_nan(),
                (B(w), Ok(Value::Bool(g))) => w == g,
                (S(w), Ok(Value::Str(g))) => **w == **g,
                (DivZero, Err(VmError::DivisionByZero)) => true,
                (Type, Err(VmError::Type { .. })) => true,
                _ => false,
            };
            assert!(ok, "{op:?}({a:?}, {b:?}) = {got:?}, want {want:?}");
        }
    }

    #[test]
    fn neg_wraps_ints_and_promotes_floats() {
        assert_eq!(neg(Value::Int(i64::MIN)).unwrap(), Value::Int(i64::MIN));
        assert_eq!(neg(Value::Float(1.5)).unwrap(), Value::Float(-1.5));
    }
}
