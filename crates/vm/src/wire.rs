//! Binary wire codec.
//!
//! Everything that crosses a daemon boundary is encoded here: values,
//! complete messenger states (migration payloads), and — when a program
//! is not yet in the destination's code registry, or in the carry-code
//! ablation — whole programs. The paper compiled scripts "into a form of
//! byte code for more efficient transport and parsing"; this module is
//! that transport format.
//!
//! The format is a simple tagged encoding over the checked primitives of
//! [`crate::bytes`] (LEB128 varints, strict flags, bounded counts). It is
//! not self-describing beyond the tags, and a decoder accepts only what
//! its encoder writes: a truncated or corrupted buffer yields
//! [`VmError::Decode`], never a panic and never a silently different
//! reading of the same value.

#![deny(clippy::cast_possible_truncation)]

use std::sync::Arc;

use crate::bytes::{Bytes, BytesMut};

use crate::bytecode::{
    CreateItem, CreateSpec, Dir, FuncId, Function, HopSpec, LinkPat, NamePat, NetVar, NodePat, Op,
    Program, ProgramId,
};
use crate::error::VmError;
use crate::state::{Frame, MessengerId, MessengerState, Vt};
use crate::value::{LinkInstance, Matrix, Value};

/// Cap for tables a `u16` operand indexes: constants, functions, local
/// slots, hop and create specs.
pub const MAX_TABLE: usize = u16::MAX as usize;

/// Cap for every other sequence. [`Bytes::read_count`] also holds each
/// count to the bytes that remain, which is the bound that matters.
pub const MAX_SEQ: usize = 1 << 24;

// ---- values --------------------------------------------------------------

/// Append `v` to `buf`.
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_bool(*b);
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_zigzag(*i);
        }
        Value::Float(f) => {
            buf.put_u8(3);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(4);
            buf.put_str(s);
        }
        Value::Mat(m) => {
            buf.put_u8(5);
            buf.put_varint(m.rows().into());
            buf.put_varint(m.cols().into());
            for &x in m.as_slice() {
                buf.put_f64(x);
            }
        }
        Value::Blob(b) => {
            buf.put_u8(7);
            buf.put_bytes(b);
        }
        Value::Link(l) => {
            buf.put_u8(6);
            buf.put_varint(l.0);
        }
        Value::Arr(a) => {
            buf.put_u8(8);
            buf.put_seq(a.iter(), put_value);
        }
    }
}

/// Decode one value.
///
/// # Errors
///
/// [`VmError::Decode`] on truncation or unknown tags.
pub fn get_value(buf: &mut Bytes) -> Result<Value, VmError> {
    Ok(match buf.read_u8()? {
        0 => Value::Null,
        1 => Value::Bool(buf.read_bool()?),
        2 => Value::Int(buf.read_zigzag()?),
        3 => Value::Float(buf.read_f64()?),
        4 => Value::str(buf.read_str()?),
        5 => {
            let rows = buf.read_u32()?;
            let cols = buf.read_u32()?;
            let data = buf.read_f64s(u64::from(rows) * u64::from(cols))?;
            Value::Mat(Matrix::from_vec(rows, cols, data))
        }
        6 => Value::Link(LinkInstance(buf.read_varint()?)),
        7 => Value::Blob(buf.read_bytes()?),
        8 => Value::Arr(Arc::new(buf.read_seq(MAX_SEQ, get_value)?)),
        t => return Err(VmError::Decode(format!("unknown value tag {t}"))),
    })
}

/// Append a virtual time.
pub fn put_vt(buf: &mut BytesMut, vt: Vt) {
    buf.put_f64(vt.as_f64());
}

/// Decode a virtual time.
///
/// # Errors
///
/// [`VmError::Decode`] on truncation or NaN.
pub fn get_vt(buf: &mut Bytes) -> Result<Vt, VmError> {
    let t = buf.read_f64()?;
    if t.is_nan() {
        return Err(VmError::Decode("NaN virtual time".to_string()));
    }
    Ok(Vt::new(t))
}

// ---- messenger state -------------------------------------------------------

fn put_frame(buf: &mut BytesMut, f: &Frame) {
    buf.put_varint(f.func.0.into());
    buf.put_varint(f.pc.into());
    buf.put_seq(f.locals.iter(), put_value);
    buf.put_seq(f.stack.iter(), put_value);
}

fn get_frame(buf: &mut Bytes) -> Result<Frame, VmError> {
    Ok(Frame {
        func: FuncId(buf.read_u16()?),
        pc: buf.read_u32()?,
        locals: buf.read_seq(MAX_TABLE, get_value)?,
        stack: buf.read_seq(MAX_SEQ, get_value)?,
    })
}

/// Serialize a messenger for migration. This is the payload a `hop`
/// actually ships (plus routing headers added by the daemon layer).
pub fn encode_messenger(m: &MessengerState) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_varint(m.id.0);
    buf.put_varint(m.program.0);
    put_vt(&mut buf, m.vtime);
    buf.put_bool(m.anti);
    buf.put_seq(m.frames.iter(), put_frame);
    buf.freeze()
}

/// Decode a migrated messenger.
///
/// # Errors
///
/// [`VmError::Decode`] on any malformed input.
pub fn decode_messenger(mut buf: Bytes) -> Result<MessengerState, VmError> {
    let id = MessengerId(buf.read_varint()?);
    let program = ProgramId(buf.read_varint()?);
    let vtime = get_vt(&mut buf)?;
    let anti = buf.read_bool()?;
    let frames = buf.read_seq(MAX_TABLE, get_frame)?;
    buf.finish("messenger")?;
    Ok(MessengerState { id, program, frames, vtime, anti })
}

// ---- programs -------------------------------------------------------------

fn put_dir(buf: &mut BytesMut, d: Dir) {
    buf.put_u8(match d {
        Dir::Forward => 0,
        Dir::Backward => 1,
        Dir::Any => 2,
    });
}

fn get_dir(buf: &mut Bytes) -> Result<Dir, VmError> {
    buf.read_tag("dir", &[Dir::Forward, Dir::Backward, Dir::Any])
}

fn put_op(buf: &mut BytesMut, op: &Op) {
    use Op::*;
    let indexed = |buf: &mut BytesMut, tag: u8, i: u16| {
        buf.put_u8(tag);
        buf.put_varint(i.into());
    };
    let jump = |buf: &mut BytesMut, tag: u8, offset: i32| {
        buf.put_u8(tag);
        buf.put_zigzag(offset.into());
    };
    match *op {
        Const(i) => indexed(buf, 0, i),
        LoadLocal(i) => indexed(buf, 1, i),
        StoreLocal(i) => indexed(buf, 2, i),
        LoadNode(i) => indexed(buf, 3, i),
        StoreNode(i) => indexed(buf, 4, i),
        LoadNet(v) => {
            buf.put_u8(5);
            buf.put_u8(match v {
                NetVar::Address => 0,
                NetVar::Last => 1,
                NetVar::Node => 2,
                NetVar::Time => 3,
            });
        }
        Dup => buf.put_u8(6),
        Pop => buf.put_u8(7),
        Add => buf.put_u8(8),
        Sub => buf.put_u8(9),
        Mul => buf.put_u8(10),
        Div => buf.put_u8(11),
        Mod => buf.put_u8(12),
        Neg => buf.put_u8(13),
        Not => buf.put_u8(14),
        Eq => buf.put_u8(15),
        Ne => buf.put_u8(16),
        Lt => buf.put_u8(17),
        Le => buf.put_u8(18),
        Gt => buf.put_u8(19),
        Ge => buf.put_u8(20),
        Jump(o) => jump(buf, 21, o),
        JumpIfFalse(o) => jump(buf, 22, o),
        JumpIfTruePeek(o) => jump(buf, 23, o),
        JumpIfFalsePeek(o) => jump(buf, 24, o),
        Call { f, argc } => {
            indexed(buf, 25, f);
            buf.put_u8(argc);
        }
        CallNative { name, argc } => {
            indexed(buf, 26, name);
            buf.put_u8(argc);
        }
        Ret => buf.put_u8(27),
        Hop(i) => indexed(buf, 28, i),
        Create(i) => indexed(buf, 29, i),
        Delete(i) => indexed(buf, 30, i),
        SchedAbs => buf.put_u8(31),
        SchedDlt => buf.put_u8(32),
        Halt => buf.put_u8(33),
        MakeArr => buf.put_u8(34),
        IndexGet => buf.put_u8(35),
        IndexSet => buf.put_u8(36),
    }
}

fn get_op(buf: &mut Bytes) -> Result<Op, VmError> {
    use Op::*;
    fn jump(buf: &mut Bytes) -> Result<i32, VmError> {
        let o = buf.read_zigzag()?;
        i32::try_from(o).map_err(|_| VmError::Decode(format!("jump offset {o} overflows i32")))
    }
    Ok(match buf.read_u8()? {
        0 => Const(buf.read_u16()?),
        1 => LoadLocal(buf.read_u16()?),
        2 => StoreLocal(buf.read_u16()?),
        3 => LoadNode(buf.read_u16()?),
        4 => StoreNode(buf.read_u16()?),
        5 => LoadNet(
            buf.read_tag("netvar", &[NetVar::Address, NetVar::Last, NetVar::Node, NetVar::Time])?,
        ),
        6 => Dup,
        7 => Pop,
        8 => Add,
        9 => Sub,
        10 => Mul,
        11 => Div,
        12 => Mod,
        13 => Neg,
        14 => Not,
        15 => Eq,
        16 => Ne,
        17 => Lt,
        18 => Le,
        19 => Gt,
        20 => Ge,
        21 => Jump(jump(buf)?),
        22 => JumpIfFalse(jump(buf)?),
        23 => JumpIfTruePeek(jump(buf)?),
        24 => JumpIfFalsePeek(jump(buf)?),
        25 => Call { f: buf.read_u16()?, argc: buf.read_u8()? },
        26 => CallNative { name: buf.read_u16()?, argc: buf.read_u8()? },
        27 => Ret,
        28 => Hop(buf.read_u16()?),
        29 => Create(buf.read_u16()?),
        30 => Delete(buf.read_u16()?),
        31 => SchedAbs,
        32 => SchedDlt,
        33 => Halt,
        34 => MakeArr,
        35 => IndexGet,
        36 => IndexSet,
        t => return Err(VmError::Decode(format!("unknown op tag {t}"))),
    })
}

fn put_node_pat(buf: &mut BytesMut, p: NodePat) {
    buf.put_bool(matches!(p, NodePat::Expr));
}

fn get_node_pat(buf: &mut Bytes) -> Result<NodePat, VmError> {
    buf.read_tag("node pattern", &[NodePat::Wild, NodePat::Expr])
}

fn put_link_pat(buf: &mut BytesMut, p: LinkPat) {
    buf.put_u8(match p {
        LinkPat::Wild => 0,
        LinkPat::Unnamed => 1,
        LinkPat::Expr => 2,
        LinkPat::Virtual => 3,
    });
}

fn get_link_pat(buf: &mut Bytes) -> Result<LinkPat, VmError> {
    buf.read_tag(
        "link pattern",
        &[LinkPat::Wild, LinkPat::Unnamed, LinkPat::Expr, LinkPat::Virtual],
    )
}

fn put_name_pat(buf: &mut BytesMut, p: NamePat) {
    buf.put_bool(matches!(p, NamePat::Expr));
}

fn get_name_pat(buf: &mut Bytes) -> Result<NamePat, VmError> {
    buf.read_tag("name pattern", &[NamePat::Unnamed, NamePat::Expr])
}

/// Serialize a program (for code-registry shipping and the carry-code
/// ablation).
pub fn encode_program(p: &Program) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_seq(p.consts.iter(), put_value);
    buf.put_seq(p.funcs.iter(), |buf, f| {
        buf.put_str(&f.name);
        buf.put_u8(f.arity);
        buf.put_varint(f.n_slots.into());
        buf.put_seq(f.code.iter(), put_op);
        // Debug info travels with the code so a shipped program keeps
        // its content id (`Program::id` hashes the line table too).
        buf.put_seq(f.lines.iter(), |buf, &line| buf.put_varint(line.into()));
    });
    buf.put_seq(p.hop_specs.iter(), |buf, s| {
        put_node_pat(buf, s.ln);
        put_link_pat(buf, s.ll);
        put_dir(buf, s.ldir);
    });
    buf.put_seq(p.create_specs.iter(), |buf, s| {
        buf.put_bool(s.all);
        buf.put_seq(s.items.iter(), |buf, it| {
            put_name_pat(buf, it.ln);
            put_name_pat(buf, it.ll);
            put_dir(buf, it.ldir);
            put_node_pat(buf, it.dn);
            put_link_pat(buf, it.dl);
            put_dir(buf, it.ddir);
        });
    });
    buf.put_varint(p.entry.0.into());
    buf.freeze()
}

/// Decode a program.
///
/// # Errors
///
/// [`VmError::Decode`] on malformed input (including an out-of-range
/// entry function).
pub fn decode_program(mut buf: Bytes) -> Result<Program, VmError> {
    let consts = buf.read_seq(MAX_TABLE, get_value)?;
    let funcs = buf.read_seq(MAX_TABLE, |buf| {
        Ok(Function {
            name: buf.read_str()?.to_owned(),
            arity: buf.read_u8()?,
            n_slots: buf.read_u16()?,
            code: buf.read_seq(MAX_SEQ, get_op)?,
            lines: buf.read_seq(MAX_SEQ, Bytes::read_u32)?,
        })
    })?;
    let hop_specs = buf.read_seq(MAX_TABLE, |buf| {
        Ok(HopSpec { ln: get_node_pat(buf)?, ll: get_link_pat(buf)?, ldir: get_dir(buf)? })
    })?;
    let create_specs = buf.read_seq(MAX_TABLE, |buf| {
        let all = buf.read_bool()?;
        let items = buf.read_seq(MAX_SEQ, |buf| {
            Ok(CreateItem {
                ln: get_name_pat(buf)?,
                ll: get_name_pat(buf)?,
                ldir: get_dir(buf)?,
                dn: get_node_pat(buf)?,
                dl: get_link_pat(buf)?,
                ddir: get_dir(buf)?,
            })
        })?;
        Ok(CreateSpec { items, all })
    })?;
    let entry = FuncId(buf.read_u16()?);
    if usize::from(entry.0) >= funcs.len() {
        return Err(VmError::Decode("entry function out of range".to_string()));
    }
    buf.finish("program")?;
    Ok(Program { consts, funcs, hop_specs, create_specs, entry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Builder;
    use msgr_check::{check, codec_corruption, Source};

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::str(""),
            Value::str("héllo ∆"),
            Value::Mat(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
            Value::Blob(Bytes::from(vec![0u8, 1, 2, 255])),
            Value::Arr(Arc::new(vec![
                Value::Int(1),
                Value::str("two"),
                Value::Arr(Arc::new(vec![Value::Null])),
            ])),
            Value::Link(LinkInstance(u64::MAX)),
        ]
    }

    #[test]
    fn value_round_trips() {
        for v in sample_values() {
            let mut buf = BytesMut::new();
            put_value(&mut buf, &v);
            let mut bytes = buf.freeze();
            let back = get_value(&mut bytes).unwrap();
            assert_eq!(back, v, "round trip failed for {v:?}");
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn oversized_matrix_is_an_error_not_an_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u8(5);
        buf.put_varint(u32::MAX.into());
        buf.put_varint(u32::MAX.into());
        buf.put_f64(1.0);
        assert!(get_value(&mut buf.freeze()).is_err());
    }

    fn sample_messenger() -> MessengerState {
        let mut b = Builder::new();
        let f = b.function("main", 1, 2, vec![Op::Ret]);
        let p = b.finish(f);
        let mut m =
            MessengerState::launch(&p, MessengerId::compose(3, 17), &[Value::Int(5)]).unwrap();
        m.vtime = Vt::new(2.5);
        m.frames[0].stack.push(Value::str("pending"));
        m.frames.push(Frame {
            func: FuncId(0),
            pc: 1,
            locals: vec![Value::Mat(Matrix::zeros(2, 2))],
            stack: vec![],
        });
        m
    }

    #[test]
    fn messenger_round_trip() {
        let m = sample_messenger();
        assert_eq!(decode_messenger(encode_messenger(&m)).unwrap(), m);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut long = BytesMut::from(&encode_messenger(&sample_messenger())[..]);
        long.put_u8(0xAB);
        assert!(decode_messenger(long.freeze()).is_err());
        let mut long = BytesMut::from(&encode_program(&rich_program())[..]);
        long.put_u8(0);
        assert!(decode_program(long.freeze()).is_err());
    }

    fn rich_program() -> Program {
        let mut b = Builder::new();
        let c = b.constant(Value::str("row"));
        let n = b.constant(Value::Int(12));
        let hs = b.hop_spec(HopSpec { ln: NodePat::Expr, ll: LinkPat::Expr, ldir: Dir::Backward });
        let cs = b.create_spec(CreateSpec {
            items: vec![CreateItem {
                ln: NamePat::Expr,
                ll: NamePat::Unnamed,
                ldir: Dir::Forward,
                dn: NodePat::Expr,
                dl: LinkPat::Wild,
                ddir: Dir::Any,
            }],
            all: true,
        });
        let helper = b.function("helper", 2, 1, vec![Op::LoadLocal(0), Op::Ret]);
        let main = b.function(
            "main",
            0,
            3,
            vec![
                Op::Const(c),
                Op::Const(n),
                Op::Call { f: helper.0, argc: 2 },
                Op::Pop,
                Op::LoadNet(NetVar::Last),
                Op::Pop,
                Op::Const(c),
                Op::Const(c),
                Op::Hop(hs),
                Op::Const(c),
                Op::Const(n),
                Op::Create(cs),
                Op::Jump(-3),
                Op::JumpIfFalse(2),
                Op::JumpIfTruePeek(1),
                Op::JumpIfFalsePeek(-1),
                Op::CallNative { name: c, argc: 0 },
                Op::Delete(hs),
                Op::SchedAbs,
                Op::SchedDlt,
                Op::MakeArr,
                Op::IndexGet,
                Op::IndexSet,
                Op::Dup,
                Op::Pop,
                Op::Neg,
                Op::Not,
                Op::Eq,
                Op::Ne,
                Op::Lt,
                Op::Le,
                Op::Gt,
                Op::Ge,
                Op::Mod,
                Op::Halt,
            ],
        );
        b.finish(main)
    }

    #[test]
    fn program_round_trip_preserves_id() {
        let p = rich_program();
        let bytes = encode_program(&p);
        let back = decode_program(bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.id(), p.id());
    }

    #[test]
    fn out_of_width_operands_are_rejected_not_truncated() {
        // One function `main` whose single op is Const(0x1_0005): the
        // operand must not come back as Const(5).
        let mut buf = BytesMut::new();
        buf.put_varint(0); // consts
        buf.put_varint(1); // funcs
        buf.put_str("main");
        buf.put_u8(0); // arity
        buf.put_varint(0); // n_slots
        buf.put_varint(1); // code length
        buf.put_u8(0); // Const
        buf.put_varint(0x1_0005);
        for _ in 0..4 {
            buf.put_varint(0); // lines, hop specs, create specs, entry
        }
        let bytes = buf.freeze();
        assert!(decode_program(bytes.clone()).is_err());
        // The same bytes with an in-range operand are a program.
        let mut ok = bytes.to_vec();
        let at = ok.len() - 4 - 3;
        assert_eq!(&ok[at..at + 3], &[0x85, 0x80, 0x04]);
        ok.splice(at..at + 3, [0x05]);
        assert_eq!(decode_program(Bytes::from(ok)).unwrap().funcs[0].code, vec![Op::Const(5)]);
    }

    #[test]
    fn nan_vtime_rejected() {
        let mut buf = BytesMut::new();
        buf.put_varint(1); // id
        buf.put_varint(2); // program
        buf.put_f64(f64::NAN);
        buf.put_u8(0);
        buf.put_varint(0);
        assert!(decode_messenger(buf.freeze()).is_err());
    }

    /// Every value kind, nested at most `depth` arrays deep.
    fn arb_value(s: &mut Source, depth: usize) -> Value {
        match s.draw(if depth == 0 { 8 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(s.any_bool()),
            2 => Value::Int(s.any_i64()),
            3 => Value::Float(s.any_finite_f64()),
            4 => Value::str(s.string(0..12, "ab∆")),
            5 => {
                let (rows, cols) = (s.u32_in(0..4), s.u32_in(0..4));
                let data = (0..rows * cols).map(|_| s.any_finite_f64()).collect();
                Value::Mat(Matrix::from_vec(rows, cols, data))
            }
            6 => Value::Link(LinkInstance(s.any_u64())),
            7 => Value::Blob(Bytes::from(s.vec_with(0..12, |s| s.any_u8()))),
            _ => Value::Arr(Arc::new(s.vec_with(0..4, |s| arb_value(s, depth - 1)))),
        }
    }

    #[test]
    fn corruption_never_passes_for_the_original() {
        // The shared property (`msgr_check::codec_corruption`) over both
        // vm codecs: truncated, or damaged in any one byte, an
        // encoding is rejected or decodes to exactly what it now says.
        check("vm_codec_corruption", |s| {
            let mut m = sample_messenger();
            m.anti = s.any_bool();
            m.frames[0].locals = s.vec_with(0..5, |s| arb_value(s, 2));
            m.frames[1].stack = s.vec_with(0..3, |s| arb_value(s, 1));
            codec_corruption(s, &encode_messenger(&m), |b| {
                decode_messenger(b.into()).ok().map(|m| encode_messenger(&m).to_vec())
            })?;

            let mut p = rich_program();
            p.consts.extend(s.vec_with(0..3, |s| arb_value(s, 1)));
            p.funcs[0].lines = s.vec_with(0..3, |s| s.any_u32());
            codec_corruption(s, &encode_program(&p), |b| {
                decode_program(b.into()).ok().map(|p| encode_program(&p).to_vec())
            })
        });
    }
}
