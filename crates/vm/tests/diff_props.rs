//! Differential property suite: the interpreter and the interpreter
//! entering fused loops (`compile::run`) must be observationally
//! identical on every verified program, at every fuel level.
//!
//! The generator is the PR 3 compiler-soundness generator (mirrored
//! from `crates/analyze/tests/props.rs`): well-scoped random MSGR-C
//! ASTs, compiled by the real front end, so the programs exercise
//! exactly the emit patterns the superinstructions fuse. Each case
//! drives *both* engines through the full multi-segment lifecycle —
//! run, yield at hops/creates/deletes, park on virtual time, resume —
//! comparing after every segment:
//!
//! * the yield (or error) itself,
//! * the complete frame stack (pc, locals, operand stack),
//! * node-variable effects and `$net` interactions (`MapEnv::vars`),
//! * the fuel charge (`MapEnv::ops`) and the messenger's virtual time.
//!
//! Because daemons derive costs, metrics, and trace events from exactly
//! these observables, segment-level equality here is what makes the
//! cluster-level goldens in `tests/determinism.rs` mode-invariant.
//!
//! A mutation check closes the loop: a deliberately miscompiled
//! superinstruction (swapped arithmetic operands) must be caught by the
//! same comparison harness, proving the suite has teeth.

use msgr_check::{check_with, Config, Source};
use msgr_lang::ast::*;
use msgr_lang::{compile_ast, Pos};
use msgr_vm::compile::{self, CompiledProgram};
use msgr_vm::{interp, Dir, MapEnv, MessengerState, Program, Value, Vt, Yield};

const P: Pos = Pos { line: 1, col: 1 };

// ---------------------------------------------------------------------
// Generator (mirrors crates/analyze/tests/props.rs — the PR 3
// compiler-soundness generator; tests cannot import other crates'
// test modules, so the arbiter is replicated here — plus a counted-loop
// statement, because fused loops are where the compiler departs from
// the interpreter).
// ---------------------------------------------------------------------

struct Ctx {
    scopes: Vec<Vec<(String, bool)>>,
    arities: Vec<u8>,
    in_loop: bool,
    counter: u32,
}

impl Ctx {
    fn visible(&self) -> Vec<String> {
        self.scopes.iter().flatten().map(|(n, _)| n.clone()).collect()
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }
}

fn arb_expr(s: &mut Source, ctx: &Ctx, depth: usize) -> Expr {
    let vars = ctx.visible();
    let leaf = depth == 0 || s.bool_with(0.4);
    if leaf {
        match s.draw(6) {
            0 => Expr::Int(s.i64_in(-3..100), P),
            1 => Expr::Float(0.5, P),
            2 => Expr::Str(s.string(0..4, "abn"), P),
            3 => Expr::Bool(s.any_bool(), P),
            4 if !vars.is_empty() => Expr::Var(s.pick(&vars).clone(), P),
            4 => Expr::Null(P),
            _ => Expr::NetVar(s.pick(&["address", "node", "time"]).to_string(), P),
        }
    } else {
        match s.draw(4) {
            0 => Expr::Bin {
                op: *s.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Eq,
                    BinOp::Lt,
                    BinOp::And,
                    BinOp::Or,
                ]),
                lhs: Box::new(arb_expr(s, ctx, depth - 1)),
                rhs: Box::new(arb_expr(s, ctx, depth - 1)),
            },
            1 => Expr::Un {
                op: *s.pick(&[UnOp::Neg, UnOp::Not]),
                expr: Box::new(arb_expr(s, ctx, depth - 1)),
                pos: P,
            },
            2 => {
                if s.any_bool() && !ctx.arities.is_empty() {
                    let f = s.usize_in(0..ctx.arities.len());
                    let args = (0..ctx.arities[f]).map(|_| arb_expr(s, ctx, depth - 1)).collect();
                    Expr::Call { name: format!("f{f}"), args, pos: P }
                } else {
                    let args = s.vec_with(0..3, |s| arb_expr(s, ctx, depth.saturating_sub(1)));
                    Expr::Call { name: "some_native".into(), args, pos: P }
                }
            }
            _ => arb_expr(s, ctx, depth - 1),
        }
    }
}

fn arb_hop_args(s: &mut Source, ctx: &Ctx) -> HopArgs {
    let ln = match s.draw(3) {
        0 => None,
        1 => Some(Pat::Wild),
        _ => Some(Pat::Expr(arb_expr(s, ctx, 1))),
    };
    let ll = match s.draw(4) {
        0 => None,
        1 => Some(Pat::Unnamed),
        2 => Some(Pat::Expr(arb_expr(s, ctx, 1))),
        _ if matches!(ln, Some(Pat::Expr(_))) => Some(Pat::Virtual),
        _ => Some(Pat::Wild),
    };
    let ldir = match s.draw(3) {
        0 => None,
        1 => Some(Dir::Forward),
        _ => Some(Dir::Backward),
    };
    HopArgs { ln, ll, ldir }
}

fn arb_create_args(s: &mut Source, ctx: &Ctx) -> CreateArgs {
    let mut args = CreateArgs { all: s.any_bool(), ..Default::default() };
    if s.any_bool() {
        args.ln = vec![Pat::Expr(arb_expr(s, ctx, 1))];
    }
    if s.any_bool() {
        args.ll = vec![Pat::Unnamed];
    }
    if s.any_bool() {
        args.dn = vec![Pat::Wild];
    }
    args
}

fn arb_stmt(s: &mut Source, ctx: &mut Ctx, depth: usize) -> Stmt {
    let vars = ctx.visible();
    match s.draw(13) {
        0 => {
            let name = ctx.fresh_name("v");
            let init = if s.any_bool() { Some(arb_expr(s, ctx, 2)) } else { None };
            ctx.scopes.last_mut().unwrap().push((name.clone(), false));
            Stmt::Decl {
                ty: *s.pick(&[DeclType::Int, DeclType::Float, DeclType::Str, DeclType::Bool]),
                decls: vec![Declarator { name, array_size: None, init, pos: P }],
            }
        }
        1 => {
            let name = ctx.fresh_name("nv");
            ctx.scopes.last_mut().unwrap().push((name.clone(), true));
            Stmt::NodeDecl {
                ty: DeclType::Int,
                decls: vec![Declarator { name, array_size: None, init: None, pos: P }],
            }
        }
        2 if !vars.is_empty() => {
            let target = s.pick(&vars).clone();
            Stmt::Expr(Expr::Assign {
                target,
                index: None,
                value: Box::new(arb_expr(s, ctx, 2)),
                pos: P,
            })
        }
        3 if depth > 0 => Stmt::If {
            cond: arb_expr(s, ctx, 2),
            then: arb_block(s, ctx, depth - 1),
            otherwise: if s.any_bool() { arb_block(s, ctx, depth - 1) } else { Vec::new() },
        },
        4 if depth > 0 => {
            let was = ctx.in_loop;
            ctx.in_loop = true;
            let body = arb_block(s, ctx, depth - 1);
            ctx.in_loop = was;
            Stmt::While { cond: arb_expr(s, ctx, 2), body }
        }
        5 => Stmt::Hop(arb_hop_args(s, ctx), P),
        6 => Stmt::Create(arb_create_args(s, ctx), P),
        7 => Stmt::Delete(arb_hop_args(s, ctx), P),
        8 => Stmt::Return(if s.any_bool() { Some(arb_expr(s, ctx, 2)) } else { None }, P),
        9 if ctx.in_loop => {
            if s.any_bool() {
                Stmt::Break(P)
            } else {
                Stmt::Continue(P)
            }
        }
        10 => Stmt::Expr(Expr::Call {
            name: "M_sched_time_dlt".into(),
            args: vec![Expr::Float(1.0, P)],
            pos: P,
        }),
        11 if depth > 0 => counted_loop(s, ctx, depth),
        _ => Stmt::Expr(arb_expr(s, ctx, 2)),
    }
}

/// `{ int c = 0; while (c < k) { body; c = c + 1; } }` with a fresh
/// counter the body cannot see and a small literal bound, so the loop
/// always ends. Half the bodies are pure local arithmetic: the shape the
/// compiler runs as one fused, often typed, loop.
fn counted_loop(s: &mut Source, ctx: &mut Ctx, depth: usize) -> Stmt {
    let c = ctx.fresh_name("c");
    let counter = || Box::new(Expr::Var(c.clone(), P));
    let mut body = if s.any_bool() {
        pure_block(s, ctx)
    } else {
        // `continue` would skip the increment: the counted body itself
        // draws no break/continue (loops nested in it still do).
        let was = std::mem::replace(&mut ctx.in_loop, false);
        let body = arb_block(s, ctx, depth - 1);
        ctx.in_loop = was;
        body
    };
    body.push(Stmt::Expr(Expr::Assign {
        target: c.clone(),
        index: None,
        value: Box::new(Expr::Bin {
            op: BinOp::Add,
            lhs: counter(),
            rhs: Box::new(Expr::Int(1, P)),
        }),
        pos: P,
    }));
    Stmt::Block(vec![
        Stmt::Decl {
            ty: DeclType::Int,
            decls: vec![Declarator {
                name: c.clone(),
                array_size: None,
                init: Some(Expr::Int(0, P)),
                pos: P,
            }],
        },
        Stmt::While {
            cond: Expr::Bin {
                op: BinOp::Lt,
                lhs: counter(),
                rhs: Box::new(Expr::Int(s.i64_in(1..6), P)),
            },
            body,
        },
    ])
}

/// One to three assignments of [`pure_expr`]s to messenger variables,
/// declaring a fresh one when none is in scope: straight-line code with
/// no jumps, calls, node or `$net` access.
fn pure_block(s: &mut Source, ctx: &mut Ctx) -> Vec<Stmt> {
    ctx.scopes.push(Vec::new());
    let n = s.usize_in(1..4);
    let body = (0..n)
        .map(|_| {
            let locals: Vec<String> = ctx
                .scopes
                .iter()
                .flatten()
                .filter(|(_, node)| !node)
                .map(|(n, _)| n.clone())
                .collect();
            let value = pure_expr(s, &locals, 2);
            if locals.is_empty() || s.any_bool() {
                let name = ctx.fresh_name("v");
                ctx.scopes.last_mut().unwrap().push((name.clone(), false));
                Stmt::Decl {
                    ty: *s.pick(&[DeclType::Int, DeclType::Float]),
                    decls: vec![Declarator { name, array_size: None, init: Some(value), pos: P }],
                }
            } else {
                let target = s.pick(&locals).clone();
                Stmt::Expr(Expr::Assign { target, index: None, value: Box::new(value), pos: P })
            }
        })
        .collect();
    ctx.scopes.pop();
    body
}

/// Arithmetic, comparison and negation over int, float and bool
/// literals and messenger variables.
fn pure_expr(s: &mut Source, locals: &[String], depth: usize) -> Expr {
    if depth == 0 || s.bool_with(0.4) {
        return match s.draw(4) {
            0 => Expr::Int(s.i64_in(-3..100), P),
            1 => Expr::Float(1.5, P),
            2 if !locals.is_empty() => Expr::Var(s.pick(locals).clone(), P),
            _ => Expr::Bool(s.any_bool(), P),
        };
    }
    if s.bool_with(0.2) {
        let expr = Box::new(pure_expr(s, locals, depth - 1));
        return Expr::Un { op: *s.pick(&[UnOp::Neg, UnOp::Not]), expr, pos: P };
    }
    Expr::Bin {
        op: *s.pick(&[BinOp::Add, BinOp::Sub, BinOp::Sub, BinOp::Mul, BinOp::Lt, BinOp::Eq]),
        lhs: Box::new(pure_expr(s, locals, depth - 1)),
        rhs: Box::new(pure_expr(s, locals, depth - 1)),
    }
}

fn arb_block(s: &mut Source, ctx: &mut Ctx, depth: usize) -> Vec<Stmt> {
    ctx.scopes.push(Vec::new());
    let n = s.usize_in(0..5);
    let body = (0..n).map(|_| arb_stmt(s, ctx, depth)).collect();
    ctx.scopes.pop();
    body
}

fn arb_script(s: &mut Source) -> Script {
    let nfuncs = s.usize_in(1..4);
    let arities: Vec<u8> = (0..nfuncs).map(|_| s.u8_in(0..3)).collect();
    let funcs = arities
        .iter()
        .enumerate()
        .map(|(i, &arity)| {
            let params: Vec<String> = (0..arity).map(|k| format!("p{k}")).collect();
            let mut ctx = Ctx {
                scopes: vec![params.iter().map(|p| (p.clone(), false)).collect()],
                arities: arities.clone(),
                in_loop: false,
                counter: 0,
            };
            let body = arb_block(s, &mut ctx, 2);
            Func { name: format!("f{i}"), params, body, pos: P }
        })
        .collect();
    Script { funcs }
}

/// A script that is mostly counted loops: one to three messenger
/// variables holding any kind of literal, one or two counted loops over
/// them, then a hop and a return. A slot holding a string or NULL on
/// loop entry sends a typed loop to the generic executor, so both
/// executors run.
fn arb_loop_script(s: &mut Source) -> Script {
    let mut ctx = Ctx { scopes: vec![Vec::new()], arities: Vec::new(), in_loop: false, counter: 0 };
    let mut body = Vec::new();
    for _ in 0..s.usize_in(1..4) {
        let init = match s.draw(4) {
            0 => Expr::Str(s.string(0..3, "ab"), P),
            1 => Expr::Null(P),
            _ => pure_expr(s, &ctx.visible(), 1),
        };
        let name = ctx.fresh_name("v");
        ctx.scopes[0].push((name.clone(), false));
        body.push(Stmt::Decl {
            ty: DeclType::Int,
            decls: vec![Declarator { name, array_size: None, init: Some(init), pos: P }],
        });
    }
    for _ in 0..s.usize_in(1..3) {
        body.push(counted_loop(s, &mut ctx, 1));
    }
    // A hop yields with the frame, so every local the loops left behind
    // is compared, not just the one returned.
    body.push(Stmt::Hop(HopArgs { ln: None, ll: None, ldir: None }, P));
    let vars = ctx.visible();
    body.push(Stmt::Return(Some(Expr::Var(s.pick(&vars).clone(), P)), P));
    Script { funcs: vec![Func { name: "f0".into(), params: Vec::new(), body, pos: P }] }
}

fn compile_arb(s: &mut Source) -> Result<Program, String> {
    compile_script(arb_script(s))
}

fn compile_script(script: Script) -> Result<Program, String> {
    compile_ast(&script).map_err(|e| format!("generated AST failed to compile: {e}\n{script:#?}"))
}

// ---------------------------------------------------------------------
// The lockstep harness.
// ---------------------------------------------------------------------

/// A deterministic environment for one engine, with the native the
/// generator emits calls to registered so execution continues past it.
fn env() -> MapEnv {
    let mut e = MapEnv::new();
    e.natives.register("some_native", |_, args: &[Value]| {
        let mut acc = 0i64;
        for a in args {
            acc = acc.wrapping_mul(31).wrapping_add(a.as_int().unwrap_or(1));
        }
        Ok(Value::Int(acc))
    });
    e
}

/// Drive one messenger to completion under both engines, segment by
/// segment, comparing every observable after every segment. Returns the
/// first divergence as an error.
fn drive_both(
    p: &Program,
    cp: &CompiledProgram,
    fuel_of: &mut dyn FnMut(usize) -> u64,
) -> Result<(), String> {
    // The generated entry function may take parameters; bind small ints.
    let args: Vec<Value> =
        (0..p.funcs[p.entry.0 as usize].arity).map(|k| Value::Int(i64::from(k) + 2)).collect();
    let mut mi = MessengerState::launch(p, 1.into(), &args).map_err(|e| e.to_string())?;
    let mut mc = MessengerState::launch(p, 1.into(), &args).map_err(|e| e.to_string())?;
    let mut ei = env();
    let mut ec = env();
    for seg in 0..64 {
        let fuel = fuel_of(seg);
        ei.vtime = mi.vtime;
        ec.vtime = mc.vtime;
        let yi = interp::run(p, &mut mi, &mut ei, fuel);
        let yc = compile::run(cp, p, &mut mc, &mut ec, fuel);
        if yi != yc {
            return Err(format!("segment {seg} (fuel {fuel}): yields diverge\n  interp:   {yi:?}\n  compiled: {yc:?}"));
        }
        if mi.frames != mc.frames {
            return Err(format!(
                "segment {seg} (fuel {fuel}): frames diverge after {yi:?}\n  interp:   {:?}\n  compiled: {:?}",
                mi.frames, mc.frames
            ));
        }
        if ei.vars != ec.vars {
            return Err(format!(
                "segment {seg}: node-var effects diverge\n  interp:   {:?}\n  compiled: {:?}",
                ei.vars, ec.vars
            ));
        }
        if ei.ops != ec.ops {
            return Err(format!(
                "segment {seg}: ops charge diverges (interp {}, compiled {})",
                ei.ops, ec.ops
            ));
        }
        if mi.vtime != mc.vtime {
            return Err(format!(
                "segment {seg}: virtual time diverges ({:?} vs {:?})",
                mi.vtime, mc.vtime
            ));
        }
        match yi {
            // Hop/delete/create park-and-resume: the wire state just
            // compared equal is exactly what would migrate; resume it.
            Ok(Yield::Hop(_) | Yield::Delete(_) | Yield::Create(_)) => {}
            Ok(Yield::SchedAbs(t)) => {
                mi.vtime = t;
                mc.vtime = t;
            }
            Ok(Yield::SchedDlt(dt)) => {
                let t = Vt::new(mi.vtime.as_f64() + dt);
                mi.vtime = t;
                mc.vtime = t;
            }
            Ok(Yield::Terminated(_)) => return Ok(()),
            // FuelExhausted is a comparable outcome, not a divergence:
            // resume to exercise mid-expression resume points.
            Err(msgr_vm::VmError::FuelExhausted) => {}
            Err(_) => return Ok(()),
        }
    }
    Ok(()) // still hopping after the segment cap: states stayed equal throughout
}

/// One differential case over a program drawn by `script`; `cp_of`
/// compiles it (and may count what it compiled).
fn case(
    s: &mut Source,
    script: fn(&mut Source) -> Script,
    cp_of: impl Fn(&Program) -> Result<CompiledProgram, String>,
) -> Result<(), String> {
    let p = compile_script(script(s))?;
    if msgr_analyze::verify(&p).is_err() {
        // The PR 3 soundness property says this can't happen; don't
        // double-report it here.
        return Ok(());
    }
    let cp = cp_of(&p)?;
    // Mostly generous fuel, sometimes a tiny budget so segments cut off
    // mid-expression (resume points at arbitrary pcs, exact fuel walls).
    let mut fuels: Vec<u64> = Vec::new();
    for _ in 0..8 {
        fuels.push(if s.bool_with(0.3) { s.u64_in(1..200) } else { 100_000 });
    }
    drive_both(&p, &cp, &mut |seg| fuels[seg % fuels.len()])
}

#[test]
fn engines_agree_on_generated_programs() {
    // At least a tenth of the cases must compile a typed loop, or the
    // property says nothing about the unboxed executor.
    use std::sync::atomic::{AtomicU32, Ordering};
    let (cases, typed) = (AtomicU32::new(0), AtomicU32::new(0));
    check_with(Config::with_cases(256), "engines_agree", |s| {
        cases.fetch_add(1, Ordering::Relaxed);
        case(s, arb_script, |p| {
            let cp = compile::compile(p)?;
            if cp.typed_loops() > 0 {
                typed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(cp)
        })
    });
    let (cases, typed) = (cases.into_inner(), typed.into_inner());
    assert!(typed * 10 >= cases, "only {typed} of {cases} cases compiled a typed loop");
}

#[test]
#[ignore = "soak: 4096 cases; run via scripts/ci.sh --soak"]
fn engines_agree_soak() {
    check_with(Config::with_cases(4096), "engines_agree_soak", |s| {
        case(s, arb_script, compile::compile)
    });
}

#[test]
fn mutation_check_catches_a_miscompiled_superinstruction() {
    // A deliberately miscompiled engine (fused arithmetic with swapped
    // operands) must be caught by the same harness — if this passes
    // quietly, the differential property is vacuous.
    let p = msgr_lang::compile(
        "main() { int x; int i; i = 0; while (i < 3) { x = 10 - 3; i = i + 1; } return x; }",
    )
    .unwrap();
    msgr_analyze::verify(&p).expect("fixture verifies");
    let good = compile::compile(&p).unwrap();
    drive_both(&p, &good, &mut |_| 100_000).expect("honest compile agrees");
    let bad = compile::compile_miscompiled(&p).unwrap();
    let err =
        drive_both(&p, &bad, &mut |_| 100_000).expect_err("swapped operands must be observable");
    assert!(err.contains("diverge"), "unexpected failure shape: {err}");
}

#[test]
fn engines_agree_on_counted_loops() {
    // The same lockstep property over loop-heavy scripts: fused loops
    // entered with every kind of value in their slots, and often cut off
    // by a tiny fuel budget between two iterations.
    check_with(Config::with_cases(256), "engines_agree_loops", |s| {
        case(s, arb_loop_script, compile::compile)
    });
}

#[test]
fn summaries_are_stable_across_wire_roundtrip() {
    // Summaries are derived facts about bytecode: a no-op codec
    // roundtrip of the program must reproduce the identical table. 256
    // randomized programs.
    check_with(Config::with_cases(256), "summary_stability", |s| {
        let p = compile_arb(s)?;
        if msgr_analyze::verify(&p).is_err() {
            return Ok(());
        }
        let t1 = msgr_analyze::summarize(&p);
        let p2 = msgr_vm::wire::decode_program(msgr_vm::wire::encode_program(&p))
            .map_err(|e| format!("program roundtrip failed: {e}"))?;
        if p.id() != p2.id() {
            return Err("content id changed across program roundtrip".into());
        }
        let t2 = msgr_analyze::summarize(&p2);
        if t1 != t2 {
            return Err(format!(
                "summaries unstable across program roundtrip\n  before: {t1:?}\n  after:  {t2:?}"
            ));
        }
        Ok(())
    });
}

#[test]
fn miscompile_is_caught_by_the_generator_too() {
    // Same mutation, random programs: within 256 generated cases at
    // least one program must trip the miscompiled engine. Fused loops
    // are the only superinstructions, so half the cases come from the
    // loop-heavy generator; this guards against both generators
    // drifting toward loop-free or arithmetic-free programs.
    use std::sync::atomic::{AtomicBool, Ordering};
    let tripped = AtomicBool::new(false);
    check_with(Config::with_cases(256), "miscompile_caught", |s| {
        let script = if s.any_bool() { arb_script(s) } else { arb_loop_script(s) };
        let p = compile_script(script)?;
        if msgr_analyze::verify(&p).is_err() {
            return Ok(());
        }
        let bad = compile::compile_miscompiled(&p).map_err(|e| e.to_string())?;
        if drive_both(&p, &bad, &mut |_| 100_000).is_err() {
            tripped.store(true, Ordering::Relaxed);
        }
        Ok(())
    });
    assert!(tripped.load(Ordering::Relaxed), "no generated program tripped the seeded miscompile");
}
