//! Property tests tying the compiler to the verifier.
//!
//! 1. **Compiler soundness**: every program compiled from a generated
//!    (well-scoped) AST passes the bytecode verifier — the daemon
//!    trust boundary never rejects our own front-end's output.
//! 2. **Mutation**: corrupting a jump offset in verified bytecode is
//!    rejected with a precise V002 diagnostic at the corrupted pc;
//!    truncating a function never panics the verifier and is rejected
//!    with an anchored diagnostic whenever a jump dangles.
//! 3. **Verdicts ignore summaries**: `verify` and `analyze` report the
//!    same errors on generated programs and on both kinds of mutant.
//! 4. **Pin**: the summaries and rendered diagnostics of a fixed set of
//!    512 generated programs, hashed.
//! 5. **Ids**: `Program::id`, which streams its rendering into the hash,
//!    equals FNV-1a over the rendering built as `String`s, for every
//!    entry function of a generated program.

use std::cell::Cell;

use msgr_analyze::Diag;
use msgr_check::{check_with, Config, Source};
use msgr_lang::ast::*;
use msgr_lang::{compile_ast, Pos};
use msgr_vm::Dir;
use msgr_vm::{FuncId, Op, Program, ProgramId};

const P: Pos = Pos { line: 1, col: 1 };

/// Scoped generation context for one function body.
struct Ctx {
    /// Visible names per lexical scope: `(name, is_node_var)`.
    scopes: Vec<Vec<(String, bool)>>,
    /// Arity of every function in the script (callable by index).
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
                // Call a user function with the right arity, or a native.
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
        // `virtual` needs an explicit destination node.
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
    match s.draw(12) {
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
        _ => Stmt::Expr(arb_expr(s, ctx, 2)),
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

fn compile_arb(s: &mut Source) -> Result<Program, String> {
    let script = arb_script(s);
    compile_ast(&script).map_err(|e| format!("generated AST failed to compile: {e}\n{script:#?}"))
}

/// Every `(function, pc)` holding a jump.
fn jumps(program: &Program) -> Vec<(usize, usize)> {
    program
        .funcs
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.code
                .iter()
                .enumerate()
                .filter(|(pc, op)| msgr_analyze::jump_target(*pc, op).is_some())
                .map(move |(pc, _)| (fi, pc))
        })
        .collect()
}

/// Point the jump at `(fi, pc)` far outside its function.
fn corrupt_jump(program: &mut Program, fi: usize, pc: usize) {
    match &mut program.funcs[fi].code[pc] {
        Op::Jump(o) | Op::JumpIfFalse(o) | Op::JumpIfTruePeek(o) | Op::JumpIfFalsePeek(o) => {
            *o = 1 << 20
        }
        _ => unreachable!("not a jump"),
    }
}

/// `program` with function `fi` cut to its first `cut` ops (line table
/// too, so only the code is damaged).
fn truncated(program: &Program, fi: usize, cut: usize) -> Program {
    let mut p = program.clone();
    p.funcs[fi].code.truncate(cut);
    p.funcs[fi].lines.truncate(cut);
    p
}

#[test]
fn compiled_programs_verify() {
    check_with(Config::with_cases(256), "compiled_programs_verify", |s| {
        let program = compile_arb(s)?;
        msgr_analyze::verify(&program).map_err(|diags| {
            let msgs: Vec<String> = diags.iter().map(|d| d.render(&program)).collect();
            format!("compiler output failed verification:\n{}", msgs.join("\n"))
        })?;
        Ok(())
    });
}

#[test]
fn verified_programs_always_compile() {
    // The directional contract documented on `msgr_analyze::verify`:
    // passing verification is the precondition the loop compiler
    // assumes, so anything the verifier admits must compile. The
    // registry relies on this — a verified-but-uncompilable program
    // would be quarantined with a confusing "compile failed" reason.
    check_with(Config::with_cases(256), "verified_always_compile", |s| {
        let program = compile_arb(s)?;
        if msgr_analyze::verify(&program).is_err() {
            return Ok(()); // not our contract's hypothesis
        }
        let cp = msgr_vm::compile::compile(&program)
            .map_err(|e| format!("verified program failed to compile: {e}"))?;
        if cp.func_count() != program.funcs.len() {
            return Err(format!(
                "compiled {} of {} functions",
                cp.func_count(),
                program.funcs.len()
            ));
        }
        Ok(())
    });
}

#[test]
fn corrupted_jump_offset_is_rejected_precisely() {
    check_with(Config::with_cases(256), "corrupted_jump_rejected", |s| {
        let mut program = compile_arb(s)?;
        // Find every jump in the program; corrupt one, if any.
        let jumps = jumps(&program);
        if jumps.is_empty() {
            return Ok(()); // nothing to corrupt this case
        }
        let (fi, pc) = *s.pick(&jumps);
        corrupt_jump(&mut program, fi, pc);
        let diags = match msgr_analyze::verify(&program) {
            Ok(_) => return Err(format!("corrupted jump at fn {fi} pc {pc} not rejected")),
            Err(d) => d,
        };
        let hit = diags.iter().any(|d| d.code == "V002" && d.func == fi && d.pc == Some(pc));
        if !hit {
            return Err(format!(
                "expected V002 at fn {fi} pc {pc}, got {:?}",
                diags.iter().map(|d| (d.code, d.func, d.pc)).collect::<Vec<_>>()
            ));
        }
        Ok(())
    });
}

#[test]
fn truncated_functions_never_panic_and_dangling_jumps_reject() {
    let program = msgr_lang::compile(
        r#"main() {
            int i, acc;
            while (i < 10) {
                if (i % 2 == 0) { acc = acc + i; }
                i = i + 1;
            }
            return acc;
        }"#,
    )
    .unwrap();
    let full = &program.funcs[0].code;
    let mut rejected_at_least_once = false;
    for cut in 1..full.len() {
        match msgr_analyze::verify(&truncated(&program, 0, cut)) {
            Ok(_) => {}
            Err(diags) => {
                rejected_at_least_once = true;
                // Precise: anchored to the damaged function, with a pc.
                assert!(
                    diags.iter().all(|d| d.func == 0 && d.pc.is_some()),
                    "diagnostic not anchored: {diags:?}"
                );
            }
        }
    }
    assert!(rejected_at_least_once, "no truncation of a loop body dangles a jump?");
}

#[test]
fn verdicts_do_not_depend_on_summaries() {
    check_with(Config::with_cases(256), "verdicts_summary_free", |s| {
        let program = compile_arb(s)?;
        let mut mutants = vec![program.clone()];
        let jumps = jumps(&program);
        if !jumps.is_empty() {
            let (fi, pc) = *s.pick(&jumps);
            let mut p = program.clone();
            corrupt_jump(&mut p, fi, pc);
            mutants.push(p);
        }
        let fi = s.usize_in(0..program.funcs.len());
        let cut = s.usize_in(0..program.funcs[fi].code.len() + 1);
        mutants.push(truncated(&program, fi, cut));
        let key = |d: &Diag| (d.code, d.func, d.pc);
        for p in &mutants {
            let verified: Vec<_> = match msgr_analyze::verify(p) {
                Ok(_) => Vec::new(),
                Err(diags) => diags.iter().map(key).collect(),
            };
            let analyzed: Vec<_> = msgr_analyze::analyze(p).errors().map(key).collect();
            if verified != analyzed {
                return Err(format!("verify said {verified:?}, analyze said {analyzed:?}"));
            }
        }
        Ok(())
    });
}

#[test]
fn analysis_of_generated_programs_is_pinned() {
    // FNV-1a over each program's summaries (`hop`, `node_writes`,
    // `node_must_writes`, `ret_kind`, one `Debug` line per function) and
    // rendered diagnostics, in case order. A full `Config` literal: the
    // case count must not follow `MSGR_CHECK_CASES`.
    let hash = Cell::new(0xcbf29ce484222325u64);
    let feed = |bytes: &[u8]| {
        let h =
            bytes.iter().fold(hash.get(), |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
        hash.set(h);
    };
    check_with(Config { cases: 512, max_shrink: 4096 }, "analysis_pin", |s| {
        let program = compile_arb(s)?;
        for f in &msgr_analyze::summarize(&program).funcs {
            let summary = (f.hop, &f.node_writes, &f.node_must_writes, f.ret_kind);
            feed(format!("{summary:?}\n").as_bytes());
        }
        for d in &msgr_analyze::analyze(&program).diags {
            feed(d.render(&program).as_bytes());
            feed(b"\n");
        }
        Ok(())
    });
    assert_eq!(hash.get(), 0xc260b9bee5c63543, "analysis fingerprint of 512 generated programs");
}

/// `Program::id` as first defined: each part rendered with `format!`,
/// FNV-1a over the four renderings, then the entry index's bytes. The
/// multiplier is the one ids have always used, `0x1000_0000_01b3`, not
/// the textbook FNV prime `0x100_0000_01b3`.
fn rendered_id(p: &Program) -> ProgramId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(format!("{:?}", p.consts).as_bytes());
    eat(format!("{:?}", p.funcs).as_bytes());
    eat(format!("{:?}", p.hop_specs).as_bytes());
    eat(format!("{:?}", p.create_specs).as_bytes());
    eat(&p.entry.0.to_le_bytes());
    ProgramId(h)
}

#[test]
fn program_id_is_the_rendered_definition() {
    check_with(Config::with_cases(256), "program_id", |s| {
        let mut program = compile_arb(s)?;
        for entry in 0..program.funcs.len() {
            program.entry = FuncId(entry as u16);
            let (streamed, rendered) = (program.id(), rendered_id(&program));
            if streamed != rendered {
                return Err(format!("entry {entry}: id {streamed} but rendered {rendered}"));
            }
        }
        Ok(())
    });
}
