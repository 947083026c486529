//! The analyzer's verdict on every shipped program, pinned: FNV-1a of
//! every effect summary (`hop`, `node_writes`, `node_must_writes`,
//! `ret_kind`, rendered with `Debug`) plus every rendered diagnostic,
//! for each `examples/scripts/*.mc` and each program `msgr-lint
//! --builtin` lints.
//! A refactor of `msgr-analyze` is held to these rows; a change that
//! legitimately moves a summary or a message re-pins the row and says so
//! in its log. The same programs, damaged every way the structural check
//! knows about, must never panic the analysis.

use std::panic::{catch_unwind, AssertUnwindSafe};

use messengers::analyze::{analyze, summarize};
use messengers::apps::{graph, mandel_msgr, matmul_msgr, swarm};
use messengers::lang::{compile, compile_with_entry};
use messengers::vm::{Op, Program, ProgramId};

/// Name and fingerprint of every shipped program, in [`shipped`] order.
const PINNED: [(&str, u64); 8] = [
    ("census.mc", 0xd67b5c372a157d0a),
    ("hotloop.mc", 0xb724f330afe0d705),
    ("walker.mc", 0xce8fb2e0dc960a2b),
    ("builtin:mandel/manager_worker", 0x7806e2d67f4f5f75),
    ("builtin:matmul/distribute_A", 0xe90068b627e0101a),
    ("builtin:matmul/rotate_B", 0xe90068b627e0101a),
    ("builtin:swarm/ant", 0xce8fb2e0dc960a2b),
    ("builtin:graph/bfs_wave", 0xf8faf402524ebf64),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// FNV-1a of each summary's `Debug` line followed by each rendered
/// diagnostic on its own line.
fn fingerprint(p: &Program) -> u64 {
    let mut bytes: Vec<u8> = summarize(p)
        .funcs
        .iter()
        .flat_map(|s| {
            format!("{:?}\n", (s.hop, &s.node_writes, &s.node_must_writes, s.ret_kind)).into_bytes()
        })
        .collect();
    for d in &analyze(p).diags {
        bytes.extend_from_slice(d.render(p).as_bytes());
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

/// The `.mc` scripts in `examples/scripts` (sorted by file name), then
/// the programs embedded in `msgr-apps`.
fn scripts() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scripts");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/scripts")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".mc"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let src = std::fs::read_to_string(format!("{dir}/{n}")).expect("readable script");
            let p = compile(&src).unwrap_or_else(|e| panic!("{n}: {e}"));
            (n, p)
        })
        .collect()
}

fn shipped() -> Vec<(String, Program)> {
    let mut out = scripts();
    let builtin = |name: &str, p: Result<Program, _>| (name.to_string(), p.expect(name));
    out.extend([
        builtin("builtin:mandel/manager_worker", compile(mandel_msgr::MANAGER_WORKER_SCRIPT)),
        builtin(
            "builtin:matmul/distribute_A",
            compile_with_entry(matmul_msgr::MATMUL_SCRIPTS, "distribute_A"),
        ),
        builtin(
            "builtin:matmul/rotate_B",
            compile_with_entry(matmul_msgr::MATMUL_SCRIPTS, "rotate_B"),
        ),
        builtin("builtin:swarm/ant", compile(swarm::ANT_SCRIPT)),
        builtin("builtin:graph/bfs_wave", compile(graph::BFS_WAVE_SCRIPT)),
    ]);
    out
}

/// `Program::id` as first defined: each part rendered with `format!`,
/// FNV-1a over the four renderings, then the entry index's bytes. The
/// multiplier is the one ids have always used, `0x1000_0000_01b3`, not
/// the textbook FNV prime [`fnv1a`] uses.
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
fn shipped_program_ids_are_the_rendered_definition() {
    for (name, p) in shipped() {
        assert_eq!(p.id(), rendered_id(&p), "{name}");
    }
}

#[test]
fn shipped_programs_analysis_is_pinned() {
    let actual: Vec<(String, u64)> =
        shipped().iter().map(|(name, p)| (name.clone(), fingerprint(p))).collect();
    let expected: Vec<(String, u64)> = PINNED.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(actual, expected, "name and analysis fingerprint of each shipped program");
}

/// Every way to damage one op that the structural check must catch:
/// jumps far out of range, a call to a missing function or with the
/// wrong arity, and constant / local / spec / native-name indices past
/// any table.
fn damaged_ops(p: &Program) -> Vec<Op> {
    let far = 60000;
    let wrong_arity = p.funcs[0].arity.wrapping_add(1);
    vec![
        Op::Jump(1000),
        Op::Jump(-1000),
        Op::JumpIfFalse(1000),
        Op::JumpIfFalse(-1000),
        Op::JumpIfTruePeek(1000),
        Op::JumpIfFalsePeek(-1000),
        Op::Call { f: 999, argc: 0 },
        Op::Call { f: 0, argc: wrong_arity },
        Op::Const(far),
        Op::LoadLocal(far),
        Op::StoreLocal(far),
        Op::LoadNode(far),
        Op::StoreNode(far),
        Op::Hop(far),
        Op::Delete(far),
        Op::Create(far),
        Op::CallNative { name: far, argc: 0 },
    ]
}

#[test]
fn analysis_is_total_on_damaged_programs() {
    let recursive = compile(
        r#"main() { return fib(5) + even(3); }
           fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
           even(n) { if (n == 0) return true; return odd(n - 1); }
           odd(n) { if (n == 0) return false; return even(n - 1); }"#,
    )
    .expect("recursive program compiles");
    let mut inputs = scripts();
    inputs.push(("recursive".into(), recursive));
    let mut checked = 0usize;
    for (name, program) in &inputs {
        let mut mutants: Vec<(String, Program)> = Vec::new();
        for (fi, f) in program.funcs.iter().enumerate() {
            for pc in 0..f.code.len() {
                for op in damaged_ops(program) {
                    let mut p = program.clone();
                    p.funcs[fi].code[pc] = op;
                    mutants.push((format!("{name}: fn {fi} pc {pc} := {op:?}"), p));
                }
            }
            for cut in 0..f.code.len() {
                let mut p = program.clone();
                p.funcs[fi].code.truncate(cut);
                p.funcs[fi].lines.truncate(cut);
                mutants.push((format!("{name}: fn {fi} truncated to {cut}"), p));
            }
        }
        for (what, p) in mutants {
            let ran = catch_unwind(AssertUnwindSafe(|| (analyze(&p), summarize(&p))));
            assert!(ran.is_ok(), "analysis panicked on {what}");
            checked += 1;
        }
    }
    assert!(checked > 1000, "only {checked} mutants");
}
