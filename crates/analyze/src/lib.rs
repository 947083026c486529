//! Static analysis for MESSENGERS bytecode: the mobile-code trust layer.
//!
//! Daemons execute *foreign, migrating* bytecode — the defining safety
//! problem of mobile-agent languages. This crate checks a compiled
//! [`Program`] before any daemon agrees to run it, in three layers:
//!
//! 1. **Bytecode verifier** ([`verify`]) — per-function CFG
//!    construction, jump-target validity, and an abstract
//!    interpretation of the operand stack along all paths: no
//!    underflow, consistent stack depth at merge points, call arity
//!    against function signatures, valid constant / local /
//!    node-variable / spec indices, and a static stack bound. A
//!    program that fails any of these checks is *rejected* — the
//!    daemon code registry (in `msgr-core`) quarantines it.
//! 2. **Navigation analyzer** — warns about unreachable code,
//!    `create(...; ALL)` inside a loop (exponential messenger
//!    fan-out), and `hop`/`delete` destination operands that can never
//!    name a node or link.
//! 3. **Node-variable lost-update lint** — the paper's §2.1 hazard: a
//!    value read from a node variable, carried across a yield
//!    (`hop`/`create`/…), and written back stale, silently clobbering
//!    updates made by other messengers in between. Tracked as value
//!    taint through locals and the operand stack, so recomputed values
//!    do not trigger it.
//!
//! All three, and the interprocedural effect summaries the lints read
//! ([`summary`]), come from one pass: each function is abstractly
//! interpreted once, callees first, against its callees' summaries,
//! and its own summary is read off that fixpoint. [`analyze`] returns
//! everything; [`verify`] returns only the hard errors; [`summarize`]
//! only the summaries. Summaries stay in this crate: nothing reads them
//! at run time.
//!
//! Diagnostics carry the function, pc, block label, and (when the
//! compiler attached debug info) the source line.

#![forbid(unsafe_code)]

use msgr_vm::{Function, LinkPat, NodePat, Op, Program, Value};

mod absint;
pub mod callgraph;
mod cfg;
mod lint;
pub mod summary;

pub use absint::MAX_STACK;
pub use callgraph::CallGraph;
pub use cfg::{block_labels, jump_target, successors};
pub use summary::{summarize, summarize_with_graph, FnSummary, HopBehavior, SumKind, SummaryTable};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Verification failure: the program must not run.
    Error,
    /// Lint: suspicious but executable.
    Warning,
}

/// One diagnostic, anchored to a function and (usually) a pc.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Stable code, e.g. `V002` (verifier) or `N301` (lint).
    pub code: &'static str,
    /// Error (verification failure) or warning (lint).
    pub severity: Severity,
    /// Index of the function in `Program::funcs`.
    pub func: usize,
    /// Function name, for human-readable output.
    pub func_name: String,
    /// Instruction the diagnostic anchors to, if any.
    pub pc: Option<usize>,
    /// Source line from the function's debug info, if present.
    pub line: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diag {
    fn error(code: &'static str, func: usize, f: &Function, pc: usize, message: String) -> Diag {
        Diag {
            code,
            severity: Severity::Error,
            func,
            func_name: f.name.clone(),
            pc: Some(pc),
            line: f.line_at(pc),
            message,
        }
    }

    fn warning(code: &'static str, func: usize, f: &Function, pc: usize, message: String) -> Diag {
        Diag { severity: Severity::Warning, ..Diag::error(code, func, f, pc, message) }
    }

    /// Render the diagnostic in `msgr-lint` style, using the same block
    /// labels the disassembler prints (`L3`), e.g.:
    ///
    /// `error[V002] in main @ pc 4 (L1, line 3): jump target 99 is out of bounds`
    pub fn render(&self, program: &Program) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut at = String::new();
        if let Some(pc) = self.pc {
            at.push_str(&format!(" @ pc {pc}"));
            let mut extras = Vec::new();
            if let Some(f) = program.funcs.get(self.func) {
                if let Some(label) = block_labels(f).get(&pc) {
                    extras.push(format!("L{label}"));
                }
            }
            if let Some(line) = self.line {
                extras.push(format!("line {line}"));
            }
            if !extras.is_empty() {
                at.push_str(&format!(" ({})", extras.join(", ")));
            }
        }
        format!("{sev}[{}] in {}{at}: {}", self.code, self.func_name, self.message)
    }
}

/// Per-function facts the verifier proves (returned on success).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncInfo {
    /// Maximum operand-stack depth along any path — a static bound a
    /// daemon could preallocate.
    pub max_stack: usize,
    /// Number of basic blocks (jump targets + entry).
    pub blocks: usize,
}

/// Everything the analyzer found: hard errors, lint warnings, and the
/// effect summaries read off the same pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All diagnostics, errors first, in function/pc order.
    pub diags: Vec<Diag>,
    /// Per-function verifier facts (empty for functions whose dataflow
    /// was skipped because of structural errors).
    pub funcs: Vec<Option<FuncInfo>>,
    /// One effect summary per function (see [`summary`]); conservative
    /// for functions that failed verification.
    pub summaries: SummaryTable,
}

impl Report {
    /// Hard verification errors only.
    pub fn errors(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Lint warnings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// True when the program may be loaded (no errors; warnings OK).
    pub fn is_verified(&self) -> bool {
        self.errors().next().is_none()
    }
}

/// Verify a program: [`analyze`], keeping only the hard errors.
///
/// Passing verification is the precondition the loop compiler
/// (`msgr_vm::compile`) assumes: a verified program has an in-range
/// entry function, structurally sane call targets, and jump offsets
/// that stay inside their function — which is what lets the compiler
/// precompute jump targets and fuse `while` loops. The contract
/// is directional, not iff: `verify(p).is_ok()` ⇒ `compile(p).is_ok()`
/// (asserted by `verified_programs_always_compile` in this crate's
/// property tests), while unverifiable programs may still compile, and
/// then fault at run time exactly like the interpreter.
///
/// # Errors
///
/// The list of verification failures, each with a distinct diagnostic
/// code, when the program must be rejected.
pub fn verify(p: &Program) -> Result<Vec<FuncInfo>, Vec<Diag>> {
    let report = analyze(p);
    if report.is_verified() {
        // No errors ⇒ every function completed dataflow.
        Ok(report.funcs.into_iter().map(|f| f.expect("verified function has info")).collect())
    } else {
        Err(report.diags.into_iter().filter(|d| d.severity == Severity::Error).collect())
    }
}

/// Full analysis: verifier errors, navigation and lost-update lints,
/// and effect summaries.
pub fn analyze(p: &Program) -> Report {
    run(p).0
}

/// The one pass behind [`verify`], [`analyze`] and [`summarize`]. SCCs
/// of the call graph go callees-first; each member is checked
/// structurally, then abstractly interpreted once against its callees'
/// summaries, and its own summary is read off that fixpoint. Summaries
/// touch kinds and taints, never stack depths, so verdicts do not
/// depend on them.
fn run(p: &Program) -> (Report, CallGraph) {
    let cg = CallGraph::build(p);
    let yielders = absint::may_yield(p);
    let n = p.funcs.len();
    let mut summaries = vec![FnSummary::default(); n];
    let mut diags: Vec<Vec<Diag>> = vec![Vec::new(); n];
    let mut infos: Vec<Option<FuncInfo>> = vec![None; n];
    for scc in &cg.sccs {
        // A recursive SCC keeps its conservative summary: its members
        // are interpreted against it.
        summary::conservative(p, &cg, scc, &mut summaries);
        for &m in scc {
            let (i, f) = (m as usize, &p.funcs[m as usize]);
            structural_check(p, i, f, &mut diags[i]);
            if !diags[i].is_empty() {
                // Structural damage: the dataflow (and lints that
                // consume its results) would chase invalid indices.
                continue;
            }
            match absint::interpret(p, i, f, &summaries, &yielders) {
                Ok(flow) => {
                    lint::navigation(p, i, f, &flow, &mut diags[i]);
                    if !cg.recursive[i] {
                        summary::sharpen(i, &flow, &mut summaries);
                    }
                    infos[i] = Some(FuncInfo {
                        max_stack: flow.max_stack,
                        blocks: cfg::block_labels(f).len() + 1,
                    });
                    diags[i].extend(flow.lints);
                }
                Err(d) => diags[i].extend(d),
            }
        }
    }

    let mut report =
        Report { diags: Vec::new(), funcs: infos, summaries: SummaryTable { funcs: summaries } };
    if p.entry.0 as usize >= n {
        report.diags.push(Diag {
            code: "V001",
            severity: Severity::Error,
            func: p.entry.0 as usize,
            func_name: "<entry>".into(),
            pc: None,
            line: None,
            message: format!(
                "entry function index {} out of range (program has {n} functions)",
                p.entry.0
            ),
        });
    }
    report.diags.extend(diags.into_iter().flatten());
    // Whole-program lint: needs the whole call graph at once.
    lint::unbounded_recursion(p, &cg, &mut report.diags);
    report
        .diags
        .sort_by_key(|d| (d.severity == Severity::Warning, d.func, d.pc.unwrap_or(usize::MAX)));
    (report, cg)
}

/// Pass 1: structural validity of every instruction, reachable or not
/// — index ranges, jump targets, call arity, name constants. These
/// checks need no dataflow, so they cover dead code too.
fn structural_check(p: &Program, fi: usize, f: &Function, diags: &mut Vec<Diag>) {
    if f.arity as u16 > f.n_slots {
        diags.push(Diag {
            code: "V011",
            severity: Severity::Error,
            func: fi,
            func_name: f.name.clone(),
            pc: None,
            line: None,
            message: format!("arity {} exceeds local slot count {}", f.arity, f.n_slots),
        });
    }
    if !f.lines.is_empty() && f.lines.len() != f.code.len() {
        diags.push(Diag {
            code: "V013",
            severity: Severity::Error,
            func: fi,
            func_name: f.name.clone(),
            pc: None,
            line: None,
            message: format!(
                "line table length {} does not match code length {}",
                f.lines.len(),
                f.code.len()
            ),
        });
    }
    let len = f.code.len();
    for (pc, op) in f.code.iter().enumerate() {
        let e = |code, message| Diag::error(code, fi, f, pc, message);
        match *op {
            Op::Jump(_) | Op::JumpIfFalse(_) | Op::JumpIfTruePeek(_) | Op::JumpIfFalsePeek(_) => {
                let target = cfg::jump_target(pc, op).expect("jump has target");
                // target == len is legal: it falls off the end, the
                // implicit `return NULL`.
                if target < 0 || target > len as isize {
                    diags.push(e(
                        "V002",
                        format!("jump target {target} is out of bounds (code length {len})"),
                    ));
                }
            }
            Op::Const(i) if i as usize >= p.consts.len() => {
                diags.push(e("V005", format!("constant index {i} out of range")));
            }
            Op::LoadLocal(i) | Op::StoreLocal(i) if i >= f.n_slots => {
                diags.push(e(
                    "V006",
                    format!("local slot {i} out of range (function has {})", f.n_slots),
                ));
            }
            Op::LoadNode(i) | Op::StoreNode(i) => match p.consts.get(i as usize) {
                None => {
                    diags.push(e("V005", format!("node-variable name constant {i} out of range")))
                }
                Some(v) if !matches!(v, Value::Str(_)) => diags.push(e(
                    "V010",
                    format!("node-variable name constant {i} is a {}, not a string", v.type_name()),
                )),
                Some(_) => {}
            },
            Op::CallNative { name, .. } => match p.consts.get(name as usize) {
                None => diags
                    .push(e("V005", format!("native-function name constant {name} out of range"))),
                Some(v) if !matches!(v, Value::Str(_)) => diags.push(e(
                    "V010",
                    format!(
                        "native-function name constant {name} is a {}, not a string",
                        v.type_name()
                    ),
                )),
                Some(_) => {}
            },
            Op::Call { f: callee, argc } => match p.funcs.get(callee as usize) {
                None => diags.push(e("V007", format!("call target {callee} out of range"))),
                Some(g) if g.arity != argc => diags.push(e(
                    "V008",
                    format!(
                        "call to `{}` passes {argc} arguments, but it takes {}",
                        g.name, g.arity
                    ),
                )),
                Some(_) => {}
            },
            Op::Hop(i) | Op::Delete(i) => match p.hop_specs.get(i as usize) {
                None => diags.push(e("V009", format!("hop/delete spec index {i} out of range"))),
                // A virtual hop jumps to the node `ln` names; the daemon
                // has nothing to look up without one.
                Some(s) if s.ll == LinkPat::Virtual && s.ln == NodePat::Wild => diags.push(e(
                    "V014",
                    format!("hop/delete spec {i} is virtual but names no destination node"),
                )),
                Some(_) => {}
            },
            Op::Create(i) if i as usize >= p.create_specs.len() => {
                diags.push(e("V009", format!("create spec index {i} out of range")));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
