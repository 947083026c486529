//! # msgr-lang — the MSGR-C scripting language
//!
//! Messenger behaviours in the paper are "written in a subset of C and
//! are compiled into a form of byte code" (§2.1). MSGR-C is that subset:
//!
//! * **Computational statements** — C expressions, assignment (usable as
//!   an expression, as in Fig. 3's `while ((task = next_task()) != NULL)`),
//!   `if`/`else`, `while`, `for`, `return`, `break`, `continue`, and
//!   function definitions with recursion. All standard data types except
//!   pointers: `int`, `float` (= C `double`), `string`, `bool`, and
//!   `block` (a matrix/data block handle).
//! * **Navigational statements** — `hop`, `create`, `delete` with the
//!   paper's destination-specification syntax
//!   (`hop(ln = n; ll = l; ldir = +)`, wildcards `*`, unnamed `~`,
//!   `create(...; ALL)`).
//! * **Function invocation statements** — calls to precompiled native
//!   functions registered with the daemons.
//! * **Virtual time** — `M_sched_time_abs(t)` and `M_sched_time_dlt(dt)`
//!   intrinsics (§2.2).
//!
//! Variable kinds follow §2.1: plain declarations (`int i;`) are
//! *messenger variables*, private and carried on every hop;
//! `node`-qualified declarations (`node block resid_A;`) are *node
//! variables*, resident at the current logical node and shared by every
//! messenger visiting it; `$address`, `$last`, `$node`, `$time` are the
//! read-only *network variables*.
//!
//! ## Example
//!
//! ```
//! use msgr_lang::compile;
//!
//! let program = compile(
//!     r#"
//!     main(n) {
//!         int i, acc;
//!         for (i = 0; i < n; i = i + 1) { acc = acc + i; }
//!         return acc;
//!     }
//!     "#,
//! )?;
//! assert_eq!(program.funcs.len(), 1);
//! # use msgr_vm::{MessengerState, interp, Value, NullEnv};
//! let mut m = MessengerState::launch(&program, 7.into(), &[Value::Int(5)])?;
//! let y = interp::run(&program, &mut m, &mut NullEnv, 10_000)?;
//! assert_eq!(y, msgr_vm::Yield::Terminated(Value::Int(10)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod compiler;
pub mod dis;
mod lexer;
mod parser;

pub use compiler::compile_ast;
pub use lexer::{tokenize, Lexer, Token, TokenKind};
pub use parser::parse;

use msgr_vm::Program;

/// Where in the source an error occurred (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A front-end error: lexing, parsing, or compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Which phase rejected the program.
    pub phase: Phase,
    /// Human-readable description.
    pub message: String,
    /// Source location.
    pub pos: Pos,
}

/// Compilation phases, for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Syntax analysis.
    Parse,
    /// Resolution and code generation.
    Compile,
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Compile => "compile",
        };
        write!(f, "{phase} error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LangError {}

/// Compile MSGR-C source to a [`Program`]. The entry point is the first
/// function in the file.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first problem found.
pub fn compile(source: &str) -> Result<Program, LangError> {
    let script = parse(source)?;
    let program = compile_ast(&script)?;
    debug_assert_verified(&program);
    Ok(program)
}

/// Compiler-soundness net: in debug builds every compiled program is
/// run through the `msgr-analyze` bytecode verifier. The compiler must
/// never emit code a daemon would refuse to load.
fn debug_assert_verified(program: &Program) {
    if cfg!(debug_assertions) {
        if let Err(diags) = msgr_analyze::verify(program) {
            let rendered: Vec<String> = diags.iter().map(|d| d.render(program)).collect();
            panic!("compiler emitted unverifiable bytecode:\n{}", rendered.join("\n"));
        }
    }
}

/// Compile with an explicit entry function name.
///
/// # Errors
///
/// As [`compile`]; additionally errors if `entry` is not defined.
pub fn compile_with_entry(source: &str, entry: &str) -> Result<Program, LangError> {
    let script = parse(source)?;
    let mut program = compile_ast(&script)?;
    match program.function_named(entry) {
        Some(f) => {
            program.entry = f;
            debug_assert_verified(&program);
            Ok(program)
        }
        None => Err(LangError {
            phase: Phase::Compile,
            message: format!("entry function `{entry}` not defined"),
            pos: Pos { line: 1, col: 1 },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let p = compile("main() { return 1 + 2; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
    }

    #[test]
    fn compile_with_entry_selects() {
        let src = "a() { return 1; } b() { return 2; }";
        let p = compile_with_entry(src, "b").unwrap();
        assert_eq!(p.func(p.entry).map(|f| f.name.as_str()), Some("b"));
        assert!(compile_with_entry(src, "c").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let e = compile("main() { return @; }").unwrap_err();
        assert_eq!(e.pos.line, 1);
        assert!(e.to_string().contains("1:"));
    }
}
