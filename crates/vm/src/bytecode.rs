//! Bytecode definitions: operations, destination specifications for the
//! navigational statements, and compiled [`Program`]s.
//!
//! Programs are content-addressed by [`ProgramId`] (a 64-bit FNV hash of
//! the serialized program). A migrating Messenger normally carries only
//! this id — the paper's shared-file-system optimization: "MESSENGERS
//! code does not need to be carried between nodes but can be loaded as
//! necessary" (§4). The daemon-side code registry lives in `msgr-core`.

use crate::value::Value;

/// Index of a function within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u16);

/// Content hash identifying a compiled program cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId(pub u64);

impl std::fmt::Display for ProgramId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prog#{:016x}", self.0)
    }
}

/// The predefined, read-only network variables (§2.1), prefixed `$` in
/// MSGR-C source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetVar {
    /// `$address` — the daemon (host) the messenger currently runs on.
    Address,
    /// `$last` — the link instance traversed to enter the current node.
    Last,
    /// `$node` — the name of the current logical node.
    Node,
    /// `$time` — the messenger's current virtual time.
    Time,
}

/// Link direction constraint in a destination specification: the paper's
/// `+` (forward), `-` (backward), `*` (either).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dir {
    /// Follow the link along its orientation (`+`).
    Forward,
    /// Follow the link against its orientation (`-`).
    Backward,
    /// Either way (`*`, the default).
    #[default]
    Any,
}

/// How a node position in a `hop`/`delete` specification is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodePat {
    /// `*` — any node (the default).
    #[default]
    Wild,
    /// An expression; its value (at the top of the operand stack at
    /// execution time) is compared against the node name.
    Expr,
}

/// How a link in a `hop`/`delete` specification is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkPat {
    /// `*` — any link (the default).
    #[default]
    Wild,
    /// `~` — only unnamed links.
    Unnamed,
    /// An expression: a string/int names the link; a link instance (from
    /// `$last`) matches exactly that link.
    Expr,
    /// `virtual` — a direct jump to the node named by `ln`, regardless
    /// of links.
    Virtual,
}

/// Destination specification for `hop` and `delete` (§2.1):
/// `hop(ln = n; ll = l; ldir = d)`.
///
/// Expression operands are pushed onto the operand stack (ln first, then
/// ll) before the `Hop`/`Delete` instruction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopSpec {
    /// Logical-node pattern.
    pub ln: NodePat,
    /// Logical-link pattern.
    pub ll: LinkPat,
    /// Link direction.
    pub ldir: Dir,
}

impl HopSpec {
    /// Number of stack operands this spec consumes.
    pub fn operand_count(&self) -> usize {
        (self.ln == NodePat::Expr) as usize + (self.ll == LinkPat::Expr) as usize
    }
}

/// Naming of a created node or link: the paper's `~` (unnamed) or an
/// expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NamePat {
    /// `~` — unnamed (the default).
    #[default]
    Unnamed,
    /// Named by an expression operand.
    Expr,
}

/// One `(n_i, l_i, d_i, N_i, L_i, D_i)` item of a `create` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CreateItem {
    /// New logical node name.
    pub ln: NamePat,
    /// Connecting logical link name.
    pub ll: NamePat,
    /// Orientation of the connecting link (current node → new node is
    /// `Forward`).
    pub ldir: Dir,
    /// Daemon-node pattern choosing where the new node is placed.
    pub dn: NodePat,
    /// Daemon-link pattern (matched against the daemon network).
    pub dl: LinkPat,
    /// Daemon-link direction.
    pub ddir: Dir,
}

impl CreateItem {
    /// Number of stack operands this item consumes
    /// (pushed in order: ln, ll, dn, dl).
    pub fn operand_count(&self) -> usize {
        (self.ln == NamePat::Expr) as usize
            + (self.ll == NamePat::Expr) as usize
            + (self.dn == NodePat::Expr) as usize
            + (self.dl == LinkPat::Expr) as usize
    }
}

/// A full `create` statement: one or more items plus the optional `ALL`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CreateSpec {
    /// The `(n_i, l_i, d_i; N_i, L_i, D_i)` items.
    pub items: Vec<CreateItem>,
    /// With `ALL`, each item is instantiated on *every* matching daemon
    /// and the messenger replicates to all new nodes.
    pub all: bool,
}

impl CreateSpec {
    /// Total stack operands consumed by the statement.
    pub fn operand_count(&self) -> usize {
        self.items.iter().map(CreateItem::operand_count).sum()
    }
}

/// One bytecode operation of the stack machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u16),
    /// Push local slot `i` of the current frame.
    LoadLocal(u16),
    /// Pop into local slot `i`.
    StoreLocal(u16),
    /// Push the node variable named `consts[i]` (NULL if absent).
    LoadNode(u16),
    /// Pop into the node variable named `consts[i]`.
    StoreNode(u16),
    /// Push a network variable.
    LoadNet(NetVar),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Arithmetic / logic (pop 2, push 1; `Neg`/`Not` pop 1).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division. Integer division truncates; division by zero is a
    /// runtime error.
    Div,
    /// Remainder (C semantics: sign of the dividend).
    Mod,
    /// Arithmetic negation.
    Neg,
    /// Logical not (C truthiness).
    Not,
    /// `==` (loose equality; NULL-safe).
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// Unconditional relative jump (offset from the *next* instruction).
    Jump(i32),
    /// Pop; jump if falsy.
    JumpIfFalse(i32),
    /// Peek; jump if truthy *without popping* (for `||`).
    JumpIfTruePeek(i32),
    /// Peek; jump if falsy *without popping* (for `&&`).
    JumpIfFalsePeek(i32),
    /// Call user function `f` with `argc` stack arguments.
    Call {
        /// Callee function index.
        f: u16,
        /// Argument count popped from the stack.
        argc: u8,
    },
    /// Call the native function named `consts[name]`.
    CallNative {
        /// Constant-pool index of the function name.
        name: u16,
        /// Argument count popped from the stack.
        argc: u8,
    },
    /// Return from the current frame (return value on top of stack).
    Ret,
    /// Yield: `hop(hop_specs[i])`.
    Hop(u16),
    /// Yield: `create(create_specs[i])`.
    Create(u16),
    /// Yield: `delete(hop_specs[i])`.
    Delete(u16),
    /// Yield: suspend until absolute virtual time (pop 1).
    SchedAbs,
    /// Yield: suspend for a virtual-time delta (pop 1).
    SchedDlt,
    /// Yield: terminate this messenger immediately.
    Halt,
    /// Pop default value, pop size → push an array of `size` copies of
    /// the default.
    MakeArr,
    /// Pop index, pop array → push element.
    IndexGet,
    /// Pop value, pop index, pop array → push the array with
    /// `arr[index] = value` applied (copy-on-write).
    IndexSet,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (for diagnostics and entry-point lookup).
    pub name: String,
    /// Number of parameters (bound to the first `arity` local slots).
    pub arity: u8,
    /// Total local slots, including parameters.
    pub n_slots: u16,
    /// The code. Execution falls off the end as an implicit
    /// `return NULL`.
    pub code: Vec<Op>,
    /// Source line of each instruction, parallel to `code`. Empty when
    /// the program was assembled without debug info (hand-built
    /// programs); the verifier and `msgr-lint` use it to attach source
    /// spans to diagnostics.
    pub lines: Vec<u32>,
}

impl Function {
    /// The source line of the instruction at `pc`, if debug info is
    /// present.
    ///
    /// Lowering emits synthetic instructions (loop back-edges, patch
    /// jumps, implicit returns) with line entry `0` — no source line of
    /// their own. Those resolve to the nearest *preceding* instruction
    /// with real debug info: the statement whose lowering produced
    /// them, which is always in the same basic block or the block being
    /// closed. Returns `None` only when `pc` is out of range or no
    /// instruction at or before it carries a line.
    pub fn line_at(&self, pc: usize) -> Option<u32> {
        let upto = self.lines.get(..=pc)?;
        upto.iter().rev().copied().find(|&l| l != 0)
    }
}

/// A compiled MSGR-C program: constant pool, functions, navigation
/// specs, and the entry function.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Functions; `FuncId` indexes this.
    pub funcs: Vec<Function>,
    /// `hop`/`delete` destination specifications.
    pub hop_specs: Vec<HopSpec>,
    /// `create` specifications.
    pub create_specs: Vec<CreateSpec>,
    /// The function a freshly injected messenger starts in.
    pub entry: FuncId,
}

impl Program {
    /// The program's content hash: FNV-1a over a canonical rendering
    /// (the `Debug` text of the constants, functions, hop specs and create
    /// specs, then the entry index's little-endian bytes), with the
    /// multiplier `0x1000_0000_01b3` that ids have always used rather than
    /// the textbook prime. The rendering streams into the hash and is never
    /// built. The code registry calls this once per registration; launches
    /// take the id it returned.
    pub fn id(&self) -> ProgramId {
        use std::fmt::Write as _;
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        // `Fnv1a::write_str` never fails, so neither does the rendering.
        let _ = write!(
            h,
            "{:?}{:?}{:?}{:?}",
            self.consts, self.funcs, self.hop_specs, self.create_specs
        );
        h.eat(&self.entry.0.to_le_bytes());
        ProgramId(h.0)
    }

    /// Find a function by name.
    pub fn function_named(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u16))
    }

    /// Look up a function; `None` if the id is past the program's
    /// functions (a frame or call decoded off the wire may name any).
    pub fn func(&self, id: FuncId) -> Option<&Function> {
        self.funcs.get(id.0 as usize)
    }

    /// Total instruction count across functions (used in size metrics).
    pub fn instruction_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Approximate serialized size of the program in bytes — what a
    /// *carry-code* migration (the WAVE-style ablation) pays per hop.
    pub fn wire_bytes(&self) -> u64 {
        let consts: u64 = self.consts.iter().map(Value::wire_bytes).sum();
        let code: u64 = self.funcs.iter().map(|f| 4 * f.code.len() as u64 + 16).sum();
        let specs = 8 * (self.hop_specs.len() + self.create_specs.len()) as u64;
        consts + code + specs + 16
    }
}

/// FNV-1a state that takes text as a [`std::fmt::Write`] sink.
struct Fnv1a(u64);

impl Fnv1a {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// Convenience builder for assembling programs by hand (tests,
/// micro-benchmarks; the real front-end is `msgr-lang`).
#[derive(Debug, Default)]
pub struct Builder {
    consts: Vec<Value>,
    funcs: Vec<Function>,
    hop_specs: Vec<HopSpec>,
    create_specs: Vec<CreateSpec>,
}

impl Builder {
    /// An empty builder.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Intern a constant, returning its pool index. Identical constants
    /// are shared.
    pub fn constant(&mut self, v: Value) -> u16 {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u16;
        }
        let i = self.consts.len();
        assert!(i < u16::MAX as usize, "constant pool overflow");
        self.consts.push(v);
        i as u16
    }

    /// Register a hop/delete spec, returning its index.
    pub fn hop_spec(&mut self, spec: HopSpec) -> u16 {
        let i = self.hop_specs.len();
        self.hop_specs.push(spec);
        i as u16
    }

    /// Register a create spec, returning its index.
    pub fn create_spec(&mut self, spec: CreateSpec) -> u16 {
        let i = self.create_specs.len();
        self.create_specs.push(spec);
        i as u16
    }

    /// Add a function; returns its id.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        arity: u8,
        extra_slots: u16,
        code: Vec<Op>,
    ) -> FuncId {
        self.function_with_lines(name, arity, extra_slots, code, Vec::new())
    }

    /// Add a function with a per-instruction source-line table
    /// (parallel to `code`; pass an empty vec for no debug info).
    pub fn function_with_lines(
        &mut self,
        name: impl Into<String>,
        arity: u8,
        extra_slots: u16,
        code: Vec<Op>,
        lines: Vec<u32>,
    ) -> FuncId {
        let id = FuncId(self.funcs.len() as u16);
        self.funcs.push(Function {
            name: name.into(),
            arity,
            n_slots: arity as u16 + extra_slots,
            code,
            lines,
        });
        id
    }

    /// Finish the program with the given entry function.
    pub fn finish(self, entry: FuncId) -> Program {
        assert!((entry.0 as usize) < self.funcs.len(), "entry out of range");
        Program {
            consts: self.consts,
            funcs: self.funcs,
            hop_specs: self.hop_specs,
            create_specs: self.create_specs,
            entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        let mut b = Builder::new();
        let c = b.constant(Value::Int(1));
        let f = b.function("main", 0, 0, vec![Op::Const(c), Op::Ret]);
        b.finish(f)
    }

    #[test]
    fn constants_are_interned() {
        let mut b = Builder::new();
        let a = b.constant(Value::Int(5));
        let c = b.constant(Value::str("x"));
        let d = b.constant(Value::Int(5));
        assert_eq!(a, d);
        assert_ne!(a, c);
    }

    #[test]
    fn program_ids_are_stable_and_content_sensitive() {
        let p1 = tiny();
        let p2 = tiny();
        assert_eq!(p1.id(), p2.id());
        let mut b = Builder::new();
        let c = b.constant(Value::Int(2));
        let f = b.function("main", 0, 0, vec![Op::Const(c), Op::Ret]);
        let p3 = b.finish(f);
        assert_ne!(p1.id(), p3.id());
    }

    #[test]
    fn function_lookup() {
        let mut b = Builder::new();
        let f = b.function("alpha", 0, 0, vec![Op::Ret]);
        let g = b.function("beta", 2, 1, vec![Op::Ret]);
        let p = b.finish(f);
        assert_eq!(p.function_named("beta"), Some(g));
        assert_eq!(p.function_named("nope"), None);
        assert_eq!(p.func(g).map(|f| f.n_slots), Some(3));
        assert!(p.func(FuncId(2)).is_none());
    }

    #[test]
    fn spec_operand_counts() {
        let s = HopSpec { ln: NodePat::Expr, ll: LinkPat::Expr, ldir: Dir::Any };
        assert_eq!(s.operand_count(), 2);
        assert_eq!(HopSpec::default().operand_count(), 0);
        let c = CreateSpec {
            items: vec![
                CreateItem { ln: NamePat::Expr, ll: NamePat::Expr, ..Default::default() },
                CreateItem::default(),
            ],
            all: true,
        };
        assert_eq!(c.operand_count(), 2);
    }

    #[test]
    fn wire_bytes_nonzero() {
        let p = tiny();
        assert!(p.wire_bytes() > 16);
        assert_eq!(p.instruction_count(), 2);
    }

    #[test]
    #[should_panic(expected = "entry out of range")]
    fn bad_entry_panics() {
        let b = Builder::new();
        let _ = b.finish(FuncId(0));
    }

    /// Synthetic instructions produced by loop lowering carry line
    /// entry 0; `line_at` must attribute them to the statement that
    /// produced them (nearest preceding real entry), not to nothing —
    /// and certainly not to the function's first line.
    #[test]
    fn line_at_resolves_synthetic_loop_ops_to_their_block() {
        // The shape `while` lowering produces:
        //   pc 0-1  init            (line 2)
        //   pc 2-4  cond            (line 3)
        //   pc 5    jfalse exit     (line 3)
        //   pc 6-7  body            (line 4)
        //   pc 8    jmp head        (line 0: synthetic back-edge)
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c3 = b.constant(Value::Int(3));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Const(c3),
            Op::Lt,
            Op::JumpIfFalse(4),
            Op::Const(c3),
            Op::Pop,
            Op::Jump(-7),
        ];
        let lines = vec![2, 2, 3, 3, 3, 3, 4, 4, 0];
        let f = b.function_with_lines("main", 0, 1, code, lines);
        let p = b.finish(f);
        let f = p.func(f).expect("main is in the program");
        assert_eq!(f.line_at(0), Some(2));
        assert_eq!(f.line_at(5), Some(3));
        // The synthetic back-edge belongs to the `while` body (line 4),
        // not the function head.
        assert_eq!(f.line_at(8), Some(4));
        // Out of range stays None; so does an all-zero prefix.
        assert_eq!(f.line_at(9), None);
        let mut b = Builder::new();
        let g = b.function_with_lines("g", 0, 0, vec![Op::Ret], vec![0]);
        let p = b.finish(g);
        assert_eq!(p.func(g).map(|f| f.line_at(0)), Some(None));
    }
}
