//! The cluster-wide code registry: one entry per program content hash,
//! holding either everything a daemon needs to run the program or the
//! reason no daemon ever will.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};

use msgr_sim::Stats;
use msgr_trace::{EventKind, Metric};
use msgr_vm::{CompiledProgram, Op, Program, ProgramId};

/// The cluster-wide code registry — the paper's shared file system: "code
/// does not need to be carried between nodes but can be loaded as
/// necessary" (§4).
///
/// This is also the trust boundary for mobile code: every program runs
/// through the `msgr-analyze` bytecode verifier at registration.
/// Programs that fail are *quarantined* — they keep their content id
/// (so a messenger referencing one can exist, and its refusal is
/// observable in-run), but no daemon will ever execute them.
#[derive(Clone, Default)]
pub struct CodeCache {
    map: Arc<RwLock<HashMap<ProgramId, Entry>>>,
    stats: Arc<RwLock<Stats>>,
}

/// What the registry holds for one content hash.
#[derive(Clone)]
pub(crate) enum Entry {
    /// Verified and compiled: runnable on either engine.
    Loaded(Arc<Loaded>),
    /// Refused by the verifier or the compiler, kept for inspection
    /// alongside the reason.
    Quarantined { program: Arc<Program>, reason: String },
}

impl Entry {
    fn loaded(&self) -> Option<&Loaded> {
        match self {
            Entry::Loaded(l) => Some(l),
            Entry::Quarantined { .. } => None,
        }
    }
}

/// A verified program in every form a daemon uses. The compiled loop
/// table exists by construction, so "verified but not compiled" cannot be
/// represented.
pub(crate) struct Loaded {
    pub(crate) program: Arc<Program>,
    pub(crate) compiled: CompiledProgram,
}

/// What [`CodeCache::register_outcome`] did with a program — platforms
/// turn this into `compile` / `code_hit` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// Verified and its loops compiled (first sighting of the body).
    Compiled {
        /// Functions compiled.
        funcs: u64,
        /// Superinstructions (fused `while` loops) across all functions.
        superinsts: u64,
    },
    /// The content hash was already compiled (cache hit).
    CacheHit,
    /// Refused by the verifier or the compiler.
    Quarantined,
}

impl RegisterOutcome {
    /// The trace event this outcome corresponds to (quarantines surface
    /// later, as in-run faults, not at registration).
    pub fn trace_event(self, prog: ProgramId) -> Option<EventKind> {
        match self {
            RegisterOutcome::Compiled { funcs, superinsts } => {
                Some(EventKind::CodeCompile { prog: prog.0, funcs, superinsts })
            }
            RegisterOutcome::CacheHit => Some(EventKind::CodeCacheHit { prog: prog.0 }),
            RegisterOutcome::Quarantined => None,
        }
    }
}

impl std::fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.read();
        let loaded = map.values().filter_map(Entry::loaded).count();
        write!(f, "CodeCache({loaded} programs, {} quarantined)", map.len() - loaded)
    }
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        CodeCache::default()
    }

    /// Register a program; returns its content id.
    ///
    /// The program is verified first, then — verification is exactly the
    /// precondition the loop compiler assumes — compiled into its
    /// fused-loop table, once per content hash no matter how many messengers
    /// carry the body or which [`crate::config::ExecMode`] the cluster
    /// runs (compiling unconditionally keeps `compile_*` metrics and
    /// trace events mode-invariant). An unverifiable or uncompilable
    /// program is quarantined rather than stored: its id is still
    /// returned (ids are content hashes; refusing to mint one hides
    /// nothing), but [`CodeCache::get`] will never hand it out and
    /// daemons fault any messenger that tries to run it.
    pub fn register(&self, program: &Program) -> ProgramId {
        self.register_outcome(program).0
    }

    /// [`CodeCache::register`], also reporting what happened.
    pub fn register_outcome(&self, program: &Program) -> (ProgramId, RegisterOutcome) {
        let id = program.id();
        match self.read().get(&id) {
            Some(Entry::Loaded(_)) => {
                self.stats.write().expect("stats lock poisoned").bump(Metric::CompileCacheHits);
                return (id, RegisterOutcome::CacheHit);
            }
            Some(Entry::Quarantined { .. }) => return (id, RegisterOutcome::Quarantined),
            None => {}
        }
        let compiled = msgr_analyze::verify(program)
            .map_err(|diags| diags.iter().map(|d| d.render(program)).collect::<Vec<_>>().join("; "))
            .and_then(|_| {
                msgr_vm::compile::compile(program).map_err(|e| format!("compile failed: {e}"))
            });
        let program = Arc::new(program.clone());
        let (entry, outcome) = match compiled {
            Ok(compiled) => {
                let funcs = compiled.func_count() as u64;
                let superinsts = compiled.superinstructions();
                let mut s = self.stats.write().expect("stats lock poisoned");
                s.bump(Metric::CompilePrograms);
                s.add(Metric::CompileSuperinsts, superinsts);
                s.add(Metric::CompileSteps, compiled.steps());
                s.add(Metric::AnalysisTypedLoops, compiled.typed_loops());
                (
                    Entry::Loaded(Arc::new(Loaded { program, compiled })),
                    RegisterOutcome::Compiled { funcs, superinsts },
                )
            }
            Err(reason) => (Entry::Quarantined { program, reason }, RegisterOutcome::Quarantined),
        };
        self.map.write().expect("registry lock poisoned").insert(id, entry);
        (id, outcome)
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<ProgramId, Entry>> {
        self.map.read().expect("registry lock poisoned")
    }

    /// The registry's one lookup: everything it knows about `id`.
    pub(crate) fn lookup(&self, id: ProgramId) -> Option<Entry> {
        self.read().get(&id).cloned()
    }

    /// Snapshot of the registry's `compile_*` counters, merged into
    /// platform reports alongside the per-daemon stats.
    pub fn stats(&self) -> Stats {
        self.stats.read().expect("stats lock poisoned").clone()
    }

    /// Look up a *verified* program. Quarantined programs are invisible
    /// here — use [`CodeCache::rejection`] to see why one was refused.
    pub fn get(&self, id: ProgramId) -> Option<Arc<Program>> {
        self.read().get(&id)?.loaded().map(|l| l.program.clone())
    }

    /// Order-independent fingerprint of every verified program body —
    /// the code-registry hash carried in anti-entropy gossip digests, so
    /// daemons can detect registry divergence without shipping code.
    pub fn content_hash(&self) -> u64 {
        self.read()
            .iter()
            .filter(|(_, e)| e.loaded().is_some())
            .fold(0u64, |h, (id, _)| h ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Why `id` was quarantined, if it was.
    pub fn rejection(&self, id: ProgramId) -> Option<String> {
        match self.read().get(&id)? {
            Entry::Loaded(_) => None,
            Entry::Quarantined { reason, .. } => Some(reason.clone()),
        }
    }

    /// Look up a program *even if quarantined*. Injection paths use
    /// this so a refusal surfaces as an in-run fault (with the
    /// `verify_rejected` counter bumped) instead of a registration
    /// error — the daemon, not the shell, is the trust boundary.
    pub fn get_any(&self, id: ProgramId) -> Option<Arc<Program>> {
        match self.lookup(id)? {
            Entry::Loaded(l) => Some(l.program.clone()),
            Entry::Quarantined { program, .. } => Some(program),
        }
    }

    /// Whether any registered program suspends on virtual time.
    pub fn any_uses_virtual_time(&self) -> bool {
        self.read().values().filter_map(Entry::loaded).any(|l| {
            l.program
                .funcs
                .iter()
                .any(|f| f.code.iter().any(|op| matches!(op, Op::SchedAbs | Op::SchedDlt)))
        })
    }
}
