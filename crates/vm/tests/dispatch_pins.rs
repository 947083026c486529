//! The dispatch loop's frame switches, fuel check and sampler, pinned.
//!
//! Both engines run one dispatch loop (`interp::run_inner`), so the
//! differential suite (`diff_props.rs`) compares that loop with itself
//! everywhere but inside a fused loop: a wrong frame switch or a sample
//! taken at the wrong op would agree on both sides. These pins do not.
//!
//! The walker below enters a helper (`tri`) that runs a `while` loop the
//! compiler fuses, recurses (`fact`), hops from inside a helper
//! (`visit`), and returns by falling off the end of two functions
//! (`visit`, `note`), once inside the first segment so that the fuel
//! sweep reaches it. Each pin is a count plus an FNV-1a hash of every
//! observation, so a change anywhere in the sequence moves it.

use msgr_vm::compile::{self, CompiledProgram};
use msgr_vm::{
    interp, Env, MapEnv, MessengerId, MessengerState, NetVar, Program, Value, VmError, Yield,
};

const WALKER: &str = r#"
walk(n) {
    int i = 0;
    int s = 0;
    while (i < n) {
        s = s + tri(i);
        i = i + 1;
    }
    note(s);
    s = s + fact(5);
    visit(s);
    note(s);
    visit(s);
    return s;
}
tri(k) {
    int t = 0;
    int j = 0;
    while (j < k) {
        t = t + j;
        j = j + 1;
    }
    return t;
}
fact(k) {
    if (k < 2) return 1;
    return k * fact(k - 1);
}
visit(s) {
    hop(ll = "ring"; ldir = +);
}
note(s) {
    node int seen;
    seen = seen + s;
}
"#;

/// The walker's argument: `tri`'s loop runs 0..N iterations.
const N: i64 = 6;

/// FNV-1a over the observations, in order.
struct Fnv(u64, u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325, 0)
    }
    fn eat(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.1 += 1;
    }
}

/// A [`MapEnv`] that also samples every `interval` ops and records each
/// `(func, pc, crossings)` the dispatch loop reports.
struct Sampler {
    map: MapEnv,
    interval: u64,
    samples: Vec<(u32, u32, u64)>,
}

impl Env for Sampler {
    fn node_var(&mut self, name: &str) -> Value {
        self.map.node_var(name)
    }
    fn set_node_var(&mut self, name: &str, v: Value) {
        self.map.set_node_var(name, v)
    }
    fn net_var(&mut self, var: NetVar) -> Value {
        self.map.net_var(var)
    }
    fn call_native(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError> {
        self.map.call_native(name, args)
    }
    fn charge_ops(&mut self, ops: u64) {
        self.map.charge_ops(ops)
    }
    fn sample_interval(&self) -> u64 {
        self.interval
    }
    fn pc_sample(&mut self, func: u32, pc: u32, count: u64) {
        self.samples.push((func, pc, count));
    }
}

fn walker() -> (Program, CompiledProgram) {
    let p = msgr_lang::compile(WALKER).expect("walker compiles");
    let cp = compile::compile(&p).expect("walker's loops compile");
    (p, cp)
}

/// One segment on the interpreter, or on the fused-loop engine.
fn segment(
    engine: Option<&CompiledProgram>,
    p: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
) -> Result<Yield, VmError> {
    match engine {
        Some(cp) => compile::run(cp, p, m, env, fuel),
        None => interp::run(p, m, env, fuel),
    }
}

/// Run the walker from launch, segment after segment, each with `fuel`,
/// until it terminates or errors. Each segment is observed as its
/// outcome, the ops charged so far, the frame depth and the top frame's
/// `(func, pc)`.
fn walk(
    engine: Option<&CompiledProgram>,
    p: &Program,
    env: &mut Sampler,
    fuel: u64,
) -> Vec<String> {
    let mut m = MessengerState::launch(p, MessengerId(1), &[Value::Int(N)]).expect("launch");
    let mut seen = Vec::new();
    loop {
        let y = segment(engine, p, &mut m, env, fuel);
        let top = m.frames.last().map(|f| (f.func.0, f.pc));
        seen.push(format!("{y:?} ops={} depth={} top={top:?}", env.map.ops, m.frames.len()));
        if !matches!(y, Ok(Yield::Hop(_))) {
            return seen;
        }
    }
}

fn sampler(interval: u64) -> Sampler {
    Sampler { map: MapEnv::new(), interval, samples: Vec::new() }
}

/// The walker's three segments charge 413, 12 and 3 ops; one more than
/// the longest lets every segment of the last sweep step complete.
const SWEEP: u64 = 414;

#[test]
fn fuel_sweep_is_pinned_on_both_engines() {
    let (p, cp) = walker();
    for (engine, name) in [(None, "interp"), (Some(&cp), "compiled")] {
        let whole = walk(engine, &p, &mut sampler(0), interp::DEFAULT_FUEL);
        assert_eq!(
            whole.last().map(String::as_str),
            Some("Ok(Terminated(Int(140))) ops=428 depth=0 top=None"),
            "{name}: {whole:#?}"
        );
        // A fused loop runs an iteration only when all of it fits in the
        // fuel left, so both engines stop at the same op and share a pin.
        let mut h = Fnv::new();
        for fuel in 0..=SWEEP {
            for seen in walk(engine, &p, &mut sampler(0), fuel) {
                h.eat(&seen);
            }
        }
        assert_eq!((h.1, h.0), (419, 0xc2ef_7bea_1807_706c), "{name}");
    }
}

#[test]
fn samples_are_pinned_on_both_engines() {
    let (p, cp) = walker();
    let pins = [
        (1, [(425, 0x356c_11cc_e9f3_4f31), (275, 0x213c_684e_c459_6400)]),
        (3, [(140, 0xa028_1a50_76fd_3ce8), (95, 0x671d_629e_2d07_c27a)]),
        (7, [(59, 0x71f9_dcfe_61eb_a1a8), (40, 0xa9cd_6e35_b8d4_9e62)]),
    ];
    for (interval, want) in pins {
        for ((engine, name), want) in
            [(None, "interp"), (Some(&cp), "compiled")].into_iter().zip(want)
        {
            let mut env = sampler(interval);
            walk(engine, &p, &mut env, interp::DEFAULT_FUEL);
            // Every boundary before a segment's last op is crossed once:
            // floor(412/k) + floor(11/k) + floor(2/k) in all.
            let crossings: u64 = env.samples.iter().map(|s| s.2).sum();
            assert_eq!(
                crossings,
                [412, 11, 2].iter().map(|n| n / interval).sum(),
                "{name} {interval}"
            );
            let mut h = Fnv::new();
            for s in &env.samples {
                h.eat(&format!("{s:?}"));
            }
            assert_eq!((h.1, h.0), want, "{name} every {interval} ops");
        }
    }
}
