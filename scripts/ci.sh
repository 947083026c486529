#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace must build, test, and
# stay formatted with no network access and no external registry
# dependencies (see "Hermetic builds" in README.md / DESIGN.md).
#
# Flags:
#   --soak   additionally run the long chaos soak test (ignored by
#            default): sustained loss + periodic crash/restart cycles.
set -euo pipefail

cd "$(dirname "$0")/.."

soak=0
for arg in "$@"; do
    case "$arg" in
        --soak) soak=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== cargo metadata: path-only dependency check =="
# Every dependency must resolve from within this repository. `cargo
# metadata --offline` fails outright if anything needs the registry; the
# grep double-checks that no package outside the workspace sneaked in.
if cargo metadata --offline --format-version 1 \
    | grep -o '"source":"[^"]*"' | grep -qv '"source":""' ; then
    echo "error: non-path dependency found in cargo metadata" >&2
    exit 1
fi
echo "ok: all dependencies are workspace-local"

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== lint: msgr-lint over all MSGR-C sources =="
# Static analysis of every navigation program we ship: the .mc example
# scripts plus the programs embedded in msgr-apps. Warnings are denied —
# in-tree code is the idiom reference and must stay clean.
cargo build --release --offline --bin msgr-lint
find examples -name '*.mc' -print0 \
    | xargs -0 ./target/release/msgr-lint --deny-warnings --builtin

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings
# ClusterConfig::new(n) is a function of n plus MSGR_EXEC: no new ambient knob.
if grep -rn 'env::var("MSGR_' crates/*/src src | grep -v 'MSGR_EXEC\|MSGR_CHECK_'; then
    echo "error: runtime MSGR_* env read other than MSGR_EXEC" >&2; exit 1
fi
# Every ClusterConfig field has a caller or a stated reason: an assignment
# in a source directory (not `tests/`, not config.rs itself), or a row in
# DESIGN.md's config ledger.
ledger="$(awk '/^### Config ledger/{on=1; next} /^##/{on=0} on' DESIGN.md)"
for field in $(awk '/^pub struct ClusterConfig/,/^}/' crates/core/src/config.rs \
    | sed -n 's/^    pub \([a-z_]*\):.*/\1/p'); do
    grep -rqE --include='*.rs' --exclude=config.rs "\.$field(\.[a-z_]+)* *=[^=]" \
        crates/*/src src examples benchmark/src && continue
    grep -qF "| \`$field\` |" <<<"$ledger" && continue
    echo "error: ClusterConfig::$field has no setter and no DESIGN.md config-ledger row" >&2
    exit 1
done

# The threads driver waits on events (DESIGN.md §9: termination is signalled,
# idle is spin-then-block, shutdown is a message): no poll may creep back in.
for poll in 'thread::sleep' 'recv_timeout' 'AtomicBool'; do
    if grep -n "$poll" crates/core/src/platform/threads.rs; then
        echo "error: platform/threads.rs mentions $poll: wait on an event, do not poll" >&2
        exit 1
    fi
done
# The sim engine wakes each daemon once (DESIGN.md §9): tick's deferral is
# the one place that waits for a busy CPU, so no second wake-up chain can
# start per arriving frame.
if [ "$(grep -c 'busy_until()' crates/core/src/platform/sim.rs)" -gt 1 ]; then
    echo "error: platform/sim.rs reads busy_until() outside tick: defer through wake_pending" >&2
    exit 1
fi
# One front, one door (DESIGN.md §9): the census books the live count, the
# faults and the names for both platforms, and registration, the key
# validator and the report tail are written once, in platform/mod.rs.
door="$(for f in crates/core/src/platform/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next } { print }' "$f"
done)"
for once in 'Effect::LiveDelta' 'Effect::Fault' 'Effect::DirectoryAdd' 'Effect::DirectoryRemove' \
    'register_outcome(' 'install_key_validator(' 'Trace::from_parts('; do
    if [ "$(grep -oF "$once" <<<"$door" | wc -l)" -gt 1 ]; then
        echo "error: crates/core/src/platform has $once more than once: keep it in the shared front" >&2
        exit 1
    fi
done
# The work table renders on every core (DESIGN.md §9) through one row
# renderer, MandelScene::render_span, which the threads natives share: the
# kernel is called and the pixel→plane map written only in mandel.rs.
if grep -rn --exclude=mandel.rs 'mandel_iters(' crates/apps/src \
    || [ "$(cat crates/apps/src/*.rs | grep -c 'region\.x0')" -gt 1 ]; then
    echo "error: crates/apps/src renders pixels outside MandelScene::render_span" >&2
    exit 1
fi
# Blocks move by rows (DESIGN.md §9): MandelScene::block_rows is the one
# block→pixel-offset map. No per-pixel `% bs`/`/ bs` in mandel.rs, and outside
# tests only block_rows and render_block (for its row and column) read
# block_origin.
origin_calls="$(for f in crates/apps/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^ *\/\// { next }
         match($0, /fn [a-z_]+\(/) { fn = substr($0, RSTART + 3, RLENGTH - 4) }
         /block_origin\(/ && fn !~ /^(block_origin|block_rows|render_block)$/ {
             print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [ "$(grep -cE '[%/] *bs\b' crates/apps/src/mandel.rs)" -ne 0 ] || [ -n "$origin_calls" ]; then
    [ -n "$origin_calls" ] && echo "$origin_calls"
    echo "error: crates/apps/src maps a block to pixels outside MandelScene::block_rows" >&2
    exit 1
fi
# A hop touches nothing shared (DESIGN.md §9): the daemon reads the code
# registry once per program through `program`, locks the natives only to
# call one, borrows node-variable names, and counts by Metric index.
daemon=crates/core/src/daemon.rs
if [ "$(grep -o 'codes\.lookup(' "$daemon" | wc -l)" -ne 1 ] || grep -n 'codes\.rejection(' "$daemon"; then
    echo "error: daemon.rs must read the code registry through exactly one codes.lookup(" >&2
    exit 1
fi
in_call="$(awk '/fn call_native\(/,/^    }$/' "$daemon" | grep -o 'natives\.read()' | wc -l)"
if [ "$in_call" -lt 1 ] \
    || [ "$(cat crates/core/src/*.rs crates/core/src/*/*.rs | grep -o 'natives\.read()' | wc -l)" -ne "$in_call" ]; then
    echo "error: natives.read() outside call_native: lock the natives only to call one" >&2
    exit 1
fi
if grep -n 'as_str()?\.to_string()' crates/vm/src/interp.rs; then
    echo "error: vm/src/interp.rs allocates a name constant: borrow it from the pool" >&2
    exit 1
fi
if grep -n 'stats\.counter("' "$daemon" \
    || ! awk '/pub fn rollbacks\(/,/^    }$/' "$daemon" | grep -q 'counters\.get(Metric::Rollbacks)'; then
    echo "error: daemon.rs reads a counter by key: read the Counters array by Metric" >&2
    exit 1
fi
# Time Warp lives in msgr-gvt (DESIGN.md §2, "Daemon anatomy"): the daemon holds one
# msgr_gvt::TimeWarp and calls it, as it does Xport and Members. No Time-Warp
# log, queue or stash type is named under crates/core/src, and daemon.rs reads
# vt_mode only in Daemon::new, to decide whether it holds a TimeWarp.
tw_mode="$(awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
    match($0, /fn [a-z_]+[<(]/) { fn = substr($0, RSTART + 3, RLENGTH - 4) }
    /vt_mode/ && fn != "new" { print FILENAME ":" FNR ": " $0 }' "$daemon")"
if grep -rnE 'opt_queue|anti_pending|TwNode|TwEntry|SentRef' crates/core/src || [ -n "$tw_mode" ]; then
    [ -n "$tw_mode" ] && echo "$tw_mode"
    echo "error: Time-Warp state or a vt_mode read is back in the daemon: call its msgr_gvt::TimeWarp" >&2
    exit 1
fi
# The sim platform counts the same way: its frame, fault and crash counters
# are a Counters array too, and only the recovery-latency histogram (and
# its running total) stays in the string-keyed Stats.
sim_keyed="$(awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
    /stats\.counter\("|stats\.bump\(|stats\.add\(/ && !/RecoveryLatencyNs/ {
        print FILENAME ":" FNR ": " $0 }' crates/core/src/platform/sim.rs)"
if [ -n "$sim_keyed" ]; then
    echo "$sim_keyed"
    echo "error: platform/sim.rs counts by key: count into its Counters array by Metric" >&2
    exit 1
fi
# A launch does not hash the program (DESIGN.md §9): the code registry
# computes each id once, at registration, and every launch in the runtime
# takes that id. Outside tests no core source calls MessengerState::launch
# (which hashes), and only codes.rs calls a program's id().
launch_hashes="$(for f in crates/core/src/*.rs crates/core/src/*/*.rs; do
    awk -v registry="$([ "$f" = crates/core/src/codes.rs ] && echo 1)" '
        /^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
        /MessengerState::launch\(/ || (!registry && /prog[a-z_]*\.id\(\)|Program::id[^a-z_]/) {
            print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$launch_hashes" ]; then
    echo "$launch_hashes"
    echo "error: crates/core/src hashes a program outside the registry: launch by its ProgramId" >&2
    exit 1
fi
# One lean compiler (DESIGN.md §10): fused loops only, licensed from the
# bytecode alone. Spans and call fusion stay deleted.
if grep -rnE 'exact_ops|pure_loops|build_span|build_inline|SpanStep|InlineStep' crates/*/src; then
    echo "error: the compiler grew a span or a call fusion back" >&2
    exit 1
fi
# One dispatch loop (DESIGN.md §10): the compiled engine is the interpreter
# entering fused loops at their backedges. The per-pc closures stay deleted,
# and so do their copies of the interpreter's operand helpers.
if grep -rnE 'StepFn|StepCtx|single_step|stack_step' crates/*/src src; then
    echo "error: a per-pc closure engine is back: run interp's dispatch loop" >&2
    exit 1
fi
if grep -rnE 'fn (eval_link|index_get|index_set)\b' crates/*/src src \
    | grep -v '^crates/vm/src/interp.rs:'; then
    echo "error: an interpreter helper is defined outside vm/src/interp.rs" >&2
    exit 1
fi
# Summaries stay in the analyzer (DESIGN.md §11): an analysis result leaves
# msgr-analyze only if something at run time reads it, and nothing does, so
# neither the VM nor the daemons name a summary type.
if grep -rnE 'SummaryTable|FnSummary|SumKind|HopBehavior' crates/vm/src crates/core/src; then
    echo "error: a summary type is back in the VM or the runtime: keep it in msgr-analyze" >&2
    exit 1
fi
# One byte discipline (DESIGN.md §7): the frame layer reads and writes its
# fixed-width fields through msgr_vm::bytes, so no hand-rolled little-endian
# reader or writer comes back under the core, control-plane or GVT sources.
if grep -rnE 'from_le_bytes|to_le_bytes' crates/core/src crates/ctrl/src crates/gvt/src; then
    echo "error: a hand-rolled little-endian codec is back: use the msgr_vm::bytes primitives" >&2
    exit 1
fi
# Retired metrics stay retired (DESIGN.md §8): registered for benchmark/ but
# emitted nowhere.
if grep -rnE 'Metric::(LaneSteals|BatchFrames|BatchFlushes|AnalysisSnapshotsElided)' crates/*/src; then
    echo "error: a retired metric is emitted again" >&2
    exit 1
fi
# One definition of the operators (DESIGN.md §10): the interpreter and both
# fused-loop executors call binop.rs, so no other
# non-test vm source wraps an int or maps an Ordering to a comparison.
ops_copies="$(for f in crates/vm/src/*.rs; do
    [ "$f" = crates/vm/src/binop.rs ] && continue
    awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
         /wrapping_add|wrapping_sub|Ordering::Less/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$ops_copies" ]; then
    echo "$ops_copies"
    echo "error: crates/vm/src defines an operator outside binop.rs" >&2
    exit 1
fi
# A frame or call decoded off the wire may name any function (DESIGN.md
# §10): outside tests, vm code looks one up through Program::func, which
# returns an Option, and never indexes a program's functions itself.
func_lookups="$(for f in crates/vm/src/*.rs; do
    [ "$f" = crates/vm/src/bytecode.rs ] && continue
    awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
         /\.funcs\[|\.funcs\.get\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [ -n "$func_lookups" ]; then
    echo "$func_lookups"
    echo "error: crates/vm/src looks up a function without Program::func" >&2
    exit 1
fi
# Each program written once for both platforms (DESIGN.md §9): the PVM
# threads backend drives the same Task machines as the simulator (no
# closure API), `msgr run` is one generic function, Fig. 3's natives are
# registered and its script compiled once, and Fig. 2's protocol, with
# its one kill loop, lives in its two Task impls.
nontest() { awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next } { print }' "$1"; }
if grep -rn 'ThreadTaskCtx' crates src examples tests \
    || grep -rnF 'FnOnce(&mut' crates/pvm/src \
    || grep -rnF 'macro_rules! drive' crates src examples tests; then
    echo "error: a second copy of a program's driver is back: run the one Task or Cluster<P> path" >&2
    exit 1
fi
msgr_app="$(nontest crates/apps/src/mandel_msgr.rs)"
pvm_app="$(nontest crates/apps/src/mandel_pvm.rs)"
if [ "$(grep -oF 'register_native(' <<<"$msgr_app" | wc -l)" -gt 3 ] \
    || [ "$(grep -oF 'compile(MANAGER_WORKER_SCRIPT)' <<<"$msgr_app" | wc -l)" -ne 1 ] \
    || [ "$(grep -cF 'impl Task for' <<<"$pvm_app")" -ne 2 ] \
    || [ "$(grep -oF 'pack_int(POISON)' <<<"$pvm_app" | wc -l)" -ne 1 ]; then
    echo "error: a Mandelbrot program is written twice: one body per system, generic in its platform" >&2
    exit 1
fi

echo "== cargo doc -D warnings =="
# Intra-doc links are the map between modules; a refactor that moves a
# link target must not leave the link dangling.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== chaos: fault-injection property sweep =="
# Two pinned fault seeds (regression anchors) plus one fresh seed per CI
# run. MSGR_FAULT_SEED perturbs every cluster seed in the chaos suites
# (transient faults and permanent-kill recovery); the fresh value is
# logged so a red run can be replayed exactly.
for seed in 1 424242 "$(date +%s)"; do
    echo "chaos seed: $seed (replay: MSGR_FAULT_SEED=$seed scripts/ci.sh)"
    MSGR_FAULT_SEED="$seed" cargo test -q --offline -p msgr-core --test fault_props
    MSGR_FAULT_SEED="$seed" cargo test -q --offline -p msgr-core --test recovery_props
    MSGR_FAULT_SEED="$seed" cargo test -q --offline -p msgr-core --test ctrl_props
done

echo "== trace: deterministic flight-recorder smoke =="
# Record the same seeded chaos run twice (loss + a mid-run daemon kill),
# validate the JSONL (summary parses it and checks the header/schema),
# and require the two recordings to be byte-identical — the CLI face of
# the `same_seed_runs_serialize_byte_identically` property. `msgr trace`
# exits 1 on findings (invalid trace, differing runs) and 2 on internal
# errors, so any failure here fails CI.
cargo build --release --offline --bin msgr
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
trace_run() {
    ./target/release/msgr run examples/scripts/walker.mc \
        --topology examples/scripts/ring.topo --daemons 4 --inject r0:2 \
        --seed 7 --faults drop=0.05,kill=2@20 --trace "$1" >/dev/null
}
trace_run "$trace_dir/a.jsonl"
trace_run "$trace_dir/b.jsonl"
./target/release/msgr trace summary "$trace_dir/a.jsonl" >/dev/null
./target/release/msgr trace diff "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"
./target/release/msgr trace chrome "$trace_dir/a.jsonl" "$trace_dir/a.chrome.json" >/dev/null
for ev in hop retransmit checkpoint restore; do
    if ! grep -q "\"ev\":\"$ev\"" "$trace_dir/a.jsonl"; then
        echo "error: chaos trace is missing \"$ev\" events" >&2
        exit 1
    fi
done
echo "ok: chaos trace is schema-valid, complete, and reproducible"

echo "== compiled execution: CLI run + suites re-run on the fused-loop path =="
# The interpreter entering fused loops at their backedges (exec =
# compiled) must be observationally identical to the plain interpreter:
# the 256-case differential suite (crates/vm/tests/diff_props.rs) and the
# cross-engine goldens already ran with the workspace tests above. Here
# the CLI plumbing gets a real run (--exec compiled, then the MSGR_EXEC
# override), and the daemon's own suites (unit, cluster, verifier
# refusal, the three chaos suites), the tier-1 app tests, the goldens
# and the profiler's invariants re-run once entirely on the fused-loop
# path.
MSGR_EXEC=compiled cargo test -q --offline -p msgr-core
MSGR_EXEC=compiled cargo test -q --offline -p msgr-apps
MSGR_EXEC=compiled cargo test -q --offline --test determinism
MSGR_EXEC=compiled cargo test -q --offline --test profile
./target/release/msgr run examples/scripts/walker.mc \
    --topology examples/scripts/ring.topo --daemons 4 --inject r0:2 \
    --seed 7 --exec compiled >/dev/null
MSGR_EXEC=compiled ./target/release/msgr run examples/scripts/walker.mc \
    --topology examples/scripts/ring.topo --daemons 4 --inject r0:2 \
    --seed 7 >/dev/null
echo "ok: compiled engine ran end to end"

echo "== analysis: msgr-lint --json over the paper apps =="
# Both paper apps must be clean under the interprocedural lint family,
# checked through the machine-readable --json face (which doubles as
# its schema check).
lint_json="$(./target/release/msgr-lint --json --builtin)"
echo "$lint_json" | grep -q '"version":1' \
    || { echo "error: msgr-lint --json lost its schema header" >&2; exit 1; }
echo "$lint_json" | grep -q '"errors":0,"warnings":0,"diagnostics":\[\]' \
    || { echo "error: builtin paper apps are not lint-clean: $lint_json" >&2; exit 1; }
# A known-dirty program must produce a well-formed diagnostic row with
# every schema field present (code, function, pc, line, severity).
dirty_dir="$(mktemp -d)"
printf 'w() {\n    node int t;\n    t = 1;\n    t = 2;\n    hop(ll = $last);\n}\n' \
    > "$dirty_dir/dirty.mc"
dirty_json="$(./target/release/msgr-lint --json "$dirty_dir/dirty.mc")"
for field in '"code":"N303"' '"severity":"warning"' '"function":"w"' '"pc":' '"line":3'; do
    echo "$dirty_json" | grep -qF "$field" \
        || { echo "error: msgr-lint --json row missing $field: $dirty_json" >&2; exit 1; }
done
rm -rf "$dirty_dir"
echo "ok: apps lint-clean, diagnostics rows well-formed"
# The verifier is the trust boundary for code off the wire: its
# properties (compiler output verifies, mutants are rejected precisely,
# verdicts ignore summaries) get a 4096-program sweep here, 16x the
# per-commit count. The 512-program pin keeps its own fixed count.
MSGR_CHECK_CASES=4096 cargo test -q --offline -p msgr-analyze --test props

echo "== profile: cost attribution end to end =="
# The deterministic profiler (DESIGN.md §13). Four guarantees, checked
# on the CLI surface: (a) a profiled run yields a report, a critical
# path, and non-empty folded stacks; (b) same-seed profiled runs are
# byte-identical — trace, report, and folded file; (c) profiling off is
# the status quo: two unprofiled runs are byte-identical and carry no
# profiler events, and `msgr profile` refuses them with exit 1; (d) a
# truncated flight recorder makes `msgr trace summary` exit 1.
prof_dir="$(mktemp -d)"
prof_run() { # $1 = out.jsonl, $2... = extra flags
    local out="$1"; shift
    ./target/release/msgr run examples/scripts/hotloop.mc \
        --topology examples/scripts/ring.topo --daemons 4 --inject r0:3,2000 \
        --seed 7 "$@" --trace "$out" >/dev/null
}
prof_run "$prof_dir/on_a.jsonl" --profile
prof_run "$prof_dir/on_b.jsonl" --profile
prof_run "$prof_dir/off_a.jsonl"
prof_run "$prof_dir/off_b.jsonl"
./target/release/msgr trace diff "$prof_dir/on_a.jsonl" "$prof_dir/on_b.jsonl"
./target/release/msgr trace diff "$prof_dir/off_a.jsonl" "$prof_dir/off_b.jsonl"
if grep -q '"ev":"phase_ledger"\|"ev":"pc_sample"' "$prof_dir/off_a.jsonl"; then
    echo "error: profiler events leaked into an unprofiled trace" >&2
    exit 1
fi
# Reports are compared without --folded: the folded trailer echoes the
# output path, which differs between the two invocations by design.
./target/release/msgr profile "$prof_dir/on_a.jsonl" > "$prof_dir/a.report"
./target/release/msgr profile "$prof_dir/on_b.jsonl" > "$prof_dir/b.report"
./target/release/msgr profile "$prof_dir/on_a.jsonl" \
    --folded "$prof_dir/a.folded" >/dev/null
./target/release/msgr profile "$prof_dir/on_b.jsonl" \
    --folded "$prof_dir/b.folded" >/dev/null
cmp -s "$prof_dir/a.report" "$prof_dir/b.report" \
    || { echo "error: same-seed profile reports differ" >&2; exit 1; }
cmp -s "$prof_dir/a.folded" "$prof_dir/b.folded" \
    || { echo "error: same-seed folded stacks differ" >&2; exit 1; }
[ -s "$prof_dir/a.folded" ] \
    || { echo "error: folded stacks are empty for a hot-loop run" >&2; exit 1; }
grep -Eq '^[^ ;]+;[^ ;]+;L[0-9]+ [0-9]+$' "$prof_dir/a.folded" \
    || { echo "error: folded stacks are not 'prog;func;Lline count' rows" >&2; exit 1; }
grep -q 'critical path' "$prof_dir/a.report" \
    || { echo "error: profile report lost its critical path" >&2; exit 1; }
if ./target/release/msgr profile "$prof_dir/off_a.jsonl" >/dev/null 2>&1; then
    echo "error: msgr profile accepted a trace with no profiler events" >&2
    exit 1
fi
# Forge a truncated recording (the header's drop count is authoritative)
# and require summary to refuse it with the findings exit code.
sed '1s/"dropped":0/"dropped":7/' "$prof_dir/off_a.jsonl" > "$prof_dir/truncated.jsonl"
if ./target/release/msgr trace summary "$prof_dir/truncated.jsonl" >/dev/null; then
    echo "error: trace summary exited 0 on a truncated recording" >&2
    exit 1
fi
rm -rf "$prof_dir"
echo "ok: profiler deterministic, additive, folded stacks well-formed"

echo "== benchmark: the performance ledger builds and smoke-runs =="
# benchmark/ is its own workspace with path dependencies on crates/*, so
# nothing above compiles it. Its gate (fmt, clippy, unit tests, then
# every workload in smoke mode with a traced run) catches an API change
# here that breaks the ledger before the merge pipeline does.
bash benchmark/check.sh

if [ "$soak" = 1 ]; then
    echo "== chaos soak (--soak) =="
    cargo test -q --offline -p msgr-core --test fault_props -- --ignored
    cargo test -q --offline -p msgr-core --test recovery_props -- --ignored
    cargo test -q --offline -p msgr-core --test ctrl_props -- --ignored
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "tier-1: all green"
