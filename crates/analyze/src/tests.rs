//! Verifier and lint unit tests: hand-crafted invalid bytecode (one
//! fixture per diagnostic code), edge cases, and lint positives /
//! negatives on compiled MSGR-C.

use super::*;
use msgr_vm::{Builder, FuncId, Value};

fn codes(diags: &[Diag]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

fn reject(p: &Program) -> Vec<Diag> {
    verify(p).expect_err("program should fail verification")
}

// ---- invalid fixtures: one per diagnostic code -------------------------

#[test]
fn v001_bad_entry() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![]);
    let mut p = b.finish(f);
    p.entry = FuncId(9);
    assert_eq!(codes(&reject(&p)), ["V001"]);
}

#[test]
fn v002_bad_jump_target() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Jump(100)]);
    let p = b.finish(f);
    let diags = reject(&p);
    assert_eq!(codes(&diags), ["V002"]);
    assert_eq!(diags[0].pc, Some(0));
}

#[test]
fn v002_backward_out_of_bounds() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Jump(-5)]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V002"]);
}

#[test]
fn v003_stack_underflow() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Pop]);
    let p = b.finish(f);
    let diags = reject(&p);
    assert_eq!(codes(&diags), ["V003"]);
    assert!(diags[0].message.contains("underflow"));
}

#[test]
fn v004_merge_depth_mismatch() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(1));
    // pc0 Const (d=1); pc1 JumpIfFalse pops and branches to pc3 with
    // d=0; the fallthrough path pushes at pc2 and reaches pc3 with
    // d=1. Inconsistent depth at the merge point pc3.
    let f = b.function(
        "main",
        0,
        0,
        vec![Op::Const(c), Op::JumpIfFalse(1), Op::Const(c), Op::Const(c), Op::Ret],
    );
    let p = b.finish(f);
    let diags = reject(&p);
    assert_eq!(codes(&diags), ["V004"]);
    assert_eq!(diags[0].pc, Some(3));
}

#[test]
fn v005_bad_const_index() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Const(7), Op::Ret]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V005"]);
}

#[test]
fn v006_bad_local_index() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(0));
    let f = b.function("main", 0, 0, vec![Op::Const(c), Op::StoreLocal(9)]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V006"]);
}

#[test]
fn v007_bad_call_target() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Call { f: 5, argc: 0 }, Op::Ret]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V007"]);
}

#[test]
fn v008_call_arity_mismatch() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(1));
    let main = b.function("main", 0, 0, vec![Op::Const(c), Op::Call { f: 1, argc: 1 }, Op::Ret]);
    let _helper = b.function("helper", 2, 0, vec![Op::LoadLocal(0), Op::Ret]);
    let p = b.finish(main);
    let diags = reject(&p);
    assert_eq!(codes(&diags), ["V008"]);
    assert!(diags[0].message.contains("helper"));
}

#[test]
fn v009_bad_spec_index() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Hop(0)]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V009"]);
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Create(3)]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V009"]);
}

#[test]
fn v010_node_name_not_a_string() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(3));
    let f = b.function("main", 0, 0, vec![Op::LoadNode(c), Op::Ret]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V010"]);
}

#[test]
fn v011_arity_exceeds_slots() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![]);
    let mut p = b.finish(f);
    p.funcs[0].arity = 2; // n_slots stays 0
    assert_eq!(codes(&reject(&p)), ["V011"]);
}

#[test]
fn v012_stack_bound_exceeded() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(0));
    let f = b.function("main", 0, 0, vec![Op::Const(c); MAX_STACK + 1]);
    let p = b.finish(f);
    let diags = reject(&p);
    assert_eq!(codes(&diags), ["V012"]);
    assert!(diags[0].message.contains(&MAX_STACK.to_string()));
}

#[test]
fn v013_bad_line_table() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(0));
    let f = b.function_with_lines("main", 0, 0, vec![Op::Const(c), Op::Ret], vec![1]);
    let p = b.finish(f);
    assert_eq!(codes(&reject(&p)), ["V013"]);
}

#[test]
fn v014_virtual_hop_without_a_node() {
    let spec = |ln| msgr_vm::HopSpec { ln, ll: LinkPat::Virtual, ldir: msgr_vm::Dir::Any };
    let mut b = Builder::new();
    let s = b.hop_spec(spec(NodePat::Wild));
    let f = b.function("main", 0, 0, vec![Op::Delete(s)]);
    let diags = reject(&b.finish(f));
    assert_eq!(codes(&diags), ["V014"]);
    assert_eq!(diags[0].pc, Some(0));
    // With a destination operand the same spec verifies.
    let mut b = Builder::new();
    let c = b.constant(Value::str("n"));
    let s = b.hop_spec(spec(NodePat::Expr));
    let f = b.function("main", 0, 0, vec![Op::Const(c), Op::Hop(s)]);
    assert!(verify(&b.finish(f)).is_ok());
}

// ---- verifier edge cases ----------------------------------------------

#[test]
fn empty_function_verifies() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![]);
    let p = b.finish(f);
    let infos = verify(&p).unwrap();
    assert_eq!(infos[0], FuncInfo { max_stack: 0, blocks: 1 });
}

#[test]
fn jump_to_end_is_implicit_return() {
    let mut b = Builder::new();
    let f = b.function("main", 0, 0, vec![Op::Jump(0)]);
    let p = b.finish(f);
    assert!(verify(&p).is_ok());
}

#[test]
fn while_true_with_no_exit_verifies() {
    let p = msgr_lang::compile("main() { while (1) { } }").unwrap();
    let infos = verify(&p).unwrap();
    assert!(infos[0].blocks >= 2);
}

#[test]
fn break_continue_stack_balance() {
    let p = msgr_lang::compile(
        r#"main() {
            int i, acc = 0;
            for (i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0 && acc < 50) continue;
                while (acc > 10) { acc = acc - 1; if (acc == 11) break; }
                if (i > 10) break;
                acc = acc + i;
            }
            return acc;
        }"#,
    )
    .unwrap();
    assert!(verify(&p).is_ok());
}

#[test]
fn recursive_and_mutually_recursive_calls_verify() {
    let p = msgr_lang::compile(
        r#"fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
           even(n) { if (n == 0) return true; return odd(n - 1); }
           odd(n) { if (n == 0) return false; return even(n - 1); }"#,
    )
    .unwrap();
    assert!(verify(&p).is_ok());
}

#[test]
fn max_stack_is_reported() {
    let mut b = Builder::new();
    let c = b.constant(Value::Int(1));
    // Pushes 4, consumes via 3 Adds, returns: peak depth 4.
    let f = b.function(
        "main",
        0,
        0,
        vec![
            Op::Const(c),
            Op::Const(c),
            Op::Const(c),
            Op::Const(c),
            Op::Add,
            Op::Add,
            Op::Add,
            Op::Ret,
        ],
    );
    let p = b.finish(f);
    let infos = verify(&p).unwrap();
    assert_eq!(infos[0].max_stack, 4);
}

#[test]
fn short_circuit_merges_consistently() {
    let p =
        msgr_lang::compile("main(a, b) { if (a && b || !a) return 1; return a || b; }").unwrap();
    assert!(verify(&p).is_ok());
}

// ---- lints -------------------------------------------------------------

fn lint_codes(src: &str) -> Vec<&'static str> {
    let p = msgr_lang::compile(src).unwrap();
    let report = analyze(&p);
    assert!(report.is_verified(), "lint fixtures must verify");
    report.warnings().map(|d| d.code).collect()
}

#[test]
fn n201_unreachable_code_after_return() {
    let codes = lint_codes(
        r#"main() {
            return 1;
            int x;
            x = helper(2);
            return x;
        }
        helper(n) { return n; }"#,
    );
    assert!(codes.contains(&"N201"), "got {codes:?}");
}

#[test]
fn n201_exempts_terminate_artifacts() {
    assert_eq!(lint_codes("main() { terminate(); }"), Vec::<&str>::new());
}

#[test]
fn n202_create_all_in_loop() {
    let codes = lint_codes(
        r#"main() {
            int i;
            while (i < 3) { create(ALL); i = i + 1; }
        }"#,
    );
    assert_eq!(codes, ["N202"]);
}

#[test]
fn n202_create_all_outside_loop_is_fine() {
    assert_eq!(lint_codes("main() { create(ALL); hop(); }"), Vec::<&str>::new());
}

#[test]
fn n203_hop_destination_cannot_match() {
    let codes = lint_codes(r#"main() { hop(ln = true); }"#);
    assert_eq!(codes, ["N203"]);
}

#[test]
fn n203_string_destinations_are_fine() {
    assert_eq!(lint_codes(r#"main() { hop(ln = "alpha"; ll = "row"); }"#), Vec::<&str>::new());
}

#[test]
fn n301_lost_update_across_hop() {
    let p = msgr_lang::compile(
        r#"main() {
            node int count;
            int c;
            c = count;
            hop(ll = "ring");
            count = c + 1;
        }"#,
    )
    .unwrap();
    let report = analyze(&p);
    let warns: Vec<_> = report.warnings().collect();
    assert_eq!(warns.len(), 1);
    assert_eq!(warns[0].code, "N301");
    assert!(warns[0].message.contains("count"));
    // Source span threaded from msgr-lang: the stale write is on line 6.
    assert_eq!(warns[0].line, Some(6));
}

#[test]
fn n301_not_fired_when_value_rereads_after_hop() {
    let codes = lint_codes(
        r#"main() {
            node int count;
            count = count + 1;
            hop(ll = "ring");
            count = count + 1;
        }"#,
    );
    assert_eq!(codes, Vec::<&str>::new());
}

#[test]
fn n301_fires_through_sched_yield() {
    let p = msgr_lang::compile(
        r#"main() {
            node int acc;
            int c;
            c = acc;
            M_sched_time_dlt(1.0);
            acc = c;
        }"#,
    )
    .unwrap();
    let report = analyze(&p);
    assert_eq!(report.warnings().map(|d| d.code).collect::<Vec<_>>(), ["N301"]);
}

#[test]
fn n301_fires_when_a_called_function_hops() {
    let p = msgr_lang::compile(
        r#"main() {
            node int acc;
            int c;
            c = acc;
            go();
            acc = c;
        }
        go() { hop(ll = "ring"); return 0; }"#,
    )
    .unwrap();
    let report = analyze(&p);
    assert_eq!(report.warnings().map(|d| d.code).collect::<Vec<_>>(), ["N301"]);
}

#[test]
fn n302_lost_update_across_writing_call() {
    let p = msgr_lang::compile(
        r#"main() {
            node int acc;
            int c;
            c = acc;
            bump();
            acc = c + 1;
        }
        bump() { node int acc; acc = acc + 1; return 0; }"#,
    )
    .unwrap();
    let report = analyze(&p);
    let warns: Vec<_> = report.warnings().collect();
    assert_eq!(warns.iter().map(|d| d.code).collect::<Vec<_>>(), ["N302"]);
    assert!(warns[0].message.contains("acc"), "{}", warns[0].message);
}

#[test]
fn n302_not_fired_when_callee_writes_other_var() {
    let codes = lint_codes(
        r#"main() {
            node int acc;
            int c;
            c = acc;
            bump();
            acc = c + 1;
        }
        bump() { node int other; other = other + 1; return 0; }"#,
    );
    assert_eq!(codes, Vec::<&str>::new());
}

#[test]
fn n303_dead_node_variable_write() {
    let codes = lint_codes(
        r#"main() {
            node int x;
            x = 1;
            x = 2;
        }"#,
    );
    assert_eq!(codes, ["N303"]);
}

#[test]
fn n303_not_fired_when_a_call_intervenes() {
    // The callee could read `x`: the first write is observable.
    let codes = lint_codes(
        r#"main() {
            node int x;
            x = 1;
            peek();
            x = 2;
        }
        peek() { node int x; return x; }"#,
    );
    assert_eq!(codes, Vec::<&str>::new());
}

#[test]
fn n401_hop_destination_from_callee_return() {
    let p = msgr_lang::compile(
        r#"main() { hop(ln = pick()); }
        pick() { return true; }"#,
    )
    .unwrap();
    let report = analyze(&p);
    let warns: Vec<_> = report.warnings().collect();
    assert_eq!(warns.iter().map(|d| d.code).collect::<Vec<_>>(), ["N401"]);
    assert!(warns[0].message.contains("returned by a called function"), "{}", warns[0].message);
}

#[test]
fn n401_not_fired_for_string_returning_callee() {
    assert_eq!(
        lint_codes(
            r#"main() { hop(ln = pick()); }
            pick() { return "alpha"; }"#,
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn n402_guaranteed_unbounded_recursion() {
    let p = msgr_lang::compile(
        r#"main() { spin(); }
        spin() { spin(); return 0; }"#,
    )
    .unwrap();
    let report = analyze(&p);
    let warns: Vec<_> = report.warnings().collect();
    assert_eq!(warns.iter().map(|d| d.code).collect::<Vec<_>>(), ["N402"]);
    assert_eq!(warns[0].func_name, "spin");
}

#[test]
fn n402_not_fired_for_base_case_recursion() {
    let codes = lint_codes(
        r#"main() { return countdown(3); }
        countdown(n) { if (n < 1) return 0; return countdown(n - 1); }"#,
    );
    assert_eq!(codes, Vec::<&str>::new());
}

// ---- diagnostics rendering --------------------------------------------

#[test]
fn render_includes_label_and_line() {
    let p = msgr_lang::compile(
        r#"main() {
            node int count;
            int c;
            c = count;
            hop(ll = "ring");
            count = c + 1;
        }"#,
    )
    .unwrap();
    let report = analyze(&p);
    let w = report.warnings().next().unwrap();
    let text = w.render(&p);
    assert!(text.starts_with("warning[N301] in main @ pc "), "{text}");
    assert!(text.contains("line 6"), "{text}");
}

#[test]
fn block_labels_are_dense_and_ordered() {
    let p = msgr_lang::compile("main() { int i; while (i < 2) { i = i + 1; } }").unwrap();
    let labels = block_labels(&p.funcs[0]);
    let seq: Vec<usize> = labels.values().copied().collect();
    assert_eq!(seq, (0..labels.len()).collect::<Vec<_>>());
}

#[test]
fn doc_example_program_verifies() {
    let p = msgr_lang::compile(
        "main(n) { int i, acc; for (i = 0; i < n; i = i + 1) { acc = acc + i; } return acc; }",
    )
    .unwrap();
    let infos = verify(&p).unwrap();
    assert_eq!(infos.len(), 1);
    assert!(infos[0].max_stack >= 2);
}
