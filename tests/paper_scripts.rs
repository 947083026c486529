//! The scripts printed in the paper must compile and run as-is: this is
//! the "smaller semantic gap" claim made executable.

use messengers::core::{ClusterConfig, SimCluster};
use messengers::vm::Value;

/// Fig. 3 — the complete manager/worker program.
#[test]
fn fig3_manager_worker_runs_end_to_end() {
    let program = messengers::lang::compile(messengers::apps::mandel_msgr::MANAGER_WORKER_SCRIPT)
        .expect("Fig. 3 compiles");
    // The script defines exactly one function with the paper's name.
    assert_eq!(program.funcs.len(), 1);
    assert_eq!(program.funcs[0].name, "manager_worker");

    let mut cluster = SimCluster::new(ClusterConfig::new(3));
    cluster.register_native("next_task", |ctx, _| {
        let next = ctx.node_var("next").as_int().unwrap_or(0);
        if next >= 5 {
            return Ok(Value::Null);
        }
        ctx.set_node_var("next", Value::Int(next + 1));
        Ok(Value::Int(next))
    });
    cluster.register_native("compute", |_, args| {
        Ok(Value::Int(args[0].as_int().map_err(|e| e.to_string())? * 10))
    });
    cluster.register_native("deposit", |ctx, args| {
        let sum = ctx.node_var("sum").as_int().unwrap_or(0);
        ctx.set_node_var("sum", Value::Int(sum + args[0].as_int().map_err(|e| e.to_string())?));
        Ok(Value::Null)
    });
    let pid = cluster.register_program(&program);
    cluster.inject(0, pid, &[]).unwrap();
    let report = cluster.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    // 0+1+2+3+4 times 10.
    assert_eq!(cluster.node_var(0, &Value::str("init"), "sum"), Some(Value::Int(100)));
}

/// Fig. 11 — both matmul messengers compile; entry selection works.
#[test]
fn fig11_scripts_compile_with_both_entries() {
    for entry in ["distribute_A", "rotate_B"] {
        let p = messengers::lang::compile_with_entry(
            messengers::apps::matmul_msgr::MATMUL_SCRIPTS,
            entry,
        )
        .expect("Fig. 11 compiles");
        let f = p.func(p.entry).expect("the entry is one of the program's functions");
        assert_eq!(f.name, entry);
        assert_eq!(f.arity, 4, "(s, m, i, j)");
    }
}

/// §2.1's hop examples parse with the full and default syntax.
#[test]
fn section2_hop_forms_compile() {
    let src = r#"
        demo(x) {
            hop(ln = *; ll = x; ldir = *);
            hop(ll = x);
            hop(ln = *; ll = x; ldir = -);
            hop(ll = x; ldir = -);
            hop(ln = *; ll = *; ldir = *);
            hop();
        }
    "#;
    let p = messengers::lang::compile(src).unwrap();
    assert_eq!(p.hop_specs.len(), 6);
}

/// §2.1's create examples (including multi-item and ALL).
#[test]
fn section2_create_forms_compile() {
    let src = r#"
        demo(a, b, x, y) {
            create(ALL);
            create(ln = a, b; ll = x, y);
        }
    "#;
    let p = messengers::lang::compile(src).unwrap();
    assert_eq!(p.create_specs.len(), 2);
    assert!(p.create_specs[0].all);
    assert_eq!(p.create_specs[1].items.len(), 2);
    assert!(!p.create_specs[1].all);
}

/// The code-size comparison the paper makes in §3.1.1/§3.2.1.
#[test]
fn code_size_claims_hold() {
    let rows = messengers::apps::codesize::comparison();
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert!(row.messengers_lines <= row.pvm_lines);
        assert!(row.messengers_lines < row.pvm_real_lines);
    }
}
