//! `msgr-bench <experiment>` — print one figure, text claim or ablation
//! of the paper's evaluation. `msgr-bench --list` names them all.
//!
//! Exit codes follow the workspace contract: `0` clean, `2` usage error
//! (no experiment, unknown experiment, extra arguments).

use msgr_bench::{
    ablation_carrycode, ablation_faults, ablation_gvt, ablation_network, ablation_pvmroute,
    ablation_recovery, ablation_timewarp, fig7, mandel_figure, matmul_figure, text_codesize,
    text_seqblock, text_speedups, PAPER_PROCS,
};

const MATMUL_BLOCKS: [u32; 9] = [10, 20, 50, 100, 150, 200, 300, 400, 500];

/// An experiment's name and how to produce its printed form.
type Experiment = (&'static str, fn() -> String);

const EXPERIMENTS: &[Experiment] = &[
    ("fig4", || mandel_figure("Fig. 4", 320, &PAPER_PROCS, &[8, 16, 32]).to_string()),
    ("fig5", || mandel_figure("Fig. 5", 640, &PAPER_PROCS, &[8, 16, 32]).to_string()),
    ("fig6", || mandel_figure("Fig. 6", 1280, &PAPER_PROCS, &[8, 16, 32]).to_string()),
    ("fig7", || fig7(&PAPER_PROCS).to_string()),
    ("fig12a", || matmul_figure("Fig. 12(a)", 2, &MATMUL_BLOCKS, 1.0).to_string()),
    ("fig12b", || matmul_figure("Fig. 12(b)", 3, &MATMUL_BLOCKS, 1.55).to_string()),
    ("text_seqblock", || text_seqblock().to_string()),
    ("text_speedups", || text_speedups().to_string()),
    ("text_codesize", || text_codesize().to_string()),
    ("ablation_carrycode", || ablation_carrycode().to_string()),
    ("ablation_gvt", || ablation_gvt().to_string()),
    ("ablation_pvmroute", || ablation_pvmroute().to_string()),
    ("ablation_network", || ablation_network().to_string()),
    ("ablation_timewarp", || ablation_timewarp().to_string()),
    ("ablation_faults", ablation_faults),
    ("ablation_recovery", ablation_recovery),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprintln!("usage: msgr-bench <experiment> | --list");
        std::process::exit(2);
    };
    if arg == "--list" {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| name == arg) else {
        eprintln!("unknown experiment: {arg} (msgr-bench --list names them)");
        std::process::exit(2);
    };
    println!("{}", run());
}
