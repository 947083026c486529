//! # msgr-bench — the evaluation harness
//!
//! One function per figure of the paper (§3.1.2, §3.2.2), each returning
//! a [`Table`] with exactly the series the paper plots, all on the
//! simulated clock. `msgr-bench <experiment>` (`src/main.rs`) prints
//! them; EXPERIMENTS.md records the measured outputs next to the paper's
//! claims. Every data point is verified (image checksum / product
//! matrix) before its timing is reported. Host-clock measurements of
//! this repository's own code live in `benchmark/` (BENCHMARK.json).

use std::sync::Arc;

use msgr_apps::calib::Calib;
use msgr_apps::mandel::{render_sequential, MandelScene, MandelWork};
use msgr_apps::matmul::{
    max_abs_diff, multiply_reference, sequential_seconds, test_matrix, MatmulScene,
};
use msgr_apps::{mandel_msgr, mandel_pvm, matmul_msgr, matmul_pvm};
use msgr_core::config::VtMode;
use msgr_core::ClusterConfig;
use msgr_pvm::PvmNet;

/// A printable result table (one per figure).
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure id and description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (w, c) in widths.iter().zip(cells) {
                write!(f, "{c:>w$}  ", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn fmt_s(v: f64) -> String {
    format!("{v:.3}")
}

/// Render a histogram's p50/p99/max as JSON fields named `<key>_p50` …,
/// or the same fields as `null` when the run never recorded the metric.
fn quantile_fields(stats: &msgr_sim::Stats, key: &str) -> String {
    match stats.histogram(key) {
        Some(h) => format!(
            "\"{key}_p50\": {}, \"{key}_p99\": {}, \"{key}_max\": {}",
            h.quantile(0.50),
            h.quantile(0.99),
            h.max()
        ),
        None => format!("\"{key}_p50\": null, \"{key}_p99\": null, \"{key}_max\": null"),
    }
}

/// The processor counts the paper sweeps (1 to 32).
pub const PAPER_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One Mandelbrot figure (Figs. 4, 5, 6): runtime vs processors for the
/// three grid sizes, with the sequential-C time as reference. Series:
/// MESSENGERS, PVM.
pub fn mandel_figure(fig: &str, size: u32, procs: &[usize], grids: &[u32]) -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        format!("{fig}: Mandelbrot {size}x{size}, 512 colors, region (-2,-1.2,0.4,1.2) [seconds]"),
        &["grid", "procs", "messengers", "pvm", "seq C"],
    );
    let image = MandelWork::compute(MandelScene::paper(size, 1));
    for &grid in grids {
        let work = Arc::new(image.regrid(grid));
        let (seq, expected) = render_sequential(&work, &calib);
        for &p in procs {
            let m = mandel_msgr::run_sim(&work, p, &calib, ClusterConfig::new(p))
                .expect("messengers run");
            assert_eq!(m.checksum, expected, "messengers image mismatch at {p} procs");
            let v = mandel_pvm::run_sim(&work, p, &calib, PvmNet::Ethernet100).expect("pvm run");
            assert_eq!(v.checksum, expected, "pvm image mismatch at {p} procs");
            table.row(vec![
                format!("{grid}x{grid}"),
                p.to_string(),
                fmt_s(m.seconds),
                fmt_s(v.seconds),
                fmt_s(seq),
            ]);
        }
    }
    table
}

/// Fig. 7: the most favorable case (1280×1280, 8×8 grid) — runtimes and
/// the MESSENGERS speedup over PVM and over sequential C.
pub fn fig7(procs: &[usize]) -> Table {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(1280, 8)));
    let (seq, expected) = render_sequential(&work, &calib);
    let mut table = Table::new(
        "Fig. 7: Mandelbrot 1280x1280, 8x8 grid (most favorable case) [seconds]",
        &["procs", "messengers", "pvm", "seq C", "pvm/messengers", "speedup vs seq"],
    );
    for &p in procs {
        let m = mandel_msgr::run_sim(&work, p, &calib, ClusterConfig::new(p)).expect("messengers");
        assert_eq!(m.checksum, expected);
        let v = mandel_pvm::run_sim(&work, p, &calib, PvmNet::Ethernet100).expect("pvm");
        assert_eq!(v.checksum, expected);
        table.row(vec![
            p.to_string(),
            fmt_s(m.seconds),
            fmt_s(v.seconds),
            fmt_s(seq),
            format!("{:.2}", v.seconds / m.seconds),
            format!("{:.2}", seq / m.seconds),
        ]);
    }
    table
}

/// One matmul figure (Fig. 12a: m = 2 at 110 MHz; Fig. 12b: m = 3 at
/// 170 MHz): runtime vs block size. Series: MESSENGERS, PVM, naive
/// sequential, blocked sequential.
pub fn matmul_figure(fig: &str, m: u32, block_sizes: &[u32], cpu_speed: f64) -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        format!("{fig}: matrix multiplication, {m}x{m} grid ({} procs) [seconds]", m * m),
        &["block s", "n", "messengers", "pvm", "seq naive", "seq blocked"],
    );
    for &s in block_sizes {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let reference = multiply_reference(&a, &b);

        let mut cfg = ClusterConfig::new((m * m) as usize);
        cfg.cpu_speed = cpu_speed;
        let mr = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("messengers matmul");
        assert!(
            max_abs_diff(&mr.product, &reference) < 1e-6,
            "messengers product mismatch at s={s}"
        );
        let pr = matmul_pvm::run_sim(
            scene,
            &a,
            &b,
            &calib,
            (m * m) as usize,
            PvmNet::Ethernet100,
            cpu_speed,
        )
        .expect("pvm matmul");
        assert!(max_abs_diff(&pr.product, &reference) < 1e-6, "pvm product mismatch at s={s}");

        let (naive, blocked) = sequential_seconds(scene, &calib);
        table.row(vec![
            s.to_string(),
            scene.n().to_string(),
            fmt_s(mr.seconds / cpu_speed.max(1e-9) * cpu_speed), // already scaled by cluster
            fmt_s(pr.seconds),
            fmt_s(naive / cpu_speed),
            fmt_s(blocked / cpu_speed),
        ]);
    }
    table
}

/// The §3.2 sequential claim: blocked ≈13% faster than naive at
/// n = 1500 in 3×3 blocks.
pub fn text_seqblock() -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        "§3.2 text: sequential naive vs block-oriented [seconds, 110 MHz]",
        &["n", "blocks", "naive", "blocked", "speedup"],
    );
    for (n, m) in [(600u32, 3u32), (900, 3), (1500, 3)] {
        let scene = MatmulScene::new(m, n / m);
        let (naive, blocked) = sequential_seconds(scene, &calib);
        table.row(vec![
            n.to_string(),
            format!("{m}x{m}"),
            fmt_s(naive),
            fmt_s(blocked),
            format!("{:.3}", naive / blocked),
        ]);
    }
    table
}

/// The §3.2.2 speedup claims: 4 procs / n=1000 → 3.7 over blocked, 4.5
/// over naive; 9 procs / n=1500 → 5.8 / 6.7.
pub fn text_speedups() -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        "§3.2.2 text: MESSENGERS speedups over the sequential algorithms",
        &["grid", "n", "messengers", "seq naive", "seq blocked", "vs blocked", "vs naive"],
    );
    for (m, s, speed) in [(2u32, 500u32, 1.0f64), (3, 500, 1.55)] {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let mut cfg = ClusterConfig::new((m * m) as usize);
        cfg.cpu_speed = speed;
        let mr = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("messengers matmul");
        let (naive, blocked) = sequential_seconds(scene, &calib);
        let (naive, blocked) = (naive / speed, blocked / speed);
        table.row(vec![
            format!("{m}x{m}"),
            scene.n().to_string(),
            fmt_s(mr.seconds),
            fmt_s(naive),
            fmt_s(blocked),
            format!("{:.2}", blocked / mr.seconds),
            format!("{:.2}", naive / mr.seconds),
        ]);
    }
    table
}

/// Ablation: shared code registry vs carrying code on every migration
/// (the WAVE-style design), on the fine-grained Mandelbrot workload
/// where per-hop bytes matter most.
pub fn ablation_carrycode() -> Table {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(320, 32)));
    let mut table = Table::new(
        "Ablation: shared code registry vs carry-code (Mandelbrot 320x320, 32x32 grid)",
        &["procs", "registry [s]", "carry-code [s]", "registry MB", "carry MB"],
    );
    for p in [4usize, 16] {
        let run = |carry: bool| {
            let mut cfg = ClusterConfig::new(p);
            cfg.carry_code = carry;
            mandel_msgr::run_sim(&work, p, &calib, cfg).expect("run")
        };
        let lean = run(false);
        let fat = run(true);
        table.row(vec![
            p.to_string(),
            fmt_s(lean.seconds),
            fmt_s(fat.seconds),
            format!("{:.2}", lean.stats.counter("migration_bytes") as f64 / 1e6),
            format!("{:.2}", fat.stats.counter("migration_bytes") as f64 / 1e6),
        ]);
    }
    table
}

/// Ablation: the GVT protocol's cost — matmul with the message-based
/// conservative protocol at different round intervals, and optimistic
/// Time Warp.
pub fn ablation_gvt() -> Table {
    let calib = Calib::default();
    let mut table = Table::new(
        "Ablation: virtual-time machinery (matmul 3x3, s=50, Ethernet)",
        &["mode", "gvt interval [ms]", "seconds", "gvt rounds", "rollbacks"],
    );
    let scene = MatmulScene::new(3, 50);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let reference = multiply_reference(&a, &b);
    for (mode, interval_ms) in [
        (VtMode::Conservative, 1u64),
        (VtMode::Conservative, 5),
        (VtMode::Conservative, 20),
        (VtMode::Optimistic, 5),
    ] {
        let mut cfg = ClusterConfig::new(9);
        cfg.vt_mode = mode;
        cfg.gvt_interval = interval_ms * 1_000_000;
        let run = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run");
        assert!(max_abs_diff(&run.product, &reference) < 1e-6);
        table.row(vec![
            format!("{mode:?}"),
            interval_ms.to_string(),
            fmt_s(run.seconds),
            run.stats.counter("gvt_rounds").to_string(),
            run.stats.counter("rollbacks").to_string(),
        ]);
    }
    table
}

/// Ablation: PVM routing via the pvmds (3.3 default) vs direct task
/// TCP routes, on the coarse Mandelbrot workload.
pub fn ablation_pvmroute() -> Table {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(640, 8)));
    let mut table = Table::new(
        "Ablation: PVM pvmd store-and-forward vs direct routing (Mandelbrot 640x640, 8x8)",
        &["procs", "pvmd route [s]", "direct route [s]"],
    );
    for p in [4usize, 16] {
        let routed = mandel_pvm::run_sim(&work, p, &calib, PvmNet::Ethernet100).expect("routed");
        // Direct routing (PvmRouteDirect) is a cost-model switch.
        let direct = mandel_pvm::run_sim_routed(&work, p, &calib, PvmNet::Ethernet100, true)
            .expect("direct");
        table.row(vec![p.to_string(), fmt_s(routed.seconds), fmt_s(direct.seconds)]);
    }
    table
}

/// Ablation: the network medium — 10 Mbit shared, 100 Mbit shared
/// (calibrated default), and a full-duplex switch — for both systems on
/// the coarse Mandelbrot workload at 16 processors.
pub fn ablation_network() -> Table {
    use msgr_core::config::NetKind;
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(640, 8)));
    let mut table = Table::new(
        "Ablation: network medium (Mandelbrot 640x640, 8x8 grid, 16 procs)",
        &["medium", "messengers [s]", "pvm [s]"],
    );
    let cases: [(&str, NetKind, PvmNet); 3] = [
        ("10 Mbit shared", NetKind::Ethernet10, PvmNet::Ethernet10),
        ("100 Mbit shared", NetKind::Ethernet100, PvmNet::Ethernet100),
        (
            "100 Mbit switched",
            NetKind::Switched { bandwidth_bps: 100e6 },
            PvmNet::Switched { bandwidth_bps: 100e6 },
        ),
    ];
    for (name, mk, pk) in cases {
        let mut cfg = ClusterConfig::new(16);
        cfg.net = mk;
        let m = mandel_msgr::run_sim(&work, 16, &calib, cfg).expect("messengers");
        let v = mandel_pvm::run_sim(&work, 16, &calib, pk).expect("pvm");
        table.row(vec![name.to_string(), fmt_s(m.seconds), fmt_s(v.seconds)]);
    }
    table
}

/// Ablation: conservative GVT vs optimistic Time Warp across workload
/// density (the swarm individual-based simulation). Sparse swarms give
/// optimism its win; the fully synchronized matmul (see
/// [`ablation_gvt`]) is the opposing case.
pub fn ablation_timewarp() -> Table {
    use msgr_apps::swarm::{run, SwarmScene};
    let mut table = Table::new(
        "Ablation: conservative vs Time Warp on the swarm (6x6 torus, 16 ticks, 4 daemons)",
        &["ants", "conservative [s]", "time warp [s]", "rollbacks", "winner"],
    );
    for ants in [6i64, 12, 24, 48, 96] {
        let scene = SwarmScene { side: 6, ants, ticks: 16, daemons: 4 };
        let cons = run(scene, VtMode::Conservative).expect("conservative");
        let opt = run(scene, VtMode::Optimistic).expect("optimistic");
        assert_eq!(cons.field, opt.field, "modes must agree at {ants} ants");
        table.row(vec![
            ants.to_string(),
            fmt_s(cons.seconds),
            fmt_s(opt.seconds),
            opt.stats.counter("rollbacks").to_string(),
            if opt.seconds < cons.seconds { "time warp" } else { "conservative" }.to_string(),
        ]);
    }
    table
}

/// Ablation: completion time under injected frame loss, MESSENGERS vs
/// PVM on the coarse Mandelbrot workload. Returns JSON (one object per
/// loss rate) rather than a [`Table`] so the numbers can feed plots
/// directly.
///
/// Both systems see the same loss rates but recover differently: the
/// MESSENGERS transport retransmits selectively on a ~10 ms timer with
/// exponential backoff, while PVM 3.3's pvmd protocol is stop-and-wait
/// with a 250 ms retry timer that stalls the whole message. Every
/// messenger run's image checksum is asserted against the sequential
/// render — loss may slow the run but must never corrupt it
/// (exactly-once delivery).
///
/// Don't be surprised if the MESSENGERS times wobble a few percent
/// *either way* as loss rises: Mandelbrot is a dynamic task farm, so a
/// delayed frame changes which worker pulls which (variable-cost)
/// block, and the makespan moves with the reshuffle. The PVM times,
/// serialized through the manager and the 250 ms retry timer, only go
/// up.
///
/// # Panics
///
/// Panics if any run fails or produces a wrong image.
pub fn ablation_faults() -> String {
    use msgr_sim::FaultPlan;
    let calib = Calib::default();
    let procs = 8usize;
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let (_, expected) = render_sequential(&work, &calib);
    let mut runs = Vec::new();
    for loss in [0.0f64, 0.01, 0.05, 0.10] {
        let mut cfg = ClusterConfig::new(procs);
        cfg.faults = FaultPlan::lossy(loss);
        let msgr = mandel_msgr::run_sim(&work, procs, &calib, cfg).expect("messenger run");
        assert_eq!(msgr.checksum, expected, "image corrupted at loss={loss}");

        let mut pcfg = msgr_pvm::PvmSimConfig::new(procs);
        pcfg.faults = FaultPlan::lossy(loss);
        let pvm = mandel_pvm::run_sim_cfg(&work, &calib, pcfg).expect("pvm run");
        assert_eq!(pvm.checksum, expected, "pvm image corrupted at loss={loss}");

        runs.push(format!(
            concat!(
                "    {{\"loss\": {:.2}, \"messengers_s\": {:.6}, \"pvm_s\": {:.6}, ",
                "\"msgr_retransmits\": {}, \"msgr_frames_lost\": {}, ",
                "\"pvm_retransmissions\": {}, {}}}"
            ),
            loss,
            msgr.seconds,
            pvm.seconds,
            msgr.stats.counter("xport_retransmits"),
            msgr.stats.counter("net_frames_lost"),
            pvm.stats.counter("retransmissions"),
            quantile_fields(&msgr.stats, "xport_delivery_ns"),
        ));
    }
    format!(
        "{{\n  \"ablation\": \"faults\",\n  \"workload\": \"mandelbrot 128x128, 8x8 grid, {procs} procs\",\n  \"runs\": [\n{}\n  ]\n}}",
        runs.join(",\n")
    )
}

/// Ablation: permanent daemon death — failure detection, failover, and
/// replay cost as a function of when the worker dies. Emits JSON.
///
/// One Mandelbrot workload, one victim daemon, kill times swept from
/// "almost at startup" to "deep into the run". Later kills lose more
/// uncheckpointed work and replay more blocks, so `seconds` degrades
/// visibly relative to the fault-free baseline while the image checksum
/// stays exact. Counters expose the recovery pipeline: `fd_deaths`
/// (detector verdicts), `restores`/`restored_*` (failover),
/// `xport_redirected` (in-flight reroute), `recovery_latency_ms`
/// (death verdict → daemon restored).
///
/// # Panics
///
/// Panics if any run fails or produces a wrong image.
pub fn ablation_recovery() -> String {
    use msgr_sim::{CrashEvent, FaultPlan, MILLI};
    let calib = Calib::default();
    let procs = 8usize;
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let (_, expected) = render_sequential(&work, &calib);

    let run_with = |plan: FaultPlan| {
        let mut cfg = ClusterConfig::new(procs);
        cfg.seed = 42;
        cfg.faults = plan;
        mandel_msgr::run_sim(&work, procs, &calib, cfg).expect("messenger run")
    };

    let baseline = run_with(FaultPlan::none());
    assert_eq!(baseline.checksum, expected, "baseline image corrupted");

    let mut runs = vec![format!(
        "    {{\"kill_at_ms\": null, \"seconds\": {:.6}, \"slowdown\": 1.0}}",
        baseline.seconds
    )];
    for at_ms in [5u64, 20, 50, 100] {
        let plan =
            FaultPlan { crashes: vec![CrashEvent::kill(3, at_ms * MILLI)], ..FaultPlan::none() };
        let r = run_with(plan);
        assert_eq!(r.checksum, expected, "image corrupted with kill at {at_ms} ms");
        assert_eq!(r.stats.counter("kills"), 1, "kill at {at_ms} ms never fired");
        assert_eq!(r.stats.counter("restores"), 1, "no failover for kill at {at_ms} ms");
        runs.push(format!(
            concat!(
                "    {{\"kill_at_ms\": {}, \"seconds\": {:.6}, \"slowdown\": {:.4}, ",
                "\"checkpoints\": {}, \"fd_deaths\": {}, \"evictions\": {}, ",
                "\"restored_nodes\": {}, \"restored_messengers\": {}, ",
                "\"xport_redirected\": {}, \"recovery_latency_ms\": {:.3}, {}}}"
            ),
            at_ms,
            r.seconds,
            r.seconds / baseline.seconds,
            r.stats.counter("checkpoints"),
            r.stats.counter("fd_deaths"),
            r.stats.counter("evictions"),
            r.stats.counter("restored_nodes"),
            r.stats.counter("restored_messengers"),
            r.stats.counter("xport_redirected"),
            r.stats.counter("recovery_latency_ns") as f64 / 1e6,
            quantile_fields(&r.stats, "recovery_latency_ns"),
        ));
    }
    format!(
        "{{\n  \"ablation\": \"recovery\",\n  \"workload\": \"mandelbrot 128x128, 8x8 grid, {procs} procs, kill daemon 3\",\n  \"runs\": [\n{}\n  ]\n}}",
        runs.join(",\n")
    )
}

/// The code-size comparison (§3.1.1 / §3.2.1).
pub fn text_codesize() -> Table {
    let mut table = Table::new(
        "§3.1.1/§3.2.1: program sizes (non-blank, non-comment lines)",
        &[
            "application",
            "MSGR-C (executable)",
            "PVM pseudo-code (paper)",
            "PVM executable (this repo)",
        ],
    );
    for row in msgr_apps::codesize::comparison() {
        table.row(vec![
            row.app.to_string(),
            row.messengers_lines.to_string(),
            row.pvm_lines.to_string(),
            row.pvm_real_lines.to_string(),
        ]);
    }
    table
}
