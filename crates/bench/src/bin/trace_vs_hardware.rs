//! The paper's motivating claim (Sections I–II): trace-based software
//! simulators "cannot model microarchitectural behaviors like speculation
//! and superscalar execution" and show "substantial modelling error" for
//! branch prediction accuracy.
//!
//! This harness runs each design on each SPECint17 profile three ways —
//! through the idealized trace-driven evaluator ([`TraceSim`]) over the
//! live generator, through the same evaluator over a *captured and
//! replayed* `.cbt` file ([`TraceProgram`]), and through the full
//! speculating core — and reports the modelling error a trace methodology
//! would have made. The replay column doubles as an end-to-end fidelity
//! check of the CBT capture path: it must equal the direct trace column
//! exactly, because capture preserves the instruction stream bit-for-bit.

use cobra_bench::runner::parallel_map;
use cobra_bench::{capture_workload, run_one, warmup_for};
use cobra_core::composer::Design;
use cobra_core::designs;
use cobra_uarch::{CoreConfig, TraceSim};
use cobra_workloads::{spec17, TraceProgram};

const WORKLOADS: [&str; 5] = ["perlbench", "gcc", "leela", "x264", "xz"];

fn main() {
    println!("TRACE-DRIVEN vs HARDWARE-IN-THE-LOOP accuracy (cond branches)");
    println!(
        "{:<11} {:<11} {:>10} {:>10} {:>10} {:>10}",
        "bench", "design", "trace %", "replay %", "core %", "error"
    );
    let insts = cobra_core::config::get().insts;
    let all_designs = designs::all();
    // Capture each workload once up front; every design's replay arm
    // re-reads the same file, exactly as a COBRA_TRACE_DIR grid would.
    let capture_dir = std::env::temp_dir().join(format!("cobra-tvh-{}", std::process::id()));
    for w in WORKLOADS {
        let spec = spec17::spec17(w);
        capture_workload(&spec, insts, &capture_dir)
            .unwrap_or_else(|e| panic!("capturing {w}: {e}"));
    }
    // Each cell needs a trace run *and* a core run; both are independent
    // per (bench, design) pair, so fan the pairs out together.
    let pairs: Vec<(&str, &Design)> = WORKLOADS
        .iter()
        .flat_map(|w| all_designs.iter().map(move |d| (*w, d)))
        .collect();
    let cells = parallel_map(&pairs, |_, &(w, design)| {
        let spec = spec17::spec17(w);
        // Trace-driven: perfect in-order history, no speculation.
        let mut trace = TraceSim::new(design).expect("composes");
        let mut stream = spec.build();
        // Same warm-up discipline as the core runs.
        trace.run(&mut stream, warmup_for(insts));
        let mut sim = TraceSim::new(design).expect("composes");
        let warm = {
            // Re-warm a fresh simulator on the same prefix so the
            // measured region matches the hardware run.
            let mut s = spec.build();
            sim.run(&mut s, warmup_for(insts));
            let before = *sim.stats();
            let after = sim.run(&mut s, insts);
            (before, after)
        };
        let trace_acc = {
            let (before, after) = warm;
            let cb = after.cond_branches - before.cond_branches;
            let cm = after.cond_mispredicts - before.cond_mispredicts;
            if cb == 0 {
                100.0
            } else {
                100.0 * (1.0 - cm as f64 / cb as f64)
            }
        };
        // Replayed-trace arm: the same evaluator, fed from the captured
        // `.cbt` file instead of the live generator.
        let replay_acc = {
            let path = capture_dir.join(format!("{w}.cbt"));
            let mut program =
                TraceProgram::open(&path).unwrap_or_else(|e| panic!("replaying {w}: {e}"));
            let mut sim = TraceSim::new(design).expect("composes");
            sim.run(&mut program, warmup_for(insts));
            let before = *sim.stats();
            let after = sim.run(&mut program, insts);
            let cb = after.cond_branches - before.cond_branches;
            let cm = after.cond_mispredicts - before.cond_mispredicts;
            if cb == 0 {
                100.0
            } else {
                100.0 * (1.0 - cm as f64 / cb as f64)
            }
        };
        // Hardware-in-the-loop.
        let hw = run_one(design, CoreConfig::boom_4wide(), &spec);
        (trace_acc, replay_acc, hw.counters.branch_accuracy())
    });
    let mut worst: f64 = 0.0;
    let mut replay_diverged = false;
    for (&(w, design), &(trace_acc, replay_acc, hw_acc)) in pairs.iter().zip(&cells) {
        let err = trace_acc - hw_acc;
        worst = worst.max(err.abs());
        if replay_acc != trace_acc {
            replay_diverged = true;
        }
        println!(
            "{:<11} {:<11} {:>9.2}% {:>9.2}% {:>9.2}% {:>+9.2}",
            w, design.name, trace_acc, replay_acc, hw_acc, err
        );
    }
    let _ = std::fs::remove_dir_all(&capture_dir);
    if replay_diverged {
        println!();
        println!("WARNING: replayed-trace accuracy diverged from the direct trace");
        println!("run — the .cbt capture path is not stream-identical.");
    }
    println!();
    println!("Positive error = the trace model is optimistic (it misses wrong-path");
    println!("pollution, speculative-history noise, and repair effects). Worst");
    println!("absolute modelling error observed: {worst:.2} accuracy points —");
    println!("the gap COBRA's hardware-guided methodology exists to close.");
}
