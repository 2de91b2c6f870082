//! Quickstart: embed GDP as a *streaming* estimation session.
//!
//! Build a 4-core CMP, attach the GDP-O accounting hardware through the
//! technique table, and consume per-interval private-mode (i.e.
//! interference-free) performance estimates online — the way a host
//! scheduler or QoS controller would, polling between its own events
//! instead of waiting for a batch run to finish.
//!
//! Run with: `cargo run --release --example quickstart`

use gdp::prelude::*;

fn main() {
    // A scaled 4-core CMP (Table I structure, reduced capacities) and the
    // first generated H-category workload.
    let xcfg = ExperimentConfig::quick(4);
    let workload = &paper_workloads(4, 42)[0];
    println!("CMP: {} cores, LLC {} KB", xcfg.sim.cores, xcfg.sim.llc.size_bytes >> 10);
    println!("workload: {:?}", workload.names());

    // Techniques are table entries: list what could be attached, then
    // attach GDP-O by id.
    println!("registered techniques:");
    for t in Technique::all_registered() {
        let kind = if t.is_invasive() { "invasive" } else { "transparent" };
        println!("  {:6} {:6} [{kind}] {}", t.id(), t.name(), t.desc().summary);
    }
    let gdp_o = Technique::from_id("gdp-o").expect("registered");

    // The streaming session: owns the simulated system, the technique's
    // hardware and the accounting-interval schedule.
    let mut session = SessionBuilder::new(workload, &xcfg).techniques(&[gdp_o]).build();

    println!(
        "\n{:>10} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "instrs", "core", "bench", "sharedIPC", "est.IPC", "CPL", "lambda"
    );
    // Drive the session in fixed-size chunks — a host would use its own
    // cadence — and poll the estimates produced so far. Print one core's
    // row per polled interval to keep the tour short.
    let chunk = 4 * xcfg.interval_cycles;
    let mut rows = 0usize;
    while !session.done() {
        session.advance_to(session.now() + chunk);
        for row in session.poll_estimates() {
            rows += 1;
            let core = rows % xcfg.sim.cores; // rotate through the cores
            let iv = &row[core];
            let est = &iv.estimates[0];
            println!(
                "{:>10} {:>6} {:>10} {:>10.3} {:>8.3} {:>8} {:>8.0}",
                iv.instr_end, // the core's committed-instruction checkpoint
                core,
                workload.names()[core],
                iv.stats.ipc(),
                est.ipc(),
                est.cpl,
                iv.lambda
            );
        }
    }

    // The same session yields the classic batch report at the end.
    let report = session.into_report();
    println!("\nfinal shared-mode vs estimated private-mode IPC after {} cycles:", report.cycles);
    for (c, bench) in workload.names().iter().enumerate() {
        let last = report.intervals.last().expect("at least one interval");
        println!(
            "  core {c} ({bench:>8}): shared {:.3}, estimated private {:.3}",
            report.final_stats[c].ipc(),
            last[c].estimates[0].ipc()
        );
    }
    println!(
        "\nEach row is one accounting interval: `est.IPC` is GDP-O's estimate of \
         how fast the benchmark would run with the memory system to itself \
         (interference-free), computed from the dataflow graph's critical path \
         length (CPL) and DIEF's private-latency estimate (lambda)."
    );
}
