//! Accuracy comparison of all five accounting techniques on one workload
//! (a single cell of the paper's Fig. 3 evaluation).
//!
//! Run with: `cargo run --release --example accounting_comparison`

use gdp::experiments::{evaluate_workload, ExperimentConfig, Technique};
use gdp::workloads::paper_workloads;

fn main() {
    let xcfg = ExperimentConfig::quick(4);
    let workload = &paper_workloads(4, 42)[0];
    println!("workload: {:?}", workload.names());
    println!("evaluating ITCA, PTCA, ASM, GDP and GDP-O against private-mode runs...\n");

    let r = evaluate_workload(workload, &xcfg, &Technique::ALL);

    println!("absolute RMS error of IPC estimates (lower is better):");
    print!("{:>12}", "benchmark");
    for t in Technique::ALL {
        print!(" {:>8}", t.name());
    }
    println!();
    for b in &r.benches {
        print!("{:>12}", b.bench);
        for i in 0..Technique::ALL.len() {
            print!(" {:>8.4}", b.ipc_err[i].rms_abs());
        }
        println!();
    }

    println!("\nabsolute RMS error of SMS-stall estimates (cycles):");
    print!("{:>12}", "benchmark");
    for t in Technique::ALL {
        print!(" {:>8}", t.name());
    }
    println!();
    for b in &r.benches {
        print!("{:>12}", b.bench);
        for i in 0..Technique::ALL.len() {
            print!(" {:>8.0}", b.stall_err[i].rms_abs());
        }
        println!();
    }

    println!("\nASM's invasive priority rotation slowed cores by:");
    for (c, s) in r.invasive_slowdown.iter().enumerate() {
        println!("  core {c}: {:+.1}%", (s - 1.0) * 100.0);
    }
    println!(
        "\n(The paper observed up to 57% slowdown from invasive accounting — the \
         transparent techniques, including GDP, cost nothing.)"
    );
}
