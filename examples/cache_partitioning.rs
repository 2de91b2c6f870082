//! LLC management case study (paper §V): run the same 4-core workload
//! under LRU, UCP, ASM-driven partitioning, MCP and MCP-O, and compare
//! system throughput.
//!
//! Run with: `cargo run --release --example cache_partitioning`

use gdp::experiments::{run_policy_study, ExperimentConfig, PolicyKind};
use gdp::workloads::{by_name, Workload};

fn main() {
    let xcfg = ExperimentConfig::quick(4);
    // A workload where partitioning matters: two LLC-sensitive benchmarks
    // next to two cache-polluting streams.
    let workload = Workload {
        name: "demo-HHLL".into(),
        class: None,
        benchmarks: vec![
            by_name("art").unwrap(),
            by_name("galgel").unwrap(),
            by_name("swim").unwrap(),
            by_name("milc").unwrap(),
        ],
    };
    println!("workload: {:?}", workload.names());
    println!("running 5 policies (plus per-benchmark private-mode references)...\n");

    let outcomes = run_policy_study(&workload, &xcfg, &PolicyKind::ALL);
    let lru = outcomes[0].stp;
    println!("{:>8} {:>8} {:>10} {:>12}", "policy", "STP", "vs LRU", "cycles");
    for o in &outcomes {
        println!(
            "{:>8} {:>8.3} {:>9.1}% {:>12}",
            o.policy.to_string(),
            o.stp,
            100.0 * (o.stp / lru - 1.0),
            o.cycles
        );
    }
    println!(
        "\nSTP sums each core's private/shared CPI ratio (max = 4). MCP and MCP-O \
         use GDP/GDP-O's private-mode estimates to allocate ways by *throughput* \
         rather than by miss counts (paper Fig. 6)."
    );
}
