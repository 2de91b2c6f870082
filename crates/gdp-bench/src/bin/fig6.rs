//! Figure 6: system throughput with LLC partitioning — (a) average STP of
//! LRU / UCP / ASM / MCP / MCP-O per (CMP size, workload class); (b) STP
//! relative to LRU for every 8-core H-workload.

use gdp_bench::{all_cells, banner, class_workloads, BenchArgs};
use gdp_experiments::{run_policy_study, ExperimentConfig, PolicyKind, Technique};
use gdp_metrics::mean;
use gdp_runner::{Json, Progress};
use gdp_workloads::{LlcClass, Workload};

fn main() {
    let args = BenchArgs::parse("fig6");
    // The technique selection picks which registered transparent
    // techniques feed MCP's partitioning lookahead: the default
    // (gdp,gdp-o) yields the paper's MCP and MCP-O columns next to the
    // fixed LRU/UCP/ASM managers.
    let feeders = PolicyKind::mcp_feeders(&args.techniques_or(&[Technique::GDP, Technique::GDP_O]));
    let mut policies = vec![PolicyKind::Lru, PolicyKind::Ucp, PolicyKind::AsmPart];
    policies.extend(feeders);
    // Flatten to one job per (cell, workload): each runs the full policy
    // study (the LLC managers plus the private reference runs).
    // Policy studies measure throughput under invasive repartitioning,
    // not the estimator-facing stream, so the trace cache does not apply
    // here — say so instead of silently ignoring the flags.
    if args.record || args.replay {
        eprintln!(
            "[fig6] note: invasive policy studies bypass the trace cache; \
             --record/--replay are ignored"
        );
    }
    let cells = all_cells();
    let prep: Vec<(ExperimentConfig, Vec<Workload>)> = cells
        .iter()
        .map(|c| (args.scale.xcfg(c.cores), class_workloads(c.cores, c.class, args.scale)))
        .collect();
    // One label per job, shared between the `--list` plan and execution
    // progress so the two can never drift.
    let flat: Vec<(&Workload, &ExperimentConfig, String)> = cells
        .iter()
        .zip(&prep)
        .flat_map(|(cell, (xcfg, ws))| {
            ws.iter().map(move |w| (w, xcfg, format!("{}/{}", cell.label(), w.name)))
        })
        .collect();
    if args.list {
        let labels: Vec<String> = flat.iter().map(|(_, _, l)| l.clone()).collect();
        args.print_plan(&labels);
        return;
    }
    banner("Figure 6: system throughput with LLC partitioning", args.scale);

    let job_count = flat.len();
    let mut campaign = args.campaign();
    let progress = Progress::new(args.bin, job_count);

    let jobs: Vec<_> = flat
        .iter()
        .map(|(w, xcfg, label)| {
            let progress = &progress;
            let policies = &policies;
            move || {
                let out = run_policy_study(w, xcfg, policies);
                progress.finish_item(label);
                out
            }
        })
        .collect();
    let mut outcomes = args.pool().run(jobs).into_iter();

    // ---- (a) average STP per (cores, class) ----
    println!("\n(a) average STP");
    print!("{:8}", "cell");
    for p in &policies {
        print!(" {:>8}", p.to_string());
    }
    println!();
    let mut eight_core_h: Vec<(String, Vec<f64>)> = Vec::new();
    let mut data_cells = Vec::new();
    for (cell, (_, workloads)) in cells.iter().zip(&prep) {
        let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
        for w in workloads {
            let out = outcomes.next().expect("one outcome per workload");
            for (i, o) in out.iter().enumerate() {
                per_policy[i].push(o.stp);
            }
            if cell.cores == 8 && cell.class == LlcClass::H {
                eight_core_h.push((w.name.clone(), out.iter().map(|o| o.stp).collect()));
            }
        }
        print!("{:8}", cell.label());
        for v in &per_policy {
            print!(" {:>8.3}", mean(v));
        }
        println!();
        data_cells.push(Json::obj(vec![
            ("cell", Json::from(cell.label())),
            (
                "avg_stp",
                Json::Obj(
                    policies
                        .iter()
                        .zip(&per_policy)
                        .map(|(p, v)| (p.to_string(), Json::from(mean(v))))
                        .collect(),
                ),
            ),
        ]));
    }

    // ---- (b) 8-core H workloads relative to LRU ----
    println!("\n(b) 8-core H workloads: STP relative to LRU");
    print!("{:12}", "workload");
    for p in &policies {
        print!(" {:>8}", p.to_string());
    }
    println!();
    let mut data_8ch = Vec::new();
    for (name, stps) in &eight_core_h {
        let lru = stps[0].max(1e-9);
        print!("{name:12}");
        for s in stps {
            print!(" {:>8.3}", s / lru);
        }
        println!();
        data_8ch.push(Json::obj(vec![
            ("workload", Json::from(name.as_str())),
            (
                "stp_vs_lru",
                Json::Obj(
                    policies
                        .iter()
                        .zip(stps)
                        .map(|(p, s)| (p.to_string(), Json::from(s / lru)))
                        .collect(),
                ),
            ),
        ]));
    }
    println!(
        "\nPaper reference (Fig. 6): MCP and MCP-O are the top performers on the 4- \
         and 8-core CMPs (8c-H: +11%/+34%/+52% vs LRU/UCP/ASM); all policies tie on \
         the 2-core CMP where contention is limited."
    );

    let data = Json::obj(vec![
        ("cells", Json::Arr(data_cells)),
        ("eight_core_h_vs_lru", Json::Arr(data_8ch)),
    ]);
    args.finish_campaign(&mut campaign, &progress, &args.traces());
    args.write_json(&campaign, job_count, data);
}
