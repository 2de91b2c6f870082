//! The paper's headline numbers (§I, §VII):
//!
//! * GDP mean IPC estimation error: 3.4% (4-core) and 9.8% (8-core);
//! * GDP private-performance RMS error 7.4× / huge-factor better than ASM
//!   on the 4-/8-core CMPs;
//! * GDP-O reduces stall-cycle RMS error vs GDP by 13.5% / 10.8%;
//! * MCP improves average STP by 11.9% / 20.8% over ASM partitioning;
//! * ASM's invasive accounting slowed individual processes by up to 57%.
//!
//! Each headline line needs specific techniques: under a `--techniques`
//! subset, lines whose techniques were not evaluated are skipped.

use gdp_bench::{
    accuracy_sweep_traced, banner, class_workloads, sweep_job_count, sweep_job_labels, BenchArgs,
    SweepCell,
};
use gdp_experiments::{run_policy_study, ExperimentConfig, PolicyKind, Technique};
use gdp_metrics::mean;
use gdp_runner::{Json, Progress};
use gdp_workloads::{LlcClass, Workload};

fn main() {
    let args = BenchArgs::parse("headline");
    let techniques = args.techniques_or(&Technique::ALL);
    let cells: Vec<SweepCell> = [4usize, 8]
        .iter()
        .flat_map(|&cores| {
            [LlcClass::H, LlcClass::M, LlcClass::L]
                .iter()
                .map(move |&class| SweepCell { cores, class })
        })
        .collect();
    let prep: Vec<(ExperimentConfig, Vec<Workload>)> = cells
        .iter()
        .map(|c| (args.scale.xcfg(c.cores), class_workloads(c.cores, c.class, args.scale)))
        .collect();
    // The STP phase's labels, shared between the `--list` plan and
    // execution progress (the accuracy phase's come from
    // `sweep_job_labels`, which `accuracy_sweep_traced` also uses).
    let stp_plan: Vec<(&Workload, &ExperimentConfig, String)> = cells
        .iter()
        .zip(&prep)
        .flat_map(|(cell, (xcfg, ws))| {
            ws.iter().map(move |w| (w, xcfg, format!("{}/{} STP", cell.label(), w.name)))
        })
        .collect();
    if args.list {
        let mut labels = sweep_job_labels(&cells, args.scale, &techniques);
        labels.extend(stp_plan.iter().map(|(_, _, l)| l.clone()));
        args.print_plan(&labels);
        return;
    }
    banner("Headline numbers (paper §I / §VII)", args.scale);

    let stp_jobs: usize = prep.iter().map(|(_, ws)| ws.len()).sum();
    let job_count = sweep_job_count(&cells, args.scale, &techniques) + stp_jobs;
    let mut campaign = args.campaign();
    let progress = Progress::new(args.bin, job_count);
    let pool = args.pool();
    let traces = args.traces();

    // Phase 1: the accuracy campaign over both CMP sizes.
    let sweep = accuracy_sweep_traced(&cells, args.scale, &techniques, &pool, &progress, &traces);

    // Phase 2: the MCP-vs-ASM STP study, one job per workload.
    let policy_jobs: Vec<_> = stp_plan
        .iter()
        .map(|(w, xcfg, label)| {
            let progress = &progress;
            move || {
                let out = run_policy_study(
                    w,
                    xcfg,
                    &[PolicyKind::AsmPart, PolicyKind::Mcp(Technique::GDP)],
                );
                progress.finish_item(label);
                out
            }
        })
        .collect();
    let mut policy_outcomes = pool.run(policy_jobs).into_iter();

    // Indices of the headline techniques in the evaluated set, when
    // selected.
    let idx = |t: Technique| techniques.iter().position(|x| *x == t);
    let (gi, goi, ai) = (idx(Technique::GDP), idx(Technique::GDP_O), idx(Technique::ASM));

    let mut data_sizes = Vec::new();
    for cores in [4usize, 8] {
        let mut rel_ipc_gdp = Vec::new();
        let mut ipc_gdp = Vec::new();
        let mut ipc_asm = Vec::new();
        let mut stall_gdp = Vec::new();
        let mut stall_gdpo = Vec::new();
        let mut worst_slowdown = 1.0f64;
        for (cell, results) in cells.iter().zip(&sweep) {
            if cell.cores != cores {
                continue;
            }
            for r in results {
                for b in &r.benches {
                    if let Some(g) = gi {
                        if !b.ipc_err[g].is_empty() {
                            rel_ipc_gdp.push(b.ipc_err[g].rms_rel().abs() * 100.0);
                            ipc_gdp.push(b.ipc_err[g].rms_abs());
                            stall_gdp.push(b.stall_err[g].rms_abs());
                            if let Some(go) = goi {
                                stall_gdpo.push(b.stall_err[go].rms_abs());
                            }
                        }
                    }
                    if let Some(a) = ai {
                        if !b.ipc_err[a].is_empty() {
                            ipc_asm.push(b.ipc_err[a].rms_abs());
                        }
                    }
                }
                for s in &r.invasive_slowdown {
                    worst_slowdown = worst_slowdown.max(*s);
                }
            }
        }
        println!("\n--- {cores}-core CMP ---");
        let mut fields = vec![("cores", Json::from(cores))];
        if gi.is_some() {
            println!(
                "GDP mean relative IPC estimation error: {:.1}%   (paper: {}%)",
                mean(&rel_ipc_gdp),
                if cores == 4 { "3.4" } else { "9.8" }
            );
            fields.push(("gdp_mean_rel_ipc_err_pct", Json::from(mean(&rel_ipc_gdp))));
        }
        if gi.is_some() && ai.is_some() {
            let ratio = mean(&ipc_asm) / mean(&ipc_gdp).max(1e-12);
            println!(
                "ASM/GDP IPC RMS error ratio: {:.1}x   (paper: {} better for GDP)",
                ratio,
                if cores == 4 { "7.4x" } else { "7.7e12x" }
            );
            fields.push(("asm_over_gdp_ipc_rms_ratio", Json::from(ratio)));
        }
        if gi.is_some() && goi.is_some() {
            let gdpo_gain = 100.0 * (1.0 - mean(&stall_gdpo) / mean(&stall_gdp).max(1e-12));
            println!(
                "GDP-O stall RMS improvement over GDP: {:.1}%   (paper: {}%)",
                gdpo_gain,
                if cores == 4 { "13.5" } else { "10.8" }
            );
            fields.push(("gdpo_stall_rms_gain_pct", Json::from(gdpo_gain)));
        }
        if ai.is_some() {
            println!(
                "Worst per-process slowdown from ASM's invasive accounting: {:.0}%   (paper: up to 57%)",
                (worst_slowdown - 1.0) * 100.0
            );
            fields.push(("worst_asm_slowdown_pct", Json::from((worst_slowdown - 1.0) * 100.0)));
        }

        // MCP vs ASM partitioning STP (outcomes arrive in cell order;
        // this CMP size owns the next three cells' workloads).
        let mut stp_mcp = Vec::new();
        let mut stp_asm = Vec::new();
        for (cell, (_, workloads)) in cells.iter().zip(&prep) {
            if cell.cores != cores {
                continue;
            }
            for _ in workloads {
                let out = policy_outcomes.next().expect("one STP outcome per workload");
                stp_asm.push(out[0].stp);
                stp_mcp.push(out[1].stp);
            }
        }
        let mcp_gain = 100.0 * (mean(&stp_mcp) / mean(&stp_asm).max(1e-12) - 1.0);
        println!(
            "MCP avg STP improvement over ASM partitioning: {:+.1}%   (paper: {}%)",
            mcp_gain,
            if cores == 4 { "+11.9" } else { "+20.8" }
        );
        fields.push(("mcp_vs_asm_stp_gain_pct", Json::from(mcp_gain)));

        data_sizes.push(Json::obj(fields));
    }

    let data = Json::obj(vec![("cmp_sizes", Json::Arr(data_sizes))]);
    args.finish_campaign(&mut campaign, &progress, &traces);
    args.write_json(&campaign, job_count, data);
}
