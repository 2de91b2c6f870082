//! Figure 3: average private-mode prediction accuracy.
//!
//! (a) average absolute RMS error of IPC estimates and (b) of SMS-load
//! stall-cycle estimates, for ITCA / PTCA / ASM / GDP / GDP-O across the
//! 2-, 4- and 8-core CMPs and the H/M/L workload categories.

use gdp_bench::{
    accuracy_sweep_traced, aggregate, all_cells, banner, cell_accuracy_json, sweep_job_count,
    sweep_job_labels, BenchArgs,
};
use gdp_experiments::Technique;
use gdp_runner::{Json, Progress};

fn main() {
    let args = BenchArgs::parse("fig3");
    let techniques = args.techniques_or(&Technique::ALL);
    let cells = all_cells();
    if args.list {
        args.print_plan(&sweep_job_labels(&cells, args.scale, &techniques));
        return;
    }
    banner("Figure 3: average private-mode prediction accuracy", args.scale);

    let job_count = sweep_job_count(&cells, args.scale, &techniques);
    let mut campaign = args.campaign();
    let progress = Progress::new(args.bin, job_count);
    let traces = args.traces();
    let sweep =
        accuracy_sweep_traced(&cells, args.scale, &techniques, &args.pool(), &progress, &traces);

    let header = {
        let mut h = format!("{:8}", "cell");
        for t in &techniques {
            h += &format!(" {:>12}", t.name());
        }
        h
    };

    let mut ipc_rows = Vec::new();
    let mut stall_rows = Vec::new();
    let mut data_cells = Vec::new();
    for (cell, results) in cells.iter().zip(&sweep) {
        let agg = aggregate(results);
        let label = cell.label();
        let mut ipc_row = format!("{label:8}");
        let mut stall_row = format!("{label:8}");
        for t in 0..techniques.len() {
            ipc_row += &format!(" {:>12.4}", agg.ipc_rms[t]);
            stall_row += &format!(" {:>12.0}", agg.stall_rms[t]);
        }
        ipc_rows.push(ipc_row);
        stall_rows.push(stall_row);
        data_cells.push(cell_accuracy_json(&label, &agg));
    }

    println!("\n(a) IPC estimate, average absolute RMS error");
    println!("{header}");
    for r in &ipc_rows {
        println!("{r}");
    }
    println!("\n(b) SMS-load stall cycles, average absolute RMS error (cycles)");
    println!("{header}");
    for r in &stall_rows {
        println!("{r}");
    }
    println!(
        "\nPaper reference (Fig. 3): GDP and GDP-O lowest in nearly every cell; \
         ITCA/PTCA/ASM errors grow with core count, ASM catastrophically on 8c-L."
    );

    let data = Json::obj(vec![("cells", Json::Arr(data_cells))]);
    args.finish_campaign(&mut campaign, &progress, &traces);
    args.write_json(&campaign, job_count, data);
}
