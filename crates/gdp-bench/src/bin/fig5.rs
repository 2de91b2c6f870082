//! Figure 5: relative RMS error distributions of GDP/GDP-O's estimate
//! components — (a) CPL, (b) overlap, (c) DIEF private latency — reported
//! as five-number summaries (the paper uses violin plots).

use gdp_bench::{
    accuracy_sweep_traced, aggregate, all_cells, banner, cell_accuracy_json, sweep_job_count,
    sweep_job_labels, BenchArgs,
};
use gdp_experiments::Technique;
use gdp_metrics::Summary;
use gdp_runner::{Json, Progress};

fn print_summary(label: &str, s: &Summary) {
    println!(
        "{label:8} min {:8.1}%   p25 {:8.1}%   median {:8.1}%   p75 {:8.1}%   max {:8.1}%   (n={})",
        s.min, s.p25, s.median, s.p75, s.max, s.n
    );
}

fn main() {
    let args = BenchArgs::parse("fig5");
    let techniques = args.techniques_or(&Technique::ALL);
    // The whole figure is GDP/GDP-O component errors: a selection with
    // neither still runs (IPC/stall errors are computed) but every
    // CPL/overlap section would be empty — say so instead of printing
    // NaN tables that look like a broken run.
    if !techniques.contains(&Technique::GDP) && !techniques.contains(&Technique::GDP_O) {
        eprintln!(
            "[fig5] warning: selection {:?} contains neither gdp nor gdp-o; \
             the CPL/overlap component sections will be empty",
            techniques.iter().map(|t| t.id()).collect::<Vec<_>>()
        );
    }
    let cells = all_cells();
    if args.list {
        args.print_plan(&sweep_job_labels(&cells, args.scale, &techniques));
        return;
    }
    banner("Figure 5: GDP/GDP-O component error distributions", args.scale);

    let job_count = sweep_job_count(&cells, args.scale, &techniques);
    let mut campaign = args.campaign();
    let progress = Progress::new(args.bin, job_count);
    let traces = args.traces();
    let sweep =
        accuracy_sweep_traced(&cells, args.scale, &techniques, &args.pool(), &progress, &traces);

    let mut cpl: Vec<(String, Summary)> = Vec::new();
    let mut overlap: Vec<(String, Summary)> = Vec::new();
    let mut lambda: Vec<(String, Summary)> = Vec::new();
    let mut data_cells = Vec::new();
    for (cell, results) in cells.iter().zip(&sweep) {
        let agg = aggregate(results);
        let label = cell.label();
        cpl.push((label.clone(), Summary::of(&agg.cpl_rel)));
        overlap.push((label.clone(), Summary::of(&agg.overlap_rel)));
        lambda.push((label.clone(), Summary::of(&agg.lambda_rel)));
        data_cells.push(cell_accuracy_json(&label, &agg));
    }

    println!("\n(a) CPL estimate, relative RMS error distribution");
    for (l, s) in &cpl {
        print_summary(l, s);
    }
    println!("\n(b) Overlap estimate, relative RMS error distribution");
    for (l, s) in &overlap {
        print_summary(l, s);
    }
    println!("\n(c) DIEF private-latency estimate, relative RMS error distribution");
    for (l, s) in &lambda {
        print_summary(l, s);
    }
    println!(
        "\nPaper reference (Fig. 5): CPL median error < 10% for most categories with \
         outlier clusters; overlap errors can be large for L-workloads without harming \
         IPC accuracy; latency medians ≤ 31%."
    );

    let data = Json::obj(vec![("cells", Json::Arr(data_cells))]);
    args.finish_campaign(&mut campaign, &progress, &traces);
    args.write_json(&campaign, job_count, data);
}
