//! Figure 4: absolute RMS error distribution of the SMS-load stall-cycle
//! predictions — all workload categories combined, errors sorted
//! ascending per technique (one series per CMP size).

use gdp_bench::{
    accuracy_sweep_traced, all_cells, banner, sweep_job_count, sweep_job_labels, BenchArgs,
};
use gdp_experiments::Technique;
use gdp_runner::{Json, Progress};

fn main() {
    let args = BenchArgs::parse("fig4");
    let techniques = args.techniques_or(&Technique::ALL);
    // One flattened campaign over all nine cells; regrouped by CMP size
    // below (classes are combined per the figure).
    let cells = all_cells();
    if args.list {
        args.print_plan(&sweep_job_labels(&cells, args.scale, &techniques));
        return;
    }
    banner("Figure 4: sorted SMS-stall RMS error distributions", args.scale);

    let job_count = sweep_job_count(&cells, args.scale, &techniques);
    let mut campaign = args.campaign();
    let progress = Progress::new(args.bin, job_count);
    let traces = args.traces();
    let sweep =
        accuracy_sweep_traced(&cells, args.scale, &techniques, &args.pool(), &progress, &traces);

    let mut data_sizes = Vec::new();
    for cores in [2usize, 4, 8] {
        let mut per_tech: Vec<Vec<f64>> = vec![Vec::new(); techniques.len()];
        for (cell, results) in cells.iter().zip(&sweep) {
            if cell.cores != cores {
                continue;
            }
            for r in results {
                for b in &r.benches {
                    for t in 0..techniques.len() {
                        if !b.stall_err[t].is_empty() {
                            per_tech[t].push(b.stall_err[t].rms_abs());
                        }
                    }
                }
            }
        }
        for v in &mut per_tech {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }

        println!("\n--- {cores}-core CMP: sorted per-benchmark stall RMS errors (cycles) ---");
        let n = per_tech[0].len();
        print!("{:>6}", "rank");
        for t in &techniques {
            print!(" {:>12}", t.name());
        }
        println!();
        // Print deciles rather than every point (the full series is long).
        let mut decile_rows: Vec<Vec<f64>> = vec![Vec::new(); techniques.len()];
        for decile in 0..=10 {
            let idx = if n == 0 { 0 } else { ((n - 1) * decile) / 10 };
            print!("{:>5}%", decile * 10);
            for (t, v) in per_tech.iter().enumerate() {
                if v.is_empty() {
                    print!(" {:>12}", "-");
                } else {
                    print!(" {:>12.0}", v[idx]);
                    decile_rows[t].push(v[idx]);
                }
            }
            println!();
        }
        data_sizes.push(Json::obj(vec![
            ("cores", Json::from(cores)),
            ("benchmarks", Json::from(n)),
            (
                "stall_rms_deciles",
                Json::Obj(
                    techniques
                        .iter()
                        .zip(&decile_rows)
                        .map(|(t, row)| {
                            (
                                t.name().to_string(),
                                Json::Arr(row.iter().map(|&x| Json::from(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    println!(
        "\nPaper reference (Fig. 4): GDP and GDP-O curves sit below ITCA/PTCA/ASM \
         across the distribution for every CMP size."
    );

    let data = Json::obj(vec![("cmp_sizes", Json::Arr(data_sizes))]);
    args.finish_campaign(&mut campaign, &progress, &traces);
    args.write_json(&campaign, job_count, data);
}
