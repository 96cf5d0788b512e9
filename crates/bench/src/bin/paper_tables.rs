//! Regenerates every table and figure of the paper's evaluation in one
//! run: Table 1, Figures 6, 7 and 8 (both halves), Table 3, and a §3
//! fault-injection spot check. At the canonical scale it also re-writes
//! the committed `BENCH_fig6/7/8.json` and `BENCH_paper_tables.json`
//! anchors (see `tests/figure_drift.rs`).
//!
//! ```text
//! cargo run --release -p slipstream-bench --bin paper_tables [-- --scale 1.0]
//! ```

use slipstream_bench::{
    available_workers, evaluate_suite, fig6_json, fig7_json, fig8_json, paper_tables_json,
    print_campaign_table, print_fig6, print_fig7, print_fig8, print_table1, print_table3,
    run_campaign, write_figure_doc, CampaignConfig, MAX_CYCLES,
};
use slipstream_core::FaultTarget;

fn main() {
    let scale = scale_arg();
    eprintln!("running all models on all benchmarks (scale {scale}) ...");
    let rows = evaluate_suite(scale);
    print_table1(&rows);
    print_fig6(&rows);
    print_fig7(&rows);
    print_fig8(&rows);
    print_table3(&rows);
    if scale == 1.0 {
        // Re-anchor the committed figure documents (only at the canonical
        // scale, so a quick reduced-scale run can't clobber them).
        write_figure_doc("BENCH_fig6.json", &fig6_json(&rows, scale));
        write_figure_doc("BENCH_fig7.json", &fig7_json(&rows, scale));
        write_figure_doc("BENCH_fig8.json", &fig8_json(&rows, scale));
        write_figure_doc("BENCH_paper_tables.json", &paper_tables_json(&rows, scale));
    }

    eprintln!("running fault-injection campaigns ...");
    println!("Section 3 / Figure 5: transient-fault scenarios (m88ksim analogue).");
    println!("(rates over activated faults; full sweep: the `fault_campaign` binary)");
    for (target, seed) in [(FaultTarget::AStream, 7), (FaultTarget::RStream, 8)] {
        let cfg = CampaignConfig {
            scale: (scale * 0.25).max(0.02),
            sites_per_target: 24,
            workers: available_workers(),
            seed,
            max_cycles: MAX_CYCLES,
        };
        print_campaign_table(&run_campaign(&cfg, &["m88ksim"], &[target]));
    }
}

fn scale_arg() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}
