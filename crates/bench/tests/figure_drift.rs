//! Figure-drift gate: the committed `BENCH_fig6/7/8.json` and
//! `BENCH_paper_tables.json` anchors at the repo root must match what the
//! current simulator regenerates at the canonical scale. Any change that
//! shifts simulated timing — intentionally or not — fails here until the
//! anchors are re-committed (`cargo run --release -p slipstream-bench
//! --bin paper_tables`), so the paper's figures can never silently drift
//! from the code that claims to reproduce them. A second check holds the
//! EXPERIMENTS.md figure tables to the same committed anchors.

use std::fs;
use std::path::Path;

use slipstream_bench::{
    cpi_stack_json, evaluate_shared_l2_suite, evaluate_suite, fig6_json, fig7_json, fig8_json,
    paper_tables_json,
};

#[test]
fn committed_figure_documents_match_regeneration() {
    let rows = evaluate_suite(1.0);
    let l2_rows = evaluate_shared_l2_suite(1.0);
    let docs = [
        ("BENCH_fig6.json", fig6_json(&rows, 1.0)),
        ("BENCH_fig7.json", fig7_json(&rows, 1.0)),
        ("BENCH_fig8.json", fig8_json(&rows, 1.0)),
        ("BENCH_paper_tables.json", paper_tables_json(&rows, 1.0)),
        ("BENCH_cpi_stack.json", cpi_stack_json(&rows, &l2_rows, 1.0)),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, regenerated) in docs {
        let path = root.join(name);
        let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{name} missing at the repo root ({e}); run the paper_tables binary")
        });
        assert_eq!(
            regenerated, committed,
            "{name} drifted from the committed anchor — if the timing change is \
             intentional, re-commit it via `cargo run --release -p slipstream-bench \
             --bin paper_tables` (plus `--bin cpi_stack` for the CPI document)"
        );
    }
}

/// A numeric field of one row line of a committed `BENCH_*.json` document
/// (the writers emit one row object per line).
fn row_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The first markdown table after `heading` in `doc`, as rows of trimmed
/// cells (the header and separator rows skipped).
fn doc_table<'a>(doc: &'a str, heading: &str) -> Vec<Vec<&'a str>> {
    let at = doc
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{heading}` section"));
    doc[at..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

/// A percentage cell such as `+4.1 %` or `**+4.3 %**`.
fn pct_cell(cell: &str) -> f64 {
    cell.trim_matches('*')
        .trim_end_matches('%')
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("`{cell}` is not a percentage: {e}"))
}

/// Checks that every benchmark row (and the average row) of the doc table
/// under `heading` shows the committed artifact's values, rounded to the
/// one decimal the doc prints. `columns` pairs a table column index with
/// the artifact row field it shows.
fn assert_doc_table_matches(doc: &str, heading: &str, artifact: &str, columns: &[(usize, &str)]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = fs::read_to_string(root.join(artifact)).expect("committed artifact exists");
    let table = doc_table(doc, heading);
    let close = |shown: f64, value: f64| (shown - value).abs() <= 0.05 + 1e-9;
    let mut checked = 0;
    for line in committed.lines() {
        let Some(bench) = line
            .split("\"bench\": \"")
            .nth(1)
            .and_then(|r| r.split('"').next())
        else {
            continue;
        };
        let row = table
            .iter()
            .find(|r| r[0] == bench)
            .unwrap_or_else(|| panic!("{heading}: no EXPERIMENTS.md row for {bench}"));
        for &(col, key) in columns {
            let value = row_field(line, key).expect("artifact row has the field");
            assert!(
                close(pct_cell(row[col]), value),
                "{heading}: EXPERIMENTS.md shows {bench} {key} as `{}`, {artifact} \
                 says {value}",
                row[col]
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 8, "{artifact}: expected all eight benchmarks");
    if let Some(avg) = row_field(&committed, "average_improvement_pct") {
        let row = table
            .iter()
            .find(|r| r[0] == "**average**")
            .unwrap_or_else(|| panic!("{heading}: no average row"));
        assert!(
            close(pct_cell(row[2]), avg),
            "{heading}: EXPERIMENTS.md shows the average as `{}`, {artifact} says {avg}",
            row[2]
        );
    }
}

#[test]
fn experiments_doc_figure_tables_match_committed_artifacts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md exists");
    assert_doc_table_matches(
        &doc,
        "## Figure 6",
        "BENCH_fig6.json",
        &[(2, "improvement_pct"), (3, "removal_pct")],
    );
    assert_doc_table_matches(
        &doc,
        "## Figure 7",
        "BENCH_fig7.json",
        &[(2, "improvement_pct")],
    );
    assert_doc_table_matches(
        &doc,
        "## Figure 8",
        "BENCH_fig8.json",
        &[(2, "all_triggers_pct")],
    );
}
