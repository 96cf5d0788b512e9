//! Figure-drift gate: the committed `BENCH_fig6/7/8.json` and
//! `BENCH_paper_tables.json` anchors at the repo root must match what the
//! current simulator regenerates at the canonical scale. Any change that
//! shifts simulated timing — intentionally or not — fails here until the
//! anchors are re-committed (`cargo run --release -p slipstream-bench
//! --bin paper_tables`), so the paper's figures can never silently drift
//! from the code that claims to reproduce them. A second check holds the
//! EXPERIMENTS.md tables to the same committed anchors (and its §4 fuzz
//! counts to `BENCH_fuzz.json` and the checked-in corpus), and a third
//! holds every documented `--bin` to a binary that exists and every
//! documented `--flag` to an option some binary parses.

use std::fs;
use std::path::{Path, PathBuf};

use slipstream_bench::json::{self, Value};
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
    for (name, regenerated) in docs {
        let path = repo_root().join(name);
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

/// The repository root.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
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

/// Whether a doc cell shows `value` to the precision it prints. The cell
/// may be a percentage (`+4.1 %`, `**+4.3 %**`), a count with thousands
/// separators (`352,558`), or a `paper / measured` pair, of which the
/// measured side is checked; `—` stands for zero.
fn cell_shows(cell: &str, value: f64) -> bool {
    let shown = cell
        .rsplit('/')
        .next()
        .unwrap_or(cell)
        .trim_matches(|c: char| c == '*' || c == '%' || c.is_whitespace())
        .replace(',', "");
    if shown == "—" {
        return value == 0.0;
    }
    let number: f64 = shown
        .parse()
        .unwrap_or_else(|e| panic!("`{cell}` is not a number: {e}"));
    let decimals = shown.split_once('.').map_or(0, |(_, frac)| frac.len());
    (number - value).abs() <= 0.5 * 10f64.powi(-(decimals as i32)) + 1e-9
}

/// Checks that every benchmark row (and the average row, when the
/// artifact has one) of the doc table under `heading` shows the committed
/// artifact's values to the precision the doc prints. `columns` pairs a
/// table column index with the artifact row field it shows.
fn assert_doc_table_matches(doc: &str, heading: &str, artifact: &str, columns: &[(usize, &str)]) {
    let text = fs::read_to_string(repo_root().join(artifact)).expect("committed artifact exists");
    let committed = json::parse(&text).unwrap_or_else(|e| panic!("{artifact}: {e}"));
    let rows = committed
        .get("rows")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{artifact} has no rows"));
    let table = doc_table(doc, heading);
    for row in rows {
        let bench = row
            .get("bench")
            .and_then(Value::as_str)
            .expect("artifact row names its benchmark");
        let line = table
            .iter()
            .find(|r| r[0] == bench)
            .unwrap_or_else(|| panic!("{heading}: no EXPERIMENTS.md row for {bench}"));
        for &(col, key) in columns {
            let value = row
                .get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{artifact}: {bench} has no {key}"));
            assert!(
                cell_shows(line[col], value),
                "{heading}: EXPERIMENTS.md shows {bench} {key} as `{}`, {artifact} \
                 says {value}",
                line[col]
            );
        }
    }
    assert_eq!(rows.len(), 8, "{artifact}: expected all eight benchmarks");
    if let Some(avg) = committed
        .get("average_improvement_pct")
        .and_then(Value::as_f64)
    {
        let line = table
            .iter()
            .find(|r| r[0] == "**average**")
            .unwrap_or_else(|| panic!("{heading}: no average row"));
        assert!(
            cell_shows(line[2], avg),
            "{heading}: EXPERIMENTS.md shows the average as `{}`, {artifact} says {avg}",
            line[2]
        );
    }
}

#[test]
fn experiments_doc_figure_tables_match_committed_artifacts() {
    let doc =
        fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md exists");
    assert_doc_table_matches(
        &doc,
        "## Table 1",
        "BENCH_paper_tables.json",
        &[(2, "dynamic_instructions")],
    );
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
    assert_doc_table_matches(
        &doc,
        "## Table 3",
        "BENCH_paper_tables.json",
        &[
            (1, "ss64_ipc"),
            (2, "ss64_branch_misp_per_kilo"),
            (3, "ir_misp_per_kilo"),
            (4, "avg_ir_penalty_cycles"),
        ],
    );
}

/// Spelled-out counts, as the docs write small numbers.
const NUMBER_WORDS: [&str; 13] = [
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
    "eleven", "twelve",
];

#[test]
fn experiments_doc_fuzz_section_matches_committed_artifact_and_corpus() {
    let doc =
        fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md exists");
    let heading = "## §4";
    let at = doc.find(heading).expect("EXPERIMENTS.md has a §4 section");
    let section = &doc[at..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |e| e + 1)];

    let text = fs::read_to_string(repo_root().join("BENCH_fuzz.json")).expect("BENCH_fuzz.json");
    let committed = json::parse(&text).unwrap_or_else(|e| panic!("BENCH_fuzz.json: {e}"));
    let rows = committed.get("rows").expect("BENCH_fuzz.json has rows");
    let invariants = rows
        .get("invariants")
        .and_then(Value::as_arr)
        .expect("rows list the invariants");
    let names: Vec<&str> = invariants
        .iter()
        .map(|inv| inv.get("name").and_then(Value::as_str).expect("named"))
        .collect();
    let checks: u64 = invariants
        .iter()
        .map(|inv| inv.get("checked").and_then(Value::as_u64).expect("counted"))
        .sum();
    let seeds = rows
        .get("seeds")
        .and_then(Value::as_u64)
        .expect("seed count");
    let mut corpus: Vec<String> = fs::read_dir(repo_root().join("crates/bench/corpus"))
        .expect("corpus directory")
        .map(|e| {
            e.expect("corpus entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".ssir"))
        .collect();
    corpus.sort();

    // Every count the prose states, however its line breaks fall.
    let words: Vec<&str> = section.split_whitespace().collect();
    let count = |word: &str| NUMBER_WORDS.iter().position(|&w| w == word);
    let number = |word: &str| word.trim_start_matches('(').replace(',', "").parse::<u64>();
    let (mut stated_invariants, mut stated_checks, mut stated_seeds, mut stated_corpus) =
        (0, 0, 0, 0);
    for w in words.windows(3) {
        if let (Some(n), true) = (count(w[0]), w[1].starts_with("invariants")) {
            assert_eq!(
                n,
                names.len(),
                "{heading} says `{} {}`, BENCH_fuzz.json lists {} invariants",
                w[0],
                w[1],
                names.len()
            );
            stated_invariants += 1;
        }
        if let (Ok(n), "checks") = (number(w[0]), w[1]) {
            assert_eq!(
                n, checks,
                "{heading} says {} checks, BENCH_fuzz.json has {checks}",
                w[0]
            );
            stated_checks += 1;
        }
        if let (Ok(n), "`random_program`", "seeds") = (number(w[0]), w[1], w[2]) {
            assert_eq!(
                n, seeds,
                "{heading} says {} seeds, BENCH_fuzz.json has {seeds}",
                w[0]
            );
            stated_seeds += 1;
        }
        if let (Some(n), "seed", "entries") = (count(w[0]), w[1], w[2]) {
            assert_eq!(
                n,
                corpus.len(),
                "{heading} says the corpus holds {} entries, crates/bench/corpus has {:?}",
                w[0],
                corpus
            );
            stated_corpus += 1;
        }
    }
    assert!(stated_invariants > 0, "{heading} states no invariant count");
    assert!(stated_checks > 0, "{heading} states no checks total");
    assert!(stated_seeds > 0, "{heading} states no seed count");
    assert!(stated_corpus > 0, "{heading} states no corpus size");
    for name in &corpus {
        assert!(
            section.contains(&format!("`{name}`")),
            "{heading} does not name the corpus entry {name}"
        );
    }
    let table: Vec<&str> = doc_table(&doc, heading)
        .iter()
        .map(|row| row[0].trim_matches('`'))
        .collect();
    assert_eq!(
        table, names,
        "{heading}: the invariant table must list BENCH_fuzz.json's invariants in order"
    );
}

#[test]
fn documented_bench_binaries_exist() {
    let bins = repo_root().join("crates/bench/src/bin");
    let mut checked = 0;
    for file in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "scripts/check.sh",
    ] {
        let text = fs::read_to_string(repo_root().join(file)).expect("doc exists");
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            if pair[0].trim_matches('`') != "--bin" {
                continue;
            }
            let name = pair[1].trim_matches(|c: char| !(c.is_alphanumeric() || c == '_'));
            assert!(
                bins.join(format!("{name}.rs")).is_file(),
                "{file} runs `--bin {name}`, but crates/bench/src/bin/{name}.rs does not exist"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no `--bin` references found");

    // Every `--flag` the docs mention must be parsed somewhere: as a string
    // literal in a bench binary or the benchmark driver, or be one of the
    // flags the docs pass to cargo itself.
    const CARGO_FLAGS: [&str; 4] = ["--release", "--bin", "--example", "--workspace"];
    let mut sources = fs::read_to_string(repo_root().join("perfbench/src/main.rs"))
        .expect("benchmark driver exists");
    for entry in fs::read_dir(&bins).expect("bin directory") {
        sources += &fs::read_to_string(entry.expect("bin entry").path()).expect("bin source");
    }
    let mut flags = 0;
    for file in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(repo_root().join(file)).expect("doc exists");
        for token in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            let flag = token.trim_end_matches('-');
            if !flag.starts_with("--") || !flag[2..].starts_with(|c: char| c.is_ascii_lowercase()) {
                continue;
            }
            assert!(
                CARGO_FLAGS.contains(&flag) || sources.contains(&format!("\"{flag}\"")),
                "{file} mentions `{flag}`, but no bench binary parses it"
            );
            flags += 1;
        }
    }
    assert!(flags > 0, "no `--flag` references found");
}
