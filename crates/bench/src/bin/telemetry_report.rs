//! Unified host-telemetry report: merge JSONL telemetry files from any of
//! the harness binaries into one human-readable attribution report, with
//! the simulated CPI stack juxtaposed for contrast.
//!
//! ```text
//! telemetry_report [FILES...] [--cpi PATH] [--smoke] [--gate-summary FILE]
//! ```
//!
//! - `FILES...` are telemetry JSONL files (from `throughput --telemetry`,
//!   `fault_campaign --telemetry`, `differential_fuzz --telemetry`,
//!   `cpi_stack --telemetry`, or `scripts/check.sh`'s gate log). Each file
//!   is one run; the report prints one section per run.
//! - `--cpi PATH` points at a committed `BENCH_cpi_stack.json` (default:
//!   `BENCH_cpi_stack.json` when present) for the simulated-cycle
//!   attribution section.
//! - `--smoke` is the CI gate: runs a small telemetry-enabled windowed
//!   workload in-process, checks the JSONL round-trip is
//!   byte-identical, every line is valid JSON, the Prometheus exposition
//!   validates, and the scheduler span structure attributes the run total
//!   (named exclusive spans present, their sum bounded by `run_total`).
//!   Artifacts land in `telemetry_smoke/`.
//! - `--gate-summary FILE` prints the per-gate wall-time table from the
//!   JSONL span log `scripts/check.sh` appends while running its gates.

use std::process::ExitCode;

use slipstream_bench::{
    committed_throughput, json, parse_jsonl, report_text, to_jsonl, MAX_CYCLES, WINDOWED_SET,
};
use slipstream_core::telemetry::{validate_exposition, RunManifest, Snapshot};
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor};
use slipstream_workloads::benchmark;

/// Where `--smoke` writes its artifacts.
const SMOKE_DIR: &str = "telemetry_smoke";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut cpi: Option<String> = None;
    let mut smoke = false;
    let mut gate_summary: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--cpi" => {
                cpi = Some(value(i).clone());
                i += 2;
            }
            "--gate-summary" => {
                gate_summary = Some(value(i).clone());
                i += 2;
            }
            other if other.starts_with("--") => panic!("unknown argument {other}"),
            file => {
                files.push(file.to_string());
                i += 1;
            }
        }
    }

    if smoke {
        run_smoke(cpi.as_deref());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = gate_summary {
        return print_gate_summary(&path);
    }
    if files.is_empty() {
        eprintln!(
            "usage: telemetry_report [FILES...] [--cpi PATH] [--smoke] [--gate-summary FILE]"
        );
        return ExitCode::FAILURE;
    }

    let mut snaps = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_jsonl(&text) {
            Ok(snap) => snaps.push(snap),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!(
        "{}",
        report_text(&snaps, read_cpi_doc(cpi.as_deref()).as_deref())
    );
    ExitCode::SUCCESS
}

/// Reads the CPI-stack document: the explicit `--cpi` path (hard error if
/// unreadable would be hostile in a reporting tool, so it degrades with a
/// note) or the committed default when it exists.
fn read_cpi_doc(cpi: Option<&str>) -> Option<String> {
    let path = cpi.unwrap_or("BENCH_cpi_stack.json");
    match std::fs::read_to_string(path) {
        Ok(doc) => Some(doc),
        Err(e) => {
            if cpi.is_some() {
                eprintln!("note: {path}: {e} — skipping the simulated-attribution section");
            }
            None
        }
    }
}

/// The per-gate wall-time table from a `scripts/check.sh` span log.
fn print_gate_summary(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snap = match parse_jsonl(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let total: u64 = snap.spans.iter().map(|s| s.total_nanos).sum();
    println!("check.sh gate wall-time summary:");
    for s in &snap.spans {
        println!(
            "  {:<32} {:>9.3} s {:>5.1}%",
            s.name,
            s.total_nanos as f64 / 1e9,
            100.0 * s.total_nanos as f64 / total.max(1) as f64,
        );
    }
    println!("  {:<32} {:>9.3} s", "total", total as f64 / 1e9);
    ExitCode::SUCCESS
}

/// One telemetry-enabled smoke run under the windowed scheduler, returning
/// its validated snapshot.
fn smoke_run(calibration: Option<f64>) -> Snapshot {
    let scheduler = "windowed";
    let w = benchmark("gcc", 0.2).expect("gcc workload exists");
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut proc = SlipstreamProcessor::new(cfg.clone(), &w.program);
    proc.enable_telemetry();
    assert!(
        proc.run_mode(ExecMode::Windowed, MAX_CYCLES),
        "{scheduler}: smoke run did not complete"
    );
    let tel = proc.take_telemetry().expect("telemetry was enabled");
    let manifest = RunManifest::new("telemetry_report", scheduler, &format!("{cfg:?}"))
        .label("bench", "gcc")
        .label("scale", "0.2")
        .calibration(calibration);
    let snap = tel.snapshot(&manifest);

    // Format gates: every JSONL line is valid JSON, the parse inverts the
    // render byte-for-byte, and the Prometheus exposition validates.
    let jsonl = to_jsonl(&snap);
    for line in jsonl.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("{scheduler}: invalid JSONL line: {e}"));
    }
    let parsed = parse_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("{scheduler}: JSONL does not parse back: {e}"));
    assert_eq!(
        to_jsonl(&parsed),
        jsonl,
        "{scheduler}: JSONL round-trip must be byte-identical"
    );
    let prom = snap.prometheus_text();
    validate_exposition(&prom)
        .unwrap_or_else(|e| panic!("{scheduler}: exposition is invalid: {e}"));

    // Attribution gates: run_total recorded, the scheduler's exclusive
    // spans present and bounded by it (their complement is "other", so
    // named + other attributes 100% of the measured wall-clock).
    let span = |name: &str| snap.spans.iter().find(|s| s.name == name);
    let run_total = span("run_total").expect("run_total span").total_nanos;
    let mut named = 0u64;
    for name in WINDOWED_SET {
        named += span(name).map_or(0, |s| s.total_nanos);
    }
    assert!(
        named <= run_total,
        "{scheduler}: exclusive spans ({named} ns) exceed run_total ({run_total} ns)"
    );
    for required in ["a_window_exec", "r_window_consume", "r_boundary_sync"] {
        assert!(
            span(required).is_some_and(|s| s.count > 0),
            "{scheduler}: span {required} missing from a telemetry-on run"
        );
    }

    std::fs::create_dir_all(SMOKE_DIR).expect("create telemetry_smoke/");
    let base = format!("{SMOKE_DIR}/telemetry_{scheduler}");
    std::fs::write(format!("{base}.jsonl"), &jsonl)
        .unwrap_or_else(|e| panic!("write {base}.jsonl: {e}"));
    std::fs::write(format!("{base}.prom"), &prom)
        .unwrap_or_else(|e| panic!("write {base}.prom: {e}"));
    snap
}

/// The `--smoke` gate body.
fn run_smoke(cpi: Option<&str>) {
    // No committed throughput file: the manifest goes out un-anchored.
    let calibration = std::fs::read_to_string("BENCH_throughput.json")
        .ok()
        .map(|doc| {
            committed_throughput(&doc)
                .unwrap_or_else(|e| panic!("committed BENCH_throughput.json: {e}"))
                .calibration
                .instrs_per_sec()
        });
    let snap = smoke_run(calibration);
    let report = report_text(std::slice::from_ref(&snap), read_cpi_doc(cpi).as_deref());
    assert!(
        report.contains("= 100.0% of run_total"),
        "report must attribute the full run total"
    );
    std::fs::write(format!("{SMOKE_DIR}/report.txt"), &report)
        .unwrap_or_else(|e| panic!("write {SMOKE_DIR}/report.txt: {e}"));
    println!(
        "telemetry_report --smoke: windowed run round-tripped, exposition \
         validated, attribution complete — artifacts in {SMOKE_DIR}/"
    );
}
