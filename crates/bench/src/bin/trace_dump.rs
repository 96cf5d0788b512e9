//! Flight-recorder trace dumper.
//!
//! Default mode runs one benchmark on the CMP(2x64x4) slipstream model
//! with tracing enabled and writes three artifacts:
//!
//! - `trace_<bench>.chrome.json` — Chrome Trace Event JSON; open in
//!   `chrome://tracing` or Perfetto.
//! - `trace_<bench>.pipeview.txt` — per-instruction lifecycle dump.
//! - `trace_<bench>.metrics.json` — interval metrics time-series (only
//!   when `--metrics-interval` is nonzero).
//!
//! ```text
//! trace_dump [--bench NAME] [--scale S] [--ring N] [--metrics-interval N]
//!            [--out-dir DIR] [--smoke]
//! ```
//!
//! `--smoke` is the CI gate (< 5 s): a tiny traced run whose exporter
//! outputs are validated (JSON parses, the pipeview has lifecycle rows)
//! before being written.

use std::path::PathBuf;

use slipstream_bench::{chrome_trace_json, json, metrics_json, pipeview_text, MAX_CYCLES};
use slipstream_core::{FlightRecording, SlipstreamConfig, SlipstreamProcessor, TraceConfig};
use slipstream_workloads::{benchmark, BENCHMARK_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut bench = "m88ksim".to_string();
    let mut scale = if smoke { 0.05 } else { 0.2 };
    let mut ring = 65_536usize;
    let mut metrics_interval = if smoke { 1_000 } else { 10_000u64 };
    let mut out_dir = PathBuf::from(if smoke { "trace_smoke" } else { "." });

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" => i += 1,
            "--bench" => {
                bench = value(i).clone();
                i += 2;
            }
            "--scale" => {
                scale = value(i).parse().expect("--scale: number");
                i += 2;
            }
            "--ring" => {
                ring = value(i).parse().expect("--ring: integer");
                i += 2;
            }
            "--metrics-interval" => {
                metrics_interval = value(i).parse().expect("--metrics-interval: integer");
                i += 2;
            }
            "--out-dir" => {
                out_dir = PathBuf::from(value(i));
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    assert!(
        BENCHMARK_NAMES.contains(&bench.as_str()),
        "unknown benchmark {bench} (known: {})",
        BENCHMARK_NAMES.join(", ")
    );
    let rec = run_traced(&bench, scale, ring, metrics_interval);
    let chrome = chrome_trace_json(&rec);
    let pipeview = pipeview_text(&rec);
    let metrics = (metrics_interval != 0).then(|| metrics_json(&rec.samples));

    if smoke {
        smoke_assertions(&rec, &chrome, &pipeview, metrics.as_deref());
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let mut wrote = Vec::new();
    for (suffix, text) in [
        ("chrome.json", Some(chrome)),
        ("pipeview.txt", Some(pipeview)),
        ("metrics.json", metrics),
    ] {
        let Some(text) = text else { continue };
        let path = out_dir.join(format!("trace_{bench}.{suffix}"));
        std::fs::write(&path, text).expect("write trace artifact");
        wrote.push(path);
    }
    println!(
        "traced {bench} (scale {scale}): {} events held, {} dropped, {} samples",
        rec.events.len(),
        rec.dropped,
        rec.samples.len(),
    );
    for p in &wrote {
        eprintln!("wrote {}", p.display());
    }
    if smoke {
        println!("trace smoke OK");
    }
}

fn run_traced(bench: &str, scale: f64, ring: usize, metrics_interval: u64) -> FlightRecording {
    let w = benchmark(bench, scale).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    proc.enable_tracing(TraceConfig::flight(ring).with_metrics(metrics_interval));
    assert!(proc.run(MAX_CYCLES), "{bench} did not complete");
    proc.flight_recording().expect("tracing enabled")
}

/// The CI gate's validity checks: every exporter output must be non-trivial
/// and every JSON artifact must parse.
fn smoke_assertions(rec: &FlightRecording, chrome: &str, pipeview: &str, metrics: Option<&str>) {
    assert!(!rec.events.is_empty(), "traced run must record events");
    assert!(
        !rec.samples.is_empty(),
        "interval sampling must produce samples"
    );
    json::parse(chrome).expect("chrome trace must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""), "chrome trace envelope");
    assert!(
        pipeview
            .lines()
            .any(|l| !l.starts_with('#') && !l.is_empty()),
        "pipeview must contain lifecycle rows"
    );
    let metrics = metrics.expect("smoke runs with metrics enabled");
    json::parse(metrics).expect("metrics time-series must be valid JSON");
}
