//! Flight-recorder trace dumper and developer probes.
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
//!            [--out-dir DIR] [--smoke] [--probe removal|detector|kernel]
//! ```
//!
//! `--smoke` is the CI gate (< 5 s): a tiny traced run whose exporter
//! outputs are validated (JSON parses, the pipeview has lifecycle rows)
//! before being written. `--probe` runs one of the developer diagnostics
//! that used to live in the `diag`, `diag2`, and `diag3` binaries:
//!
//! - `removal`: per-benchmark front-end and removal behaviour
//!   (`--rstats`, `--misps`, `--seg` add detail; `SLIP_DIAG_ONLY` limits
//!   the benchmark set).
//! - `detector`: feed a benchmark's functional trace to the IR-detector
//!   and summarize per-start-PC trace/vec stability.
//! - `kernel`: isolated detector run over the m88ksim kernel with fixed
//!   segmentation, printing each evicted trace's vec and reasons.

use std::collections::HashMap;
use std::path::PathBuf;

use slipstream_bench::{chrome_trace_json, json, metrics_json, pipeview_text, MAX_CYCLES};
use slipstream_core::{
    FlightRecording, IrDetector, RemovalPolicy, SlipstreamConfig, SlipstreamProcessor, TraceConfig,
};
use slipstream_isa::{assemble, ArchState};
use slipstream_predict::TraceBuilder;
use slipstream_workloads::{benchmark, BENCHMARK_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut bench = "m88ksim".to_string();
    let mut scale = if smoke { 0.05 } else { 0.2 };
    let mut ring = 65_536usize;
    let mut metrics_interval = if smoke { 1_000 } else { 10_000u64 };
    let mut out_dir = PathBuf::from(if smoke { "trace_smoke" } else { "." });
    let mut probe: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" | "--rstats" | "--misps" | "--seg" => i += 1,
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
            "--probe" => {
                probe = Some(value(i).clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    if let Some(p) = probe {
        match p.as_str() {
            "removal" => probe_removal(scale, &args),
            "detector" => probe_detector(&bench),
            "kernel" => probe_kernel(),
            other => panic!("unknown probe {other} (expected removal|detector|kernel)"),
        }
        return;
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

// ---- probes (formerly the diag, diag2, diag3 binaries) --------------------

/// Per-benchmark front-end and removal behaviour.
fn probe_removal(scale: f64, args: &[String]) {
    let only: Option<String> = std::env::var("SLIP_DIAG_ONLY").ok();
    for name in BENCHMARK_NAMES {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let w = benchmark(name, scale).unwrap();
        let mut p = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
        assert!(p.run(MAX_CYCLES), "{name} did not finish");
        let s = p.stats();
        let fe = s.front_end;
        println!(
            "{name:<9} removal={:>5.1}%  traces: pred={} fb={} correct={} committed={} reduced={}  \
             a_bm/1k={:.1} irm={} hints={}",
            100.0 * s.removal_fraction,
            fe.traces_predicted,
            fe.traces_fallback,
            fe.traces_correct,
            fe.traces_committed,
            fe.traces_reduced,
            s.branch_misp_per_kilo,
            s.ir_mispredictions,
            s.value_hints,
        );
        if args.iter().any(|a| a == "--rstats") {
            let r = s.r_core;
            let a = s.a_core;
            println!(
                "    R: cycles={} retired={} ipc={:.2} fetch_stall={} rob_full={} dmiss={} bm={}",
                r.cycles,
                r.retired,
                r.ipc(),
                r.fetch_stall_cycles(),
                r.rob_full_cycles,
                r.dcache_misses,
                r.branch_mispredicts
            );
            println!(
                "    A: cycles={} retired={} ipc={:.2} fetch_stall={} rob_full={} bm={}",
                a.cycles,
                a.retired,
                a.ipc(),
                a.fetch_stall_cycles(),
                a.rob_full_cycles,
                a.branch_mispredicts
            );
        }
        if args.iter().any(|a| a == "--misps") {
            for (kind, cycle) in p.misp_log().iter().take(20) {
                println!("    misp @{cycle}: {kind:?}");
            }
        }
        if args.iter().any(|a| a == "--seg") {
            let mut by_reason: Vec<String> = s
                .skipped_by_reason
                .iter()
                .map(|(r, n)| format!("{r}: {n}"))
                .collect();
            by_reason.sort();
            println!("    skipped by reason: {}", by_reason.join(" | "));
            let mut rows: Vec<_> = p.commit_histogram().iter().collect();
            rows.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
            for ((pc, len), n) in rows.iter().take(8) {
                println!("    trace ({pc:#x}, len {len}) x{n}");
            }
        }
    }
}

/// Feed a benchmark's functional trace to the IR-detector and summarize
/// per-start-PC trace/vec stability.
fn probe_detector(name: &str) {
    let w = benchmark(name, 0.1).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut st = ArchState::new(&w.program);
    let trace = st.run(&w.program, 50_000_000).unwrap();
    let mut det = IrDetector::new(RemovalPolicy::all(), 8);
    let mut tb = TraceBuilder::new();
    // (start_pc) -> map of (id-hash, vec) -> count
    let mut stats: HashMap<u64, HashMap<(u64, u32), u64>> = HashMap::new();
    let mut removable = 0u64;
    let mut total = 0u64;
    for rec in &trace {
        let ended = tb.push(rec.pc, &rec.instr, rec.taken).is_some();
        det.push(rec, ended);
        for out in det.drain() {
            total += out.id.len as u64;
            removable += out.info.ir_vec.count_ones() as u64;
            *stats
                .entry(out.id.start_pc)
                .or_default()
                .entry((out.id.hash64(), out.info.ir_vec))
                .or_insert(0) += 1;
        }
    }
    println!(
        "{name}: detector says {:.1}% removable ({} of {})",
        100.0 * removable as f64 / total as f64,
        removable,
        total
    );
    let mut rows: Vec<_> = stats.iter().collect();
    rows.sort_by_key(|(pc, _)| **pc);
    for (pc, variants) in rows {
        let total: u64 = variants.values().sum();
        let mut vs: Vec<_> = variants.iter().collect();
        vs.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
        let top: Vec<String> = vs
            .iter()
            .take(3)
            .map(|((_, vec), n)| format!("vec={vec:08x} x{n}"))
            .collect();
        println!(
            "  start {pc:#x}: {} occurrences, {} variants; top: {}",
            total,
            variants.len(),
            top.join(", ")
        );
    }
}

/// Isolated detector run over the m88ksim kernel with fixed segmentation,
/// printing each evicted trace's vec and reasons.
fn probe_kernel() {
    let src = r#"
        li r1, 40
        li r3, 0xa0000
        li r24, 42
        li r25, 1
        st r24, 0(r3)
        st r25, 8(r3)
        st r24, 16(r3)
        st r25, 24(r3)
    step:
        li r10, 42
        st r10, 0(r3)
        li r11, 1
        st r11, 8(r3)
        li r12, 42
        st r12, 16(r3)
        li r13, 1
        st r13, 24(r3)
        ld r14, 32(r3)
        addi r14, r14, 1
        st r14, 32(r3)
        andi r17, r14, 7
        slli r17, r17, 3
        add r18, r3, r17
        xor r19, r14, r24
        st r19, 64(r18)
        add r20, r20, r19
        andi r15, r14, 511
        bne r15, r0, no_event
        addi r16, r16, 1
    no_event:
        addi r1, r1, -1
        bne r1, r0, step
        halt
    "#;
    let p = assemble(src).unwrap();
    let mut st = ArchState::new(&p);
    let trace = st.run(&p, 1_000_000).unwrap();
    let mut det = IrDetector::new(RemovalPolicy::all(), 8);
    // Mimic the real system's segmentation: end traces at the event bne
    // (taken) and at the loop bne.
    for rec in &trace {
        let ends = rec.taken == Some(true) || rec.is_halt();
        det.push(rec, ends);
        for out in det.drain() {
            if out.id.start_pc == 0x1020 {
                let mut bits = Vec::new();
                for i in 0..out.id.len as usize {
                    if out.info.removes(i) {
                        bits.push(format!("{}:{}", i, out.info.reasons[i]));
                    }
                }
                println!(
                    "trace@{:#x} len {} vec {:08x} [{}]",
                    out.id.start_pc,
                    out.id.len,
                    out.info.ir_vec,
                    bits.join(" ")
                );
            }
        }
    }
}
