//! End-to-end tests of the flight recorder and its exporters: determinism
//! across worker counts, JSON validity, and divergence naming.

use slipstream_bench::{
    chrome_trace_json, first_divergence, json, live_count, metrics_json, pipeview_text,
    trace_slipstream_run, violation_trace_text, FuzzViolation,
};
use slipstream_core::{
    golden_state, run_fault_experiment_traced, EventKind, FaultOutcome, FaultReport, FaultTarget,
    FlightRecording, SlipstreamConfig, SlipstreamProcessor, StreamId, TraceConfig, TraceEvent,
    NO_SEQ,
};
use slipstream_cpu::FaultSpec;
use slipstream_isa::{assemble, Program};
use slipstream_workloads::{random_program_with_shape, RandProgConfig};

const BUDGET: u64 = 1_000_000;

fn kernel_program() -> Program {
    assemble(
        r#"
        li r1, 40
        li r3, 0xa0000
        li r24, 42
    step:
        li r10, 42
        st r10, 0(r3)
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
    "#,
    )
    .unwrap()
}

/// Finds a detected+recovered A-stream fault in the kernel program and
/// returns the traced run's report and recording.
fn traced_detection(trace: TraceConfig) -> (FaultReport, FlightRecording) {
    let program = kernel_program();
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let golden = golden_state(&program, BUDGET);
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &program);
    assert!(clean.run(BUDGET), "fault-free run completes");
    let baseline = clean.misp_log().to_vec();
    let dynamic = clean.stats().r_retired;
    for seq in dynamic / 4..dynamic.saturating_sub(10) {
        let fault = FaultSpec { seq, bit: 2 };
        let (report, recording) = run_fault_experiment_traced(
            cfg.clone(),
            &program,
            FaultTarget::AStream,
            fault,
            BUDGET,
            &golden,
            &baseline,
            Some(trace),
        );
        if report.outcome == FaultOutcome::DetectedRecovered {
            return (report, recording.expect("tracing enabled"));
        }
    }
    panic!("no detected+recovered A-stream fault found in the kernel program");
}

#[test]
fn traced_exports_are_deterministic_and_worker_count_independent() {
    let trace = TraceConfig::flight(8_192).with_metrics(200);
    let export = || {
        let (_, rec) = traced_detection(trace);
        (
            chrome_trace_json(&rec),
            pipeview_text(&rec),
            metrics_json(&rec.samples),
        )
    };
    let serial = export();
    assert!(!serial.0.is_empty() && !serial.1.is_empty());
    // The same traced experiment computed concurrently on 4 workers must
    // produce byte-identical artifacts — events carry simulated cycles
    // only, so thread scheduling cannot leak into the output.
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(export)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in outputs {
        assert_eq!(got.0, serial.0, "chrome trace must be byte-identical");
        assert_eq!(got.1, serial.1, "pipeview must be byte-identical");
        assert_eq!(got.2, serial.2, "time-series must be byte-identical");
    }
}

#[test]
fn metrics_cpi_series_sums_per_interval_and_is_worker_count_independent() {
    let program = kernel_program();
    let trace = TraceConfig::flight(4_096).with_metrics(100);
    let export = || {
        let (halted, rec) =
            trace_slipstream_run(SlipstreamConfig::cmp_2x64x4(), &program, BUDGET, trace)
                .expect("clean program must not panic");
        assert!(halted);
        assert!(
            !rec.samples.is_empty(),
            "interval sampling produced samples"
        );
        // The interval deltas inherit the sums-to-total invariant: each
        // core's per-interval stack equals its interval cycle count.
        for s in &rec.samples {
            assert_eq!(
                s.a.cpi.total(),
                s.a.cycles,
                "A-stream interval stack must sum to interval cycles"
            );
            assert_eq!(
                s.r.cpi.total(),
                s.r.cycles,
                "R-stream interval stack must sum to interval cycles"
            );
        }
        metrics_json(&rec.samples)
    };
    let serial = export();
    assert!(
        serial.contains("\"cpi\": ["),
        "metrics carry the CPI series"
    );
    assert!(
        serial.contains("\"delay_empty\""),
        "stacked rows name the accounting categories"
    );
    json::parse(&serial).expect("metrics export must be valid JSON");
    // Same run on 4 concurrent workers: the CPI time-series is a pure
    // function of simulated cycles, so it must be byte-identical.
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(export)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in outputs {
        assert_eq!(
            got, serial,
            "CPI time-series must be byte-identical across worker counts"
        );
    }
}

#[test]
fn chrome_trace_of_a_tiny_program_round_trips_as_valid_json() {
    let program = kernel_program();
    let (halted, rec) = trace_slipstream_run(
        SlipstreamConfig::cmp_2x64x4(),
        &program,
        BUDGET,
        TraceConfig::flight(4_096).with_metrics(100),
    )
    .expect("clean program must not panic");
    assert!(halted);
    let chrome = chrome_trace_json(&rec);
    json::parse(&chrome).expect("chrome trace export must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(
        chrome.contains("\"ph\": \"X\""),
        "lifecycle slices must be present"
    );
    assert!(
        chrome.contains("\"ph\": \"C\""),
        "counter samples must be present"
    );
    let metrics = metrics_json(&rec.samples);
    json::parse(&metrics).expect("metrics export must be valid JSON");
    assert!(
        !rec.samples.is_empty(),
        "interval sampling produced samples"
    );
}

#[test]
fn traced_fault_run_synthesizes_the_detection_event() {
    let (report, rec) = traced_detection(TraceConfig::flight(8_192));
    let det: Vec<&TraceEvent> = rec
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FaultDetected)
        .collect();
    assert_eq!(det.len(), 1, "exactly one attributed detection");
    let fired = report.fired_cycle.expect("fault fired");
    assert_eq!(
        det[0].cycle,
        fired + report.detection_latency.expect("detected"),
        "detection event sits at fire cycle + latency"
    );
    assert_eq!(det[0].arg, report.detection_latency.unwrap());
    assert!(
        rec.events.iter().any(|e| e.kind == EventKind::FaultFired),
        "the fire itself is in the window"
    );
    let text = pipeview_text(&rec);
    assert!(text.contains("fault-detected"), "pipeview names the event");
}

#[test]
fn first_divergence_names_kind_cycle_and_seq() {
    let retire = |cycle, seq, pc| TraceEvent {
        cycle,
        seq,
        pc,
        arg: 0,
        stream: StreamId::RStream,
        kind: EventKind::Retire,
    };
    let mut rec = FlightRecording {
        events: vec![retire(10, 0, 0x1000), retire(12, 1, 0x1008)],
        ..Default::default()
    };
    let d = first_divergence(&rec, &[0x1000, 0x1004]).expect("diverges");
    assert_eq!((d.kind, d.cycle, d.seq), ("retire", 12, 1));
    assert!(d.detail.contains("0x1008") && d.detail.contains("0x1004"));

    // Matching retire streams: no divergence to name.
    assert!(first_divergence(&rec, &[0x1000, 0x1008]).is_none());

    // A ring that dropped events cannot align retires with the oracle;
    // the first IR-misprediction detection is named instead.
    rec.dropped = 5;
    rec.events.push(TraceEvent {
        cycle: 40,
        seq: NO_SEQ,
        pc: 0x2000,
        arg: 1,
        stream: StreamId::Machine,
        kind: EventKind::IrMispredict,
    });
    let d = first_divergence(&rec, &[0x1000, 0x1004]).expect("falls back");
    assert_eq!((d.kind, d.cycle), ("ir-mispredict", 40));
    assert!(d.detail.contains("control-divergence"));
}

#[test]
fn violation_trace_text_reports_the_replay() {
    // A clean random program stands in for a violation's minimized
    // reproducer: its slipstream replay matches the oracle, so the trace
    // header reports no divergence but still carries the full pipeview.
    let (program, _) = random_program_with_shape(11, RandProgConfig::default());
    let v = FuzzViolation {
        seed: 11,
        invariant: "core-oracle",
        detail: "synthetic".into(),
        original_instrs: live_count(&program),
        minimized: program.clone(),
        minimized_live: live_count(&program),
        shrink_evals: 0,
    };
    let text = violation_trace_text(&v);
    assert!(text.starts_with("; flight-recorder trace for reproducer"));
    assert!(text.contains("; invariant: core-oracle"));
    assert!(
        text.contains("no divergent event") || text.contains("first divergent event:"),
        "header names the divergence outcome"
    );
    assert!(text.contains("# slipstream pipeview"));
}
