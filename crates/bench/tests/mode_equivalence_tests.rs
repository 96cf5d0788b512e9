//! Scheduler-equivalence tests at the bench layer: the flight recorder's
//! five-sink merge, the trace exporters, the checked-in fuzz corpus, and a
//! traced fault experiment must all be byte-identical whether the
//! processor runs serial or slack-windowed. Every event carries simulated
//! cycles — never wall-clock — so decoupled execution cannot leak into any
//! artifact.

use std::path::Path;

use slipstream_bench::{chrome_trace_json, metrics_json, pipeview_text};
use slipstream_core::{
    EventKind, ExecMode, FlightRecording, SlipstreamConfig, SlipstreamProcessor, TraceConfig,
};
use slipstream_cpu::FaultSpec;
use slipstream_isa::{assemble, Program};
use slipstream_workloads::benchmark;

const BUDGET: u64 = 1_000_000;

fn traced_run(
    program: &Program,
    mode: ExecMode,
    fault: Option<FaultSpec>,
) -> (bool, FlightRecording) {
    let mut p = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), program);
    p.enable_tracing(TraceConfig::flight(8_192).with_metrics(200));
    if let Some(f) = fault {
        p.arm_fault_a(f);
    }
    let halted = p.run_mode(mode, BUDGET);
    (halted, p.flight_recording().expect("tracing enabled"))
}

fn assert_recordings_identical(
    name: &str,
    mode: ExecMode,
    a: &FlightRecording,
    b: &FlightRecording,
) {
    assert_eq!(
        a.events, b.events,
        "{name}: {mode:?} five-sink event merge diverged from serial"
    );
    assert_eq!(
        a.samples, b.samples,
        "{name}: {mode:?} interval time-series diverged from serial"
    );
    assert_eq!(
        a.dropped, b.dropped,
        "{name}: {mode:?} drop counts diverged"
    );
    // And the rendered artifacts, end to end.
    assert_eq!(chrome_trace_json(a), chrome_trace_json(b));
    assert_eq!(pipeview_text(a), pipeview_text(b));
    assert_eq!(metrics_json(&a.samples), metrics_json(&b.samples));
}

#[test]
fn five_sink_merge_is_byte_identical_across_schedulers() {
    // vortex at this scale commits traces, removes instructions, and
    // recovers from IR-mispredictions — all five sinks see traffic.
    let w = benchmark("vortex", 0.2).unwrap();
    let (halted, reference) = traced_run(&w.program, ExecMode::Serial, None);
    assert!(halted);
    assert!(!reference.events.is_empty() && !reference.samples.is_empty());
    let mode = ExecMode::Windowed;
    let (halted, got) = traced_run(&w.program, mode, None);
    assert!(halted);
    assert_recordings_identical("vortex", mode, &reference, &got);
}

#[test]
fn shared_l2_recording_is_byte_identical_across_schedulers() {
    // With the shared L2 and bandwidth-limited memory port modeled, the
    // recorded artifacts — including the new l2-miss/port-stall events —
    // must still not depend on the scheduler, even though the two cores'
    // outer-level traffic is interleaved differently by each one.
    let w = benchmark("vortex", 0.2).unwrap();
    let run = |mode: ExecMode| {
        let mut p = SlipstreamProcessor::new(SlipstreamConfig::cmp_shared_l2(), &w.program);
        // A large ring: L2 misses are concentrated in the cold start, and
        // the default flight window would have evicted them by halt.
        p.enable_tracing(TraceConfig::flight(1 << 20).with_metrics(200));
        let halted = p.run_mode(mode, BUDGET);
        (halted, p.flight_recording().expect("tracing enabled"))
    };
    let (halted, reference) = run(ExecMode::Serial);
    assert!(halted);
    assert!(
        reference.events.iter().any(|e| e.kind == EventKind::L2Miss),
        "cold L1 misses must surface as L2 misses in the recording"
    );
    let mode = ExecMode::Windowed;
    let (halted, got) = run(mode);
    assert!(halted);
    assert_recordings_identical("vortex+l2", mode, &reference, &got);
}

#[test]
fn traced_fault_detection_is_byte_identical_across_schedulers() {
    // An injected A-stream fault perturbs the reduced stream mid-window;
    // the recorded detection (cycle, recovery events, counter deltas) must
    // not depend on the scheduler.
    let w = benchmark("m88ksim", 0.2).unwrap();
    let fault = Some(FaultSpec { seq: 9_000, bit: 5 });
    let (halted, reference) = traced_run(&w.program, ExecMode::Serial, fault);
    assert!(halted);
    let mode = ExecMode::Windowed;
    let (halted, got) = traced_run(&w.program, mode, fault);
    assert!(halted);
    assert_recordings_identical("m88ksim+fault", mode, &reference, &got);
}

#[test]
fn checked_in_fuzz_corpus_replays_identically_across_schedulers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ssir") {
            continue;
        }
        seen += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let program = assemble(&src)
            .unwrap_or_else(|e| panic!("corpus entry {} must assemble: {e}", path.display()));
        let run = |mode: ExecMode| {
            let mut p = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
            p.enable_online_check();
            p.set_strict(true);
            let halted = p.run_mode(mode, BUDGET);
            let stats = p.stats();
            let log = p.misp_log().to_vec();
            let regs = *p.r_core().arch_regs();
            (halted, stats, log, regs)
        };
        let reference = run(ExecMode::Serial);
        assert!(reference.0, "{}: corpus entry must halt", path.display());
        let mode = ExecMode::Windowed;
        assert_eq!(
            run(mode),
            reference,
            "{}: {mode:?} diverged from serial",
            path.display()
        );
    }
    assert!(seen >= 3, "expected the seed corpus entries, found {seen}");
}
