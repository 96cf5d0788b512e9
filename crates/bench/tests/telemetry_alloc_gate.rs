//! Telemetry must be zero-cost when off: with no registry enabled, the
//! instrumented schedulers must hold the same near-zero marginal
//! allocation rate the zero-copy retire path had before instrumentation.
//! This is the same two-point marginal measurement `throughput --smoke`
//! gates against the committed ceiling, run here against an absolute
//! bound so `cargo test` catches a regression without the bench artifact.
//!
//! Allocations are counted per thread: the test harness runs this file's
//! tests concurrently, and each must measure only its own runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use slipstream_bench::{committed_throughput, MAX_CYCLES};
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor};
use slipstream_workloads::suite;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, which the allocator below depends on.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls made so far by the calling thread.
fn thread_calls() -> u64 {
    CALLS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: defers every allocation to `System`, which upholds the
// GlobalAlloc contract; the counter update neither allocates nor touches
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Matches `throughput`'s ALLOC_GATE_SLACK: the absolute allocs-per-10k
/// noise allowance on top of the committed ceiling.
const SLACK_PER_10K: f64 = 5.0;

/// The committed `alloc_per_10k_retired` ceiling from
/// `BENCH_throughput.json` — the same number `throughput --smoke` gates
/// against, so this test and the bench gate measure one contract.
fn committed_ceiling() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let doc = std::fs::read_to_string(path).expect("committed throughput artifact exists");
    committed_throughput(&doc)
        .unwrap_or_else(|e| panic!("BENCH_throughput.json: {e}"))
        .alloc_ceiling
}

/// One gate probe: the slack-window scheduler on m88ksim at `scale`, with
/// telemetry in the given state, returning (alloc calls, instrs retired).
fn gate_run(scale: f64, telemetry: bool) -> (u64, u64) {
    let workloads = suite(scale);
    let w = workloads
        .iter()
        .find(|w| w.name == "m88ksim")
        .unwrap_or(&workloads[0]);
    let before = thread_calls();
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    if telemetry {
        proc.enable_telemetry();
    }
    assert_eq!(proc.telemetry_enabled(), telemetry);
    assert!(proc.run_mode(ExecMode::Windowed, MAX_CYCLES));
    let stats = proc.stats();
    (thread_calls() - before, stats.a_retired + stats.r_retired)
}

/// The marginal slope between a short and a longer run: one-time costs
/// appear in both and cancel.
fn marginal_per_10k(telemetry: bool) -> f64 {
    let (short_allocs, short_instrs) = gate_run(0.05, telemetry);
    let (long_allocs, long_instrs) = gate_run(0.25, telemetry);
    assert!(long_instrs > short_instrs);
    long_allocs.saturating_sub(short_allocs) as f64 * 10_000.0 / (long_instrs - short_instrs) as f64
}

#[test]
fn telemetry_off_holds_the_committed_allocation_ceiling() {
    let rate = marginal_per_10k(false);
    let limit = committed_ceiling() + SLACK_PER_10K;
    assert!(
        rate <= limit,
        "telemetry-off marginal allocation rate {rate:.2}/10k exceeds the \
         committed ceiling + slack ({limit:.2}) — instrumentation leaked \
         onto the off path"
    );
}

#[test]
fn telemetry_on_allocates_nothing_extra_per_instruction() {
    // The on path is allowed its fixed-size registry but nothing
    // per-instruction: spans are recorded per *window*, into fixed
    // arrays, so the marginal slope must match the off path within the
    // same noise slack.
    let off = marginal_per_10k(false);
    let on = marginal_per_10k(true);
    assert!(
        on <= off + SLACK_PER_10K,
        "telemetry-on marginal rate {on:.2}/10k vs off {off:.2}/10k — the \
         registry must be fixed-size, not per-instruction"
    );

    // And the run actually produced telemetry.
    let workloads = suite(0.05);
    let w = workloads
        .iter()
        .find(|w| w.name == "m88ksim")
        .unwrap_or(&workloads[0]);
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    proc.enable_telemetry();
    assert!(proc.run_mode(ExecMode::Windowed, MAX_CYCLES));
    let tel = proc.take_telemetry().expect("telemetry was enabled");
    assert!(
        tel.span(slipstream_core::telemetry::SpanKind::AWindowExec)
            .count
            > 0
    );
}
