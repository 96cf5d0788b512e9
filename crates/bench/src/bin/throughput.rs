//! Simulator throughput harness: how fast does the *simulator itself* run?
//!
//! Runs every suite workload to completion on the SS(64x4) baseline and the
//! CMP(2x64x4) slipstream model under each scheduler, timing each run with
//! `std::time::Instant`, and reports simulated instructions/second and
//! cycles/second (best of `reps` runs, to shed warm-up and scheduler
//! noise). Results go to stdout as a table and to `BENCH_throughput.json`
//! for machine consumption.
//!
//! Models:
//! - `calibration` — a fixed, scale-independent arithmetic loop on the
//!   SS(64x4) core; its speed measures the *host*, not the workload, and
//!   normalizes the `--smoke` gate across machines
//! - `ss64` — single-core SS(64x4) baseline
//! - `slipstream` — CMP(2x64x4), serial lockstep scheduler
//! - `slipstream-window` — CMP(2x64x4), slack-window scheduler (the
//!   library default)
//! - `slipstream-l2` — CMP(2x64x4) with the shared 512 KB L2 and
//!   bandwidth-limited memory port modeled, slack-window scheduler
//!
//! Usage: `throughput [scale] [reps] [--smoke] [--telemetry DIR]`
//!
//! - `scale` stretches the workload suite (default 1.0), `reps` is runs
//!   per measurement (default 3).
//! - `--telemetry DIR` runs one extra telemetry-enabled suite pass per
//!   slipstream model *after* the timed rows (so instrumentation cannot
//!   perturb the measurements) and writes
//!   `DIR/throughput_<model>.telemetry.jsonl` plus Prometheus text
//!   exposition `.prom` per model, anchored to this run's calibration
//!   row. `BENCH_throughput.json` is unaffected.
//! - `--smoke` is the CI regression gate: a quick reduced-scale pass
//!   (scale 0.2, reps 1, all models) that does NOT overwrite
//!   `BENCH_throughput.json`; instead it compares the measured per-model
//!   simulation speed against the committed `model_totals`, after
//!   normalizing by the calibration model's host-speed ratio, and fails
//!   loudly if any shared model has slowed beyond the tolerance. A
//!   committed file without the calibration entry or the allocation
//!   ceiling fails the gate too.
//!
//! The binary also runs an *allocation gate*: the whole process runs
//! under a per-thread counting global allocator, and a pair of fixed-size
//! slack-window runs measures the marginal heap allocations per 10k
//! retired instructions in steady state (the two-point measurement
//! cancels one-time construction cost). The number is written to
//! `BENCH_throughput.json`, and `--smoke` fails if it rises past the
//! committed ceiling — allocation counts are deterministic, so this gate
//! needs no host-speed normalization.

use std::time::Instant;

/// Counting wrapper over the system allocator: every allocation path
/// (fresh, zeroed, and growth via realloc) bumps a counter owned by the
/// calling thread, so the gate's measurement is never inflated by
/// allocations another thread makes at the same time. Deallocation is
/// free-of-charge — the gate cares about allocator pressure on the hot
/// path, which frees alone do not create.
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialised and without a destructor: reading it never
        // allocates, which the allocator below depends on.
        static CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump() {
        // `try_with`: the slot is gone while a thread is being torn down.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }

    pub struct CountingAlloc;

    // SAFETY: defers every allocation to `System`, which upholds the
    // GlobalAlloc contract; the counter update neither allocates nor
    // touches the memory handed out.
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

    /// Allocation calls made so far by the calling thread.
    pub fn calls() -> u64 {
        CALLS.with(Cell::get)
    }
}

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

use slipstream_bench::{committed_throughput, json, to_jsonl, MAX_CYCLES};
use slipstream_core::telemetry::{validate_exposition, RunManifest, Telemetry};
use slipstream_core::{run_superscalar, ExecMode, SlipstreamConfig, SlipstreamProcessor};
use slipstream_cpu::CoreConfig;
use slipstream_isa::assemble;
use slipstream_workloads::{suite, Workload};

/// Allowed slowdown vs the committed baseline before `--smoke` fails.
/// The calibration row cancels most host-speed variance (a slower CI
/// runner slows the calibration loop and the models alike), so the
/// tolerance only has to absorb scheduling jitter — not machine identity.
const SMOKE_TOLERANCE: f64 = 1.5;

/// Host-speed ratios outside this band are treated as suspicious (a
/// broken calibration row, not a slower machine) and clamped so they
/// cannot mask a real regression entirely.
const HOST_RATIO_BAND: (f64, f64) = (0.25, 4.0);

/// The allocation gate's two fixed workload sizes. Both run regardless of
/// the harness `scale` argument, so the committed ceiling and the smoke
/// measurement always describe identical simulations.
const ALLOC_GATE_SCALES: (f64, f64) = (0.05, 0.25);

/// Absolute slack (allocs per 10k retired) added on top of the committed
/// ceiling before `--smoke` fails. The steady-state rate is close to zero
/// by design, so a pure multiplicative tolerance would make the gate
/// hair-trigger on standard-library noise.
const ALLOC_GATE_SLACK: f64 = 5.0;

/// One timed simulation: what ran, how much it simulated, how long it took.
struct Measurement {
    bench: &'static str,
    model: &'static str,
    instructions: u64,
    cycles: u64,
    /// Best-of-reps wall time in seconds.
    seconds: f64,
    /// Shared-L2 traffic (A + R cores); zero for models without an L2.
    l2_hits: u64,
    /// Shared-L2 misses (A + R cores).
    l2_misses: u64,
    /// Cycles L2 misses spent queued on the busy memory port (A + R).
    port_stall_cycles: u64,
}

impl Measurement {
    fn instrs_per_sec(&self) -> f64 {
        self.instructions as f64 / self.seconds
    }

    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.seconds
    }
}

/// Times `f` `reps` times and keeps the fastest run's wall time, trusting
/// `f` to return the same counters every repetition.
fn best_of<F: FnMut() -> (u64, u64, [u64; 3])>(reps: u32, mut f: F) -> (u64, u64, [u64; 3], f64) {
    let mut best = f64::INFINITY;
    let mut counts = (0, 0, [0; 3]);
    for _ in 0..reps {
        let start = Instant::now();
        counts = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (counts.0, counts.1, counts.2, best)
}

/// The models to measure, in output order: name, scheduler (None = the
/// single-core baseline), and whether the shared-L2 memory system is on.
const MODELS: [(&str, Option<ExecMode>, bool); 4] = [
    ("ss64", None, false),
    ("slipstream", Some(ExecMode::Serial), false),
    ("slipstream-window", Some(ExecMode::Windowed), false),
    ("slipstream-l2", Some(ExecMode::Windowed), true),
];

/// The host-speed probe: a fixed arithmetic loop whose simulated work is
/// independent of `scale`, so its instrs/s measures only the machine (and
/// build) running the simulator. `--smoke` divides measured by committed
/// calibration speed to normalize every other model's floor.
fn calibration(reps: u32) -> Measurement {
    let src = "
        li r1, 200000
    loop:
        xor r2, r2, r1
        add r3, r3, r2
        slli r4, r3, 1
        srli r5, r4, 2
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    ";
    let p = assemble(src).expect("calibration loop assembles");
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let (instructions, cycles, _, seconds) = best_of(reps, || {
        let stats = run_superscalar(CoreConfig::ss_64x4(), cfg.trace_pred, &p, MAX_CYCLES);
        assert!(stats.halted, "calibration loop did not complete");
        (stats.core.retired, stats.core.cycles, [0; 3])
    });
    Measurement {
        bench: "calibration",
        model: "calibration",
        instructions,
        cycles,
        seconds,
        l2_hits: 0,
        l2_misses: 0,
        port_stall_cycles: 0,
    }
}

/// One allocation-gate probe: runs the slack-window model on the gate
/// workload at `scale` and returns (allocation calls, retired
/// instructions on both cores).
fn alloc_gate_run(scale: f64) -> (u64, u64) {
    let workloads = suite(scale);
    let w = workloads
        .iter()
        .find(|w| w.name == "m88ksim")
        .unwrap_or(&workloads[0]);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let before = alloc_counter::calls();
    let mut proc = SlipstreamProcessor::new(cfg, &w.program);
    // The committed ceiling describes the telemetry-OFF path; the
    // instrumentation's zero-cost-when-off claim is gated exactly here.
    assert!(
        !proc.telemetry_enabled(),
        "allocation gate must measure the telemetry-off path"
    );
    assert!(
        proc.run_mode(ExecMode::Windowed, MAX_CYCLES),
        "{}: allocation-gate run did not complete",
        w.name
    );
    let stats = proc.stats();
    (
        alloc_counter::calls() - before,
        stats.a_retired + stats.r_retired,
    )
}

/// Marginal heap allocations per 10k retired instructions: the slope
/// between a short and a longer run of the same workload. One-time costs
/// (processor construction, container growth to steady-state capacity)
/// appear in both runs and cancel, leaving the per-instruction rate the
/// zero-copy retire path is supposed to hold near zero.
fn alloc_gate_per_10k() -> f64 {
    let (short_allocs, short_instrs) = alloc_gate_run(ALLOC_GATE_SCALES.0);
    let (long_allocs, long_instrs) = alloc_gate_run(ALLOC_GATE_SCALES.1);
    assert!(
        long_instrs > short_instrs,
        "allocation gate needs the longer run to retire more instructions"
    );
    let marginal = long_allocs.saturating_sub(short_allocs);
    marginal as f64 * 10_000.0 / (long_instrs - short_instrs) as f64
}

fn measure(
    w: &Workload,
    cfg: &SlipstreamConfig,
    model: &'static str,
    mode: Option<ExecMode>,
    shared_l2: bool,
    reps: u32,
) -> Measurement {
    let cfg = if shared_l2 {
        SlipstreamConfig::cmp_shared_l2()
    } else {
        cfg.clone()
    };
    let (instructions, cycles, l2, seconds) = match mode {
        None => best_of(reps, || {
            let stats = run_superscalar(
                CoreConfig::ss_64x4(),
                cfg.trace_pred,
                &w.program,
                MAX_CYCLES,
            );
            assert!(stats.halted, "{}: SS(64x4) did not complete", w.name);
            (stats.core.retired, stats.core.cycles, [0; 3])
        }),
        Some(mode) => best_of(reps, || {
            let mut proc = SlipstreamProcessor::new(cfg.clone(), &w.program);
            assert!(
                proc.run_mode(mode, MAX_CYCLES),
                "{}: {model} did not complete",
                w.name
            );
            let stats = proc.stats();
            // Count work on both cores: the simulator executes A- and
            // R-stream instructions even though IPC only counts R.
            (
                stats.a_retired + stats.r_retired,
                stats.cycles,
                [
                    stats.a_core.l2_hits + stats.r_core.l2_hits,
                    stats.a_core.l2_misses + stats.r_core.l2_misses,
                    stats.a_core.port_stall_cycles + stats.r_core.port_stall_cycles,
                ],
            )
        }),
    };
    Measurement {
        bench: w.name,
        model,
        instructions,
        cycles,
        seconds,
        l2_hits: l2[0],
        l2_misses: l2[1],
        port_stall_cycles: l2[2],
    }
}

/// The `--telemetry DIR` pass: one telemetry-enabled suite run per
/// slipstream model (the SS(64x4) baseline has no scheduler to profile),
/// merged across workloads into a single registry per model and written
/// as JSONL + Prometheus exposition. Runs after every timed measurement.
fn telemetry_pass(
    dir: &str,
    workloads: &[Workload],
    cfg: &SlipstreamConfig,
    scale: f64,
    calibration_anchor: Option<f64>,
) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    for &(model, mode, shared_l2) in &MODELS {
        let Some(mode) = mode else {
            continue;
        };
        let run_cfg = if shared_l2 {
            SlipstreamConfig::cmp_shared_l2()
        } else {
            cfg.clone()
        };
        let mut merged = Telemetry::new();
        for w in workloads {
            let mut proc = SlipstreamProcessor::new(run_cfg.clone(), &w.program);
            proc.enable_telemetry();
            assert!(
                proc.run_mode(mode, MAX_CYCLES),
                "{}: {model} telemetry pass did not complete",
                w.name
            );
            merged.merge(&proc.take_telemetry().expect("telemetry was enabled"));
        }
        let scheduler = match mode {
            ExecMode::Serial => "serial",
            ExecMode::Windowed => "windowed",
        };
        let manifest = RunManifest::new("throughput", scheduler, &format!("{run_cfg:?}"))
            .label("model", model)
            .label("scale", scale)
            .calibration(calibration_anchor);
        let snap = merged.snapshot(&manifest);
        let base = format!("{dir}/throughput_{model}.telemetry");
        std::fs::write(format!("{base}.jsonl"), to_jsonl(&snap))
            .unwrap_or_else(|e| panic!("write {base}.jsonl: {e}"));
        let prom = snap.prometheus_text();
        validate_exposition(&prom)
            .unwrap_or_else(|e| panic!("{model}: emitted exposition is invalid: {e}"));
        std::fs::write(format!("{base}.prom"), prom)
            .unwrap_or_else(|e| panic!("write {base}.prom: {e}"));
        eprintln!("wrote {base}.jsonl and {base}.prom");
    }
}

/// Per-model totals (instructions, seconds) over a row set.
fn model_totals<'a>(rows: impl Iterator<Item = &'a Measurement>) -> Vec<(&'static str, u64, f64)> {
    let mut totals: Vec<(&'static str, u64, f64)> = Vec::new();
    for r in rows {
        match totals.iter_mut().find(|(m, _, _)| *m == r.model) {
            Some(t) => {
                t.1 += r.instructions;
                t.2 += r.seconds;
            }
            None => totals.push((r.model, r.instructions, r.seconds)),
        }
    }
    totals
}

fn main() {
    let mut scale: Option<f64> = None;
    let mut reps: Option<u32> = None;
    let mut smoke = false;
    let mut tel_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--telemetry" => {
                i += 1;
                tel_dir = Some(
                    args.get(i)
                        .expect("--telemetry needs a directory argument")
                        .clone(),
                );
            }
            s if scale.is_none() => scale = Some(s.parse().expect("scale must be a number")),
            s if reps.is_none() => reps = Some(s.parse().expect("reps must be an integer")),
            s => panic!("unexpected argument: {s}"),
        }
        i += 1;
    }
    let scale = scale.unwrap_or(if smoke { 0.2 } else { 1.0 });
    let reps = reps.unwrap_or(if smoke { 1 } else { 3 }).max(1);

    let workloads = suite(scale);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut rows: Vec<Measurement> = Vec::new();

    println!(
        "{:<11} {:<20} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "benchmark", "model", "instrs", "cycles", "wall s", "instrs/s", "cycles/s"
    );
    // The calibration row runs at every scale, smoke or not, so the
    // committed file and the smoke pass always have a host-speed anchor.
    rows.push(calibration(reps));
    for w in &workloads {
        for &(model, mode, shared_l2) in &MODELS {
            rows.push(measure(w, &cfg, model, mode, shared_l2, reps));
        }
    }
    for r in &rows {
        println!(
            "{:<11} {:<20} {:>12} {:>12} {:>9.3} {:>12.0} {:>12.0}",
            r.bench,
            r.model,
            r.instructions,
            r.cycles,
            r.seconds,
            r.instrs_per_sec(),
            r.cycles_per_sec()
        );
    }
    let l2_total: (u64, u64, u64) =
        rows.iter()
            .filter(|r| r.model == "slipstream-l2")
            .fold((0, 0, 0), |acc, r| {
                (
                    acc.0 + r.l2_hits,
                    acc.1 + r.l2_misses,
                    acc.2 + r.port_stall_cycles,
                )
            });
    println!(
        "l2          {:<20} {} hits, {} misses, {} port-stall cycles",
        "slipstream-l2", l2_total.0, l2_total.1, l2_total.2
    );

    let totals = model_totals(rows.iter());
    for &(model, instrs, secs) in &totals {
        println!(
            "{:<11} {:<20} {:>12} {:>12} {:>9.3} {:>12.0}",
            "TOTAL",
            model,
            instrs,
            "",
            secs,
            instrs as f64 / secs
        );
    }
    if let Some(&(_, base_i, base_s)) = totals.iter().find(|(m, _, _)| *m == "slipstream") {
        let base = base_i as f64 / base_s;
        for &(model, i, s) in &totals {
            if model.starts_with("slipstream-") {
                println!(
                    "speedup     {:<20} {:>6.2}x vs serial slipstream",
                    model,
                    (i as f64 / s) / base
                );
            }
        }
    }

    // The allocation gate runs after the timed rows so its extra runs
    // cannot perturb the timing measurements, and at fixed workload sizes
    // so its value is comparable across scales (and hosts: allocation
    // counts are deterministic).
    let alloc_per_10k = alloc_gate_per_10k();
    println!(
        "alloc-gate  {:<20} {alloc_per_10k:>12.2} marginal heap allocs / 10k retired",
        "slipstream-window"
    );

    if let Some(dir) = &tel_dir {
        let anchor = totals
            .iter()
            .find(|(m, _, _)| *m == "calibration")
            .map(|&(_, instrs, secs)| instrs as f64 / secs);
        telemetry_pass(dir, &workloads, &cfg, scale, anchor);
    }

    if smoke {
        // Regression gate: compare per-model simulation speed against the
        // committed baseline file instead of overwriting it.
        let doc = std::fs::read_to_string("BENCH_throughput.json")
            .expect("--smoke needs the committed BENCH_throughput.json in the working directory");
        let committed = committed_throughput(&doc)
            .unwrap_or_else(|e| panic!("committed BENCH_throughput.json: {e}"));
        // The calibration rows (committed vs measured) cancel host speed
        // out of the comparison: a runner half as fast as the one that
        // wrote the committed file halves every model's floor too.
        let host_ratio = {
            let measured = totals
                .iter()
                .find(|(m, _, _)| *m == "calibration")
                .map(|&(_, i, s)| i as f64 / s)
                .expect("the calibration row runs at every scale");
            let raw = measured / committed.calibration.instrs_per_sec();
            let clamped = raw.clamp(HOST_RATIO_BAND.0, HOST_RATIO_BAND.1);
            println!("smoke       host ratio {raw:.3} (clamped {clamped:.3})");
            clamped
        };
        let mut checked = 0;
        let mut failures = Vec::new();
        for c in &committed.model_totals {
            let model = &c.model;
            if model == "calibration" {
                continue; // the anchor itself is not gated
            }
            let Some(&(_, instrs, secs)) = totals.iter().find(|(m, _, _)| m == model) else {
                continue; // model not measured in this configuration
            };
            let committed_speed = c.instrs_per_sec();
            let measured_speed = instrs as f64 / secs;
            let floor = committed_speed * host_ratio / SMOKE_TOLERANCE;
            checked += 1;
            println!(
                "smoke       {model:<20} measured {measured_speed:>12.0} instrs/s, \
                 committed {committed_speed:>12.0} (floor {floor:.0})"
            );
            if measured_speed < floor {
                failures.push(format!(
                    "{model}: {measured_speed:.0} instrs/s is below {floor:.0} \
                     (committed {committed_speed:.0} x host ratio {host_ratio:.3} \
                     / tolerance {SMOKE_TOLERANCE})"
                ));
            }
        }
        assert!(checked > 0, "no committed model matched a measured model");
        // Allocation gate: unlike the speed floors this needs no host
        // normalization — the simulation (and hence its allocation trace)
        // is deterministic, so the ceiling transfers across machines.
        let ceiling = committed.alloc_ceiling;
        let limit = ceiling * SMOKE_TOLERANCE + ALLOC_GATE_SLACK;
        println!(
            "smoke       alloc-gate           measured {alloc_per_10k:>12.2} \
             allocs/10k, committed {ceiling:>12.2} (limit {limit:.2})"
        );
        if alloc_per_10k > limit {
            failures.push(format!(
                "alloc-gate: {alloc_per_10k:.2} heap allocs per 10k retired \
                 instrs exceeds {limit:.2} (committed {ceiling:.2} x tolerance \
                 {SMOKE_TOLERANCE} + slack {ALLOC_GATE_SLACK})"
            ));
        }
        assert!(
            failures.is_empty(),
            "simulator throughput regression:\n  {}",
            failures.join("\n  ")
        );
        println!("smoke       OK — {checked} models within {SMOKE_TOLERANCE}x of committed speed");
        return;
    }

    // Hand-rolled JSON via the shared helpers: the workspace has no serde
    // (and no registry access).
    let rows_json = json::array(
        rows.iter().map(|r| {
            json::Obj::new()
                .str("bench", r.bench)
                .str("model", r.model)
                .raw("instructions", r.instructions)
                .raw("cycles", r.cycles)
                .raw("l2_hits", r.l2_hits)
                .raw("l2_misses", r.l2_misses)
                .raw("port_stall_cycles", r.port_stall_cycles)
                .f64("seconds", r.seconds, 6)
                .f64("instrs_per_sec", r.instrs_per_sec(), 0)
                .f64("cycles_per_sec", r.cycles_per_sec(), 0)
                .finish()
        }),
        2,
    );
    let totals_json = json::array(
        totals.iter().map(|&(model, instrs, secs)| {
            json::Obj::new()
                .str("model", model)
                .raw("instructions", instrs)
                .f64("seconds", secs, 6)
                .f64("instrs_per_sec", instrs as f64 / secs, 0)
                .finish()
        }),
        2,
    );
    let alloc_json = json::f64_fixed(alloc_per_10k, 2);
    let doc = format!(
        "{{\n  \"scale\": {scale},\n  \"reps\": {reps},\n  \
         \"alloc_per_10k_retired\": {alloc_json},\n  \"rows\": {rows_json},\n  \
         \"model_totals\": {totals_json}\n}}\n"
    );
    std::fs::write("BENCH_throughput.json", doc).expect("write BENCH_throughput.json");
    eprintln!("wrote BENCH_throughput.json");
}
