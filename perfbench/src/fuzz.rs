//! `fuzz`: a differential-fuzzing sweep through `run_fuzz` over
//! `SEEDS` random programs, each checked by all of
//! `standard_invariants()`, on a pool of `sim::workers()` threads.
//!
//! Small, branchy, cold programs on which the trace predictor never warms
//! up: host time goes to the `isa` functional oracle, the `workloads`
//! generator, processor construction and the strict + online checker. The
//! only workload where `isa` and `workloads` carry real load.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use slipstream_bench::{enumerate_seeds, run_fuzz, run_fuzz_telemetry, FuzzConfig, FuzzResult};
use slipstream_core::telemetry::{SpanKind, Telemetry};
use slipstream_core::{standard_invariants, Invariant, SlipstreamConfig, SlipstreamProcessor};
use slipstream_isa::ArchState;
use slipstream_workloads::random_program_with_shape;

use crate::layers::Layers;
use crate::sim::{measure, ratio, secs, timed_setup, workers, Outcome, Params};
use crate::stats::{percentile, Digest};

/// Programs per sweep.
pub const SEEDS: usize = 512;

/// Programs in the untimed warm-up sweep that ends set-up.
const WARMUP_SEEDS: usize = 16;

/// The repository's full-size fuzz configuration with this run's seed and
/// sweep size.
fn config(seed: u64, seeds: usize) -> FuzzConfig {
    FuzzConfig {
        seeds,
        seed,
        workers: workers(),
        ..FuzzConfig::full()
    }
}

fn digest(result: &FuzzResult) -> u64 {
    let mut d = Digest::default();
    d.str(&result.rows_json());
    d.value()
}

/// Share of invariant checks that held, in %.
fn pass_pct(result: &FuzzResult) -> f64 {
    let checks = result.checks() as f64;
    100.0 * ratio(checks - result.violations.len() as f64, checks)
}

fn failures(result: &FuzzResult) -> Vec<String> {
    let mut out: Vec<String> = result
        .violations
        .iter()
        .map(|v| format!("seed {:#x}: {} violated: {}", v.seed, v.invariant, v.detail))
        .collect();
    if result.gen_rejected > 0 {
        out.push(format!(
            "{} generated programs did not terminate",
            result.gen_rejected
        ));
    }
    out
}

/// Runs the workload: work units are seeds, so the rate is `seeds_per_s`.
pub fn run(p: &Params) -> Outcome {
    // Set-up builds the invariant battery and warms the checkers on a
    // small sweep of other seeds.
    let fuzz_setup = || {
        let invariants = standard_invariants();
        let warmup = catch_unwind(AssertUnwindSafe(|| {
            run_fuzz(&config(!p.seed, WARMUP_SEEDS), &invariants)
        }));
        (invariants, warmup)
    };
    let ((invariants, warmup), setup_s) = timed_setup(fuzz_setup);
    let cfg = config(p.seed, SEEDS);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        digest: 0,
        ops_per_s: 0.0,
        rates: Vec::new(),
        setup_s,
        result_pct: 0.0,
        layers: None,
    };
    let mut first_digest: Option<u64> = None;
    let mut absorb = |out: &mut Outcome, seeds: usize, result: std::thread::Result<FuzzResult>| {
        out.attempted += seeds as u64;
        let Ok(result) = result else {
            out.failed += seeds as u64;
            out.problems.push("run_fuzz panicked".into());
            return;
        };
        let bad = failures(&result);
        out.failed += (result.violations.len() as u64) + result.gen_rejected;
        out.problems.extend(bad);
        let d = digest(&result);
        match first_digest {
            None if seeds == SEEDS => {
                first_digest = Some(d);
                out.digest = d;
                out.result_pct = pass_pct(&result);
            }
            Some(first) if d != first => {
                out.problems
                    .push("fuzz rows differ between iterations".into());
            }
            _ => {}
        }
    };
    absorb(&mut out, WARMUP_SEEDS, warmup);
    let m = measure(
        p.loop_seconds(),
        || {
            let result = catch_unwind(AssertUnwindSafe(|| run_fuzz(&cfg, &invariants)));
            absorb(&mut out, SEEDS, result);
            SEEDS as f64
        },
        || {
            let _ = std::hint::black_box(fuzz_setup());
        },
    );
    out.rates = m.rates();
    out.ops_per_s = m.throughput();
    out.setup_s = m.setup_s(setup_s);
    if !p.trace {
        return out;
    }

    let untraced_s = m.median_iter_s();
    let mut layers = Layers::new();
    let mut tel = Telemetry::new();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_fuzz_telemetry(&cfg, &invariants, Some(&mut tel))
    }));
    let wall = secs(t0);
    absorb(&mut out, SEEDS, result);
    layers.set(
        "fuzz.worker_busy_pct",
        100.0 * (tel.span(SpanKind::FuzzSeed).total_nanos as f64 / 1e9)
            / (cfg.workers as f64 * wall),
    );
    layers.set("telemetry.overhead_pct", 100.0 * (wall / untraced_s - 1.0));
    if let Err(e) = trace_seeds(&cfg, &invariants, &mut layers) {
        out.problems.push(e);
    }
    out.layers = Some(layers);
    out
}

/// The sweep's seeds again, one at a time on this thread, timing each
/// layer `run_fuzz` calls into: the generator, the functional oracle,
/// processor construction and every invariant.
fn trace_seeds(
    cfg: &FuzzConfig,
    invariants: &[Box<dyn Invariant>],
    layers: &mut Layers,
) -> Result<(), String> {
    let mut seed_ms = Vec::with_capacity(cfg.seeds);
    let (mut gen_s, mut oracle_s, mut oracle_instrs, mut new_s) = (0.0, 0.0, 0u64, 0.0);
    let mut check_s = vec![0.0; invariants.len()];
    for seed in enumerate_seeds(cfg.seeds, cfg.seed) {
        let t0 = Instant::now();
        let (program, _) = random_program_with_shape(seed, cfg.prog);
        let t1 = Instant::now();
        let mut golden = ArchState::new(&program);
        golden
            .run_quiet(&program, cfg.fuel)
            .map_err(|e| format!("seed {seed:#x}: oracle failed: {e:?}"))?;
        let t2 = Instant::now();
        gen_s += t1.duration_since(t0).as_secs_f64();
        oracle_s += t2.duration_since(t1).as_secs_f64();
        oracle_instrs += golden.retired();
        let mut seed_s = t2.duration_since(t0).as_secs_f64();
        for (inv, total) in invariants.iter().zip(check_s.iter_mut()) {
            let t = Instant::now();
            inv.check(&program, &golden, cfg.max_cycles)
                .map_err(|e| format!("seed {seed:#x}: {} violated: {e}", inv.name()))?;
            let dt = secs(t);
            *total += dt;
            seed_s += dt;
        }
        seed_ms.push(1e3 * seed_s);
        let t = Instant::now();
        std::hint::black_box(SlipstreamProcessor::new(
            SlipstreamConfig::cmp_2x64x4(),
            &program,
        ));
        new_s += secs(t);
    }
    layers.set("workloads.gen_s", gen_s);
    layers.set("isa.oracle_s", oracle_s);
    layers.set(
        "isa.oracle_mips",
        ratio(oracle_instrs as f64 / 1e6, oracle_s),
    );
    layers.set("core.new_s", new_s);
    for (inv, s) in invariants.iter().zip(check_s) {
        layers.set(&format!("fuzz.check.{}_s", inv.name()), s);
        if inv.name() == "core-oracle" {
            layers.set("cpu.core_oracle_s", s);
        }
    }
    layers.set("fuzz.seed_p50_ms", percentile(&seed_ms, 50.0));
    layers.set("fuzz.seed_p99_ms", percentile(&seed_ms, 99.0));
    layers.set("fuzz.seed_samples", seed_ms.len() as f64);
    Ok(())
}
