//! `campaign`: a Figure 5 fault-injection campaign through `run_campaign`,
//! over all eight benchmarks × {A-stream, R-stream} × `SITES_PER_TARGET`
//! sites at a small scale, on a pool of `sim::workers()` threads.
//!
//! Thousands of short runs, each re-simulating the golden prefix and most
//! taking a recovery: host time goes to per-run construction, golden and
//! baseline preparation and the recovery controller. Checkpoint-forking or
//! early-stop of the redundant prefix shows here and nowhere else.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use slipstream_bench::{
    enumerate_sites, run_campaign, run_campaign_telemetry, CampaignConfig, CampaignResult,
    MAX_CYCLES, TARGETS,
};
use slipstream_core::telemetry::{SpanKind, Telemetry};
use slipstream_core::{run_fault_experiment, IrMispKind, SlipstreamConfig};
use slipstream_cpu::FaultSpec;
use slipstream_isa::ArchState;
use slipstream_workloads::{Workload, BENCHMARK_NAMES};

use crate::alloc;
use crate::layers::Layers;
use crate::sim::{
    assemble_with_golden, cmp_run, measure, ratio, secs, timed_setup, workers, CmpTotals,
    IsaTotals, Outcome, Params,
};
use crate::stats::{percentile, Digest};

/// Workload scale of every benchmark in the campaign.
pub const SCALE: f64 = 0.05;

/// Injection sites per benchmark × stream.
pub const SITES_PER_TARGET: usize = 16;

/// Injection runs per campaign.
const RUNS: u64 = (BENCHMARK_NAMES.len() * TARGETS.len() * SITES_PER_TARGET) as u64;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        scale: SCALE,
        sites_per_target: SITES_PER_TARGET,
        workers: workers(),
        seed,
        max_cycles: MAX_CYCLES,
    }
}

/// A benchmark's fault-free reference: the oracle's final state and a
/// fault-free CMP run, checked against each other.
struct Baseline {
    workload: Workload,
    golden: ArchState,
    misp_log: Vec<(IrMispKind, u64)>,
    dynamic: u64,
}

/// Builds every benchmark's fault-free baseline; a baseline that does not
/// reach the oracle's final state is a failure.
fn setup(
    mut isa: Option<&mut IsaTotals>,
    mut cmp: Option<&mut CmpTotals>,
) -> (Vec<Baseline>, Vec<String>) {
    let mut failures = Vec::new();
    let baselines = BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let (workload, golden) = assemble_with_golden(name, SCALE, isa.as_deref_mut());
            let (misp_log, dynamic) = match cmp_run(
                &format!("{name}: fault-free CMP(2x64x4)"),
                SlipstreamConfig::cmp_2x64x4(),
                &workload.program,
                &golden,
                cmp.as_deref_mut(),
                true,
            ) {
                Ok(proc) => (proc.misp_log().to_vec(), proc.stats().r_retired),
                Err(e) => {
                    failures.push(e);
                    (Vec::new(), 0)
                }
            };
            Baseline {
                workload,
                golden,
                misp_log,
                dynamic,
            }
        })
        .collect();
    (baselines, failures)
}

fn digest(result: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.str(&result.rows_json());
    d.value()
}

/// Figure 5's headline: detected-and-recovered share of activated faults.
fn coverage_pct(result: &CampaignResult) -> f64 {
    let t = result.totals();
    100.0 * t.rate(t.detected_recovered)
}

/// Runs the workload: work units are injection runs, so the rate is
/// `runs_per_s` (including `run_campaign`'s own preparation).
pub fn run(p: &Params) -> Outcome {
    let ((_, failures), setup_s) = timed_setup(|| setup(None, None));
    let cfg = config(p.seed);
    let mut out = Outcome {
        attempted: BENCHMARK_NAMES.len() as u64,
        failed: failures.len() as u64,
        problems: failures,
        digest: 0,
        ops_per_s: 0.0,
        rates: Vec::new(),
        setup_s,
        result_pct: 0.0,
        layers: None,
    };
    let mut first: Option<CampaignResult> = None;
    let mut absorb = |out: &mut Outcome, result: std::thread::Result<CampaignResult>| {
        out.attempted += RUNS;
        let Ok(result) = result else {
            out.failed += RUNS;
            out.problems.push("run_campaign panicked".into());
            return;
        };
        match &first {
            None => {
                out.digest = digest(&result);
                out.result_pct = coverage_pct(&result);
                first = Some(result);
            }
            Some(_) if digest(&result) != out.digest => {
                out.problems
                    .push("campaign rows differ between iterations".into());
            }
            Some(_) => {}
        }
    };
    let m = measure(
        p.loop_seconds(),
        || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_campaign(&cfg, &BENCHMARK_NAMES, &TARGETS)
            }));
            absorb(&mut out, result);
            RUNS as f64
        },
        || {
            std::hint::black_box(setup(None, None));
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
        run_campaign_telemetry(&cfg, &BENCHMARK_NAMES, &TARGETS, Some(&mut tel))
    }));
    let wall = secs(t0);
    if let Ok(r) = &result {
        layers.set("campaign.sim_cycles", r.sim_cycles() as f64);
    }
    absorb(&mut out, result);
    let span_s = |kind: SpanKind| tel.span(kind).total_nanos as f64 / 1e9;
    layers.set("campaign.prepare_s", span_s(SpanKind::CampaignPrepare));
    layers.set(
        "campaign.worker_busy_pct",
        100.0 * span_s(SpanKind::CampaignSite) / (cfg.workers as f64 * wall),
    );
    layers.set("telemetry.overhead_pct", 100.0 * (wall / untraced_s - 1.0));

    // The same sites again, one at a time on this thread, so each run's
    // time and allocations are its own.
    let mut isa = IsaTotals::default();
    let mut cmp = CmpTotals::default();
    let (baselines, _) = setup(Some(&mut isa), Some(&mut cmp));
    isa.write(&mut layers);
    cmp.write(&mut layers, 0.0);
    let mut site_ms = Vec::with_capacity(RUNS as usize);
    let mut allocs = 0;
    let mut site_results = first.as_ref().map(|r| r.site_results.iter());
    for b in &baselines {
        for target in TARGETS {
            let sites =
                enumerate_sites(b.workload.name, target, b.dynamic, SITES_PER_TARGET, p.seed);
            for site in sites {
                let allocs0 = alloc::thread_calls();
                let t0 = Instant::now();
                let report = run_fault_experiment(
                    SlipstreamConfig::cmp_2x64x4(),
                    &b.workload.program,
                    target,
                    FaultSpec {
                        seq: site.seq,
                        bit: site.bit,
                    },
                    MAX_CYCLES,
                    &b.golden,
                    &b.misp_log,
                );
                site_ms.push(1e3 * secs(t0));
                allocs += alloc::thread_calls() - allocs0;
                let pooled = site_results.as_mut().and_then(Iterator::next);
                if pooled.is_some_and(|r| {
                    r.site != site || r.outcome != report.outcome || r.cycles != report.cycles
                }) {
                    out.problems.push(format!(
                        "{} {target:?} site {}: a lone run differs from the pooled campaign",
                        b.workload.name, site.seq
                    ));
                }
            }
        }
    }
    layers.set("campaign.site_p50_ms", percentile(&site_ms, 50.0));
    layers.set("campaign.site_p99_ms", percentile(&site_ms, 99.0));
    layers.set("campaign.site_samples", site_ms.len() as f64);
    layers.set(
        "campaign.allocs_per_run",
        ratio(allocs as f64, site_ms.len() as f64),
    );
    out.layers = Some(layers);
    out
}
