//! `suite`: the eight SPEC95 analogues, each through the four runs
//! `evaluate_workload` makes — SS(64x4), SS(128x8), and CMP(2x64x4) with
//! full and with branches-only removal.
//!
//! Long hot loops: host time goes to the `cpu` pipeline and the `core`
//! scheduler, IR-detector and delay buffer, while construction, oracle and
//! program generation cost next to nothing. A pipeline or scheduler
//! speed-up shows here; a construction speed-up does not.

use std::time::Instant;

use slipstream_bench::{fig6_json, BenchRow};
use slipstream_core::{RemovalPolicy, SlipstreamConfig};
use slipstream_cpu::CoreConfig;
use slipstream_isa::ArchState;
use slipstream_workloads::{Workload, BENCHMARK_NAMES};

use crate::layers::Layers;
use crate::sim::{
    assemble_with_golden, cmp_run, digest_cpi, measure, ratio, secs, ss_run, timed_setup,
    CmpTotals, IsaTotals, Outcome, Params, SsTotals,
};
use crate::stats::Digest;
use crate::SplitMix64;

/// Workload scale: the size `BENCH_fig6.json` is committed at, so every
/// run cross-checks `ipc_gain_pct` against it.
pub const SCALE: f64 = 1.0;

struct Bench {
    workload: Workload,
    golden: ArchState,
}

fn setup(mut isa: Option<&mut IsaTotals>) -> Vec<Bench> {
    BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let (workload, golden) = assemble_with_golden(name, SCALE, isa.as_deref_mut());
            Bench { workload, golden }
        })
        .collect()
}

/// One pass's results, in `BENCHMARK_NAMES` order.
struct Pass {
    /// `None` where a run failed.
    rows: Vec<Option<BenchRow>>,
    failures: Vec<String>,
    /// Instructions retired by every simulated core.
    instrs: u64,
}

/// Runs every benchmark's four runs, benchmarks in `order`.
fn pass(
    benches: &[Bench],
    order: &[usize],
    mut ss_tot: Option<&mut SsTotals>,
    mut cmp_tot: Option<&mut CmpTotals>,
) -> Pass {
    let mut rows: Vec<Option<BenchRow>> = benches.iter().map(|_| None).collect();
    let mut failures = Vec::new();
    let mut instrs = 0;
    for &i in order {
        let Bench {
            workload: w,
            golden,
        } = &benches[i];
        let p = &w.program;
        let ss64 = ss_run(CoreConfig::ss_64x4(), p, golden, ss_tot.as_deref_mut());
        let ss128 = ss_run(CoreConfig::ss_128x8(), p, golden, ss_tot.as_deref_mut());
        let cfg = SlipstreamConfig::cmp_2x64x4();
        let mut br_cfg = cfg.clone();
        br_cfg.removal = RemovalPolicy::branches_only();
        let slip = cmp_run("CMP(2x64x4)", cfg, p, golden, cmp_tot.as_deref_mut(), true)
            .map(|proc| proc.stats());
        let slip_br = cmp_run(
            "CMP(2x64x4) branches-only",
            br_cfg,
            p,
            golden,
            cmp_tot.as_deref_mut(),
            false,
        )
        .map(|proc| proc.stats());
        match (ss64, ss128, slip, slip_br) {
            (Ok(ss64), Ok(ss128), Ok(slip), Ok(slip_br)) => {
                instrs += ss64.core.retired
                    + ss128.core.retired
                    + slip.a_retired
                    + slip.r_retired
                    + slip_br.a_retired
                    + slip_br.r_retired;
                rows[i] = Some(BenchRow {
                    name: w.name,
                    dynamic: slip.r_retired,
                    ss64,
                    ss128,
                    slip,
                    slip_br,
                });
            }
            (a, b, c, d) => {
                let errs = [a.err(), b.err(), c.err(), d.err()];
                failures.extend(
                    errs.into_iter()
                        .flatten()
                        .map(|e| format!("{}: {e}", w.name)),
                );
            }
        }
    }
    Pass {
        rows,
        failures,
        instrs,
    }
}

/// Simulated runs per benchmark per pass.
const RUNS_PER_BENCH: u64 = 4;

fn digest(rows: &[BenchRow]) -> u64 {
    let mut d = Digest::default();
    for r in rows {
        d.str(r.name);
        for ss in [&r.ss64, &r.ss128] {
            d.u64(ss.core.cycles);
            d.u64(ss.core.retired);
            digest_cpi(&mut d, &ss.core.cpi);
        }
        for s in [&r.slip, &r.slip_br] {
            d.u64(s.cycles);
            d.u64(s.a_retired);
            d.u64(s.r_retired);
            d.u64(s.ir_mispredictions);
            digest_cpi(&mut d, &s.a_core.cpi);
            digest_cpi(&mut d, &s.r_core.cpi);
            for (reason, n) in &s.skipped_by_reason {
                d.u64(u64::from(reason.bits()));
                d.u64(*n);
            }
        }
    }
    d.value()
}

/// Figure 6's average: mean IPC gain of CMP(2x64x4) over SS(64x4), in %.
fn ipc_gain_pct(rows: &[BenchRow]) -> f64 {
    rows.iter().map(BenchRow::fig6_improvement).sum::<f64>() / rows.len() as f64
}

/// Compares the pass's Figure 6 document with the committed one.
fn fig6_cross_check(rows: &[BenchRow]) -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_fig6.json");
    let committed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read the committed BENCH_fig6.json: {e}"))?;
    if fig6_json(rows, SCALE) == committed {
        Ok(())
    } else {
        Err(format!(
            "Figure 6 differs from the committed BENCH_fig6.json (measured average {:.2} %)",
            ipc_gain_pct(rows)
        ))
    }
}

/// Every benchmark in a seed-dependent order. The order changes nothing
/// simulated; it varies which benchmark meets a cold host cache.
fn shuffled(rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..BENCHMARK_NAMES.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Runs the workload: work units are millions of simulated instructions,
/// so the rate is `sim_mips`.
pub fn run(p: &Params) -> Outcome {
    let (benches, setup_s) = timed_setup(|| setup(None));
    let mut rng = SplitMix64(p.seed);
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
    let mut seen_first = false;
    let mut absorb = |out: &mut Outcome, pass: Pass| {
        out.attempted += RUNS_PER_BENCH * benches.len() as u64;
        out.failed += pass.failures.len() as u64;
        out.problems.extend(pass.failures);
        let Some(rows) = pass.rows.into_iter().collect::<Option<Vec<_>>>() else {
            return;
        };
        if !seen_first {
            seen_first = true;
            out.digest = digest(&rows);
            out.result_pct = ipc_gain_pct(&rows);
            if let Err(e) = fig6_cross_check(&rows) {
                out.problems.push(e);
            }
        } else if digest(&rows) != out.digest {
            out.problems
                .push("simulated results differ between passes".into());
        }
    };
    let m = measure(
        p.loop_seconds(),
        || {
            let pass = pass(&benches, &shuffled(&mut rng), None, None);
            let mips = pass.instrs as f64 / 1e6;
            absorb(&mut out, pass);
            mips
        },
        || {
            std::hint::black_box(setup(None));
        },
    );
    out.rates = m.rates();
    out.ops_per_s = m.throughput();
    out.setup_s = m.setup_s(setup_s);
    if p.trace {
        let untraced_s = m.median_iter_s();
        let mut layers = Layers::new();
        let mut isa = IsaTotals::default();
        setup(Some(&mut isa));
        isa.write(&mut layers);
        let (mut ss, mut cmp) = (SsTotals::default(), CmpTotals::default());
        let order: Vec<usize> = (0..benches.len()).collect();
        let t0 = Instant::now();
        let traced = pass(&benches, &order, Some(&mut ss), Some(&mut cmp));
        let traced_s = secs(t0);
        absorb(&mut out, traced);
        layers.set("cpu.ss_s", ss.secs);
        let ss_ns_per_cycle = ratio(1e9 * ss.ss64_secs, ss.ss64_cycles as f64);
        layers.set("cpu.ss_ns_per_cycle", ss_ns_per_cycle);
        cmp.write(&mut layers, ss_ns_per_cycle);
        layers.set(
            "telemetry.overhead_pct",
            100.0 * (traced_s / untraced_s - 1.0),
        );
        out.layers = Some(layers);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_two_in_process_runs() {
        let benches: Vec<Bench> = ["li", "m88ksim"]
            .iter()
            .map(|name| {
                let (workload, golden) = assemble_with_golden(name, 0.05, None);
                Bench { workload, golden }
            })
            .collect();
        let rows = |order: &[usize]| -> Vec<BenchRow> {
            let pass = pass(&benches, order, None, None);
            assert!(pass.failures.is_empty(), "{:?}", pass.failures);
            pass.rows
                .into_iter()
                .map(|r| r.expect("run passed"))
                .collect()
        };
        let a = rows(&[0, 1]);
        let b = rows(&[1, 0]);
        assert_eq!(digest(&a), digest(&b));
        let mut skewed = b.clone();
        skewed[0]
            .slip
            .a_core
            .cpi
            .charge(slipstream_core::CpiCat::Base);
        assert_ne!(digest(&a), digest(&skewed));
    }

    #[test]
    fn shuffled_orders_are_seeded_permutations() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        let x = shuffled(&mut a);
        assert_eq!(x, shuffled(&mut b));
        let mut sorted = x.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..BENCHMARK_NAMES.len()).collect::<Vec<_>>());
    }
}
