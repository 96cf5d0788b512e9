//! Campaign-subsystem tests: determinism across worker counts, site
//! enumeration, the Figure 5 outcome-accounting invariants, and the
//! equivalence of checkpoint-forked runs with runs from cycle 0.

use slipstream_bench::{
    enumerate_sites, run_campaign, CampaignConfig, FORK_STRIDE, MAX_CYCLES, TARGETS,
};
use slipstream_core::{
    golden_state, run_fault_experiment, run_fault_experiment_from, FaultOutcome, FaultTarget,
    SlipstreamConfig, SlipstreamProcessor,
};
use slipstream_cpu::FaultSpec;
use slipstream_workloads::benchmark;

/// A small but real two-benchmark campaign for the tests below.
fn small_cfg(workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke();
    cfg.sites_per_target = 4;
    cfg.workers = workers;
    cfg
}

const TEST_BENCHES: [&str; 2] = ["m88ksim", "compress"];

#[test]
fn campaign_rows_are_identical_regardless_of_worker_count() {
    let serial = run_campaign(&small_cfg(1), &TEST_BENCHES, &TARGETS);
    let pooled = run_campaign(&small_cfg(3), &TEST_BENCHES, &TARGETS);
    // Same seed → same sites → byte-identical rows and identical per-site
    // results, no matter how the pool interleaved the runs.
    assert_eq!(serial.rows_json(), pooled.rows_json());
    assert_eq!(serial.site_results, pooled.site_results);
}

#[test]
fn site_enumeration_is_deterministic_and_distinct() {
    let a = enumerate_sites("m88ksim", FaultTarget::RStream, 20_000, 50, 7);
    let b = enumerate_sites("m88ksim", FaultTarget::RStream, 20_000, 50, 7);
    assert_eq!(a, b, "same (seed, bench, target) → same sites");
    let mut pairs: Vec<(u64, u8)> = a.iter().map(|s| (s.seq, s.bit)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len(), 50, "sites must be distinct");
    assert!(a.iter().all(|s| s.seq >= 2_000 && s.seq < 19_990));

    let other_seed = enumerate_sites("m88ksim", FaultTarget::RStream, 20_000, 50, 8);
    assert_ne!(a, other_seed, "different seed → different sites");
    let other_target = enumerate_sites("m88ksim", FaultTarget::AStream, 20_000, 50, 7);
    assert!(
        a.iter()
            .zip(&other_target)
            .any(|(x, y)| (x.seq, x.bit) != (y.seq, y.bit)),
        "A- and R-stream site streams must be decorrelated"
    );
}

#[test]
fn outcome_accounting_partitions_sites_and_excludes_not_activated() {
    let result = run_campaign(&small_cfg(2), &TEST_BENCHES, &TARGETS);
    for s in &result.summaries {
        assert_eq!(
            s.sites,
            s.not_activated + s.detected_recovered + s.masked + s.silent + s.hangs,
            "outcome counters must partition the site set"
        );
        // The rate denominator is fired accounting: a hung run whose
        // fault never fired must not count as activated.
        assert_eq!(s.activated(), s.fired, "activated = fired ({})", s.bench);
        if s.hangs == 0 {
            assert_eq!(
                s.activated(),
                s.sites - s.not_activated,
                "with no hangs, every halted run either fired or is \
                 NotActivated ({})",
                s.bench
            );
            // Figure 5 rates are over activated faults only: they must
            // sum to 1 whenever anything activated, with no NotActivated
            // share.
            if s.activated() > 0 {
                let total_rate = s.rate(s.detected_recovered) + s.rate(s.masked) + s.rate(s.silent);
                assert!((total_rate - 1.0).abs() < 1e-9, "rates sum to 1");
            }
        }
    }
    let totals = result.totals();
    assert_eq!(totals.hangs, 0);
    // Scenario 1 (paper §3): faults in redundantly-executed A-stream
    // instructions are always caught; silent corruption is confined to
    // R-stream sites the A-stream skipped (scenario 2).
    for s in &result.summaries {
        if s.target == FaultTarget::AStream {
            assert_eq!(s.silent, 0, "{}: A-stream faults cannot escape", s.bench);
        }
    }
    // Detection latency is recorded exactly once per detected+recovered
    // run, and every such run carries one.
    assert_eq!(totals.latency.n, totals.detected_recovered);
    for r in &result.site_results {
        if r.outcome == FaultOutcome::DetectedRecovered {
            assert!(
                r.detection_latency.is_some(),
                "a detected+recovered run must report its latency"
            );
        }
    }
}

#[test]
fn campaign_rows_match_runs_from_cycle_zero() {
    let cfg = small_cfg(2);
    let result = run_campaign(&cfg, &TEST_BENCHES, &TARGETS);
    for bench in TEST_BENCHES {
        let w = benchmark(bench, cfg.scale).unwrap();
        let golden = golden_state(&w.program, 4 * cfg.max_cycles);
        let mut clean = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
        assert!(clean.run(cfg.max_cycles));
        for r in result.site_results.iter().filter(|r| r.site.bench == bench) {
            let report = run_fault_experiment(
                SlipstreamConfig::cmp_2x64x4(),
                &w.program,
                r.site.target,
                FaultSpec {
                    seq: r.site.seq,
                    bit: r.site.bit,
                },
                cfg.max_cycles,
                &golden,
                clean.misp_log(),
            );
            let lone = (
                report.outcome,
                report.fired,
                report.detections,
                report.detection_latency,
                report.cycles,
            );
            let pooled = (
                r.outcome,
                r.fired,
                r.detections,
                r.detection_latency,
                r.cycles,
            );
            assert_eq!(pooled, lone, "{:?}", r.site);
        }
    }
    assert!(
        result.stepped_cycles < result.sim_cycles(),
        "forking must skip the shared fault-free prefixes"
    );
}

/// The campaign's fork-point rule: the last fault-free stop, at or before
/// the run's cycle budget, whose target core has not yet dispatched `seq`.
fn fork_cycle(stops: &[(u64, u64, u64)], target: FaultTarget, seq: u64, max_cycles: u64) -> u64 {
    stops
        .iter()
        .rev()
        .find(|&&(cycle, a_seq, r_seq)| {
            let next = match target {
                FaultTarget::AStream => a_seq,
                FaultTarget::RStream => r_seq,
            };
            cycle <= max_cycles && next <= seq
        })
        .expect("cycle 0 precedes every site")
        .0
}

#[test]
fn forked_runs_report_exactly_what_runs_from_cycle_zero_report() {
    let mut seen = Vec::new();
    // The shared-L2 config matters: budget stops leave unmerged L2 logs in
    // both cores, and the fork must carry them.
    for cfg in [
        SlipstreamConfig::cmp_2x64x4(),
        SlipstreamConfig::cmp_shared_l2(),
    ] {
        for bench in ["compress", "vortex"] {
            let w = benchmark(bench, 0.05).unwrap();
            let golden = golden_state(&w.program, 4 * MAX_CYCLES);
            let mut clean = SlipstreamProcessor::new(cfg.clone(), &w.program);
            let mut stops = vec![(0, 0, 0)];
            while !clean.run(clean.cycles() + FORK_STRIDE) {
                stops.push((
                    clean.cycles(),
                    clean.a_core().next_seq(),
                    clean.r_core().next_seq(),
                ));
            }
            let misp = clean.misp_log().to_vec();

            let spec = |seq, bit| FaultSpec { seq, bit };
            let mut cases: Vec<(FaultTarget, FaultSpec, u64)> = Vec::new();
            for target in TARGETS {
                for s in enumerate_sites(bench, target, clean.stats().r_retired, 3, 0xfa17) {
                    cases.push((target, spec(s.seq, s.bit), MAX_CYCLES));
                }
            }
            // NotActivated: past the reduced A-stream's last dispatch.
            let a_end = clean.a_core().next_seq();
            cases.push((FaultTarget::AStream, spec(a_end + 1, 3), MAX_CYCLES));
            // Hang: the budget ends half a stride after the fork.
            let (mid_cycle, _, mid_r_seq) = stops[stops.len() / 2];
            cases.push((
                FaultTarget::RStream,
                spec(mid_r_seq, 0),
                mid_cycle + FORK_STRIDE / 2,
            ));
            // SilentCorruption: an R-stream flip the A-stream skipped.
            if bench == "vortex" {
                cases.push((FaultTarget::RStream, spec(42_414, 1), MAX_CYCLES));
            }

            let mut order: Vec<(u64, usize)> = cases
                .iter()
                .enumerate()
                .map(|(i, &(target, f, max))| (fork_cycle(&stops, target, f.seq, max), i))
                .collect();
            order.sort_unstable();
            let mut walker = SlipstreamProcessor::new(cfg.clone(), &w.program);
            for (fork, i) in order {
                let (target, fault, max_cycles) = cases[i];
                walker.run(fork);
                assert_eq!(walker.cycles(), fork);
                let forked =
                    run_fault_experiment_from(&walker, target, fault, max_cycles, &golden, &misp);
                let scratch = run_fault_experiment(
                    cfg.clone(),
                    &w.program,
                    target,
                    fault,
                    max_cycles,
                    &golden,
                    &misp,
                );
                assert_eq!(
                    forked, scratch,
                    "{bench} {target:?} {fault:?} forked at cycle {fork}"
                );
                seen.push(forked.outcome);
            }
        }
    }
    for outcome in [
        FaultOutcome::DetectedRecovered,
        FaultOutcome::NotActivated,
        FaultOutcome::Hang,
        FaultOutcome::SilentCorruption,
    ] {
        assert!(seen.contains(&outcome), "grid must cover {outcome:?}");
    }
}

#[test]
#[should_panic(expected = "past the fault site")]
fn fork_past_the_fault_site_is_refused() {
    let w = benchmark("compress", 0.05).unwrap();
    let golden = golden_state(&w.program, 4 * MAX_CYCLES);
    let mut walker = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    walker.run(2 * FORK_STRIDE);
    let fault = FaultSpec { seq: 0, bit: 0 };
    run_fault_experiment_from(
        &walker,
        FaultTarget::RStream,
        fault,
        MAX_CYCLES,
        &golden,
        &[],
    );
}
