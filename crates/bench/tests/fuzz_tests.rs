//! Differential-fuzz engine tests: the shrinker must minimize a seeded
//! synthetic bug to a handful of instructions, the campaign's rows and
//! corpus output must be byte-identical for any worker count, the
//! checked-in regression corpus must replay clean, and the shared-run
//! evaluator must give every invariant its standalone verdict.

use std::path::Path;

use slipstream_bench::{
    corpus_entry_text, enumerate_seeds, live_count, replay_corpus_dir, run_fuzz, shrink, FuzzConfig,
};
use slipstream_core::{
    check_all, standard_invariants, Invariant, SlipstreamConfig, SlipstreamProcessor,
};
use slipstream_isa::{assemble, ArchState, Instr, Program, Reg};
use slipstream_workloads::{benchmark, random_program_with_shape};

const FUEL: u64 = 3_000_000;

/// A synthetic "bug": the invariant is violated iff the program contains
/// a `mul`. Shrinking a violation must therefore converge onto (nearly)
/// only the offending instruction.
struct MulPresent;

impl Invariant for MulPresent {
    fn name(&self) -> &'static str {
        "synthetic-mul-present"
    }

    fn check(
        &self,
        program: &Program,
        _golden: &ArchState,
        _max_cycles: u64,
    ) -> Result<(), String> {
        if program
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Mul { .. }))
        {
            Err("program contains a mul".into())
        } else {
            Ok(())
        }
    }
}

/// First enumerated seed whose generated program contains a `mul`.
fn seed_with_mul(cfg: &FuzzConfig) -> u64 {
    enumerate_seeds(cfg.seeds, cfg.seed)
        .into_iter()
        .find(|&s| {
            let (p, _) = random_program_with_shape(s, cfg.prog);
            p.instrs().iter().any(|i| matches!(i, Instr::Mul { .. }))
        })
        .expect("some generated program contains a mul")
}

fn small_config() -> FuzzConfig {
    let mut cfg = FuzzConfig::smoke();
    cfg.seeds = 24;
    cfg
}

#[test]
fn shrinker_minimizes_synthetic_bug_to_a_few_instructions() {
    let cfg = small_config();
    let seed = seed_with_mul(&cfg);
    let (program, shape) = random_program_with_shape(seed, cfg.prog);
    let from = live_count(&program);

    // The fuzz engine's predicate shape: functionally terminating AND
    // still violating.
    let mut fails = |p: &Program| {
        let mut g = ArchState::new(p);
        g.run_quiet(p, FUEL).is_ok() && MulPresent.check(p, &g, cfg.max_cycles).is_err()
    };
    let out = shrink(&program, &shape, cfg.shrink_evals, &mut fails);

    assert!(fails(&out.program), "minimized program must still fail");
    assert!(
        out.live_instrs <= 8,
        "synthetic bug must shrink to <= 8 instructions, got {} (from {from})",
        out.live_instrs
    );
    assert!(out.live_instrs < from, "shrinker must make progress");
    // The nops are gone entirely: the compacted form still contains the
    // mul, so the final pass must have adopted it.
    assert_eq!(out.live_instrs, out.program.len());
    assert!(out
        .program
        .instrs()
        .iter()
        .any(|i| matches!(i, Instr::Mul { .. })));
}

#[test]
fn shrinker_result_is_deterministic() {
    let cfg = small_config();
    let seed = seed_with_mul(&cfg);
    let (program, shape) = random_program_with_shape(seed, cfg.prog);
    let run = || {
        let mut fails = |p: &Program| {
            let mut g = ArchState::new(p);
            g.run_quiet(p, FUEL).is_ok() && MulPresent.check(p, &g, cfg.max_cycles).is_err()
        };
        shrink(&program, &shape, cfg.shrink_evals, &mut fails)
    };
    let a = run();
    let b = run();
    assert_eq!(a.program.instrs(), b.program.instrs());
    assert_eq!(a.evals, b.evals);
    assert_eq!(a.live_instrs, b.live_instrs);
}

#[test]
fn fuzz_rows_and_corpus_are_worker_count_independent() {
    // The synthetic invariant guarantees violations (and thus shrinks)
    // happen inside the worker pool, so this exercises the full
    // enumerate → check → shrink → reassemble path under contention.
    let mut cfg = small_config();
    let invariants: Vec<Box<dyn Invariant>> = vec![Box::new(MulPresent)];

    cfg.workers = 1;
    let serial = run_fuzz(&cfg, &invariants);
    cfg.workers = 3;
    let pooled = run_fuzz(&cfg, &invariants);

    assert_eq!(serial.rows_json(), pooled.rows_json());
    assert!(
        !serial.violations.is_empty(),
        "the sweep must find at least one mul-carrying program"
    );
    assert_eq!(serial.violations.len(), pooled.violations.len());
    for (a, b) in serial.violations.iter().zip(&pooled.violations) {
        assert_eq!(corpus_entry_text(a), corpus_entry_text(b));
    }
}

#[test]
fn real_invariants_hold_on_sampled_seeds() {
    let mut cfg = small_config();
    cfg.seeds = 8;
    let result = run_fuzz(&cfg, &standard_invariants());
    assert!(result.is_clean(), "violations: {:?}", result.violations);
    assert_eq!(result.checks(), 8 * standard_invariants().len() as u64);
}

#[test]
fn checked_in_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let n = replay_corpus_dir(&dir).expect("corpus must replay clean");
    assert!(n >= 5, "expected the seed corpus entries, found {n}");
}

fn golden(p: &Program) -> ArchState {
    let mut g = ArchState::new(p);
    g.run_quiet(p, FUEL).expect("program terminates");
    g
}

/// Every invariant's standalone verdict, in invariant order.
fn standalone(
    p: &Program,
    g: &ArchState,
    invariants: &[Box<dyn Invariant>],
    max_cycles: u64,
) -> Vec<Result<(), String>> {
    invariants
        .iter()
        .map(|inv| inv.check(p, g, max_cycles))
        .collect()
}

/// The configurations more than one standard invariant judges.
fn shared_configs() -> Vec<SlipstreamConfig> {
    let keys: Vec<SlipstreamConfig> = standard_invariants()
        .iter()
        .filter_map(|inv| inv.shared_run())
        .collect();
    let mut shared: Vec<SlipstreamConfig> = Vec::new();
    for k in &keys {
        if keys.iter().filter(|&o| o == k).count() > 1 && !shared.contains(k) {
            shared.push(k.clone());
        }
    }
    shared
}

#[test]
fn strict_mode_and_online_check_change_no_statistic() {
    // `check_all` judges `stats-sanity` and `cycle-accounting` on runs
    // with strict mode and the online checker on, where their own checks
    // run with both off. That is sound only if the checks change nothing.
    let shared = shared_configs();
    let thresholds: Vec<u32> = shared.iter().map(|c| c.confidence_threshold).collect();
    assert_eq!(thresholds, [32, 1], "the shared configurations");
    let cfg = FuzzConfig::full();
    let mut programs: Vec<(String, Program)> = enumerate_seeds(48, cfg.seed)
        .into_iter()
        .map(|seed| {
            (
                format!("seed {seed:#x}"),
                random_program_with_shape(seed, cfg.prog).0,
            )
        })
        .collect();
    // Fuzz programs are too cold for the IR-predictor to remove anything;
    // two small suite analogues exercise removal and recovery too.
    for name in ["gcc", "m88ksim"] {
        let w = benchmark(name, 0.02).expect("known benchmark");
        programs.push((name.to_string(), w.program));
    }
    for sc in &shared {
        let (mut skipped, mut recoveries) = (0, 0);
        for (label, program) in &programs {
            let run = |checked: bool| {
                let mut proc = SlipstreamProcessor::new(sc.clone(), program);
                if checked {
                    proc.set_strict(true);
                    proc.enable_online_check();
                }
                assert!(proc.run(cfg.max_cycles), "{label} must halt");
                (proc.stats(), *proc.a_core().stats(), *proc.r_core().stats())
            };
            let checked = run(true);
            assert_eq!(
                run(false),
                checked,
                "{label}, threshold {}: the checks changed a statistic",
                sc.confidence_threshold
            );
            skipped += checked.0.skipped;
            recoveries += checked.0.ir_mispredictions;
        }
        assert!(
            skipped > 0 && recoveries > 0,
            "threshold {}: the programs must exercise removal and recovery",
            sc.confidence_threshold
        );
    }
}

#[test]
fn check_all_equals_standalone_checks_on_sampled_seeds() {
    let cfg = small_config();
    let invariants = standard_invariants();
    for seed in enumerate_seeds(8, cfg.seed) {
        let (program, _) = random_program_with_shape(seed, cfg.prog);
        let g = golden(&program);
        assert_eq!(
            check_all(&program, &g, &invariants, cfg.max_cycles),
            standalone(&program, &g, &invariants, cfg.max_cycles),
            "seed {seed:#x}"
        );
    }
}

#[test]
fn check_all_equals_standalone_checks_on_a_wrong_golden() {
    let p = assemble("li r1, 5\nhalt").unwrap();
    let mut g = golden(&p);
    g.set_reg(Reg::new(1), 99); // corrupt the oracle
    let invariants = standard_invariants();
    let verdicts = check_all(&p, &g, &invariants, 1_000_000);
    assert_eq!(verdicts, standalone(&p, &g, &invariants, 1_000_000));
    // The core and all four slipstream oracles see the wrong register.
    assert_eq!(verdicts.iter().filter(|v| v.is_err()).count(), 5);
}

#[test]
fn check_all_falls_back_when_a_shared_run_does_not_halt() {
    let cfg = small_config();
    let (program, _) = random_program_with_shape(enumerate_seeds(1, cfg.seed)[0], cfg.prog);
    let g = golden(&program);
    let invariants = standard_invariants();
    let verdicts = check_all(&program, &g, &invariants, 3);
    assert_eq!(verdicts, standalone(&program, &g, &invariants, 3));
    for (inv, v) in invariants.iter().zip(&verdicts) {
        let detail = v.as_ref().expect_err("no run halts in 3 cycles");
        assert!(
            detail.ends_with("within 3 cycles"),
            "{}: {detail}",
            inv.name()
        );
    }
}

/// Shares a configuration the processor rejects at construction, so the
/// shared run panics; its own check reports a fixed detail, and its judge
/// passes anything, so a verdict shows which of the two ran.
struct RejectedConfig(&'static str);

impl Invariant for RejectedConfig {
    fn name(&self) -> &'static str {
        self.0
    }

    fn check(&self, _: &Program, _: &ArchState, _: u64) -> Result<(), String> {
        Err(format!("{}: own check", self.0))
    }

    fn shared_run(&self) -> Option<SlipstreamConfig> {
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.core.icache.bytes = 96; // six sets: not a power of two
        cfg.core.icache.line_bytes = 16;
        cfg.core.icache.assoc = 1;
        Some(cfg)
    }

    fn judge(&self, _: &SlipstreamProcessor, _: &ArchState) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn check_all_falls_back_when_a_shared_run_panics() {
    let p = assemble("li r1, 5\nhalt").unwrap();
    let g = golden(&p);
    let invariants: Vec<Box<dyn Invariant>> = vec![
        Box::new(RejectedConfig("rejected-a")),
        standard_invariants().remove(1),
        Box::new(RejectedConfig("rejected-b")),
    ];
    let verdicts = check_all(&p, &g, &invariants, 1_000_000);
    assert_eq!(verdicts, standalone(&p, &g, &invariants, 1_000_000));
    assert_eq!(
        verdicts,
        [
            Err("rejected-a: own check".to_string()),
            Ok(()),
            Err("rejected-b: own check".to_string()),
        ]
    );
}
