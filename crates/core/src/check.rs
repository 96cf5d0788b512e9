//! Differential invariant checkers — the pluggable oracle surface of the
//! fuzzing subsystem.
//!
//! The paper's central correctness claim is that the R-stream fully
//! validates the shortened A-stream, so *any* disagreement between a
//! timing model and the functional oracle is a bug in the reproduction.
//! Each [`Invariant`] here packages one such check as a pure function of
//! `(program, golden state)`: the cycle-level core against the oracle, the
//! full slipstream processor under each removal policy (with strict
//! post-recovery checks and the online functional checker engaged), and
//! structural sanity of the end-of-run statistics.
//!
//! Most invariants judge one finished slipstream run, and several judge
//! the same configuration. Such an invariant names its configuration
//! ([`Invariant::shared_run`]) and splits its `check` into "run" plus
//! [`Invariant::judge`]. [`check_all`] then runs each distinct
//! configuration once per program, with strict mode and the online
//! checker on, and judges every invariant that names it. Neither check
//! changes a statistic, so a checked run that stays silent is judged
//! exactly as each invariant's own run would be; a run that panics or
//! does not halt falls back to the invariants' own `check`s.
//!
//! Checkers never panic at their callers: internal simulator assertions
//! (strict mode, the online checker, the wedge watchdog) are caught and
//! converted into `Err` details, with the default panic printer suppressed
//! on the checking thread so a fuzz campaign's stderr stays readable.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use slipstream_cpu::{Core, CoreConfig, OracleDriver};
use slipstream_isa::{ArchState, Program, Retired};

use crate::config::{RemovalPolicy, SlipstreamConfig};
use crate::slipstream::SlipstreamProcessor;

/// One differential invariant, checkable on any `(program, golden)` pair.
///
/// Implementations must be deterministic — the fuzz engine relies on a
/// violated invariant staying violated while a shrinker re-checks
/// candidate reductions — and `Sync`, so one instance can serve a whole
/// worker pool.
pub trait Invariant: Sync {
    /// Stable, human-readable identifier (used in reports and corpus
    /// metadata).
    fn name(&self) -> &'static str;

    /// Checks the invariant. `golden` is the functional oracle's final
    /// state for `program`; `max_cycles` bounds every timing simulation.
    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String>;

    /// The slipstream configuration whose finished run this invariant
    /// judges, or `None` (the default) if [`check_all`] must call
    /// [`Invariant::check`] instead. Invariants naming equal
    /// configurations share one run.
    fn shared_run(&self) -> Option<SlipstreamConfig> {
        None
    }

    /// Judges a halted run of [`Invariant::shared_run`]'s configuration
    /// against `golden`: the same verdict `check` gives when its own run
    /// halts.
    fn judge(&self, proc: &SlipstreamProcessor, golden: &ArchState) -> Result<(), String> {
        let _ = (proc, golden);
        Err(format!("{}: names no shared run to judge", self.name()))
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}
static INSTALL_QUIET_HOOK: Once = Once::new();

struct QuietGuard(bool);

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET_PANICS.with(|q| q.set(self.0));
    }
}

/// Runs `f`, converting a panic into `Err` with the panic message as the
/// detail. While `f` runs, the default panic printer is suppressed on this
/// thread (the message is not lost — it becomes the `Err`); other threads
/// keep normal panic reporting.
pub fn catch_check(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_panic(f)
}

/// [`catch_check`] for a closure that yields a value.
fn catch_panic<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    INSTALL_QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    let _guard = QuietGuard(QUIET_PANICS.with(|q| q.replace(true)));
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Runs `cfg` on `program`, with strict mode and the online checker on if
/// `checked`; the processor if it halts within `max_cycles`.
fn finished_run(
    cfg: SlipstreamConfig,
    program: &Program,
    checked: bool,
    max_cycles: u64,
) -> Option<SlipstreamProcessor> {
    let mut proc = SlipstreamProcessor::new(cfg, program);
    if checked {
        proc.set_strict(true);
        proc.enable_online_check();
    }
    proc.run(max_cycles).then_some(proc)
}

fn compare_final_state(
    label: &str,
    regs: &[u64; slipstream_isa::NUM_REGS],
    mem_diff: Option<u64>,
    golden: &ArchState,
) -> Result<(), String> {
    if regs != golden.regs() {
        let r = (0..slipstream_isa::NUM_REGS)
            .find(|&i| regs[i] != golden.regs()[i])
            .expect("some register differs");
        return Err(format!(
            "{label}: register r{r} = {:#x}, oracle has {:#x}",
            regs[r],
            golden.regs()[r]
        ));
    }
    if let Some(addr) = mem_diff {
        return Err(format!("{label}: memory differs from oracle at {addr:#x}"));
    }
    Ok(())
}

/// Invariant 1: the cycle-level out-of-order core, driven by the oracle's
/// control flow, retires exactly the oracle's architectural state.
pub struct CoreOracle;

impl Invariant for CoreOracle {
    fn name(&self) -> &'static str {
        "core-oracle"
    }

    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String> {
        catch_check(|| {
            let mut core = Core::new(CoreConfig::ss_64x4(), program.initial_memory());
            let mut driver = OracleDriver::new(program);
            let mut retired: Vec<Retired> = Vec::new();
            let mut cycles = 0u64;
            while !core.halted() {
                if cycles >= max_cycles {
                    return Err(format!("core did not halt within {max_cycles} cycles"));
                }
                core.cycle(&mut driver, &mut retired);
                cycles += 1;
            }
            compare_final_state(
                "core-oracle",
                core.arch_regs(),
                core.mem().first_difference(golden.mem()),
                golden,
            )
        })
    }
}

/// Invariant 2: the full slipstream processor — removal, delay buffer,
/// recovery — reaches the oracle's architectural state, with the strict
/// post-recovery checks and the online functional checker both clean.
pub struct SlipstreamOracle {
    label: &'static str,
    policy: RemovalPolicy,
    confidence_threshold: Option<u32>,
    /// Extra AR-SMT lockstep accounting (only meaningful with
    /// `RemovalPolicy::none()`).
    lockstep: bool,
}

impl SlipstreamOracle {
    /// The paper's default removal policy (branches + ineffectual writes).
    pub fn all() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-all",
            policy: RemovalPolicy::all(),
            confidence_threshold: None,
            lockstep: false,
        }
    }

    /// Figure 8 (bottom): branches and their chains only.
    pub fn branches_only() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-branches-only",
            policy: RemovalPolicy::branches_only(),
            confidence_threshold: None,
            lockstep: false,
        }
    }

    /// AR-SMT mode: no removal; both streams retire in lockstep totals and
    /// no IR-misprediction may fire.
    pub fn ar_smt() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-ar-smt",
            policy: RemovalPolicy::none(),
            confidence_threshold: None,
            lockstep: true,
        }
    }

    /// Full removal with a confidence threshold of 1 — provokes wrong
    /// removal and exercises the recovery path hard.
    pub fn aggressive() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-aggressive",
            policy: RemovalPolicy::all(),
            confidence_threshold: Some(1),
            lockstep: false,
        }
    }

    fn config(&self) -> SlipstreamConfig {
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.removal = self.policy;
        if let Some(t) = self.confidence_threshold {
            cfg.confidence_threshold = t;
        }
        cfg
    }
}

impl Invariant for SlipstreamOracle {
    fn name(&self) -> &'static str {
        self.label
    }

    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String> {
        catch_check(|| {
            let proc = finished_run(self.config(), program, true, max_cycles).ok_or_else(|| {
                format!("{}: did not halt within {max_cycles} cycles", self.label)
            })?;
            self.judge(&proc, golden)
        })
    }

    fn shared_run(&self) -> Option<SlipstreamConfig> {
        Some(self.config())
    }

    fn judge(&self, proc: &SlipstreamProcessor, golden: &ArchState) -> Result<(), String> {
        compare_final_state(
            self.label,
            proc.r_core().arch_regs(),
            proc.r_core().mem().first_difference(golden.mem()),
            golden,
        )?;
        if self.lockstep {
            let s = proc.stats();
            if s.skipped != 0 {
                return Err(format!(
                    "{}: skipped {} with removal off",
                    self.label, s.skipped
                ));
            }
            if s.ir_mispredictions != 0 {
                return Err(format!(
                    "{}: {} IR-mispredictions with removal off",
                    self.label, s.ir_mispredictions
                ));
            }
            if s.a_retired != s.r_retired {
                return Err(format!(
                    "{}: A retired {} but R retired {} in AR-SMT mode",
                    self.label, s.a_retired, s.r_retired
                ));
            }
        }
        Ok(())
    }
}

/// The standalone `check` of an invariant that judges its shared
/// configuration without strict mode or the online checker.
fn judge_unchecked_run(
    inv: &dyn Invariant,
    program: &Program,
    golden: &ArchState,
    max_cycles: u64,
) -> Result<(), String> {
    catch_check(|| {
        let cfg = inv.shared_run().expect("the invariant names a shared run");
        let proc = finished_run(cfg, program, false, max_cycles)
            .ok_or_else(|| format!("did not halt within {max_cycles} cycles"))?;
        inv.judge(&proc, golden)
    })
}

/// Invariant 3: end-of-run statistics are internally consistent — retired
/// counts match the oracle, IR-misprediction accounting balances, and the
/// misprediction log's cycle column is monotone.
pub struct StatsSanity;

impl Invariant for StatsSanity {
    fn name(&self) -> &'static str {
        "stats-sanity"
    }

    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String> {
        judge_unchecked_run(self, program, golden, max_cycles)
    }

    fn shared_run(&self) -> Option<SlipstreamConfig> {
        Some(SlipstreamConfig::cmp_2x64x4())
    }

    fn judge(&self, proc: &SlipstreamProcessor, golden: &ArchState) -> Result<(), String> {
        let s = proc.stats();
        if !s.halted {
            return Err("halted flag disagrees with run() returning true".into());
        }
        if s.r_retired != golden.retired() {
            return Err(format!(
                "R-stream retired {} dynamic instructions, oracle retired {}",
                s.r_retired,
                golden.retired()
            ));
        }
        if s.cycles == 0 || s.a_retired == 0 {
            return Err(format!(
                "degenerate run: cycles {} a_retired {}",
                s.cycles, s.a_retired
            ));
        }
        let by_reason: u64 = s.skipped_by_reason.iter().map(|&(_, n)| n).sum();
        if by_reason != s.skipped {
            return Err(format!(
                "skip accounting: by-reason total {} != skipped {}",
                by_reason, s.skipped
            ));
        }
        if s.skipped > s.r_retired {
            return Err(format!(
                "skipped {} exceeds the dynamic stream {}",
                s.skipped, s.r_retired
            ));
        }
        if s.ir_mispredictions != s.misp_cycles.len() as u64 {
            return Err(format!(
                "IR-misprediction count {} != log length {}",
                s.ir_mispredictions,
                s.misp_cycles.len()
            ));
        }
        if s.misp_cycles.windows(2).any(|w| w[0] > w[1]) {
            return Err("misprediction log cycles are not monotone".into());
        }
        if s.misp_cycles.last().is_some_and(|&c| c > s.cycles) {
            return Err("misprediction logged past the end of the run".into());
        }
        let ipc = s.r_retired as f64 / s.cycles as f64;
        if (s.ipc - ipc).abs() > 1e-9 {
            return Err(format!("reported IPC {} != {}", s.ipc, ipc));
        }
        Ok(())
    }
}

/// Invariant 4: exact cycle accounting — for both cores, the CPI stack's
/// category sum equals the core's cycle counter (every cycle attributed to
/// exactly one exclusive bucket), after a full run including whatever
/// recoveries the program provoked. The aggressive config maximizes
/// recovery traffic through the accounting paths.
pub struct CycleAccounting;

impl Invariant for CycleAccounting {
    fn name(&self) -> &'static str {
        "cycle-accounting"
    }

    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String> {
        judge_unchecked_run(self, program, golden, max_cycles)
    }

    fn shared_run(&self) -> Option<SlipstreamConfig> {
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.confidence_threshold = 1; // provoke recoveries
        Some(cfg)
    }

    fn judge(&self, proc: &SlipstreamProcessor, _golden: &ArchState) -> Result<(), String> {
        for (label, core) in [("A", proc.a_core()), ("R", proc.r_core())] {
            let s = core.stats();
            if s.cpi.total() != s.cycles {
                return Err(format!(
                    "{label}-stream CPI stack sums to {} but the core ran {} cycles",
                    s.cpi.total(),
                    s.cycles
                ));
            }
            let split = s.fetch_fill_stall_cycles
                + s.fetch_redirect_stall_cycles
                + s.fetch_external_stall_cycles;
            if split > s.cycles {
                return Err(format!(
                    "{label}-stream fetch-stall split {split} exceeds {} cycles",
                    s.cycles
                ));
            }
        }
        Ok(())
    }
}

/// The standard invariant set swept by the differential fuzzing campaign,
/// in reporting order.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(CoreOracle),
        Box::new(SlipstreamOracle::all()),
        Box::new(SlipstreamOracle::branches_only()),
        Box::new(SlipstreamOracle::ar_smt()),
        Box::new(SlipstreamOracle::aggressive()),
        Box::new(StatsSanity),
        Box::new(CycleAccounting),
    ]
}

/// Evaluates `invariants` on one program: one verdict per invariant, in
/// invariant order, equal (`Err` details included) to what each
/// invariant's own [`Invariant::check`] returns.
///
/// Each distinct [`Invariant::shared_run`] configuration runs once, with
/// strict mode and the online checker on, and every invariant naming it
/// judges that run; the processor is dropped before the next one is
/// built. If a shared run panics or does not halt, its invariants fall
/// back to their own `check`. Invariants without a shared run are checked
/// on their own.
pub fn check_all(
    program: &Program,
    golden: &ArchState,
    invariants: &[Box<dyn Invariant>],
    max_cycles: u64,
) -> Vec<Result<(), String>> {
    let keys: Vec<Option<SlipstreamConfig>> = invariants.iter().map(|i| i.shared_run()).collect();
    let mut verdicts: Vec<Option<Result<(), String>>> = vec![None; invariants.len()];
    for (i, inv) in invariants.iter().enumerate() {
        if verdicts[i].is_some() {
            continue;
        }
        let Some(cfg) = &keys[i] else {
            verdicts[i] = Some(inv.check(program, golden, max_cycles));
            continue;
        };
        let run = catch_panic(|| Ok(finished_run(cfg.clone(), program, true, max_cycles)));
        for ((sharer, key), verdict) in invariants.iter().zip(&keys).zip(&mut verdicts).skip(i) {
            if key.as_ref() != Some(cfg) {
                continue;
            }
            *verdict = Some(match &run {
                Ok(Some(proc)) => catch_check(|| sharer.judge(proc, golden)),
                _ => sharer.check(program, golden, max_cycles),
            });
        }
    }
    verdicts
        .into_iter()
        .map(|v| v.expect("every invariant has a verdict"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_isa::assemble;

    fn golden(p: &Program) -> ArchState {
        let mut st = ArchState::new(p);
        st.run_quiet(p, 1_000_000).expect("terminates");
        st
    }

    #[test]
    fn standard_invariants_pass_on_a_simple_program() {
        let p = assemble("li r1, 5\nloop: addi r2, r2, 3\naddi r1, r1, -1\nbne r1, r0, loop\nhalt")
            .unwrap();
        let g = golden(&p);
        for inv in standard_invariants() {
            inv.check(&p, &g, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", inv.name()));
        }
    }

    #[test]
    fn checkers_report_wrong_golden_as_violation() {
        let p = assemble("li r1, 5\nhalt").unwrap();
        let mut g = golden(&p);
        g.set_reg(slipstream_isa::Reg::new(1), 99); // corrupt the oracle
        assert!(CoreOracle.check(&p, &g, 1_000_000).is_err());
        assert!(SlipstreamOracle::all().check(&p, &g, 1_000_000).is_err());
    }

    #[test]
    fn catch_check_converts_panics_to_errors() {
        let r = catch_check(|| panic!("boom {}", 42));
        assert_eq!(r, Err("panicked: boom 42".to_string()));
        assert_eq!(catch_check(|| Ok(())), Ok(()));
        // The quiet flag is restored even after a panic.
        let r2 = catch_check(|| -> Result<(), String> { panic!("again") });
        assert!(r2.is_err());
    }
}
