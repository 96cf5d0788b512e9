//! What every workload shares: the measurement loop, set-up timing, the
//! final-state check, and the timed calls into the simulator crates whose
//! costs the traced run attributes to layers.

use std::time::Instant;

use slipstream_bench::{available_workers, MAX_CYCLES};
use slipstream_core::telemetry::{SpanKind, Telemetry};
use slipstream_core::{
    golden_state, run_superscalar, BaselineStats, CpiCat, CpiStack, SlipstreamConfig,
    SlipstreamProcessor,
};
use slipstream_cpu::CoreConfig;
use slipstream_isa::{assemble, ArchState, Memory, Program, NUM_REGS};
use slipstream_workloads::{benchmark, Workload};

use crate::alloc;
use crate::layers::{Layers, CORE_SPANS};
use crate::stats::median;

/// Command-line parameters of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed the workload derives its inputs from.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Params {
    /// Seconds the end-to-end measurement loop gets: all of them in an
    /// untraced run; half in a traced run, whose other half goes to the
    /// traced iteration it compares against the loop.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Worker threads of the campaign and fuzz pools: every CPU but one, and
/// at least one. The spare CPU absorbs the rest of the host's load; with
/// every CPU busy, two-worker runs on a 2-CPU host spread 17 % in
/// throughput and 38 % in peak memory across seeds, against 7 % and 4 %
/// with one worker.
pub fn workers() -> usize {
    available_workers().saturating_sub(1).max(1)
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// Operations attempted (simulation runs, injection runs, seeds).
    pub attempted: u64,
    /// Operations whose result was wrong.
    pub failed: u64,
    /// Output checks that failed outside any single operation
    /// (determinism across iterations, committed cross-checks).
    pub problems: Vec<String>,
    /// Digest of one iteration's simulated results.
    pub digest: u64,
    /// Work units completed per host second: the end-to-end throughput.
    pub ops_per_s: f64,
    /// Work units per host second of each iteration.
    pub rates: Vec<f64>,
    /// Set-up time in seconds.
    pub setup_s: f64,
    /// The workload's deterministic headline result, in percent.
    pub result_pct: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
}

/// Runs `setup` once and returns its result and wall seconds.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let state = std::hint::black_box(setup());
    (state, secs(t0))
}

/// What [`measure`] timed.
pub struct Measured {
    /// Each iteration's `(work units, wall seconds)`.
    pub iters: Vec<(f64, f64)>,
    /// Wall seconds of each set-up repeated between iterations.
    pub setups: Vec<f64>,
}

impl Measured {
    /// Work units per second over the whole loop.
    ///
    /// A mean, not a median of per-iteration rates: on a shared host whose
    /// speed switches between a fast and a slow state for tens of seconds
    /// at a time, a per-run median reports whichever state held most of
    /// the run. Ten 40 s `suite` runs on a 2-CPU VM spread 11 % with the
    /// mean against 20 % with the median.
    pub fn throughput(&self) -> f64 {
        let units: f64 = self.iters.iter().map(|&(u, _)| u).sum();
        let secs: f64 = self.iters.iter().map(|&(_, dt)| dt).sum();
        units / secs
    }

    /// Work units per second of each iteration.
    pub fn rates(&self) -> Vec<f64> {
        self.iters.iter().map(|&(u, dt)| u / dt).collect()
    }

    /// Median wall seconds of one iteration.
    pub fn median_iter_s(&self) -> f64 {
        median(&self.iters.iter().map(|&(_, dt)| dt).collect::<Vec<_>>())
    }

    /// `setup_s`: the mean of the first set-up and every repeat, for the
    /// same reason as [`Measured::throughput`] (17 % against 31 % spread
    /// with the median).
    pub fn setup_s(&self, first: f64) -> f64 {
        (first + self.setups.iter().sum::<f64>()) / (1 + self.setups.len()) as f64
    }
}

/// Closed-loop measurement: runs `iteration` back to back, starting
/// another only while it is expected to finish within `seconds`, and at
/// least once. `iteration` returns the work units it completed. After each
/// iteration `resetup` repeats the workload's set-up, outside the
/// iteration's time, so set-up is sampled across the same stretch of host
/// time as the throughput.
pub fn measure(
    seconds: f64,
    mut iteration: impl FnMut() -> f64,
    mut resetup: impl FnMut(),
) -> Measured {
    let start = Instant::now();
    let mut m = Measured {
        iters: Vec::new(),
        setups: Vec::new(),
    };
    loop {
        let t0 = Instant::now();
        let units = iteration();
        let dt = secs(t0);
        m.iters.push((units, dt));
        let t0 = Instant::now();
        resetup();
        m.setups.push(secs(t0));
        if start.elapsed().as_secs_f64() + dt > seconds {
            return m;
        }
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Compares a final architectural state with the functional oracle's the
/// way the fuzz invariants do: every register, then the first differing
/// memory byte.
pub fn check_final_state(
    label: &str,
    regs: &[u64; NUM_REGS],
    mem: &Memory,
    golden: &ArchState,
) -> Result<(), String> {
    if let Some(r) = (0..NUM_REGS).find(|&i| regs[i] != golden.regs()[i]) {
        return Err(format!(
            "{label}: register r{r} = {:#x}, oracle has {:#x}",
            regs[r],
            golden.regs()[r]
        ));
    }
    match mem.first_difference(golden.mem()) {
        Some(addr) => Err(format!("{label}: memory differs from oracle at {addr:#x}")),
        None => Ok(()),
    }
}

/// Host time and simulated counts of superscalar-baseline runs.
#[derive(Default)]
pub struct SsTotals {
    /// Seconds in `run_superscalar`, every model.
    pub secs: f64,
    /// Seconds in `run_superscalar` on SS(64x4), the core each CMP half is.
    pub ss64_secs: f64,
    /// Simulated SS(64x4) cycles.
    pub ss64_cycles: u64,
}

/// One `run_superscalar` call, checked to halt having retired the
/// oracle's dynamic instruction count.
pub fn ss_run(
    core: CoreConfig,
    program: &Program,
    golden: &ArchState,
    totals: Option<&mut SsTotals>,
) -> Result<BaselineStats, String> {
    let is_ss64 = core == CoreConfig::ss_64x4();
    let label = if is_ss64 { "SS(64x4)" } else { "SS(128x8)" };
    let tp = SlipstreamConfig::cmp_2x64x4().trace_pred;
    let t0 = Instant::now();
    let stats = run_superscalar(core, tp, program, MAX_CYCLES);
    if let Some(t) = totals {
        let dt = secs(t0);
        t.secs += dt;
        if is_ss64 {
            t.ss64_secs += dt;
            t.ss64_cycles += stats.core.cycles;
        }
    }
    if !stats.halted {
        return Err(format!("{label}: did not halt"));
    }
    if stats.core.retired != golden.retired() {
        return Err(format!(
            "{label}: retired {} instructions, oracle retired {}",
            stats.core.retired,
            golden.retired()
        ));
    }
    Ok(stats)
}

/// Host time, spans and simulated counts of CMP slipstream runs.
#[derive(Default)]
pub struct CmpTotals {
    new_s: f64,
    run_s: f64,
    cycles: u64,
    retired: u64,
    allocs: u64,
    spans: [f64; CORE_SPANS.len()],
    // The rest covers only full-removal runs, the configuration whose IPC
    // `ipc_gain_pct` reports.
    cpi_a: CpiStack,
    cpi_r: CpiStack,
    r_retired: u64,
    a_branch_misp: u64,
    skipped: u64,
    ir_misps: u64,
    penalty_cycles: f64,
}

impl CmpTotals {
    /// Writes the `core.*`, `cpu.cpi.*` and `predict.*` metrics.
    /// `ss_ns_per_cycle` is the SS(64x4) host cost per cycle, the base of
    /// `core.cost_ratio`.
    pub fn write(&self, layers: &mut Layers, ss_ns_per_cycle: f64) {
        layers.add("core.new_s", self.new_s);
        layers.add("core.run_s", self.run_s);
        let ns_per_cycle = ratio(1e9 * self.run_s, self.cycles as f64);
        layers.set("core.ns_per_cycle", ns_per_cycle);
        layers.set("core.cost_ratio", ratio(ns_per_cycle, ss_ns_per_cycle));
        for (span, s) in CORE_SPANS.iter().zip(self.spans) {
            layers.add(&format!("core.{span}_s"), s);
        }
        layers.add("core.other_s", self.run_s - self.spans.iter().sum::<f64>());
        for cat in CpiCat::ALL {
            layers.add(
                &format!("cpu.cpi.a.{}", cat.label()),
                self.cpi_a.get(cat) as f64,
            );
            layers.add(
                &format!("cpu.cpi.r.{}", cat.label()),
                self.cpi_r.get(cat) as f64,
            );
        }
        let r = self.r_retired as f64;
        layers.set(
            "predict.branch_misp_per_kinstr",
            ratio(1e3 * self.a_branch_misp as f64, r),
        );
        layers.set("core.removal_pct", ratio(100.0 * self.skipped as f64, r));
        layers.set(
            "core.ir_misp_per_kinstr",
            ratio(1e3 * self.ir_misps as f64, r),
        );
        layers.set(
            "core.ir_penalty_cycles",
            ratio(self.penalty_cycles, self.ir_misps as f64),
        );
        layers.set(
            "core.allocs_per_10k",
            ratio(1e4 * self.allocs as f64, self.retired as f64),
        );
    }
}

fn span_secs(tel: &Telemetry, label: &str) -> f64 {
    let kind = SpanKind::ALL
        .iter()
        .copied()
        .find(|k| k.label() == label)
        .unwrap_or_else(|| panic!("no telemetry span `{label}`"));
    tel.span(kind).total_nanos as f64 / 1e9
}

/// One CMP(2x64x4) run through `SlipstreamProcessor::run` (the library's
/// default scheduler), checked to halt with the R-stream's final state
/// equal to the oracle's. With `totals`, the run is traced: construction
/// and run are timed, the host telemetry spans are collected, and heap
/// allocations made by this thread during the run are counted.
/// `headline` marks the full-removal runs whose simulated counts feed the
/// IPC-related metrics.
pub fn cmp_run(
    label: &str,
    cfg: SlipstreamConfig,
    program: &Program,
    golden: &ArchState,
    totals: Option<&mut CmpTotals>,
    headline: bool,
) -> Result<SlipstreamProcessor, String> {
    let t0 = Instant::now();
    let mut proc = SlipstreamProcessor::new(cfg, program);
    let new_s = secs(t0);
    if totals.is_some() {
        proc.enable_telemetry();
    }
    let allocs0 = alloc::thread_calls();
    let t0 = Instant::now();
    let halted = proc.run(MAX_CYCLES);
    let run_s = secs(t0);
    let allocs = alloc::thread_calls() - allocs0;
    if let Some(t) = totals {
        let stats = proc.stats();
        let tel = proc.take_telemetry().expect("telemetry was enabled");
        t.new_s += new_s;
        t.run_s += run_s;
        t.cycles += stats.cycles;
        t.retired += stats.a_retired + stats.r_retired;
        t.allocs += allocs;
        for (slot, span) in t.spans.iter_mut().zip(CORE_SPANS) {
            *slot += span_secs(&tel, span);
        }
        if headline {
            t.cpi_a = t.cpi_a.merge(&stats.a_core.cpi);
            t.cpi_r = t.cpi_r.merge(&stats.r_core.cpi);
            t.r_retired += stats.r_retired;
            t.a_branch_misp += stats.a_core.branch_mispredicts;
            t.skipped += stats.skipped;
            t.ir_misps += stats.ir_mispredictions;
            t.penalty_cycles += stats.avg_ir_penalty * stats.ir_mispredictions as f64;
        }
    }
    if !halted {
        return Err(format!("{label}: did not halt"));
    }
    check_final_state(
        label,
        proc.r_core().arch_regs(),
        proc.r_core().mem(),
        golden,
    )?;
    Ok(proc)
}

/// Host time of assembling benchmarks and running the functional oracle.
#[derive(Default)]
pub struct IsaTotals {
    assemble_s: f64,
    oracle_s: f64,
    oracle_instrs: u64,
}

impl IsaTotals {
    /// Writes the `isa.*` metrics.
    pub fn write(&self, layers: &mut Layers) {
        layers.add("isa.assemble_s", self.assemble_s);
        layers.add("isa.oracle_s", self.oracle_s);
        layers.set(
            "isa.oracle_mips",
            ratio(self.oracle_instrs as f64 / 1e6, self.oracle_s),
        );
    }
}

/// Assembles benchmark `name` at `scale` and runs the functional oracle
/// on it, timing both with `totals`.
pub fn assemble_with_golden(
    name: &str,
    scale: f64,
    totals: Option<&mut IsaTotals>,
) -> (Workload, ArchState) {
    let t0 = Instant::now();
    let workload = benchmark(name, scale).expect("a suite benchmark name");
    let t1 = Instant::now();
    let golden = golden_state(&workload.program, ORACLE_FUEL);
    if let Some(t) = totals {
        t.assemble_s += t1.duration_since(t0).as_secs_f64();
        t.oracle_s += secs(t1);
        t.oracle_instrs += golden.retired();
    }
    (workload, golden)
}

/// Instruction budget of the functional oracle, as the campaign engine
/// gives it.
const ORACLE_FUEL: u64 = 4 * MAX_CYCLES;

/// Host speed probe: the fixed arithmetic loop of the repository's
/// `throughput` harness on SS(64x4), median of three, in simulated
/// million instructions per second. Recorded beside every result and
/// never used to scale one: on a shared host it does not move together
/// with the workloads.
pub fn calibration_mips() -> f64 {
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
    let tp = SlipstreamConfig::cmp_2x64x4().trace_pred;
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let stats = run_superscalar(CoreConfig::ss_64x4(), tp, &p, MAX_CYCLES);
            assert!(stats.halted, "calibration loop did not complete");
            stats.core.retired as f64 / secs(t0) / 1e6
        })
        .collect();
    median(&runs)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The FNV-1a digest entries of one CPI stack.
pub fn digest_cpi(d: &mut crate::stats::Digest, cpi: &CpiStack) {
    for (cat, n) in cpi.entries() {
        d.str(cat.label());
        d.u64(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_isa::Reg;

    #[test]
    fn final_state_check_flags_a_flipped_register_and_memory() {
        let p = assemble("li r1, 5\nli r2, 0x100000\nst r1, 0(r2)\nhalt").expect("assembles");
        let golden = golden_state(&p, 1000);
        let cfg = SlipstreamConfig::cmp_2x64x4();
        let mut proc = SlipstreamProcessor::new(cfg.clone(), &p);
        assert!(proc.run(MAX_CYCLES));
        let regs = *proc.r_core().arch_regs();
        let mem = proc.r_core().mem();
        assert_eq!(check_final_state("t", &regs, mem, &golden), Ok(()));
        assert_eq!(
            cmp_run("t", cfg, &p, &golden, None, true).map(|_| ()),
            Ok(())
        );

        let mut flipped = regs;
        flipped[1] ^= 1 << 3;
        let err = check_final_state("t", &flipped, mem, &golden).expect_err("flip detected");
        assert!(err.contains("register r1"), "{err}");

        let mut bad_golden = golden.clone();
        bad_golden.mem_mut().store_word(0x10_0000, 6);
        let err = check_final_state("t", &regs, mem, &bad_golden).expect_err("store detected");
        assert!(err.contains("memory differs"), "{err}");

        let mut bad_golden = golden;
        bad_golden.set_reg(Reg::new(1), 4);
        assert!(cmp_run(
            "t",
            SlipstreamConfig::cmp_2x64x4(),
            &p,
            &bad_golden,
            None,
            true
        )
        .is_err());
    }
}
