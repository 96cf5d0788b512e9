//! The per-layer metric registry of the traced run.
//!
//! Every traced run reports every name here, on every workload: a layer
//! the workload does not exercise reads 0 (for example `cpu.ss_s` on
//! `fuzz`), which is itself the finding that the layer carries no load
//! there. Names are grouped by the crate whose public items they time.

use slipstream_core::{standard_invariants, CpiCat};

/// The scheduler spans of `SlipstreamProcessor::run` (the windowed
/// default) that `core.other_s` is the remainder of. Each is exclusive, so
/// together with `core.other_s` they sum to `core.run_s`.
pub const CORE_SPANS: [&str; 8] = [
    "a_window_exec",
    "a_checkpoint",
    "a_rollback_replay",
    "a_boundary_apply",
    "a_recover_apply",
    "r_window_consume",
    "r_boundary_sync",
    "r_recovery_build",
];

/// Per-layer metric values, in registry order.
pub struct Layers {
    values: Vec<(String, &'static str, f64)>,
}

impl Layers {
    /// Every registered metric, each at 0.
    pub fn new() -> Layers {
        let mut names: Vec<(String, &'static str)> = Vec::new();
        let mut reg = |name: String, unit: &'static str| names.push((name, unit));
        reg("isa.assemble_s".into(), "s");
        reg("isa.oracle_s".into(), "s");
        reg("isa.oracle_mips".into(), "Minstr/s");
        reg("workloads.gen_s".into(), "s");
        reg("cpu.ss_s".into(), "s");
        reg("cpu.ss_ns_per_cycle".into(), "ns");
        reg("cpu.core_oracle_s".into(), "s");
        for stream in ["a", "r"] {
            for cat in CpiCat::ALL {
                reg(format!("cpu.cpi.{stream}.{}", cat.label()), "cycles");
            }
        }
        reg("predict.branch_misp_per_kinstr".into(), "1/kinstr");
        reg("core.new_s".into(), "s");
        reg("core.run_s".into(), "s");
        reg("core.ns_per_cycle".into(), "ns");
        reg("core.cost_ratio".into(), "ratio");
        for span in CORE_SPANS {
            reg(format!("core.{span}_s"), "s");
        }
        reg("core.other_s".into(), "s");
        reg("core.removal_pct".into(), "%");
        reg("core.ir_misp_per_kinstr".into(), "1/kinstr");
        reg("core.ir_penalty_cycles".into(), "cycles");
        reg("core.allocs_per_10k".into(), "count");
        reg("campaign.prepare_s".into(), "s");
        reg("campaign.site_p50_ms".into(), "ms");
        reg("campaign.site_p99_ms".into(), "ms");
        reg("campaign.site_samples".into(), "count");
        reg("campaign.sim_cycles".into(), "cycles");
        reg("campaign.worker_busy_pct".into(), "%");
        reg("campaign.allocs_per_run".into(), "count");
        reg("fuzz.seed_p50_ms".into(), "ms");
        reg("fuzz.seed_p99_ms".into(), "ms");
        reg("fuzz.seed_samples".into(), "count");
        for inv in standard_invariants() {
            reg(format!("fuzz.check.{}_s", inv.name()), "s");
        }
        reg("fuzz.worker_busy_pct".into(), "%");
        reg("telemetry.overhead_pct".into(), "%");
        reg("host.calib_mips".into(), "Minstr/s");
        Layers {
            values: names.into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        &mut self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not registered"))
            .2
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        *self.slot(name) = v;
    }

    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.slot(name) += v;
    }

    /// The current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not registered"))
            .2
    }

    /// `(name, unit, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, &'static str, f64)> {
        self.values.iter()
    }
}
