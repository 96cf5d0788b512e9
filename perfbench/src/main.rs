//! The repository benchmark: three closed-loop batch workloads that drive
//! the simulator crates through their public items, each timed end to end
//! (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|campaign|fuzz|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` beside this crate for what each workload and metric
//! is for.

mod alloc;
mod campaign;
mod fuzz;
mod layers;
mod sim;
mod stats;
mod suite;

use std::process::ExitCode;

use sim::{Outcome, Params};
use stats::quartiles;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// splitmix64: the benchmark's own input generator, kept apart from the
/// simulator's PRNG so a change there cannot change the inputs here.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A workload, and the names its numbers go by in the paper's terms.
struct Workload {
    name: &'static str,
    run: fn(&Params) -> Outcome,
    /// Name and unit of `ops_per_s` on this workload.
    rate: (&'static str, &'static str),
    /// Name of `result_pct` on this workload.
    result: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "suite",
        run: suite::run,
        rate: ("sim_mips", "M instr/s"),
        result: "ipc_gain_pct",
    },
    Workload {
        name: "campaign",
        run: campaign::run,
        rate: ("runs_per_s", "runs/s"),
        result: "coverage_pct",
    },
    Workload {
        name: "fuzz",
        run: fuzz::run,
        rate: ("seeds_per_s", "seeds/s"),
        result: "check_pass_pct",
    },
];

/// One workload's result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
}

fn run_workload(w: &Workload, p: &Params) -> Report {
    let out = (w.run)(p);
    let peak_rss = sim::peak_rss_mib();
    let calib = sim::calibration_mips();
    let ops = out.ops_per_s;
    let (q1, q3) = quartiles(&out.rates);
    let (rate_name, rate_unit) = w.rate;
    println!(
        "workload {}: seed {}, {} s{}",
        w.name,
        p.seed,
        p.seconds,
        if p.trace { ", traced" } else { "" }
    );
    println!(
        "  {rate_name:<15} = {ops:.4} {rate_unit}  (ops_per_s; {} iterations, q1 {q1:.4}, q3 {q3:.4})",
        out.rates.len()
    );
    println!(
        "  setup_s         = {:.6} s  (set-up repeated after every iteration)",
        out.setup_s
    );
    println!("  peak_rss_mb     = {peak_rss:.2} MiB");
    println!("  {:<15} = {:.4} %  (result_pct)", w.result, out.result_pct);
    println!(
        "  attempted {}, failed {}, digest {:#018x}",
        out.attempted, out.failed, out.digest
    );
    println!("  host.calib_mips = {calib:.4} Minstr/s  (recorded, not applied)");
    for problem in &out.problems {
        println!("  FAILED: {problem}");
    }
    let metrics = match out.layers {
        None => vec![
            ("ops_per_s".to_string(), ops, "ops/s".to_string()),
            ("setup_s".to_string(), out.setup_s, "s".to_string()),
            ("peak_rss_mb".to_string(), peak_rss, "MiB".to_string()),
            ("result_pct".to_string(), out.result_pct, "%".to_string()),
        ],
        Some(mut layers) => {
            layers.set("host.calib_mips", calib);
            let spans: f64 = layers::CORE_SPANS
                .iter()
                .map(|s| layers.get(&format!("core.{s}_s")))
                .sum();
            println!(
                "  core spans {:.6} s + core.other_s {:.6} s = core.run_s {:.6} s",
                spans,
                layers.get("core.other_s"),
                layers.get("core.run_s")
            );
            layers
                .iter()
                .map(|(n, u, v)| (n.clone(), *v, u.to_string()))
                .collect()
        }
    };
    Report {
        correct: out.problems.is_empty() && out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    }
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; no metric should produce one.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let finite = r.metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct && finite,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

const USAGE: &str =
    "usage: perfbench --workload suite|campaign|fuzz|all --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => p.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                p.seconds = s as f64;
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, p))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, p) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reports: Vec<(&str, Report)> = WORKLOADS
        .iter()
        .filter(|w| workload == "all" || w.name == workload)
        .map(|w| {
            let r = run_workload(w, &p);
            if workload == "all" {
                println!("{}", json_line(&r));
            }
            (w.name, r)
        })
        .collect();
    let combined = match reports.as_slice() {
        [(_, only)] => json_line(only),
        _ => json_line(&Report {
            correct: reports.iter().all(|(_, r)| r.correct),
            attempted: reports.iter().map(|(_, r)| r.attempted).sum(),
            failed: reports.iter().map(|(_, r)| r.failed).sum(),
            metrics: reports
                .iter()
                .flat_map(|(w, r)| {
                    r.metrics
                        .iter()
                        .map(move |(n, v, u)| (format!("{w}.{n}"), *v, u.clone()))
                })
                .collect(),
        }),
    };
    println!("{combined}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, p) = parse(&args("--workload fuzz --seed 7 --seconds 3 --trace 1")).expect("ok");
        assert_eq!(w, "fuzz");
        assert_eq!((p.seed, p.seconds, p.trace), (7, 3.0, true));
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--workload suite --trace 2")).is_err());
        assert!(parse(&args("--workload suite --seconds 0")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("a".into(), 1.25, "s".into()),
                ("b".into(), f64::NAN, "%".into()),
            ],
        };
        assert_eq!(
            json_line(&r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"%\"}}}"
        );
    }
}
