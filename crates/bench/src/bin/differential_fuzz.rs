//! Differential fuzzing campaign: random programs vs the functional
//! oracle, with automatic test-case minimization.
//!
//! Sweeps thousands of seeded `random_program`s across a worker pool; each
//! program is checked against the standard invariant battery (cycle-level
//! core vs oracle, slipstream under every removal policy with strict +
//! online checks, stats sanity, cycle accounting), with one shared run
//! per distinct slipstream configuration. Violations are delta-debugged
//! down to minimal reproducers and printed as assembly; `--emit-corpus`
//! writes them into the regression corpus at `crates/bench/corpus/`.
//!
//! ```text
//! differential_fuzz [--seeds N] [--workers W] [--seed X] [--out PATH]
//!                   [--smoke] [--check] [--scaling-probe] [--emit-corpus]
//!                   [--trace] [--corpus DIR] [--replay PATH]
//!                   [--telemetry PATH]
//! ```
//!
//! `--smoke` runs the reduced-scale CI gate (≤ 10 s): same code path,
//! fewer seeds, smaller programs, corpus replay included, sanity
//! assertions that fail the build on any divergence, and no JSON artifact
//! unless `--out` is given. `--check` is the drift gate for the committed
//! `BENCH_fuzz.json`: it reruns the full sweep and fails unless its `rows`
//! object is byte-identical to the committed one (the host-timing
//! `throughput` object is not compared), writing nothing unless `--out`
//! is given. `--replay PATH` only replays a corpus entry (or a directory
//! of them) and exits. `--scaling-probe` reruns the sweep at 1 worker and
//! asserts the rows are byte-identical. `--trace` writes a flight-recorder
//! trace of each violation's minimized program next to its `.ssir`
//! reproducer, headed by the first divergent event against the
//! functional oracle (implies writing the reproducers too). `--telemetry
//! PATH` collects host telemetry (per-seed and shrink-pass spans, fuzz
//! counters, worker gauge) during the sweep and writes it to `PATH` as
//! JSONL for `telemetry_report`.

use std::path::PathBuf;
use std::process::ExitCode;

use slipstream_bench::{
    corpus_entry_text, json, replay_corpus_dir, replay_corpus_file, run_fuzz, run_fuzz_telemetry,
    to_jsonl, write_corpus_traced, FuzzConfig, FuzzResult,
};
use slipstream_core::standard_invariants;
use slipstream_core::telemetry::{RunManifest, Telemetry};

/// The checked-in regression corpus, relative to the workspace root.
const DEFAULT_CORPUS: &str = "crates/bench/corpus";

/// The committed full-sweep document, relative to the workspace root.
const DOC: &str = "BENCH_fuzz.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--smoke` selects the *base* config regardless of where it appears
    // on the command line; every explicit flag then overlays it, so flag
    // behavior is order-independent.
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    assert!(
        !(smoke && check),
        "--check compares the full sweep; it cannot run with --smoke"
    );
    let mut cfg = if smoke {
        FuzzConfig::smoke()
    } else {
        FuzzConfig::full()
    };
    let mut out: Option<String> = if smoke || check {
        None
    } else {
        Some(DOC.to_string())
    };
    let mut corpus = corpus_dir();
    let mut emit_corpus = false;
    let mut trace = false;
    let mut scaling_probe = false;
    let mut replay: Option<PathBuf> = None;
    let mut tel_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" | "--check" => {
                i += 1;
            }
            "--seeds" => {
                cfg.seeds = value(i).parse().expect("--seeds: integer");
                i += 2;
            }
            "--workers" => {
                cfg.workers = value(i)
                    .parse::<usize>()
                    .expect("--workers: integer")
                    .max(1);
                i += 2;
            }
            "--seed" => {
                cfg.seed = value(i).parse().expect("--seed: integer");
                i += 2;
            }
            "--out" => {
                out = Some(value(i).clone());
                i += 2;
            }
            "--corpus" => {
                corpus = PathBuf::from(value(i));
                i += 2;
            }
            "--emit-corpus" => {
                emit_corpus = true;
                i += 1;
            }
            "--trace" => {
                trace = true;
                i += 1;
            }
            "--scaling-probe" => {
                scaling_probe = true;
                i += 1;
            }
            "--replay" => {
                replay = Some(PathBuf::from(value(i)));
                i += 2;
            }
            "--telemetry" => {
                tel_path = Some(value(i).clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    if let Some(path) = replay {
        return replay_only(&path);
    }

    eprintln!(
        "differential fuzz: {} seeds x {} invariants (master seed {:#x}, {} workers)",
        cfg.seeds,
        standard_invariants().len(),
        cfg.seed,
        cfg.workers,
    );
    let invariants = standard_invariants();
    let mut tel = tel_path.as_ref().map(|_| Telemetry::new());
    let result = run_fuzz_telemetry(&cfg, &invariants, tel.as_mut());
    print_report(&result);

    if let (Some(path), Some(tel)) = (&tel_path, &tel) {
        let manifest = RunManifest::new("differential_fuzz", "fuzz", &format!("{cfg:?}"))
            .label("workers", cfg.workers)
            .label("seeds", cfg.seeds)
            .label("seed", format!("{:#x}", cfg.seed));
        std::fs::write(path, to_jsonl(&tel.snapshot(&manifest)))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    // Replay the checked-in corpus alongside every sweep: old minimized
    // reproducers must stay fixed.
    let replayed = match replay_corpus_dir(&corpus) {
        Ok(n) => {
            println!("corpus replay: {n} entries from {} OK", corpus.display());
            n
        }
        Err(e) => {
            eprintln!("corpus replay FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    if scaling_probe {
        probe_scaling(&cfg, &result);
    }

    if smoke {
        smoke_assertions(&result, replayed);
        println!("smoke fuzz OK");
    }

    if check && !rows_match_committed(&result) {
        return ExitCode::FAILURE;
    }

    if !result.violations.is_empty() {
        for v in &result.violations {
            println!(
                "\nVIOLATION seed {:#x} invariant {} ({} live instrs, shrunk from {}):",
                v.seed, v.invariant, v.minimized_live, v.original_instrs
            );
            print!("{}", corpus_entry_text(v));
        }
        if emit_corpus || trace {
            let paths = write_corpus_traced(&corpus, &result.violations, trace)
                .expect("write corpus entries");
            for p in &paths {
                eprintln!("wrote {}", p.display());
            }
        }
    }

    if let Some(path) = out {
        std::fs::write(&path, full_json(&result)).expect("write fuzz JSON");
        eprintln!("wrote {path}");
    }

    if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolves the checked-in corpus directory from the manifest location, so
/// the binary works from any working directory inside the workspace.
fn corpus_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let local = manifest.join("corpus");
    if local.is_dir() {
        local
    } else {
        PathBuf::from(DEFAULT_CORPUS)
    }
}

fn replay_only(path: &std::path::Path) -> ExitCode {
    let outcome = if path.is_dir() {
        replay_corpus_dir(path).map(|n| format!("{n} entries"))
    } else {
        replay_corpus_file(path).map(|()| "1 entry".to_string())
    };
    match outcome {
        Ok(what) => {
            println!("corpus replay: {what} OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corpus replay FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_report(result: &FuzzResult) {
    println!("{:<26} {:>8} {:>10}", "invariant", "checked", "violations");
    for c in &result.coverage {
        println!("{:<26} {:>8} {:>10}", c.name, c.checked, c.violations);
    }
    println!(
        "fuzz: {} seeds ({} rejected) in {:.2}s ({:.1} seeds/s, {} checks, {} workers)",
        result.seeds.len(),
        result.gen_rejected,
        result.elapsed_seconds,
        result.seeds_per_sec(),
        result.checks(),
        result.config.workers,
    );
}

/// Sanity invariants cheap enough for CI; a violation is a simulator
/// regression, so panic (non-zero exit) fails the build.
fn smoke_assertions(result: &FuzzResult, replayed: usize) {
    assert!(
        result.is_clean(),
        "smoke fuzz found violations — the simulators diverged from the oracle"
    );
    assert_eq!(
        result.gen_rejected, 0,
        "every generated program must terminate functionally"
    );
    for c in &result.coverage {
        assert_eq!(
            c.checked,
            result.seeds.len() as u64,
            "{}: every seed must be checked by every invariant",
            c.name,
        );
    }
    assert!(replayed > 0, "the checked-in corpus must not be empty");
}

/// Whether the sweep's `rows` object is byte-identical to the one in the
/// committed [`DOC`]; reports the outcome either way.
fn rows_match_committed(result: &FuzzResult) -> bool {
    let committed = std::fs::read_to_string(DOC)
        .unwrap_or_else(|e| panic!("{DOC} missing at the repo root ({e})"));
    let rows = committed
        .split_once("\"rows\": ")
        .and_then(|(_, rest)| rest.strip_suffix("\n}\n"))
        .unwrap_or_else(|| panic!("{DOC} has no trailing `rows` object"));
    if rows != result.rows_json() {
        eprintln!(
            "{DOC} rows drifted from the regenerated sweep — if the change is \
             intentional, re-commit it via `cargo run --release -p slipstream-bench \
             --bin differential_fuzz -- --workers 1`"
        );
        return false;
    }
    println!("differential_fuzz --check: {DOC} rows match the regenerated sweep");
    true
}

/// Reruns the same seed set single-threaded and asserts the deterministic
/// rows are byte-identical — the worker pool must not affect output.
fn probe_scaling(cfg: &FuzzConfig, pooled: &FuzzResult) {
    let mut one = cfg.clone();
    one.workers = 1;
    let invariants = standard_invariants();
    let serial = run_fuzz(&one, &invariants);
    assert_eq!(
        serial.rows_json(),
        pooled.rows_json(),
        "fuzz rows must be worker-count independent"
    );
    println!(
        "scaling probe: 1 worker {:.2}s, {} workers {:.2}s — {:.2}x speedup",
        serial.elapsed_seconds,
        cfg.workers,
        pooled.elapsed_seconds,
        serial.elapsed_seconds / pooled.elapsed_seconds.max(1e-9),
    );
}

/// The JSON document: sweep parameters, wall-clock throughput, and the
/// deterministic per-invariant rows.
fn full_json(result: &FuzzResult) -> String {
    let cfg = &result.config;
    let throughput = json::Obj::new()
        .f64("elapsed_seconds", result.elapsed_seconds, 3)
        .f64("seeds_per_sec", result.seeds_per_sec(), 2)
        .raw("checks", result.checks())
        .finish();
    format!(
        "{{\n  \"seed\": {}, \"seeds\": {}, \"workers\": {}, \"shrink_evals\": {},\n  \
         \"throughput\": {},\n  \"rows\": {}\n}}\n",
        cfg.seed,
        cfg.seeds,
        cfg.workers,
        cfg.shrink_evals,
        throughput,
        result.rows_json(),
    )
}
