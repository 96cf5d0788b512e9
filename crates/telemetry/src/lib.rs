//! Host-side telemetry for the slipstream harness: where does the
//! *simulator's own* wall-clock go?
//!
//! PR 4 and PR 9 made simulated time observable (flight recorder, interval
//! metrics, CPI stacks); this crate turns the same lens on the host. It
//! provides:
//!
//! - [`Telemetry`] — a per-thread metrics registry: span timers (count +
//!   total nanoseconds + a log2-bucketed duration histogram per
//!   [`SpanKind`]), monotonic counters ([`CounterKind`]), last-value
//!   gauges ([`GaugeKind`]), and value histograms ([`HistKind`]). Every
//!   field is a plain `u64` in a fixed-size array — no atomics, no locks,
//!   no allocation after construction — because each worker thread owns
//!   its own instance and registries are combined *after* a pool drains.
//! - [`Telemetry::merge`] — commutative, associative summation, so the
//!   aggregate of N worker registries is independent of worker count and
//!   merge order (the same discipline the campaign rows follow).
//! - [`SpanGuard`] — an RAII timer that records into a span on drop, for
//!   straight-line phases; call sites that already hold a start time
//!   record with [`Telemetry::record_span`] directly.
//! - [`RunManifest`] + [`Snapshot`] — a run's identity (binary, scheduler,
//!   FNV-1a config digest, host-speed calibration anchor) married to a
//!   *dynamic* named-row view of the metrics. Snapshots are what exporters
//!   consume: they merge across files, carry rows the fixed enums don't
//!   know (e.g. `gate:*` spans appended by `scripts/check.sh`), and render
//!   to Prometheus text exposition here ([`Snapshot::prometheus_text`]);
//!   the JSONL rendering lives in the bench crate's `json.rs` layer.
//!
//! Cost discipline: the simulator's schedulers hold `Option<Box<Telemetry>>`
//! and every instrumentation point is gated on it — telemetry off means no
//! `Instant::now()` calls and zero allocations, enforced by the throughput
//! harness's marginal-allocation gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Number of log2 buckets: bucket `i` counts values in `[2^(i-1), 2^i)`
/// (bucket 0 counts zero), which spans the full `u64` range.
pub const LOG2_BUCKETS: usize = 64;

/// The log2 bucket index of `v` (0 for 0, else `64 - leading_zeros`,
/// clamped to the last bucket).
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

/// A log2-bucketed histogram of `u64` values (durations in nanoseconds,
/// campaign site cycles, shrink evaluation counts, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    /// Count per log2 bucket (see [`log2_bucket`]).
    pub buckets: [u64; LOG2_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Maximum recorded value (0 when empty).
    pub max: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Sums `other` into `self` (commutative; `max` merges by max).
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs, ascending.
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }
}

macro_rules! kinds {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $name::ALL.len();

            /// The stable export name of this kind.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Index into a `[_; COUNT]` array.
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

kinds! {
    /// Named wall-clock spans around the harness's phases. The `A`/`R`
    /// prefixes name the *logical side* of the machine a span belongs to.
    SpanKind {
        /// Whole `run_mode` call, recorded on the R (calling) side.
        RunTotal => "run_total",
        /// Serial scheduler: the entire lockstep loop (one span per run;
        /// the serial loop is not decomposed further).
        SerialExec => "serial_exec",
        /// A side: executing one window's burst of cycles.
        AWindowExec => "a_window_exec",
        /// A side: taking the window boundary checkpoint.
        ACheckpoint => "a_checkpoint",
        /// A side: rollback to the window checkpoint + deterministic replay.
        ARollbackReplay => "a_rollback_replay",
        /// A side: applying a boundary report (training + credit refresh).
        /// No scheduler records it (the windowed boundary sync is
        /// `r_boundary_sync`), so it reads 0; it stays because the
        /// repository benchmark's per-layer registry looks it up by label.
        ABoundaryApply => "a_boundary_apply",
        /// A side: applying a recovery command.
        ARecoverApply => "a_recover_apply",
        /// R side: consuming one window's batches.
        RWindowConsume => "r_window_consume",
        /// R side: the window boundary sync (training hand-off, L2 merge,
        /// credit snapshot).
        RBoundarySync => "r_boundary_sync",
        /// R side: building a recovery command (repair list, flush).
        RRecoveryBuild => "r_recovery_build",
        /// Campaign: preparing one benchmark context (golden state +
        /// fault-free baseline).
        CampaignPrepare => "campaign_prepare",
        /// Campaign worker: one injection-site experiment.
        CampaignSite => "campaign_site",
        /// Fuzz worker: checking one program seed against all invariants.
        FuzzSeed => "fuzz_seed",
        /// Fuzz worker: one delta-debugging shrink pass.
        ShrinkPass => "shrink_pass",
        /// Harness: evaluating one benchmark through the processor models.
        BenchEval => "bench_eval",
    }
}

kinds! {
    /// Monotonic counters. All are *deterministic* (functions of the
    /// simulated work, not of scheduling), so merged values are
    /// byte-identical across worker counts.
    CounterKind {
        /// Campaign: injection sites run.
        CampaignSites => "campaign_sites",
        /// Campaign: sites whose fault dispatched.
        CampaignFired => "campaign_fired",
        /// Campaign: sites detected and transparently recovered.
        CampaignDetected => "campaign_detected",
        /// Campaign: total cycles simulated across all site runs.
        CampaignSimCycles => "campaign_sim_cycles",
        /// Fuzz: program seeds swept.
        FuzzSeeds => "fuzz_seeds",
        /// Fuzz: invariant checks performed.
        FuzzChecks => "fuzz_checks",
        /// Fuzz: seeds whose generated program was rejected (oracle
        /// non-termination).
        FuzzGenRejected => "fuzz_gen_rejected",
        /// Fuzz: invariant violations found.
        FuzzViolations => "fuzz_violations",
        /// Fuzz: shrink predicate evaluations consumed.
        FuzzShrinkEvals => "fuzz_shrink_evals",
    }
}

kinds! {
    /// Last-value gauges (merge by max — the interesting configurations
    /// are identical across workers, and max is commutative).
    GaugeKind {
        /// Worker threads in the pool.
        Workers => "workers",
        /// Sync quantum (window length) in cycles.
        SyncQuantum => "sync_quantum",
    }
}

kinds! {
    /// Value histograms. All are deterministic.
    HistKind {
        /// Cycles simulated per campaign site run.
        CampaignSiteCycles => "campaign_site_cycles",
        /// Shrink predicate evaluations per violation.
        ShrinkEvals => "shrink_evals",
    }
}

/// One span's accumulated statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_nanos: u64,
    /// Log2 histogram of per-entry durations (nanoseconds).
    pub hist: LogHist,
}

/// A per-thread metrics registry (see the crate docs). Construct one per
/// owning thread, record into it without synchronization, and
/// [`merge`](Telemetry::merge) after the pool drains.
#[derive(Debug, Clone)]
pub struct Telemetry {
    spans: Vec<SpanStat>,
    counters: [u64; CounterKind::COUNT],
    gauges: [u64; GaugeKind::COUNT],
    hists: Vec<LogHist>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Telemetry {
        Telemetry {
            spans: vec![SpanStat::default(); SpanKind::COUNT],
            counters: [0; CounterKind::COUNT],
            gauges: [0; GaugeKind::COUNT],
            hists: vec![LogHist::default(); HistKind::COUNT],
        }
    }

    /// Records one completed span entry of `nanos` duration.
    pub fn record_span(&mut self, kind: SpanKind, nanos: u64) {
        let s = &mut self.spans[kind.index()];
        s.count += 1;
        s.total_nanos += nanos;
        s.hist.record(nanos);
    }

    /// RAII span timer: records into `kind` when the guard drops.
    pub fn span_guard(&mut self, kind: SpanKind) -> SpanGuard<'_> {
        SpanGuard {
            tel: self,
            kind,
            start: Instant::now(),
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, kind: CounterKind, n: u64) {
        self.counters[kind.index()] += n;
    }

    /// Sets a gauge to `v`.
    pub fn set_gauge(&mut self, kind: GaugeKind, v: u64) {
        self.gauges[kind.index()] = v;
    }

    /// Records one value into a value histogram.
    pub fn record_value(&mut self, kind: HistKind, v: u64) {
        self.hists[kind.index()].record(v);
    }

    /// A span's accumulated statistics.
    pub fn span(&self, kind: SpanKind) -> &SpanStat {
        &self.spans[kind.index()]
    }

    /// A counter's value.
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.counters[kind.index()]
    }

    /// A gauge's value.
    pub fn gauge(&self, kind: GaugeKind) -> u64 {
        self.gauges[kind.index()]
    }

    /// A value histogram.
    pub fn hist(&self, kind: HistKind) -> &LogHist {
        &self.hists[kind.index()]
    }

    /// Sums `other` into `self`. Counters, span stats, and histograms add;
    /// gauges merge by max. Merging is commutative and associative, so any
    /// merge order over any partitioning of the work yields the same
    /// registry.
    pub fn merge(&mut self, other: &Telemetry) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.count += b.count;
            a.total_nanos += b.total_nanos;
            a.hist.merge(&b.hist);
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// The registry as a dynamic named-row [`Snapshot`] under `manifest`'s
    /// identity. Empty rows (zero-count spans/hists, zero counters and
    /// gauges) are skipped.
    pub fn snapshot(&self, manifest: &RunManifest) -> Snapshot {
        let spans = SpanKind::ALL
            .iter()
            .map(|&k| (k, self.span(k)))
            .filter(|(_, s)| s.count > 0)
            .map(|(k, s)| SpanRow {
                name: k.label().to_string(),
                count: s.count,
                total_nanos: s.total_nanos,
                buckets: s.hist.sparse(),
            })
            .collect();
        let counters = CounterKind::ALL
            .iter()
            .map(|&k| (k.label().to_string(), self.counter(k)))
            .filter(|&(_, v)| v > 0)
            .collect();
        let gauges = GaugeKind::ALL
            .iter()
            .map(|&k| (k.label().to_string(), self.gauge(k)))
            .filter(|&(_, v)| v > 0)
            .collect();
        let hists = HistKind::ALL
            .iter()
            .map(|&k| (k, self.hist(k)))
            .filter(|(_, h)| !h.is_empty())
            .map(|(k, h)| HistRow {
                name: k.label().to_string(),
                count: h.count,
                sum: h.sum,
                max: h.max,
                buckets: h.sparse(),
            })
            .collect();
        Snapshot {
            binary: manifest.binary.clone(),
            scheduler: manifest.scheduler.clone(),
            config_digest: format!("{:016x}", manifest.config_digest),
            calibration_instrs_per_sec: manifest.calibration_instrs_per_sec,
            labels: manifest.labels.clone(),
            spans,
            counters,
            gauges,
            hists,
        }
    }
}

/// RAII span timer from [`Telemetry::span_guard`].
pub struct SpanGuard<'a> {
    tel: &'a mut Telemetry,
    kind: SpanKind,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.tel.record_span(self.kind, nanos);
    }
}

/// FNV-1a hash of `bytes` (the vendored 64-bit variant the campaign's
/// site-stream seeding already uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A run's identity, attached to every export so merged telemetry is
/// traceable to what produced it.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Producing binary (`throughput`, `fault_campaign`, ...).
    pub binary: String,
    /// Scheduler/model the run used (`serial`, `windowed`, or a
    /// harness-level label like `campaign`).
    pub scheduler: String,
    /// FNV-1a digest of the run's configuration (`Debug`-rendered), so
    /// two exports are only comparable when their digests match.
    pub config_digest: u64,
    /// Host-speed anchor: the throughput calibration row's instrs/s on
    /// this machine (`None` when no calibration is available).
    pub calibration_instrs_per_sec: Option<f64>,
    /// Free-form extra labels (scale, workers, ...).
    pub labels: Vec<(String, String)>,
}

impl RunManifest {
    /// A manifest with the config digest computed from a `Debug` rendering.
    pub fn new(binary: &str, scheduler: &str, config_debug: &str) -> RunManifest {
        RunManifest {
            binary: binary.to_string(),
            scheduler: scheduler.to_string(),
            config_digest: fnv1a(config_debug.as_bytes()),
            calibration_instrs_per_sec: None,
            labels: Vec::new(),
        }
    }

    /// Adds a free-form label.
    pub fn label(mut self, key: &str, value: impl std::fmt::Display) -> RunManifest {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    /// Sets the calibration anchor.
    pub fn calibration(mut self, instrs_per_sec: Option<f64>) -> RunManifest {
        self.calibration_instrs_per_sec = instrs_per_sec;
        self
    }
}

/// One span row of a [`Snapshot`] (dynamic name — may be a [`SpanKind`]
/// label or an external row like `gate:fmt`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Span name.
    pub name: String,
    /// Times entered.
    pub count: u64,
    /// Total nanoseconds.
    pub total_nanos: u64,
    /// Sparse log2 duration histogram (`(bucket, count)`, ascending).
    pub buckets: Vec<(u32, u64)>,
}

/// One value-histogram row of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Histogram name.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Maximum recorded value.
    pub max: u64,
    /// Sparse log2 buckets (`(bucket, count)`, ascending).
    pub buckets: Vec<(u32, u64)>,
}

/// A manifest plus dynamic named metric rows: the unit every exporter,
/// parser, and merger operates on.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Producing binary.
    pub binary: String,
    /// Scheduler/model label.
    pub scheduler: String,
    /// Config digest as 16 hex digits.
    pub config_digest: String,
    /// Host-speed calibration anchor (instrs/s), when known.
    pub calibration_instrs_per_sec: Option<f64>,
    /// Free-form labels.
    pub labels: Vec<(String, String)>,
    /// Span rows, in export order.
    pub spans: Vec<SpanRow>,
    /// Counter rows.
    pub counters: Vec<(String, u64)>,
    /// Gauge rows.
    pub gauges: Vec<(String, u64)>,
    /// Histogram rows.
    pub hists: Vec<HistRow>,
}

impl Snapshot {
    /// Sums `other` into `self` by row name (rows new to `self` append in
    /// `other`'s order): counters/spans/hists add, gauges merge by max.
    /// The manifest keeps `self`'s identity.
    pub fn merge(&mut self, other: &Snapshot) {
        for o in &other.spans {
            match self.spans.iter_mut().find(|s| s.name == o.name) {
                Some(s) => {
                    s.count += o.count;
                    s.total_nanos += o.total_nanos;
                    s.buckets = merge_sparse(&s.buckets, &o.buckets);
                }
                None => self.spans.push(o.clone()),
            }
        }
        for &(ref name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some(c) => c.1 += v,
                None => self.counters.push((name.clone(), v)),
            }
        }
        for &(ref name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some(g) => g.1 = g.1.max(v),
                None => self.gauges.push((name.clone(), v)),
            }
        }
        for o in &other.hists {
            match self.hists.iter_mut().find(|h| h.name == o.name) {
                Some(h) => {
                    h.count += o.count;
                    h.sum += o.sum;
                    h.max = h.max.max(o.max);
                    h.buckets = merge_sparse(&h.buckets, &o.buckets);
                }
                None => self.hists.push(o.clone()),
            }
        }
    }

    /// Renders the snapshot as Prometheus text exposition (version 0.0.4):
    /// one `slipstream_run_info` series carrying the manifest labels, then
    /// `slipstream_span_count` / `slipstream_span_nanos_total` /
    /// `slipstream_span_nanos_bucket` per span, and counter / gauge /
    /// histogram families. Bucket series are cumulative with an `le="+Inf"`
    /// terminator, as the format requires.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write;
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP slipstream_run_info Run manifest (value is always 1)."
        );
        let _ = writeln!(out, "# TYPE slipstream_run_info gauge");
        let mut info = format!(
            "binary=\"{}\",scheduler=\"{}\",config_digest=\"{}\"",
            esc(&self.binary),
            esc(&self.scheduler),
            esc(&self.config_digest)
        );
        if let Some(c) = self.calibration_instrs_per_sec {
            let _ = write!(info, ",calibration_instrs_per_sec=\"{c:.0}\"");
        }
        for (k, v) in &self.labels {
            let _ = write!(info, ",{}=\"{}\"", sanitize_label(k), esc(v));
        }
        let _ = writeln!(out, "slipstream_run_info{{{info}}} 1");

        if !self.spans.is_empty() {
            let _ = writeln!(out, "# HELP slipstream_span_count Span entries.");
            let _ = writeln!(out, "# TYPE slipstream_span_count counter");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "slipstream_span_count{{span=\"{}\"}} {}",
                    esc(&s.name),
                    s.count
                );
            }
            let _ = writeln!(
                out,
                "# HELP slipstream_span_nanos_total Wall-clock nanoseconds in span."
            );
            let _ = writeln!(out, "# TYPE slipstream_span_nanos_total counter");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "slipstream_span_nanos_total{{span=\"{}\"}} {}",
                    esc(&s.name),
                    s.total_nanos
                );
            }
            let _ = writeln!(
                out,
                "# HELP slipstream_span_nanos_bucket Log2 span-duration histogram."
            );
            let _ = writeln!(out, "# TYPE slipstream_span_nanos_bucket histogram");
            for s in &self.spans {
                if s.buckets.is_empty() {
                    continue;
                }
                write_buckets(
                    &mut out,
                    "slipstream_span_nanos_bucket",
                    &format!("span=\"{}\"", esc(&s.name)),
                    &s.buckets,
                    s.count,
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "# HELP slipstream_counter_total Harness counters.");
            let _ = writeln!(out, "# TYPE slipstream_counter_total counter");
            for (name, v) in &self.counters {
                let _ = writeln!(
                    out,
                    "slipstream_counter_total{{name=\"{}\"}} {v}",
                    esc(name)
                );
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "# HELP slipstream_gauge Harness gauges.");
            let _ = writeln!(out, "# TYPE slipstream_gauge gauge");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "slipstream_gauge{{name=\"{}\"}} {v}", esc(name));
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "# HELP slipstream_hist_bucket Log2 value histograms.");
            let _ = writeln!(out, "# TYPE slipstream_hist_bucket histogram");
            for h in &self.hists {
                let labels = format!("name=\"{}\"", esc(&h.name));
                write_buckets(
                    &mut out,
                    "slipstream_hist_bucket",
                    &labels,
                    &h.buckets,
                    h.count,
                );
                let _ = writeln!(out, "slipstream_hist_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "slipstream_hist_count{{{labels}}} {}", h.count);
            }
        }
        out
    }
}

/// Merges two sparse `(bucket, count)` lists, summing shared buckets.
fn merge_sparse(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out = a.to_vec();
    for &(bucket, count) in b {
        match out.iter_mut().find(|(i, _)| *i == bucket) {
            Some(e) => e.1 += count,
            None => out.push((bucket, count)),
        }
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    out
}

/// Rewrites `k` into a valid Prometheus label name.
fn sanitize_label(k: &str) -> String {
    let mut s: String = k
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Emits a cumulative `le`-labeled bucket series ending in `+Inf`.
fn write_buckets(out: &mut String, family: &str, labels: &str, sparse: &[(u32, u64)], total: u64) {
    use std::fmt::Write;
    let mut cum = 0u64;
    for &(bucket, count) in sparse {
        cum += count;
        // Bucket i covers values < 2^i (bucket 0 covers the value 0).
        let le = if bucket >= 63 {
            "+Inf".to_string()
        } else {
            (1u64 << bucket).to_string()
        };
        let _ = writeln!(out, "{family}{{{labels},le=\"{le}\"}} {cum}");
    }
    if sparse.last().is_none_or(|&(b, _)| b < 63) {
        let _ = writeln!(out, "{family}{{{labels},le=\"+Inf\"}} {total}");
    }
}

/// Validates Prometheus text exposition: every line is a comment or a
/// `name{labels} value` sample with a well-formed metric name, label
/// syntax, and numeric value; every `_bucket` series is cumulative
/// (non-decreasing) and terminated by `le="+Inf"`. Returns the first
/// offending line (1-based) and a description.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    // (family, labels-minus-le) -> (last cumulative value, saw +Inf)
    let mut buckets: Vec<(String, u64, bool)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let err = |what: &str| Err(format!("line {}: {what}: {line}", ln + 1));
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(p) => p,
            None => return err("expected 'name value'"),
        };
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let Some(l) = rest.strip_suffix('}') else {
                    return err("unterminated label set");
                };
                (n, Some(l))
            }
            None => (name_labels, None),
        };
        if !name_ok(name) {
            return err("bad metric name");
        }
        let v: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            match value.parse() {
                Ok(v) => v,
                Err(_) => return err("bad sample value"),
            }
        };
        let mut le: Option<String> = None;
        let mut rest_labels: Vec<String> = Vec::new();
        if let Some(labels) = labels {
            let mut chars = labels.char_indices().peekable();
            // Parse key="value" pairs, honoring escapes inside values.
            while chars.peek().is_some() {
                let start = chars.peek().map(|&(i, _)| i).unwrap_or(0);
                let Some(eq) = labels[start..].find('=') else {
                    return err("label without '='");
                };
                let key = &labels[start..start + eq];
                if !name_ok(key) {
                    return err("bad label name");
                }
                let vstart = start + eq + 1;
                if labels.as_bytes().get(vstart) != Some(&b'"') {
                    return err("label value must be quoted");
                }
                let mut i = vstart + 1;
                let bytes = labels.as_bytes();
                let mut val = String::new();
                loop {
                    match bytes.get(i) {
                        None => return err("unterminated label value"),
                        Some(b'"') => break,
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(&c @ (b'"' | b'\\')) => val.push(c as char),
                                Some(b'n') => val.push('\n'),
                                _ => return err("bad escape in label value"),
                            }
                            i += 2;
                        }
                        Some(&c) => {
                            val.push(c as char);
                            i += 1;
                        }
                    }
                }
                if key == "le" {
                    le = Some(val);
                } else {
                    rest_labels.push(format!("{key}={val}"));
                }
                // Skip past closing quote and an optional comma.
                let mut next = i + 1;
                if bytes.get(next) == Some(&b',') {
                    next += 1;
                }
                while chars.peek().is_some_and(|&(i, _)| i < next) {
                    chars.next();
                }
            }
        }
        if name.ends_with("_bucket") {
            let Some(le) = le else {
                return err("_bucket sample without an le label");
            };
            let key = format!("{name}|{}", rest_labels.join(","));
            let cum = v as u64;
            match buckets.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, last, saw_inf)) => {
                    if *saw_inf {
                        return err("bucket series continues after le=\"+Inf\"");
                    }
                    if cum < *last {
                        return err("bucket series is not cumulative");
                    }
                    *last = cum;
                    *saw_inf = le == "+Inf";
                }
                None => buckets.push((key, cum, le == "+Inf")),
            }
        }
    }
    for (key, _, saw_inf) in &buckets {
        if !saw_inf {
            return Err(format!("bucket series {key} never reached le=\"+Inf\""));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn merge_is_commutative_and_partition_independent() {
        let record = |tel: &mut Telemetry, vs: &[u64]| {
            for &v in vs {
                tel.record_span(SpanKind::CampaignSite, v);
                tel.add(CounterKind::CampaignSites, 1);
                tel.record_value(HistKind::CampaignSiteCycles, v);
            }
        };
        // One worker does all the work...
        let mut all = Telemetry::new();
        record(&mut all, &[3, 700, 19, 0, 1 << 40]);
        // ...vs three workers splitting it, merged in a different order.
        let (mut w1, mut w2, mut w3) = (Telemetry::new(), Telemetry::new(), Telemetry::new());
        record(&mut w1, &[700]);
        record(&mut w2, &[19, 3]);
        record(&mut w3, &[1 << 40, 0]);
        let mut merged = Telemetry::new();
        merged.merge(&w3);
        merged.merge(&w1);
        merged.merge(&w2);
        assert_eq!(
            merged.span(SpanKind::CampaignSite),
            all.span(SpanKind::CampaignSite)
        );
        assert_eq!(
            merged.counter(CounterKind::CampaignSites),
            all.counter(CounterKind::CampaignSites)
        );
        assert_eq!(
            merged.hist(HistKind::CampaignSiteCycles),
            all.hist(HistKind::CampaignSiteCycles)
        );
    }

    #[test]
    fn span_guard_records_on_drop() {
        let mut tel = Telemetry::new();
        {
            let _g = tel.span_guard(SpanKind::BenchEval);
        }
        assert_eq!(tel.span(SpanKind::BenchEval).count, 1);
    }

    #[test]
    fn snapshot_skips_empty_rows_and_merges_by_name() {
        let mut tel = Telemetry::new();
        tel.record_span(SpanKind::RunTotal, 100);
        tel.add(CounterKind::FuzzSeeds, 4);
        let m = RunManifest::new("t", "windowed", "cfg");
        let mut a = tel.snapshot(&m);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.counters.len(), 1);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.spans[0].total_nanos, 200);
        assert_eq!(a.counters[0].1, 8);
    }

    #[test]
    fn exposition_validates_and_catches_malformed_text() {
        let mut tel = Telemetry::new();
        tel.record_span(SpanKind::AWindowExec, 1234);
        tel.record_span(SpanKind::AWindowExec, 77);
        tel.add(CounterKind::CampaignSites, 2);
        tel.set_gauge(GaugeKind::Workers, 3);
        tel.record_value(HistKind::ShrinkEvals, 5);
        let m = RunManifest::new("throughput", "windowed", "cfg").label("scale", "0.2");
        let text = tel.snapshot(&m).prometheus_text();
        validate_exposition(&text).unwrap();
        assert!(validate_exposition("1bad{x=\"y\"} 1").is_err());
        assert!(validate_exposition("m_bucket{le=\"1\"} 2\nm_bucket{le=\"+Inf\"} 1").is_err());
        assert!(
            validate_exposition("m_bucket{le=\"1\"} 1").is_err(),
            "missing +Inf"
        );
    }
}
